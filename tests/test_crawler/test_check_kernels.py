"""The columnar check and analysis path equals its scalar spec.

``build_checks_batch`` and the Analyser decide a block with the kernels
of ``functions/check_kernels.py`` and write payloads with the columnar
encoder; the scalars in ``functions/checks.py`` and ``flatten_payload``
+ ``json.dumps`` are the spec. Over random one- and two-check histories
(harvest dates, RFC 1123 and other Last-Modified values, content-length
changes and values past int64 or not integers, the checksum path, CORS preflights, None values and strings
with non-ASCII characters, quotes, backslashes and control characters)
every decided column and payload string must equal what the scalar
chain computes row by row, as the stages did before.
"""

import hashlib
import json
from datetime import datetime, timedelta, timezone

import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hydra_ray.config import config
from hydra_ray.functions.check_kernels import iso_utc, parse_http_dates
from hydra_ray.functions.checks import (
    Change,
    _parse_http_date,
    calculate_next_check_date,
    detect_change_from_checksum,
    detect_change_on_early_hints,
    has_check_changed,
)
from hydra_ray.functions.detect import detect_format, detect_formats, sniff_mime
from hydra_ray.functions.headers import get_content_type_from_header, is_valid_status
from hydra_ray.functions.payload import CORS_HEADER_FIELDS, encode_payloads, flatten_payload
from hydra_ray.stages.analysis import Analyser
from hydra_ray.stages.checks_stage import build_checks_batch
from hydra_ray.stages.fetcher import Fetcher

NOW = datetime(2026, 3, 1, 12, 0, 0)
UTC = timezone.utc

texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
tricky = st.one_of(
    st.none(),
    texts,
    st.sampled_from(['a"b', "back\\slash", "tab\there", "nl\nx", "é", "\x7f", "日本", ""]),
)
dates = st.datetimes(datetime(1999, 1, 1), datetime(2030, 1, 1))


@st.composite
def last_modified(draw):
    dt = draw(dates).replace(microsecond=0)
    return draw(
        st.one_of(
            st.none(),
            st.just(dt.strftime("%a, %d %b %Y %H:%M:%S GMT")),  # RFC 1123
            st.just(dt.strftime("%a, %d %b %Y %H:%M:%S +0200")),  # an offset
            st.just(dt.strftime("%d %b %Y %H:%M:%S -0000")),  # no weekday, naive
            st.just(dt.isoformat()),
            st.just("Sat, 31 Feb 2024 01:00:00 GMT"),  # no such day
            st.just("Mon, 01 Jan 24 01:00:00 GMT"),  # two-digit year
            st.just(dt.strftime("%a, %d %b %Y %H:%M:%S GMT").lower()),
            texts,
        )
    )


content_types = st.one_of(
    st.none(),
    st.sampled_from(["application/json", "application/pdf", "image/png; q=1", "Text/HTML;charset=x"]),
    texts.map(lambda s: "x-" + s),
)
content_lengths = st.one_of(
    st.none(),
    st.from_regex(r"0{0,2}[0-9]{1,6}", fullmatch=True),
    # past int64 (oversize), and values int() reads or refuses
    st.from_regex(r"[0-9]{19,22}", fullmatch=True),
    st.sampled_from(["9223372036854775807", "-9223372036854775809", "-3", "+5", " 12 ", "1_000", "٣"]),
    st.sampled_from(["", "12a", "1.5", "abc", "0x10"]),
)


def _content_length(v) -> int | None:
    """``int(v)`` clamped to int64; None for a value that is not an
    integer (the former row loops raised ``ValueError`` on it, failing
    the block)."""
    try:
        i = int(v)
    except (TypeError, ValueError):
        return None
    return min(max(i, -(2**63)), 2**63 - 1)


@st.composite
def headers(draw):
    h = {}
    for name, strat in (
        ("content-type", content_types),
        ("content-length", content_lengths),
        ("last-modified", last_modified()),
        ("x-other", tricky),
    ):
        v = draw(strat)
        if v is not None:
            h[name] = v
    return h


@st.composite
def cors(draw):
    if draw(st.booleans()):
        return None
    d = {"status": draw(st.sampled_from([200, 204, 301])), "error": draw(st.sampled_from([None, ""]))}
    for f in CORS_HEADER_FIELDS:
        d[f] = draw(tricky)
    if draw(st.integers(0, 5)) == 0:
        d["max-age"] = draw(st.integers(0, 10**6))  # a non-string value
    return d


@st.composite
def history(draw, i):
    """One resource: its current response and maybe a previous check."""
    url = f"https://h{i}.example/r/{i}"
    kind = draw(st.sampled_from(["ok", "ok", "ok", "error", "timeout"]))
    h = draw(headers())
    if kind == "ok":
        # a HEAD with neither content-length nor last-modified is retried
        # as GET: serve the same answer to both
        resp = {"kind": "ok", "status": draw(st.sampled_from([200, 203, 301])), "headers": h}
    elif kind == "error":
        resp = {"kind": "error", "status": draw(st.sampled_from([404, 429, 500])), "headers": h,
                "error": draw(st.one_of(st.none(), texts))}
    else:
        resp = {"kind": "timeout"}
    body = draw(st.binary(max_size=40))
    row = {
        "url": url,
        "format": draw(st.sampled_from([None, "json", "pdf", "geojson", "csv.gz"])),
        "harvest_modified_at": None,
        "last_check_id": None,
        "last_check_at": None,
        "last_status": None,
        "last_timeout": None,
        "last_headers": None,
        "last_cors_headers": None,
        "last_checksum": None,
        "last_filesize": None,
        "last_mime_type": None,
        "detected_last_modified_at": None,
        "next_check_at": NOW + timedelta(hours=1),
    }
    cur_cors = draw(cors())
    if draw(st.booleans()):  # a previous check
        prev_h = dict(h) if draw(st.booleans()) else draw(headers())
        if prev_h and draw(st.booleans()):  # one header moved
            key = draw(st.sampled_from(sorted(prev_h)))
            prev_h[key] = draw(st.one_of(content_lengths, last_modified(), texts)) or "1"
        prev_dlma = draw(st.one_of(st.none(), dates))
        prev_cors = cur_cors if draw(st.booleans()) else draw(cors())
        row.update(
            last_check_id=i + 1,
            last_check_at=draw(st.one_of(st.none(), st.datetimes(NOW - timedelta(days=60), NOW))),
            last_status=draw(st.sampled_from([resp.get("status"), 200, 404, 429, None])),
            last_timeout=draw(st.sampled_from([kind == "timeout", False, True])),
            last_headers=json.dumps(prev_h, sort_keys=True),
            # a stored preflight is a sorted dump; other texts of an
            # equal dict (key order, "{}" for none) must compare equal
            last_cors_headers=draw(
                st.sampled_from([None, "{}", ""])
                if prev_cors is None
                else st.sampled_from([json.dumps(prev_cors, sort_keys=True), json.dumps(prev_cors)])
            ),
            last_checksum=draw(
                st.sampled_from([None, "", hashlib.sha1(body).hexdigest(), "0" * 40])
            ),
            last_filesize=draw(st.one_of(st.none(), st.integers(0, 10**6))),
            last_mime_type=draw(st.one_of(st.none(), texts)),
            detected_last_modified_at=prev_dlma,
        )
        if draw(st.booleans()):
            row["harvest_modified_at"] = draw(st.sampled_from([prev_dlma, NOW - timedelta(days=3)]))
    elif draw(st.booleans()):
        row["harvest_modified_at"] = draw(dates)
    responses = {("head", url): resp, ("get", url): resp}
    if cur_cors is not None:
        responses[("options", url)] = cur_cors
    return row, responses, {url: body}


@st.composite
def blocks(draw):
    n = draw(st.integers(1, 6))
    rows, responses, bodies = [], {}, {}
    for i in range(n):
        row, resp, body = draw(history(i))
        rows.append(row)
        responses.update(resp)
        bodies.update(body)
    return rows, responses, bodies


def _block(rows) -> pa.Table:
    ts = pa.timestamp("us")
    n = len(rows)
    cols = {
        "url": pa.array([r["url"] for r in rows]),
        "domain": pa.array([r["url"].split("/")[2] for r in rows]),
        "resource_id": pa.array([f"rid-{i}" for i in range(n)]),
        "url_key": pa.array(range(1000, 1000 + n), type=pa.int64()),
        "url_md5": pa.array([hashlib.md5(r["url"].encode()).hexdigest() for r in rows]),
        "title": pa.array(["t"] * n),
        "format": pa.array([r["format"] for r in rows], type=pa.string()),
    }
    types = {
        "harvest_modified_at": ts, "last_check_id": pa.int64(), "last_check_at": ts,
        "last_status": pa.int32(), "last_timeout": pa.bool_(), "last_headers": pa.string(),
        "last_cors_headers": pa.string(), "last_checksum": pa.string(),
        "last_filesize": pa.int64(), "last_mime_type": pa.string(),
        "detected_last_modified_at": ts, "next_check_at": ts,
    }
    for name, t in types.items():
        cols[name] = pa.array([r[name] for r in rows], type=t)
    return pa.table(cols)


# -- the scalar spec: the stages' former row loops ---------------------------


def _utc(d):
    return None if d is None else (d if d.tzinfo else d.replace(tzinfo=UTC))


def scalar_check(r: dict, check_id: int, now_utc: datetime) -> dict:
    check_data = {
        "status": r["check_status"],
        "timeout": bool(r["check_timeout"]) if r["check_timeout"] is not None else False,
        "headers": json.loads(r["check_headers"]) if r["check_headers"] else {},
        "cors_headers": json.loads(r["check_cors_headers"]) if r["check_cors_headers"] else None,
    }
    last_check = None
    if r["last_check_id"] is not None:
        last_check = {
            "status": r["last_status"],
            "timeout": r["last_timeout"],
            "headers": json.loads(r["last_headers"]) if r["last_headers"] else {},
            "cors_headers": json.loads(r["last_cors_headers"]) if r["last_cors_headers"] else None,
        }
    changed = has_check_changed(check_data, last_check)
    if last_check is not None:
        last_check["created_at"] = _utc(r["last_check_at"]) or now_utc
    next_at = calculate_next_check_date(changed, last_check, None, now=now_utc)
    payload = None
    if changed:
        p = {
            "check:id": check_id,
            "check:available": is_valid_status(r["check_status"]),
            "check:status": r["check_status"],
            "check:timeout": check_data["timeout"],
            "check:date": now_utc.isoformat(),
            "check:error": r["check_error"],
            "check:headers:content-type": get_content_type_from_header(check_data["headers"]),
            "check:headers:content-length": _content_length(check_data["headers"].get("content-length")) or None,
        }
        c = check_data["cors_headers"]
        if c:
            p["check:cors:status"] = c.get("status")
            p["check:cors:error"] = c.get("error")
            for field in CORS_HEADER_FIELDS:
                p[f"check:cors:{field}"] = c.get(field)
        payload = json.dumps(flatten_payload(p), sort_keys=True)
    return {"has_changed": changed, "next_check_at": next_at.replace(tzinfo=None), "payload": payload}


def scalar_analysis(r: dict, body: bytes) -> dict:
    """One ok row of the former Analyser loop (no parse, no OGC); the
    MockTransport serves ``body`` under every size cap used here, so
    only a Content-Length over the cap is refused."""
    headers = json.loads(r["check_headers"]) if r["check_headers"] else {}
    now = r["created_at"].replace(tzinfo=UTC)
    checks2 = [{"created_at": now, "last_modified": headers.get("last-modified"),
                "content_length": headers.get("content-length"), "detected_last_modified_at": None}]
    has_last = r["last_check_id"] is not None
    if has_last:
        lh = json.loads(r["last_headers"]) if r["last_headers"] else {}
        checks2.append({"created_at": r["last_check_at"], "last_modified": lh.get("last-modified"),
                        "content_length": lh.get("content-length"),
                        "detected_last_modified_at": _utc(r["detected_last_modified_at"])})
    change, payload = detect_change_on_early_hints(checks2, _utc(r["harvest_modified_at"]))
    fmt = detect_format(headers.get("content-type"), r["url"], r["format"])
    dl: dict = {}
    out = {}
    if change != Change.HAS_NOT_CHANGED and (
        (_content_length(headers.get("content-length")) or 0)
        > config.MAX_FILESIZE_ALLOWED.get(fmt, config.DEFAULT_MAX_FILESIZE_ALLOWED)
    ):
        dl["analysis:error"] = "File too large to download"
        out.update(checksum=None, filesize=None, mime_type=None)
    elif change != Change.HAS_NOT_CHANGED:
        content_len = _content_length(headers.get("content-length")) or 0
        dl["analysis:content-length"] = content_len or len(body)
        dl["analysis:checksum"] = hashlib.sha1(body).hexdigest()
        if change == Change.NO_GUESS:
            change, payload = detect_change_from_checksum(
                dl["analysis:checksum"],
                {"checksum": r["last_checksum"],
                 "detected_last_modified_at": checks2[1]["detected_last_modified_at"]} if has_last else None,
                now=now,
            )
        dl["analysis:mime-type"] = sniff_mime(body, fmt)
        out.update(checksum=dl["analysis:checksum"], filesize=dl["analysis:content-length"],
                   mime_type=dl["analysis:mime-type"])
    else:
        out.update(checksum=r["last_checksum"], filesize=r["last_filesize"], mime_type=r["last_mime_type"])
    dlma, nca = None, r["next_check_at"]
    lm = (payload or {}).get("analysis:last-modified-at")
    if change in (Change.HAS_CHANGED, Change.HAS_NOT_CHANGED) and lm:
        dlma_dt = datetime.fromisoformat(lm)
        dlma = dlma_dt.replace(tzinfo=None)
        if change == Change.HAS_CHANGED:
            prev = {"created_at": r["last_check_at"]} if has_last else None
            nca = calculate_next_check_date(True, prev, dlma_dt, now=now).replace(tzinfo=None)
    run = change == Change.HAS_CHANGED or not has_last
    out.update(
        change_status=change.name,
        data_format=fmt,
        detected_last_modified_at_new=dlma,
        next_check_at=nca,
        analysis_error=dl.get("analysis:error"),
        analysis_payload=json.dumps(
            flatten_payload({"analysis:check_id": r["check_id"]} | dl | (payload or {})),
            sort_keys=True, default=str,
        ) if run else None,
    )
    return out


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(blocks())
def test_checks_and_analysis_equal_the_scalar_chain(block):
    rows, responses, bodies = block
    fetched = Fetcher(transport={"kind": "mock", "responses": responses})(_block(rows))
    checked = build_checks_batch(fetched, iteration=7, now=NOW.replace(tzinfo=UTC))
    analysed = Analyser(transport={"kind": "mock", "bodies": bodies})(checked)
    for c, r in zip(checked.to_pylist(), analysed.to_pylist()):
        want = scalar_check(c, c["check_id"], NOW.replace(tzinfo=UTC))
        assert {k: c[k] for k in want} == want
        if c["outcome"] != "ok":
            assert r["change_status"] is None and r["analysis_payload"] is None
            assert r["next_check_at"] == c["next_check_at"]
            continue
        spec = scalar_analysis(c, bodies[c["url"]])
        assert {k: r[k] for k in spec} == spec


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(last_modified(), texts), max_size=8))
def test_http_dates_parse_like_the_scalar(values):
    iso, naive = parse_http_dates(pa.array(values, type=pa.string()))
    for v, i, d in zip(values, iso.to_pylist(), naive.to_pylist()):
        dt = _parse_http_date(v) if v is not None else None
        assert i == (dt.isoformat() if dt else None)
        assert d == (datetime.fromisoformat(i).replace(tzinfo=None) if i else None)


@given(st.lists(st.one_of(st.none(), st.datetimes(datetime(1, 1, 1), datetime(9999, 1, 1))), max_size=8))
def test_iso_utc_is_isoformat(values):
    got = iso_utc(pa.array(values, type=pa.timestamp("us"))).to_pylist()
    assert got == [v.replace(tzinfo=UTC).isoformat() if v else None for v in values]


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.one_of(content_types, st.sampled_from(["text/csv", "TEXT/PLAIN", "application/x-gzip"])),
            st.sampled_from(["https://a/x.csv.gz", "https://a/geojson/y", "https://a/p.parquet", "https://a/z", ""]),
            st.sampled_from([None, "", "csv", "csv.gz", "xlsx", "ods", "parquet", "wfs"]),
        ),
        max_size=8,
    )
)
def test_detect_formats_equals_detect_format(triples):
    cts, urls, fmts = (pa.array(list(c), type=pa.string()) for c in zip(*triples)) if triples else (
        pa.array([], pa.string()),) * 3
    assert detect_formats(cts, urls, fmts).to_pylist() == [detect_format(*t) for t in triples]


values = st.one_of(st.none(), tricky, st.integers(-(2**40), 2**40), st.booleans())


@settings(max_examples=200)
@given(st.lists(st.dictionaries(st.sampled_from(["error", "status", "url", "size"]), values), min_size=1, max_size=6))
def test_encoder_writes_the_flattened_json(payloads):
    """Per column type, the encoder's text is json.dumps(flatten_payload)."""
    keys = {"error": pa.string(), "status": pa.int64(), "url": pa.string(), "size": pa.bool_()}
    cols = {}
    for k, t in keys.items():
        vals = [p.get(k) for p in payloads]
        if not all(v is None or isinstance(v, {pa.string(): str, pa.int64(): int, pa.bool_(): bool}[t])
                   and not (t == pa.int64() and isinstance(v, bool)) for v in vals):
            vals = [None] * len(vals)
        cols[f"analysis:parsing:{k}"] = pa.array(vals, type=t)
    rows = [{k: v for k, v in zip(cols, vals)} for vals in zip(*(c.to_pylist() for c in cols.values()))]
    others = {f"analysis:parsing:{f}": None for f in ("started_at", "finished_at", "parsing_table",
              "parquet_size", "parquet_url", "pmtiles_size", "pmtiles_url", "geojson_size",
              "geojson_url", "ogc_metadata")}
    got = encode_payloads({**cols, **others}, len(payloads)).to_pylist()
    assert got == [json.dumps(flatten_payload(r), sort_keys=True, default=str) for r in rows]
