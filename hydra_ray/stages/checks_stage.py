"""Check construction: change detection, next-check scheduling, payloads.

Stateless batch stage applied to the fetch stage's output.
Reproduces udata_hydra/crawl/preprocess_check_data.py:14-77 without the
SQL round-trips: the previous check's columns ride on the frontier row
(SURVEY.md §2.4 J2 — O(1) instead of a top-2-per-key shuffle), so a
single vectorized pass emits
  - the new check row (append-only checks log),
  - the frontier update (last_check_* columns, status/priority reset),
  - the udata webhook payload for changed checks (flattened with
    category completion, functions/payload.py).

The block is decided with the Arrow/numpy kernels of
``functions/check_kernels.py`` over the fetch stage's typed header
columns (the scalars in ``functions/checks.py`` are their spec); the
previous check's ``last_headers`` JSON is parsed once, on the rows
that have one, and its values ride on to the Analyser as transient
``PREV_COLS``. The payload column is written by the columnar encoder
(``functions/payload.py``).

Check ids are content-addressed instead of a Postgres serial:
``check_id = mix64(url_key ^ mix64(iteration ^ CONST))`` — a pure
function of (url, iteration), unique w.h.p., stable under any
parallelism (the ordering contract's requirement).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.functions.check_kernels import (
    content_length_ints,
    differ,
    mask,
    next_check_dates,
    valid,
    valid_status,
)
from hydra_ray.functions.hashing import _mix64
from hydra_ray.functions.payload import HYDRA_UDATA_METADATA, Members, category_fields, encode_payloads
from hydra_ray.schemas import column, strings, with_columns

_ID_SALT = np.uint64(0xC0FFEE5EED)

# transient columns: the previous check's header values, for the Analyser
PREV_COLS = {
    "prev_content_type": "content-type",
    "prev_content_length": "content-length",
    "prev_last_modified": "last-modified",
}


def check_ids_for(url_keys: np.ndarray, iteration: int) -> np.ndarray:
    salt = _mix64(np.array([np.uint64(iteration) ^ _ID_SALT], dtype=np.uint64))[0]
    ids = _mix64(url_keys.astype(np.uint64) ^ salt)
    return (ids >> np.uint64(1)).astype(np.int64)  # keep positive


def build_checks_batch(batch: pa.Table, iteration: int, now: datetime) -> pa.Table:
    """Fetch output rows (outcome != 'backoff') → appended check columns:
    check_id, has_changed, next_check_at, payload (JSON or null), and
    the transient ``PREV_COLS``."""
    n = len(batch)
    ids = check_ids_for(batch["url_key"].to_numpy(zero_copy_only=False), iteration)
    now_utc = now if now.tzinfo else now.replace(tzinfo=timezone.utc)
    naive = now_utc.replace(tzinfo=None)

    has_last = valid(batch["last_check_id"])
    prev = previous_headers(column(batch, "last_headers"), has_last)
    status = column(batch, "check_status")
    timeout = pc.fill_null(column(batch, "check_timeout"), False)
    cur_ct = column(batch, "hdr_content_type")
    cur_cl = column(batch, "hdr_content_length")
    cors_js = column(batch, "check_cors_headers")
    # has_check_changed, row by row
    last_status = column(batch, "last_status")
    changed = ~has_last | (
        differ(status, last_status)
        | (valid_status(last_status) & ~valid_status(status))
        | differ(timeout, column(batch, "last_timeout"))
        | differ(cur_cl, prev["prev_content_length"])
        | differ(cur_ct, prev["prev_content_type"])
        | _cors_changed(cors_js, column(batch, "last_cors_headers"), has_last)
    )
    next_at = next_check_dates(changed, has_last, column(batch, "last_check_at"), naive)

    return with_columns(
        batch,
        {
            "check_id": pa.array(ids),
            "has_changed": pa.array(changed, type=pa.bool_()),
            "created_at": pa.array(np.full(n, np.datetime64(naive, "us")), type=pa.timestamp("us")),
            "next_check_at": next_at,
            "payload": _check_payloads(batch, ids, status, timeout, now_utc, changed),
            **prev,
        },
    )


def previous_headers(last_headers: pa.Array, has_last: np.ndarray) -> dict[str, pa.Array]:
    """``PREV_COLS`` from the previous check's headers JSON, parsed on
    the rows that have a previous check."""
    rows = np.flatnonzero(has_last & valid(last_headers))
    values: dict[str, list] = {c: [None] * len(last_headers) for c in PREV_COLS}
    for j, text in zip(rows, strings(last_headers.take(pa.array(rows, type=pa.int64())))):
        headers = json.loads(text) if text else {}
        for col, name in PREV_COLS.items():
            values[col][j] = headers.get(name)
    return {c: pa.array(v, type=pa.string()) for c, v in values.items()}


def _cors_changed(cur: pa.Array, last: pa.Array, has_last: np.ndarray) -> np.ndarray:
    """``has_check_changed``'s CORS comparison: both sides are sorted
    JSON dumps, so equal texts hold equal dicts; the rows whose texts
    differ compare the parsed dicts."""
    moved = differ(cur, last) & has_last
    for j in np.flatnonzero(moved):
        a, b = cur[j].as_py(), last[j].as_py()
        moved[j] = ((json.loads(a) if a else None) or None) != ((json.loads(b) if b else None) or None)
    return moved


def _check_payloads(batch, ids, status, timeout, now_utc, changed) -> pa.Array:
    """The udata check payload of each changed row (null elsewhere):
    the ``check`` and ``check:headers`` categories, plus ``check:cors``
    on rows with a CORS preflight (``_cors_members``)."""
    n = len(batch)
    content_length = content_length_ints(column(batch, "hdr_content_length"))
    fields = {
        **category_fields(
            "check",
            {
                "id": pa.array(ids),
                "available": pc.if_else(
                    pa.array(mask(pc.equal(status, 429))),
                    pa.scalar(None, pa.bool_()),
                    pa.array(valid_status(status)),
                ),
                "status": status,
                "timeout": timeout,
                "date": now_utc.isoformat(),
                "error": column(batch, "check_error"),
            },
        ),
        **category_fields(
            "check:headers",
            {
                "content-type": pc.replace_substring_regex(
                    pc.fill_null(column(batch, "hdr_content_type"), ""), r"(?s);.*", ""
                ),
                "content-length": pc.if_else(
                    pc.equal(content_length, 0), pa.scalar(None, pa.int64()), content_length
                ),
            },
        ),
    }
    first_cors_key = f"check:cors:{min(HYDRA_UDATA_METADATA['check:cors'])}"
    fields[first_cors_key] = Members(_cors_members(column(batch, "check_cors_headers")))
    encoded = encode_payloads(fields, n)
    return pc.if_else(pa.array(changed), encoded, pa.scalar(None, pa.string()))


def _cors_members(cors_js: pa.Array) -> pa.Array:
    """The complete ``check:cors`` category of each row's preflight
    (none without one), written once per distinct stored preflight."""
    names = sorted(HYDRA_UDATA_METADATA["check:cors"])
    distinct = pc.unique(cors_js)
    texts = []
    for text in strings(distinct):
        cors = json.loads(text) if text else None
        texts.append(
            "".join(f", {json.dumps(f'check:cors:{f}')}: {json.dumps(cors.get(f), sort_keys=True)}" for f in names)
            if cors
            else ""
        )
    return pa.array(texts, type=pa.string()).take(pc.index_in(cors_js, value_set=distinct))
