"""Change detection and scheduling over a block's Arrow columns.

Columnar twins of the scalars in ``functions/checks.py``, which stay
the spec: ``build_checks_batch`` and the Analyser decide a whole block
with these kernels, and tests/test_crawler/test_check_kernels.py holds
them equal to the scalar chain over random check histories.

Header values are strings (``convert_headers``). Two inputs leave the
kernels for the scalar code, value by value: a ``Last-Modified`` that
is not a canonical RFC 1123 GMT date goes through ``_parse_http_date``,
and a content-length that is not a plain digit string through ``int``.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.config import config
from hydra_ray.functions.checks import Change, _parse_http_date
from hydra_ray.schemas import strings

TS = pa.timestamp("us")
CHANGED = np.int8(Change.HAS_CHANGED.value)
NOT_CHANGED = np.int8(Change.HAS_NOT_CHANGED.value)
NO_GUESS = np.int8(Change.NO_GUESS.value)
CHANGE_NAMES = np.array([None] + [c.name for c in Change], dtype=object)  # by value

_RFC1123 = "%a, %d %b %Y %H:%M:%S GMT"
_US = timedelta(microseconds=1)


def mask(arr) -> np.ndarray:
    """A boolean column as a numpy mask, null read as False."""
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False)


def valid(arr) -> np.ndarray:
    return pc.is_valid(arr).to_numpy(zero_copy_only=False)


def differ(a, b) -> np.ndarray:
    """Python's ``a != b`` per row, None equal only to None."""
    return ~(mask(pc.equal(a, b)) | (~valid(a) & ~valid(b)))


def truthy(values) -> np.ndarray:
    """Non-null, non-empty strings."""
    return mask(pc.greater(pc.binary_length(values), 0))


def valid_status(status) -> np.ndarray:
    """``bool(is_valid_status(s))``: 200 <= s < 400."""
    return mask(pc.and_(pc.greater_equal(status, 200), pc.less(status, 400)))


def micros(ts) -> np.ndarray:
    """Timestamps as int64 microseconds (0 where null)."""
    return pc.fill_null(ts.cast(pa.int64()), 0).to_numpy(zero_copy_only=False)


def pick(masks: list[np.ndarray], values: list, default) -> pa.Array:
    """Row by row, the value of the first mask that holds, else ``default``."""
    out = default
    for m, v in zip(reversed(masks), reversed(values)):
        out = pc.if_else(pa.array(m), v, out)
    return out


def content_length_ints(values) -> pa.Array:
    """``int(v)`` of each content-length value as int64, clamped to the
    int64 range (so an oversize value stays oversize for the size cap);
    null where the header is absent or not an integer."""
    plain = mask(pc.match_substring_regex(values, r"^[0-9]{1,18}$"))
    out = pc.cast(pc.if_else(pa.array(plain), values, pa.scalar(None, pa.string())), pa.int64())
    rest = valid(values) & ~plain
    if rest.any():
        vals = []
        for v in strings(values.filter(pa.array(rest))):
            try:
                i = int(v)
            except ValueError:
                i = None
            vals.append(None if i is None else min(max(i, -(2**63)), 2**63 - 1))
        out = pc.replace_with_mask(out, pa.array(rest), pa.array(vals, type=pa.int64()))
    return out


def iso_utc(ts) -> pa.Array:
    """``dt.replace(tzinfo=timezone.utc).isoformat()`` of naive UTC
    timestamps, written once per distinct value (a block's dates repeat:
    one check time, a few harvest dates)."""
    distinct = pc.unique(ts)
    texts = [None if v is None else v.replace(tzinfo=timezone.utc).isoformat() for v in distinct.to_pylist()]
    return pa.array(texts, type=pa.string()).take(pc.index_in(ts, value_set=distinct))


def parse_http_dates(values) -> tuple[pa.Array, pa.Array]:
    """Per ``Last-Modified`` value, the ``isoformat()`` of
    ``_parse_http_date(v)`` and that datetime without its tzinfo (null
    where it does not parse), worked out once per distinct value.
    Canonical RFC 1123 GMT values parse in one ``strptime`` (kept only
    when formatting the result back gives the value itself); the rest
    go through ``_parse_http_date``."""
    distinct = pc.unique(values)
    parsed = pc.strptime(distinct, format=_RFC1123, unit="s", error_is_null=True)
    good = pa.array(mask(pc.equal(pc.strftime(parsed, format=_RFC1123), distinct)))
    # "YYYY-MM-DD HH:MM:SS" → "YYYY-MM-DDTHH:MM:SS+00:00"
    text = pc.replace_substring(pc.cast(parsed, pa.string()), " ", "T", max_replacements=1)
    iso = pc.if_else(good, pc.binary_join_element_wise(text, "+00:00", ""), pa.scalar(None, pa.string()))
    naive = pc.if_else(good, parsed.cast(TS), pa.scalar(None, TS))
    rest = pc.and_(pc.is_valid(distinct), pc.invert(good))
    if pc.any(rest).as_py():
        isos = []
        for v in strings(distinct.filter(rest)):
            dt = _parse_http_date(v)
            isos.append(dt.isoformat() if dt else None)
        dts = [datetime.fromisoformat(s).replace(tzinfo=None) if s else None for s in isos]
        iso = pc.replace_with_mask(iso, rest, pa.array(isos, type=pa.string()))
        naive = pc.replace_with_mask(naive, rest, pa.array(dts, type=TS))
    at = pc.index_in(values, value_set=distinct)
    return iso.take(at), naive.take(at)


def next_check_dates(
    changed: np.ndarray, has_last: np.ndarray, last_at, now: datetime
) -> pa.Array:
    """``calculate_next_check_date(changed, last, None, now)`` per row,
    ``last`` created at ``last_at`` (``now`` where null) on rows with
    ``has_last``. ``now`` is naive UTC."""
    delays = [timedelta(hours=d) // _US for d in config.CHECK_DELAYS]
    now_us = (now - datetime(1970, 1, 1)) // _US
    since = now_us - np.where(valid(last_at), micros(last_at), now_us)
    out = np.full(len(since), delays[-1], dtype=np.int64)
    for d in reversed(delays):
        out[since <= d] = d
    out[since > delays[-1]] = delays[-1]
    out[changed | ~has_last] = delays[0]
    return pa.array(now_us + out, type=TS)


class Decision:
    """A block's change decision: per row the ``Change`` value (int8),
    and the decision's ``analysis:last-modified-at`` (iso string),
    ``analysis:last-modified-detection`` and detected-last-modified
    timestamp (naive; null where the payload has no date)."""

    def __init__(self, n: int):
        self.change = np.full(n, NO_GUESS, dtype=np.int8)
        self.at = pa.nulls(n, pa.string())
        self.detection = pa.nulls(n, pa.string())
        self.dlma = pa.nulls(n, TS)

    def conclude(self, cases: list[tuple]) -> None:
        """Apply (rows, change, detection, timestamps[, iso dates])
        cases whose rows are disjoint; the iso dates default to
        ``iso_utc(timestamps)``."""
        cases = [c for c in cases if c[0].any()]
        for rows, change, *_ in cases:
            self.change[rows] = change
        rows = [c[0] for c in cases]
        self.detection = pick(rows, [c[2] for c in cases], self.detection)
        self.dlma = pick(rows, [c[3] for c in cases], self.dlma)
        self.at = pick(rows, [c[4] if len(c) > 4 else iso_utc(c[3]) for c in cases], self.at)


def early_hints(
    has_last: np.ndarray,
    harvest,
    prev_dlma,
    last_modified,
    prev_last_modified,
    content_length,
    prev_content_length,
    now,
) -> Decision:
    """``detect_change_on_early_hints`` per row: harvest date, then the
    Last-Modified header, then content-length; ``now`` is the check's
    created_at column (naive UTC)."""
    n = len(has_last)
    d = Decision(n)
    harvested = has_last & valid(harvest)
    by_header = ~harvested & truthy(last_modified)
    by_length = (
        ~harvested & ~by_header & has_last & truthy(content_length) & truthy(prev_content_length)
    )
    length_changed = differ(content_length, prev_content_length)
    has_prev_dlma = valid(prev_dlma)
    header_changed = ~has_last | differ(last_modified, prev_last_modified)
    same_harvest = mask(pc.equal(harvest, prev_dlma))
    lm_iso, lm_dt = parse_http_dates(
        pc.if_else(pa.array(by_header), last_modified, pa.scalar(None, pa.string()))
    )
    d.conclude(
        [
            (harvested & ~same_harvest, CHANGED, "harvest-resource-metadata", harvest),
            (harvested & same_harvest, NOT_CHANGED, "harvest-resource-metadata", harvest),
            (by_header & header_changed, CHANGED, "last-modified-header", lm_dt, lm_iso),
            (by_header & ~header_changed, NOT_CHANGED, "last-modified-header", lm_dt, lm_iso),
            (by_length & length_changed, CHANGED, "content-length-header", now),
            (
                by_length & ~length_changed & has_prev_dlma,
                NOT_CHANGED,
                "previous-check-detection",
                prev_dlma,
            ),
        ]
    )
    return d


def refine_with_checksum(
    d: Decision, downloaded: np.ndarray, has_last: np.ndarray, checksum, last_checksum, prev_dlma, now
) -> None:
    """``detect_change_from_checksum`` on the rows still NO_GUESS whose
    body was downloaded and hashed."""
    asked = (d.change == NO_GUESS) & downloaded & has_last & truthy(last_checksum)
    if not asked.any():
        return
    moved = differ(last_checksum, checksum)
    d.conclude(
        [
            (asked & moved, CHANGED, "computed-checksum", now),
            (asked & ~moved & valid(prev_dlma), NOT_CHANGED, "previous-check-detection", prev_dlma),
        ]
    )
