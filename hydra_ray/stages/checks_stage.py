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

from hydra_ray.functions.checks import calculate_next_check_date, has_check_changed
from hydra_ray.functions.headers import get_content_type_from_header, is_valid_status
from hydra_ray.functions.payload import CORS_HEADER_FIELDS, flatten_payload
from hydra_ray.functions.hashing import _mix64

_ID_SALT = np.uint64(0xC0FFEE5EED)


def check_ids_for(url_keys: np.ndarray, iteration: int) -> np.ndarray:
    salt = _mix64(np.array([np.uint64(iteration) ^ _ID_SALT], dtype=np.uint64))[0]
    ids = _mix64(url_keys.astype(np.uint64) ^ salt)
    return (ids >> np.uint64(1)).astype(np.int64)  # keep positive


def build_checks_batch(batch: pa.Table, iteration: int, now: datetime) -> pa.Table:
    """Fetch output rows (outcome != 'backoff') → appended check columns:
    check_id, has_changed, next_check_at, payload (JSON or null)."""
    n = len(batch)
    keys = batch["url_key"].to_numpy(zero_copy_only=False)
    ids = check_ids_for(keys, iteration)

    statuses = batch["check_status"].to_pylist()
    headers_js = batch["check_headers"].to_pylist()
    cors_js = batch["check_cors_headers"].to_pylist()
    timeouts = batch["check_timeout"].to_pylist()
    errors = batch["check_error"].to_pylist()

    last_status = batch["last_status"].to_pylist()
    last_timeout = batch["last_timeout"].to_pylist()
    last_headers = batch["last_headers"].to_pylist()
    last_cors = batch["last_cors_headers"].to_pylist()
    has_last = pa.compute.is_valid(batch["last_check_id"]).to_pylist()
    last_at = batch["last_check_at"].to_pylist()

    changed_arr: list[bool] = []
    next_at: list[datetime] = []
    payloads: list[str | None] = []
    now_utc = now if now.tzinfo else now.replace(tzinfo=timezone.utc)

    for j in range(n):
        check_data = {
            "status": statuses[j],
            "timeout": bool(timeouts[j]) if timeouts[j] is not None else False,
            "headers": json.loads(headers_js[j]) if headers_js[j] else {},
            "cors_headers": json.loads(cors_js[j]) if cors_js[j] else None,
        }
        last_check = None
        if has_last[j]:
            last_check = {
                "status": last_status[j],
                "timeout": last_timeout[j],
                "headers": json.loads(last_headers[j]) if last_headers[j] else {},
                "cors_headers": json.loads(last_cors[j]) if last_cors[j] else None,
            }
        changed = has_check_changed(check_data, last_check)
        changed_arr.append(changed)
        if last_check is not None:
            prev_created = last_at[j]
            if prev_created is not None and prev_created.tzinfo is None:
                prev_created = prev_created.replace(tzinfo=timezone.utc)
            last_check["created_at"] = prev_created or now_utc
        next_at.append(calculate_next_check_date(changed, last_check, None, now=now_utc))
        if changed:
            payload = {
                "check:id": int(ids[j]),
                "check:available": is_valid_status(statuses[j]),
                "check:status": statuses[j],
                "check:timeout": check_data["timeout"],
                "check:date": now_utc.isoformat(),
                "check:error": errors[j],
                "check:headers:content-type": get_content_type_from_header(check_data["headers"]),
                "check:headers:content-length": int(check_data["headers"].get("content-length", 0)) or None,
            }
            cors_headers = check_data["cors_headers"]
            if cors_headers:
                payload["check:cors:status"] = cors_headers.get("status")
                payload["check:cors:error"] = cors_headers.get("error")
                for field in CORS_HEADER_FIELDS:
                    payload[f"check:cors:{field}"] = cors_headers.get(field)
            payloads.append(json.dumps(flatten_payload(payload), sort_keys=True))
        else:
            payloads.append(None)

    naive = now_utc.replace(tzinfo=None)
    out = batch
    for name, arr in (
        ("check_id", pa.array(ids)),
        ("has_changed", pa.array(changed_arr, type=pa.bool_())),
        ("created_at", pa.array([naive] * n, type=pa.timestamp("us"))),
        ("next_check_at", pa.array([d.replace(tzinfo=None) for d in next_at], type=pa.timestamp("us"))),
        ("payload", pa.array(payloads, type=pa.string())),
    ):
        if name in out.column_names:
            out = out.drop_columns([name])
        out = out.append_column(name, arr)
    return out
