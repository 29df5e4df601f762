"""Udata webhook payload flattening.

Mirrors reference udata_hydra/utils/http.py:24-60 (UdataPayload):
updating any field of a metadata category resets the category's other
fields to None, so the consumer always receives complete categories.

``flatten_payload`` is the spec; the crawl stages build their payload
columns with ``encode_payloads``, which writes the same bytes as
``json.dumps(flatten_payload(p), sort_keys=True, default=str)`` row by
row (tests/test_crawler/test_check_kernels.py holds the two equal).
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.schemas import strings

CORS_HEADER_FIELDS = [
    "allow-origin",
    "allow-methods",
    "allow-headers",
    "expose-headers",
    "max-age",
    "allow-credentials",
]

HYDRA_UDATA_METADATA: dict[str, list[str]] = {
    "check": ["available", "date", "error", "id", "status", "timeout"],
    "check:headers": ["content-type", "content-length"],
    "check:cors": ["status", "error"] + CORS_HEADER_FIELDS,
    "analysis": [
        "checksum",
        "content-length",
        "error",
        "check_id",
        "last-modified-at",
        "last-modified-detection",
        "mime-type",
    ],
    "analysis:parsing": [
        "error",
        "started_at",
        "finished_at",
        "parsing_table",
        "parquet_size",
        "parquet_url",
        "pmtiles_size",
        "pmtiles_url",
        "geojson_size",
        "geojson_url",
        "ogc_metadata",
    ],
}


def flatten_payload(payload: dict) -> dict:
    """Complete every touched category with None for untouched fields."""
    out = dict(payload)
    categories = {":".join(k.split(":")[:-1]) for k in payload.keys()}
    for cat in categories:
        for field in HYDRA_UDATA_METADATA[cat]:
            out.setdefault(f"{cat}:{field}", None)
    return out


# -- columnar encoding ---------------------------------------------------------
# ``json.dumps(flatten_payload(p), sort_keys=True, default=str)`` for a
# whole block at once: a category's flattened keys are a static sorted
# template, so each payload string is that template joined element-wise
# with the JSON text of its value columns.

# a character json.dumps escapes: outside printable ASCII, a quote or a
# backslash
_ESCAPED_CHAR = r"[^\x20\x21\x23-\x5b\x5d-\x7e]"


def json_texts(col: pa.Array) -> pa.Array:
    """``json.dumps`` of each value of a string, integer or boolean
    column ("null" for a null). Strings with nothing to escape are
    quoted by a kernel; the rest go through ``json.dumps``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_boolean(t):
        out = pc.if_else(col, "true", "false")
    elif pa.types.is_integer(t):
        out = pc.cast(col, pa.string())
    elif pa.types.is_string(t):
        out = pc.binary_join_element_wise('"', col, '"', "")
        escaped = pc.match_substring_regex(col, _ESCAPED_CHAR)
        if pc.any(escaped).as_py():
            escaped = pc.fill_null(escaped, False)
            texts = [json.dumps(v) for v in strings(col.filter(escaped))]
            out = pc.replace_with_mask(out, escaped, pa.array(texts, type=pa.string()))
    else:
        raise TypeError(f"no JSON text kernel for {t}")
    return pc.fill_null(out, "null")


class Members(NamedTuple):
    """A run of ``"key": value`` members already written as JSON text
    per row, each member with its leading ", " ("" on a row without
    them). Keyed in ``encode_payloads`` by its first key, and no other
    key may sort inside the run."""

    texts: pa.Array


def encode_payloads(fields: dict[str, Any], n: int) -> pa.Array:
    """One ``json.dumps(..., sort_keys=True)`` object per row of ``n``.
    A value is a column (one value per row), a constant or ``Members``
    (which may not come first)."""
    parts: list = []
    literal = "{"
    for i, key in enumerate(sorted(fields)):
        value = fields[key]
        if isinstance(value, Members):
            if i == 0:
                raise ValueError(f"members {key!r} may not come first")
            parts += [literal, value.texts]
            literal = ""
            continue
        literal += ("" if i == 0 else ", ") + json.dumps(key) + ": "
        if isinstance(value, (pa.Array, pa.ChunkedArray)) and value.null_count < len(value):
            parts += [literal, json_texts(value)]
            literal = ""
        else:  # a constant, or a column of nulls
            value = None if isinstance(value, (pa.Array, pa.ChunkedArray)) else value
            literal += json.dumps(value, default=str)
    parts.append(literal + "}")
    if len(parts) == 1:
        return pa.array(parts * n, type=pa.string())
    return pc.binary_join_element_wise(*parts, "")


def category_fields(category: str, values: dict[str, Any]) -> dict[str, Any]:
    """``values`` keyed by the category's flattened payload keys; every
    field of the category must be given (a flattened category is
    complete)."""
    fields = HYDRA_UDATA_METADATA[category]
    missing = set(fields) - set(values)
    if missing or len(values) != len(fields):
        raise ValueError(f"{category}: fields {sorted(missing)} missing or unknown given")
    return {f"{category}:{k}": v for k, v in values.items()}
