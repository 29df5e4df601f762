"""Udata webhook payload flattening.

Mirrors reference udata_hydra/utils/http.py:24-60 (UdataPayload):
updating any field of a metadata category resets the category's other
fields to None, so the consumer always receives complete categories.
"""

from __future__ import annotations

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
