"""Data-format detection (routing column for analysis stages).

Reference semantics: udata_hydra/data_formats/detect.py:11-32 and the
per-format class attributes (data_format.py:52-63; csv_like/__init__.py:183-217;
geojson/__init__.py:18-21; parquet/__init__.py:29-33; ogc/__init__.py:45-77).

A format matches when the check's content-type starts with one of its
valid mime types, OR its ``check_url`` substring appears in the url,
OR the catalog ``format`` equals the class name (special cases: csv.gz,
OGC formats). First match in the fixed order wins:
csv, csvgz, xls, xlsx, geojson, parquet, wfs, wms.
"""

from __future__ import annotations

from urllib.parse import parse_qs, urlparse

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.config import config
from hydra_ray.schemas import strings

# (name, valid_mime_prefixes, check_url substring)
_FORMATS: list[tuple[str, tuple[str, ...], str | None]] = [
    ("csv", ("text/csv", "application/csv", "text/plain"), None),
    ("csvgz", ("application/gzip", "application/octet-stream", "application/x-gzip"), "csv.gz"),
    ("xls", ("application/vnd.ms-excel",), None),
    ("xlsx", ("application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",), None),
    ("ods", ("application/vnd.oasis.opendocument.spreadsheet",), None),
    ("geojson", ("application/vnd.geo+json",), "geojson"),
    ("parquet", ("application/vnd.apache.parquet",), "parquet"),
]


def _detect_ogc(fmt: str, url: str, resource_format: str | None) -> bool:
    if not config.OGC_ANALYSIS_ENABLED or fmt not in config.OGC_FORMATS:
        return False
    if resource_format and resource_format.lower().replace("ogc:", "") == fmt:
        return True
    if not url:
        return False
    parsed = urlparse(url)
    query_params = parse_qs(parsed.query.lower())
    path_segments = parsed.path.lower().rstrip("/").split("/")
    return fmt in query_params.get("service", []) or fmt in path_segments


def detect_format(
    content_type: str | None, url: str | None, resource_format: str | None
) -> str | None:
    """Return the detected format name or None.

    ``content_type`` should already be the raw header value; prefix
    matching is case-insensitive like the reference's ``.lower()``.
    """
    ct = (content_type or "").lower()
    url = url or ""
    for name, mimes, check_url in _FORMATS:
        from_check = any(ct.startswith(m) for m in mimes) or (
            check_url is not None and check_url in url
        )
        if name == "csvgz":
            from_catalog = resource_format == "csv.gz"
        else:
            from_catalog = name == (resource_format or "")
        if from_check or from_catalog:
            return name
    for fmt in ("wfs", "wms"):
        if _detect_ogc(fmt, url, resource_format):
            return fmt
    return None


def detect_formats(content_types, urls, resource_formats) -> pa.Array:
    """``detect_format`` over a block's columns. Each row's format is the
    first in the fixed order that its content-type, URL or catalog
    format matches: the content-type and catalog-format matches are
    worked out once per distinct value, the URL matches by one kernel
    per ``check_url``. Rows no format matches try the OGC services row
    by row (only when OGC analysis is on)."""
    names = [name for name, _, _ in _FORMATS]
    none = len(names)

    def first_match(col, match) -> np.ndarray:
        """Per row, the position in ``names`` of the first format
        ``match(value)`` accepts (``none`` if no format does)."""
        distinct = pc.unique(col)
        ranks = [next((i for i, name in enumerate(names) if match(v, name)), none) for v in strings(distinct)]
        return np.array(ranks, dtype=np.int64)[pc.index_in(col, value_set=distinct).to_numpy(zero_copy_only=False)]

    mimes = dict((name, m) for name, m, _ in _FORMATS)
    rank = np.minimum(
        first_match(content_types, lambda ct, name: any((ct or "").lower().startswith(m) for m in mimes[name])),
        first_match(
            resource_formats,
            lambda fmt, name: fmt == "csv.gz" if name == "csvgz" else name == (fmt or ""),
        ),
    )
    for i, (_, _, check_url) in enumerate(_FORMATS):
        if check_url is not None:
            hit = pc.fill_null(pc.match_substring(urls, check_url), False).to_numpy(zero_copy_only=False)
            rank = np.where(hit & (rank > i), i, rank)
    found = np.array(names + [None], dtype=object)[rank]
    if config.OGC_ANALYSIS_ENABLED:
        url_of, fmt_of = strings(urls), strings(resource_formats)
        for j in np.flatnonzero(rank == none):
            found[j] = next((f for f in ("wfs", "wms") if _detect_ogc(f, url_of[j] or "", fmt_of[j])), None)
    return pa.array(found, type=pa.string())


# ---------------------------------------------------------------------------
# content-based MIME sniffing (libmagic equivalent, M15)
# ---------------------------------------------------------------------------

# mime by detected format — the tie-breaker when the content carries no
# binary signature (plain-text payloads)
FORMAT_MIME = {
    "csv": "text/csv",
    "csvgz": "application/gzip",
    "xls": "application/vnd.ms-excel",
    "xlsx": "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
    "ods": "application/vnd.oasis.opendocument.spreadsheet",
    "geojson": "application/json",
    "parquet": "application/vnd.apache.parquet",
    "json": "application/json",
    "pdf": "application/pdf",
}


def sniff_mime(body: bytes, fmt: str | None = None) -> str:
    """MIME from content magic numbers (the reference shells into
    libmagic on the downloaded bytes, analysis/resource.py; this is the
    same decision implemented directly). Binary signatures win; plain
    text falls back to the detected format's mime, then to a CSV/JSON
    text heuristic."""
    head = bytes(body[:512])
    if head.startswith(b"\x1f\x8b"):
        return "application/gzip"
    if head.startswith(b"%PDF"):
        return "application/pdf"
    if head.startswith(b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1"):
        return "application/vnd.ms-excel"  # CFB container (legacy Office)
    if head.startswith(b"PK\x03\x04"):
        # OOXML zip vs generic zip: the workbook part name appears in
        # the first local-file headers of every real .xlsx
        probe = bytes(body[:4096])
        if b"[Content_Types].xml" in probe and (b"xl/" in probe or b"workbook" in probe):
            return "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet"
        # ODF packages store the literal mimetype string uncompressed as
        # the FIRST zip entry (spec §3.3), so it sits in the probe window
        if b"mimetype" in probe and b"opendocument.spreadsheet" in probe:
            return "application/vnd.oasis.opendocument.spreadsheet"
        return "application/zip"
    if head.startswith(b"PAR1"):
        return "application/vnd.apache.parquet"
    if head.startswith(b"\x89PNG\r\n\x1a\n"):
        return "image/png"
    if head.startswith(b"\xff\xd8\xff"):
        return "image/jpeg"
    if fmt and fmt in FORMAT_MIME:
        return FORMAT_MIME[fmt]
    stripped = head.lstrip()
    if stripped[:1] in (b"{", b"["):
        return "application/json"
    if b"\x00" in head:
        return "application/octet-stream"
    try:
        text = head.decode("utf-8")
    except UnicodeDecodeError:
        return "application/octet-stream"
    first = text.splitlines()[0] if text else ""
    if first.count(",") >= 2 or first.count(";") >= 2:
        return "text/csv"
    return "text/plain"
