"""Deterministic synthetic inputs (seed catalog + synthetic web).

Everything derives from md5 of stable identifiers — no RNG state, no
wall clock — so any scale factor reproduces bit-identically across
processes and parallelism levels (required for the two-parallelism
scaling benchmark and the seeded crawl-ordering contract).

``catalog_from_documents`` derives a data.gouv.fr-style seed catalog
from the driver's ``documents.parquet`` table; the same derivation is
expressible in DuckDB SQL (see pipelines/queries.py) so the driver's
oracle can verify it. ``synthetic_response`` (headers) and
``synthetic_download`` (the served file, OGC capabilities included) are
the deterministic "web" behind the fetcher's SyntheticTransport.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from hydra_ray.stages.ogc import GET_CAPABILITIES, capabilities_url, detect_layer_name

FORMATS = ["csv", "json", "geojson", "parquet", "xlsx", "pdf"]
N_DOMAINS = 20

# Deterministic hot-domain skew: doc_id % 100 < 55 → domain 0
# ("static.data.example") holds ~55% of all URLs, mirroring
# static.data.gouv.fr's dominance in the reference's real catalog.
HOT_DOMAIN_PCT = 55


def _domain_for(doc_id: int) -> str:
    if doc_id % 100 < HOT_DOMAIN_PCT:
        return "static.data.example"
    return f"host{doc_id % N_DOMAINS:02d}.data.example"


def _format_for(doc_id: int) -> str:
    return FORMATS[doc_id % len(FORMATS)]


def catalog_from_documents(batch: pa.Table) -> pa.Table:
    """documents(doc_id:int64, source:string, ...) → catalog seed rows.

    url      = 'https://' || domain || '/res/' || doc_id || '.' || format
    dataset  = 'ds-' || doc_id % 50
    resource = md5(url) truncated to 32 (uuid-ish, unique per url)
    priority = doc_id % 97 == 0 (sparse priority tier)
    """
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    domains = [_domain_for(int(d)) for d in doc_ids]
    formats = [_format_for(int(d)) for d in doc_ids]
    urls = [
        f"https://{dom}/res/{int(d)}.{fmt}" for d, dom, fmt in zip(doc_ids, domains, formats)
    ]
    resource_ids = [hashlib.md5(u.encode()).hexdigest() for u in urls]
    dataset_ids = [f"ds-{int(d) % 50}" for d in doc_ids]
    titles = [f"resource {int(d)}" for d in doc_ids]
    priority = (doc_ids % 97 == 0)
    return pa.table(
        {
            "dataset_id": pa.array(dataset_ids),
            "resource_id": pa.array(resource_ids),
            "url": pa.array(urls),
            "type": pa.array(["main"] * len(doc_ids)),
            "format": pa.array(formats),
            "title": pa.array(titles),
            "deleted": pa.array(np.zeros(len(doc_ids), dtype=bool)),
            "priority": pa.array(priority),
        }
    )


# ---------------------------------------------------------------------------
# Synthetic web: deterministic HTTP-ish responses per URL.
# ---------------------------------------------------------------------------

def _url_ext(url: str) -> str:
    """The extension of the URL's last path segment ("bin" without one)."""
    return url.rsplit(".", 1)[-1] if "." in url.rsplit("/", 1)[-1] else "bin"


_CT_BY_FORMAT = {
    "csv": "text/csv",
    "json": "application/json",
    "geojson": "application/vnd.geo+json",
    "parquet": "application/vnd.apache.parquet",
    "xlsx": "application/vnd.openxmlformats-officedocument.spreadsheetml.sheet",
    "xls": "application/vnd.ms-excel",
    "ods": "application/vnd.oasis.opendocument.spreadsheet",
    "pdf": "application/pdf",
    # OGC services answer GetCapabilities with XML, not octet-stream —
    # octet-stream would (mis)route them into the reference's Csvgz
    # detector (same precedence as data_formats/detect.py)
    "wfs": "application/xml",
    "wms": "application/xml",
}


def synthetic_response(url: str, method: str = "head", epoch: int = 0) -> dict:
    """Deterministic response for a URL.

    Outcome classes keyed on md5(url) bytes (stable across epochs):
      h0 % 100 < 84  → 200 OK with headers
      84..88         → 404
      89..91         → 500
      92..93         → timeout
      94..95         → 429 (rate limited)
      96..97         → connection error
      98..99         → HEAD lacks content-length/last-modified (forces GET retry)
    ``epoch`` shifts content-length/last-modified for a deterministic
    ~10% of resources per epoch, driving the change-detection paths.
    """
    digest = hashlib.md5(url.encode("utf-8", "surrogateescape")).digest()
    h0 = digest[0] * 256 + digest[1]
    cls = h0 % 100
    fmt = _url_ext(url)
    if fmt == "bin":
        fmt = _ogc_service(url) or fmt
    content_type = _CT_BY_FORMAT.get(fmt, "application/octet-stream")
    base_len = 1000 + (h0 % 100000)
    changes_this_epoch = (digest[2] % 10) == (epoch % 10)  # ~10% change per epoch
    eff_epoch = epoch if changes_this_epoch else (digest[2] % max(epoch, 1) if epoch else 0)
    content_length = base_len + 17 * eff_epoch
    last_modified = f"Mon, 0{1 + eff_epoch % 9} Jan 2024 0{digest[3] % 10}:00:00 GMT"

    if cls < 84:
        headers = {
            "content-type": content_type,
            "content-length": str(content_length),
            "last-modified": last_modified,
        }
        if digest[4] % 20 == 0:  # 5% of hosts advertise rate-limit headers
            headers["x-ratelimit-limit"] = "100"
            headers["x-ratelimit-remaining"] = str(max(0, 100 - (digest[5] % 110)))
        return {"kind": "ok", "status": 200, "headers": headers}
    if cls < 89:
        return {"kind": "error", "status": 404, "headers": {}, "error": "Not Found"}
    if cls < 92:
        return {"kind": "error", "status": 500, "headers": {}, "error": "Internal Server Error"}
    if cls < 94:
        return {"kind": "timeout"}
    if cls < 96:
        return {"kind": "error", "status": 429, "headers": {}, "error": "Too Many Requests"}
    if cls < 98:
        return {"kind": "conn_error", "error": "Cannot connect to host"}
    # bad HEAD: 200 but useless headers → caller retries with GET
    if method == "head":
        return {"kind": "ok", "status": 200, "headers": {"content-type": "text/html"}}
    return {
        "kind": "ok",
        "status": 200,
        "headers": {
            "content-type": content_type,
            "content-length": str(content_length),
            "last-modified": last_modified,
        },
    }


def _ogc_service(url: str) -> str | None:
    """The OGC service ("wfs"/"wms") an extension-less endpoint
    (…/geoserver/wfs, …?service=wfs) names, else None."""
    low = url.lower()
    path = low.split("?", 1)[0].rstrip("/")
    for ogc in ("wfs", "wms"):
        if path.endswith(f"/{ogc}") or f"service={ogc}" in low:
            return ogc
    return None


def synthetic_capabilities(service_url: str, fmt: str) -> dict:
    """Deterministic stand-in for a GetCapabilities response.

    When the probed URL carries a typeName, the synthetic server
    SERVES that layer for half the URL space (md5-parity gate) — real
    services usually do list the layer a resource links to, and the
    split keeps both detected-layer branches (exact match kept /
    unlisted candidate discarded) live in the oracled queries."""
    digest = hashlib.md5(f"{fmt}:{service_url}".encode()).digest()
    n_layers = 1 + digest[0] % 5
    layers = [f"ns:layer_{digest[1] % 97}_{i}" for i in range(n_layers)]
    requested = detect_layer_name(service_url, None)
    if requested and digest[5] % 2 == 0 and requested not in layers:
        layers.append(requested)
    versions = {"wfs": ["2.0.0", "1.1.0", "1.0.0"], "wms": ["1.3.0", "1.1.1"]}[fmt]
    return {
        "service_type": fmt,
        "version": versions[digest[2] % len(versions)],
        "layers": layers,
        "crs": ["EPSG:4326", "EPSG:3857"][: 1 + digest[3] % 2],
        "output_formats": ["application/json", "GML2"][: 1 + digest[4] % 2],
    }


def synthetic_capabilities_xml(service_url: str, fmt: str) -> bytes:
    """The synthetic_capabilities dict rendered as a REAL
    GetCapabilities XML document (WFS FeatureTypeList / WMS Layer tree),
    so the production parse path runs on every probe."""
    caps = synthetic_capabilities(service_url, fmt)
    v = caps["version"]
    formats = "".join(f"<Format>{f}</Format>" for f in caps["output_formats"])
    if fmt == "wfs":
        crs = "".join(
            f"<{tag}>urn:ogc:def:crs:EPSG::{c.split(':')[1]}</{tag}>"
            for tag, c in zip(("DefaultCRS", "OtherCRS"), caps["crs"])
        )
        fts = "".join(
            f"<FeatureType><Name>{name}</Name>{crs}<OutputFormats>{formats}</OutputFormats></FeatureType>"
            for name in caps["layers"]
        )
        ns = "http://www.opengis.net/wfs" + ("/2.0" if v == "2.0.0" else "")
        doc = (
            f'<wfs:WFS_Capabilities version="{v}" xmlns:wfs="{ns}">'
            f"<FeatureTypeList>{fts}</FeatureTypeList></wfs:WFS_Capabilities>"
        )
    else:  # wms
        layers = "".join(
            f"<Layer queryable=\"1\"><Name>{name}</Name><Title>{name}</Title></Layer>"
            for name in caps["layers"]
        )
        crs_tag = "CRS" if v == "1.3.0" else "SRS"
        crs = "".join(f"<{crs_tag}>{c}</{crs_tag}>" for c in caps["crs"])
        doc = (
            f'<WMS_Capabilities version="{v}">'
            f"<Capability><Request><GetMap>{formats}</GetMap></Request>"
            f"<Layer><Title>root</Title>{crs}{layers}</Layer></Capability>"
            f"</WMS_Capabilities>"
        )
    return ('<?xml version="1.0" encoding="UTF-8"?>' + doc).encode("utf-8")


def _capabilities_document(url: str) -> bytes | None:
    """The document a GetCapabilities request URL is answered with (None
    for any other URL): the one of the service resource whose
    ``capabilities_url`` it is, the same in every epoch."""
    if "request=getcapabilities" not in url.lower():
        return None
    for fmt in ("wfs", "wms"):
        resource = url[: -len(GET_CAPABILITIES.format(fmt=fmt)) - 1]
        if capabilities_url(resource, fmt) == url:
            return synthetic_capabilities_xml(resource, fmt)
    fmt = _ogc_service(url)  # a resource URL that is its own request
    return synthetic_capabilities_xml(url, fmt) if fmt else None


def synthetic_download(url: str, epoch: int = 0, content_rows: int = 200) -> bytes:
    """The file a synthetic URL serves: an OGC capabilities document for
    a GetCapabilities request, else by the URL's extension a workbook for
    .xlsx/.xls/.ods, fixed pseudo-bytes for .pdf/.json/.geojson, and
    ``synthetic_text`` as UTF-8 otherwise."""
    doc = _capabilities_document(url)
    if doc is not None:
        return doc
    ext = _url_ext(url)
    if ext in ("pdf", "json", "geojson"):
        return hashlib.md5(f"{url}#{epoch}".encode()).digest() * 256
    text = synthetic_text(url, epoch=epoch, max_rows=content_rows)
    if ext not in ("xlsx", "xls", "ods"):
        return text.encode()
    from hydra_ray.sources import ods, xls, xlsx

    # Workbooks hold the first 64 data rows (an xlsx write costs 0.40-0.65
    # ms on 1 vCPU): a 2000-row write would turn deep-content benches into
    # a writer benchmark; full-depth casting is measured on the CSV path.
    write = {"xlsx": xlsx.write_xlsx, "xls": xls.write_xls, "ods": ods.write_ods}[ext]
    return write([line.split(",") for line in text.splitlines()[:65]])


def synthetic_robots(domain: str) -> str:
    """Deterministic robots.txt per domain: ~25% of hosts disallow one
    /res/<digit> prefix; the rest allow everything."""
    digest = hashlib.md5(f"robots:{domain}".encode()).digest()
    if digest[0] % 4 == 0:
        return f"User-agent: *\nDisallow: /res/{digest[1] % 10}\n"
    return "User-agent: *\nDisallow:\n"


def synthetic_text(url: str, epoch: int = 0, max_rows: int = 40) -> str:
    """Deterministic pseudo-CSV text content for a resource (the stand-in
    for a downloaded tabular file in the sandbox).

    Two opt-in URL routes extend the world WITHOUT touching the bytes of
    any existing ``/res/`` URL (the crawl_checks oracle depends on those):
      - ``/geo/``    → a lat/lon table (drives the GeoJSON/PMTiles export
                       lifecycle, reference analysis/exports.py)
      - ``/ragged/`` → body row 2 carries an extra cell (drives the
                       parsing_error "step:cause" contract, reference
                       utils/errors.py:113-135); the bad row's position
                       and width are FIXED so the error string is a
                       closed-form function of the URL
    """
    digest = hashlib.md5(f"{url}#{epoch}".encode()).digest()
    nrows = 5 + (digest[0] * 256 + digest[1]) % max_rows
    acc = int.from_bytes(digest[:8], "big")
    if "/geo/" in url:
        lines = ["id,name,latitude,longitude"]
        for i in range(nrows):
            acc = (acc * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            lat = (acc % 12000) / 100.0 - 60.0
            lon = ((acc >> 16) % 30000) / 100.0 - 150.0
            lines.append(f"{i},item-{acc % 9973},{lat:.2f},{lon:.2f}")
        return "\n".join(lines)
    lines = ["id,name,value"]
    for i in range(nrows):
        acc = (acc * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        lines.append(f"{i},item-{acc % 9973},{(acc >> 32) % 100000}")
    if "/ragged/" in url and len(lines) > 2:
        lines[2] = lines[2] + ",surprise"
    return "\n".join(lines)


def synthetic_cors(url: str) -> dict | None:
    """Deterministic CORS preflight result (~60% of OK hosts permissive)."""
    digest = hashlib.md5(f"cors:{url}".encode()).digest()
    if digest[0] % 10 < 6:
        return {
            "status": 200,
            "error": None,
            "allow-origin": "*",
            "allow-methods": "GET, HEAD",
            "allow-headers": "authorization,content-type",
            "expose-headers": None,
            "max-age": "3600",
            "allow-credentials": None,
        }
    return None
