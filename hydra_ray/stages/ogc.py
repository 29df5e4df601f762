"""OGC (WFS/WMS) service analysis — capability probing stage (S14).

Reference: udata_hydra/data_formats/ogc/__init__.py:80-268 — fetch
GetCapabilities (with version fallback), extract service metadata
(layers, CRS, output formats), and detect the layer a resource points
at (typeName/typeNames query param, else the resource title validated
by a layer-name regex, :250-268).

owslib is not in this container, but GetCapabilities is plain XML:
``parse_capabilities_xml`` extracts the same metadata owslib would
(WFS 2.0/1.1/1.0 FeatureTypeList + outputFormat parameters; WMS
1.3/1.1 nested Layer tree + GetMap formats) with the stdlib parser.
The document is whatever the transport's ``download`` serves for the
service's ``capabilities_url``, size-capped like any other resource;
only the transport knows the web (``synth`` for the simulated one).
Config-gated by OGC_ANALYSIS_ENABLED + OGC_FORMATS like the reference.
"""

from __future__ import annotations

import re
from urllib.parse import parse_qs, urlparse
from xml.etree import ElementTree as ET

from hydra_ray.config import config
from hydra_ray.functions.detect import detect_format
from hydra_ray.stages.inspection import FileTooLarge

# layer names look like ns:layer_name (reference ogc/__init__.py:21)
LAYER_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*(:[A-Za-z_][A-Za-z0-9_.-]*)?$")

# the OGC key-value pairs of a GetCapabilities request
GET_CAPABILITIES = "service={fmt}&request=GetCapabilities"


def capabilities_url(url: str, fmt: str) -> str:
    """The GetCapabilities request for a service resource: the resource
    URL plus ``GET_CAPABILITIES``, or the URL itself when it already
    holds ``request=GetCapabilities``."""
    if "request=getcapabilities" in url.lower():
        return url
    return f"{url}{'&' if '?' in url else '?'}{GET_CAPABILITIES.format(fmt=fmt)}"


def detect_layer_name(url: str, title: str | None) -> str | None:
    """typeName/typeNames query param wins; else a regex-valid title.

    Reference ogc/__init__.py:256-267: the param KEY lookup is
    case-insensitive but the VALUE keeps its case (layer names are
    case-sensitive), and a value that fails the layer-name regex falls
    through to the title instead of being returned."""
    q = parse_qs(urlparse(url).query)
    for key, values in q.items():
        if key.lower() in ("typename", "typenames") and values and LAYER_NAME_RE.match(values[0]):
            return values[0]
    if title and LAYER_NAME_RE.match(title):
        return title
    return None


def _normalize_crs(text: str | None) -> str:
    """'urn:ogc:def:crs:EPSG::4326' / 'EPSG:4326' → 'EPSG:4326'."""
    text = (text or "").strip()
    parts = [p for p in text.split(":") if p]
    return f"{parts[-2]}:{parts[-1]}" if text.upper().startswith("URN:") and len(parts) >= 2 else text


def _unique(values) -> list[str]:
    """The non-empty values, first occurrence kept, in order."""
    out: list[str] = []
    for v in values:
        if v and v not in out:
            out.append(v)
    return out


def _texts(root: ET.Element, path: str) -> list[str]:
    return [(el.text or "").strip() for el in root.findall(path)]


def parse_capabilities_xml(data: bytes) -> dict:
    """GetCapabilities XML → the owslib-equivalent metadata dict
    (reference ogc/__init__.py:80-248 reads .contents/.identification
    off owslib; this reads the same fields off the document):

      WFS (2.0.0 / 1.1.0 / 1.0.0): FeatureTypeList/FeatureType names,
      DefaultCRS/OtherCRS/DefaultSRS/SRS, per-type OutputFormats plus
      OperationsMetadata outputFormat allowed values.
      WMS (1.3.0 / 1.1.1): nested Layer tree names (named layers only),
      CRS/SRS elements, Request/GetMap formats.
    """
    root = ET.fromstring(data)
    tag = root.tag.rsplit("}", 1)[-1].lower()
    if "wfs" in tag:
        service = "wfs"
        layers = _texts(root, ".//{*}FeatureTypeList/{*}FeatureType/{*}Name")
        crs_paths = [
            f".//{{*}}FeatureType/{{*}}{p}"
            for p in ("DefaultCRS", "OtherCRS", "DefaultSRS", "OtherSRS", "SRS")
        ]
        fmts = _texts(root, ".//{*}FeatureType/{*}OutputFormats/{*}Format")
        for op in root.findall(".//{*}Operation[@name='GetFeature']"):
            for par in op.findall(".//{*}Parameter"):
                if (par.get("name") or "").lower() == "outputformat":
                    fmts += _texts(par, ".//{*}Value")
    elif "wms" in tag or tag == "wmt_ms_capabilities":  # WMS 1.3 / 1.1.1 roots
        service = "wms"
        names = ((lay.findtext("{*}Name") or "").strip() for lay in root.findall(".//{*}Layer"))
        layers = [name for name in names if name]
        crs_paths = [".//{*}Layer/{*}CRS", ".//{*}Layer/{*}SRS"]
        fmts = _texts(root, ".//{*}Request/{*}GetMap/{*}Format")
    else:
        raise ValueError(f"not a WFS/WMS capabilities document (root {root.tag!r})")
    return {
        "service_type": service,
        "version": root.get("version") or "",
        "layers": layers,
        "crs": _unique(_normalize_crs(el.text) for p in crs_paths for el in root.findall(p)),
        "output_formats": _unique(fmts),
    }


def analyse_ogc(check: dict, transport, title: str | None = None) -> dict | None:
    """OGC analysis for one check row; None when disabled or not OGC.

    Reads the service's GetCapabilities document with
    ``transport.download`` under the format's size cap and parses it;
    raises on an oversize body (``FileTooLarge``) or a body that is not
    a WFS/WMS capabilities document."""
    if not config.OGC_ANALYSIS_ENABLED:
        return None
    url = check.get("url", "")
    fmt = detect_format(None, url, check.get("format"))
    if fmt not in config.OGC_FORMATS:
        return None
    cap = config.MAX_FILESIZE_ALLOWED.get(fmt, config.DEFAULT_MAX_FILESIZE_ALLOWED)
    body = transport.download(capabilities_url(url, fmt), cap)
    if len(body) > cap:
        raise FileTooLarge()
    caps = parse_capabilities_xml(body)
    # reference ogc/__init__.py:196-209: keep the candidate only when it
    # matches a served layer — exact first (namespace included), else a
    # local-name match resolved to the UNIQUE namespaced layer, else None
    detected = detect_layer_name(url, title)
    layers = caps["layers"]
    if detected and detected not in layers:
        matches = [l for l in layers if l.split(":")[-1] == detected]
        detected = matches[0] if len(matches) == 1 else None
    return {**caps, "detected_layer": detected}
