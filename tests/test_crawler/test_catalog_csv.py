"""Catalog CSV ingest (S1) + OGC capabilities analysis (S14)."""

from xml.etree import ElementTree

import pyarrow as pa
import pytest

from hydra_ray.config import config, config_override
from hydra_ray.sources.catalog import load_catalog_from_csv, read_catalog_csv
from hydra_ray.stages.fetcher import MockTransport, SyntheticTransport
from hydra_ray.stages.ogc import analyse_ogc, capabilities_url, detect_layer_name

CSV = """dataset.id;id;url;type;format;title;dataset.archived;harvest.modified_at
d1;r1;https://a.example/x.csv;main;csv;file x;False;2024-01-02T10:00:00
d1;r2;https://a.example/y.csv;main;csv;file y;True;
d2;r3;https://b.example/z.json;main;json;file z;False;
"""


def test_read_catalog_csv_filters_archived(tmp_path):
    p = tmp_path / "catalog.csv"
    p.write_text(CSV)
    t = read_catalog_csv(str(p))
    assert t.num_rows == 2  # archived r2 dropped
    assert set(t["resource_id"].to_pylist()) == {"r1", "r3"}
    assert "archived" not in t.column_names
    hm = t["harvest_modified_at"].to_pylist()
    assert hm[0] is not None


@pytest.mark.usefixtures("ray_session")
def test_load_catalog_from_csv_e2e(tmp_path, make_crawl_engine):
    p = tmp_path / "catalog.csv"
    p.write_text(CSV)
    eng = make_crawl_engine(str(tmp_path / "wd"), batch_size=10)
    n = load_catalog_from_csv(eng, str(p))
    assert n == 2
    cat = eng.catalog.read_arrow()
    assert sorted(cat["domain"].to_pylist()) == ["a.example", "b.example"]
    # re-load upserts, not duplicates
    assert load_catalog_from_csv(eng, str(p)) == 2


def test_ogc_layer_name_detection():
    assert detect_layer_name("https://a/wfs?typeName=ns:roads&x=1", None) == "ns:roads"
    assert detect_layer_name("https://a/wfs?typenames=ns:rivers", "t") == "ns:rivers"
    assert detect_layer_name("https://a/wfs", "ns:valid_name") == "ns:valid_name"
    assert detect_layer_name("https://a/wfs", "not a layer name!") is None
    # key lookup is case-insensitive but the VALUE keeps its case
    # (reference ogc/__init__.py:260-263) — layer names are case-sensitive
    assert detect_layer_name("https://a/wfs?TYPENAME=ns:Roads_A", None) == "ns:Roads_A"
    # a regex-invalid param value falls through to the title
    assert detect_layer_name("https://a/wfs?typeName=bad name!", "ns:t") == "ns:t"


def _wfs_capabilities(layers: list[str]) -> bytes:
    """A minimal WFS 2.0 GetCapabilities document listing ``layers``."""
    fts = "".join(f"<FeatureType><Name>{name}</Name></FeatureType>" for name in layers)
    return (
        '<wfs:WFS_Capabilities version="2.0.0" xmlns:wfs="http://www.opengis.net/wfs/2.0">'
        f"<FeatureTypeList>{fts}</FeatureTypeList></wfs:WFS_Capabilities>"
    ).encode()


def _served(url: str, body: bytes) -> MockTransport:
    """A transport serving ``body`` as the WFS resource's GetCapabilities."""
    return MockTransport(bodies={capabilities_url(url, "wfs"): body})


def test_ogc_detected_layer_match_semantics():
    """Reference ogc/__init__.py:196-209: exact match kept, unlisted
    candidate discarded, namespace-less candidate resolved to the
    UNIQUE namespaced layer, ambiguous local names dropped."""

    def analyse(url, layers):
        return analyse_ogc({"url": url, "format": "wfs"}, _served(url, _wfs_capabilities(layers)))

    with config_override(OGC_ANALYSIS_ENABLED=True):
        url = "https://a/wfs?typeName=ns:roads"
        # exact (namespace included)
        assert analyse(url, ["ns:roads", "x:other"])["detected_layer"] == "ns:roads"
        # unlisted candidate is discarded, not kept
        assert analyse(url, ["x:other"])["detected_layer"] is None
        # namespace-less candidate resolves to the unique namespaced layer
        url2 = "https://a/wfs?typeName=roads"
        assert analyse(url2, ["ns:roads", "x:other"])["detected_layer"] == "ns:roads"
        # ...but an ambiguous local name matches nothing
        assert analyse(url2, ["ns:roads", "x:roads"])["detected_layer"] is None
        # empty layer list: nothing to validate against, candidate dropped
        assert analyse(url, [])["detected_layer"] is None


def test_ogc_capabilities_come_through_download():
    """The GetCapabilities document is what ``transport.download`` serves
    for the service's capabilities URL: a served XML body is parsed into
    its layers, a non-capabilities body raises, a body over the format's
    cap is refused, and nothing falls back to the simulated web."""
    url = "https://geo.example/geoserver/wfs?typeName=ns:roads"
    assert capabilities_url(url, "wfs") == url + "&service=wfs&request=GetCapabilities"
    assert capabilities_url("https://g/wms", "wms") == "https://g/wms?service=wms&request=GetCapabilities"
    own = "https://geo.example/wfs?service=WFS&request=GetCapabilities"
    assert capabilities_url(own, "wfs") == own
    body = _wfs_capabilities(["ns:roads", "ns:rivers"])
    with config_override(OGC_ANALYSIS_ENABLED=True):
        meta = analyse_ogc({"url": url, "format": "wfs"}, _served(url, body))
        assert meta["layers"] == ["ns:roads", "ns:rivers"]
        assert meta["service_type"] == "wfs" and meta["detected_layer"] == "ns:roads"
        with pytest.raises(ValueError, match="not a WFS/WMS capabilities document"):
            analyse_ogc({"url": url, "format": "wfs"}, _served(url, b"<html/>"))
        # nothing served: an empty body is no document either
        with pytest.raises(ElementTree.ParseError):
            analyse_ogc({"url": url, "format": "wfs"}, MockTransport())
    caps = {**config.MAX_FILESIZE_ALLOWED, "wfs": len(body) - 1}
    with config_override(OGC_ANALYSIS_ENABLED=True, MAX_FILESIZE_ALLOWED=caps):
        with pytest.raises(ValueError, match="File too large to download"):
            analyse_ogc({"url": url, "format": "wfs"}, _served(url, body))
    caps["wfs"] = len(body)
    with config_override(OGC_ANALYSIS_ENABLED=True, MAX_FILESIZE_ALLOWED=caps):
        assert analyse_ogc({"url": url, "format": "wfs"}, _served(url, body)) == meta


def test_ogc_capabilities_wms_1_1_1():
    """A WMS 1.1.1 document's root is ``WMT_MS_Capabilities``, with no
    namespace: its nested named layers, SRS elements and GetMap formats
    parse like a 1.3.0 document's."""
    from hydra_ray.stages.ogc import parse_capabilities_xml

    doc = b"""<?xml version="1.0" encoding="UTF-8"?>
    <!DOCTYPE WMT_MS_Capabilities SYSTEM "http://schemas.opengis.net/wms/1.1.1/capabilities_1_1_1.dtd">
    <WMT_MS_Capabilities version="1.1.1">
      <Service><Name>OGC:WMS</Name></Service>
      <Capability>
        <Request><GetMap><Format>image/png</Format><Format>image/jpeg</Format></GetMap></Request>
        <Layer><Title>root</Title><SRS>EPSG:4326</SRS>
          <Layer><Name>ign:regions</Name><SRS>EPSG:2154</SRS>
            <Layer><Name>ign:departements</Name></Layer>
          </Layer>
        </Layer>
      </Capability>
    </WMT_MS_Capabilities>"""
    out = parse_capabilities_xml(doc)
    assert out == {
        "service_type": "wms",
        "version": "1.1.1",
        "layers": ["ign:regions", "ign:departements"],
        "crs": ["EPSG:4326", "EPSG:2154"],
        "output_formats": ["image/png", "image/jpeg"],
    }


def test_ogc_analyse_gated_and_deterministic():
    check = {"url": "https://a.example/geoserver/wfs?typeName=ns:roads", "format": "wfs"}
    transport = SyntheticTransport()
    assert analyse_ogc(check, transport) is None  # disabled by default
    with config_override(OGC_ANALYSIS_ENABLED=True):
        meta = analyse_ogc(check, transport)
        assert meta["service_type"] == "wfs"
        # this URL's md5-parity is in the "served" half: the synthetic
        # capabilities list the requested layer, so the exact match keeps it
        assert meta["detected_layer"] == "ns:roads"
        assert "ns:roads" in meta["layers"]
        assert meta["layers"] and meta["version"] in ("2.0.0", "1.1.0", "1.0.0")
        # deterministic, and the same in every epoch
        assert analyse_ogc(check, SyntheticTransport(epoch=3)) == meta
        # non-OGC rows pass through
        assert analyse_ogc({"url": "https://a/x.csv", "format": "csv"}, transport) is None


def test_ogc_capabilities_xml_parser_wfs_and_wms():
    """Real GetCapabilities XML (GeoServer-shaped) parses to the
    owslib-equivalent metadata; the synthetic document round-trips
    bit-exact through the same parser (S14 without owslib)."""
    from hydra_ray.stages.ogc import parse_capabilities_xml
    from hydra_ray.synth import (
        synthetic_capabilities,
        synthetic_capabilities_xml,
        synthetic_download,
    )

    wfs = b"""<?xml version="1.0"?>
    <wfs:WFS_Capabilities version="2.0.0"
      xmlns:wfs="http://www.opengis.net/wfs/2.0" xmlns:ows="http://www.opengis.net/ows/1.1">
      <ows:OperationsMetadata><ows:Operation name="GetFeature">
        <ows:Parameter name="outputFormat"><ows:AllowedValues>
          <ows:Value>application/json</ows:Value></ows:AllowedValues></ows:Parameter>
      </ows:Operation></ows:OperationsMetadata>
      <FeatureTypeList>
        <FeatureType><Name>topp:states</Name>
          <DefaultCRS>urn:ogc:def:crs:EPSG::4326</DefaultCRS>
          <OtherCRS>urn:ogc:def:crs:EPSG::3857</OtherCRS></FeatureType>
      </FeatureTypeList>
    </wfs:WFS_Capabilities>"""
    out = parse_capabilities_xml(wfs)
    assert out["service_type"] == "wfs" and out["version"] == "2.0.0"
    assert out["layers"] == ["topp:states"]
    assert out["crs"] == ["EPSG:4326", "EPSG:3857"]  # urn: form normalized
    assert out["output_formats"] == ["application/json"]

    wms = b"""<WMS_Capabilities version="1.3.0" xmlns="http://www.opengis.net/wms">
      <Capability>
        <Request><GetMap><Format>image/png</Format></GetMap></Request>
        <Layer><Title>unnamed root is skipped</Title><CRS>EPSG:4326</CRS>
          <Layer><Name>ign:communes</Name>
            <Layer><Name>ign:communes_details</Name></Layer></Layer>
        </Layer>
      </Capability></WMS_Capabilities>"""
    out2 = parse_capabilities_xml(wms)
    assert out2["layers"] == ["ign:communes", "ign:communes_details"]
    assert out2["output_formats"] == ["image/png"]

    for fmt in ("wfs", "wms"):
        for i in range(12):
            url = f"https://geo.example.org/s{i}?service={fmt}"
            assert parse_capabilities_xml(
                synthetic_capabilities_xml(url, fmt)
            ) == synthetic_capabilities(url, fmt)
            # the synthetic web serves that document for the resource's
            # GetCapabilities request, in every epoch
            for epoch in (0, 5):
                assert synthetic_download(capabilities_url(url, fmt), epoch) == (
                    synthetic_capabilities_xml(url, fmt)
                )

    import pytest as _pytest

    with _pytest.raises(ValueError):
        parse_capabilities_xml(b"<html>not a capabilities doc</html>")
