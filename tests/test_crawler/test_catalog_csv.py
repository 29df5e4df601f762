"""Catalog CSV ingest (S1) + OGC analysis stub (S14)."""

import pyarrow as pa
import pytest

from hydra_ray.config import config_override
from hydra_ray.sources.catalog import load_catalog_from_csv, read_catalog_csv
from hydra_ray.stages.ogc import analyse_ogc, detect_layer_name

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


def test_ogc_detected_layer_match_semantics():
    """Reference ogc/__init__.py:196-209: exact match kept, unlisted
    candidate discarded, namespace-less candidate resolved to the
    UNIQUE namespaced layer, ambiguous local names dropped."""

    class T:
        def __init__(self, layers):
            self.layers = layers

        def capabilities(self, url, fmt):
            return {
                "service_type": "wfs",
                "version": "2.0.0",
                "layers": self.layers,
                "crs": [],
                "output_formats": [],
            }

    with config_override(OGC_ANALYSIS_ENABLED=True):
        url = "https://a/wfs?typeName=ns:roads"
        # exact (namespace included)
        m = analyse_ogc({"url": url, "format": "wfs"}, transport=T(["ns:roads", "x:other"]))
        assert m["detected_layer"] == "ns:roads"
        # unlisted candidate is discarded, not kept
        m = analyse_ogc({"url": url, "format": "wfs"}, transport=T(["x:other"]))
        assert m["detected_layer"] is None
        # namespace-less candidate resolves to the unique namespaced layer
        url2 = "https://a/wfs?typeName=roads"
        m = analyse_ogc({"url": url2, "format": "wfs"}, transport=T(["ns:roads", "x:other"]))
        assert m["detected_layer"] == "ns:roads"
        # ...but an ambiguous local name matches nothing
        m = analyse_ogc({"url": url2, "format": "wfs"}, transport=T(["ns:roads", "x:roads"]))
        assert m["detected_layer"] is None
        # empty layer list: nothing to validate against, candidate dropped
        m = analyse_ogc({"url": url, "format": "wfs"}, transport=T([]))
        assert m["detected_layer"] is None


def test_ogc_analyse_gated_and_deterministic():
    check = {"url": "https://a.example/geoserver/wfs?typeName=ns:roads", "format": "wfs"}
    assert analyse_ogc(check) is None  # disabled by default
    with config_override(OGC_ANALYSIS_ENABLED=True):
        meta = analyse_ogc(check)
        assert meta["service_type"] == "wfs"
        # this URL's md5-parity is in the "served" half: the synthetic
        # capabilities list the requested layer, so the exact match keeps it
        assert meta["detected_layer"] == "ns:roads"
        assert "ns:roads" in meta["layers"]
        assert meta["layers"] and meta["version"] in ("2.0.0", "1.1.0", "1.0.0")
        assert analyse_ogc(check) == meta  # deterministic
        # non-OGC rows pass through
        assert analyse_ogc({"url": "https://a/x.csv", "format": "csv"}) is None


def test_ogc_capabilities_xml_parser_wfs_and_wms():
    """Real GetCapabilities XML (GeoServer-shaped) parses to the
    owslib-equivalent metadata; the synthetic document round-trips
    bit-exact through the same parser (S14 without owslib)."""
    from hydra_ray.stages.ogc import (
        parse_capabilities_xml,
        synthetic_capabilities,
        synthetic_capabilities_xml,
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

    import pytest as _pytest

    with _pytest.raises(ValueError):
        parse_capabilities_xml(b"<html>not a capabilities doc</html>")
