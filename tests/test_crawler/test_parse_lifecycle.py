"""Parse/export lifecycle on check rows (VERDICT r4 #1).

Reference contracts exercised end-to-end:
  - parsing_error "step:cause" + parsing_started_at/finished_at
    (utils/errors.py:113-135, csv_like/__init__.py:84-117)
  - parquet/geojson/pmtiles artifact URL + size recorded on the check
    (analysis/exports.py:20-128; migrations 20241021/20250130/20250615)
  - ogc_metadata persisted on the check (20260202_add_wfs_metadata.sql)
  - udata payload notification for every parse attempt
    (analysis/helpers.py:71-100 notify_udata)
"""

import hashlib
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest

GEO_URL = "https://host01.data.example/geo/9001.csv"
RAGGED_URL = "https://host02.data.example/ragged/9002.csv"
PLAIN_URL = "https://host03.data.example/plain/9003.csv"
WFS_URL = "https://geo1.data.example/geoserver/9004/wfs?service=wfs&typeName=ns:layer_3"

EXPORT_CFG = {
    "DB_TO_PARQUET": True,
    "MIN_LINES_FOR_PARQUET": 5,
    "DB_TO_GEOJSON": True,
    "GEOJSON_TO_PMTILES": True,
    "OGC_ANALYSIS_ENABLED": True,
}


def _seed_catalog():
    urls = [GEO_URL, RAGGED_URL, PLAIN_URL, WFS_URL]
    fmts = ["csv", "csv", "csv", "wfs"]
    n = len(urls)
    return pa.table(
        {
            "dataset_id": pa.array([f"ds-{i}" for i in range(n)]),
            "resource_id": pa.array([hashlib.md5(u.encode()).hexdigest() for u in urls]),
            "url": pa.array(urls),
            "type": pa.array(["main"] * n),
            "format": pa.array(fmts),
            "title": pa.array(["t"] * n),
            "deleted": pa.array([False] * n),
            "priority": pa.array([False] * n),
        }
    )


def _row(t: pa.Table, url: str) -> dict:
    sub = t.filter(pc.equal(t["url"], url))
    assert sub.num_rows == 1, url
    return {c: sub[c][0].as_py() for c in t.column_names}


@pytest.mark.usefixtures("ray_session")
def test_parse_export_lifecycle_e2e(tmp_path, make_crawl_engine):
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=10,
        politeness_kwargs={"backoff_nb_req": 10**9},
        analysis_config=EXPORT_CFG,
    )
    eng.load_catalog(_seed_catalog())
    eng.run(1)
    checks = eng.checks.read_arrow()

    # -- ragged CSV: copy-step failure with the step:cause contract ----
    ragged = _row(checks, RAGGED_URL)
    assert ragged["parsing_error"] == "copy_records_to_table:row 3 has 4 cells, expected 3"
    assert ragged["parsing_table"] is None
    assert ragged["parsing_started_at"] is not None
    assert ragged["parsing_finished_at"] is not None
    assert ragged["parquet_url"] is None
    # the failed parse produced no span document and no tables_index row
    rid_ragged = hashlib.md5(RAGGED_URL.encode()).hexdigest()
    assert rid_ragged not in set(eng.read_documents()["doc_id"].to_pylist())
    ti = eng.tables_index.read_arrow()
    assert rid_ragged not in set(ti["resource_id"].to_pylist())

    # -- geo CSV: parquet + geojson + pmtiles artifacts recorded -------
    geo = _row(checks, GEO_URL)
    md5_geo = hashlib.md5(GEO_URL.encode()).hexdigest()
    assert geo["parsing_error"] is None
    assert geo["parsing_table"] == md5_geo
    exports_dir = str(tmp_path / "wd" / "exports")
    for kind in ("parquet", "geojson", "pmtiles"):
        url, size = geo[f"{kind}_url"], geo[f"{kind}_size"]
        assert url == f"https://object-store.example/hydra-exports/{md5_geo}.{kind}"
        path = os.path.join(exports_dir, f"{md5_geo}.{kind}")
        assert os.path.exists(path)
        assert size == os.path.getsize(path) > 0
    # the artifacts are real: geojson parses, parquet opens, pmtiles reads
    with open(os.path.join(exports_dir, f"{md5_geo}.geojson")) as f:
        fc = json.load(f)
    assert fc["type"] == "FeatureCollection" and len(fc["features"]) > 0
    assert fc["features"][0]["geometry"]["type"] == "Point"
    import pyarrow.parquet as pq

    pt = pq.read_table(os.path.join(exports_dir, f"{md5_geo}.parquet"))
    assert {"latitude", "longitude"} <= set(pt.column_names)
    from hydra_ray.sources.pmtiles import read_pmtiles

    arch = read_pmtiles(os.path.join(exports_dir, f"{md5_geo}.pmtiles"))
    assert arch["tiles"]

    # -- plain CSV: parquet only (no geo columns) ----------------------
    plain = _row(checks, PLAIN_URL)
    assert plain["parquet_url"] is not None and plain["parquet_size"] > 0
    assert plain["geojson_url"] is None and plain["pmtiles_url"] is None

    # -- WFS: capabilities JSON persisted on the check row -------------
    wfs = _row(checks, WFS_URL)
    assert wfs["ogc_metadata"] is not None
    meta = json.loads(wfs["ogc_metadata"])
    assert meta["service_type"] == "wfs"
    # this URL's md5-parity puts it in the "candidate not served" half:
    # the reference discards an unlisted typeName (ogc/__init__.py:196-209)
    assert meta["detected_layer"] is None
    assert "ns:layer_3" not in meta["layers"]
    from hydra_ray.config import config_override
    from hydra_ray.stages.fetcher import SyntheticTransport
    from hydra_ray.stages.ogc import analyse_ogc

    with config_override(OGC_ANALYSIS_ENABLED=True):
        want = analyse_ogc({"url": WFS_URL, "format": "wfs"}, SyntheticTransport())
    assert meta == want
    assert wfs["parsing_started_at"] is not None

    # -- payload notifications for every parse attempt -----------------
    payloads = eng.payloads.read_arrow()
    parsing = payloads.filter(pc.equal(payloads["kind"], "parsing"))
    assert parsing.num_rows == 4  # geo, ragged, plain, wfs
    by_rid = {
        r: json.loads(p)
        for r, p in zip(
            parsing["resource_id"].to_pylist(), parsing["payload"].to_pylist()
        )
    }
    geo_payload = by_rid[md5_geo]
    assert geo_payload["analysis:parsing:parquet_url"] == geo["parquet_url"]
    assert geo_payload["analysis:parsing:pmtiles_size"] == geo["pmtiles_size"]
    assert geo_payload["analysis:parsing:error"] is None
    ragged_payload = by_rid[rid_ragged]
    assert ragged_payload["analysis:parsing:error"].startswith("copy_records_to_table:")
    # untouched category fields are completed with None (UdataPayload)
    assert "analysis:parsing:geojson_url" in geo_payload
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_on_demand_check_records_lifecycle(tmp_path, make_crawl_engine):
    """check_resource_now (POST /api/checks) runs the same lifecycle."""
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=10,
        politeness_kwargs={"backoff_nb_req": 10**9},
        analysis_config=EXPORT_CFG,
    )
    eng.load_catalog(_seed_catalog())
    rid = hashlib.md5(GEO_URL.encode()).hexdigest()
    eng.check_resource_now(rid)
    checks = eng.checks.read_arrow()
    geo = _row(checks, GEO_URL)
    assert geo["geojson_url"] is not None and geo["geojson_size"] > 0
    assert os.path.exists(str(tmp_path / "wd" / "exports" / f"{rid}.geojson"))
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_mixed_block_rows_match_single_row_runs(tmp_path, make_crawl_engine):
    """One Analyser block mixing csv, xlsx, xls, ods, /ragged/ and /geo/
    rows (one inspect and one cast sweep for all of them) gives every
    row the output it gets when analysed alone: inspection, parsing
    error, exports and the rest."""
    urls, fmts = [], []
    for k in range(36):
        fmt = ["csv", "xlsx", "xls", "ods"][k % 4]
        route = ["res", "geo", "ragged"][k % 3]
        urls.append(f"https://host{k:02d}.data.example/{route}/{9100 + k}.{fmt}")
        fmts.append(fmt)
    n = len(urls)
    catalog = pa.table(
        {
            "dataset_id": pa.array([f"ds-{i}" for i in range(n)]),
            "resource_id": pa.array([hashlib.md5(u.encode()).hexdigest() for u in urls]),
            "url": pa.array(urls),
            "type": pa.array(["main"] * n),
            "format": pa.array(fmts),
            "title": pa.array(["t"] * n),
            "deleted": pa.array([False] * n),
            "priority": pa.array([False] * n),
        }
    )
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=n,
        politeness_kwargs={"backoff_nb_req": 10**9},
        analysis_config=EXPORT_CFG,
    )
    eng.load_catalog(catalog)
    fetch, build_checks, analyse, _sink = eng._stages(0, *(str(tmp_path / d) for d in "abcd")).stages
    rows = build_checks(fetch(eng._frontier()))
    block = analyse(rows)
    for k in range(rows.num_rows):
        assert analyse(rows.slice(k, 1)).to_pylist() == block.slice(k, 1).to_pylist()
    parsed = block.filter(pc.invert(pc.is_null(block["inspection"])))
    engines = {json.loads(s)["engine"] for s in parsed["inspection"].to_pylist()}
    assert engines == {"hydra-ray-inspect", "hydra-ray-xlsx", "hydra-ray-xls", "hydra-ray-ods"}
    errors = [e for e in block["parsing_error"].to_pylist() if e]
    assert errors and all(e.startswith("copy_records_to_table:") for e in errors)
    assert sum(u is not None for u in block["geojson_url"].to_pylist()) >= 2
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_ogc_capabilities_read_through_transport(tmp_path, make_crawl_engine):
    """A crawl reads each WFS resource's GetCapabilities document with
    the transport's ``download``: an XML body lands parsed in
    ``ogc_metadata``, an HTML body is a parse failure recorded as
    ``ogc_service_parsing:<cause>`` with no metadata."""
    from hydra_ray.stages.ogc import capabilities_url

    good = "https://good.example/geoserver/wfs?typeName=ns:roads"
    html = "https://html.example/geoserver/wfs?typeName=ns:roads"
    doc = (
        b'<wfs:WFS_Capabilities version="2.0.0" xmlns:wfs="http://www.opengis.net/wfs/2.0">'
        b"<FeatureTypeList><FeatureType><Name>ns:roads</Name></FeatureType>"
        b"<FeatureType><Name>ns:rivers</Name></FeatureType></FeatureTypeList>"
        b"</wfs:WFS_Capabilities>"
    )
    headers = {"content-type": "application/xml", "content-length": "100"}
    urls = [good, html]
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        transport={
            "kind": "mock",
            "responses": {("head", u): {"kind": "ok", "status": 200, "headers": headers} for u in urls},
            "bodies": {capabilities_url(good, "wfs"): doc, capabilities_url(html, "wfs"): b"<html/>"},
        },
        batch_size=10,
        analysis_config={"OGC_ANALYSIS_ENABLED": True},
    )
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds"] * 2,
                "resource_id": [hashlib.md5(u.encode()).hexdigest() for u in urls],
                "url": urls,
                "format": ["wfs"] * 2,
            }
        )
    )
    eng.run_iteration()
    checks = eng.checks.read_arrow()
    meta = json.loads(_row(checks, good)["ogc_metadata"])
    assert meta["layers"] == ["ns:roads", "ns:rivers"] and meta["detected_layer"] == "ns:roads"
    assert _row(checks, good)["parsing_error"] is None
    bad = _row(checks, html)
    assert bad["ogc_metadata"] is None
    assert bad["parsing_error"].startswith("ogc_service_parsing:")
    assert bad["parsing_started_at"] is not None


@pytest.mark.usefixtures("ray_session")
def test_ogc_layer_falls_back_to_the_catalog_title(tmp_path, make_crawl_engine):
    """A service URL without a typeName names its layer through the
    resource's catalog title (reference ogc/__init__.py:250-268): a
    title listed by the served document is the detected layer."""
    from hydra_ray.stages.ogc import capabilities_url

    url = "https://geo.example/geoserver/wfs"
    doc = (
        b'<wfs:WFS_Capabilities version="2.0.0" xmlns:wfs="http://www.opengis.net/wfs/2.0">'
        b"<FeatureTypeList><FeatureType><Name>ns:rivers</Name></FeatureType>"
        b"<FeatureType><Name>ns:roads</Name></FeatureType></FeatureTypeList>"
        b"</wfs:WFS_Capabilities>"
    )
    headers = {"content-type": "application/xml", "content-length": "100"}
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        transport={
            "kind": "mock",
            "responses": {("head", url): {"kind": "ok", "status": 200, "headers": headers}},
            "bodies": {capabilities_url(url, "wfs"): doc},
        },
        batch_size=10,
        analysis_config={"OGC_ANALYSIS_ENABLED": True},
    )
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds"],
                "resource_id": [hashlib.md5(url.encode()).hexdigest()],
                "url": [url],
                "format": ["wfs"],
                "title": ["ns:roads"],
            }
        )
    )
    eng.run_iteration()
    meta = json.loads(_row(eng.checks.read_arrow(), url)["ogc_metadata"])
    assert meta["detected_layer"] == "ns:roads"
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_sheet_blank_rows_masked_once_per_block(tmp_path, make_crawl_engine, monkeypatch):
    """An analyse block sets its sheets' blank-row masks with one trim
    kernel, which its inspect and cast sweeps both read; the reports
    and tables equal those of sheets whose sweeps mask them anew."""
    import hydra_ray.stages.inspection as inspection
    from hydra_ray.functions.detect import sniff_mime
    from hydra_ray.stages.analysis import workbook_readers
    from hydra_ray.stages.inspection import Sheet, csv_texts_to_tables, inspect_csv_texts_batch
    from hydra_ray.synth import synthetic_download, synthetic_response

    # two resources of each workbook format and two CSVs, all served
    urls = []
    for k in range(200):
        u = f"https://host{k:02d}.data.example/res/{9200 + k}.{['xlsx', 'ods', 'xls', 'csv'][k % 4]}"
        if synthetic_response(u, "get")["kind"] == "ok" and sum(x[-4:] == u[-4:] for x in urls) < 2:
            urls.append(u)
    n = len(urls)
    assert n == 8
    eng = make_crawl_engine(str(tmp_path / "wd"), batch_size=n, politeness_kwargs={"backoff_nb_req": 10**9})
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds"] * n,
                "resource_id": [hashlib.md5(u.encode()).hexdigest() for u in urls],
                "url": urls,
                "format": [u.rsplit(".", 1)[1] for u in urls],
            }
        )
    )
    fetch, build_checks, analyse, _sink = eng._stages(0, *(str(tmp_path / d) for d in "abcd")).stages
    rows = build_checks(fetch(eng._frontier()))

    kernels = []
    real = inspection.with_filled_rows

    def spy(sheets):
        kernels.append(sum(s.filled is None for s in sheets))
        return real(sheets)

    monkeypatch.setattr(inspection, "with_filled_rows", spy)
    block = analyse(rows)
    assert sum(block["do_parse"].to_pylist()) == n
    assert len([k for k in kernels if k]) == 1 and max(kernels) == 6

    readers = workbook_readers()
    bodies = [synthetic_download(u, 0, eng.analysis_content_rows) for u in urls]
    sheets = [
        Sheet(readers[m][0](b), readers[m][1]) for b in bodies if (m := sniff_mime(b)) in readers
    ]
    masked = real(sheets)
    assert all(s.filled is not None for s in masked)
    insps = inspect_csv_texts_batch(sheets)
    assert inspect_csv_texts_batch(masked) == insps
    for a, b in zip(csv_texts_to_tables(masked, insps), csv_texts_to_tables(sheets, insps)):
        assert a.equals(b)
    eng.shutdown()
