"""CLI surface (hydra_ray/cli.py) — reference udata_hydra/cli parity."""

import json

import pytest

from hydra_ray.cli import main

CSV = """dataset.id;id;url;type;format;title;dataset.archived;harvest.modified_at
d1;r1;https://a.example/x.csv;main;csv;file x;False;2024-01-02T10:00:00
d1;r2;https://a.example/y.csv;main;csv;file y;True;
d2;r3;https://b.example/z.csv;main;csv;file z;False;
"""


def _run(capsys, *argv):
    assert main(list(argv)) == 0
    lines = [l for l in capsys.readouterr().out.strip().splitlines() if l.strip()]
    return json.loads(lines[-1])  # engine progress lines may precede


@pytest.mark.usefixtures("ray_session")
def test_cli_crawl_roundtrip(tmp_path, capsys):
    cat = tmp_path / "catalog.csv"
    cat.write_text(CSV)
    wd = str(tmp_path / "wd")

    out = _run(capsys, "load-catalog", "--workdir", wd, "--csv", str(cat))
    assert out["loaded"] == 2

    out = _run(capsys, "crawl", "--workdir", wd, "--iterations", "1")
    assert out["iterations"][0]["selected"] == 2

    out = _run(capsys, "find-check", "--workdir", wd, "--resource-id", "r1")
    assert len(out["checks"]) == 1
    assert out["checks"][0]["resource_id"] == "r1"

    out = _run(capsys, "csv-sample", "--workdir", wd, "--size", "10")
    urls = [r["url"] for r in out["sample"]]
    assert urls and set(urls) <= {"https://a.example/x.csv", "https://b.example/z.csv"}
    out2 = _run(capsys, "csv-sample", "--workdir", wd, "--size", "10")
    assert out2["sample"] == out["sample"]  # seeded, reproducible

    out = _run(capsys, "probe-cors", "--workdir", wd, "--url", "https://a.example/x.csv")
    assert "allows_any" in out

    # --resource-id resolution goes through the reference wire format's
    # nested document (regression: res["url"] is always absent there —
    # the probe silently keyed CORS on the string "None")
    out = _run(capsys, "probe-cors", "--workdir", wd, "--resource-id", "r1")
    assert out["url"] == "https://a.example/x.csv"

    out = _run(capsys, "status", "--workdir", wd)
    assert out["crawler"] and out["worker"]

    out = _run(capsys, "crawl-url", "--workdir", wd, "--url", "https://c.example/new.csv")
    assert out.get("status") is not None

    out = _run(capsys, "purge-documents", "--workdir", wd, "--resource-id", "r1")
    assert out["deleted_rows"] >= 0  # deletion-vector commit path exercised

    out = _run(capsys, "purge", "--workdir", wd)
    assert isinstance(out, dict)


@pytest.mark.usefixtures("ray_session")
def test_cli_load_catalog_cleans_stuck_statuses(tmp_path, capsys, make_crawl_engine):
    """load-catalog returns resources stuck in a working status to the
    frontier after the load, like the reference (cli/catalog.py:91-92),
    and reports how many it cleaned."""
    from datetime import timedelta

    import pyarrow as pa

    from hydra_ray.pipelines.crawl import VIRTUAL_T0

    cat = tmp_path / "catalog.csv"
    cat.write_text(CSV)
    wd = str(tmp_path / "wd")
    out = _run(capsys, "load-catalog", "--workdir", wd, "--csv", str(cat))
    assert out["loaded"] == 2 and out["cleaned"] == 0

    # r1 stuck since long before the engine's clock, r3 working right now
    eng = make_crawl_engine(wd)
    tbl = eng.catalog.read_arrow()
    rids = tbl["resource_id"].to_pylist()
    since = {"r1": VIRTUAL_T0 - timedelta(hours=2), "r3": eng.now_dt()}
    tbl = tbl.set_column(
        tbl.column_names.index("status"), "status",
        pa.array(["ANALYSING_CSV" if r in since else None for r in rids]),
    )
    tbl = tbl.set_column(
        tbl.column_names.index("status_since"), "status_since",
        pa.array([since.get(r) for r in rids], type=pa.timestamp("us")),
    )
    eng.catalog.overwrite(tbl, meta={"iteration": eng.iteration})
    eng.shutdown()

    out = _run(capsys, "load-catalog", "--workdir", wd, "--csv", str(cat))
    assert out["loaded"] == 2 and out["cleaned"] == 1
    got = make_crawl_engine(wd).catalog.read_arrow()
    status = dict(zip(got["resource_id"].to_pylist(), got["status"].to_pylist()))
    assert status == {"r1": None, "r3": "ANALYSING_CSV"}


def test_cli_analyse_csv(tmp_path, capsys):
    f = tmp_path / "t.csv"
    f.write_text("a,b\n1,x\n2,y\n")
    out = _run(capsys, "analyse-csv", "--file", str(f), "--profile")
    assert out["total_lines"] == 2
    assert out["columns"]["a"]["python_type"] == "int"


def test_cli_analyse_geojson(tmp_path, capsys):
    f = tmp_path / "t.geojson"
    f.write_text(json.dumps({
        "type": "FeatureCollection",
        "features": [
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": [2.0, 48.0]}, "properties": {}},
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": [3.0, 49.0]}, "properties": {}},
        ],
    }))
    out = _run(capsys, "analyse-geojson", "--file", str(f))
    assert out["n_features"] == 2
    assert out["geometry_types"] == {"Point": 2}
    assert out["bbox"] == [2.0, 48.0, 3.0, 49.0]


def test_cli_catalog_insert_download_ogc(tmp_path, capsys, ray_session):
    """Reference verbs insert-url-into-catalog / download-resource /
    analyse-ogc over the engine's synthetic web."""
    cat = tmp_path / "catalog.csv"
    cat.write_text(CSV)
    wd = str(tmp_path / "wd")
    _run(capsys, "load-catalog", "--workdir", wd, "--csv", str(cat))

    out = _run(capsys, "insert-url-into-catalog", "--workdir", wd,
               "--url", "https://new.example/data.csv", "--resource-id", "r9")
    assert out == {"resource_id": "r9", "url": "https://new.example/data.csv",
                   "action": "insert"}
    out = _run(capsys, "insert-resource-into-catalog", "--workdir", wd,
               "--url", "https://new.example/data2.csv", "--resource-id", "r9")
    assert out["action"] == "update"

    out = _run(capsys, "download-resource", "--workdir", wd,
               "--resource-id", "r1", "--output-dir", str(tmp_path / "dl"))
    assert out["bytes"] > 0
    import os
    assert os.path.exists(out["path"]) and out["path"].endswith("r1.csv")
    assert os.path.getsize(out["path"]) == out["bytes"]
    # the file the crawl parses: the synthetic web's CSV for r1
    from hydra_ray.stages.inspection import inspect_csv_bytes

    with open(out["path"], "rb") as f:
        assert inspect_csv_bytes(f.read())["header"] == ["id", "name", "value"]

    out = _run(capsys, "analyse-ogc", "--workdir", wd,
               "--url", "https://geo.example/wfs?service=WFS&request=GetCapabilities")
    assert out["result"] is not None
    assert out["result"]["service_type"] in ("wfs", "WFS") or out["result"].get("layers")

    out = _run(capsys, "analyse-ogc", "--workdir", wd, "--resource-id", "does-not-exist")
    assert out["result"] is None


def test_cli_analyse_resource_alias(tmp_path, capsys, ray_session):
    cat = tmp_path / "catalog.csv"
    cat.write_text(CSV)
    wd = str(tmp_path / "wd")
    _run(capsys, "load-catalog", "--workdir", wd, "--csv", str(cat))
    out = _run(capsys, "analyse-resource", "--workdir", wd, "--resource-id", "r1")
    assert out.get("resource_id") == "r1" and out.get("status") is not None


def test_cli_analyse_ogc_by_check_id_and_tombstone(tmp_path, capsys, ray_session):
    """--check-id alone resolves the check; a tombstoned resource (Gone)
    degrades to the no-check JSON error instead of a traceback, and the
    temporary OGC enable is restored either way."""
    from hydra_ray.config import config

    cat = tmp_path / "catalog.csv"
    cat.write_text(
        "dataset.id;id;url;type;format;title;dataset.archived;harvest.modified_at\n"
        "d1;r1;https://geo.example/geoserver/wfs;main;wfs;svc;False;\n"
    )
    wd = str(tmp_path / "wd")
    _run(capsys, "load-catalog", "--workdir", wd, "--csv", str(cat))
    _run(capsys, "crawl", "--workdir", wd, "--iterations", "1")

    was = config.OGC_ANALYSIS_ENABLED
    out = _run(capsys, "find-check", "--workdir", wd, "--resource-id", "r1")
    check_id = out["checks"][0]["id"]
    out = _run(capsys, "analyse-ogc", "--workdir", wd, "--check-id", str(check_id))
    assert out["result"] is not None and "layers" in out["result"]
    assert config.OGC_ANALYSIS_ENABLED == was  # restored

    # tombstone → Gone path degrades gracefully
    import hydra_ray.cli as cli_mod
    from hydra_ray.pipelines.api import EngineApi

    eng = cli_mod._engine(wd)
    EngineApi(eng).delete_resource("r1")
    eng.shutdown()
    out = _run(capsys, "analyse-ogc", "--workdir", wd, "--resource-id", "r1")
    assert out["result"] is None and "error" in out
    assert config.OGC_ANALYSIS_ENABLED == was
