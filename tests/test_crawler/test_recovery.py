"""404 stable-URL recovery (J5) and stuck-status cleanup (T7)."""

from datetime import timedelta

import pyarrow as pa
import pytest

from hydra_ray.config import config_override
from hydra_ray.functions.urls import url_md5
from hydra_ray.pipelines.crawl import VIRTUAL_T0

OLD = "https://a.example/old.csv"
NEW = "https://b.example/new.csv"
OK_HEADERS = {"content-type": "text/csv", "content-length": "99"}


@pytest.mark.usefixtures("ray_session")
def test_404_recovery_updates_catalog_and_checks_new_url(tmp_workdir, make_crawl_engine):
    rid = url_md5(OLD)
    responses = {
        ("head", OLD): {"kind": "error", "status": 404, "headers": {}, "error": "nf"},
        ("head", f"https://udata.example/api/1/datasets/r/{rid}"): {
            "kind": "ok",
            "status": 200,
            "headers": {"location": NEW},
        },
        ("head", NEW): {"kind": "ok", "status": 200, "headers": OK_HEADERS},
    }
    with config_override(UDATA_URI="https://udata.example/api/2"):
        eng = make_crawl_engine(
            tmp_workdir,
            transport={"kind": "mock", "responses": responses},
            batch_size=10,
        )
        eng.load_catalog(
            pa.table(
                {"dataset_id": ["ds-0"], "resource_id": [rid], "url": [OLD], "format": ["csv"]}
            )
        )
        stats = eng.run_iteration()
    assert stats["ok"] == 1  # recovered and checked fine
    checks = eng.checks.read_arrow()
    assert checks["url"].to_pylist() == [NEW]
    assert checks["status"].to_pylist() == [200]
    cat = eng.catalog.read_arrow()
    assert cat["url"].to_pylist() == [NEW]
    assert cat["domain"].to_pylist() == ["b.example"]


@pytest.mark.usefixtures("ray_session")
def test_404_without_udata_uri_stays_error(tmp_workdir, make_crawl_engine):
    rid = url_md5(OLD)
    responses = {("head", OLD): {"kind": "error", "status": 404, "headers": {}, "error": "nf"}}
    eng = make_crawl_engine(
        tmp_workdir, transport={"kind": "mock", "responses": responses}, batch_size=10
    )
    eng.load_catalog(
        pa.table({"dataset_id": ["ds-0"], "resource_id": [rid], "url": [OLD], "format": ["csv"]})
    )
    stats = eng.run_iteration()
    assert stats["error"] == 1
    assert eng.checks.read_arrow()["url"].to_pylist() == [OLD]


@pytest.mark.usefixtures("ray_session")
def test_stuck_status_cleanup(tmp_workdir, make_crawl_engine):
    eng = make_crawl_engine(tmp_workdir, batch_size=10)
    rid = url_md5("https://a.example/x.csv")
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds-0"],
                "resource_id": [rid],
                "url": ["https://a.example/x.csv"],
                "format": ["csv"],
            }
        )
    )
    # wedge the row into a stale working status
    cat = eng.catalog.read_arrow()
    import pyarrow.compute as pc  # noqa: F401

    stale_since = VIRTUAL_T0 - timedelta(seconds=7200)
    cat = cat.set_column(cat.column_names.index("status"), "status", pa.array(["ANALYSING_CSV"]))
    cat = cat.set_column(
        cat.column_names.index("status_since"),
        "status_since",
        pa.array([stale_since], type=pa.timestamp("us")),
    )
    eng.catalog.overwrite(cat, meta={"iteration": eng.iteration})
    assert eng.clean_up_statuses() == 1
    got = eng.catalog.read_arrow()
    assert got["status"].to_pylist() == [None]
    # fresh working statuses are NOT cleaned
    cat2 = got.set_column(got.column_names.index("status"), "status", pa.array(["ANALYSING_CSV"]))
    cat2 = cat2.set_column(
        cat2.column_names.index("status_since"),
        "status_since",
        pa.array([eng.now_dt()], type=pa.timestamp("us")),
    )
    eng.catalog.overwrite(cat2, meta={"iteration": eng.iteration})
    assert eng.clean_up_statuses() == 0


@pytest.mark.usefixtures("ray_session")
def test_robots_gate_e2e(tmp_workdir, make_crawl_engine):
    """robots=True: disallowed URLs get an error check without a fetch;
    allowed URLs proceed normally."""
    blocked = "https://r.example/private/x.csv"
    open_url = "https://r.example/pub/y.csv"
    responses = {
        ("robots", "r.example"): "User-agent: *\nDisallow: /private\n",
        ("head", open_url): {
            "kind": "ok",
            "status": 200,
            "headers": {"content-type": "text/csv", "content-length": "10"},
        },
        # NOTE: no ("head", blocked) entry — a fetch would 404; the gate
        # must prevent the request entirely
    }
    eng = make_crawl_engine(
        tmp_workdir,
        transport={"kind": "mock", "responses": responses},
        batch_size=10,
        robots=True,
    )
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds-0", "ds-0"],
                "resource_id": [url_md5(blocked), url_md5(open_url)],
                "url": [blocked, open_url],
                "format": ["csv", "csv"],
            }
        )
    )
    stats = eng.run_iteration()
    assert stats["ok"] == 1 and stats["error"] == 1
    checks = eng.checks.read_arrow()
    by_url = dict(zip(checks["url"].to_pylist(), checks["error"].to_pylist()))
    assert by_url[blocked] == "Blocked by robots.txt"
    assert by_url[open_url] is None
