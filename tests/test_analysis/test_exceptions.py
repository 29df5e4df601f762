"""resources_exceptions (J3): size-cap exemption + too-large error path."""

import pyarrow as pa
import pytest

from hydra_ray.pipelines.crawl import CrawlEngine  # noqa: F401  (engine wiring)
from hydra_ray.functions.urls import url_md5


BIG = "https://big.example/huge.csv"
BIG_HEADERS = {"content-type": "text/csv", "content-length": str(200 * 1024 * 1024)}


def run_with(exceptions, tmp_workdir, make_crawl_engine):
    responses = {("head", BIG): {"kind": "ok", "status": 200, "headers": BIG_HEADERS}}
    eng = make_crawl_engine(
        tmp_workdir,
        transport={"kind": "mock", "responses": responses},
        batch_size=10,
        resource_exceptions=exceptions,
    )
    eng.load_catalog(
        pa.table(
            {
                "dataset_id": ["ds-0"],
                "resource_id": [url_md5(BIG)],
                "url": [BIG],
                "format": ["csv"],
            }
        )
    )
    eng.run_iteration()
    return eng.checks.read_arrow()


@pytest.mark.usefixtures("ray_session")
def test_oversize_without_exception_errors(tmp_workdir, make_crawl_engine):
    checks = run_with(set(), tmp_workdir, make_crawl_engine)
    assert checks["analysis_error"].to_pylist() == ["File too large to download"]
    assert checks["checksum"].to_pylist() == [None]


@pytest.mark.usefixtures("ray_session")
def test_oversize_with_exception_analysed(tmp_workdir, make_crawl_engine):
    checks = run_with({url_md5(BIG)}, tmp_workdir, make_crawl_engine)
    assert checks["analysis_error"].to_pylist() == [None]
    assert checks["checksum"].to_pylist()[0] is not None
