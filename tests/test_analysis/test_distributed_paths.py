"""Force the at-scale code paths (driver thresholds → 0) and check they
produce identical results to the driver fast paths."""

import pyarrow as pa
import pytest
import ray.data as rd

import hydra_ray.stages.agg as agg_mod
from hydra_ray.sources.store import VersionedTable
from hydra_ray.stages.agg import grouped_agg


@pytest.mark.usefixtures("ray_session")
def test_merge_insert_distributed_path(tmp_path, table_route):
    t0 = pa.table({"k": ["a", "b", "c"], "v": pa.array([1, 2, 3], type=pa.int64())})
    upd = pa.table({"k": ["b", "d"], "v": pa.array([20, 40], type=pa.int64())})
    for route in ("driver", "dataset"):
        vt = VersionedTable(str(tmp_path / route))
        vt.overwrite(t0)
        with table_route(route):
            vt.merge_insert(upd, key="k")
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b", "c", "d"]
        assert got["v"].to_pylist() == [1, 20, 3, 40]


@pytest.mark.usefixtures("ray_session")
def test_grouped_agg_distributed_final(monkeypatch):
    t = pa.table({"k": ["a", "b", "a"], "v": pa.array([1.0, 2.0, 3.0])})
    monkeypatch.setattr(agg_mod, "DRIVER_MERGE_ROWS", 0)  # force ray groupby final
    out = (
        grouped_agg(rd.from_arrow(t).repartition(2), keys=["k"], aggs=[("v", "sum", "sv")])
        .to_pandas()
        .set_index("k")
        .sort_index()
    )
    assert out.loc["a", "sv"] == 4.0 and out.loc["b", "sv"] == 2.0


@pytest.mark.usefixtures("ray_session")
def test_frontier_distributed_select_matches_local(tmp_path, make_crawl_engine):
    """Cached (driver) vs Dataset select produce the same batch."""
    import numpy as np

    from hydra_ray.stages.frontier import select_batch
    from hydra_ray.synth import catalog_from_documents
    from hydra_ray.pipelines.crawl import _add_frontier_columns
    from hydra_ray.functions.urls import canonicalize_batch

    docs = pa.table({"doc_id": pa.array(np.arange(300), type=pa.int64())})
    tbl = _add_frontier_columns(canonicalize_batch(catalog_from_documents(docs)))
    now = np.datetime64("2026-01-01T00:00:00", "us")
    local = select_batch(tbl, 1, now, batch_size=50)
    dist = select_batch(rd.from_arrow(tbl).repartition(5), 1, now, batch_size=50)
    assert local["resource_id"].to_pylist() == dist["resource_id"].to_pylist()
    assert local["tier"].to_pylist() == dist["tier"].to_pylist()
