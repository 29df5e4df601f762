"""On-demand check entry point (reference POST /api/checks semantics:
routes/checks.py:59-96) + priority insert tier-1 pickup."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from .test_resume import small_seed


@pytest.mark.usefixtures("ray_session")
def test_check_resource_now(tmp_path, make_crawl_engine):
    e = make_crawl_engine(str(tmp_path / "od"), batch_size=20)
    e.load_catalog(small_seed())
    cat = e.catalog.read_arrow()
    rid = cat["resource_id"][5].as_py()

    check = e.check_resource_now(rid)
    assert check["resource_id"] == rid
    assert check["status"] is not None or check["error"] is not None

    # the check row is committed to the checks table
    checks = e.checks.read_arrow()
    got = checks.filter(pc.equal(checks["resource_id"], rid))
    assert got.num_rows == 1
    assert got["id"][0].as_py() == check["check_id"]

    # frontier columns updated: the row left the 'unchecked' tier
    cat2 = e.catalog.read_arrow()
    row = cat2.filter(pc.equal(cat2["resource_id"], rid))
    assert row["last_check_id"][0].as_py() == check["check_id"]
    assert row["last_check_at"][0].as_py() is not None

    # politeness counted the fetch (domain present in the sharded state)
    dom = row["domain"][0].as_py()
    assert any(dom in str(shard) for shard in e.politeness.serialize())

    # unknown resource → loud error
    with pytest.raises(KeyError):
        e.check_resource_now("no-such-resource")


@pytest.mark.usefixtures("ray_session")
def test_on_demand_then_loop_does_not_double_check(tmp_path, make_crawl_engine):
    """After an on-demand check, the same iteration's crawl loop must
    not produce a second check row with the same (deterministic) id."""
    e = make_crawl_engine(str(tmp_path / "od2"), batch_size=500)
    e.load_catalog(small_seed())
    rid = e.catalog.read_arrow()["resource_id"][3].as_py()
    check = e.check_resource_now(rid)
    e.run(1)  # batch covers the full catalog
    checks = e.checks.read_arrow()
    ids = checks["id"].to_pylist()
    assert ids.count(check["check_id"]) == 1


@pytest.mark.usefixtures("ray_session")
def test_priority_insert_tier1_pickup(tmp_path, make_crawl_engine):
    """insert_priority_resource → the row is tier 1 in the next
    selection (reference test_api_checks semantics: on-demand resources
    jump the queue)."""
    from hydra_ray.stages.frontier import select_batch
    import numpy as np

    e = make_crawl_engine(str(tmp_path / "prio"), batch_size=10)
    e.load_catalog(small_seed())
    e.insert_priority_resource(
        {
            "dataset_id": "ds-prio",
            "resource_id": "prio-resource-1",
            "url": "https://prio.example/res/1.csv",
            "format": "csv",
            "domain": "prio.example",
        }
    )
    frontier = e._frontier()
    sel = select_batch(
        frontier,
        e.iteration,
        np.datetime64(e.now_dt(), "us"),
        batch_size=10,
        seed=e.seed,
    )
    picked = sel["resource_id"].to_pylist()
    assert "prio-resource-1" in picked[:10]
    tiers = dict(zip(sel["resource_id"].to_pylist(), sel["tier"].to_pylist())) if "tier" in sel.column_names else {}
    if tiers:
        assert tiers["prio-resource-1"] == 1
