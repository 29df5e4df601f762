"""Reload / state-preservation hardening (round-5 self-review batch).

The reference re-loads the udata catalog daily (cli/catalog.py:20-98):
resource METADATA refreshes while check history and scheduling live
untouched in their own tables. Our catalog is a single frontier table,
so a reload's full-row merge_insert must explicitly carry the stored
crawl-state columns — these tests pin that contract plus its edges
(caller-provided state wins, tombstoned rows return fresh), the
priority-survives-backoff rule, the distributed stuck-status cleanup
path, crash-idempotent metrics, and passenger-column survival.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hydra_ray.functions.urls import url_md5
from hydra_ray.synth import catalog_from_documents

KW = dict(batch_size=40, politeness_kwargs={"backoff_nb_req": 10**9})


def _state_by_rid(cat: pa.Table) -> dict:
    return {
        r["resource_id"]: r
        for r in cat.select(
            [
                "resource_id",
                "last_check_id",
                "last_checksum",
                "next_check_at",
                "detected_last_modified_at",
                "status",
            ]
        ).to_pylist()
    }


@pytest.mark.usefixtures("ray_session")
def test_reload_preserves_crawl_state(tmp_path, make_crawl_engine):
    """A daily catalog refresh (same seed, new titles) must not reset
    check history / scheduling: the old full-row merge_insert reverted
    every row to tier-2 'never checked' and re-parsed the world."""
    docs = pa.table({"doc_id": pa.array(np.arange(40), type=pa.int64())})
    seed = catalog_from_documents(docs)
    eng = make_crawl_engine(str(tmp_path / "wd"), **KW)
    eng.load_catalog(seed)
    eng.run(2)
    before = _state_by_rid(eng.catalog.read_arrow())
    checked = {k: v for k, v in before.items() if v["last_check_id"] is not None}
    assert checked  # the run actually checked rows

    refreshed = seed.set_column(
        seed.column_names.index("title"),
        "title",
        pa.array([f"refreshed {i}" for i in range(seed.num_rows)]),
    )
    new_docs = pa.table({"doc_id": pa.array(np.arange(40, 50), type=pa.int64())})
    eng.load_catalog(pa.concat_tables([refreshed, catalog_from_documents(new_docs)]))

    after = eng.catalog.read_arrow()
    # metadata refreshed
    titles = dict(zip(after["resource_id"].to_pylist(), after["title"].to_pylist()))
    for rid in checked:
        assert titles[rid].startswith("refreshed ")
    # crawl state carried for known rows, byte-identical
    after_state = _state_by_rid(after)
    for rid, prev in checked.items():
        assert after_state[rid] == prev
    # genuinely new rows enter fresh (tier-2, no invented history)
    new_rids = set(catalog_from_documents(new_docs)["resource_id"].to_pylist())
    for rid in new_rids:
        assert after_state[rid]["last_check_id"] is None
    # and the frontier keeps crawling from where it was: the next
    # iteration picks up the unchecked tail; rows not yet due and not
    # re-prioritized by the seed (priority=True re-imports ARE due — the
    # caller asked) keep their old check
    prio_rids = set(
        r for r, p in zip(seed["resource_id"].to_pylist(), seed["priority"].to_pylist()) if p
    )
    now = eng.now_dt()
    stats = eng.run_iteration()
    assert stats["selected"] > 0
    re_checked = _state_by_rid(eng.catalog.read_arrow())
    for rid, prev in checked.items():
        if rid in prio_rids or (prev["next_check_at"] and prev["next_check_at"] <= now):
            continue
        assert re_checked[rid]["last_check_id"] == prev["last_check_id"]


@pytest.mark.usefixtures("ray_session")
def test_reload_above_driver_thresholds(tmp_path, make_crawl_engine, table_route):
    """Reload on both table routes (the resource_id membership probe
    and the stored-state read are store lookups: a driver read, or a
    read_where Dataset above the size rule): crawl state is carried,
    new rows enter fresh, a new resource_id pointing at an
    already-seen URL is refused, and both routes store the same
    catalog."""
    docs = pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())})
    seed = catalog_from_documents(docs)
    new_docs = pa.table({"doc_id": pa.array(np.arange(30, 35), type=pa.int64())})
    url_dup = seed.slice(0, 1).set_column(
        seed.column_names.index("resource_id"), "resource_id", pa.array(["url-dup"])
    )
    refreshed = seed.set_column(
        seed.column_names.index("title"),
        "title",
        pa.array([f"refreshed {i}" for i in range(seed.num_rows)]),
    )
    stored = {}
    for route in ("driver", "dataset"):
        eng = make_crawl_engine(str(tmp_path / route), **KW)
        eng.load_catalog(seed)
        eng.run(2)
        before = _state_by_rid(eng.catalog.read_arrow())
        checked = {k: v for k, v in before.items() if v["last_check_id"] is not None}
        assert checked

        with table_route(route):
            eng.load_catalog(
                pa.concat_tables([refreshed, catalog_from_documents(new_docs), url_dup])
            )

        cat = eng.catalog.read_arrow()
        titles = dict(zip(cat["resource_id"].to_pylist(), cat["title"].to_pylist()))
        assert all(titles[rid].startswith("refreshed ") for rid in before)
        after = _state_by_rid(cat)
        assert "url-dup" not in after
        assert len(after) == 35
        for rid, prev in checked.items():
            assert after[rid] == prev
        for rid in catalog_from_documents(new_docs)["resource_id"].to_pylist():
            assert after[rid]["last_check_id"] is None
        stored[route] = cat.sort_by("resource_id")
    assert stored["dataset"].equals(stored["driver"])


@pytest.mark.usefixtures("ray_session")
def test_reload_explicit_state_wins(tmp_path, make_crawl_engine):
    """State columns the CALLER provides in the seed override the stored
    values — preservation only fills what the seed leaves unspecified."""
    docs = pa.table({"doc_id": pa.array(np.arange(10), type=pa.int64())})
    seed = catalog_from_documents(docs)
    eng = make_crawl_engine(str(tmp_path / "wd2"), **KW)
    eng.load_catalog(seed)
    eng.run(1)
    cat = eng.catalog.read_arrow()
    checked_rids = [
        r for r, c in zip(cat["resource_id"].to_pylist(), cat["last_check_id"].to_pylist()) if c
    ]
    assert checked_rids

    from datetime import timedelta

    forced = eng.now_dt() + timedelta(days=365)
    seed2 = seed.append_column(
        "next_check_at", pa.array([forced] * seed.num_rows, type=pa.timestamp("us"))
    )
    eng.load_catalog(seed2)
    got = eng.catalog.read_arrow()
    nca = dict(zip(got["resource_id"].to_pylist(), got["next_check_at"].to_pylist()))
    for rid in checked_rids:
        assert nca[rid] == forced
    # unspecified state still preserved alongside the explicit column
    lci = dict(zip(got["resource_id"].to_pylist(), got["last_check_id"].to_pylist()))
    assert any(lci[r] is not None for r in checked_rids)


@pytest.mark.usefixtures("ray_session")
def test_backoff_preserves_priority(tmp_path, make_crawl_engine):
    """A quota backoff postpones a check; it must not demote an
    explicitly requested priority check to the regular schedule."""
    from hydra_ray.pipelines.crawl import _frontier_update_backoff

    # unit: the update row keeps whatever priority the frontier row had
    rows = pa.table(
        {
            "dataset_id": ["d"] * 2,
            "resource_id": ["r1", "r2"],
            "url": ["https://h.example/1.csv", "https://h.example/2.csv"],
            "priority": [True, False],
        }
    )
    out = _frontier_update_backoff(rows, __import__("datetime").datetime(2026, 1, 1))
    assert out["priority"].to_pylist() == [True, False]
    assert out["status"].to_pylist() == ["BACKOFF", "BACKOFF"]

    # e2e: one-domain corpus, quota 1/window → 3 of 4 priority rows
    # back off and must still be priority=True in the catalog
    urls = [f"https://hot.example/r{i}.csv" for i in range(4)]
    seed = pa.table(
        {
            "dataset_id": ["ds-0"] * 4,
            "resource_id": [url_md5(u) for u in urls],
            "url": urls,
            "format": ["csv"] * 4,
            "priority": [True] * 4,
        }
    )
    eng = make_crawl_engine(
        str(tmp_path / "wd3"),
        batch_size=4,
        politeness_kwargs={"backoff_nb_req": 1, "backoff_period": 10**6},
    )
    eng.load_catalog(seed)
    stats = eng.run_iteration()
    assert stats.get("backoff", 0) == 3
    cat = eng.catalog.read_arrow()
    prio = dict(zip(cat["resource_id"].to_pylist(), cat["priority"].to_pylist()))
    status = dict(zip(cat["resource_id"].to_pylist(), cat["status"].to_pylist()))
    backed = [r for r, s in status.items() if s == "BACKOFF"]
    assert len(backed) == 3
    for rid in backed:
        assert prio[rid] is True  # un-run priority request survives
    done = next(r for r, s in status.items() if s != "BACKOFF")
    assert prio[done] is False  # the completed fetch resets its flag


@pytest.mark.usefixtures("ray_session")
def test_stuck_cleanup_distributed_path(tmp_path, make_crawl_engine, table_route):
    """clean_up_statuses on both table routes: stale rows are detected
    over the held frontier (driver) or three projected columns
    (Dataset) and fixed with one merge-on-read update — the same
    catalog either way, no full-width rewrite."""
    from datetime import timedelta

    from hydra_ray.pipelines.crawl import VIRTUAL_T0

    urls = [f"https://a.example/x{i}.csv" for i in range(6)]
    seed = pa.table(
        {
            "dataset_id": ["ds-0"] * 6,
            "resource_id": [url_md5(u) for u in urls],
            "url": urls,
            "format": ["csv"] * 6,
        }
    )
    statuses = ["ANALYSING_CSV", None, "DOWNLOADING", None, "ANALYSING_CSV", None]
    stored = {}
    for route in ("driver", "dataset"):
        eng = make_crawl_engine(str(tmp_path / route), batch_size=6)
        eng.load_catalog(seed)
        cat = eng.catalog.read_arrow()
        stale_since = VIRTUAL_T0 - timedelta(seconds=7200)
        sinces = [stale_since, None, stale_since, None, eng.now_dt(), None]
        cat = cat.set_column(cat.column_names.index("status"), "status", pa.array(statuses))
        cat = cat.set_column(
            cat.column_names.index("status_since"),
            "status_since",
            pa.array(sinces, type=pa.timestamp("us")),
        )
        eng.catalog.overwrite(cat, meta={"iteration": eng.iteration})
        with table_route(route):
            assert isinstance(eng._frontier(), pa.Table) == (route == "driver")
            assert eng.clean_up_statuses() == 2  # the two STALE working rows only
            got = eng.catalog.read_arrow()
            # idempotent second pass
            assert eng.clean_up_statuses() == 0
        by_rid = dict(zip(got["resource_id"].to_pylist(), got["status"].to_pylist()))
        # stale rows reset, fresh working row untouched, null rows untouched
        fresh_rid = cat["resource_id"][4].as_py()
        assert by_rid[fresh_rid] == "ANALYSING_CSV"
        for i in (0, 2):
            assert by_rid[cat["resource_id"][i].as_py()] is None
        stored[route] = got.sort_by("resource_id")
    assert stored["driver"].equals(stored["dataset"])


@pytest.mark.usefixtures("ray_session")
def test_metrics_idempotent_across_crash_rerun(tmp_path, make_crawl_engine):
    """Stats/lineage metrics commit with the same tagged-replace
    idempotency as the data tables: a crash between the metrics commit
    and the catalog meta advance reruns the iteration and REPLACES the
    crashed attempt's rows instead of duplicating them."""
    docs = pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())})
    eng = make_crawl_engine(str(tmp_path / "wd5"), **KW)
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(1)
    committed_iter = eng.iteration

    # crash INSIDE _finish_iteration: stats metrics are committed (they
    # go first), the state checkpoint + catalog advance never happen
    orig = eng._save_state

    def bomb(*a, **k):
        raise RuntimeError("injected crash before catalog commit")

    eng._save_state = bomb
    with pytest.raises(RuntimeError, match="injected"):
        eng.run_iteration()
    eng._save_state = orig
    assert eng.iteration == committed_iter
    # the crashed attempt's stats rows are on disk (metrics commit is
    # first) — the rerun below must supersede, not duplicate, them
    m = eng.metrics.read_arrow().to_pandas()
    crashed = m[(m["iteration"] == committed_iter) & (m["metric"] == "selected")]
    assert len(crashed) == 1
    eng.shutdown()

    eng2 = make_crawl_engine(str(tmp_path / "wd5"), **KW)
    assert eng2.iteration == committed_iter
    eng2.run(2)
    m2 = eng2.metrics.read_arrow().to_pandas()
    stats_rows = m2[m2["metric"] == "selected"]
    # exactly one 'selected' stats row per finished iteration
    assert stats_rows["iteration"].tolist() == sorted(stats_rows["iteration"].unique().tolist())
    per_iter = stats_rows.groupby("iteration").size()
    assert (per_iter == 1).all()
    # lineage rows unique per (iteration, partition)
    lin = m2[m2["metric"].str.startswith("lineage:")]
    assert not lin.duplicated(subset=["iteration", "metric", "partition"]).any()


@pytest.mark.usefixtures("ray_session")
def test_passenger_column_survives_iterations(tmp_path, make_crawl_engine, table_route):
    """A catalog column outside _FRONTIER_COLS (seed extras or
    add_column schema evolution) must survive iteration updates in both
    frontier paths (the full-row merge_insert would null-fill it)."""
    docs = pa.table({"doc_id": pa.array(np.arange(20), type=pa.int64())})
    seed = catalog_from_documents(docs).append_column(
        "steward", pa.array([f"team-{i % 3}" for i in range(20)])
    )
    eng = make_crawl_engine(str(tmp_path / "wd6"), **KW)
    eng.load_catalog(seed)
    want = dict(zip(seed["resource_id"].to_pylist(), seed["steward"].to_pylist()))
    eng.run(2)  # driver path
    got = eng.catalog.read_arrow()
    vals = dict(zip(got["resource_id"].to_pylist(), got["steward"].to_pylist()))
    assert vals == want
    eng.shutdown()

    eng2 = make_crawl_engine(str(tmp_path / "wd6"), **KW)
    with table_route("dataset"):  # distributed frontier path
        eng2.run(1)
    got2 = eng2.catalog.read_arrow()
    vals2 = dict(zip(got2["resource_id"].to_pylist(), got2["steward"].to_pylist()))
    assert vals2 == want


@pytest.mark.usefixtures("ray_session")
def test_on_demand_check_checkpoints_politeness(tmp_path, make_crawl_engine):
    """check_resource_now advances politeness actor state; a crash right
    after it must resume with that window intact — otherwise the resumed
    loop over-crawls the domain the committed check row already hit."""
    urls = [f"https://hot.example/r{i}.csv" for i in range(3)]
    seed = pa.table(
        {
            "dataset_id": ["ds-0"] * 3,
            "resource_id": [url_md5(u) for u in urls],
            "url": urls,
            "format": ["csv"] * 3,
        }
    )
    kw = dict(
        batch_size=3,
        politeness_kwargs={"backoff_nb_req": 1, "backoff_period": 10**6},
    )
    eng = make_crawl_engine(str(tmp_path / "wd7"), **kw)
    eng.load_catalog(seed)
    check = eng.check_resource_now(url_md5(urls[0]))
    assert check["status"] is not None or check["error"] is not None
    eng.shutdown()  # crash: no run_iteration, no further checkpoints

    eng2 = make_crawl_engine(str(tmp_path / "wd7"), **kw)
    stats = eng2.run_iteration()
    # quota (1/window) was consumed by the on-demand check: the resumed
    # iteration must back off the whole domain, not fetch it again
    assert stats.get("ok", 0) + stats.get("timeout", 0) + stats.get("error", 0) == 0
    assert stats.get("backoff", 0) >= 1
