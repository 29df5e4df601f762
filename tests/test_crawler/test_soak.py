"""Soak: long continuous-loop runs — re-check scheduling cycles,
politeness windows build and lift, state stays consistent, periodic GC
bounds disk and driver memory."""

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.synth import catalog_from_documents


@pytest.mark.usefixtures("ray_session")
def test_ten_iteration_soak(tmp_path, make_crawl_engine):
    docs = pa.table({"doc_id": pa.array(np.arange(240), type=pa.int64())})
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=80,
        politeness_kwargs={"backoff_nb_req": 30, "backoff_period": 360, "cool_off_period": 360},
    )
    eng.load_catalog(catalog_from_documents(docs))
    stats = eng.run(60)  # hot domain drains ~30 checks per 6-7 iteration window,
    # with occasional 6-iteration x-ratelimit cool-offs from the synthetic world

    # every iteration selected something until the frontier drained
    selected = [s["selected"] for s in stats]
    assert selected[0] == 80
    # politeness throttled the hot domain at some point (backoff seen)
    assert any(s.get("backoff", 0) > 0 for s in stats)
    # ...and throttled rows were eventually crawled (backoff rows return)
    total_checked = sum(s.get("ok", 0) + s.get("timeout", 0) + s.get("error", 0) for s in stats)
    cat = eng.catalog.read_arrow()
    n_checked_rows = sum(1 for x in cat["last_check_id"].to_pylist() if x is not None)
    assert n_checked_rows == 240  # whole frontier eventually checked

    # checks log consistent: one id per (resource, iteration), no dups
    checks = eng.checks.read_arrow()
    ids = checks["id"].to_pylist()
    assert len(ids) == len(set(ids)) == total_checked

    # every catalog row left in a crawlable state (no stuck leases)
    assert set(cat["status"].to_pylist()) <= {None, "BACKOFF"}

    # next_check_at set for all checked rows (re-check cycle armed)
    nca = [x for x, c in zip(cat["next_check_at"].to_pylist(), cat["last_check_id"].to_pylist()) if c]
    assert all(x is not None for x in nca)

    # metrics include lineage rows for every iteration that fetched
    metrics = eng.metrics.read_arrow().to_pandas()
    lineage = metrics[metrics["metric"].str.startswith("lineage:")]
    assert lineage["iteration"].nunique() >= sum(1 for s in stats if s.get("ok") is not None)

    # GC: catalog rewrites each iteration → old versions reclaimable
    removed = eng.catalog.gc(keep_versions=1)
    assert removed > 0
    assert eng.catalog.read_arrow().num_rows == 240  # latest intact


@pytest.mark.usefixtures("ray_session")
def test_200_iteration_continuous_soak(tmp_path, make_crawl_engine):
    """run_continuous over 200 virtual iterations with periodic GC:
    disk file count stays bounded (superseded versions + manifests +
    state pickles reclaimed) and driver RSS stays flat (high-water
    growth after warmup under a hard ceiling)."""
    import os
    import resource

    docs = pa.table({"doc_id": pa.array(np.arange(120), type=pa.int64())})
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=40,
        catalog_parts=8,
        catalog_partition_min_rows=1,
        politeness_kwargs={"backoff_nb_req": 30, "backoff_period": 240, "cool_off_period": 240},
    )
    eng.load_catalog(catalog_from_documents(docs))

    def count_files(*roots):
        return sum(len(fs) for root in roots for _, _, fs in os.walk(str(root)))

    # the GC'd surfaces: rewriting catalog versions + manifests + state.
    # (checks/docs/payloads parts grow linearly by design — append-only
    # data, every file referenced by the latest manifest.)
    gc_roots = (tmp_path / "wd" / "catalog", tmp_path / "wd" / "state")

    stats = eng.run_continuous(iterations=50, gc_every=25)
    rss_warm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    files_warm = count_files(*gc_roots)

    stats += eng.run_continuous(iterations=150, gc_every=25)
    rss_end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    files_end = count_files(*gc_roots)

    assert len(stats) == 200 and eng.iteration == 200
    # every row still crawlable; checks ids unique over the whole soak
    checks = eng.checks.read_arrow()
    ids = checks["id"].to_pylist()
    assert len(ids) == len(set(ids))
    assert eng.catalog.read_arrow().num_rows == 120

    # bounded disk: GC holds the rewriting surfaces flat — after 4x the
    # iterations the catalog+state file count must not exceed the
    # between-GC high water (25 iterations of versions + manifests)
    assert files_end <= max(files_warm, 8 * 2 + 25 * 2 + 16), (files_warm, files_end)
    # state pickles pruned to keep_state + in-flight
    state_files = os.listdir(str(tmp_path / "wd" / "state"))
    assert len(state_files) <= 8, state_files

    # flat driver RSS: high-water growth after warmup < 256 MiB
    # (ru_maxrss is KiB on linux)
    assert rss_end - rss_warm < 256 * 1024, (rss_warm, rss_end)

    # resumable after the long soak (state + manifests consistent)
    eng2 = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=40,
        catalog_parts=8,
        catalog_partition_min_rows=1,
    )
    assert eng2.iteration == 200
    eng2.run(1)


@pytest.mark.usefixtures("ray_session")
def test_compact_documents_merges_and_preserves_reads(tmp_path, make_crawl_engine):
    """Compaction rewrites the append-only documents table to one row
    per doc_id (latest _iter) — read_documents is unchanged before vs
    after, the row count shrinks to the distinct doc count, and the
    distributed path produces the same logical table as the driver
    path."""
    docs = pa.table({"doc_id": pa.array(np.arange(120), type=pa.int64())})
    eng = make_crawl_engine(
        str(tmp_path / "wd"),
        batch_size=120,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(3)  # re-parses append superseded versions
    before_rows = eng.documents.count()
    logical_before = eng.read_documents().sort_by("doc_id")
    distinct = len(set(eng.documents.read_arrow(columns=["doc_id"])["doc_id"].to_pylist()))
    assert before_rows >= distinct  # something to compact (appends happened)

    # distributed path must agree with the driver path
    eng.DOCS_COMPACT_DRIVER_ROWS = 0
    stats = eng.compact_documents()
    assert stats["rows_after"] == distinct <= stats["rows_before"]
    logical_after = eng.read_documents().sort_by("doc_id")
    assert logical_after.equals(logical_before)
    # idempotent
    stats2 = eng.compact_documents()
    assert stats2["rows_after"] == stats2["rows_before"] == distinct
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_500_iteration_soak_with_compaction(tmp_path, make_crawl_engine):
    """500 virtual iterations of run_continuous with periodic document
    compaction + GC, a kill+resume across a simulated mid-compaction
    crash window, bounded file counts on every GC'd surface, flat
    driver RSS, and byte-identical read_documents() around compaction
    (the last streaming-durability seam)."""
    import os
    import resource

    import pyarrow.parquet as pq

    docs = pa.table({"doc_id": pa.array(np.arange(100), type=pa.int64())})
    kw = dict(
        batch_size=40,
        catalog_parts=8,
        catalog_partition_min_rows=1,
        politeness_kwargs={"backoff_nb_req": 30, "backoff_period": 240, "cool_off_period": 240},
    )
    wd = str(tmp_path / "wd")
    eng = make_crawl_engine(wd, **kw)
    eng.load_catalog(catalog_from_documents(docs))

    stats = eng.run_continuous(iterations=200, gc_every=25, compact_every=50)
    rss_warm = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    logical_mid = eng.read_documents().sort_by("doc_id")

    # kill mid-compaction: part files written into a txn dir but never
    # registered — invisible to reads, reclaimed by the next gc
    junk_txn = eng.documents.new_txn_dir()
    pq.write_table(pa.table({"doc_id": pa.array([999999])}), os.path.join(junk_txn, "part-crash.parquet"))
    eng.shutdown()

    eng2 = make_crawl_engine(wd, **kw)
    assert eng2.iteration == 200
    # the crash-window artifact changed nothing logically
    assert eng2.read_documents().sort_by("doc_id").equals(logical_mid)

    stats += eng2.run_continuous(iterations=300, gc_every=25, compact_every=50)
    rss_end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert len(stats) == 500 and eng2.iteration == 500
    # the junk part file was garbage-collected
    assert not os.path.exists(os.path.join(junk_txn, "part-crash.parquet"))

    # explicit compaction at the end: byte-identical logical reads,
    # physical rows shrink to one per doc
    before = eng2.read_documents().sort_by("doc_id")
    cstats = eng2.compact_documents()
    eng2.gc()
    after = eng2.read_documents().sort_by("doc_id")
    assert after.equals(before)
    distinct = len(set(before["doc_id"].to_pylist()))
    assert cstats["rows_after"] == distinct <= cstats["rows_before"]
    assert eng2.documents.count() == distinct

    # bounded disk across the whole soak: compaction+gc hold the
    # documents data dir to the post-compaction working set (last two
    # versions + at most one inter-compaction window of appends)
    doc_files = [
        f for _r, _d, fs in os.walk(os.path.join(wd, "documents")) for f in fs
        if f.endswith(".parquet")
    ]
    assert len(doc_files) <= 120, len(doc_files)
    state_files = os.listdir(os.path.join(wd, "state"))
    assert len(state_files) <= 8, state_files

    # checks ids unique across all 500 iterations; frontier intact
    checks_ids = eng2.checks.read_arrow(columns=["id"])["id"].to_pylist()
    assert len(checks_ids) == len(set(checks_ids))
    assert eng2.catalog.read_arrow().num_rows == 100

    # flat driver RSS: high-water growth after the 200-iteration warmup
    # stays under 256 MiB (ru_maxrss is KiB on linux)
    assert rss_end - rss_warm < 256 * 1024, (rss_warm, rss_end)
    eng2.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_continuous_soak_with_resource_deletion_and_purge(tmp_path, make_crawl_engine):
    """The reference's full resource-deletion lifecycle under churn:
    crawl → DELETE /api/resources (tombstone) → purge-documents
    (deletion-vector commit, no rewrite) → more crawling → compaction
    + gc → resume. Purged docs never resurface (tombstoned resources
    leave the frontier), reads stay consistent, disk stays bounded."""
    import os

    from hydra_ray.pipelines.api import EngineApi

    docs = pa.table({"doc_id": pa.array(np.arange(80), type=pa.int64())})
    kw = dict(
        batch_size=40,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    wd = str(tmp_path / "wd")
    eng = make_crawl_engine(wd, **kw)
    eng.load_catalog(catalog_from_documents(docs))
    eng.run_continuous(iterations=40, gc_every=10, compact_every=20)

    # only parseable (CSV-shaped) resources yield span documents in the
    # synthetic web — work with whatever the crawl produced
    live = sorted(eng.read_documents()["doc_id"].to_pylist())
    assert len(live) >= 16
    victims = live[:8]
    survivors = set(live) - set(victims)
    api = EngineApi(eng)
    for rid in victims:
        api.delete_resource(rid)          # tombstone: leaves the frontier
    out = eng.purge_documents(victims)    # deletion-vector commit
    assert out["deleted_rows"] >= 8
    after_purge = set(eng.read_documents()["doc_id"].to_pylist())
    assert after_purge == survivors

    # more churn: re-checks may add docs for OTHER resources, but a
    # tombstoned resource never resurfaces
    eng.run_continuous(iterations=40, gc_every=10, compact_every=20)
    final = set(eng.read_documents()["doc_id"].to_pylist())
    assert final.isdisjoint(victims) and final >= survivors

    # compaction materializes the purge away; gc reclaims sidecars
    eng.compact_documents()
    eng.gc()
    assert eng.documents.deleted_count() == 0
    del_dir = os.path.join(eng.documents.path, "deletes")
    assert not os.path.isdir(del_dir) or not os.listdir(del_dir)
    eng.shutdown()

    # resume sees the purged state
    eng2 = make_crawl_engine(wd, **kw)
    got = set(eng2.read_documents()["doc_id"].to_pylist())
    assert got == final
    eng2.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_run_continuous_auto_purges_tombstones(tmp_path, make_crawl_engine):
    """purge_deleted_every: the reference's periodic purge job inside
    the streaming loop — tombstoned resources' documents disappear via
    one O(1) equality-delete commit per cycle; compaction resolves the
    entries; each tombstone is purged once per engine lifetime."""
    from hydra_ray.pipelines.api import EngineApi

    docs = pa.table({"doc_id": pa.array(np.arange(40), type=pa.int64())})
    kw = dict(batch_size=40, politeness_kwargs={"backoff_nb_req": 10**9})
    eng = make_crawl_engine(str(tmp_path / "wd"), **kw)
    eng.load_catalog(catalog_from_documents(docs))
    eng.run_continuous(iterations=4)
    live = sorted(eng.read_documents()["doc_id"].to_pylist())
    assert len(live) >= 4
    victims = live[:3]
    api = EngineApi(eng)
    for rid in victims:
        api.delete_resource(rid)

    stats = eng.run_continuous(iterations=8, purge_deleted_every=2, compact_every=8)
    purged_counts = [s.get("purged") for s in stats if "purged" in s]
    assert purged_counts and purged_counts[0] >= 3  # first cycle purges the batch
    assert sum(purged_counts[1:]) == 0              # never re-purged after
    final = set(eng.read_documents()["doc_id"].to_pylist())
    assert final.isdisjoint(victims)
    # compaction resolved the pending entries
    assert eng.documents.pending_eq_deletes() == []
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_tombstone_survives_active_checkpoints(tmp_path, make_crawl_engine):
    """An API tombstone must survive subsequent crawl checkpoints that
    rewrite the catalog from the driver frontier cache (the cache is
    invalidated by delete_resource) — and the purged documents must
    stay gone under an ACTIVE frontier."""
    from hydra_ray.pipelines.api import EngineApi

    docs = pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())})
    eng = make_crawl_engine(
        str(tmp_path / "wd"), batch_size=30,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(2)  # warm cache, everything checked
    live = sorted(eng.read_documents()["doc_id"].to_pylist())
    victims = live[:2]
    api = EngineApi(eng)
    for rid in victims:
        api.delete_resource(rid)

    # force re-selection of the surviving frontier (12h of virtual time)
    # so the next iterations UPDATE rows and overwrite the checkpoint
    eng.iteration += 12 * 60
    stats = eng.run_continuous(iterations=3, purge_deleted_every=1, compact_every=3)
    assert any(s.get("selected", 0) > 0 for s in stats)  # frontier was active

    cat = eng.catalog.read_arrow(columns=["resource_id", "deleted"])
    tombs = {
        r for r, d in zip(cat["resource_id"].to_pylist(), cat["deleted"].to_pylist()) if d
    }
    assert set(victims) <= tombs  # checkpoint did NOT resurrect
    final = set(eng.read_documents()["doc_id"].to_pylist())
    assert final.isdisjoint(victims)
    eng.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_retombstoned_resurrection_is_repurged(tmp_path, make_crawl_engine):
    """Regression (ADVICE r4): tombstone → purge → re-register live →
    re-tombstone within one engine lifetime. The old lifetime-set skip
    never re-purged the resource, so documents it re-created (in files
    NEWER than the pending equality-delete entry, which only covers
    strictly-older files) leaked past every later purge."""
    from hydra_ray.pipelines.api import EngineApi

    docs = pa.table({"doc_id": pa.array(np.arange(30), type=pa.int64())})
    eng = make_crawl_engine(
        str(tmp_path / "wd"), batch_size=30,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    eng.load_catalog(catalog_from_documents(docs))
    eng.run(2)
    live_docs = set(eng.read_documents()["doc_id"].to_pylist())
    cat = eng.catalog.read_arrow()
    victim = next(
        r for r in cat.to_pylist()
        if r["format"] == "csv" and r["resource_id"] in live_docs
    )
    rid = victim["resource_id"]
    api = EngineApi(eng)
    api.delete_resource(rid)
    assert eng.purge_deleted_resources() == 1
    assert rid not in set(eng.read_documents()["doc_id"].to_pylist())

    # resurrect: same resource re-registered live, re-checked, re-parsed
    eng.insert_priority_resource(
        {
            "resource_id": rid,
            "dataset_id": victim["dataset_id"],
            "url": victim["url"],
            "format": "csv",
        }
    )
    eng.run(1)
    # its documents re-appear: the new file postdates the old entry
    assert rid in set(eng.read_documents()["doc_id"].to_pylist())

    # re-tombstone: the purge must NOT skip it this lifetime
    api.delete_resource(rid)
    assert eng.purge_deleted_resources() == 1
    assert rid not in set(eng.read_documents()["doc_id"].to_pylist())
    # untouched tombstones stay purged-once (no duplicate entries)
    assert eng.purge_deleted_resources() == 0
    # ...and the purge survives compaction + a fresh engine
    eng.compact_documents()
    eng.gc()
    assert rid not in set(eng.read_documents()["doc_id"].to_pylist())
    eng.shutdown()

    eng2 = make_crawl_engine(
        str(tmp_path / "wd"), batch_size=30,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    assert rid not in set(eng2.read_documents()["doc_id"].to_pylist())
    # resume: at most one conservative entry (zone-map ranges may still
    # span the long-gone id), then the lifetime skip holds
    assert eng2.purge_deleted_resources() <= 1
    assert eng2.purge_deleted_resources() == 0
    assert len(eng2.documents.pending_eq_deletes()) <= 1
    assert rid not in set(eng2.read_documents()["doc_id"].to_pylist())
    eng2.shutdown()
