"""Checkpoint/resume + cross-parallelism determinism (north rule:
resumable from per-partition checkpoints; identical results at any
parallelism level under the seeded ordering contract)."""

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.synth import catalog_from_documents


def small_seed(n=120):
    docs = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64())})
    return catalog_from_documents(docs)


def checks_fingerprint(engine):
    t = engine.checks.read_arrow()
    rows = sorted(
        zip(
            t["id"].to_pylist(),
            t["resource_id"].to_pylist(),
            t["status"].to_pylist(),
            t["timeout"].to_pylist(),
            t["checksum"].to_pylist(),
            t["created_at"].to_pylist(),
            t["next_check_at"].to_pylist(),
        )
    )
    return rows


@pytest.fixture()
def crawl_blocks(monkeypatch):
    """Row counts of the blocks each crawl iteration cut (a spy on the
    ``blocks_dataset(list)`` call that builds the iteration's Dataset)."""
    from hydra_ray.pipelines import crawl

    seen: list[list[int]] = []
    blocks_dataset = crawl.blocks_dataset

    def spy(tables, *args, **kwargs):
        if isinstance(tables, list):
            seen.append([t.num_rows for t in tables])
        return blocks_dataset(tables, *args, **kwargs)

    monkeypatch.setattr(crawl, "blocks_dataset", spy)
    return seen


@pytest.fixture()
def pin_slots(monkeypatch):
    """Pins the CPU slot count the crawl cuts an iteration's blocks by
    (``crawl.cpu_slots``), so a layout does not depend on the test
    cluster's CPUs."""
    from hydra_ray.pipelines import crawl

    def pin(n: int) -> None:
        monkeypatch.setattr(crawl, "cpu_slots", lambda: n)

    return pin


def multi_block(blocks: list[list[int]]) -> bool:
    return bool(blocks) and all(len(b) > 1 for b in blocks)


@pytest.mark.usefixtures("ray_session")
def test_kill_and_resume_equals_straight_run(tmp_path, make_crawl_engine):
    kw = dict(batch_size=30)

    # straight 4-iteration run
    e1 = make_crawl_engine(str(tmp_path / "straight"), **kw)
    e1.load_catalog(small_seed())
    e1.run(4)

    # 2 iterations, "crash", new engine resumes from checkpoint, 2 more
    wd = str(tmp_path / "resumed")
    e2a = make_crawl_engine(wd, **kw)
    e2a.load_catalog(small_seed())
    e2a.run(2)
    e2a.shutdown()
    e2b = make_crawl_engine(wd, **kw)  # restores iteration + actor state
    assert e2b.iteration == 2
    e2b.run(2)

    assert checks_fingerprint(e1) == checks_fingerprint(e2b)
    # catalog frontier state identical too
    c1 = e1.catalog.read_arrow().sort_by("resource_id")
    c2 = e2b.catalog.read_arrow().sort_by("resource_id")
    assert c1.equals(c2)


@pytest.mark.usefixtures("ray_session")
def test_resume_crash_window_falls_back_to_older_state(tmp_path, make_crawl_engine):
    """Catalog manifest at iteration N but the exact iterN checkpoint
    missing (the commit/save crash window): resume must restore the
    newest committed state <= N, never silently start with empty
    politeness / URL-seen state. An *uncommitted* save dir (shard files
    present, meta.json missing) must be skipped the same way."""
    import glob
    import os
    import shutil

    wd = str(tmp_path / "cw")
    e = make_crawl_engine(wd, batch_size=30)
    e.load_catalog(small_seed())
    e.run(2)
    e.shutdown()
    # simulate the crash window: newest checkpoint uncommitted (marker
    # missing — a crash mid-save), manifest already ahead
    newest = e._state_dir(e.iteration)
    os.remove(os.path.join(newest, "meta.json"))
    e2 = make_crawl_engine(wd, batch_size=30)
    assert e2.iteration == 2
    # URL-seen state restored from iter1 (non-empty): reloading the same
    # catalog must not treat already-seen URLs as new
    tbl = e2.catalog.read_arrow()
    keys = tbl["url_key"].to_numpy(zero_copy_only=False).astype("int64")
    assert not any(e2.urlseen.add_if_new(keys[:20]))
    e2.shutdown()

    # no committed state at all for a nonzero iteration → loud failure
    for p in glob.glob(os.path.join(wd, "state", "iter*")):
        shutil.rmtree(p) if os.path.isdir(p) else os.remove(p)
    with pytest.raises(RuntimeError, match="refusing"):
        make_crawl_engine(wd, batch_size=30)


@pytest.mark.usefixtures("ray_session")
def test_sink_part_names_deterministic(tmp_path, make_crawl_engine):
    """Part files are named from block content (min check id), so a
    re-executed sink task overwrites instead of duplicating: two
    identical runs produce identical part-file name sets."""
    import os

    names = []
    for sub in ("s1", "s2"):
        e = make_crawl_engine(str(tmp_path / sub), batch_size=40)
        e.load_catalog(small_seed())
        e.run(2)
        files = sorted(os.path.basename(f) for f in e.checks.files())
        names.append(files)
        e.shutdown()
        assert all(n.startswith("part-") and len(n) == len("part-") + 16 + len(".parquet") for n in files)
    assert names[0] == names[1]


@pytest.mark.usefixtures("ray_session")
def test_results_identical_across_parallelism(tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots):
    """Same seed catalog, different block boundaries (so a different
    number of concurrent stage tasks per iteration) → byte-identical
    checks (the scaling-criterion determinism prerequisite)."""
    from hydra_ray.config import config

    pin_slots(2)
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 7)
    a = make_crawl_engine(str(tmp_path / "p1"), batch_size=40)
    a.load_catalog(small_seed())
    a.run(2)
    blocks_a = crawl_blocks[:]
    crawl_blocks.clear()
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 16)
    b = make_crawl_engine(str(tmp_path / "p4"), batch_size=40)
    b.load_catalog(small_seed())
    b.run(2)
    assert multi_block(blocks_a) and multi_block(crawl_blocks)
    assert blocks_a != crawl_blocks
    assert checks_fingerprint(a) == checks_fingerprint(b)


@pytest.mark.usefixtures("ray_session")
def test_iteration_blocks_sized_by_rows(tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots):
    """A 100-row iteration at FETCH_BATCH_SIZE=16 on one CPU slot is cut
    into 7 balanced row-range blocks of at most 16 rows, and one map runs
    the four crawl stages in order on whole blocks (batch_size=None): one
    call per block, no re-bundling of small blocks and no remainder
    calls."""
    import inspect
    import os

    import pyarrow.parquet as pq
    from ray.data import Dataset

    from hydra_ray.config import config

    pin_slots(1)
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 16)
    e = make_crawl_engine(
        str(tmp_path / "b"),
        batch_size=100,
        politeness_kwargs={"backoff_nb_req": 10**9},
    )
    e.load_catalog(small_seed(100))

    maps = []  # (stage names of the mapped chain, batch_size) per map_batches call
    map_batches = Dataset.map_batches

    def name(stage) -> str:
        udf = getattr(stage, "func", stage)  # the check-build stage is a partial
        udf = udf if inspect.isclass(udf) or inspect.isfunction(udf) else type(udf)
        return udf.__name__

    def recording(self, fn, *args, **kwargs):
        names = [name(s) for s in getattr(fn, "stages", [fn])]
        maps.append((names, kwargs.get("batch_size", "unset")))
        return map_batches(self, fn, *args, **kwargs)

    monkeypatch.setattr(Dataset, "map_batches", recording)
    stats = e.run_iteration()

    assert stats["selected"] == 100 and stats["backoff"] == 0
    assert len(crawl_blocks) == 1 and sorted(crawl_blocks[0]) == [14] * 5 + [15] * 2
    crawl_stages = ["Fetcher", "build_checks_batch", "Analyser", "IterationSink"]
    assert [m for m in maps if set(m[0]) & set(crawl_stages)] == [(crawl_stages, None)]
    # one sink call per block: one checks part file each, same rows
    parts = [f for f in e.checks.files() if os.path.basename(os.path.dirname(f)).startswith("txn-iter0-")]
    assert sorted(pq.read_metadata(f).num_rows for f in parts) == sorted(crawl_blocks[0])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    ("rows", "slots", "cap", "sizes"),
    [
        (800, 2, 1024, [400, 400]),
        (100, 4, 16, [12, 13] * 4),
        (3, 4, 1024, [3]),
        (40, 32, 16, [4] * 10),
    ],
)
def test_iteration_blocks_one_per_slot(
    tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots, rows, slots, cap, sizes
):
    """An iteration runs in full waves of one block per CPU slot, in the
    fewest waves that keep a block at most FETCH_BATCH_SIZE rows, unless
    that would cut more blocks than blocks of a quarter of
    FETCH_BATCH_SIZE rows (a small iteration on many slots): blocks stay
    balanced row ranges."""
    from hydra_ray.config import config

    pin_slots(slots)
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", cap)
    e = make_crawl_engine(
        str(tmp_path / "w"), batch_size=rows, politeness_kwargs={"backoff_nb_req": 10**9}
    )
    e.load_catalog(small_seed(rows))
    stats = e.run_iteration()
    assert stats["selected"] == rows and stats["backoff"] == 0
    assert crawl_blocks == [sizes]


def test_block_count_bounds():
    """Every block holds at most ``cap`` rows; there are never more
    blocks than ``cap // 4``-row blocks would make (256-row blocks at the
    default cap), and the count is a multiple of the slots whenever
    those bounds allow one."""
    from hydra_ray.pipelines.crawl import block_count

    for cap in (1, 3, 4, 9, 16, 1024):
        for slots in (1, 2, 3, 4, 8, 32):
            for rows in range(1, 3001, 7):
                n = block_count(rows, slots, cap)
                most = -(-rows // max(1, cap // 4))
                assert 1 <= n <= most
                assert -(-rows // n) <= cap
                if slots * -(-rows // (slots * cap)) <= most:
                    assert n % slots == 0


@pytest.mark.usefixtures("ray_session")
def test_checks_identical_across_slot_counts(tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots):
    """One, two and four CPU slots cut the same iterations into
    different blocks and commit identical checks."""
    from hydra_ray.config import config

    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 9)
    layouts, prints = [], []
    for slots in (1, 2, 4):
        pin_slots(slots)
        crawl_blocks.clear()
        e = make_crawl_engine(str(tmp_path / f"s{slots}"), batch_size=40)
        e.load_catalog(small_seed())
        e.run(2)
        layouts.append(crawl_blocks[:])
        prints.append(checks_fingerprint(e))
    # 40 rows at 9 rows per block: 5 blocks on 1 slot, 6 on 2, 8 on 4
    assert [len(blocks[0]) for blocks in layouts] == [5, 6, 8]
    assert prints[0] == prints[1] == prints[2]


@pytest.mark.usefixtures("ray_session")
def test_crawl_stages_run_as_tasks(tmp_path, make_crawl_engine, monkeypatch):
    """The crawl stages run only as tasks: neither an iteration nor an
    on-demand check hands Ray Data a class UDF, constructor kwargs or an
    actor-pool concurrency, and asking for actor pools is refused."""
    import inspect

    from ray.data import Dataset

    from hydra_ray.pipelines.crawl import CrawlEngine

    e = make_crawl_engine(str(tmp_path / "t"), batch_size=40)
    e.load_catalog(small_seed(60))

    pool_args = []
    map_batches = Dataset.map_batches

    def recording(self, fn, *args, **kwargs):
        if inspect.isclass(fn):
            pool_args.append(("class fn", fn.__name__))
        for k in ("fn_constructor_kwargs", "concurrency"):
            if kwargs.get(k) is not None:
                pool_args.append((k, kwargs[k]))
        return map_batches(self, fn, *args, **kwargs)

    monkeypatch.setattr(Dataset, "map_batches", recording)
    stats = e.run_iteration()
    check = e.check_resource_now(e.catalog.read_arrow()["resource_id"][-1].as_py())
    assert stats["selected"] == 40 and check["check_id"] is not None
    assert pool_args == []

    with pytest.raises(ValueError, match="actor_pools"):
        CrawlEngine(str(tmp_path / "pools"), actor_pools=True)


@pytest.mark.usefixtures("ray_session")
def test_results_identical_with_domain_partitioning(tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots):
    """Row-range slicing vs hash-partitioned + hot-salted blocks → same
    checks (partitioning is a physical layout choice, not semantics)."""
    from hydra_ray.config import config

    pin_slots(2)
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 7)
    a = make_crawl_engine(str(tmp_path / "rows"), batch_size=60)
    a.load_catalog(small_seed())
    a.run(2)
    blocks_a = crawl_blocks[:]
    crawl_blocks.clear()
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 16)
    b = make_crawl_engine(
        str(tmp_path / "parts"), batch_size=60, partition_by_domain=True
    )
    b.load_catalog(small_seed())
    b.run(2)
    assert multi_block(blocks_a) and multi_block(crawl_blocks)
    assert checks_fingerprint(a) == checks_fingerprint(b)


@pytest.mark.usefixtures("ray_session")
def test_429_domain_across_blocks_deterministic(tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots):
    """A domain with mixed 200/429 responses spanning many blocks: the
    politeness 429 cool-off must key off the MAX-check_id row (a pure
    function of url+iteration), never row position in the
    nondeterministically-ordered result table (VERDICT r2 #1).

    Two fresh runs and two parallelism levels must produce identical
    per-iteration stats (incl. backoff counts) and byte-identical
    checks."""
    from hydra_ray.functions.urls import url_md5

    hot = [f"https://hot-mixed.example/f{i:03d}.csv" for i in range(60)]
    responses = {}
    for i, u in enumerate(hot):
        if i % 2 == 0:
            responses[("head", u)] = {
                "kind": "error", "status": 429, "headers": {}, "error": "Too Many Requests",
            }
        else:
            responses[("head", u)] = {
                "kind": "ok",
                "status": 200,
                "headers": {
                    "content-type": "text/csv",
                    "content-length": "1234",
                    "last-modified": "Mon, 01 Jan 2024 00:00:00 GMT",
                },
            }
    seed = pa.table(
        {
            "dataset_id": [f"ds-{i}" for i in range(len(hot))],
            "resource_id": [url_md5(u) for u in hot],
            "url": hot,
            "format": ["csv"] * len(hot),
        }
    )

    from hydra_ray.config import config

    pin_slots(2)

    def run(sub, fetch_batch):
        monkeypatch.setattr(config, "FETCH_BATCH_SIZE", fetch_batch)
        crawl_blocks.clear()
        e = make_crawl_engine(
            str(tmp_path / sub),
            transport={"kind": "mock", "responses": responses},
            batch_size=30,
        )
        e.load_catalog(seed)
        stats = [e.run_iteration() for _ in range(2)]
        fp = checks_fingerprint(e)
        e.shutdown()
        assert multi_block(crawl_blocks)
        return stats, fp

    s1, f1 = run("c1", 7)
    s1b, f1b = run("c1b", 7)  # fresh rerun, same layout
    s4, f4 = run("c4", 16)  # other block boundaries
    assert s1 == s1b == s4
    assert f1 == f1b == f4
    # the cool-off actually engaged: iteration 1 must defer the whole
    # domain iff iteration 0's max-check_id row was a 429 — either way
    # the count is pinned identical above; assert the scenario is live
    # (some backoff happened somewhere, so the race path was exercised)
    assert any(s["backoff"] > 0 for s in s1) or s1[1]["selected"] == 0


@pytest.mark.usefixtures("ray_session")
def test_docs_span_invariant_across_runs(tmp_path, make_crawl_engine, monkeypatch, crawl_blocks, pin_slots):
    from hydra_ray.config import config
    from hydra_ray.stages.spans import span_sequences_equal

    pin_slots(2)
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 7)
    a = make_crawl_engine(str(tmp_path / "d1"), batch_size=60)
    a.load_catalog(small_seed())
    a.run(2)
    blocks_a = crawl_blocks[:]
    crawl_blocks.clear()
    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 16)
    b = make_crawl_engine(str(tmp_path / "d2"), batch_size=60)
    b.load_catalog(small_seed())
    b.run(2)
    assert multi_block(blocks_a) and multi_block(crawl_blocks)
    assert blocks_a != crawl_blocks
    da, db = a.read_documents(), b.read_documents()
    ok, bad = span_sequences_equal(da, db)
    assert ok, f"span mismatch for {bad[:5]}"
    assert da.num_rows > 0
    # merge-on-read resolution: one row per doc_id
    assert len(set(da["doc_id"].to_pylist())) == da.num_rows


@pytest.mark.usefixtures("ray_session")
def test_over_cache_frontier_dataset_path_identical(tmp_path, make_crawl_engine, table_route):
    """The Dataset side of the store's table-size rule (pipelines/crawl.py
    _frontier: distributed Dataset read + Dataset merge_insert
    checkpointing) produces byte-identical checks and catalog state to
    the driver side — pins the 10^10-frontier branch at a scaled-down
    threshold."""
    kw = dict(batch_size=30)

    e1 = make_crawl_engine(str(tmp_path / "cached"), **kw)
    e1.load_catalog(small_seed())
    e1.run(2)

    e2 = make_crawl_engine(str(tmp_path / "dataset"), **kw)
    with table_route("dataset"):
        e2.load_catalog(small_seed())
        e2.run(2)
        assert not isinstance(e2._frontier(), pa.Table)  # really on the Dataset path

    assert checks_fingerprint(e1) == checks_fingerprint(e2)
    c1 = e1.catalog.read_arrow().sort_by("resource_id")
    c2 = e2.catalog.read_arrow().sort_by("resource_id")
    assert c1.equals(c2)
