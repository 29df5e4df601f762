"""The crawl iteration's blocks run side by side (``store.blocks_dataset``)
and still commit the same tables, in block order."""

import hashlib
import time

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.synth import catalog_from_documents


def seed(n=120):
    docs = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64())})
    return catalog_from_documents(docs)


def column_digests(t: pa.Table) -> dict[str, str]:
    """sha256 per column over the column's IPC bytes (row order counts)."""
    out = {}
    for name in t.column_names:
        one = pa.table({name: t[name].combine_chunks()})
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, one.schema) as w:
            w.write_table(one)
        out[name] = hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()
    return out


@pytest.mark.usefixtures("ray_session")
def test_blocks_dataset_runs_blocks_concurrently():
    """Four 1 s blocks are all in flight at once. A 1 GiB
    ``target_max_block_size`` gives the 4-CPU test cluster the budget
    ratio of a 512 MiB, 2-CPU one: with Ray Data's per-operator
    reservation on, the blocks would run in waves. A first, unchecked
    run starts the worker processes: Ray reaps idle task workers while
    other tests' actors hold processes, and a cold start takes over 1 s."""
    import ray.data as rd

    from hydra_ray.sources.store import blocks_dataset

    def run(seconds: float):
        def slow(batch: pa.Table) -> pa.Table:
            t0 = time.time()
            time.sleep(seconds)
            n = batch.num_rows
            return pa.table({"i": batch["i"], "start": [t0] * n, "end": [time.time()] * n})

        ds = blocks_dataset([pa.table({"i": [k]}) for k in range(4)])
        return ds.map_batches(slow, batch_format="pyarrow", batch_size=None).to_pandas()

    ctx = rd.DataContext.get_current()
    saved = ctx.target_max_block_size
    ctx.target_max_block_size = 1 << 30
    try:
        run(0.5)
        out = run(1.0)
    finally:
        ctx.target_max_block_size = saved
    assert out["i"].tolist() == [0, 1, 2, 3]
    assert out["start"].max() < out["end"].min()


@pytest.mark.usefixtures("ray_session")
def test_blocks_dataset_starts_no_task(monkeypatch):
    """Building an iteration's Dataset starts no Ray task: block
    metadata and schema come from the driver-held tables, not from a
    remote metadata task per block (``rd.from_arrow``)."""
    import ray.data.read_api as read_api

    from hydra_ray.sources.store import blocks_dataset

    def no_task(*args, **kwargs):
        raise AssertionError("building the Dataset started a Ray task")

    monkeypatch.setattr(read_api, "get_table_block_metadata_schema", no_task)
    monkeypatch.setattr(read_api, "cached_remote_fn", no_task)
    tables = [pa.table({"i": list(range(k, k + 3)), "s": ["a", "b", "c"]}) for k in (0, 3, 6)]
    ds = blocks_dataset(tables)
    one = blocks_dataset(tables[0])
    assert ds.num_blocks() == 3 and ds.count() == 9 and ds.schema().names == ["i", "s"]
    assert one.num_blocks() == 1 and one.count() == 3
    assert not ds.context.op_resource_reservation_enabled and ds.context.execution_options.preserve_order


@pytest.mark.usefixtures("ray_session")
def test_concurrent_blocks_commit_identical_tables(tmp_path, make_crawl_engine, monkeypatch):
    """Two fresh engines crawl the same catalog for 3 iterations of at
    least 4 blocks each, with block 0 made the slowest: every column of
    the catalog, checks, documents and payloads tables is identical
    between them, the catalog's fetched rows follow block order, and
    the process-global DataContext flags are untouched."""
    import ray.data as rd

    from hydra_ray.config import config
    from hydra_ray.pipelines import crawl

    monkeypatch.setattr(config, "FETCH_BATCH_SIZE", 8)
    blocks: list[list[str]] = []
    make_blocks = crawl.blocks_dataset

    def spy(tables):
        if isinstance(tables, list):
            blocks.append([t["resource_id"].to_pylist() for t in tables])
        return make_blocks(tables)

    monkeypatch.setattr(crawl, "blocks_dataset", spy)
    stages = crawl.CrawlEngine._stages

    def slow_first_block(self, *args, **kwargs):
        fetch, *rest = stages(self, *args, **kwargs).stages
        first = frozenset(blocks[-1][0])

        def fetch_slow_on_first(batch: pa.Table) -> pa.Table:
            if batch["resource_id"][0].as_py() in first:
                time.sleep(0.3)
            return fetch(batch)

        return crawl.StageChain(fetch_slow_on_first, *rest)

    monkeypatch.setattr(crawl.CrawlEngine, "_stages", slow_first_block)

    ctx = rd.DataContext.get_current()
    flags = (ctx.op_resource_reservation_enabled, ctx.execution_options.preserve_order)
    digests = []
    for sub in ("a", "b"):
        e = make_crawl_engine(
            str(tmp_path / sub), batch_size=40, politeness_kwargs={"backoff_nb_req": 10**9}
        )
        e.load_catalog(seed())
        for _ in range(3):
            n_before = len(blocks)
            e.run_iteration()
            assert len(blocks) == n_before + 1 and len(blocks[-1]) >= 4
            fetched = [rid for block in blocks[-1] for rid in block]
            catalog = e.catalog.read_arrow()
            assert catalog["resource_id"].to_pylist()[-len(fetched):] == fetched
        digests.append(
            {
                "catalog": column_digests(e.catalog.read_arrow()),
                "checks": column_digests(e.checks.read_arrow()),
                "documents": column_digests(e.read_documents()),
                "payloads": column_digests(e.payloads.read_arrow()),
            }
        )
    assert digests[0] == digests[1]
    assert (ctx.op_resource_reservation_enabled, ctx.execution_options.preserve_order) == flags
