"""Hash-partitioned catalog checkpoints: merge_insert rewrites only the
partitions an iteration touches, and results are byte-identical to the
single-file layout."""

import os

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.sources.store import VersionedTable
from hydra_ray.synth import catalog_from_documents

from .test_resume import checks_fingerprint, small_seed


def test_versioned_table_partitioned_upsert(tmp_path, hash_layout):
    hash_layout(8)
    t = VersionedTable(str(tmp_path / "t"), partition_key="k")
    base = pa.table({"k": [f"k{i}" for i in range(200)], "v": list(range(200))})
    t.overwrite(base)
    v1_files = set(t.files())
    assert len(v1_files) == 8 and all("part-p" in f for f in v1_files)

    # touch a handful of keys → only their partitions rewrite
    upd = pa.table({"k": ["k3", "k7"], "v": [333, 777]})
    t.merge_insert(upd, key="k")
    v2_files = set(t.files())
    rewritten = v2_files - v1_files
    carried = v2_files & v1_files
    assert 1 <= len(rewritten) <= 2  # at most one file per touched partition
    assert len(carried) == 8 - len(rewritten)

    got = t.read_arrow().to_pandas().set_index("k")["v"]
    assert got.loc["k3"] == 333 and got.loc["k7"] == 777
    assert len(got) == 200 and got.loc["k5"] == 5

    # new keys insert into their partitions
    t.merge_insert(pa.table({"k": ["new1"], "v": [1]}), key="k")
    assert t.count() == 201


def test_versioned_table_below_threshold_single_file(tmp_path, hash_layout):
    hash_layout(8, min_rows=10_000)
    t = VersionedTable(str(tmp_path / "t"), partition_key="k")
    t.overwrite(pa.table({"k": ["a", "b"], "v": [1, 2]}))
    assert len(t.files()) == 1  # small tables stay compact


@pytest.mark.usefixtures("ray_session")
def test_crawl_partitioned_catalog_identical_and_incremental(
    tmp_path, make_crawl_engine, hash_layout
):
    # a 6-row batch touches at most 6 of the 16 partitions, so every
    # checkpoint rewrites only some of them
    kw = dict(batch_size=6)
    a = make_crawl_engine(str(tmp_path / "single"), **kw)
    a.load_catalog(small_seed())
    a.run(3)
    assert len(a.catalog.files()) == 1
    hash_layout(16)
    b = make_crawl_engine(str(tmp_path / "parts"), **kw)
    b.load_catalog(small_seed())
    b.run(3)

    assert checks_fingerprint(a) == checks_fingerprint(b)
    ca = a.catalog.read_arrow().sort_by("resource_id")
    cb = b.catalog.read_arrow().sort_by("resource_id")
    assert ca.cast(cb.schema).equals(cb)

    # incremental: each post-load version rewrites < n_parts files
    versions = sorted(
        int(f[1:].split(".")[0])
        for f in os.listdir(b.catalog.versions_dir)
        if f.endswith(".json")
    )
    prev_files: set = set()
    incremental_seen = False
    for v in versions:
        files = set(b.catalog.files(version=v))
        new = files - prev_files
        if prev_files and files != prev_files:
            assert len(new) < 16, f"version {v} rewrote {len(new)} files"
            if 0 < len(new) < 16 and len(files & prev_files) > 0:
                incremental_seen = True
        prev_files = files
    assert incremental_seen  # at least one genuinely partial rewrite


@pytest.mark.usefixtures("ray_session")
def test_partitioned_catalog_resume(tmp_path, make_crawl_engine, hash_layout):
    """Kill+resume works identically on the partitioned layout."""
    hash_layout(8)
    kw = dict(batch_size=12)
    wd = str(tmp_path / "resume")
    e1 = make_crawl_engine(wd, **kw)
    e1.load_catalog(small_seed())
    e1.run(2)
    e1.shutdown()
    e2 = make_crawl_engine(wd, **kw)
    assert e2.iteration == 2
    e2.run(1)
    straight = make_crawl_engine(str(tmp_path / "straight"), **kw)
    straight.load_catalog(small_seed())
    straight.run(3)
    assert checks_fingerprint(e2) == checks_fingerprint(straight)
