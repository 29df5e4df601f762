"""Per-shard crawl-state checkpoints.

The round-1 format pickled every politeness window + URL-seen key set
into ONE driver-side file per iteration — a driver-memory and
single-writer bottleneck at 10^9-domain scale. The sharded format
writes one file per state shard, by the shard actor itself, with a
meta.json commit marker written last (write-then-commit, same pattern
as the table manifests). These tests pin: layout, restore parity,
shard-count re-routing, GC, and URL-seen shard blobs in the older
layout that also carried a cuckoo filter table.
"""

import json
import os
import pickle

import numpy as np
import pyarrow as pa
import pytest

from hydra_ray.state.politeness import PolitenessPool
from hydra_ray.state.urlseen import UrlSeenPool

from .test_resume import checks_fingerprint, small_seed


@pytest.mark.usefixtures("ray_session")
def test_state_dir_layout(tmp_path, make_crawl_engine):
    e = make_crawl_engine(str(tmp_path / "wd"), batch_size=30)
    e.load_catalog(small_seed())
    e.run(1)
    d = e._state_dir(1)
    assert os.path.isdir(d)
    names = sorted(os.listdir(d))
    n_pol, n_seen = e.politeness.n, e.urlseen.n
    assert names == sorted(
        [f"politeness-{i:03d}.pkl" for i in range(n_pol)]
        + [f"urlseen-{i:03d}.pkl" for i in range(n_seen)]
        + ["meta.json"]
    )
    meta = json.load(open(os.path.join(d, "meta.json")))
    assert meta == {"iteration": 1, "politeness_shards": n_pol, "urlseen_shards": n_seen}
    e.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_resume_with_different_shard_counts(tmp_path, make_crawl_engine):
    """Checkpoint with K shards, resume with K' ≠ K: state is re-routed
    by the stable hash and the crawl continues identically (politeness
    dict re-scatter; URL-seen exact-key re-insert). Each (URL-seen,
    politeness) pair shares state hosts, so the counts also cross over
    which pool has the extra hosts."""
    kw = dict(batch_size=30)
    straight = make_crawl_engine(
        str(tmp_path / "s"), politeness_shards=2, urlseen_shards=3, **kw
    )
    straight.load_catalog(small_seed())
    straight.run(4)
    want = checks_fingerprint(straight)
    straight.shutdown()

    # (urlseen, politeness) shards at checkpoint → at resume
    for case, (before, after) in enumerate([((3, 2), (2, 5)), ((3, 1), (1, 3))]):
        wd = str(tmp_path / f"r{case}")
        a = make_crawl_engine(wd, urlseen_shards=before[0], politeness_shards=before[1], **kw)
        a.load_catalog(small_seed())
        a.run(2)
        a.shutdown()
        b = make_crawl_engine(wd, urlseen_shards=after[0], politeness_shards=after[1], **kw)
        assert b.iteration == 2
        b.run(2)
        assert checks_fingerprint(b) == want, (before, after)
        b.shutdown()


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_seen,n_pol", [(3, 2), (1, 3)])
def test_engine_shares_state_hosts_across_pools(tmp_path, make_crawl_engine, n_seen, n_pol):
    """An engine with u URL-seen and p politeness shards runs max(u, p)
    state actors, and slot i of both pools is the same actor."""
    e = make_crawl_engine(str(tmp_path / "wd"), urlseen_shards=n_seen, politeness_shards=n_pol)
    assert (e.urlseen.n, e.politeness.n) == (n_seen, n_pol)
    ids = [s._actor_id.hex() for s in e.urlseen.shards + e.politeness.shards]
    assert len(set(ids)) == max(n_seen, n_pol)
    for a, b in zip(e.urlseen.shards, e.politeness.shards):
        assert a._actor_id == b._actor_id
    e.shutdown()


@pytest.mark.usefixtures("ray_session")
def test_pool_level_save_load_roundtrip(tmp_path):
    pol = PolitenessPool.create(n_shards=3)
    pol.record_agg([("a.example", 5, 200, None, None), ("b.example", 2, 429, "0", "10")], now=100.0)
    seen = UrlSeenPool.create(n_shards=2)
    keys = np.arange(50, dtype=np.int64) * 7919
    assert all(seen.add_if_new(keys))

    d = str(tmp_path / "st")
    os.makedirs(d)
    import ray

    ray.get(pol.save_shards(d) + seen.save_shards(d))
    assert sorted(os.listdir(d)) == sorted(
        [f"politeness-{i:03d}.pkl" for i in range(3)]
        + [f"urlseen-{i:03d}.pkl" for i in range(2)]
    )

    pol2 = PolitenessPool.create(n_shards=3)
    pol2.load_shards([os.path.join(d, f"politeness-{i:03d}.pkl") for i in range(3)])
    assert pol2.reserve([("b.example", 1)], now=101.0) == {"b.example": 0}  # 429 cool-off
    assert pol2.reserve([("c.example", 1)], now=101.0) == {"c.example": 1}

    # mismatched count → driver re-route, same membership
    seen2 = UrlSeenPool.create(n_shards=5)
    seen2.load_shards([os.path.join(d, f"urlseen-{i:03d}.pkl") for i in range(2)])
    assert not any(seen2.add_if_new(keys))
    assert all(seen2.add_if_new(keys + 1))
    for actor in pol.shards + pol2.shards + seen.shards + seen2.shards:
        ray.kill(actor)


@pytest.mark.usefixtures("ray_session")
def test_gc_prunes_old_state_dirs(tmp_path, make_crawl_engine):
    e = make_crawl_engine(str(tmp_path / "wd"), batch_size=30)
    e.load_catalog(small_seed())
    e.run(5)
    state_root = os.path.join(e.workdir, "state")
    assert len(os.listdir(state_root)) >= 5
    e.gc(keep_state=2)
    kept = sorted(os.listdir(state_root))
    assert kept == ["iter000004", "iter000005"]
    # resume still works off the kept checkpoints
    e.shutdown()
    e2 = make_crawl_engine(str(tmp_path / "wd"), batch_size=30)
    assert e2.iteration == 5
    e2.run(1)
    e2.shutdown()


def _cuckoo_layout_blobs(keys: np.ndarray, n: int) -> list[dict]:
    """URL-seen shard blobs as written while each shard also kept a
    cuckoo filter: the filter's bytes next to the sorted exact keys."""
    route = keys.view(np.uint64) % np.uint64(n)
    return [
        {
            "filter": b"\x07" * 4096,
            "exact": np.array(sorted(keys[route == s].tolist()), dtype=np.int64).tobytes(),
        }
        for s in range(n)
    ]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_restore", [3, 5])
def test_cuckoo_layout_shard_files_restore(tmp_path, n_restore):
    """Per-shard files in the filter-carrying layout load with the same
    membership, at the same shard count (load_shards) and at another one
    (_restore_rerouted)."""
    import ray

    rng = np.random.default_rng(5)
    keys = np.unique(rng.integers(-(2**63), 2**63 - 1, 400, dtype=np.int64, endpoint=True))
    others = np.setdiff1d(rng.integers(-(2**63), 2**63 - 1, 400, dtype=np.int64), keys)
    paths = []
    for i, blob in enumerate(_cuckoo_layout_blobs(keys, 3)):
        paths.append(str(tmp_path / f"urlseen-{i:03d}.pkl"))
        with open(paths[-1], "wb") as f:
            pickle.dump(blob, f)

    seen = UrlSeenPool.create(n_shards=n_restore)
    seen.load_shards(paths)
    assert seen.contains(keys).all()
    assert not seen.contains(others).any()
    assert sum(s["count"] for s in seen.stats()) == len(keys)
    assert not seen.add_if_new(keys).any()
    for actor in seen.shards:
        ray.kill(actor)


@pytest.mark.usefixtures("ray_session")
def test_cuckoo_layout_checkpoint_dir_restores(tmp_path, make_crawl_engine):
    """A committed state dir whose URL-seen shard files carry the filter
    restores the same membership the engine had when it wrote it."""
    wd = str(tmp_path / "wd")
    e = make_crawl_engine(wd, batch_size=30)
    e.load_catalog(small_seed())
    e.run(2)
    keys = np.concatenate(
        [np.frombuffer(b["exact"], dtype=np.int64) for b in e.urlseen.serialize()]
    )
    for path, blob in zip(
        e.urlseen.shard_files(e._state_dir(e.iteration)),
        _cuckoo_layout_blobs(keys, e.urlseen.n),
    ):
        with open(path, "wb") as f:
            pickle.dump(blob, f)
    e.shutdown()

    e2 = make_crawl_engine(wd, batch_size=30)
    assert e2.iteration == 2
    assert len(keys) > 0 and e2.urlseen.contains(keys).all()
    assert sum(s["count"] for s in e2.urlseen.stats()) == len(keys)
    assert not e2.urlseen.contains(np.setdiff1d(keys + 1, keys)).any()
