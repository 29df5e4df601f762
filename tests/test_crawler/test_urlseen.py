"""URL-seen set: the sharded pool's exact-membership guarantee, checked
against a pure-Python reference (a ``set``, first-wins within a call)."""

import pickle

import numpy as np
import pytest
import ray
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.state.urlseen import UrlSeenPool, UrlSeenShard


@pytest.mark.usefixtures("ray_session")
def test_urlseen_pool_exactness():
    from hydra_ray.state.urlseen import UrlSeenPool

    pool = UrlSeenPool.create(n_shards=2)
    keys = np.arange(500, dtype=np.int64) * 1234567
    first = pool.add_if_new(keys)
    assert first.all()
    again = pool.add_if_new(keys)
    assert not again.any()
    # intra-batch duplicates: first occurrence wins
    dup = np.array([10**6, 10**6, 10**6 + 1], dtype=np.int64)
    got = pool.add_if_new(dup)
    assert got.tolist() == [True, False, True]
    assert pool.contains(keys).all()
    # checkpoint roundtrip
    blobs = pool.serialize()
    pool2 = UrlSeenPool.create(n_shards=2)
    pool2.restore(blobs)
    assert not pool2.add_if_new(keys[:10]).any()


@pytest.mark.usefixtures("ray_session")
def test_urlseen_exact_mode_survives_filter_refusals():
    """Thousands of keys in one shard: every key stays a member, so a
    second add_if_new never re-admits a seen URL."""
    from hydra_ray.state.urlseen import UrlSeenPool

    pool = UrlSeenPool.create(n_shards=1)
    keys = np.arange(2000, dtype=np.int64) * 1234567
    first = pool.add_if_new(keys)
    assert first.all()
    again = pool.add_if_new(keys)
    assert not again.any(), "filter refusal re-admitted a seen URL"
    assert pool.contains(keys).all()


# ---------------------------------------------------------------------------
# property-based: add_if_new / serialize→restore / contains vs a set model
# ---------------------------------------------------------------------------

_LO, _HI = -(2**63), 2**63 - 1
# int64 extremes, small keys around zero (neighbours differ only in their
# shard route) and arbitrary keys
_KEY = st.one_of(
    st.integers(_LO, _LO + 4),
    st.integers(_HI - 4, _HI),
    st.integers(-6, 6),
    st.integers(_LO, _HI),
)
_BATCHES = st.lists(st.lists(_KEY, max_size=30), min_size=1, max_size=5)


def _reference(batches, probe):
    """Loop model: add_if_new masks per call, then membership of ``probe``."""
    seen: set[int] = set()
    masks = []
    for batch in batches:
        mask = []
        for k in batch:
            mask.append(k not in seen)
            seen.add(k)
        masks.append(mask)
    return masks, [k in seen for k in probe]


def _drive(target, fresh, batches, restore_at, probe):
    """Run ``batches`` through ``target.add_if_new``, moving the state
    into ``fresh()`` by serialize→pickle→restore before batch
    ``restore_at``; returns the masks, probe membership and last target.
    Shards and pools share this interface."""
    masks = []
    for i, batch in enumerate(batches):
        if i == restore_at:
            blob = pickle.loads(pickle.dumps(target.serialize()))
            target = fresh()
            target.restore(blob)
        masks.append(target.add_if_new(np.array(batch, dtype=np.int64)).tolist())
    return (masks, target.contains(np.array(probe, dtype=np.int64)).tolist()), target


@settings(max_examples=200, deadline=None)
@given(batches=_BATCHES, restore_at=st.integers(0, 5), extra=st.lists(_KEY, max_size=10))
def test_shard_matches_set_reference(batches, restore_at, extra):
    probe = [k for b in batches for k in b] + extra
    got, shard = _drive(UrlSeenShard(), UrlSeenShard, batches, restore_at, probe)
    assert got == _reference(batches, probe)
    assert shard.keys.dtype == np.int64 and (shard.keys[1:] > shard.keys[:-1]).all()


@pytest.fixture(scope="module")
def pool_pairs(ray_session):
    """Two pools per shard count (1 and 3); a round-trip moves the state
    from one to the other."""
    pairs = {n: (UrlSeenPool.create(n), UrlSeenPool.create(n)) for n in (1, 3)}
    yield pairs
    for a, b in pairs.values():
        for actor in a.shards + b.shards:
            ray.kill(actor)


@pytest.mark.parametrize("n_shards", [1, 3])
@settings(max_examples=25, deadline=None)
@given(batches=_BATCHES, restore_at=st.integers(0, 5), extra=st.lists(_KEY, max_size=10))
def test_pool_matches_set_reference(pool_pairs, n_shards, batches, restore_at, extra):
    first, second = pool_pairs[n_shards]
    for p in (first, second):
        p.restore([{"exact": b""}] * n_shards)
    probe = [k for b in batches for k in b] + extra
    got, _ = _drive(first, lambda: second, batches, restore_at, probe)
    assert got == _reference(batches, probe)
