"""Sharded URL-seen set: one exact, sorted key array per shard.

The reference enforces URL/resource uniqueness with a Postgres UNIQUE
constraint + ``ON CONFLICT`` upserts (udata_hydra/db/resource.py:64-79,
cli/catalog.py:62-76). At 10^10-frontier scale a central unique index
is the bottleneck, so membership is sharded: the 64-bit url key
(``url_key``, from the canonicalize stage) → shard
``key % n_shards`` → one ``UrlSeenShard`` holding every key routed to
it as a sorted, unique int64 array. Membership is exact (no
false positives to resolve against the catalog) at 8 B/key, and a
batch merges in with ``searchsorted`` + ``insert`` in O(n + m).

Usage from a pipeline: ``UrlSeenPool.create(n_shards)`` on the driver,
then ``pool.add_if_new(keys)`` — the pool groups keys by shard, issues
one batched actor call per shard, and reassembles the boolean mask in
input order. Calls are batched per Dataset block, never per row.

Each shard lives in a ``StateShard`` actor (state/shard.py): one
process per slot, shared with politeness shard *i* when the engine
starts both pools.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import ray


class UrlSeenShard:
    """One shard of the URL-seen set (plain Python; a ``StateShard``
    actor hosts it)."""

    def __init__(self):
        self.keys = np.empty(0, dtype=np.int64)  # sorted, unique

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Insertion positions of ``keys`` and whether each is present."""
        pos = np.searchsorted(self.keys, keys)
        hit = pos < len(self.keys)
        hit[hit] = self.keys[pos[hit]] == keys[hit]
        return pos, hit

    def add_if_new(self, keys: np.ndarray) -> np.ndarray:
        """Returns mask: True where the key was NOT seen before (and is
        now marked seen). Duplicates inside the same call are deduped
        first-wins, matching ON CONFLICT upsert semantics."""
        keys = np.asarray(keys, dtype=np.int64)
        uniq, first = np.unique(keys, return_index=True)
        pos, seen = self._find(uniq)
        is_new = np.zeros(len(keys), dtype=bool)
        is_new[first[~seen]] = True
        self.keys = np.insert(self.keys, pos[~seen], uniq[~seen])
        return is_new

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self._find(np.asarray(keys, dtype=np.int64))[1]

    def stats(self) -> dict:
        return {"count": len(self.keys)}

    # -- checkpointing ----------------------------------------------------
    def serialize(self) -> dict:
        return {"exact": self.keys.tobytes()}

    def restore(self, blob: dict) -> None:
        # checkpoints written with a cuckoo filter carry an extra
        # "filter" entry; their "exact" entry is the same sorted array
        self.keys = np.frombuffer(blob["exact"], dtype=np.int64)


class UrlSeenPool:
    """Driver-side facade over the shard hosts (``StateShard`` handles)."""

    part = "urlseen"  # the hosts' part name and the checkpoint file prefix

    def __init__(self, shards: list):
        self.shards = shards
        self.n = len(shards)

    @classmethod
    def create(cls, n_shards: int) -> "UrlSeenPool":
        from hydra_ray.state.shard import start_hosts

        return cls(start_hosts(n_shards))

    def _route(self, keys: np.ndarray) -> np.ndarray:
        return (keys.view(np.uint64) % np.uint64(self.n)).astype(np.int64)

    def _scatter_gather(self, keys: np.ndarray, method: str) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.int64)
        shard_of = self._route(keys)
        refs, idxs = [], []
        for s in range(self.n):
            sel = np.nonzero(shard_of == s)[0]
            if len(sel):
                refs.append(getattr(self.shards[s], method).remote(keys[sel]))
                idxs.append(sel)
        out = np.zeros(len(keys), dtype=bool)
        for sel, res in zip(idxs, ray.get(refs)):
            out[sel] = res
        return out

    def add_if_new(self, keys: np.ndarray) -> np.ndarray:
        return self._scatter_gather(keys, "add_if_new")

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self._scatter_gather(keys, "contains")

    def serialize(self) -> list[dict]:
        return ray.get([s.serialize.remote(self.part) for s in self.shards])

    def restore(self, blobs: list[dict]) -> None:
        if len(blobs) != self.n:
            self._restore_rerouted(blobs)
            return
        ray.get([s.restore.remote(self.part, b) for s, b in zip(self.shards, blobs)])

    def _restore_rerouted(self, blobs: list[dict]) -> None:
        """Shard count changed between checkpoint and restore: merge the
        shards' key arrays and re-insert them through the normal routing."""
        arrs = [np.frombuffer(b["exact"], dtype=np.int64) for b in blobs]
        if arrs:
            self.add_if_new(np.concatenate(arrs))

    # -- sharded checkpointing (per-partition state files) -----------------
    def shard_files(self, dirpath: str) -> list[str]:
        return [os.path.join(dirpath, f"{self.part}-{i:03d}.pkl") for i in range(self.n)]

    def save_shards(self, dirpath: str) -> list:
        """One file per shard, written actor-side in parallel. Returns refs."""
        from hydra_ray.state.shard import save_slots

        return save_slots([self], dirpath)

    def load_shards(self, paths: list[str]) -> None:
        if len(paths) == self.n:
            ray.get([s.load.remote(self.part, p) for s, p in zip(self.shards, paths)])
            return
        blobs = []
        for p in paths:
            with open(p, "rb") as f:
                blobs.append(pickle.load(f))
        self._restore_rerouted(blobs)

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])
