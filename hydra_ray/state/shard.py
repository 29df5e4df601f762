"""One actor process per state slot: URL-seen shard *i* and politeness
shard *i* live in the same ``StateShard`` actor.

Every actor is a cold Ray worker process (about 50 MB, and Ray starts
only about as many at once as the node has CPUs), so an engine with
``u`` URL-seen and ``p`` politeness shards starts ``max(u, p)``
processes, not ``u + p``. Each pool keeps its own routing (``key % u``,
``crc32(domain) % p``) and its own checkpoint files; the engine hands
both pools a prefix of one host list, so slot *i* of both is one
handle. A pool built on its own gets hosts of its own.
"""

from __future__ import annotations

import os
import pickle

import ray

from hydra_ray.state.politeness import PolitenessState
from hydra_ray.state.urlseen import UrlSeenShard


def _atomic_pickle(path: str, blob) -> str:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        pickle.dump(blob, f)
    os.replace(tmp, path)
    return path


# num_cpus=0: hosts are lightweight lookup servers that must never
# starve the crawl stages of CPU slots; on a real cluster give them
# fractional CPUs via .options(num_cpus=...) at creation.
@ray.remote(num_cpus=0)
class StateShard:
    """URL-seen shard and politeness shard of one slot. Checkpoint
    methods take the part's name: ``"urlseen"`` or ``"politeness"``."""

    def __init__(self, **politeness_kwargs):
        self.urlseen = UrlSeenShard()
        self.politeness = PolitenessState(**politeness_kwargs)

    # -- URL-seen ---------------------------------------------------------
    def add_if_new(self, keys):
        return self.urlseen.add_if_new(keys)

    def contains(self, keys):
        return self.urlseen.contains(keys)

    def stats(self) -> dict:
        return self.urlseen.stats()

    # -- politeness: one call per (shard, batch), never per row -----------
    def reserve_batch(self, requests: list[tuple[str, int]], now: float) -> list[int]:
        return [self.politeness.reserve(d, n, now) for d, n in requests]

    def record_agg_batch(self, records: list[tuple], now: float) -> None:
        """records: (domain, n_completed, last_status, rl_remaining, rl_limit)."""
        for domain, n, status, rl_rem, rl_lim in records:
            self.politeness.record_agg(domain, n, now, status, rl_rem, rl_lim)

    # -- checkpointing ----------------------------------------------------
    def serialize(self, part: str) -> dict:
        return getattr(self, part).serialize()

    def restore(self, part: str, blob: dict) -> None:
        getattr(self, part).restore(blob)

    def save(self, paths: dict[str, str]) -> list[str]:
        """Write each part named in ``paths`` to its file atomically
        (actor-side: state bytes never pass through the driver; on a
        multi-node cluster the workdir is shared storage, same
        assumption as the per-block parquet sinks)."""
        return [_atomic_pickle(path, getattr(self, part).serialize()) for part, path in paths.items()]

    def load(self, part: str, path: str) -> None:
        with open(path, "rb") as f:
            getattr(self, part).restore(pickle.load(f))


def start_hosts(n: int, **politeness_kwargs) -> list:
    return [StateShard.remote(**politeness_kwargs) for _ in range(n)]


def save_slots(pools: list, dirpath: str) -> list:
    """Write every pool's shard files under ``dirpath`` with one actor
    call per host: a host that serves slot *i* of several pools writes
    all of its files at once. Returns refs."""
    by_host: dict = {}
    for pool in pools:
        for host, path in zip(pool.shards, pool.shard_files(dirpath)):
            by_host.setdefault(host, {})[pool.part] = path
    return [host.save.remote(paths) for host, paths in by_host.items()]
