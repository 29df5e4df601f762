"""Per-domain politeness (backoff / rate-limit) state shards.

The reference derives backoff from SQL over the ``checks`` log on
every URL (udata_hydra/crawl/helpers.py:77-150): a sliding-window
count (BACKOFF_NB_REQ completed requests per BACKOFF_PERIOD seconds
per domain), a 429 cool-off of COOL_OFF_PERIOD seconds, and
x-ratelimit header inspection on the latest check. We keep identical
thresholds and decision order, but hold the state incrementally in
shards keyed by ``hash(domain) % n_shards`` — no SQL window scan per
URL, O(1) per decision, and deterministic under the injected clock
(`now` is an explicit float epoch-seconds argument everywhere).

Each shard is a ``PolitenessState`` inside a ``StateShard`` actor
(state/shard.py): one process per slot, shared with URL-seen shard *i*
when the engine starts both pools. Batched API: one actor call per
(shard, batch), never per row.
"""

from __future__ import annotations

import os
import pickle
from collections import deque

import ray

from hydra_ray.config import config


class _DomainState:
    __slots__ = ("completed", "last_status", "last_at", "rl_remaining", "rl_limit")

    def __init__(self) -> None:
        self.completed: deque[float] = deque()  # completed-request timestamps
        self.last_status: int | None = None
        self.last_at: float | None = None
        self.rl_remaining: float | None = None
        self.rl_limit: float | None = None


class PolitenessState:
    """Plain-python core (unit-testable without Ray)."""

    def __init__(
        self,
        backoff_nb_req: int | None = None,
        backoff_period: float | None = None,
        cool_off_period: float | None = None,
        no_backoff_domains: set[str] | None = None,
    ):
        self.backoff_nb_req = backoff_nb_req if backoff_nb_req is not None else config.BACKOFF_NB_REQ
        self.backoff_period = backoff_period if backoff_period is not None else config.BACKOFF_PERIOD
        self.cool_off_period = (
            cool_off_period if cool_off_period is not None else config.COOL_OFF_PERIOD
        )
        self.no_backoff = (
            no_backoff_domains if no_backoff_domains is not None else set(config.NO_BACKOFF_DOMAINS)
        )
        self.domains: dict[str, _DomainState] = {}

    def _state(self, domain: str) -> _DomainState:
        st = self.domains.get(domain)
        if st is None:
            st = self.domains[domain] = _DomainState()
        return st

    def _prune(self, st: _DomainState, now: float) -> None:
        horizon = now - self.backoff_period
        while st.completed and st.completed[0] < horizon:
            st.completed.popleft()

    def should_backoff(self, domain: str, now: float) -> tuple[bool, str]:
        """Decision order identical to the reference: window count first,
        then 429 cool-off, then x-ratelimit inspection of latest check."""
        if domain in self.no_backoff:
            return False, ""
        st = self.domains.get(domain)
        if st is None:
            return False, ""
        self._prune(st, now)
        if len(st.completed) >= self.backoff_nb_req:
            return True, f"Too many requests: {len(st.completed)}"
        if st.last_at is not None and st.last_at >= now - self.cool_off_period:
            if st.last_status == 429:
                return True, "429 status code has been returned on the latest call"
            if st.rl_remaining is not None and st.rl_limit is not None:
                remain, limit = st.rl_remaining, st.rl_limit
                if limit == -1:
                    return False, ""
                if remain == 0 or limit == 0:
                    return True, "X-ratelimit reached"
                if remain / limit <= 0.1 and st.last_at > now - self.backoff_period:
                    return True, "X-ratelimit reached"
        return False, ""

    def reserve(self, domain: str, requested: int, now: float) -> int:
        """Deterministic per-iteration quota: how many of ``requested``
        URLs on ``domain`` may be fetched this iteration.

        The reference evaluates the window count per URL as checks
        complete (timing-dependent); our contract evaluates it once per
        iteration against the virtual clock, capping the iteration's
        admissions at ``BACKOFF_NB_REQ - window_count`` so the budget
        can never be exceeded regardless of execution order. Rows beyond
        the quota get status BACKOFF and return in a later iteration,
        exactly like the reference's per-URL backoff path.
        """
        should, _ = self.should_backoff(domain, now)
        if should:
            return 0
        if domain in self.no_backoff:
            return requested
        st = self._state(domain)
        self._prune(st, now)
        return max(0, min(requested, self.backoff_nb_req - len(st.completed)))

    def record_agg(
        self,
        domain: str,
        n_completed: int,
        now: float,
        last_status: int | None = None,
        ratelimit_remaining: str | float | None = None,
        ratelimit_limit: str | float | None = None,
    ) -> None:
        """Record ``n_completed`` completed checks at ``now`` plus the
        latest check's status/ratelimit headers (the reference counts
        rows inserted into ``checks``; one call per domain per batch)."""
        st = self._state(domain)
        st.completed.extend([now] * n_completed)
        st.last_at = now
        st.last_status = last_status
        try:
            st.rl_remaining = float(ratelimit_remaining)  # type: ignore[arg-type]
            st.rl_limit = float(ratelimit_limit)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            st.rl_remaining = None
            st.rl_limit = None

    # -- checkpointing ----------------------------------------------------
    def serialize(self) -> dict:
        return {
            d: (list(st.completed), st.last_status, st.last_at, st.rl_remaining, st.rl_limit)
            for d, st in self.domains.items()
        }

    def restore(self, blob: dict) -> None:
        self.domains = {}
        for d, (completed, last_status, last_at, rl_rem, rl_lim) in blob.items():
            st = self._state(d)
            st.completed = deque(completed)
            st.last_status = last_status
            st.last_at = last_at
            st.rl_remaining = rl_rem
            st.rl_limit = rl_lim


def _domain_shard(domain: str, n: int) -> int:
    """Stable shard routing (python hash() is salted per process)."""
    import zlib

    return zlib.crc32(domain.encode("utf-8", "surrogateescape")) % n


class PolitenessPool:
    """Driver/stage facade: batched scatter-gather over shards.

    Per-domain budget stays global no matter how the frontier is salted
    or partitioned, because every partition consults the same shard for
    a given domain.
    """

    part = "politeness"  # the hosts' part name and the checkpoint file prefix

    def __init__(self, shards: list):
        self.shards = shards  # StateShard handles
        self.n = len(shards)

    @classmethod
    def create(cls, n_shards: int = 4, **kwargs) -> "PolitenessPool":
        from hydra_ray.state.shard import start_hosts

        return cls(start_hosts(n_shards, **kwargs))

    def reserve(self, requests: list[tuple[str, int]], now: float) -> dict[str, int]:
        """(domain, requested) → allowed count per domain, this iteration."""
        by_shard: dict[int, list[tuple[str, int]]] = {}
        for req in requests:
            by_shard.setdefault(_domain_shard(req[0], self.n), []).append(req)
        refs = {
            s: self.shards[s].reserve_batch.remote(reqs, now) for s, reqs in by_shard.items()
        }
        out: dict[str, int] = {}
        for s, reqs in by_shard.items():
            for (domain, _), allowed in zip(reqs, ray.get(refs[s])):
                out[domain] = allowed
        return out

    def record_agg(self, records: list[tuple], now: float) -> None:
        """records: (domain, n_completed, last_status, rl_remaining, rl_limit)."""
        by_shard: dict[int, list[tuple]] = {}
        for rec in records:
            by_shard.setdefault(_domain_shard(rec[0], self.n), []).append(rec)
        ray.get(
            [self.shards[s].record_agg_batch.remote(recs, now) for s, recs in by_shard.items()]
        )

    def serialize(self) -> list[dict]:
        return ray.get([s.serialize.remote(self.part) for s in self.shards])

    def restore(self, blobs: list[dict]) -> None:
        if len(blobs) != self.n:
            # shard-count change between checkpoint and restore: merge
            # and re-route by the stable domain hash
            merged: dict = {}
            for b in blobs:
                merged.update(b)
            parts: list[dict] = [{} for _ in range(self.n)]
            for d, v in merged.items():
                parts[_domain_shard(d, self.n)][d] = v
            blobs = parts
        ray.get([s.restore.remote(self.part, b) for s, b in zip(self.shards, blobs)])

    # -- sharded checkpointing (per-partition state files) -----------------
    def shard_files(self, dirpath: str) -> list[str]:
        return [os.path.join(dirpath, f"{self.part}-{i:03d}.pkl") for i in range(self.n)]

    def save_shards(self, dirpath: str) -> list:
        """One state file per shard, written by the shard's host itself —
        O(1) driver memory and N parallel writes instead of a single
        driver-side pickle of every domain window. Returns refs."""
        from hydra_ray.state.shard import save_slots

        return save_slots([self], dirpath)

    def load_shards(self, paths: list[str]) -> None:
        if len(paths) == self.n:
            ray.get([s.load.remote(self.part, p) for s, p in zip(self.shards, paths)])
            return
        # re-shard on the driver (rare: config change between runs)
        blobs = []
        for p in paths:
            with open(p, "rb") as f:
                blobs.append(pickle.load(f))
        self.restore(blobs)
