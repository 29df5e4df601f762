"""Frontier: tiered batch selection with a seeded ordering contract.

Reference semantics (udata_hydra/crawl/select_batch.py:34-91): pick up
to BATCH_SIZE eligible rows in three tiers —
  1. priority = True
  2. last_check IS NULL (never checked) and not priority
  3. next_check_at <= now OR NULL (outdated) and not priority
each tier ``ORDER BY random()``. Eligibility (db/resource.py:157-170):
url not LIKE any EXCLUDED_PATTERN, not deleted, status in
{NULL, 'BACKOFF'}.

``ORDER BY random()`` is nondeterministic; our ordering contract
(SURVEY.md §7.6) replaces it with a seeded hash rank
``rank = mix64(url_key ^ mix64(seed ^ iteration))`` so the selected
batch and its order are a pure function of (catalog, seed, iteration)
— identical at any parallelism level.

Scale shape: selection is a distributed top-K — each block keeps its
local top-BATCH_SIZE by (tier, rank) inside ``map_batches`` (no
shuffle), and only ``num_blocks × K`` candidate rows reach the final
merge. At a 10^10-row frontier nothing but the winners ever leaves
the blocks.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from hydra_ray.config import config
from hydra_ray.functions.hashing import _mix64


def eligible_mask(batch: pa.Table) -> "pa.BooleanArray":
    """Vectorized eligibility (M7/M8): excluded patterns via Arrow's SQL
    LIKE kernel, deleted flag, status lease."""
    url = batch["url"]
    mask = pc.invert(pc.fill_null(batch["deleted"], False))
    status = batch["status"]
    status_ok = pc.or_kleene(pc.is_null(status), pc.equal(status, "BACKOFF"))
    mask = pc.and_(mask, pc.fill_null(status_ok, True))
    for pattern in config.EXCLUDED_PATTERNS:
        mask = pc.and_(mask, pc.invert(pc.match_like(url, pattern)))
    return mask


def seeded_rank(url_keys: np.ndarray, seed: int, iteration: int) -> np.ndarray:
    """Deterministic per-iteration rank replacing ORDER BY random()."""
    salt = _mix64(np.array([np.uint64(seed) ^ (np.uint64(iteration) << np.uint64(17))], dtype=np.uint64))[0]
    return _mix64(url_keys.astype(np.uint64) ^ salt)


def tier_of(batch: pa.Table, now: np.datetime64) -> np.ndarray:
    """1=priority, 2=never checked, 3=outdated, 0=not due."""
    n = len(batch)
    priority = pc.fill_null(batch["priority"], False).to_numpy(zero_copy_only=False).astype(bool)
    has_check = pc.invert(pc.is_null(batch["last_check_id"])).to_numpy(zero_copy_only=False).astype(bool)
    nca = batch["next_check_at"]
    due_arr = pc.or_kleene(
        pc.is_null(nca), pc.less_equal(nca, pa.scalar(now.astype("datetime64[us]").item(), type=pa.timestamp("us")))
    )
    due = pc.fill_null(due_arr, True).to_numpy(zero_copy_only=False).astype(bool)
    tier = np.zeros(n, dtype=np.int8)
    tier[priority] = 1
    tier[(~priority) & (~has_check)] = 2
    tier[(~priority) & has_check & due] = 3
    return tier


def select_batch(
    frontier: "rd.Dataset | pa.Table",
    iteration: int,
    now: np.datetime64,
    batch_size: int | None = None,
    seed: int | None = None,
) -> pa.Table:
    """Distributed tiered top-K selection. Returns the selected rows
    (all frontier columns + tier + rank), sorted by (tier, rank) — this
    order IS the crawl order for the iteration.

    Accepts either a Dataset (distributed local-top-k per block + driver
    merge — the 10^10-row path) or an Arrow table (the same kernels run
    directly on the driver — used when the frontier checkpoint is small
    enough to cache). Results are identical by construction."""
    k = batch_size or config.BATCH_SIZE
    the_seed = config.ORDERING_SEED if seed is None else seed

    def local_candidates(batch: pa.Table) -> pa.Table:
        batch = batch.filter(eligible_mask(batch))
        if len(batch) == 0:
            return _empty_with_rank(batch)
        tiers = tier_of(batch, now)
        sel = tiers > 0
        batch = batch.filter(pa.array(sel))
        if len(batch) == 0:
            return _empty_with_rank(batch)
        tiers = tiers[sel]
        keys = batch["url_key"].to_numpy(zero_copy_only=False).astype(np.int64)
        ranks = seeded_rank(keys, the_seed, iteration).view(np.int64)
        batch = batch.append_column("tier", pa.array(tiers))
        batch = batch.append_column("rank", pa.array(ranks))
        # local top-k: only candidates that could win globally survive
        order = np.lexsort((ranks, tiers))[:k]
        return batch.take(pa.array(np.sort(order)))

    if isinstance(frontier, pa.Table):
        tables = [t for t in (local_candidates(frontier),) if t.num_rows]
        if not tables:
            return _empty_with_rank(frontier.schema.empty_table())
    else:
        candidates = frontier.map_batches(local_candidates, batch_format="pyarrow")
        # winners: num_blocks × k rows at most — tiny; merge on the driver
        tables = list(_iter_tables(candidates))
        if not tables:
            return _empty_with_rank(frontier.schema().base_schema.empty_table())
    cand_tbl = pa.concat_tables(tables, promote_options="default")
    tiers = cand_tbl["tier"].to_numpy(zero_copy_only=False)
    ranks = cand_tbl["rank"].to_numpy(zero_copy_only=False)
    order = np.lexsort((ranks, tiers))[:k]
    return cand_tbl.take(pa.array(order))


def _iter_tables(ds: "rd.Dataset"):
    from hydra_ray.sources.store import ds_to_tables

    for t in ds_to_tables(ds):
        if t.num_rows:
            yield t


def _empty_with_rank(batch: pa.Table) -> pa.Table:
    out = batch
    out = out.append_column("tier", pa.array([], type=pa.int8()))
    out = out.append_column("rank", pa.array([], type=pa.int64()))
    return out
