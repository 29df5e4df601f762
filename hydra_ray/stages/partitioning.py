"""Frontier partitioning: hash by domain, salt the hot hosts.

North-rule requirement: "explicit hash-partitioning by domain and
salted repartitioning of skewed hosts like static.data.gouv.fr".

- Normal domains map to ``partition = mix64(domain_hash) % P`` — all of
  a domain's URLs co-locate, so per-partition fetch workers reuse
  connections and per-domain ordering is trivial.
- Hot domains (either listed explicitly or detected above
  ``hot_threshold`` × the mean partition share) are salted:
  ``partition = mix64(domain_hash ^ mix64(url_key % K)) % P`` — their
  URLs spread over up to K partitions, so no partition becomes a
  straggler. The politeness budget is unaffected: every partition
  consults the same domain-keyed politeness shard (state/politeness.py),
  so the global per-domain cap holds under any salting.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

from hydra_ray.functions.hashing import _mix64


def _domain_hash64(domains: list[str]) -> np.ndarray:
    return np.array(
        [zlib.crc32(d.encode("utf-8", "surrogateescape")) for d in domains], dtype=np.uint64
    )


def detect_hot_domains(batch: pa.Table, n_partitions: int, hot_threshold: float = 2.0) -> set[str]:
    """Domains whose row share exceeds ``hot_threshold / n_partitions``
    (i.e. they alone would overfill their partition)."""
    import collections

    counts = collections.Counter(batch["domain"].to_pylist())
    total = max(1, len(batch))
    cap = hot_threshold / n_partitions
    return {d for d, c in counts.items() if c / total > cap}


def assign_partitions(
    batch: pa.Table,
    n_partitions: int,
    hot_domains: set[str] | None = None,
    salt_k: int = 16,
) -> pa.Table:
    """Append a ``partition`` column (int32) with hot-domain salting."""
    domains = batch["domain"].to_pylist()
    keys = batch["url_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    dh = _mix64(_domain_hash64(domains))
    hot = hot_domains if hot_domains is not None else set()
    is_hot = np.array([d in hot for d in domains], dtype=bool)
    salted = _mix64(dh ^ _mix64(keys % np.uint64(salt_k)))
    part = np.where(is_hot, salted, dh) % np.uint64(n_partitions)
    return batch.append_column("partition", pa.array(part.astype(np.int32)))


def partition_slices(batch: pa.Table, n_partitions: int, hot_domains: set[str] | None = None, salt_k: int = 16) -> list[pa.Table]:
    """Split a batch into per-partition tables (sorted by partition id;
    crawl-order preserved within each partition)."""
    withp = assign_partitions(batch, n_partitions, hot_domains, salt_k)
    parts = withp["partition"].to_numpy(zero_copy_only=False)
    out = []
    for p in range(n_partitions):
        idx = np.nonzero(parts == p)[0]
        if len(idx):
            out.append(withp.take(pa.array(idx)))
    return out
