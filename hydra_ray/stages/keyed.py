"""Hash-partition-by-key + per-block vectorized map.

``groupby(key).map_groups(fn)`` dispatches one Python call per group —
for high-cardinality keys (content hashes, user ids, band hashes) that
is millions of tiny pandas frames and dominates wall time. The scale
shape used here instead:

  1. add ``_part = H(key) % num_parts`` in ``map_batches`` (vectorized,
     deterministic SipHash via ``pd.util.hash_pandas_object``);
  2. ``sort("_part")`` — the range shuffle puts all rows of a ``_part``
     value (hence of a key) in one output block;
  3. ``map_batches(batch_size=None)`` — the UDF runs ONCE per sorted
     block over the whole co-partitioned frame, vectorized; an empty
     block makes no call, and a call that returns ``None`` emits no
     block.

All rows of any key land in exactly one block, so any per-key
reduction (top-k, dedup, pair emission) computed per block is globally
correct. ``num_parts`` is the hash space, which caps the number of
non-empty blocks; a block holds one or more whole partitions. At 100 TB
it is sized so a partition fits a worker's heap, not by key cardinality.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

DEFAULT_PARTS = 32


def part_of(t: pa.Table, keys: list[str], num_parts: int) -> np.ndarray:
    """Deterministic partition id per row from the key columns."""
    h = np.zeros(len(t), dtype=np.uint64)
    for k in keys:
        col = t[k].to_pandas()
        kh = pd.util.hash_pandas_object(col, index=False).to_numpy().astype(np.uint64)
        h = h * np.uint64(1099511628211) + kh
    return (h % np.uint64(num_parts)).astype(np.int64)


def _keyed_map(ds: "rd.Dataset", keys: list[str], fn, num_parts: int, batch_format: str):
    def addpart(t: pa.Table) -> pa.Table:
        return t.append_column("_part", pa.array(part_of(t, keys, num_parts)))

    def run(batch):
        if len(batch):  # pandas and pyarrow both spell it drop(columns=)
            out = fn(batch.drop(columns=["_part"]))
            if out is not None:
                yield out

    return (
        ds.map_batches(addpart, batch_format="pyarrow")
        .sort("_part")
        .map_batches(run, batch_size=None, batch_format=batch_format)
    )


def keyed_map_partitions(
    ds: "rd.Dataset",
    keys: list[str],
    fn,
    num_parts: int = DEFAULT_PARTS,
) -> "rd.Dataset":
    """Apply ``fn(pandas.DataFrame) -> pandas.DataFrame`` once per
    key-co-located block (all rows sharing ``keys`` values are in the
    same frame). ``fn`` must be per-key-correct but is free to vectorize
    across keys; a frame holds every key of one or more hash partitions,
    so ``fn`` must not do work super-linear in the frame (a cross
    product over all its rows rather than per key)."""
    return _keyed_map(ds, keys, fn, num_parts, "pandas")


def keyed_map_partitions_arrow(
    ds: "rd.Dataset",
    keys: list[str],
    fn,
    num_parts: int = DEFAULT_PARTS,
) -> "rd.Dataset":
    """Arrow-native sibling of keyed_map_partitions: ``fn(pa.Table) ->
    pa.Table`` once per key-co-located block. Use when the rows carry
    nested Arrow types (list<struct> spans, fixed-size lists) that do
    not survive the pandas round-trip."""
    return _keyed_map(ds, keys, fn, num_parts, "pyarrow")
