"""Sequence packing: concat-and-chop documents into fixed-capacity
training sequences via a distributed prefix sum.

The standard LLM-pretraining layout: documents (in a deterministic
order) are conceptually concatenated and sliced every ``capacity``
tokens; a document's pack position is wholly determined by the
EXCLUSIVE prefix sum of token counts before it:

    start      = sum(n_tokens of all earlier docs)
    seq_id     = start // capacity      (the sequence the doc starts in)
    seq_offset = start %  capacity      (its offset inside that sequence)

Prefix sums are inherently ordered, which the Dataset API can't express
as a map — this is one of the few places raw Ray tasks are justified:

  1. ``sort(id_col)`` gives globally ordered blocks;
  2. one tiny remote task per block returns its token SUM (ints on the
     driver: O(num_blocks), never rows);
  3. the driver cumsums those into per-block offsets;
  4. one remote task per block adds offset + within-block cumsum.

Every heavy byte stays in the object store; the result is re-wrapped
as a Dataset with ``from_arrow_refs``. At 100 TB the driver state is
one int per block (~a few MB for a million blocks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd


@ray.remote
def _block_token_sum(t, count_col: str) -> int:
    if not isinstance(t, pa.Table):
        t = pa.Table.from_pandas(t, preserve_index=False) if len(t) else None
    if t is None or not t.num_rows:
        return 0
    return int(np.sum(t[count_col].to_numpy(zero_copy_only=False)))


@ray.remote
def _block_pack(t, count_col: str, offset: int, capacity: int):
    if not isinstance(t, pa.Table):
        import pandas as pd

        t = (
            pa.Table.from_pandas(t, preserve_index=False)
            if isinstance(t, pd.DataFrame) and len(t.columns)
            else pa.table({})
        )
    if not t.num_rows:
        return t
    counts = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
    start = offset + np.cumsum(counts) - counts
    return t.append_column("seq_id", pa.array(start // capacity)).append_column(
        "seq_offset", pa.array(start % capacity)
    )


def pack_sequences(
    ds: "rd.Dataset",
    capacity: int,
    id_col: str = "doc_id",
    count_col: str = "n_tokens",
) -> "rd.Dataset":
    """Assign each document its (seq_id, seq_offset) under concat-and-
    chop packing with ``capacity`` tokens per sequence, ordered by
    ``id_col``. Adds the two columns; all other columns pass through."""
    mat = ds.sort(id_col).materialize()
    refs = mat.to_arrow_refs()
    sums = ray.get([_block_token_sum.remote(r, count_col) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(sums)[:-1]]).astype(np.int64)
    out = [
        _block_pack.remote(r, count_col, int(off), capacity)
        for r, off in zip(refs, offsets)
    ]
    return rd.from_arrow_refs(out)


