"""Key joins: the key-set filter, the large×large equi-join and its
Bloom-prefiltered variant.

Each is a composition of ``map_batches`` and at most one
hash-partitioned shuffle (stages/keyed.py), with no raw actors.

``semi_join`` broadcasts a small key set (``ray.put`` once, ``pc.is_in``
per block) and shuffles both sides on the key when the set is
corpus-sized. ``hash_join`` co-partitions both sides on the key and
merges each partition with pandas ``merge``; ``num_parts`` bounds
partition memory at scale. ``bloom_semi_join`` drops definite
non-members with a broadcast Bloom bitmap before ``semi_join`` runs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from hydra_ray.stages.keyed import DEFAULT_PARTS, keyed_map_partitions, keyed_map_partitions_arrow


# Key sets at or below this many rows ship to every task once
# (``ray.put``); larger ones go through the keyed shuffle. Tests patch
# it to 0 to drive the shuffle route on small inputs.
KEYS_BROADCAST_MAX = 2_000_000


def semi_join(
    left: "rd.Dataset",
    keys: "rd.Dataset",
    key: str,
    num_parts: int = DEFAULT_PARTS,
    anti: bool = False,
) -> "rd.Dataset":
    """The key-set filter: keep left rows whose ``key`` appears in the
    ``key`` column of ``keys`` (``anti=True`` inverts: keep rows whose
    key does NOT appear — the near-dup-removal filter).

    Routed by the size of the key set, which is materialized and
    counted first:

    - at most ``KEYS_BROADCAST_MAX`` keys: the distinct keys are
      ``ray.put`` once and every left block is filtered with
      ``pc.is_in`` — no shuffle, left blocks keep schema and order;
    - more: both sides go through ONE hash shuffle on the key, so it
      holds when the key set is corpus-sized (e.g. dedup survivors)
      and never reaches the driver. Left row order within a partition
      and the left's Arrow schema are preserved."""
    keys = keys.materialize()
    if keys.count() <= KEYS_BROADCAST_MAX:
        return _broadcast_semi_join(left, keys, key, anti)

    # Both sides hash on a copy of the key, ``_jk``. The key side carries
    # only ``_jk`` and ``_side``; Arrow's concat fills the left's other
    # columns with typed nulls where a sorted block mixes the sides, so
    # the left schema is never asked for (asking executes the left).
    # Each left column keeps its type and relative order, and the
    # bookkeeping columns are dropped again.
    def tag_left(t: pa.Table) -> pa.Table:
        side = pa.array(np.zeros(t.num_rows, dtype=np.int8))
        return t.append_column("_side", side).append_column("_jk", t[key])

    def tag_keys(t: pa.Table) -> pa.Table:
        return pa.table({"_jk": t[key], "_side": pa.array(np.ones(t.num_rows, dtype=np.int8))})

    def keep_members(t: pa.Table) -> pa.Table | None:
        is_left = pc.equal(t["_side"], 0)
        rows = t.filter(is_left)
        if not rows.num_rows:  # a block of key rows only emits nothing
            return None
        members = t.filter(pc.invert(is_left))["_jk"]
        hit = pc.is_in(rows["_jk"], value_set=members.combine_chunks().cast(rows["_jk"].type))
        return rows.filter(pc.invert(hit) if anti else hit).drop_columns(["_side", "_jk"])

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    kt = keys.map_batches(tag_keys, batch_format="pyarrow")
    return keyed_map_partitions_arrow(lt.union(kt), ["_jk"], keep_members, num_parts=num_parts)


def _broadcast_semi_join(
    left: "rd.Dataset", keys: "rd.Dataset", key: str, anti: bool
) -> "rd.Dataset":
    """semi_join's small-key-set route: one ``ray.put`` of the distinct
    keys, then a shuffle-free ``pc.is_in`` filter per left block."""
    from hydra_ray.sources.store import ds_to_tables

    cols = [t[key] for t in ds_to_tables(keys) if t.num_rows]
    if not cols:  # empty key set: nothing is a member
        return left if anti else left.map_batches(
            lambda t: t.slice(0, 0), batch_format="pyarrow"
        )
    keys_ref = ray.put(pc.unique(pa.chunked_array([c for col in cols for c in col.chunks])))

    def keep(t: pa.Table) -> pa.Table:
        col = t[key]
        hit = pc.is_in(col, value_set=ray.get(keys_ref).cast(col.type))
        return t.filter(pc.invert(hit) if anti else hit)

    return left.map_batches(keep, batch_format="pyarrow")


def hash_join(
    left: "rd.Dataset",
    right: "rd.Dataset",
    key: str,
    how: str = "inner",
    suffix: str = "_r",
    num_parts: int = DEFAULT_PARTS,
) -> "rd.Dataset":
    """Distributed large×large equi-join (the shape broadcast joins
    can't cover: both sides corpus-sized).  Reference analogue: the
    checks×catalog / stats joins (webservice/views SQL) when neither
    side fits a worker.  Both sides take ONE hash shuffle on ``key``;
    each co-partition is joined with a vectorized pandas ``merge`` —
    no driver materialization, no broadcast.  ``how`` in
    {'inner','left'}; right columns colliding with left names get
    ``suffix``.  Partitioning assumption (per the brief): all rows of
    one key value fit a single partition — size ``num_parts`` so the
    largest co-partition fits a worker heap; skewed keys want salting
    upstream (stages/partitioning.py)."""
    if how not in ("inner", "left"):
        raise ValueError("hash_join supports how='inner'|'left'")

    def tag(side: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.append_column(
                "_side", pa.array(np.full(t.num_rows, side, dtype=np.int8))
            )

        return fn

    lt = left.map_batches(tag(0), batch_format="pyarrow")
    rt = right.map_batches(tag(1), batch_format="pyarrow")
    ls, rs = lt.schema(), rt.schema()
    if ls is None:  # empty left: the join result is empty
        return left
    if rs is None:  # empty right: inner join is empty; left join = left
        return left if how == "left" else left.limit(0)
    lcols = [n for n in ls.names if n != "_side"]
    rcols = [n for n in rs.names if n not in ("_side", key)]
    rename = {c: (c + suffix if c in lcols else c) for c in rcols}
    int_cols = {
        n
        for n, t in zip(ls.names, ls.types)
        if pa.types.is_integer(t) and n != "_side"
    } | {
        rename[n]
        for n, t in zip(rs.names, rs.types)
        if pa.types.is_integer(t) and n in rename
    }

    # union needs one schema: pad each side with the other's columns
    merged_names = lcols + [c for c in rs.names if c not in ls.names]
    types = {n: t for n, t in zip(rs.names, rs.types)}
    types.update({n: t for n, t in zip(ls.names, ls.types)})

    def pad(t: pa.Table) -> pa.Table:
        for n in merged_names:
            if n not in t.column_names:
                t = t.append_column(n, pa.nulls(t.num_rows, types[n]))
        return t.select(merged_names + ["_side"])

    u = lt.map_batches(pad, batch_format="pyarrow").union(
        rt.map_batches(pad, batch_format="pyarrow")
    )

    def join_part(df: "pd.DataFrame") -> "pd.DataFrame":
        ldf = df.loc[df["_side"] == 0, lcols]
        rdf = df.loc[df["_side"] == 1, [key] + rcols].rename(columns=rename)
        out = ldf.merge(rdf, on=key, how=how, sort=False)
        for c in out.columns:
            if c in int_cols:
                if out[c].isna().any():
                    # unmatched rows: keep SQL NULLable-BIGINT semantics
                    # (float64 + NaN, what DuckDB hands pandas) rather
                    # than the pandas Int64 extension dtype, which ray
                    # blocks and the driver compare both handle worse
                    out[c] = out[c].astype("float64")
                else:
                    out[c] = out[c].astype("int64")
        return out

    return keyed_map_partitions(u, [key], join_part, num_parts=num_parts)


def _bloom_key_series(col: pa.ChunkedArray | pa.Array) -> "pd.Series":
    """Normalize a key column before hashing: pd.util.hash_pandas_object
    is dtype-WIDTH-sensitive (int32 -1 hashes differently from int64
    -1), so an int32 keys table against an int64 left column would set
    different bits and silently drop true matches. All integer widths
    are widened to int64; other dtypes pass through."""
    ser = col.to_pandas()
    if pd.api.types.is_integer_dtype(ser.dtype) and not pd.api.types.is_extension_array_dtype(ser.dtype):
        ser = ser.astype("int64")
    return ser


def build_bloom(
    keys: "rd.Dataset", key: str, nbits: int = 1 << 23, n_hashes: int = 5
) -> tuple[np.ndarray, int]:
    """Distributed Bloom-filter build over a key column: each block
    emits its own packed bitmap partial (nbits/8 bytes, mergeable by
    OR), the driver folds them. Returns (bitmap uint8 array, n_hashes).

    nbits must be a power of two (mask instead of mod). Double hashing
    (Kirsch–Mitzenmacher) from two splitmix64 mixes of the SipHash'd
    key, so any key dtype works."""
    assert nbits & (nbits - 1) == 0, "nbits must be a power of two"
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.functions.hashing import _mix64

    mask = np.uint64(nbits - 1)

    def positions(vals: "pd.Series") -> np.ndarray:
        base = pd.util.hash_pandas_object(vals, index=False).to_numpy().astype(np.uint64)
        h1 = _mix64(base)
        h2 = _mix64(base ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
        return np.concatenate(
            [(h1 + np.uint64(i) * h2) & mask for i in range(n_hashes)]
        )

    def partial(t: pa.Table) -> pa.Table:
        pos = positions(_bloom_key_series(t[key]))
        bm = np.zeros(nbits // 8, dtype=np.uint8)
        np.bitwise_or.at(bm, (pos // 8).astype(np.int64), (1 << (pos % 8)).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], type=pa.binary())})

    bits = np.zeros(nbits // 8, dtype=np.uint8)
    for t in ds_to_tables(keys.map_batches(partial, batch_format="pyarrow")):
        # an empty key set leaves one schema-less empty block: no bits
        for row in t["bm"].to_pylist() if t.num_rows else ():
            bits |= np.frombuffer(row, dtype=np.uint8)
    return bits, n_hashes


def bloom_semi_join(
    left: "rd.Dataset",
    keys: "rd.Dataset",
    key: str,
    nbits: int = 1 << 23,
    n_hashes: int = 5,
    num_parts: int = DEFAULT_PARTS,
) -> "rd.Dataset":
    """semi_join with a Bloom pre-filter: the key set's bitmap (nbits/8
    bytes, vs the keys themselves) broadcasts once and every left block
    drops its definite-negatives BEFORE semi_join runs — so when the key
    set is too large to broadcast, the all-to-all exchange only moves
    probable matches: at 100 TB with a selective key set this is the
    difference between shuffling the corpus and shuffling a few percent
    of it. False positives are removed by semi_join on the survivors,
    so results are IDENTICAL to semi_join (and to the SQL IN-subquery
    oracle)."""
    from hydra_ray.functions.hashing import _mix64

    keys = keys.materialize()
    bits, nh = build_bloom(keys, key, nbits=nbits, n_hashes=n_hashes)
    bits_ref = ray.put(bits)
    mask = np.uint64(nbits - 1)

    def prefilter(t: pa.Table) -> pa.Table:
        bm = ray.get(bits_ref)
        base = pd.util.hash_pandas_object(
            _bloom_key_series(t[key]), index=False
        ).to_numpy().astype(np.uint64)
        h1 = _mix64(base)
        h2 = _mix64(base ^ np.uint64(0x9E3779B97F4A7C15)) | np.uint64(1)
        ok = np.ones(len(base), dtype=bool)
        for i in range(nh):
            pos = (h1 + np.uint64(i) * h2) & mask
            ok &= (bm[(pos // 8).astype(np.int64)] & (1 << (pos % 8)).astype(np.uint8)) != 0
        return t.filter(pa.array(ok))

    survivors = left.map_batches(prefilter, batch_format="pyarrow")
    return semi_join(survivors, keys, key, num_parts=num_parts)
