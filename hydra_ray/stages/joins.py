"""Temporal joins Ray Data lacks: as-of join and range (interval) join.

Both follow the brief's custom-operator ladder: expressed as
compositions of ``map_batches`` + a single hash-partitioned shuffle
(stages/keyed.py) — no raw actors, no driver materialization.

``asof_join`` partitioning assumption (documented per the brief): all
rows sharing a ``by`` key are co-located by one hash shuffle of the
union of both sides; within a partition the merge is pandas
``merge_asof`` (a vectorized sorted merge). ``num_parts`` bounds
partition memory at scale — it is sized so the largest co-partition
fits a worker heap, exactly like the keyed dedup/top-k consumers.

``range_join`` assumes the interval side is SMALL (a broadcast
dimension: calendar windows, campaign ranges, SLA buckets). Intervals
ship once via ``ray.put`` and each batch task evaluates all intervals
vectorized — O(batch × n_intervals) with no shuffle at all; intervals
may overlap (a row can match several).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from hydra_ray.stages.keyed import DEFAULT_PARTS, keyed_map_partitions


def asof_join(
    left: "rd.Dataset",
    right: "rd.Dataset",
    by: str,
    on: str,
    direction: str = "backward",
    num_parts: int = DEFAULT_PARTS,
) -> "rd.Dataset":
    """Left as-of join: for each left row, the single right row with the
    same ``by`` key and the nearest ``on`` value (<= for backward, >= for
    forward). Right columns come back nullable (pandas ``Int64`` for
    integer columns so unmatched rows stay NULL, not 0).

    Ties on (by, on) in the right side must be resolved upstream (e.g.
    keep max of a unique key) — merge_asof keeps the LAST sorted row,
    which is only deterministic after such a dedup."""
    def _pa_schema(ds: "rd.Dataset") -> pa.Schema:
        s = ds.schema()
        return pa.schema(zip(s.names, s.types))

    left_schema = _pa_schema(left)
    right_schema = _pa_schema(right)
    left_cols = list(left_schema.names)
    right_cols = list(right_schema.names)
    shared = {by, on}
    right_payload = [c for c in right_cols if c not in shared]
    clash = set(left_cols) & set(right_payload)
    if clash:
        raise ValueError(f"right payload columns collide with left: {sorted(clash)}")

    # Harmonize the two sides into one schema (+_side) so a single
    # union + one keyed shuffle co-locates each by-key's rows.
    def pad(t: pa.Table, side: int, missing: list[str], other: pa.Schema) -> pa.Table:
        for c in missing:
            t = t.append_column(c, pa.nulls(t.num_rows, other.field(c).type))
        t = t.append_column("_side", pa.array(np.full(t.num_rows, side, dtype=np.int8)))
        return t.select([*left_cols, *right_payload, "_side"])

    lp = left.map_batches(
        lambda t: pad(t, 0, right_payload, right_schema), batch_format="pyarrow"
    )
    rp = right.map_batches(
        lambda t: pad(t, 1, [c for c in left_cols if c not in shared], left_schema),
        batch_format="pyarrow",
    )
    unioned = lp.union(rp)

    # Integer columns survive the cross-side null padding as pandas
    # float64; restore every originally-integer column to nullable
    # Int64 after the merge (unmatched right payload stays NULL).
    int_cols = [
        f.name
        for schema in (left_schema, right_schema)
        for f in (schema.field(n) for n in schema.names)
        if pa.types.is_integer(f.type)
    ]
    int_cols = list(dict.fromkeys(c for c in int_cols if c in {*left_cols, *right_payload}))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        ldf = df[df["_side"] == 0][left_cols].sort_values(on, kind="mergesort")
        rdf = df[df["_side"] == 1][[by, on, *right_payload]].sort_values(on, kind="mergesort")
        if ldf.empty:
            return pd.DataFrame(columns=[*left_cols, *right_payload])
        out = pd.merge_asof(ldf, rdf, on=on, by=by, direction=direction)
        for c in int_cols:
            out[c] = out[c].astype("Int64")
        return out

    return keyed_map_partitions(unioned, [by], merge, num_parts=num_parts)


class _RangeJoiner:
    """Broadcast-interval join: intervals fetched once per actor from
    the object store; each batch matched against all intervals with
    vectorized comparisons (intervals may overlap)."""

    def __init__(self, intervals_ref, t_col: str, start_col: str, end_col: str):
        iv: pa.Table = ray.get(intervals_ref)
        self.t_col = t_col
        self.starts = iv[start_col].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        self.ends = iv[end_col].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        self.payload = iv.drop_columns([start_col, end_col])

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = pc.cast(t[self.t_col], pa.int64()).to_numpy(zero_copy_only=False)
        row_idx: list[np.ndarray] = []
        iv_idx: list[np.ndarray] = []
        for i in range(len(self.starts)):
            hit = np.nonzero((us >= self.starts[i]) & (us < self.ends[i]))[0]
            if len(hit):
                row_idx.append(hit)
                iv_idx.append(np.full(len(hit), i, dtype=np.int64))
        if not row_idx:
            empty = t.slice(0, 0)
            for c in self.payload.column_names:
                empty = empty.append_column(c, self.payload[c].slice(0, 0))
            return empty
        rows = np.concatenate(row_idx)
        ivs = np.concatenate(iv_idx)
        out = t.take(pa.array(rows))
        for c in self.payload.column_names:
            out = out.append_column(c, self.payload[c].take(pa.array(ivs)))
        return out


def range_join(
    ds: "rd.Dataset",
    intervals: pa.Table,
    t_col: str,
    start_col: str = "start",
    end_col: str = "end",
    concurrency: tuple[int, int] = (1, 8),
) -> "rd.Dataset":
    """Inner join of each row onto every interval with
    start <= t < end. The interval table is broadcast (``ray.put``
    once); output carries the interval payload columns."""
    ref = ray.put(intervals.combine_chunks())
    return ds.map_batches(
        _RangeJoiner,
        fn_constructor_kwargs={
            "intervals_ref": ref,
            "t_col": t_col,
            "start_col": start_col,
            "end_col": end_col,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


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
      is preserved."""
    keys = keys.materialize()
    if keys.count() <= KEYS_BROADCAST_MAX:
        return _broadcast_semi_join(left, keys, key, anti)

    def tag_left(t: pa.Table) -> pa.Table:
        return t.append_column("_side", pa.array(np.zeros(t.num_rows, dtype=np.int8)))

    def tag_keys(t: pa.Table) -> pa.Table:
        return pa.table(
            {key: t[key], "_side": pa.array(np.ones(t.num_rows, dtype=np.int8))}
        )

    def pad_keys_like_left(t: pa.Table, schema: pa.Schema) -> pa.Table:
        for f in schema:
            if f.name not in t.column_names:
                t = t.append_column(f.name, pa.nulls(t.num_rows, f.type))
        return t.select([f.name for f in schema])

    lt = left.map_batches(tag_left, batch_format="pyarrow")
    ls = lt.schema()
    if ls is None:  # left side produced no rows: the semi-join is empty
        return left
    schema = pa.schema(zip(ls.names, ls.types))
    left_cols = [n for n in schema.names if n != "_side"]
    kt = keys.map_batches(
        lambda t: pad_keys_like_left(tag_keys(t), schema), batch_format="pyarrow"
    )

    def keep_members(df: "pd.DataFrame") -> "pd.DataFrame":
        member = set(df.loc[df["_side"] == 1, key])
        mask = df[key].isin(member)
        if anti:
            mask = ~mask
        out = df[(df["_side"] == 0) & mask][left_cols]
        # cross-side padding floats integer columns; restore
        for f in schema:
            if pa.types.is_integer(f.type) and f.name in out.columns:
                out[f.name] = out[f.name].astype("int64")
        return out

    return keyed_map_partitions(lt.union(kt), [key], keep_members, num_parts=num_parts)


def _broadcast_semi_join(
    left: "rd.Dataset", keys: "rd.Dataset", key: str, anti: bool
) -> "rd.Dataset":
    """semi_join's small-key-set route: one ``ray.put`` of the distinct
    keys, then a shuffle-free ``pc.is_in`` filter per left block."""
    import pyarrow.compute as pc

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
    from hydra_ray.state.cuckoo import _mix64

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
    from hydra_ray.state.cuckoo import _mix64

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
