"""Partial (combiner-style) grouped aggregation.

``grouped_agg`` computes per-block partial aggregates with Arrow's
in-memory ``Table.group_by`` kernel, then runs the final Ray Data
``groupby`` only over the partials — so the all-to-all shuffle moves
one row per (key, block) instead of every input row. This is the
pre-aggregation pattern every grouped count/sum in the engine uses
(the reference's A2-A7 aggregates).

Supported aggs: sum, count, min, max (mergeable partials). Output
column names are caller-specified.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd

_MERGE_FN = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def grouped_agg(
    ds: "rd.Dataset",
    keys: list[str],
    aggs: list[tuple[str, str, str]],
) -> "rd.Dataset":
    """aggs: (input_col, fn, out_name); fn in sum|count|min|max.
    For count, input_col is any always-present column."""

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_out()
        spec = [(col, "count" if fn == "count" else fn) for col, fn, _ in aggs]
        g = t.group_by(keys).aggregate(spec)
        # arrow names results "{col}_{fn}"
        rename = {}
        for col, fn, out in aggs:
            arrow_fn = "count" if fn == "count" else fn
            rename[f"{col}_{arrow_fn}"] = out
        cols = {}
        for name in g.column_names:
            cols[rename.get(name, name)] = g[name]
        return pa.table(cols)

    def _empty_out() -> pa.Table:
        fields = {k: pa.array([], type=pa.string()) for k in keys}
        for _, _, out in aggs:
            fields[out] = pa.array([], type=pa.int64())
        return pa.table(fields)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    # Final merge. Partials are one row per (key, block) — orders of
    # magnitude smaller than the input — so up to DRIVER_MERGE_ROWS they
    # merge on the driver with Arrow's C++ group_by (Ray Data's groupby
    # pays a full sort-shuffle fixed cost that dwarfs small finals).
    # Larger partial sets (huge key cardinality) fall back to the
    # distributed groupby.
    from hydra_ray.sources.store import ds_to_tables

    tables = [t for t in ds_to_tables(partials) if t.num_rows]
    if not tables:
        return rd.from_arrow(_empty_final(keys, aggs))
    merged = pa.concat_tables(tables, promote_options="default")
    if merged.num_rows <= DRIVER_MERGE_ROWS:
        spec = [(out, _MERGE_FN[fn]) for _, fn, out in aggs]
        g = merged.group_by(keys).aggregate(spec)
        rename = {f"{out}_{_MERGE_FN[fn]}": out for _, fn, out in aggs}
        g = g.rename_columns([rename.get(c, c) for c in g.column_names])
        return rd.from_arrow(g)

    from ray.data.aggregate import Max, Min, Sum

    final_aggs = []
    for _, fn, out in aggs:
        cls = {"sum": Sum, "min": Min, "max": Max}[_MERGE_FN[fn]]
        final_aggs.append(cls(out, alias_name=out))
    pds = rd.from_arrow(merged)
    if len(keys) == 1:
        return pds.groupby(keys[0]).aggregate(*final_aggs)
    return pds.groupby(keys).aggregate(*final_aggs)


DRIVER_MERGE_ROWS = 5_000_000


def _empty_final(keys: list[str], aggs: list[tuple[str, str, str]]) -> pa.Table:
    fields = {k: pa.array([], type=pa.string()) for k in keys}
    for _, _, out in aggs:
        fields[out] = pa.array([], type=pa.int64())
    return pa.table(fields)


def _floor_log2_u64(x):
    """Exact vectorized floor(log2(x)) for uint64 (0 stays 0)."""
    import numpy as np

    y = x.astype(np.uint64, copy=True)
    bl = np.zeros(len(y), dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        mask = y >= (np.uint64(1) << np.uint64(s))
        y = np.where(mask, y >> np.uint64(s), y)
        bl += s * mask.astype(np.int64)
    return bl


def tdigest_centroids(
    ds: "rd.Dataset",
    key: str,
    value_col: str,
    delta: int = 100,
    num_parts: int = 32,
) -> "rd.Dataset":
    """Mergeable t-digest per key: centroid rows (key, mean, weight).

    Dunning's k1 scale function k(q) = δ/2π · asin(2q−1), built fully
    vectorized: sort a block's rows by (key, value), assign each row
    the bucket floor(k(q_mid)) from its within-key cumulative weight,
    and reduce each bucket to a (weighted-mean, total-weight) centroid
    — ≤ δ centroids per key per block cross the shuffle regardless of
    row count, and merging is the same sort+bucket+reduce over centroid
    rows. Tail quantiles get proportionally finer buckets (k1's
    defining property), so q01/q99 stay accurate where a plain
    histogram smears. Weights are exact integer counts: sum(weight) per
    key == count(*) even though the quantile estimate is approximate
    (``tdigest_quantile``). Estimates depend on block boundaries (as
    every parallel t-digest does), hence no bit-exact SQL oracle — the
    invariants (exact weight totals, rank error ≤ O(1/δ)) are
    pytest-asserted instead."""
    import numpy as np
    import pandas as pd

    def compress(df: pd.DataFrame, w_col: str | None) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {key: pd.Series(dtype="object"), "mean": pd.Series(dtype="float64"),
                 "weight": pd.Series(dtype="int64")}
            )
        vals = df[value_col if w_col is None else "mean"].to_numpy(dtype=np.float64)
        w = (np.ones(len(df), dtype=np.int64) if w_col is None
             else df[w_col].to_numpy(dtype=np.int64))
        d = pd.DataFrame({key: df[key].to_numpy(), "v": vals, "w": w})
        d = d.sort_values([key, "v"], kind="mergesort")
        wf = d["w"].to_numpy(dtype=np.float64)
        cw = d.groupby(key, sort=False)["w"].cumsum().to_numpy(dtype=np.float64)
        tot = d.groupby(key, sort=False)["w"].transform("sum").to_numpy(dtype=np.float64)
        q = (cw - wf / 2) / tot
        b = np.floor(delta * (np.arcsin(2 * q - 1) / np.pi + 0.5)).astype(np.int64)
        np.clip(b, 0, delta - 1, out=b)
        d["_b"] = b
        d["_mw"] = d["v"] * wf
        g = d.groupby([key, "_b"], sort=False).agg(_mw=("_mw", "sum"), weight=("w", "sum"))
        g = g.reset_index()
        g["mean"] = g["_mw"] / g["weight"]
        return g[[key, "mean", "weight"]]

    partials = ds.map_batches(lambda df: compress(df, None), batch_format="pandas")

    from hydra_ray.sources.store import ds_to_tables

    tables = [t for t in ds_to_tables(partials) if t.num_rows]
    if not tables:
        return rd.from_pandas(compress(pd.DataFrame(), "w"))
    merged = pa.concat_tables(tables, promote_options="default")
    if merged.num_rows <= DRIVER_MERGE_ROWS:
        return rd.from_pandas(compress(merged.to_pandas(), "weight"))
    from hydra_ray.stages.keyed import keyed_map_partitions

    return keyed_map_partitions(
        rd.from_arrow(merged), [key], lambda df: compress(df, "weight"), num_parts=num_parts
    )


def tdigest_quantile(centroids, key_col: str, qs: tuple[float, ...]) -> "object":
    """Centroid rows → per-key quantile estimates (one row per key:
    key, n, q50, q90, ...). Standard t-digest interpolation: centroid i
    sits at cumulative rank cw_i − w_i/2; the target rank q·W is
    linearly interpolated between neighbouring centroid means and
    clamped to the extreme means at the tails."""
    import numpy as np
    import pandas as pd

    if not isinstance(centroids, pd.DataFrame):
        centroids = centroids.to_pandas()
    rows = []
    for kval, g in centroids.groupby(key_col, sort=False):
        g = g.sort_values("mean", kind="mergesort")
        means = g["mean"].to_numpy(dtype=np.float64)
        w = g["weight"].to_numpy(dtype=np.float64)
        cw = np.cumsum(w) - w / 2
        total = float(w.sum())
        row = {key_col: kval, "n": int(total)}
        for q in qs:
            row[f"q{int(q * 100)}"] = round(float(np.interp(q * total, cw, means)), 6)
        rows.append(row)
    return pd.DataFrame(rows)


def _hll_fold(vals: "np.ndarray", p: int) -> tuple["np.ndarray", "np.ndarray"]:
    """uint64 values → HyperLogLog (register, max_rank) arrays, one row
    per occupied register: splitmix64 hash, register = top p bits, rank
    = leading zeros of the remaining bits + 1. table_profile's
    block-side and driver-side (exact-uniques conversion) paths both
    fold through here, so they are bit-identical."""
    import numpy as np

    from hydra_ray.functions.hashing import _mix64

    mask64 = np.uint64(0xFFFFFFFFFFFFFFFF)
    h = _mix64(vals)
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) & mask64
    rank = np.where(rest == 0, 64 - p + 1, 64 - _floor_log2_u64(rest)).astype(np.int64)
    maxr = np.zeros(1 << p, dtype=np.int64)
    np.maximum.at(maxr, reg, rank)
    occ = np.nonzero(maxr)[0]
    return occ.astype(np.int64), maxr[occ]


def _as_u64(arr: "pa.Array") -> "np.ndarray":
    """Arrow numeric array → uint64 hash inputs: ints by value (so the
    same number hashes identically across int widths), floats by raw
    bit pattern (fractional values stay distinct)."""
    import numpy as np

    v = arr.to_numpy(zero_copy_only=False)
    if v.dtype.kind == "f":
        return v.astype(np.float64).view(np.uint64)
    return v.astype(np.int64).astype(np.uint64)


def table_profile(
    ds: "rd.Dataset",
    columns: list[str],
    distinct_cap: int = 4_000_000,
    hll_p: int = 12,
    stats_out: dict | None = None,
) -> pa.Table:
    """Per-column dataset profile — the csv-detective/inspection profile
    (stages/inspection.py, reference csv_detective routine) lifted to
    table scale: one output row per column with row/null counts,
    distinct count and min/max (as float64).

    NUMERIC columns only (int/uint/float/bool) — non-numeric input
    raises. Integer columns stay int64 end-to-end for the distinct and
    min/max computations (values ≥2^53 never collapse); only the
    EMITTED min_val/max_val are cast to float64 (the output schema's
    documented loss).

    Shape: one combiner map_batches emits a single partial row per
    (column, block) — counts, min/max, and the block's UNIQUE values as
    typed lists — so the data that leaves the workers is bounded by
    (true distinct cardinality) × blocks, never the row count. Partials
    merge on the driver (#cols × #blocks rows).

    High-cardinality auto-route (the 100-TB path): a block whose unique
    count for a column exceeds ``distinct_cap`` ships the mergeable HLL
    register table (2^hll_p rows max, built by ``_hll_fold``)
    instead of the uniques list, bounding both wire and driver memory
    per (column, block). If ANY block routed a column to HLL, the other
    blocks' (bounded) exact lists are folded into registers driver-side
    with the identical hash, and ``n_distinct`` is the bias-corrected
    HLL estimate. ``stats_out`` (optional dict) receives
    {"approx_cols": [...]} naming the estimated columns; columns under
    the cap stay EXACT, so the default profile is unchanged.
    """
    import numpy as np
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        names, n_rows, n_null, mins, maxs, is_hll = [], [], [], [], [], []
        uoff_i, uvals_i, uoff_f, uvals_f = [0], [], [0], []
        hoff_r, hregs, hranks = [0], [], []
        for c in columns:
            arr = t[c]
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            ty = arr.type
            if pa.types.is_integer(ty) or pa.types.is_boolean(ty):
                arr = pc.cast(arr, pa.int64())
                is_int = True
            elif pa.types.is_floating(ty) or pa.types.is_decimal(ty):
                arr = pc.cast(arr, pa.float64())
                is_int = False
            else:
                raise TypeError(f"table_profile: column {c!r} is non-numeric ({ty})")
            names.append(c)
            n_rows.append(len(arr))
            n_null.append(arr.null_count)
            mm = pc.min_max(arr)
            mins.append(mm["min"].as_py())
            maxs.append(mm["max"].as_py())
            u = pc.unique(arr.drop_null())
            hll = len(u) > distinct_cap
            is_hll.append(hll)
            if hll:
                reg, rank = _hll_fold(_as_u64(u), hll_p)
                hregs.append(reg)
                hranks.append(rank)
                u = u.slice(0, 0)
            if is_int:
                uvals_i.append(u)
            else:
                uvals_f.append(u)
            uoff_i.append(uoff_i[-1] + (len(u) if is_int else 0))
            uoff_f.append(uoff_f[-1] + (0 if is_int else len(u)))
            hoff_r.append(hoff_r[-1] + (len(hregs[-1]) if hll else 0))
        uniq_i = pa.ListArray.from_arrays(
            pa.array(uoff_i, type=pa.int32()),
            pa.concat_arrays(uvals_i) if uvals_i else pa.array([], type=pa.int64()),
        )
        uniq_f = pa.ListArray.from_arrays(
            pa.array(uoff_f, type=pa.int32()),
            pa.concat_arrays(uvals_f) if uvals_f else pa.array([], type=pa.float64()),
        )
        hcat_r = np.concatenate(hregs) if hregs else np.array([], dtype=np.int64)
        hcat_k = np.concatenate(hranks) if hranks else np.array([], dtype=np.int64)
        offs = pa.array(hoff_r, type=pa.int32())
        return pa.table(
            {
                "col_name": pa.array(names, type=pa.string()),
                "n_rows": pa.array(n_rows, type=pa.int64()),
                "n_null": pa.array(n_null, type=pa.int64()),
                "min_val": pa.array([float(v) if v is not None else None for v in mins], type=pa.float64()),
                "max_val": pa.array([float(v) if v is not None else None for v in maxs], type=pa.float64()),
                "is_hll": pa.array(is_hll, type=pa.bool_()),
                "uniq_i": uniq_i,
                "uniq_f": uniq_f,
                "hll_reg": pa.ListArray.from_arrays(offs, pa.array(hcat_r, type=pa.int64())),
                "hll_rank": pa.ListArray.from_arrays(offs, pa.array(hcat_k, type=pa.int64())),
            }
        )

    from hydra_ray.sources.store import ds_to_tables

    parts = [
        t
        for t in ds_to_tables(ds.map_batches(partial, batch_format="pyarrow"))
        if t.num_rows
    ]
    merged = pa.concat_tables(parts, promote_options="default")
    approx_cols: list[str] = []
    out = {k: [] for k in ("col_name", "n_rows", "n_null", "n_distinct", "min_val", "max_val")}
    for c in sorted(columns):
        sel = merged.filter(pc.equal(merged["col_name"], c))
        out["col_name"].append(c)
        out["n_rows"].append(pc.sum(sel["n_rows"]).as_py() or 0)
        out["n_null"].append(pc.sum(sel["n_null"]).as_py() or 0)
        flat_i = pc.list_flatten(sel["uniq_i"].combine_chunks())
        flat_f = pc.list_flatten(sel["uniq_f"].combine_chunks())
        if pc.any(sel["is_hll"]).as_py():
            # at least one block overflowed the cap → merge registers
            # (max per register) across HLL blocks AND the other blocks'
            # bounded exact lists, folded with the identical hash
            approx_cols.append(c)
            maxr = np.zeros(1 << hll_p, dtype=np.int64)
            regs = pc.list_flatten(sel["hll_reg"].combine_chunks()).to_numpy(zero_copy_only=False)
            ranks = pc.list_flatten(sel["hll_rank"].combine_chunks()).to_numpy(zero_copy_only=False)
            np.maximum.at(maxr, regs, ranks)
            for flat in (pc.unique(flat_i), pc.unique(flat_f)):
                if len(flat):
                    reg, rank = _hll_fold(_as_u64(flat), hll_p)
                    np.maximum.at(maxr, reg, rank)
            import math

            m = 1 << hll_p
            alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
            est = alpha * m * m / np.sum(np.exp2(-maxr.astype(np.float64)))
            zeros = int(np.count_nonzero(maxr == 0))
            if est <= 2.5 * m and zeros:
                est = m * math.log(m / zeros)
            out["n_distinct"].append(int(round(est)))
        else:
            # a column is all-int or all-float across blocks; one side is empty
            out["n_distinct"].append(len(pc.unique(flat_i)) + len(pc.unique(flat_f)))
        out["min_val"].append(pc.min(sel["min_val"]).as_py())
        out["max_val"].append(pc.max(sel["max_val"]).as_py())
    if stats_out is not None:
        stats_out["approx_cols"] = approx_cols
    return pa.table(
        {
            "col_name": pa.array(out["col_name"], type=pa.string()),
            "n_rows": pa.array(out["n_rows"], type=pa.int64()),
            "n_null": pa.array(out["n_null"], type=pa.int64()),
            "n_distinct": pa.array(out["n_distinct"], type=pa.int64()),
            "min_val": pa.array(out["min_val"], type=pa.float64()),
            "max_val": pa.array(out["max_val"], type=pa.float64()),
        }
    )
