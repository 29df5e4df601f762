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

    # the result goes back as one driver-held block: rd.from_blocks reads
    # its metadata here, where rd.from_arrow would start a task for it
    tables = [t for t in ds_to_tables(partials) if t.num_rows]
    if not tables:
        return rd.from_blocks([_empty_final(keys, aggs)])
    merged = pa.concat_tables(tables, promote_options="default")
    if merged.num_rows <= DRIVER_MERGE_ROWS:
        spec = [(out, _MERGE_FN[fn]) for _, fn, out in aggs]
        g = merged.group_by(keys).aggregate(spec)
        rename = {f"{out}_{_MERGE_FN[fn]}": out for _, fn, out in aggs}
        g = g.rename_columns([rename.get(c, c) for c in g.column_names])
        return rd.from_blocks([g])

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


