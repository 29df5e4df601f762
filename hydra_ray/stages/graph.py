"""Iterative graph algorithms over edge-list Datasets.

PageRank here is the engine's showcase for ITERATIVE algorithms on Ray
Data (the reference has none). The contract is
integer fixed-point — every rank is an int64 scaled by `scale`, every
division is floor division — so results are bit-exact under any block
split / execution order AND expressible in SQL (the oracle unrolls the
same iterations; same trick as the splitmix64 oracles).

Update rule (simplified PageRank, no dangling-mass redistribution —
documented contract, matches the oracle):

    r0[v]   = scale // N
    r'[v]   = (15 * scale) // (100 * N)  +  (85 * in_sum[v]) // 100
    in_sum[v] = sum over edges (u, v) of  r[u] // outdeg[u]

Two execution shapes, auto-routed on edge count (pattern:
similarity.py `nn_all`), pinned bit-identical by test:

- **broadcast** (default below `broadcast_edges_max`): the edge list
  stays a materialized Dataset; each iteration broadcasts the
  node→contribution array once via the object store and runs one
  combiner map_batches over the edges, merging tiny per-block partials
  on the driver.  Driver state is O(N nodes).
- **sharded** (the 100-TB shape): edges hash-partitioned by src ONCE,
  rank shards hash-partitioned by node with the SAME hash — so the
  rank of every src is co-located with its out-edges and outdeg is
  computable shard-locally.  Each iteration is P contribution tasks
  (each emitting P per-destination-shard partial tables via
  ``num_returns``) + P reduce tasks; the driver holds only object
  refs, never node arrays.  Integer sums are associative, so the two
  paths are bit-identical.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from hydra_ray.functions.hashing import _mix64


def _node_part(x: np.ndarray, num_parts: int) -> np.ndarray:
    """Deterministic shard id for int64 node ids (splitmix64 mix)."""
    return (_mix64(x.astype(np.uint64)) % np.uint64(num_parts)).astype(np.int64)


def pagerank(
    edges: "rd.Dataset",
    iters: int = 10,
    scale: int = 10**12,
    src_col: str = "src",
    dst_col: str = "dst",
    mode: str = "auto",
    num_parts: int = 16,
    broadcast_edges_max: int = 20_000_000,
) -> pa.Table:
    """Integer fixed-point PageRank over an edge-list Dataset.

    Multi-edges count multiply (dedup upstream if unwanted). Returns a
    pa.Table (node:int64, r:int64) sorted by node. ``mode`` is
    "broadcast", "sharded" or "auto" (edge-count route; node count is
    bounded by 2×edges, so edge rows proxy the driver-array budget).
    """
    edges = edges.materialize()
    if mode == "auto":
        mode = "sharded" if edges.count() > broadcast_edges_max else "broadcast"
    if mode == "sharded":
        return _pagerank_sharded(edges, iters, scale, src_col, dst_col, num_parts)
    return _pagerank_broadcast(edges, iters, scale, src_col, dst_col)


def _empty_pr() -> pa.Table:
    return pa.table({"node": pa.array([], pa.int64()), "r": pa.array([], pa.int64())})


def _pagerank_broadcast(
    edges: "rd.Dataset", iters: int, scale: int, src_col: str, dst_col: str
) -> pa.Table:
    from hydra_ray.sources.store import ds_to_tables

    # one pass: per-block (src, outdeg partial) + block-unique dst set
    def degree_partial(t: pa.Table) -> pa.Table:
        g = t.group_by([src_col]).aggregate([(src_col, "count")])
        src = g[src_col].combine_chunks()
        cnt = pc.cast(g[f"{src_col}_count"], pa.int64()).combine_chunks()
        dst_u = pc.unique(t[dst_col].combine_chunks())
        n_d = len(dst_u)
        return pa.table(
            {
                "node": pa.concat_arrays([pc.cast(src, pa.int64()), pc.cast(dst_u, pa.int64())]),
                "outdeg": pa.concat_arrays([cnt, pa.nulls(n_d, pa.int64())]),
            }
        )

    parts = [
        t
        for t in ds_to_tables(edges.map_batches(degree_partial, batch_format="pyarrow"))
        if t.num_rows
    ]
    if not parts:
        return _empty_pr()
    merged = pa.concat_tables(parts)
    g = merged.group_by(["node"]).aggregate([("outdeg", "sum")])
    nodes = np.sort(g["node"].to_numpy(zero_copy_only=False).astype(np.int64))
    deg_map = dict(
        zip(
            g["node"].to_numpy(zero_copy_only=False).astype(np.int64),
            pc.fill_null(g["outdeg_sum"], 0).to_numpy(zero_copy_only=False).astype(np.int64),
        )
    )
    outdeg = np.array([deg_map[n] for n in nodes], dtype=np.int64)
    n = len(nodes)
    base = (15 * scale) // (100 * n)
    r = np.full(n, scale // n, dtype=np.int64)

    nodes_ref = ray.put(nodes)

    def contrib_partial(t: pa.Table, *, contrib_ref) -> pa.Table:
        node_arr = ray.get(nodes_ref)
        contrib = ray.get(contrib_ref)
        src = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        di = np.searchsorted(node_arr, dst)
        # exact int64 accumulation (bincount weights go through float64)
        sums = np.zeros(len(node_arr), dtype=np.int64)
        np.add.at(sums, di, contrib[np.searchsorted(node_arr, src)])
        nz = np.nonzero(sums)[0]
        return pa.table(
            {
                "node": pa.array(node_arr[nz], type=pa.int64()),
                "s": pa.array(sums[nz], type=pa.int64()),
            }
        )

    for _ in range(iters):
        # safe floor division: outdeg>0 for every src by construction
        contrib = np.where(outdeg > 0, r // np.maximum(outdeg, 1), 0).astype(np.int64)
        contrib_ref = ray.put(contrib)
        it_parts = [
            t
            for t in ds_to_tables(
                edges.map_batches(
                    contrib_partial,
                    batch_format="pyarrow",
                    fn_kwargs={"contrib_ref": contrib_ref},
                )
            )
            if t.num_rows
        ]
        in_sum = np.zeros(n, dtype=np.int64)
        for t in it_parts:
            idx = np.searchsorted(nodes, t["node"].to_numpy(zero_copy_only=False))
            np.add.at(in_sum, idx, t["s"].to_numpy(zero_copy_only=False).astype(np.int64))
        r = base + (85 * in_sum) // 100

    return pa.table({"node": pa.array(nodes), "r": pa.array(r)})


def _parts_from_blocks(ds: "rd.Dataset", num_parts: int) -> dict[int, list]:
    """{part → [block refs containing rows of that part]} for a Dataset
    carrying an ``_part`` column. Robust to any block↔part layout (a
    sorted block may hold several parts)."""
    from hydra_ray.sources.store import ds_to_table_refs

    @ray.remote
    def probe(t) -> list[int]:
        from hydra_ray.sources.store import block_to_table

        t = block_to_table(t)
        if t.num_rows == 0:
            return []
        return pc.unique(t["_part"]).to_pylist()

    refs = ds_to_table_refs(ds)
    parts_per_block = ray.get([probe.remote(r) for r in refs])
    out: dict[int, list] = {}
    for ref, ps in zip(refs, parts_per_block):
        for p in ps:
            out.setdefault(int(p), []).append(ref)
    return out


@ray.remote
def _pr_shard_edges(p: int, src_col: str, dst_col: str, *blocks) -> tuple:
    """Concat this src-shard's edge rows → (src, dst, outdeg-per-edge)
    numpy arrays. outdeg is shard-locally complete because ALL edges of
    a src live in its shard."""
    from hydra_ray.sources.store import block_to_table

    srcs, dsts = [], []
    for t in blocks:
        t = block_to_table(t)
        if t.num_rows == 0:
            continue
        t = t.filter(pc.equal(t["_part"], p))
        srcs.append(t[src_col].to_numpy(zero_copy_only=False).astype(np.int64))
        dsts.append(t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64))
    src = np.concatenate(srcs) if srcs else np.array([], np.int64)
    dst = np.concatenate(dsts) if dsts else np.array([], np.int64)
    us, counts = np.unique(src, return_counts=True)
    outdeg_per_edge = counts[np.searchsorted(us, src)] if len(src) else np.array([], np.int64)
    return src, dst, outdeg_per_edge.astype(np.int64)


@ray.remote
def _pr_shard_nodes(p: int, *blocks) -> np.ndarray:
    from hydra_ray.sources.store import block_to_table

    parts = []
    for t in blocks:
        t = block_to_table(t)
        if t.num_rows == 0:
            continue
        t = t.filter(pc.equal(t["_part"], p))
        parts.append(t["node"].to_numpy(zero_copy_only=False).astype(np.int64))
    return np.unique(np.concatenate(parts)) if parts else np.array([], np.int64)


def _pagerank_sharded(
    edges: "rd.Dataset", iters: int, scale: int, src_col: str, dst_col: str, num_parts: int
) -> pa.Table:
    P = num_parts

    def add_src_part(t: pa.Table) -> pa.Table:
        src = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("_part", pa.array(_node_part(src, P)))

    edge_parts = _parts_from_blocks(
        edges.map_batches(add_src_part, batch_format="pyarrow").sort("_part"), P
    )

    def node_partial(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = np.unique(np.concatenate([s, d]))
        return pa.table({"node": pa.array(nd), "_part": pa.array(_node_part(nd, P))})

    node_parts = _parts_from_blocks(
        edges.map_batches(node_partial, batch_format="pyarrow").sort("_part"), P
    )
    if not node_parts:
        return _empty_pr()

    # shard-local prep (stays in the object store)
    edge_shards = {
        p: _pr_shard_edges.remote(p, src_col, dst_col, *blocks)
        for p, blocks in edge_parts.items()
    }
    node_shards = {p: _pr_shard_nodes.remote(p, *blocks) for p, blocks in node_parts.items()}

    @ray.remote
    def shard_len(a: np.ndarray) -> int:
        return len(a)

    sizes = ray.get([shard_len.remote(node_shards[p]) for p in sorted(node_shards)])
    n = int(sum(sizes))
    base = (15 * scale) // (100 * n)
    r0 = scale // n
    active = sorted(node_shards)
    edge_active = sorted(edge_shards)

    @ray.remote
    def contrib(shard, nodes_p: np.ndarray, r_p, nparts: int):
        """P per-destination-shard partial tables (node, s) from one
        src shard; r_p=None means iteration 0 (all ranks are r0)."""
        src, dst, outdeg = shard
        if len(src) == 0:
            empty = pa.table({"node": pa.array([], pa.int64()), "s": pa.array([], pa.int64())})
            return tuple(empty for _ in range(nparts)) if nparts > 1 else empty
        if r_p is None:
            rv = np.full(len(nodes_p), r0, dtype=np.int64)
        else:
            rv = r_p
        per_edge = rv[np.searchsorted(nodes_p, src)] // outdeg
        ud, inv = np.unique(dst, return_inverse=True)
        sums = np.zeros(len(ud), dtype=np.int64)
        np.add.at(sums, inv, per_edge)
        dp = _node_part(ud, nparts)
        outs = []
        for q in range(nparts):
            m = dp == q
            outs.append(pa.table({"node": pa.array(ud[m]), "s": pa.array(sums[m])}))
        return tuple(outs) if nparts > 1 else outs[0]

    @ray.remote
    def reduce_shard(nodes_p: np.ndarray, *partials) -> np.ndarray:
        in_sum = np.zeros(len(nodes_p), dtype=np.int64)
        for t in partials:
            if t.num_rows == 0:
                continue
            idx = np.searchsorted(nodes_p, t["node"].to_numpy(zero_copy_only=False))
            np.add.at(in_sum, idx, t["s"].to_numpy(zero_copy_only=False).astype(np.int64))
        return base + (85 * in_sum) // 100

    r_refs: dict[int, object] = {p: None for p in active}
    for _ in range(iters):
        part_refs: dict[int, list] = {p: [] for p in range(P)}
        for q in edge_active:
            outs = contrib.options(num_returns=P if P > 1 else 1).remote(
                edge_shards[q], node_shards[q], r_refs.get(q), P
            )
            if P == 1:
                outs = [outs]
            for p, ref in enumerate(outs):
                part_refs[p].append(ref)
        r_refs = {
            p: reduce_shard.remote(node_shards[p], *part_refs[p]) for p in active
        }

    # final assembly (O(N) result — same driver footprint as the output
    # table itself; at true web scale return the shards as a Dataset)
    @ray.remote
    def assemble(nodes_p: np.ndarray, rp: np.ndarray) -> pa.Table:
        return pa.table({"node": pa.array(nodes_p), "r": pa.array(rp)})

    outs = ray.get([assemble.remote(node_shards[p], r_refs[p]) for p in active])
    return pa.concat_tables(outs).combine_chunks().sort_by("node")


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def triangle_count(
    edges: "rd.Dataset",
    src_col: str = "src",
    dst_col: str = "dst",
    mode: str = "auto",
    num_parts: int = 32,
    broadcast_nodes_max: int = 30_000,
) -> pa.Table:
    """Global triangle count over an undirected graph given as a
    directed edge-list Dataset (self-loops dropped, direction and
    multi-edges collapsed to one canonical (min, max) edge).

    Two shapes, auto-routed on node count, pinned equal by test:

    - **broadcast** (≤ broadcast_nodes_max nodes): adjacency BITSETS —
      the N×⌈N/8⌉ bit-matrix broadcasts once; each edge block computes
      Σ |N(u) ∩ N(v) ∩ {w > v}| with one numpy AND + an ARITHMETIC
      greater-than byte mask derived per row from v's index (no second
      N²/8 matrix, no O(N²) driver loop).
    - **sharded** (the scale path): degree-ordered orientation (rank =
      (deg, id); every edge points low→high rank, so deg⁺ ≤ O(√m) and
      total wedges ≤ O(m^1.5)), wedge generation per src-co-partition,
      and a co-partitioned wedge⋈edge semi-join count — no global node
      array, no N² state anywhere.

    Returns a one-row table (n_nodes, n_edges, n_triangles).
    """
    from hydra_ray.stages.agg import grouped_agg

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = s != d
        s, d = s[keep], d[keep]
        u = np.minimum(s, d)
        v = np.maximum(s, d)
        return pa.table({"u": pa.array(u), "v": pa.array(v)})

    dedup = (
        grouped_agg(
            edges.map_batches(canon, batch_format="pyarrow"), ["u", "v"], [("u", "count", "_n")]
        )
        .drop_columns(["_n"])
        .materialize()
    )
    n_edges = dedup.count()
    if n_edges == 0:
        return pa.table(
            {"n_nodes": pa.array([0], pa.int64()), "n_edges": pa.array([0], pa.int64()),
             "n_triangles": pa.array([0], pa.int64())}
        )

    # undirected degree per node (needed by the sharded orientation;
    # cheap distributed aggregate, also gives n_nodes for the route)
    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": pa.concat_arrays([t["u"].combine_chunks(), t["v"].combine_chunks()])}
        )

    deg = grouped_agg(
        dedup.map_batches(endpoints, batch_format="pyarrow"), ["node"], [("node", "count", "deg")]
    ).materialize()
    n_nodes = deg.count()

    if mode == "auto":
        mode = "sharded" if n_nodes > broadcast_nodes_max else "broadcast"
    if mode == "sharded":
        tri = _triangles_sharded(dedup, deg, num_parts)
    else:
        tri = _triangles_broadcast(dedup)
    return pa.table(
        {
            "n_nodes": pa.array([n_nodes], pa.int64()),
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_triangles": pa.array([tri], pa.int64()),
        }
    )


def _triangles_broadcast(dedup: "rd.Dataset") -> int:
    from hydra_ray.sources.store import ds_to_tables

    parts = [t for t in ds_to_tables(dedup) if t.num_rows]
    all_e = pa.concat_tables(parts).combine_chunks()
    u = all_e["u"].to_numpy(zero_copy_only=False).astype(np.int64)
    v = all_e["v"].to_numpy(zero_copy_only=False).astype(np.int64)
    nodes = np.unique(np.concatenate([u, v]))
    n = len(nodes)
    width = (n + 7) // 8
    bits = np.zeros((n, width), dtype=np.uint8)
    ui = np.searchsorted(nodes, u)
    vi = np.searchsorted(nodes, v)
    for a, b in ((ui, vi), (vi, ui)):  # undirected adjacency
        np.bitwise_or.at(bits, (a, b // 8), (1 << (b % 8)).astype(np.uint8))
    bits_ref = ray.put(bits)
    nodes_ref = ray.put(nodes)

    def count_partial(t: pa.Table) -> pa.Table:
        b = ray.get(bits_ref)
        nd = ray.get(nodes_ref)
        eu = np.searchsorted(nd, t["u"].to_numpy(zero_copy_only=False))
        ev = np.searchsorted(nd, t["v"].to_numpy(zero_copy_only=False))
        rows = b[eu] & b[ev]
        # arithmetic gt-mask: keep only bit positions strictly > ev —
        # full bytes past ev's byte, a shifted partial byte at it
        w = rows.shape[1]
        byte_idx = np.arange(w, dtype=np.int64)[None, :]
        q = (ev // 8)[:, None]
        partial = (((0xFF << ((ev % 8) + 1)) & 0xFF).astype(np.uint8))[:, None]
        mask = np.where(byte_idx > q, np.uint8(0xFF), np.uint8(0))
        mask = np.where(byte_idx == q, partial, mask)
        total = int(_POP8[rows & mask].sum())
        return pa.table({"c": pa.array([total], pa.int64())})

    c_parts = [
        t
        for t in ds_to_tables(dedup.map_batches(count_partial, batch_format="pyarrow"))
        if t.num_rows
    ]
    return sum(int(pc.sum(t["c"]).as_py() or 0) for t in c_parts)


def _triangles_sharded(dedup: "rd.Dataset", deg: "rd.Dataset", num_parts: int) -> int:
    """Degree-ordered wedge semi-join; every stage a co-partitioned
    vectorized UDF (stages/keyed.py shape), no global node state."""
    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.keyed import keyed_map_partitions_arrow

    I64 = pa.int64()

    def tag_edges_u(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "k": t["u"],
                "u": t["u"],
                "v": t["v"],
                "dv": t["du"] if "du" in t.column_names else pa.nulls(n, I64),
                "d": pa.nulls(n, I64),
                "kind": pa.array(np.zeros(n, np.int64)),
            }
        )

    def tag_deg(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "k": t["node"],
                "u": pa.nulls(n, I64),
                "v": pa.nulls(n, I64),
                "dv": pa.nulls(n, I64),
                "d": pc.cast(t["deg"], I64),
                "kind": pa.array(np.ones(n, np.int64)),
            }
        )

    def attach(t: pa.Table) -> pa.Table:
        """Per k-co-partition: join deg rows (kind=1) onto edge rows
        (kind=0) by k; the attached degree lands in column 'dk'."""
        kind = t["kind"].to_numpy(zero_copy_only=False)
        dt = t.filter(pa.array(kind == 1))
        et = t.filter(pa.array(kind == 0))
        if et.num_rows == 0:
            return pa.table(
                {"u": pa.array([], I64), "v": pa.array([], I64),
                 "dv": pa.array([], I64), "dk": pa.array([], I64)}
            )
        kd = dt["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        dd = dt["d"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(kd)
        kd, dd = kd[o], dd[o]
        ke = et["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        dk = dd[np.searchsorted(kd, ke)]
        return pa.table(
            {
                "u": et["u"],
                "v": et["v"],
                "dv": et["dv"],
                "dk": pa.array(dk),
            }
        )

    deg_u = keyed_map_partitions_arrow(
        dedup.map_batches(tag_edges_u, batch_format="pyarrow").union(
            deg.map_batches(tag_deg, batch_format="pyarrow")
        ),
        ["k"],
        attach,
        num_parts,
    ).map_batches(
        lambda t: pa.table({"u": t["u"], "v": t["v"], "du": t["dk"]}), batch_format="pyarrow"
    )

    def tag_edges_v(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "k": t["v"],
                "u": t["u"],
                "v": t["v"],
                "dv": t["du"],  # carries du through the second join
                "d": pa.nulls(n, I64),
                "kind": pa.array(np.zeros(n, np.int64)),
            }
        )

    both = keyed_map_partitions_arrow(
        deg_u.map_batches(tag_edges_v, batch_format="pyarrow").union(
            deg.map_batches(tag_deg, batch_format="pyarrow")
        ),
        ["k"],
        attach,
        num_parts,
    )

    # orient low-rank → high-rank, rank = (deg, id): a star center has
    # high rank, so its wedges are generated by its (many, small) leaf
    # neighborhoods — deg⁺(x) ≤ O(√m), total wedges ≤ O(m^1.5)
    def orient(t: pa.Table) -> pa.Table:
        u = t["u"].to_numpy(zero_copy_only=False).astype(np.int64)
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.int64)
        du = t["dv"].to_numpy(zero_copy_only=False).astype(np.int64)  # carried du
        dk = t["dk"].to_numpy(zero_copy_only=False).astype(np.int64)  # dv from join
        swap = (dk < du) | ((dk == du) & (v < u))
        a = np.where(swap, v, u)
        b = np.where(swap, u, v)
        db = np.where(swap, du, dk)
        return pa.table({"a": pa.array(a), "b": pa.array(b), "db": pa.array(db)})

    oriented = both.map_batches(orient, batch_format="pyarrow").materialize()

    def wedges(t: pa.Table) -> pa.Table:
        """Per a-co-partition: all rank-ordered pairs (b1, b2) within
        each N⁺(a) — fully vectorized C(d,2) emission across groups."""
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        db = t["db"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((b, db, a))  # groups by a; rank-sorted within
        a, b = a[order], b[order]
        m = len(a)
        if m == 0:
            return pa.table({"x": pa.array([], I64), "y": pa.array([], I64)})
        starts = np.concatenate([[0], np.nonzero(np.diff(a))[0] + 1])
        counts = np.diff(np.concatenate([starts, [m]]))
        li = np.arange(m) - np.repeat(starts, counts)
        reps = np.repeat(counts, counts) - 1 - li  # pairs started per row
        first = np.repeat(np.arange(m), reps)
        cum = np.concatenate([[0], np.cumsum(reps)])
        total = int(cum[-1])
        second = first + 1 + (np.arange(total) - np.repeat(cum[:-1], reps))
        return pa.table({"x": pa.array(b[first]), "y": pa.array(b[second])})

    w = keyed_map_partitions_arrow(oriented, ["a"], wedges, num_parts)

    def tag_pair(kind: int):
        def f(t: pa.Table) -> pa.Table:
            cols = ("a", "b") if kind == 0 else ("x", "y")
            n = t.num_rows
            return pa.table(
                {
                    "x": t[cols[0]],
                    "y": t[cols[1]],
                    "kind": pa.array(np.full(n, kind, np.int64)),
                }
            )

        return f

    def count(t: pa.Table) -> pa.Table:
        """Per (x,y)-co-partition: wedge rows whose pair is an edge."""
        import pandas as pd

        df = t.to_pandas()
        e = df[df["kind"] == 0][["x", "y"]]
        wdf = df[df["kind"] == 1][["x", "y"]]
        if len(e) == 0 or len(wdf) == 0:
            c = 0
        else:
            c = len(wdf.merge(e.drop_duplicates(), on=["x", "y"], how="inner"))
        return pa.table({"c": pa.array([c], I64)})

    counted = keyed_map_partitions_arrow(
        oriented.map_batches(tag_pair(0), batch_format="pyarrow").union(
            w.map_batches(tag_pair(1), batch_format="pyarrow")
        ),
        ["x", "y"],
        count,
        num_parts,
    )
    return sum(
        int(pc.sum(t["c"]).as_py() or 0) for t in ds_to_tables(counted) if t.num_rows
    )
