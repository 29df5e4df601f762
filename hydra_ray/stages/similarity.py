"""Similarity search over an embedding column (list<float>).

``nn_all`` is the exact baseline: the normalized matrix is broadcast
once (``ray.put``) and each ``map_batches`` block computes a
double-precision matmul against it, keeping every row's top-1; above
``BRUTE_FORCE_MAX_ROWS`` rows it routes to ``knn_ivf``. The
partitioned approximate paths are IVF (k-means buckets), PQ
(product-quantized codes) and HNSW graph shards.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from hydra_ray.functions.hashing import _mix64


def _matrix_of(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    arr = batch[col]
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // len(batch) if len(batch) else 0
    return flat.reshape(len(batch), dim)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


BRUTE_FORCE_MAX_ROWS = 2_000_000  # above: nn_all auto-routes to IVF


def nn_all(
    ds: "rd.Dataset",
    id_col: str = "vec_id",
    emb_col: str = "embedding",
    brute_force_max: int = BRUTE_FORCE_MAX_ROWS,
) -> pa.Table:
    """Top-1 neighbor for every vector (self-join shape).

    Below ``brute_force_max`` rows the full normalized matrix is
    broadcast and the answer is exact. Above it the corpus cannot be
    a broadcast self-join — the call auto-routes to the IVF variant
    (``knn_ivf``: k-means buckets + nprobe exact re-rank), the
    approximate-but-partitioned 100-TB path.
    """
    mat_ds = ds.materialize()
    if mat_ds.count() > brute_force_max:
        out = knn_ivf(mat_ds, k=1, id_col=id_col, emb_col=emb_col)
        from hydra_ray.sources.store import ds_to_tables

        return pa.concat_tables(ds_to_tables(out), promote_options="default")
    ds = mat_ds
    full = ds.select_columns([id_col, emb_col]).to_pandas()
    ids_all = full[id_col].to_numpy().astype(np.int64)
    mat = np.stack(full[emb_col].to_numpy()).astype(np.float64)
    mat = _normalize(mat)
    ref = ray.put((ids_all, mat))

    def local(batch: pa.Table) -> pa.Table:
        ids_a, m_all = ray.get(ref)
        m = _normalize(_matrix_of(batch, emb_col))
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sims = m @ m_all.T
        # mask self (ids are unique)
        for r, i in enumerate(ids):
            sims[r, ids_a == i] = -np.inf
        # argmax with ascending-id tie-break via lexsort per row
        best = np.empty(len(ids), dtype=np.int64)
        best_sim = np.empty(len(ids), dtype=np.float64)
        for r in range(len(ids)):
            order = np.lexsort((ids_a, -sims[r]))
            best[r] = ids_a[order[0]]
            best_sim[r] = sims[r][order[0]]
        return pa.table(
            {
                "vec_id": pa.array(ids),
                "nn_id": pa.array(best),
                "sim": pa.array(np.round(best_sim, 6)),
            }
        )

    from hydra_ray.sources.store import ds_to_tables

    return pa.concat_tables(
        ds_to_tables(ds.map_batches(local, batch_format="pyarrow")),
        promote_options="default",
    )


# ---------------------------------------------------------------------------
# IVF (k-means inverted file) variant — the default scale path
# ---------------------------------------------------------------------------


def kmeans_centroids(mat: np.ndarray, k: int, iters: int = 10, seed: int = 3) -> np.ndarray:
    """Deterministic spherical k-means over normalized rows: seeded
    initial pick via the splitmix64 mixer, cosine assignment, mean +
    renormalize updates. Runs on a bounded driver-side SAMPLE only."""
    mat = _normalize(mat.astype(np.float64))
    pick = np.argsort(_mix64(np.arange(len(mat), dtype=np.uint64) + np.uint64(seed * 7919)))
    cents = mat[pick[:k]].copy()
    for _ in range(iters):
        assign = (cents @ mat.T).argmax(axis=0)
        for c in range(k):
            pts = mat[assign == c]
            if len(pts):
                cents[c] = pts.mean(axis=0)
        cents = _normalize(cents)
    return cents


def knn_ivf(
    ds: "rd.Dataset",
    k: int = 1,
    n_centroids: int = 8,
    nprobe: int = 4,
    sample_rows: int = 10_000,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> "rd.Dataset":
    """Approximate all-pairs NN via an IVF index, fully distributed.

    Centroids are trained on a bounded sample (driver); every vector
    is then emitted once as a MEMBER of its primary centroid's list and
    ``nprobe`` times as a PROBE of its nearest centroid lists. Lists
    are co-partitioned by centroid id; per list an exact cosine re-rank
    scores probes against members, and a final per-vector reduction
    keeps the global top-k. Recall is tuned by (n_centroids, nprobe);
    the per-list work is corpus_size/n_centroids — the sub-quadratic
    scale path (public IVF design; Jégou et al., PAMI 2011).
    """
    from hydra_ray.stages.keyed import keyed_map_partitions

    sample = ds.limit(sample_rows).to_pandas()
    cents = kmeans_centroids(np.stack(sample[emb_col].to_numpy()), n_centroids)
    cents_ref = ray.put(cents)

    def emit(t: pa.Table) -> pa.Table:
        c = ray.get(cents_ref)
        m = _normalize(_matrix_of(t, emb_col))
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(-(m @ c.T), axis=1, kind="stable")
        n, probes = len(ids), min(nprobe, c.shape[0])
        # role 0 = member of the primary list; role 1 = probe copy
        cent = np.concatenate([order[:, 0]] + [order[:, p] for p in range(probes)])
        vid = np.concatenate([ids] * (probes + 1))
        role = np.concatenate([np.zeros(n, np.int8), np.ones(n * probes, np.int8)])
        emb = np.concatenate([m] * (probes + 1), axis=0)
        return pa.table(
            {
                "cent": pa.array(cent.astype(np.int32)),
                id_col: pa.array(vid),
                "role": pa.array(role),
                emb_col: pa.FixedSizeListArray.from_arrays(
                    pa.array(emb.reshape(-1)), emb.shape[1]
                ),
            }
        )

    listed = ds.map_batches(emit, batch_format="pyarrow")

    def per_list(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "vec_id": pd.Series(dtype="int64"),
                "nn_id": pd.Series(dtype="int64"),
                "sim": pd.Series(dtype="float64"),
            }
        )
        out = []
        for _, lst in g.groupby("cent", sort=False):
            mem = lst[lst["role"] == 0]
            prb = lst[lst["role"] == 1]
            if mem.empty or prb.empty:
                continue
            mm = np.stack(mem[emb_col].to_numpy())
            pm = np.stack(prb[emb_col].to_numpy())
            mids = mem[id_col].to_numpy().astype(np.int64)
            pids = prb[id_col].to_numpy().astype(np.int64)
            sims = pm @ mm.T
            sims[pids[:, None] == mids[None, :]] = -np.inf  # mask self
            kk = min(k, sims.shape[1])
            for r in range(len(pids)):
                order = np.lexsort((mids, -sims[r]))[:kk]
                for j in order:
                    if np.isfinite(sims[r, j]):
                        out.append((int(pids[r]), int(mids[j]), float(sims[r, j])))
        if not out:
            return empty
        return pd.DataFrame(out, columns=["vec_id", "nn_id", "sim"])

    cands = keyed_map_partitions(listed, ["cent"], per_list, num_parts=max(8, n_centroids))

    def global_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["vec_id", "sim", "nn_id"], ascending=[True, False, True], kind="mergesort")
        df = df.drop_duplicates(["vec_id", "nn_id"])
        rn = df.groupby("vec_id", sort=False).cumcount()
        df = df[rn < k].copy()
        df["sim"] = df["sim"].round(6)
        return df

    return keyed_map_partitions(cands, ["vec_id"], global_topk)


# ---------------------------------------------------------------------------
# Product quantization (PQ) ANN — Jégou, Douze & Schmid, PAMI 2011
# ---------------------------------------------------------------------------


def pq_train(mat: np.ndarray, m: int = 8, ks: int = 16, iters: int = 10, seed: int = 11) -> np.ndarray:
    """Per-subspace L2 k-means codebooks: (m, ks, d/m), deterministic
    (seeded splitmix64 init, fixed iteration count). Runs on a bounded
    driver-side SAMPLE — same contract as `kmeans_centroids`."""
    mat = _normalize(mat.astype(np.float64))
    n, d = mat.shape
    if n == 0:
        raise ValueError("pq_train: empty training sample")
    assert d % m == 0, f"dim {d} not divisible by m={m}"
    ks = min(ks, n)  # fancy indexing would silently shorten the pick
    dsub = d // m
    books = np.empty((m, ks, dsub), dtype=np.float64)
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        pick = np.argsort(_mix64(np.arange(n, dtype=np.uint64) + np.uint64((seed + j) * 7919)))
        cents = sub[pick[:ks]].copy()
        for _ in range(iters):
            # |x-c|^2 = |x|^2 + |c|^2 - 2 x·c ; |x|^2 constant per row
            d2 = (cents * cents).sum(axis=1)[None, :] - 2.0 * (sub @ cents.T)
            assign = d2.argmin(axis=1)
            for c in range(ks):
                pts = sub[assign == c]
                if len(pts):
                    cents[c] = pts.mean(axis=0)
        books[j] = cents
    return books


def pq_encode_batch(batch: pa.Table, books: np.ndarray, id_col: str = "vec_id", emb_col: str = "embedding") -> pa.Table:
    """Vector → m uint8 code indices (nearest centroid per subspace)."""
    m, ks, dsub = books.shape
    mat = _normalize(_matrix_of(batch, emb_col))
    codes = np.empty((len(mat), m), dtype=np.uint8)
    for j in range(m):
        sub = mat[:, j * dsub : (j + 1) * dsub]
        d2 = (books[j] * books[j]).sum(axis=1)[None, :] - 2.0 * (sub @ books[j].T)
        codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
    return pa.table(
        {
            id_col: batch[id_col],
            "code": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.reshape(-1), type=pa.uint8()), m
            ),
        }
    )


def knn_pq(
    ds: "rd.Dataset",
    k: int = 1,
    m: int = 16,
    ks: int = 64,
    refine: int = 32,
    sample_rows: int = 10_000,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> "rd.Dataset":
    """All-pairs approximate NN via product quantization with
    asymmetric distance computation (ADC).

    The corpus is COMPRESSED to m bytes per vector (64-float → 8-byte
    codes = 32× less broadcast state than raw vectors) and shipped once
    via the object store; each query block then builds per-query
    distance tables against the codebooks ((ks·m) float ops per query)
    and scans the code matrix with numpy gathers — no shuffle at all.
    The scan is TILED along the corpus axis with a running top-R
    shortlist per query, so peak scan memory is Q×tile, never Q×N.
    This is the classic memory-bound ANN scale path: at 10^9 vectors
    16-byte codes are ~16 GB (fits one node's object store) while raw
    float vectors would be 256 GB. The ADC scan keeps a
    ``refine``-sized shortlist per query which is re-ranked EXACTLY
    against a float32 refine store (IVFADC+R shape, Jégou et al. 2011
    §V) — here broadcast alongside the codes; at corpus sizes where
    even fp32 won't broadcast, the shortlist re-rank becomes a keyed
    join against the partitioned raw table (stages/keyed.py) and the
    scan math is unchanged. Knobs: (m, ks, refine) — defaults hit
    recall@1 ≈ 0.98 on uniform 64-dim vectors (the adversarial case;
    clustered real embeddings do better). Self-matches are masked;
    L2-on-normalized ranking == cosine ranking.
    """
    from hydra_ray.sources.store import ds_to_tables

    ds = ds.materialize()  # sample, encode, refine and scan all read it
    sample = ds.limit(sample_rows).to_pandas()
    books = pq_train(np.stack(sample[emb_col].to_numpy()), m=m, ks=ks)
    books_ref = ray.put(books)

    enc = ds.map_batches(
        lambda t: pq_encode_batch(t, ray.get(books_ref), id_col, emb_col),
        batch_format="pyarrow",
    )
    code_tables = [t for t in ds_to_tables(enc) if t.num_rows]
    codes_all = pa.concat_tables(code_tables).combine_chunks()
    corpus_ids = codes_all[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    corpus_codes = np.stack(codes_all["code"].to_numpy(zero_copy_only=False)).astype(np.uint8)
    corpus_ref = ray.put((corpus_ids, corpus_codes))

    # fp32 refine store for the exact shortlist re-rank, aligned to
    # corpus_ids order (block order of the code pass is not guaranteed
    # to match a second pass, so align by id)
    raw_tables = [t for t in ds_to_tables(ds) if t.num_rows]
    raw_all = pa.concat_tables(raw_tables).combine_chunks()
    raw_ids = raw_all[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    raw_mat = _normalize(_matrix_of(raw_all, emb_col)).astype(np.float32)
    order = np.argsort(raw_ids)
    align = order[np.searchsorted(raw_ids[order], corpus_ids)]
    refine_ref = ray.put(raw_mat[align])

    def scan(t: pa.Table) -> pa.Table:
        cids, ccodes = ray.get(corpus_ref)
        bk = ray.get(books_ref)
        mm, kks, dsub = bk.shape
        q = _normalize(_matrix_of(t, emb_col))
        qids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nq, nc = len(q), len(cids)
        # per-query distance LUTs: (Q, m, ks) — built once per block
        luts = np.empty((nq, mm, kks), dtype=np.float64)
        for j in range(mm):
            sub = q[:, j * dsub : (j + 1) * dsub]
            luts[:, j, :] = (bk[j] * bk[j]).sum(axis=1)[None, :] - 2.0 * (sub @ bk[j].T)
        # tile the corpus-code axis with a running top-R shortlist per
        # query — peak memory is Q×tile, never Q×N (a 4k-row block vs a
        # 10^9 corpus would otherwise be a ~32 TB matrix)
        R = min(refine, nc - 1)
        tile = max(R + 1, min(nc, (1 << 24) // max(1, nq)))
        run_d = np.full((nq, 0), np.inf)
        run_i = np.zeros((nq, 0), dtype=np.int64)
        for c0 in range(0, nc, tile):
            c1 = min(c0 + tile, nc)
            dist = np.zeros((nq, c1 - c0), dtype=np.float64)
            for j in range(mm):
                dist += luts[:, j, :][np.arange(nq)[:, None], ccodes[c0:c1, j][None, :]]
            dist[qids[:, None] == cids[None, c0:c1]] = np.inf  # mask self
            rt = min(R, c1 - c0)
            sel = np.argpartition(dist, rt - 1, axis=1)[:, :rt]
            cat_d = np.concatenate([run_d, np.take_along_axis(dist, sel, axis=1)], axis=1)
            cat_i = np.concatenate([run_i, sel + c0], axis=1)
            if cat_d.shape[1] > R:
                keep = np.argpartition(cat_d, R - 1, axis=1)[:, :R]
                run_d = np.take_along_axis(cat_d, keep, axis=1)
                run_i = np.take_along_axis(cat_i, keep, axis=1)
            else:
                run_d, run_i = cat_d, cat_i
        cand = run_i  # (Q, R) global corpus indices, ADC top-R
        # exact re-rank of the shortlist (float32 refine store)
        ref = ray.get(refine_ref)
        cs = np.einsum("qd,qrd->qr", q.astype(np.float32), ref[cand])
        cs = np.where(np.isinf(run_d), -np.inf, cs).astype(np.float64)
        # the shortlist holds only R candidates, so at most R neighbors
        # exist per query — clamp (k > refine would otherwise silently
        # truncate; callers wanting full k must pass refine >= k)
        kk = min(k, nc - 1, R)
        cand_ids = cids[cand]
        if kk == 1:
            # vectorized top-1 with deterministic smallest-id tie-break
            best = cs.max(axis=1, keepdims=True)
            tied = np.where(cs == best, cand_ids, np.iinfo(np.int64).max)
            nn = tied.min(axis=1)
            return pa.table(
                {
                    "vec_id": pa.array(qids),
                    "nn_id": pa.array(nn),
                    "sim": pa.array(np.round(best[:, 0], 6)),
                }
            )
        rows = []
        for r in range(len(qids)):
            order = np.lexsort((cand_ids[r], -cs[r]))[:kk]
            for j in order:
                rows.append((int(qids[r]), int(cand_ids[r, j]), round(float(cs[r, j]), 6)))
        return pa.table(
            {
                "vec_id": pa.array([a for a, _, _ in rows], pa.int64()),
                "nn_id": pa.array([b for _, b, _ in rows], pa.int64()),
                "sim": pa.array([c for _, _, c in rows], pa.float64()),
            }
        )

    return ds.map_batches(scan, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# HNSW (graph-based ANN; Malkov & Yashunin 2016), sharded across actors
# ---------------------------------------------------------------------------


class _HnswGraph:
    """In-memory HNSW over unit-normalized vectors (cosine via dot).

    Pure numpy + heap implementation of the public algorithm: greedy
    descent through the upper layers, ef-bounded best-first search at
    each level, bidirectional links pruned to M (2M at level 0) by the
    simple nearest-first heuristic. Levels come from a seeded
    exponential draw on splitmix64(id), so the structure depends only
    on the (id, vector) multiset, not on thread timing."""

    def __init__(self, ids: np.ndarray, vecs: np.ndarray, m: int = 8, ef_construction: int = 64):
        self.ids = ids.astype(np.int64)
        self.vecs = vecs  # already unit-normalized
        self.m = m
        self.m0 = 2 * m
        self.efc = ef_construction
        n = len(ids)
        # deterministic level per element: floor(-ln(u) * mL)
        u = (_mix64(self.ids.astype(np.uint64) + np.uint64(0x9E3779B9)).astype(np.float64) + 1.0) / 2.0**64
        ml = 1.0 / np.log(max(m, 2))
        self.levels = np.floor(-np.log(u) * ml).astype(np.int64)
        self.max_level = int(self.levels.max()) if n else 0
        # adjacency: neighbors[level][node] -> list[int] (local indices)
        self.neighbors: list[list[list[int]]] = [
            [[] for _ in range(n)] for _ in range(self.max_level + 1)
        ]
        self.entry = -1
        for i in range(n):
            self._insert(i)

    def _search_layer(self, q: np.ndarray, entry: int, ef: int, level: int) -> list[tuple[float, int]]:
        """Best-first search; returns up to ef (−sim, node) heap items."""
        import heapq

        d0 = float(self.vecs[entry] @ q)
        visited = {entry}
        cand = [(-d0, entry)]  # max-heap on sim via negation
        best: list[tuple[float, int]] = [(d0, entry)]  # min-heap on sim
        adj = self.neighbors[level]
        while cand:
            negd, c = heapq.heappop(cand)
            if -negd < best[0][0] and len(best) >= ef:
                break
            nbrs = [x for x in adj[c] if x not in visited]
            if not nbrs:
                continue
            visited.update(nbrs)
            sims = self.vecs[nbrs] @ q
            for x, s in zip(nbrs, sims):
                s = float(s)
                if len(best) < ef or s > best[0][0]:
                    heapq.heappush(cand, (-s, x))
                    heapq.heappush(best, (s, x))
                    if len(best) > ef:
                        heapq.heappop(best)
        return best

    def _select(self, cands: list[tuple[float, int]], m: int) -> list[int]:
        return [x for _, x in sorted(cands, key=lambda t: (-t[0], t[1]))[:m]]

    def _insert(self, i: int):
        lvl = int(self.levels[i])
        if self.entry < 0:
            self.entry = i
            return
        q = self.vecs[i]
        ep = self.entry
        top = int(self.levels[self.entry])
        for level in range(top, lvl, -1):
            if level <= self.max_level:
                best = self._search_layer(q, ep, 1, level)
                ep = max(best)[1]
        for level in range(min(lvl, top), -1, -1):
            cands = self._search_layer(q, ep, self.efc, level)
            m = self.m0 if level == 0 else self.m
            sel = self._select(cands, m)
            adj = self.neighbors[level]
            adj[i] = list(sel)
            for x in sel:
                lst = adj[x]
                lst.append(i)
                if len(lst) > m:
                    sims = self.vecs[lst] @ self.vecs[x]
                    keep = self._select(list(zip(sims.tolist(), lst)), m)
                    adj[x] = keep
            ep = max(cands)[1]
        if lvl > int(self.levels[self.entry]):
            self.entry = i

    def search(self, q: np.ndarray, k: int, ef: int, exclude_id: int | None = None) -> list[tuple[int, float]]:
        """Top-k (global id, sim) for one unit query vector."""
        if self.entry < 0:
            return []
        ep = self.entry
        for level in range(int(self.levels[self.entry]), 0, -1):
            best = self._search_layer(q, ep, 1, level)
            ep = max(best)[1]
        best = self._search_layer(q, ep, max(ef, k + 1), 0)
        out = []
        for s, x in sorted(best, key=lambda t: (-t[0], self.ids[t[1]])):
            gid = int(self.ids[x])
            if exclude_id is not None and gid == exclude_id:
                continue
            out.append((gid, float(s)))
            if len(out) == k:
                break
        return out


class _HnswShard:
    """One corpus shard: builds a local HNSW in the actor heap, answers
    batched queries against it (wrapped with ray.remote in knn_hnsw)."""

    def __init__(self, refs: list, m: int, efc: int, id_col: str, emb_col: str):
        from hydra_ray.sources.store import block_to_table

        ids_l, mats = [], []
        for blk in ray.get(list(refs)):
            t = block_to_table(blk)
            if not t.num_rows:
                continue
            ids_l.append(t[id_col].to_numpy(zero_copy_only=False).astype(np.int64))
            mats.append(_normalize(_matrix_of(t, emb_col)))
        if ids_l:
            ids = np.concatenate(ids_l)
            vecs = np.concatenate(mats, axis=0)
            order = np.argsort(ids, kind="stable")  # block-split invariant
            self.graph = _HnswGraph(ids[order], vecs[order], m=m, ef_construction=efc)
        else:
            self.graph = None

    def query(self, qids: np.ndarray, qm: np.ndarray, k: int, ef: int):
        if self.graph is None:
            return None
        out = []
        for qid, q in zip(qids, qm):
            for gid, s in self.graph.search(q, k, ef, exclude_id=int(qid)):
                out.append((int(qid), gid, s))
        if not out:
            return None
        return pa.table(
            {
                "vec_id": pa.array([r[0] for r in out], type=pa.int64()),
                "nn_id": pa.array([r[1] for r in out], type=pa.int64()),
                "sim": pa.array([r[2] for r in out], type=pa.float64()),
            }
        )


def knn_hnsw(
    ds: "rd.Dataset",
    k: int = 1,
    m: int = 8,
    ef_construction: int = 64,
    ef_search: int = 48,
    query_batch_rows: int = 4096,
    id_col: str = "vec_id",
    emb_col: str = "embedding",
) -> pd.DataFrame:
    """Approximate all-pairs NN via SHARDED HNSW graphs — the graph-ANN
    alternative to knn_ivf/knn_pq (Malkov & Yashunin 2016, the public
    algorithm; no reference-engine counterpart — LLM-curation surface).

    Scale shape: the corpus is split into block-aligned shards, one
    stateful actor per shard builds an independent HNSW over its
    vectors in ``__init__`` (graph memory = shard size × M ids);
    queries fan out to every shard from inside ``map_batches`` tasks
    (the driver never touches an embedding byte), and because ALL
    shards' answers for a query land in the task that owns it, the
    global top-k merge happens right there — no shuffle. This is the
    standard sharded-HNSW serving layout: each shard answers its local
    approximate top-k and wire volume is queries × shards × k rows.
    Shards are capped at half the cluster CPUs so the blocking query
    tasks can never starve the actor pool. Recall is gated (not
    structure): see q_knn_hnsw."""
    from hydra_ray.sources.store import cpu_slots, ds_to_table_refs

    refs = ds_to_table_refs(ds)
    n_shards = max(1, min(len(refs), cpu_slots() // 2, 8))
    shard_refs: list[list] = [[] for _ in range(n_shards)]
    for i, r in enumerate(refs):
        shard_refs[i % n_shards].append(r)
    shard_cls = ray.remote(num_cpus=1)(_HnswShard)
    actors = [
        shard_cls.remote(rs, m, ef_construction, id_col, emb_col) for rs in shard_refs
    ]

    def query_block(t: pa.Table) -> pa.Table:
        parts: list[pa.Table] = []
        for s in range(0, t.num_rows, query_batch_rows):
            sl = t.slice(s, query_batch_rows)
            qids = sl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            qm = _normalize(_matrix_of(sl, emb_col))
            outs = ray.get([a.query.remote(qids, qm, k, ef_search) for a in actors])
            parts.extend(o for o in outs if o is not None)
        if not parts:
            return pa.table(
                {
                    "vec_id": pa.array([], type=pa.int64()),
                    "nn_id": pa.array([], type=pa.int64()),
                    "sim": pa.array([], type=pa.float64()),
                }
            )
        # all shards answered for these queries: merge top-k locally
        df = pa.concat_tables(parts).to_pandas()
        df = df.sort_values(
            ["vec_id", "sim", "nn_id"], ascending=[True, False, True], kind="mergesort"
        )
        df = df.drop_duplicates(["vec_id", "nn_id"])
        rn = df.groupby("vec_id", sort=False).cumcount()
        df = df[rn < k].reset_index(drop=True)
        df["sim"] = df["sim"].round(6)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (
        rd.from_arrow_refs(refs)
        .map_batches(query_block, batch_format="pyarrow")
        .to_pandas()
    )
    for a in actors:
        ray.kill(a)
    return out
