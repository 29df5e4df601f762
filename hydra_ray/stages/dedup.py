"""Deduplication stages: exact, MinHash+LSH, passage / paragraph /
character-span dedup, decontamination and exact set-similarity joins.

Training-data operators (north-rule additions). Shapes follow the
public MinHash/LSH literature (Broder '97; Leskovec-Rajaraman-Ullman
ch.3) expressed as Ray Data pipelines:

  exact     : content-hash in map_batches → groupby(hash) → keep min id
  minhash   : shingle→minhash sig per batch → explode to (band, band
              hash, doc) rows → groupby bands → candidate pairs, one
              row per colliding band → keep each pair once (its lowest
              colliding band) → verify true Jaccard → pairs above
              threshold

All hashing uses the deterministic splitmix64 mixer (functions/hashing.py)
so results are parallelism-invariant.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from hydra_ray.functions.hashing import _mix64

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def content_hash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch[text_col].to_pylist()
    h = [hashlib.md5((t or "").encode("utf-8", "surrogateescape")).hexdigest() for t in texts]
    return batch.append_column("content_hash", pa.array(h, type=pa.string()))


def dedup_exact(ds: "rd.Dataset", id_col: str = "doc_id", text_col: str = "text") -> "rd.Dataset":
    """Keep the min-id row per identical text; adds n_dupes.

    Only (id, content_hash) rows enter the shuffle — document bytes
    stay in the map stage. The per-key keep-first reduction runs
    vectorized once per key-co-located block (stages/keyed.py), not
    once per tiny group.
    """
    from hydra_ray.stages.keyed import keyed_map_partitions

    hashed = ds.map_batches(
        lambda t: content_hash_batch(t, text_col).select([id_col, "content_hash"]),
        batch_format="pyarrow",
    )

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["content_hash", id_col], kind="mergesort")
        sizes = df.groupby("content_hash", sort=False)[id_col].transform("size")
        out = df.assign(n_dupes=(sizes - 1).astype("int64"))
        return out.drop_duplicates("content_hash", keep="first")[
            [id_col, "content_hash", "n_dupes"]
        ]

    return keyed_map_partitions(hashed, ["content_hash"], keep_first)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

N_PERM = 64
N_BANDS = 16  # 16 bands × 4 rows
ROWS_PER_BAND = N_PERM // N_BANDS
_MERSENNE = (1 << 61) - 1


def _perm_params(n_perm: int = N_PERM, seed: int = 11) -> tuple[np.ndarray, np.ndarray]:
    base = _mix64(np.arange(2 * n_perm, dtype=np.uint64) + np.uint64(seed * 7919))
    a = (base[:n_perm] % np.uint64(_MERSENNE - 1) + np.uint64(1)).astype(np.uint64)
    b = (base[n_perm:] % np.uint64(_MERSENNE)).astype(np.uint64)
    return a, b


_token_hash_cache: dict[str, int] = {}


def _token_hashes(words: list[str]) -> np.ndarray:
    """Stable 64-bit hash per token, md5-based, memoized (corpora have
    small vocabularies relative to token counts): each distinct new
    token is hashed once, then one C-level lookup per token."""
    cache = _token_hash_cache
    extra: dict[str, int] = {}  # new tokens once the cache is full
    for w in set(words).difference(cache):
        d = hashlib.md5(w.encode("utf-8", "surrogateescape")).digest()
        h = int(np.frombuffer(d[:8], dtype=np.uint64)[0])
        (cache if len(cache) < 1_000_000 else extra)[w] = h
    get = cache.__getitem__
    if extra:
        get = lambda w: cache[w] if w in cache else extra[w]  # noqa: E731
    return np.fromiter(map(get, words), dtype=np.uint64, count=len(words))


def _window_hashes(th: np.ndarray, k: int) -> np.ndarray:
    """Hash of every k-token window of ``th`` (len(th) - k + 1 values,
    window p at index p): token hashes combined with the splitmix64
    mixer, vectorized over the windows."""
    acc = th[k - 1 :]
    for off in range(k - 2, -1, -1):
        acc = _mix64(acc) ^ th[off : off + len(acc)]
    return acc


def _short_hash(th: np.ndarray) -> np.uint64:
    """The one shingle of a doc with fewer than k tokens (0 if empty)."""
    if len(th) == 0:
        return np.uint64(0)
    h = th[0]
    for j in range(1, len(th)):
        h = _mix64(np.array([h], dtype=np.uint64))[0] ^ th[j]
    return h


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (unique); a doc with fewer than k
    tokens has one shingle over all of them."""
    th = _token_hashes(text.split())
    if len(th) < k:
        return np.array([_short_hash(th)], dtype=np.uint64)
    return np.unique(_window_hashes(th, k))


_PERM_A, _PERM_B = _perm_params()  # once at import; the SQL oracle inlines the same


_TILE = 4096  # shingles per permute tile: the (N_PERM, tile) matrix stays in L2


def _permuted_mod(h: np.ndarray) -> np.ndarray:
    """(shingles,) hashes → (N_PERM, shingles) values (a*h + b) mod
    (2^61 - 1), a*h + b wrapping mod 2^64: the Mersenne fold
    (x & M) + (x >> 61) and one conditional subtract, exact for any
    uint64 x."""
    m = np.uint64(_MERSENNE)
    x = np.multiply.outer(_PERM_A, h)
    x += _PERM_B[:, None]
    hi = x >> np.uint64(61)
    x &= m
    x += hi
    np.subtract(x, m, out=x, where=x >= m)
    return x


def minhash_bands_batch(batch: pa.Table, shingle_k: int = 3) -> pa.Table:
    """(doc_id, text) → (doc_id, band_id, band_hash), N_BANDS rows per doc.

    One kernel per batch: every doc is split once and all tokens hashed
    as one flat array, so the k-shingles of the whole batch are the
    windows of that array that lie inside one doc (docs with fewer
    than k tokens get their one shingle from ``_short_hash``).
    Duplicate shingles are kept: the min ignores them. The shingles
    are permuted in (N_PERM, shingles) layout, tiles of whole docs at
    a time, reduced mod the Mersenne prime by folding, signatures
    taken with a segmented min (reduceat) per tile and all band hashes
    mixed at once."""
    doc_ids = batch["doc_id"]
    texts = batch["text"].to_pylist()
    n = len(texts)
    if n == 0:
        return pa.table(
            {
                "doc_id": doc_ids,
                "band_id": pa.array([], type=pa.int32()),
                "band_hash": pa.array([], type=pa.int64()),
            }
        )
    k = shingle_k
    words = [(t or "").split() for t in texts]
    lens = np.fromiter(map(len, words), dtype=np.int64, count=n)
    th = _token_hashes([w for ws in words for w in ws])
    tok_end = np.cumsum(lens)
    short = lens < k
    counts = np.where(short, 1, lens - k + 1)  # shingles per doc, all >= 1
    sh_end = np.cumsum(counts)
    sh_start = sh_end - counts
    sh = np.empty(int(sh_end[-1]), dtype=np.uint64)
    slot_short = np.repeat(short, counts)
    if len(th) >= k:
        win = _window_hashes(th, k)
        owner = np.repeat(np.arange(n), lens)[: len(win)]
        # window p is a shingle of its owner doc iff it ends inside it
        sh[~slot_short] = win[np.arange(len(win)) + k <= tok_end[owner]]
    sh[slot_short] = [
        _short_hash(th[tok_end[i] - lens[i] : tok_end[i]]) for i in np.flatnonzero(short)
    ]
    # tiles of whole docs, about _TILE shingles each
    cuts = np.searchsorted(sh_end, np.arange(_TILE, sh_end[-1], _TILE)) + 1
    bounds = np.unique(np.concatenate([[0], cuts, [n]]))
    sigs = np.empty((N_PERM, n), dtype=np.uint64)
    for d0, d1 in zip(bounds[:-1], bounds[1:]):
        s0 = sh_start[d0]
        x = _permuted_mod(sh[s0 : sh_end[d1 - 1]])
        sigs[:, d0:d1] = np.minimum.reduceat(x, sh_start[d0:d1] - s0, axis=1)
    bands = sigs.T.reshape(n, N_BANDS, ROWS_PER_BAND)
    bh = _mix64(
        bands[..., 0]
        ^ _mix64(bands[..., 1] ^ _mix64(bands[..., 2] ^ _mix64(bands[..., 3])))
    ).view(np.int64)
    idx = np.repeat(np.arange(n), N_BANDS)
    return pa.table(
        {
            "doc_id": pc.take(
                doc_ids.combine_chunks() if isinstance(doc_ids, pa.ChunkedArray) else doc_ids,
                pa.array(idx),
            ),
            "band_id": pa.array(np.tile(np.arange(N_BANDS, dtype=np.int32), n)),
            "band_hash": pa.array(bh.reshape(-1)),
        }
    )


def jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    ha, hb = _shingle_hashes(text_a, k), _shingle_hashes(text_b, k)
    inter = np.intersect1d(ha, hb, assume_unique=True).size
    union = ha.size + hb.size - inter
    return inter / union if union else 1.0


BROADCAST_DOCS_MAX = 20_000  # below this, texts broadcast for verify


def lsh_candidate_pairs(
    bands: "rd.Dataset",
    num_parts: int = 32,
) -> "rd.Dataset":
    """Band rows → (doc_a, doc_b, band_id) candidate rows, fully
    distributed, in one exchange.

    Hash-partition by (band_id, band_hash) so every bucket is whole in
    one partition; emit pairs per bucket with a vectorized self-merge.
    A pair that collides in several bands comes out once per colliding
    band, each row tagged with its band; the verify downstream keeps one
    (dedup_minhash: the broadcast verify keeps the row of the pair's
    lowest colliding band, the distributed verify's (doc_a, doc_b)
    co-partition dedups), so no pair-level shuffle runs here. No band
    row ever reaches the driver.
    """
    from hydra_ray.stages.keyed import keyed_map_partitions

    def emit_pairs(df: pd.DataFrame) -> pd.DataFrame:
        dup = df[df.duplicated(["band_id", "band_hash"], keep=False)]
        if dup.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype=df["doc_id"].dtype),
                    "doc_b": pd.Series(dtype=df["doc_id"].dtype),
                    "band_id": pd.Series(dtype=df["band_id"].dtype),
                }
            )
        m = dup.merge(dup, on=["band_id", "band_hash"])
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        out = m[["doc_id_x", "doc_id_y", "band_id"]].drop_duplicates()
        return out.rename(columns={"doc_id_x": "doc_a", "doc_id_y": "doc_b"})

    return keyed_map_partitions(bands, ["band_id", "band_hash"], emit_pairs, num_parts)


def _first_colliding_band(docs: pa.Table, a: np.ndarray, b: np.ndarray, shingle_k: int) -> np.ndarray:
    """The lowest band in which docs ``a[i]`` and ``b[i]`` (row indices
    into ``docs``) share a band hash, per pair. The band hashes are
    recomputed (minhash_bands_batch) once per distinct doc, and equal
    the ones the pair was emitted under, so a candidate pair always has
    one."""
    rows, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    sub = docs.take(pa.array(rows)).select(["doc_id", "text"])
    bh = minhash_bands_batch(sub, shingle_k)["band_hash"].to_numpy().reshape(len(rows), N_BANDS)
    n = len(a)
    return (bh[inv[:n]] == bh[inv[n:]]).argmax(axis=1)


def _verify_distributed(
    ds: "rd.Dataset",
    pairs: "rd.Dataset",
    threshold: float,
    shingle_k: int,
    num_parts: int = 32,
) -> "rd.Dataset":
    """Verify candidate pairs against the docs table WITHOUT any driver
    materialization: texts are attached by co-partitioning pair-halves
    with the docs table on doc id (one shuffle of the corpus text, two
    shuffles of the tiny pair table), then the two halves meet under a
    (doc_a, doc_b) co-partition where true Jaccard is computed.

    Ids keep the docs table's own type (int or string) throughout.
    side: 0=doc row (doc_a/doc_b repeat its key, unused), 1=pair half
    keyed on doc_a, 2=on doc_b.
    """
    from hydra_ray.stages.keyed import keyed_map_partitions

    schema = ds.schema()
    id_type = schema.types[schema.names.index("doc_id")]

    def pairs_to_halves(t: pa.Table) -> pa.Table:
        a = pc.cast(t["doc_a"], id_type).combine_chunks()
        b = pc.cast(t["doc_b"], id_type).combine_chunks()
        n = len(t)
        return pa.table(
            {
                "key": pa.concat_arrays([a, b]),
                "doc_a": pa.concat_arrays([a, a]),
                "doc_b": pa.concat_arrays([b, b]),
                "side": pa.array([1] * n + [2] * n, type=pa.int8()),
                "text": pa.nulls(2 * n, pa.string()),
            }
        )

    def docs_to_u(t: pa.Table) -> pa.Table:
        key = pc.cast(t["doc_id"], id_type)
        return pa.table(
            {
                "key": key,
                "doc_a": key,
                "doc_b": key,
                "side": pa.array([0] * len(t), type=pa.int8()),
                "text": pc.cast(t["text"], pa.string()),
            }
        )

    u = pairs.map_batches(pairs_to_halves, batch_format="pyarrow").union(
        ds.map_batches(docs_to_u, batch_format="pyarrow")
    )

    def attach_text(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["side"] == 0][["key", "text"]]
        p = df[df["side"] != 0].drop(columns=["text"])
        out = p.merge(d, on="key", how="left")
        return out[["doc_a", "doc_b", "side", "text"]]

    halves = keyed_map_partitions(u, ["key"], attach_text, num_parts)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        # a candidate pair arrives once per colliding band (band_id is
        # not carried into the halves); the co-partition makes the
        # global dedup free here
        a = (
            df[df["side"] == 1][["doc_a", "doc_b", "text"]]
            .drop_duplicates(["doc_a", "doc_b"])
            .rename(columns={"text": "text_a"})
        )
        b = (
            df[df["side"] == 2][["doc_a", "doc_b", "text"]]
            .drop_duplicates(["doc_a", "doc_b"])
            .rename(columns={"text": "text_b"})
        )
        m = a.merge(b, on=["doc_a", "doc_b"])
        if m.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype=df["doc_a"].dtype),
                    "doc_b": pd.Series(dtype=df["doc_b"].dtype),
                    "jaccard": pd.Series(dtype="float64"),
                }
            )
        jac = [
            round(
                jaccard(
                    ta if isinstance(ta, str) else "",
                    tb if isinstance(tb, str) else "",
                    shingle_k,
                ),
                6,
            )
            for ta, tb in zip(m["text_a"], m["text_b"])
        ]
        m = m.assign(jaccard=jac)
        return m[m["jaccard"] >= threshold][["doc_a", "doc_b", "jaccard"]]

    return keyed_map_partitions(halves, ["doc_a", "doc_b"], verify, num_parts)


def dedup_minhash(
    ds: "rd.Dataset",
    threshold: float = 0.7,
    shingle_k: int = 3,
) -> "rd.Dataset":
    """MinHash-LSH near-duplicate pairs, verified by true Jaccard: each
    pair ``doc_a < doc_b`` whose docs share at least one band hash and
    whose Jaccard reaches ``threshold`` comes out exactly once, as
    (doc_a, doc_b, jaccard).

    shingle→minhash per batch (minhash_bands_batch, a stateless task) →
    band rows → distributed bucket-collision pair emission
    (lsh_candidate_pairs, the one exchange of the broadcast route) →
    verify.

    The input is executed once (``materialize``); banding and verify
    both read those blocks. Verify routing: above BROADCAST_DOCS_MAX
    docs, texts are attached by co-partitioned
    joins — no driver materialization anywhere, driver memory O(1) —
    and the (doc_a, doc_b) co-partition drops a pair's repeats. Below
    it each verify task ``ray.get``s the materialized blocks themselves
    (their refs, no second execution and no driver-side text map) and
    looks its pairs' texts up by doc id; no text shuffle. A pair
    arrives once per band it collides in, so the task recomputes the
    band hashes of its batch's distinct docs and keeps the row whose
    ``band_id`` is the pair's lowest colliding band (the lowest-band
    rule): every pair survives exactly once with no pair shuffle, and
    Jaccard runs on kept rows only.
    """
    import ray

    from hydra_ray.schemas import strings
    from hydra_ray.sources.store import block_to_table

    mat = ds.materialize()  # read by banding and by verify
    bands = mat.map_batches(
        minhash_bands_batch, fn_kwargs={"shingle_k": shingle_k}, batch_format="pyarrow"
    )
    pairs = lsh_candidate_pairs(bands)
    if mat.count() > BROADCAST_DOCS_MAX:
        return _verify_distributed(mat, pairs, threshold, shingle_k)
    block_refs = mat.to_arrow_refs()  # free: mat is already executed

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[["doc_a", "doc_b"]]
        if batch.empty:
            return out.assign(jaccard=pd.Series(dtype="float64"))
        blocks = [block_to_table(b) for b in ray.get(block_refs)]
        docs = pa.concat_tables([b.select(["doc_id", "text"]) for b in blocks if b.num_rows])
        ids = docs["doc_id"].combine_chunks()
        n = len(batch)
        ab = pa.array(pd.concat([batch["doc_a"], batch["doc_b"]])).cast(ids.type)
        at = pc.index_in(ab, value_set=ids).to_numpy()
        a, b = at[:n], at[n:]
        # the lowest-band rule
        keep = _first_colliding_band(docs, a, b, shingle_k) == batch["band_id"].to_numpy()
        out = out[keep]
        m = len(out)
        texts = strings(docs["text"].take(pa.array(np.concatenate([a[keep], b[keep]]))))
        jac = [
            round(jaccard(ta or "", tb or "", shingle_k), 6)
            for ta, tb in zip(texts[:m], texts[m:])
        ]
        out = out.assign(jaccard=jac)
        return out[out["jaccard"] >= threshold]

    return pairs.map_batches(verify, batch_format="pandas", batch_size=2048)


# ---------------------------------------------------------------------------
# Passage-level dedup: duplicated k-token spans across documents
# ---------------------------------------------------------------------------


def _emit_kgrams(
    texts: "pa.Array | pa.ChunkedArray", k: int
) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    """Vectorized token k-gram emission for a batch of documents.

    Returns (doc_idx, pos_1based, grams): one row per k-gram, where
    ``grams[r] = " ".join(tokens(texts[doc_idx[r]])[pos-1 : pos-1+k])``
    with tokens split on single spaces (``str.split(" ")`` semantics —
    matches DuckDB ``string_split``). Pure Arrow/numpy: the k shifted
    ``take``s + ``binary_join_element_wise`` replace the former
    per-row Python join loop (the gram stage is the hot path of every
    substring-dedup operator)."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    toks = pc.split_pattern(pc.coalesce(arr, ""), pattern=" ")
    flat = toks.flatten()
    dl = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    n_grams = np.maximum(dl - k + 1, 0)
    total = int(n_grams.sum())
    if total == 0:
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            pa.array([], type=pa.string()),
        )
    doc_idx = np.repeat(np.arange(len(dl), dtype=np.int64), n_grams)
    starts = np.cumsum(dl) - dl
    base = np.repeat(starts, n_grams)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(n_grams) - n_grams, n_grams
    )
    gidx = base + offs
    parts = [pc.take(flat, pa.array(gidx + j)) for j in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    return doc_idx, offs + 1, grams


def duplicated_passages(
    ds: "rd.Dataset",
    k: int = 5,
    min_docs: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 64,
    max_gram_freq: int | None = None,
) -> "rd.Dataset":
    """Exact duplicated-passage detection (the Lee et al. 2022
    "Deduplicating Training Data" substring-dedup shape, reduced to
    token k-grams): find every k-token span that occurs in >=
    ``min_docs`` distinct documents, and per document merge the
    overlapping/adjacent duplicated spans into maximal (start_tok,
    end_tok) regions (1-based, inclusive).

    Scale shape: one map_batches explodes each doc into its k-gram
    rows (the standard ~k× corpus expansion), one keyed shuffle groups
    identical grams (keyed on the gram TEXT for exactness — at 100 TB
    swap the key for a 128-bit gram hash, collisions negligible), and
    a second (doc-keyed, tiny) shuffle merges span islands vectorized.
    Nothing touches the driver.

    ``max_gram_freq`` is the skew guard: a gram above the cap (ubiquitous
    boilerplate — the 100-TB hot key that would pile one partition up)
    is ignored entirely, the same truncation Lee et al. apply to
    high-frequency substrings. All occurrences of a gram are co-located,
    so the cap is evaluated exactly."""
    from hydra_ray.stages.keyed import keyed_map_partitions

    def emit_grams(t: pa.Table) -> pa.Table:
        doc_idx, pos, grams = _emit_kgrams(t[text_col], k)
        ids = pc.cast(t[id_col].combine_chunks(), pa.int64())
        return pa.table(
            {
                id_col: pc.take(ids, pa.array(doc_idx)),
                "pos": pa.array(pos),  # 1-based (matches the SQL oracle)
                "gram": grams,
            }
        )

    grams = ds.map_batches(emit_grams, batch_format="pyarrow")

    def dup_hits(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("gram", sort=False)
        keep = g[id_col].transform("nunique") >= min_docs
        if max_gram_freq is not None:
            keep &= g["pos"].transform("size") <= max_gram_freq
        return df.loc[keep, [id_col, "pos"]].drop_duplicates()

    hits = keyed_map_partitions(grams, ["gram"], dup_hits, num_parts)

    def merge_spans(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for did, g in df.groupby(id_col, sort=False):
            pos = np.sort(g["pos"].unique())
            breaks = np.nonzero(np.diff(pos) > k)[0]
            starts = np.concatenate(([pos[0]], pos[breaks + 1]))
            ends = np.concatenate((pos[breaks], [pos[-1]])) + k - 1
            seg_id = np.zeros(len(pos), dtype=np.int64)
            seg_id[breaks + 1] = 1
            counts = np.bincount(np.cumsum(seg_id))
            for s, e, c in zip(starts, ends, counts):
                out.append((did, int(s), int(e), int(c)))
        if not out:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "start_tok": pd.Series(dtype="int64"),
                    "end_tok": pd.Series(dtype="int64"),
                    "n_grams": pd.Series(dtype="int64"),
                }
            )
        return pd.DataFrame(out, columns=[id_col, "start_tok", "end_tok", "n_grams"])

    return keyed_map_partitions(hits, [id_col], merge_spans, num_parts=32)


class _ContamScorer:
    """Actor-pool stage for decontaminate's broadcast path: the bench
    gram set is ray.put once and fetched per ACTOR (zero-copy plasma
    read), never re-shipped per batch."""

    def __init__(self, bench_ref, n: int, id_col: str, text_col: str):
        import ray

        self.bench = bench_ref if isinstance(bench_ref, frozenset) else ray.get(bench_ref)
        self.n, self.id_col, self.text_col = n, id_col, text_col

    def __call__(self, df: "pd.DataFrame") -> "pd.DataFrame":
        doc_idx, _, grams = _emit_kgrams(pa.array(df[self.text_col]), self.n)
        g = pd.DataFrame(
            {
                self.id_col: df[self.id_col].to_numpy()[doc_idx],
                "gram": grams.to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        hit = g[g["gram"].isin(self.bench)]
        counts = hit.groupby(self.id_col, sort=False).size()
        out = pd.DataFrame({self.id_col: df[self.id_col].to_numpy()})
        out["n_overlap"] = out[self.id_col].map(counts).fillna(0).astype("int64")
        out["contaminated"] = out["n_overlap"] > 0
        return out


def decontaminate(
    ds: "rd.Dataset",
    bench: "rd.Dataset",
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 64,
) -> "rd.Dataset":
    """Benchmark decontamination (the GPT-3 appendix-C / PaLM recipe):
    flag every corpus document that shares an exact n-token gram with
    an evaluation-set document, so test data can be removed from
    training corpora. Output one row per corpus doc: (id, n_overlap =
    distinct overlapping grams, contaminated).

    Scale shape: eval sets are tiny by definition, so while the bench
    gram count is at most joins.KEYS_BROADCAST_MAX the op collects the
    DISTINCT bench grams once, ``ray.put``s the set, and scores each
    corpus batch vectorized in an actor pool — zero shuffles, one pass
    over the corpus. A doc's grams never span batches (one row = one
    doc), so per-batch distinct-hit counts are exact. Above that the
    corpus's per-doc distinct grams go through semi_join against the
    bench grams (its keyed-shuffle route) and a per-doc count merge —
    no driver materialization on either side."""
    import ray

    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages import joins
    from hydra_ray.stages.agg import grouped_agg

    def bench_grams(t: pa.Table) -> pa.Table:
        _, _, grams = _emit_kgrams(t[text_col], n)
        return pa.table({"gram": pc.unique(grams)})

    bench_gram_ds = bench.map_batches(bench_grams, batch_format="pyarrow").materialize()
    if bench_gram_ds.count() <= joins.KEYS_BROADCAST_MAX:
        tables = [t for t in ds_to_tables(bench_gram_ds) if t.num_rows]
        gram_set: set[str] = set()
        for t in tables:
            gram_set.update(t["gram"].to_pylist())
        ref = ray.put(frozenset(gram_set))
        return ds.map_batches(
            _ContamScorer,
            fn_constructor_kwargs={
                "bench_ref": ref, "n": n, "id_col": id_col, "text_col": text_col
            },
            batch_format="pandas",
            concurrency=(1, 8),
        )

    def corpus_grams(t: pa.Table) -> pa.Table:
        doc_idx, _, grams = _emit_kgrams(t[text_col], n)
        ids = pc.cast(t[id_col].combine_chunks(), pa.int64())
        g = pa.table({id_col: pc.take(ids, pa.array(doc_idx)), "gram": grams})
        # distinct per doc (group_by with no aggregates = distinct keys)
        return g.group_by([id_col, "gram"]).aggregate([])

    def per_doc(t: pa.Table, hit: bool) -> pa.Table:
        return pa.table(
            {
                id_col: pc.cast(t[id_col], pa.int64()),
                "n_overlap": pa.array(np.full(len(t), int(hit), dtype=np.int64)),
            }
        )

    # one row per (doc, overlapping gram), plus a zero row per doc so
    # clean docs are scored too
    hits = joins.semi_join(
        ds.map_batches(corpus_grams, batch_format="pyarrow"), bench_gram_ds, "gram",
        num_parts=num_parts,
    ).map_batches(lambda t: per_doc(t, True), batch_format="pyarrow")
    zero = ds.map_batches(lambda t: per_doc(t, False), batch_format="pyarrow")
    totals = grouped_agg(
        hits.union(zero), keys=[id_col], aggs=[("n_overlap", "sum", "n_overlap")]
    )
    return totals.map_batches(
        lambda t: t.append_column("contaminated", pc.greater(t["n_overlap"], 0)),
        batch_format="pyarrow",
    )


def paragraph_dedup(
    ds: "rd.Dataset",
    para_words: int = 4,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 32,
) -> "rd.Dataset":
    """CCNet-style paragraph-level exact dedup (Wenzek et al. 2020
    §3.1: drop every paragraph already seen elsewhere in the corpus,
    keep the first occurrence in corpus order).  Paragraphs here are
    consecutive ``para_words``-token windows (the splitter is
    pluggable; data.gouv resource text carries no newline structure).

    Fully distributed, two keyed shuffles, no driver state:

      1. explode docs into (doc, j, paragraph) rows;
      2. shuffle BY PARAGRAPH TEXT — every copy of a paragraph lands in
         one partition, so first-wins (min (doc_id, j)) is a vectorized
         per-partition groupby-transform, no global join;
      3. shuffle back BY DOC and reassemble the surviving paragraphs
         in order.

    Returns one row per doc: n_paras, n_kept, new_text (kept
    paragraphs joined; '' if everything was a duplicate)."""
    from hydra_ray.stages.keyed import keyed_map_partitions

    stride = 1 << 20  # total order (doc_id, j) as one int64 key

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t[text_col].to_pylist()
        o_id: list[int] = []
        o_j: list[int] = []
        o_p: list[str] = []
        for did, txt in zip(ids, texts):
            words = (txt or "").split(" ")
            n = max(-(-len(words) // para_words), 1)
            o_id.extend([int(did)] * n)
            o_j.extend(range(n))
            o_p.extend(
                " ".join(words[j * para_words : (j + 1) * para_words])
                for j in range(n)
            )
        return pa.table(
            {
                id_col: pa.array(o_id, type=pa.int64()),
                "j": pa.array(o_j, type=pa.int64()),
                "ptext": pa.array(o_p, type=pa.string()),
            }
        )

    paras = ds.map_batches(explode, batch_format="pyarrow")

    def mark(df: "pd.DataFrame") -> "pd.DataFrame":
        key = df[id_col] * stride + df["j"]
        df = df.assign(_k=key)
        df["keep"] = df["_k"] == df.groupby("ptext", sort=False)["_k"].transform("min")
        return df.drop(columns=["_k"])

    marked = keyed_map_partitions(paras, ["ptext"], mark, num_parts=num_parts)

    def rebuild(df: "pd.DataFrame") -> "pd.DataFrame":
        if df.empty:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "n_paras": pd.Series(dtype="int64"),
                    "n_kept": pd.Series(dtype="int64"),
                    "new_text": pd.Series(dtype="object"),
                }
            )
        df = df.sort_values([id_col, "j"], kind="mergesort")
        g = df.groupby(id_col, sort=False)
        kept = df[df["keep"]]
        out = g.size().rename("n_paras").to_frame()
        out["n_kept"] = kept.groupby(id_col, sort=False).size()
        out["n_kept"] = out["n_kept"].fillna(0).astype("int64")
        out["new_text"] = kept.groupby(id_col, sort=False)["ptext"].agg(" ".join)
        out["new_text"] = out["new_text"].fillna("")
        return out.reset_index()

    return keyed_map_partitions(marked, [id_col], rebuild, num_parts=num_parts)


# --- character-level ExactSubstr (suffix-window) dedup --------------------


def _char_span_merge_fn(L: int, id_col: str):
    """Shared island-merge consumer: sorted duplicated positions →
    maximal (start_chr, end_chr) spans (gap > L breaks an island)."""

    def merge_spans(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "start_chr": pd.Series(dtype="int64"),
                    "end_chr": pd.Series(dtype="int64"),
                    "n_windows": pd.Series(dtype="int64"),
                }
            )
        out = []
        for did, g in df.groupby(id_col, sort=False):
            pos = np.sort(g["pos"].to_numpy())
            breaks = np.nonzero(np.diff(pos) > L)[0]
            starts = np.concatenate(([pos[0]], pos[breaks + 1]))
            ends = np.concatenate((pos[breaks], [pos[-1]])) + L - 1
            seg = np.zeros(len(pos), dtype=np.int64)
            seg[breaks + 1] = 1
            counts = np.bincount(np.cumsum(seg))
            for s, e, c in zip(starts, ends, counts):
                out.append((int(did), int(s), int(e), int(c)))
        return pd.DataFrame(
            out, columns=[id_col, "start_chr", "end_chr", "n_windows"]
        )

    return merge_spans


def char_dup_spans(
    ds: "rd.Dataset",
    L: int = 30,
    min_occ: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 32,
) -> "rd.Dataset":
    """Character-level ExactSubstr span detection (Lee et al. 2022 §4):
    every maximal character span covered by an L-char window occurring
    >= ``min_occ`` times ANYWHERE in the corpus (across or within
    documents). Two keyed shuffles: the L-char window TEXT is keyed on
    itself (an L× corpus expansion — the reference for
    `stages/suffix.py::sa_dup_spans`, which scales without it), then a
    doc-keyed island merge into maximal (start_chr, end_chr).

    Positions are 1-based char offsets. Returns (doc_id, start_chr,
    end_chr, n_windows)."""
    from hydra_ray.stages.keyed import keyed_map_partitions

    def emit(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col].combine_chunks(), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        o_id, o_pos, o_g = [], [], []
        for did, tx in zip(ids, t[text_col].to_pylist()):
            tx = tx or ""
            for p in range(len(tx) - L + 1):
                o_id.append(int(did))
                o_pos.append(p + 1)
                o_g.append(tx[p : p + L])
        return pa.table(
            {
                id_col: pa.array(o_id, type=pa.int64()),
                "pos": pa.array(o_pos, type=pa.int64()),
                "gram": pa.array(o_g, type=pa.string()),
            }
        )

    grams = ds.map_batches(emit, batch_format="pyarrow")

    def dup_hits(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {id_col: pd.Series(dtype="int64"), "pos": pd.Series(dtype="int64")}
            )
        keep = df.groupby("gram", sort=False)["gram"].transform("size") >= min_occ
        return df.loc[keep, [id_col, "pos"]]

    hits = keyed_map_partitions(grams, ["gram"], dup_hits, num_parts)
    return keyed_map_partitions(
        hits, [id_col], _char_span_merge_fn(L, id_col), num_parts=32
    )


def _jaccard_pairs(idsA, sizesA, setsA, idsB, sizesB, setsB, threshold):
    """Exact Jaccard pairs between two doc groups via a SPARSE sorted
    token join: emission work ∝ Σ_token cntA·cntB (the actual shared
    occurrences, tiled), accumulated into an |A|×|B| int32 counts
    matrix — never an O(docs × union-vocab) incidence matrix. B=None →
    self-join on A (upper triangle). Returns a (da, db, jaccard)
    DataFrame or None."""
    from hydra_ray.stages.text import round6

    self_join = idsB is None
    if self_join:
        idsB, sizesB, setsB = idsA, sizesA, setsA
    nA, nB = len(idsA), len(idsB)

    def flat_sorted(sets):
        lens = np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))
        flat = np.concatenate(list(sets)) if len(sets) else np.array([], np.int64)
        rows = np.repeat(np.arange(len(sets)), lens)
        o = np.argsort(flat, kind="stable")
        return flat[o], rows[o]

    fa, ra = flat_sorted(setsA)
    if self_join:
        fb, rb = fa, ra
    else:
        fb, rb = flat_sorted(setsB)
    if len(fa) == 0 or len(fb) == 0:
        return None
    uA, sA, cA = np.unique(fa, return_index=True, return_counts=True)
    if self_join:
        uB, sB, cB = uA, sA, cA
    else:
        uB, sB, cB = np.unique(fb, return_index=True, return_counts=True)
    _, iA, iB = np.intersect1d(uA, uB, assume_unique=True, return_indices=True)
    if len(iA) == 0:
        return None
    ca, cb, sa, sb = cA[iA], cB[iB], sA[iA], sB[iB]
    totals = ca * cb
    cum = np.cumsum(totals)
    mat = np.zeros((nA, nB), dtype=np.int32)
    TILE_E = 1 << 24  # ≤16M pair-emissions resident at once
    t0 = 0
    base = 0
    while t0 < len(totals):
        t1 = int(np.searchsorted(cum, base + TILE_E)) + 1
        t1 = min(max(t1, t0 + 1), len(totals))
        cas, cbs, sas, sbs = ca[t0:t1], cb[t0:t1], sa[t0:t1], sb[t0:t1]
        tot = cas * cbs
        E = int(tot.sum())
        if E:
            # A side: each a-occurrence repeated cb(token) times
            ta = int(cas.sum())
            cums_a = np.concatenate([[0], np.cumsum(cas)[:-1]])
            pos_a = np.arange(ta) - np.repeat(cums_a, cas) + np.repeat(sas, cas)
            a_rows = np.repeat(ra[pos_a], np.repeat(cbs, cas))
            # B side: each token's b-occurrence run tiled ca times
            cums_t = np.concatenate([[0], np.cumsum(tot)[:-1]])
            p = np.arange(E) - np.repeat(cums_t, tot)
            b_rows = rb[np.repeat(sbs, tot) + p % np.repeat(cbs, tot)]
            np.add.at(mat, (a_rows, b_rows), 1)
        # exact int cursor — float64 loses integer precision past 2^53
        # total pair-emissions, degrading tile boundaries
        base = int(cum[t1 - 1])
        t0 = t1
    jac = mat / (sizesA[:, None] + sizesB[None, :] - mat)
    ii, jj = np.nonzero(jac >= threshold)
    if self_join:
        keep = ii < jj
        ii, jj = ii[keep], jj[keep]
    if len(ii) == 0:
        return None
    da, db = idsA[ii], idsB[jj]
    swap = db < da  # elementwise on object-dtype string arrays
    return pd.DataFrame(
        {
            "da": np.where(swap, db, da),
            "db": np.where(swap, da, db),
            "jaccard": round6(jac[ii, jj]),
        }
    )


def jaccard_set_join(
    ds: "rd.Dataset",
    threshold: float = 0.8,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_parts: int = 32,
    hot_bucket_max: int = 1024,
) -> "rd.Dataset":
    """All-pairs token-SET similarity self-join (Jaccard ≥ threshold)
    with PPJoin prefix filtering (Xiao et al., WWW 2008).

    Every document keeps only its PREFIX tokens — the |set|−⌈t·|set|⌉+1
    rarest under a global (document-frequency, token) order — because
    two sets with J ≥ t must share a prefix token. Candidate buckets
    are keyed by prefix token (one shuffle; each doc travels with its
    full distinct-token rank list), and a second keyed pass dedups
    pairs discovered in several buckets. The df table (vocab-sized)
    broadcasts once.

    Skew story (two structural guards, not just tiling):

    - **hot-bucket chunk-pair splitting**: a prefix token whose df
      exceeds ``hot_bucket_max`` has its bucket hash-split into
      K = ⌈df/H⌉ chunks at emission time (df is a driver-resident upper
      bound on the bucket, so no extra pass), and each doc row
      replicates into the K chunk-pair groups it belongs to — the
      bucket's O(n²) verify spreads over K(K+1)/2 INDEPENDENT tasks of
      ≤O(H²) work each instead of one task owning it all.
    - **sparse intersection counts**: per group, intersections come
      from a sorted token join (emission work ∝ actual shared-token
      pairs, tiled at ~16M emissions) into an |A|×|B| int32 counts
      matrix — never an O(docs × union-vocab) incidence matrix.

    Per-doc state (set size, prefix, rank list) is computed INSIDE the
    UDF call that reads the doc row — input-row atomicity, not block
    layout, guarantees completeness, so dynamic block splitting cannot
    truncate a doc's token set.
    """
    import ray

    from hydra_ray.sources.store import ds_to_tables
    from hydra_ray.stages.agg import grouped_agg
    from hydra_ray.stages.keyed import keyed_map_partitions
    from hydra_ray.stages.text import _tokens_arr

    def doc_token_lists(t: pa.Table) -> tuple[pa.Array, list[np.ndarray]]:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        toks = _tokens_arr(pc.fill_null(text, ""))
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        sets = [
            np.unique(flat[a : a + n][flat[a : a + n] != ""])
            for a, n in zip(starts, lens)
        ]
        ids = t[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return ids, sets

    def distinct_tokens(t: pa.Table) -> pa.Table:
        ids, sets = doc_token_lists(t)
        counts = np.array([len(x) for x in sets], dtype=np.int64)
        doc = ids.take(pa.array(np.repeat(np.arange(len(sets)), counts)))
        w = np.concatenate(sets) if sets else np.array([], dtype=object)
        return pa.table({id_col: doc, "w": pa.array(w, type=pa.string())})

    ds = ds.materialize()
    toks = ds.map_batches(distinct_tokens, batch_format="pyarrow")

    df_parts = [t for t in ds_to_tables(grouped_agg(toks, ["w"], [("w", "count", "df")])) if t.num_rows]
    vocab = pa.concat_tables(df_parts, promote_options="default").combine_chunks()
    # global total order: (df asc, token asc) → dense rank
    vp = vocab.to_pandas().sort_values(["df", "w"], kind="mergesort").reset_index(drop=True)
    rank_map = pd.Series(np.arange(len(vp), dtype=np.int64), index=vp["w"])
    rank_ref = ray.put(rank_map)
    # chunks per prefix-token bucket: df is an upper bound on bucket
    # size (prefix ⊆ token set), already on the driver — K=1 for all
    # but genuinely hot tokens
    kvec_ref = ray.put(
        np.maximum(1, -(-vp["df"].to_numpy().astype(np.int64) // hot_bucket_max))
    )

    def emit_prefix(t: pa.Table) -> "pd.DataFrame":
        from zlib import crc32

        ranks = ray.get(rank_ref)
        kvec = ray.get(kvec_ref)
        ids, sets = doc_token_lists(t)
        ids_py = ids.to_pylist()
        # one vectorized rank lookup for the whole block (a per-doc
        # .loc pays a pandas label-indexing round per document)
        lens = np.fromiter((len(s) for s in sets), dtype=np.int64, count=len(sets))
        flat = np.concatenate(list(sets)) if len(sets) and lens.sum() else np.array([], object)
        flat_ranks = (
            ranks.reindex(flat).to_numpy(dtype=np.int64) if len(flat) else np.array([], np.int64)
        )
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        out_id, out_w, out_size, out_ranks = [], [], [], []
        out_c1, out_c2, out_side = [], [], []
        for i, words in enumerate(sets):
            if len(words) == 0:
                continue
            r = np.sort(flat_ranks[starts[i] : starts[i] + lens[i]])
            size = len(r)
            prefix_len = size - int(np.ceil(threshold * size)) + 1
            # prefix = the prefix_len globally-rarest tokens
            for rank in r[:prefix_len]:
                k = int(kvec[rank])
                if k == 1:
                    chunks = [(-1, -1, 0)]
                else:
                    # deterministic hash chunk of this doc in bucket w;
                    # replicate into every chunk-pair group it joins
                    c = crc32(str(ids_py[i]).encode()) % k
                    chunks = [
                        (min(c, c2), max(c, c2), 0 if c == min(c, c2) else 1)
                        for c2 in range(k)
                    ]
                for c1, c2, side in chunks:
                    out_id.append(ids_py[i])
                    out_w.append(rank)
                    out_size.append(size)
                    out_ranks.append(r)
                    out_c1.append(c1)
                    out_c2.append(c2)
                    out_side.append(side)
        return pd.DataFrame(
            {
                id_col: pd.Series(out_id, dtype="object"),
                "w": pd.Series(out_w, dtype="int64"),
                "size": pd.Series(out_size, dtype="int64"),
                "set_ranks": pd.Series(out_ranks, dtype="object"),
                "c1": pd.Series(out_c1, dtype="int64"),
                "c2": pd.Series(out_c2, dtype="int64"),
                "side": pd.Series(out_side, dtype="int64"),
            }
        )

    prefixed = ds.map_batches(emit_prefix, batch_format="pyarrow")

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        empty = pd.DataFrame(
            {"da": pd.Series(dtype="object"), "db": pd.Series(dtype="object"),
             "jaccard": pd.Series(dtype="float64")}
        )
        frames = []
        for (_, c1, c2), grp in g.groupby(["w", "c1", "c2"], sort=False):
            if c1 == c2:  # whole bucket (c=-1) or within-chunk: self-join
                grp = grp.drop_duplicates(id_col)
                if len(grp) < 2:
                    continue
                f = _jaccard_pairs(
                    grp[id_col].to_numpy(),
                    grp["size"].to_numpy().astype(np.int64),
                    grp["set_ranks"].to_numpy(),
                    None, None, None,
                    threshold,
                )
            else:  # cross chunk-pair
                a = grp[grp["side"] == 0].drop_duplicates(id_col)
                b = grp[grp["side"] == 1].drop_duplicates(id_col)
                if len(a) == 0 or len(b) == 0:
                    continue
                f = _jaccard_pairs(
                    a[id_col].to_numpy(),
                    a["size"].to_numpy().astype(np.int64),
                    a["set_ranks"].to_numpy(),
                    b[id_col].to_numpy(),
                    b["size"].to_numpy().astype(np.int64),
                    b["set_ranks"].to_numpy(),
                    threshold,
                )
            if f is not None:
                frames.append(f)
        if not frames:
            return empty
        return pd.concat(frames, ignore_index=True)

    cands = keyed_map_partitions(prefixed, ["w", "c1", "c2"], per_bucket, num_parts=num_parts)

    def dedup_pairs(g: "pd.DataFrame") -> "pd.DataFrame":
        return g.drop_duplicates(["da", "db"])

    return keyed_map_partitions(cands, ["da", "db"], dedup_pairs, num_parts=num_parts)
