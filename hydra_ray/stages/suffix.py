"""Distributed suffix-array construction (prefix doubling) and the
exact-substring dedup built on it.

This is the true Lee et al. 2022 ("Deduplicating Training Data Makes
Language Models Better", §4) ExactSubstr formulation: order every
suffix of the corpus, then read duplicated substrings straight off the
rank structure. The sibling `stages/dedup.py::char_dup_spans` gets the
same spans by shuffling every window's text; here NO text ever
re-ships and NO hash is involved — window equality is
decided by two integer rank lookups, so the pipeline is exact by
construction (reference scope: udata_hydra has no dedup layer at all;
this extends the LLM-curation surface, like stages/dedup.py).

Construction (Manber–Myers prefix doubling, re-expressed Ray-Data-first):

  * Suffixes are doc-local ``(doc, pos)`` pairs — suffixes never cross
    document boundaries, so no global concatenation or separator
    sentinels are needed, and the round count is log2(max DOC length),
    not log2(corpus length). Both paths seed the ranks with PACKED
    first-4-byte keys (exact, base-257 — not a hash), skipping the
    first two doubling rounds outright.
  * State is one rank table ``(did, pos, r)`` — one row per corpus
    BYTE. A FOLD-4 round turns "r groups suffixes by their first h
    chars" into "first 4h chars" (two classic doubling steps fused
    into one exchange pair):
      1. doc-keyed co-partition (`keyed_map_partitions`): each
         partition holds whole documents, so the three shifted columns
         ``r{j}[p] = r[p + j·h]`` (or -1 past the doc end) are
         vectorized shifts — no donor-row union, no random access;
      2. global ``Dataset.sort`` by (r, r2, r3, r4) — the one
         all-to-all exchange per round;
      3. dense-rank assignment over the sorted blocks: an O(blocks)
         driver probe reads each block's (first key, last key, distinct
         count), stitches boundary-equal runs, and hands each block an
         integer base — the blocks then re-rank themselves in parallel.
         The driver holds per-BLOCK scalars only, never rows.
  * Rounds stop when every rank is distinct (or h reaches the max doc
    length, at which point equal ranks mean genuinely equal suffixes —
    ties share a dense rank, deterministically).

At 100 TB the rank table is one row per byte: the sort is the standard
Ray Data range-partitioned shuffle and the per-round driver state stays
O(blocks). The documented partitioning assumption is that a single
DOCUMENT fits a worker partition (same assumption as every per-doc
stage in this engine).

`sa_dup_spans` generalizes the classic two-rank substring-equality
trick ((r_w[p], r_w[p+δ]) with w = 2^⌊log2 min_len⌋) to an m-rank
TUPLE over a smaller chunk width h: two suffixes share their first
min_len chars iff the ranks at `_window_offsets(min_len, h)` all
agree — the offsets' h-chunks cover [0, min_len) exactly. Taking
h = 4 (the packed exact first-4-byte seed, computed doc-locally
inside the explode) removes the doubling loop ENTIRELY for
min_len ≤ 4·MAX_WINDOW_COLS: the distributed pipeline is two
exchanges flat — group positions by the key tuple, keep groups of
size ≥ min_occ, merge islands per doc. That yields EXACTLY the
duplicated-window position set of `char_dup_spans` (pinned by test);
larger min_len first runs fold-4 doubling rounds until the tuple
fits. Measured at sf0.1 (5k docs, min_len=20): forced-distributed
2.68 s vs driver fast path 1.56 s — 1.7×, versus 2–20× for the
per-round doubling it replaces.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd


# --------------------------------------------------------------------------
# shared local kernels (used by the driver fast path AND inside workers)


def _explode_bytes(ids: np.ndarray, texts: list[str]):
    """(doc ids, texts) → contiguous (did, pos, r) arrays in (did, pos)
    order; r = UTF-8 byte value (groups suffixes by their first char)."""
    bufs = [(t or "").encode("utf-8") for t in texts]
    lens = np.array([len(b) for b in bufs], dtype=np.int64)
    did = np.repeat(ids.astype(np.int64), lens)
    pos = np.concatenate([np.arange(n, dtype=np.int64) for n in lens]) if len(lens) else np.empty(0, np.int64)
    r = (
        np.frombuffer(b"".join(bufs), dtype=np.uint8).astype(np.int64)
        if did.size
        else np.empty(0, np.int64)
    )
    return did, pos, r


def _shift_rank(did: np.ndarray, r: np.ndarray, h: int) -> np.ndarray:
    """r2[p] = r[p+h] within the same doc, else -1 — arrays must be in
    (did, pos) order with per-doc contiguous positions."""
    n = r.size
    r2 = np.full(n, -1, dtype=np.int64)
    if n > h:
        r2[:-h] = np.where(did[h:] == did[:-h], r[h:], -1)
    return r2


def _pack_initial(did: np.ndarray, r_bytes: np.ndarray, h0: int) -> np.ndarray:
    """Exact packed key of the first ``h0`` bytes of each suffix (NOT a
    hash — the literal bytes, base-257 with 0 for past-doc-end), so the
    doubling loop can START at h = h0 instead of 1, saving log2(h0)
    full sort rounds on both paths. h0 ≤ 4 keeps the key < 257⁴ ≈
    4.4·10⁹, well inside int64."""
    key = r_bytes + np.int64(1)  # bytes → 1..256; 0 reserved for past-end
    out = key.copy()
    for j in range(1, h0):
        out = out * np.int64(257) + (_shift_rank(did, key, j) + np.int64(1))
    return out


def _dense_rank_single(key: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of one int64 key array; returns (ranks, distinct)."""
    n = key.size
    order = np.argsort(key, kind="stable")
    ks = key[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = ks[1:] != ks[:-1]
    newr = np.empty(n, dtype=np.int64)
    newr[order] = np.cumsum(change) - 1
    return newr, int(change.sum())


def _dense_rank_local(r: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense rank of (r, r2) pairs; returns (new ranks, distinct count).
    The pair is packed into one int64 key (both components are < n, so
    r*(n+2)+(r2+1) < n² — exact for n < ~3·10⁹, far above the driver
    fast path's reach) so the sort and the change detection each make
    a single pass instead of lexsort's two."""
    n = r.size
    base = np.int64(n + 2)  # r/r2 are dense ranks < n in every round
    key = r * base + (r2 + np.int64(1))
    order = np.argsort(key, kind="stable")
    ks = key[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = ks[1:] != ks[:-1]
    newr = np.empty(n, dtype=np.int64)
    newr[order] = np.cumsum(change) - 1
    return newr, int(change.sum())


def _doubling_local(
    did: np.ndarray, pos: np.ndarray, r_bytes: np.ndarray, h_stop: int | None
) -> tuple[np.ndarray, int]:
    """Run prefix-doubling rounds locally over raw byte values.
    Seeds with packed first-min(4, h_stop)-byte keys (exact, not
    hashed) so the loop starts at h0 instead of 1. Stops when r groups
    by ≥ h_stop chars (if given), all ranks are distinct, or h reaches
    the max doc length. Returns (final ranks, h such that r groups
    first-h chars)."""
    n = r_bytes.size
    if n == 0:
        return r_bytes, 1
    maxlen = int(pos.max()) + 1  # positions are 0..len-1 per doc
    h = min(4, h_stop) if h_stop is not None else 4
    r, nd = _dense_rank_single(_pack_initial(did, r_bytes, h))
    while nd < n and (h_stop is None or h < h_stop) and h < maxlen:
        r2 = _shift_rank(did, r, h)
        r, nd = _dense_rank_local(r, r2)
        h *= 2
    return r, h


def _full_window_mask(did: np.ndarray, min_len: int) -> np.ndarray:
    """valid[i] ⟺ position i has ≥ min_len chars left in its doc —
    positions are contiguous per doc, so row i+min_len-1 being the same
    doc is exactly that condition."""
    n = did.size
    valid = np.zeros(n, dtype=bool)
    m = min_len - 1
    if n > m:
        valid[: n - m] = did[m:] == did[:-m]
    return valid


def _window_hits_local(
    did: np.ndarray,
    pos: np.ndarray,
    r: np.ndarray,
    min_len: int,
    w: int,
    min_occ: int,
) -> pd.DataFrame:
    """Positions (1-based) whose min_len-char window occurs ≥ min_occ
    times, from a rank table grouping first-w chars (w ≤ min_len ≤ 2w).
    Arrays must be in (did, pos) order."""
    delta = min_len - w
    valid = _full_window_mask(did, min_len)
    k1 = r[valid]
    # r at pos+delta: same contiguous-layout shift as _shift_rank
    k2 = _shift_rank(did, r, delta)[valid] if delta else k1
    vd, vp = did[valid], pos[valid]
    n = k1.size
    if n == 0:
        return pd.DataFrame({"did": pd.Series(dtype="int64"), "pos": pd.Series(dtype="int64")})
    base = np.int64(max(r.size, 256) + 2)  # ranks are < total positions
    key = k1 * base + (k2 + np.int64(1))
    order = np.argsort(key, kind="stable")
    ks = key[order]
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = ks[1:] != ks[:-1]
    gid = np.cumsum(change) - 1
    sizes = np.bincount(gid)
    keep = sizes[gid] >= min_occ
    sel = order[keep]
    return pd.DataFrame({"did": vd[sel], "pos": vp[sel] + 1})


# --------------------------------------------------------------------------
# distributed rounds


@ray.remote
def _rank_probe(blk, cols):
    from hydra_ray.sources.store import block_to_table

    t = block_to_table(blk)
    if t.num_rows == 0:
        return (0, None, None, 0)
    arrs = [t[c].to_numpy(zero_copy_only=False) for c in cols]
    change = np.zeros(arrs[0].size, dtype=bool)
    change[0] = True
    for a in arrs:
        change[1:] |= a[1:] != a[:-1]
    return (
        t.num_rows,
        tuple(int(a[0]) for a in arrs),
        tuple(int(a[-1]) for a in arrs),
        int(change.sum()),
    )


@ray.remote
def _rank_assign(blk, base: int, cols):
    from hydra_ray.sources.store import block_to_table

    t = block_to_table(blk)
    if t.num_rows == 0:
        return pa.table(
            {
                "did": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "r": pa.array([], type=pa.int64()),
            }
        )
    arrs = [t[c].to_numpy(zero_copy_only=False) for c in cols]
    change = np.zeros(arrs[0].size, dtype=bool)  # first key ranked by `base`
    for a in arrs:
        change[1:] |= a[1:] != a[:-1]
    newr = base + np.cumsum(change)
    return pa.table({"did": t["did"], "pos": t["pos"], "r": pa.array(newr, type=pa.int64())})


def _dist_round(
    state: "rd.Dataset", h: int, num_parts: int, fold: int = 4
) -> tuple["rd.Dataset", int, int]:
    """One folded doubling round on the (did, pos, r) rank table:
    ``fold - 1`` shifted rank columns come out of a single doc-keyed
    co-partition and one ``fold``-column sort dense-ranks them, so each
    exchange pair advances h → fold·h (fold=4 halves the round count of
    classic doubling; fold=2 is the classic step). Returns (next state,
    total rows, total distinct ranks)."""
    from hydra_ray.stages.keyed import keyed_map_partitions

    cols = ["r"] + [f"r{j}" for j in range(2, fold + 1)]

    def with_shifts(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {c: pd.Series(dtype="int64") for c in ["did", "pos"] + cols}
            )
        df = df.sort_values(["did", "pos"], kind="mergesort")
        did = df["did"].to_numpy()
        r = df["r"].to_numpy()
        out = {"did": did, "pos": df["pos"].to_numpy(), "r": r}
        for j in range(2, fold + 1):
            out[f"r{j}"] = _shift_rank(did, r, h * (j - 1))
        return pd.DataFrame(out)

    paired = keyed_map_partitions(state, ["did"], with_shifts, num_parts)
    return _dist_dense_rank(paired, cols)


def _dist_dense_rank(
    paired: "rd.Dataset", cols=("r", "r2")
) -> tuple["rd.Dataset", int, int]:
    """(did, pos, r, …shifted ranks) → globally dense-ranked
    (did, pos, r): one Dataset.sort over the rank tuple, an O(blocks)
    driver probe, block-parallel re-rank."""
    from hydra_ray.sources.store import ds_to_table_refs

    cols = list(cols)
    srt = paired.sort(cols)
    refs = ds_to_table_refs(srt)
    if not refs:
        return srt, 0, 0
    probes = ray.get([_rank_probe.remote(b, cols) for b in refs])
    # stitch block-local dense ranks into global ones: base_b = global
    # rank of block b's first key. A key spanning a block boundary
    # (first == previous non-empty block's last) keeps its rank open.
    bases: list[int] = []
    total_rows = 0
    base = 0
    prev_last = None
    prev_d = 0
    for n, first, last, nd in probes:
        if n == 0:
            bases.append(0)
            continue
        if prev_last is not None:
            base += prev_d - (1 if first == prev_last else 0)
        bases.append(base)
        total_rows += n
        prev_last, prev_d = last, nd
    total_distinct = (base + prev_d) if total_rows else 0
    nxt = rd.from_arrow_refs(
        [_rank_assign.remote(b, bs, cols) for b, bs in zip(refs, bases)]
    )
    return nxt.materialize(), total_rows, total_distinct


def _load_local(ds: "rd.Dataset", id_col: str, text_col: str):
    from hydra_ray.sources.store import ds_to_tables

    parts = [t for t in ds_to_tables(ds) if t.num_rows]
    tbl = pa.concat_tables(parts) if parts else None
    if tbl is None or tbl.num_rows == 0:
        z = np.empty(0, np.int64)
        return z, z, z
    ids = pc.cast(tbl[id_col], pa.int64()).to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    texts = tbl[text_col].take(pa.array(order)).to_pylist()
    return _explode_bytes(ids, texts)


def _init_state(ds: "rd.Dataset", id_col: str, text_col: str, h0: int = 4):
    """documents → distributed (did, pos, r) rank table GROUPING THE
    FIRST h0 CHARS (packed exact byte keys, dense-ranked in one sort —
    the seed that saves log2(h0) doubling rounds) + (max doc len,
    total rows, distinct ranks)."""

    def explode(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        did, pos, r = _explode_bytes(ids, t[text_col].to_pylist())
        # packing looks only WITHIN docs, and explode sees whole docs
        packed = _pack_initial(did, r, h0) if r.size else r
        return pa.table(
            {
                "did": pa.array(did, type=pa.int64()),
                "pos": pa.array(pos, type=pa.int64()),
                "r": pa.array(packed, type=pa.int64()),
                "r2": pa.array(np.zeros(len(did), dtype=np.int64)),
            }
        )

    state = ds.map_batches(explode, batch_format="pyarrow").materialize()
    maxlen = int(state.max("pos") or 0) + 1
    ranked, n_total, n_distinct = _dist_dense_rank(state)
    return ranked, maxlen, n_total, n_distinct


#: widest rank tuple a window key may ship per position; bounds the
#: shuffle row width at 8·(MAX_WINDOW_COLS+2) bytes. min_len ≤
#: 4·MAX_WINDOW_COLS needs ZERO doubling rounds (keys come straight
#: from the packed seed), larger min_len doubles only until
#: ⌈min_len/h⌉ fits.
MAX_WINDOW_COLS = 8


def _window_offsets(min_len: int, h: int) -> list[int]:
    """Chunk offsets whose h-char rank lookups decide min_len-window
    equality: [0, h, 2h, …] plus the tail offset min_len−h, so the
    chunks cover [0, min_len) exactly (the tail chunk may overlap its
    predecessor — equality of overlapping exact chunks is still
    equality of the union)."""
    m = -(-min_len // h)
    return sorted({h * j for j in range(m - 1)} | {min_len - h})


def sa_dup_spans(
    ds: "rd.Dataset",
    min_len: int = 30,
    min_occ: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    driver_docs: int = 20_000,
    num_parts: int = 64,
) -> "rd.Dataset":
    """ExactSubstr duplicated spans via the suffix-array rank tables:
    maximal per-document char spans covered by a ``min_len``-char window
    occurring ≥ ``min_occ`` times anywhere in the corpus. Identical
    output contract to `char_dup_spans` (doc_id, start_chr 1-based,
    end_chr, n_windows) — pinned equal by test — but derived from
    integer ranks: window equality is equality of the rank tuple at the
    `_window_offsets`, so no window text or hash ever enters a shuffle
    and there is no collision-candidate pass.

    Distributed exchange count (the 100-TB cost): for min_len ≤
    4·MAX_WINDOW_COLS (= 32, covering both the default 30 and the
    registered query's 20) the rank table IS the packed exact
    first-4-byte seed, computed doc-locally inside the explode — the
    whole pipeline is explode → ONE tuple-keyed exchange grouping
    windows → ONE doc-keyed exchange merging spans. Larger min_len
    first runs fold-4 doubling rounds (`_dist_round`) until
    ⌈min_len/h⌉ ≤ MAX_WINDOW_COLS, adding 2 exchanges per round only
    beyond min_len 32·4^k."""
    if min_len < 2:
        raise ValueError("min_len must be ≥ 2")
    w = 1 << (min_len.bit_length() - 1)  # largest power of two ≤ min_len
    from hydra_ray.stages.dedup import _char_span_merge_fn
    from hydra_ray.stages.keyed import keyed_map_partitions

    if driver_docs and ds.count() <= driver_docs:
        did, pos, r = _load_local(ds, id_col, text_col)
        if did.size == 0:
            hits = pd.DataFrame({"did": pd.Series(dtype="int64"), "pos": pd.Series(dtype="int64")})
        else:
            r, h = _doubling_local(did, pos, r, h_stop=w)
            if h < w:
                # every rank distinct before reaching w chars → no two
                # suffixes share even h < min_len chars → no dup windows
                hits = pd.DataFrame({"did": pd.Series(dtype="int64"), "pos": pd.Series(dtype="int64")})
            else:
                hits = _window_hits_local(did, pos, r, min_len, w, min_occ)
        merged = _char_span_merge_fn(min_len, id_col)(
            hits.rename(columns={"did": id_col})
        )
        return rd.from_arrow(pa.Table.from_pandas(merged, preserve_index=False))

    c0 = min(4, min_len)  # packed-seed chunk width

    def _emit_keys(did, pos, r, offs):
        """(did, pos, k0..k{m-1}) for every position with a full
        min_len window remaining; arrays must be in (did, pos) order."""
        valid = _full_window_mask(did, min_len)
        cols = {"did": did[valid], "pos": pos[valid]}
        for j, o in enumerate(offs):
            k = _shift_rank(did, r, o) if o else r
            cols[f"k{j}"] = k[valid]
        return cols

    if -(-min_len // c0) <= MAX_WINDOW_COLS:
        # direct path: the packed exact first-c0-byte key IS the rank
        # table, and packing/shifting are doc-local, so the keys come
        # straight out of the explode — zero doubling exchanges.
        offs = _window_offsets(min_len, c0)
        key_names = [f"k{j}" for j in range(len(offs))]

        def explode_keys(t: pa.Table) -> pa.Table:
            ids = pc.cast(t[id_col], pa.int64()).to_numpy(zero_copy_only=False)
            did, pos, rb = _explode_bytes(ids, t[text_col].to_pylist())
            if did.size == 0:
                cols = {c: np.empty(0, np.int64) for c in ["did", "pos"] + key_names}
            else:
                cols = _emit_keys(did, pos, _pack_initial(did, rb, c0), offs)
            return pa.table({k: pa.array(v, type=pa.int64()) for k, v in cols.items()})

        keys = ds.map_batches(explode_keys, batch_format="pyarrow")
    else:
        # fold-4 doubling until the rank tuple fits MAX_WINDOW_COLS
        # columns (never past w, so every offset keeps a full chunk)
        h_t = 1
        while -(-min_len // h_t) > MAX_WINDOW_COLS:
            h_t *= 2
        state, maxlen, n, nd = _init_state(ds, id_col, text_col, h0=4)
        h = 4
        all_distinct = nd == n
        while not all_distinct and h < h_t:
            fold = 4 if h * 4 <= w else 2
            state, n, nd = _dist_round(state, h, num_parts, fold=fold)
            h *= fold
            if nd == n:
                # no two suffixes share even their first h ≤ w chars,
                # so no min_len-window can repeat
                all_distinct = True

        if all_distinct or maxlen < min_len:
            empty = pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    "start_chr": pd.Series(dtype="int64"),
                    "end_chr": pd.Series(dtype="int64"),
                    "n_windows": pd.Series(dtype="int64"),
                }
            )
            return rd.from_arrow(pa.Table.from_pandas(empty, preserve_index=False))

        offs = _window_offsets(min_len, h)
        key_names = [f"k{j}" for j in range(len(offs))]

        def window_keys(df: pd.DataFrame) -> pd.DataFrame:
            if df.empty:
                return pd.DataFrame(
                    {c: pd.Series(dtype="int64") for c in ["did", "pos"] + key_names}
                )
            df = df.sort_values(["did", "pos"], kind="mergesort")
            return pd.DataFrame(
                _emit_keys(
                    df["did"].to_numpy(), df["pos"].to_numpy(), df["r"].to_numpy(), offs
                )
            )

        keys = keyed_map_partitions(state, ["did"], window_keys, num_parts)

    def dup_hits(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {"did": pd.Series(dtype="int64"), "pos": pd.Series(dtype="int64")}
            )
        arrs = [df[c].to_numpy() for c in key_names]
        order = np.lexsort(arrs[::-1])
        change = np.zeros(len(df), dtype=bool)
        change[0] = True
        for a in arrs:
            s = a[order]
            change[1:] |= s[1:] != s[:-1]
        gid = np.cumsum(change) - 1
        sizes = np.bincount(gid)
        sel = order[sizes[gid] >= min_occ]
        return pd.DataFrame(
            {
                "did": df["did"].to_numpy()[sel],
                # 1-based, matching char_dup_spans
                "pos": df["pos"].to_numpy()[sel] + 1,
            }
        )

    hits = keyed_map_partitions(keys, key_names, dup_hits, num_parts)

    def renamed(t: pa.Table) -> pa.Table:
        return t.rename_columns([id_col, "pos"])

    return keyed_map_partitions(
        hits.map_batches(renamed, batch_format="pyarrow"),
        [id_col],
        _char_span_merge_fn(min_len, id_col),
        num_parts=32,
    )
