"""Interleaved text+media span documents (BASELINE.json input_hint).

An analysed resource becomes one row ``(doc_id:string,
spans:list<struct<kind,text,media_ref,offset:int32>>)`` whose span
sequence interleaves text chunks with media references. The per-row
invariant used by parity tests is **span-sequence equality**: same
(kind, text, media_ref, offset) tuples in the same order.

Deterministic construction contract (mirrored by the DuckDB oracle in
pipelines/queries.py::oracle span_explode):
  - text is split into CHUNK=256-char chunks c_0..c_{n-1}
  - after every 3rd text chunk (i % 3 == 2) a media span is inserted
    with media_ref = 'media://{doc_id}/{i}'
  - offset is the position in the final interleaved sequence:
    text chunk i   → offset = i + i // 3
    media after i  → offset = i + i // 3 + 1

The builder is an Arrow-native batch function: it computes all chunk
boundaries with numpy and assembles the list<struct> column directly
from offsets + flat child arrays (no per-row python object churn).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from hydra_ray.schemas import SPAN_STRUCT, strings

CHUNK = 256
MEDIA_EVERY = 3


def build_spans_batch(batch: pa.Table, doc_id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """documents(doc_id, text) → (doc_id:string, spans:list<struct>)."""
    ids = batch[doc_id_col].cast(pa.string()).combine_chunks()
    doc_ids = strings(ids)
    texts = strings(batch[text_col])

    kinds: list[str] = []
    span_text: list[str | None] = []
    media_ref: list[str | None] = []
    offsets_child: list[int] = []
    list_offsets = [0]

    for doc_id, text in zip(doc_ids, texts):
        text = text or ""
        nchunks = max(1, -(-len(text) // CHUNK))
        pos = 0
        for i in range(nchunks):
            kinds.append("text")
            span_text.append(text[i * CHUNK : (i + 1) * CHUNK])
            media_ref.append(None)
            offsets_child.append(pos)
            pos += 1
            if i % MEDIA_EVERY == MEDIA_EVERY - 1:
                kinds.append("media")
                span_text.append(None)
                media_ref.append(f"media://{doc_id}/{i}")
                offsets_child.append(pos)
                pos += 1
        list_offsets.append(list_offsets[-1] + pos)

    struct_arr = pa.StructArray.from_arrays(
        [
            pa.array(kinds, type=pa.string()),
            pa.array(span_text, type=pa.string()),
            pa.array(media_ref, type=pa.string()),
            pa.array(np.array(offsets_child, dtype=np.int32)),
        ],
        fields=list(SPAN_STRUCT),
    )
    spans = pa.ListArray.from_arrays(pa.array(np.array(list_offsets, dtype=np.int32)), struct_arr)
    return pa.table({"doc_id": ids, "spans": spans})


def explode_spans_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, spans) → one row per span: (doc_id, kind, text, media_ref, offset).

    Pure Arrow: flattens the list column and repeats doc_id by list length.
    """
    spans = batch["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    doc_id = batch["doc_id"]
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    lengths = pa.compute.list_value_length(spans).to_numpy(zero_copy_only=False)
    parent = np.repeat(np.arange(len(batch)), lengths.astype(np.int64))
    flat = spans.flatten()
    return pa.table(
        {
            "doc_id": doc_id.take(pa.array(parent)),
            "kind": flat.field("kind"),
            "text": flat.field("text"),
            "media_ref": flat.field("media_ref"),
            "offset": flat.field("offset"),
        }
    )


PACK_CAPACITY = 64  # tokens per packed training sequence
MEDIA_TOKENS = 16  # fixed token budget one media span occupies


def _assemble_spans(t: pa.Table) -> pa.Table:
    """Exploded span rows (doc_id, kind, text, media_ref, offset) →
    nested (doc_id, spans) with offsets recomputed densely per doc.

    Requires all rows of a doc in the table (co-partitioned by doc_id).
    Pure Arrow/numpy: one sort, run-length doc grouping, flat child
    arrays reused zero-copy where possible."""
    if t.num_rows == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.string()),
                "spans": pa.array([], type=pa.list_(SPAN_STRUCT)),
            }
        )
    t = t.take(
        pa.compute.sort_indices(
            t, sort_keys=[("doc_id", "ascending"), ("offset", "ascending")]
        )
    )
    dids = t["doc_id"].to_pandas().to_numpy()
    # run lengths in sorted order (np.unique sorts — same order as the take)
    uniq, counts = np.unique(dids, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    new_off = np.arange(len(t), dtype=np.int32) - np.repeat(starts, counts).astype(np.int32)
    def scol(name: str) -> pa.Array:
        # all-null partitions round-trip from pandas as null-typed —
        # cast back to the struct field's string type
        return t[name].combine_chunks().cast(pa.string())

    struct_arr = pa.StructArray.from_arrays(
        [scol("kind"), scol("text"), scol("media_ref"), pa.array(new_off)],
        fields=list(SPAN_STRUCT),
    )
    list_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    spans = pa.ListArray.from_arrays(pa.array(list_offsets), struct_arr)
    return pa.table({"doc_id": pa.array(uniq, type=pa.string()), "spans": spans})


def span_dedup(ds, num_parts: int = 32):
    """Corpus-wide exact dedup at SPAN granularity over interleaved
    documents: every duplicate text span (same 256-char chunk text
    appearing anywhere else in the corpus) is dropped except the first
    occurrence in (doc_id, offset) order; media spans always survive.
    Docs are then REBUILT as nested (doc_id, spans) rows with offsets
    recomputed densely, preserving span order.

    Distribution shape (same contract as paragraph_dedup, but the
    rebuild returns the nested input_hint table, not joined text):

      1. build + explode spans (map_batches, Arrow);
      2. shuffle by span IDENTITY — text spans by chunk text, media
         spans by their unique media_ref (uniform spread, no NULL-key
         hot partition) — and mark first-wins vectorized per partition;
      3. shuffle survivors by doc_id and reassemble list<struct> rows.
    """
    import pandas as pd

    from hydra_ray.stages.keyed import keyed_map_partitions, keyed_map_partitions_arrow

    exploded = ds.map_batches(build_spans_batch, batch_format="pyarrow").map_batches(
        explode_spans_batch, batch_format="pyarrow"
    )

    def addkey(t: pa.Table) -> pa.Table:
        # kind-prefixed so a text chunk can never collide with a media_ref
        key = pa.compute.binary_join_element_wise(
            t["kind"], pa.compute.coalesce(t["text"], t["media_ref"]), "|"
        )
        return t.append_column("_k", key)

    def mark(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["doc_id", "offset"], kind="mergesort")
        is_text = df["kind"].eq("text")
        keep = ~(df["_k"].duplicated() & is_text)
        return df.loc[keep, ["doc_id", "kind", "text", "media_ref", "offset"]]

    marked = keyed_map_partitions(
        exploded.map_batches(addkey, batch_format="pyarrow"),
        ["_k"],
        mark,
        num_parts=num_parts,
    )
    return keyed_map_partitions_arrow(
        marked, ["doc_id"], _assemble_spans, num_parts=num_parts
    )


def span_near_dup(
    ds,
    threshold: float = 0.5,
    shingle_k: int = 3,
    num_parts: int = 32,
):
    """MinHash-LSH NEAR-duplicate span removal over interleaved docs —
    the fuzzy sibling of span_dedup: text spans whose shingle-set
    Jaccard with an earlier span reaches ``threshold`` are dropped,
    then docs are rebuilt with dense offsets.

    Each text span becomes a MinHash "document" keyed by
    ``doc_id:offset`` (offset zero-padded so string order is span
    order) and the whole stages/dedup.py pipeline runs unchanged:
    shingle → per-batch banding (stateless tasks) → distributed bucket
    collision → true-Jaccard verify. Removal mirrors curate_near_dup:
    the larger key of every verified pair is dropped (one anti-join).

    Spans with fewer than ``shingle_k`` tokens have no full shingle, so
    they are never candidates and always survive — as do media spans.
    (This is also what keeps the SQL oracle exact: its 3-shingle
    self-joins produce no rows below k tokens.)

    Scale shape: the input is read twice and the exploded spans are
    never held in the object store. The candidate pass (build +
    explode + filter, fused in one map) feeds dedup_minhash, which
    executes it once and inherits its verify routing (broadcast
    verify below BROADCAST_DOCS_MAX span-docs, co-partition joins
    above). The second read rebuilds build + explode in the fused map
    in front of the anti-join: the dropped keys (``doc_b`` of every
    verified pair) are removed by semi_join's anti route — broadcast
    below KEYS_BROADCAST_MAX, one keyed shuffle above, never collected
    on the driver — then one doc-keyed reassembly.
    """
    from hydra_ray.stages.dedup import dedup_minhash
    from hydra_ray.stages.joins import semi_join
    from hydra_ray.stages.keyed import keyed_map_partitions_arrow
    from hydra_ray.stages.text import _tokens_arr

    pc = pa.compute

    def flat(t: pa.Table) -> pa.Table:
        return explode_spans_batch(build_spans_batch(t))

    def span_key(t: pa.Table) -> pa.Array:
        off = pc.utf8_lpad(pc.cast(t["offset"], pa.string()), width=6, padding="0")
        k = pc.binary_join_element_wise(t["doc_id"], off, ":")
        return k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k

    def candidates(t: pa.Table) -> pa.Table:
        t = flat(t)
        ntok = pc.fill_null(pc.list_value_length(_tokens_arr(t["text"])), 0)
        m = pc.and_(pc.equal(t["kind"], "text"), pc.greater_equal(ntok, shingle_k))
        sub = t.filter(m)
        return pa.table({"doc_id": span_key(sub), "text": sub["text"]})

    def keyed(t: pa.Table) -> pa.Table:
        t = flat(t)
        return t.append_column("_k", span_key(t))

    pairs = dedup_minhash(
        ds.map_batches(candidates, batch_format="pyarrow"),
        threshold=threshold,
        shingle_k=shingle_k,
    )
    drop_keys = pairs.map_batches(
        lambda t: pa.table({"_k": t["doc_b"]}), batch_format="pyarrow"
    )
    surv = semi_join(
        ds.map_batches(keyed, batch_format="pyarrow"),
        drop_keys,
        "_k",
        num_parts=num_parts,
        anti=True,
    )
    return keyed_map_partitions_arrow(surv, ["doc_id"], _assemble_spans, num_parts=num_parts)


def _span_costs(spans: pa.ListArray, media_tokens: int) -> tuple[np.ndarray, pa.StructArray, np.ndarray]:
    """Nested spans column → (per-doc span counts, flat child struct,
    per-span token cost). Text spans cost their whitespace token count
    (text_stats_batch tokenizer contract), media spans a fixed budget."""
    from hydra_ray.stages.text import _tokens_arr

    lengths = pa.compute.list_value_length(spans).to_numpy(zero_copy_only=False)
    lengths = lengths.astype(np.int64)
    flat = spans.flatten()
    kind = flat.field("kind").to_numpy(zero_copy_only=False)
    toks = pa.compute.list_value_length(_tokens_arr(flat.field("text")))
    toks = toks.to_numpy(zero_copy_only=False)  # float w/ nan for media
    tok = np.where(kind == "media", float(media_tokens), toks).astype(np.int64)
    return lengths, flat, tok


def _greedy_pack(lengths: np.ndarray, tok: np.ndarray, capacity: int) -> np.ndarray:
    """Greedy doc-atomic packing: per-span sequence ids (0-based within
    the doc), stepped vectorized across docs per span RANK."""
    n = int(lengths.sum())
    ndocs = len(lengths)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    seq = np.zeros(n, dtype=np.int64)
    cur = np.zeros(ndocs, dtype=np.int64)
    curseq = np.zeros(ndocs, dtype=np.int64)
    for r in range(int(lengths.max()) if ndocs else 0):
        m = lengths > r
        pos = starts[m] + r
        c = tok[pos]
        over = (cur[m] + c > capacity) & (cur[m] > 0)
        curseq[m] += over
        cur[m] = np.where(over, c, cur[m] + c)
        seq[pos] = curseq[m]
    return seq


def interleave_pack(
    ds,
    capacity: int = PACK_CAPACITY,
    media_tokens: int = MEDIA_TOKENS,
):
    """Greedy sequence packing at SPAN granularity for multimodal
    training: each doc's interleaved span stream is split, in offset
    order, into sequences of at most ``capacity`` tokens — a text span
    costs its whitespace token count (same tokenizer contract as
    text_stats_batch), a media span costs a fixed ``media_tokens``
    placeholder budget. A span is placed in the current sequence unless
    it would overflow it, in which case a new sequence starts (a span
    costing more than ``capacity`` occupies a sequence alone).

    Packing is doc-atomic at sequence level (sequences never span
    docs), so the stage is embarrassingly parallel over NESTED doc
    rows — the greedy state lives entirely inside the per-row
    computation, immune to dynamic block splitting. The inner loop is
    vectorized across docs per span RANK (state arrays stepped
    max-spans-per-doc times), mirroring the recursive-CTE oracle.

    Returns one row per span: (doc_id, offset, kind, tok_cost, seq_id)
    with seq_id counted within the doc.
    """
    def pack_fn(t: pa.Table) -> pa.Table:
        spans = t["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths, flat, tok = _span_costs(spans, media_tokens)
        seq = _greedy_pack(lengths, tok, capacity)
        doc_id = t["doc_id"]
        if isinstance(doc_id, pa.ChunkedArray):
            doc_id = doc_id.combine_chunks()
        parent = np.repeat(np.arange(len(t)), lengths)
        return pa.table(
            {
                "doc_id": doc_id.take(pa.array(parent)),
                "offset": flat.field("offset"),
                "kind": flat.field("kind"),
                "tok_cost": pa.array(tok),
                "seq_id": pa.array(seq),
            }
        )

    return ds.map_batches(build_spans_batch, batch_format="pyarrow").map_batches(
        pack_fn, batch_format="pyarrow"
    )


MIN_DOC_TOKENS = 20  # quality-keep lower bound (sum of per-span tokens)
MAX_DOC_TOKENS = 80  # upper bound (boilerplate / runaway docs)


def _doc_stats_arrays(
    t: pa.Table, media_tokens: int
) -> tuple[pa.Array, np.ndarray, np.ndarray, np.ndarray, np.ndarray, pa.StructArray, np.ndarray]:
    """Shared per-doc metric computation over nested (doc_id, spans)
    rows: returns (doc_id array, n_spans, n_media, text_tokens, keep
    mask, flat struct, per-span tok cost). Pure segment sums — one
    reduceat per metric, no per-row Python."""
    spans = t["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    doc_id = t["doc_id"]
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    lengths, flat, tok = _span_costs(spans, media_tokens)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
    is_media = (flat.field("kind").to_numpy(zero_copy_only=False) == "media").astype(np.int64)
    # docs always have >=1 span (empty text → one empty text span)
    n_media = np.add.reduceat(is_media, starts) if len(flat) else np.zeros(0, np.int64)
    text_tok = (
        np.add.reduceat(np.where(is_media == 1, 0, tok), starts)
        if len(flat)
        else np.zeros(0, np.int64)
    )
    keep = (
        (text_tok >= MIN_DOC_TOKENS)
        & (text_tok <= MAX_DOC_TOKENS)
        & (n_media * 4 <= lengths)  # media fraction <= 1/4, integer-exact
    )
    return doc_id, lengths, n_media, text_tok, keep, flat, tok


def interleaved_shards(
    ds,
    capacity: int = PACK_CAPACITY,
    media_tokens: int = MEDIA_TOKENS,
    n_shards: int = 8,
    seed: int = 1234,
    num_parts: int = 32,
):
    """Flagship interleaved-corpus curation composite: span_dedup →
    per-doc quality keep (`_doc_stats_arrays`' token band and media
    fraction, applied to the SURVIVING spans) → greedy interleave
    packing → deterministic shard assignment, one row per packed
    sequence:

        (doc_id, seq_id, n_spans, tok_total, shard)

    shard = splitmix64(doc_id*4096 + seq_id + seed) % n_shards — the
    seeded-rank layout contract, parallelism-invariant.

    Scale shape: the only shuffles are span_dedup's two keyed
    exchanges; stats, filter, packing and the per-sequence aggregation
    all happen inside ONE map_batches over the rebuilt nested rows
    (doc-atomic, so dynamic block splits can't cut a sequence), and the
    per-sequence reduction is a reduceat over runs that are already
    contiguous in flat span order."""
    from hydra_ray.functions.hashing import _mix64

    nested = span_dedup(ds, num_parts=num_parts)

    def fn(t: pa.Table) -> pa.Table:
        doc_id, lengths, _, _, keep, _, _ = _doc_stats_arrays(t, media_tokens)
        if len(t) == 0 or not keep.any():
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.string()),
                    "seq_id": pa.array([], type=pa.int64()),
                    "n_spans": pa.array([], type=pa.int64()),
                    "tok_total": pa.array([], type=pa.int64()),
                    "shard": pa.array([], type=pa.int64()),
                }
            )
        kept = t.filter(pa.array(keep))
        spans = kept["spans"]
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        lengths, _, tok = _span_costs(spans, media_tokens)
        seq = _greedy_pack(lengths, tok, capacity)
        # flat order is already (doc, seq)-sorted: run boundaries where
        # the doc changes or the seq id steps
        parent = np.repeat(np.arange(len(kept), dtype=np.int64), lengths)
        combo = parent * (seq.max() + 1 if len(seq) else 1) + seq
        bounds = np.concatenate([[0], np.flatnonzero(np.diff(combo)) + 1])
        n_spans = np.diff(np.concatenate([bounds, [len(combo)]]))
        tok_total = np.add.reduceat(tok, bounds)
        doc_idx = parent[bounds]
        seq_ids = seq[bounds]
        kd = kept["doc_id"]
        if isinstance(kd, pa.ChunkedArray):
            kd = kd.combine_chunks()
        dids = pa.compute.cast(kd, pa.int64()).to_numpy(zero_copy_only=False)
        src = dids[doc_idx].astype(np.uint64) * np.uint64(4096) + seq_ids.astype(
            np.uint64
        ) + np.uint64(seed)
        shard = (_mix64(src) % np.uint64(n_shards)).astype(np.int64)
        return pa.table(
            {
                "doc_id": kd.take(pa.array(doc_idx)),
                "seq_id": pa.array(seq_ids),
                "n_spans": pa.array(n_spans),
                "tok_total": pa.array(tok_total),
                "shard": pa.array(shard),
            }
        )

    return nested.map_batches(fn, batch_format="pyarrow")


def span_sequences_equal(a: pa.Table, b: pa.Table) -> tuple[bool, list[str]]:
    """Row-wise span-sequence comparator (the per-row invariant).

    Both tables must have (doc_id, spans). Returns (ok, mismatched doc_ids).
    Order inside the list is significant; row order across docs is not.
    """

    def to_map(t: pa.Table) -> dict[str, list[tuple]]:
        out: dict[str, list[tuple]] = {}
        for doc_id, spans in zip(t["doc_id"].to_pylist(), t["spans"].to_pylist()):
            out[str(doc_id)] = [
                (s["kind"], s["text"], s["media_ref"], s["offset"]) for s in (spans or [])
            ]
        return out

    ma, mb = to_map(a), to_map(b)
    bad = sorted(
        set(k for k in ma.keys() | mb.keys() if ma.get(k) != mb.get(k))
    )
    return (len(bad) == 0, bad)
