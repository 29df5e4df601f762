"""End-to-end training-data curation pipeline.

The composite the training-data brief is really about, chained from
the engine's own operators, all streaming:

  documents
    → quality gate            (stages/text.py::quality_batch — Arrow kernels)
    → exact dedup             (stages/dedup.py::dedup_exact — hash shuffle,
                               min-id winner per content hash)
    → semi-join survivors     (stages/joins.py::semi_join — a broadcast
                               filter while the survivor set fits
                               KEYS_BROADCAST_MAX, one keyed shuffle once
                               it is corpus-sized)
    → context-window chunking (stages/text.py::chunk_documents — shuffle-free)
    → per-language stats      (stages/agg.py::grouped_agg — partial agg)

No stage materializes the corpus on the driver; the all-to-all
exchanges are the dedup hash shuffle and, above KEYS_BROADCAST_MAX
survivors, the survivor semi-join, both keyed on doc identity.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data as rd


def curate_corpus(
    ds: "rd.Dataset",
    max_tokens: int = 32,
    overlap: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    lang_col: str = "lang",
    near_dup_threshold: float | None = None,
) -> "rd.Dataset":
    """documents(doc_id, text, lang) → per-language curation stats
    (lang, n_docs, n_chunks, sum_toks) over the quality-passing,
    exact-deduplicated corpus. With ``near_dup_threshold`` set, a
    MinHash-LSH near-dup pass follows exact dedup and the HIGHER
    doc_id of every verified near-dup pair is dropped (greedy
    keep-smallest, via one anti-semi-join)."""
    from hydra_ray.stages.agg import grouped_agg
    from hydra_ray.stages.dedup import dedup_exact, dedup_minhash
    from hydra_ray.stages.joins import semi_join
    from hydra_ray.stages.text import chunk_documents, quality_batch

    def qfilter(t: pa.Table) -> pa.Table:
        return t.filter(quality_batch(t, id_col, text_col)["keep"])

    good = ds.map_batches(qfilter, batch_format="pyarrow")
    winners = dedup_exact(good, id_col=id_col, text_col=text_col).map_batches(
        lambda t: t.select([id_col]), batch_format="pyarrow"
    )
    survivors = semi_join(good, winners, id_col)
    if near_dup_threshold is not None:
        pairs = dedup_minhash(
            survivors.map_batches(
                lambda t: t.select([id_col, text_col]), batch_format="pyarrow"
            ),
            threshold=near_dup_threshold,
        )
        losers = pairs.map_batches(
            lambda t: pa.table({id_col: t["doc_b"]}), batch_format="pyarrow"
        )
        survivors = semi_join(survivors, losers, id_col, anti=True)
    chunks = chunk_documents(
        survivors,
        max_tokens=max_tokens,
        overlap=overlap,
        id_col=id_col,
        text_col=text_col,
        carry_cols=(lang_col,),
    )

    def mark_first(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_first = pc.equal(t["chunk_id"], 0)
        return t.append_column("is_doc", pc.cast(is_first, pa.int64()))

    marked = chunks.map_batches(mark_first, batch_format="pyarrow")
    return grouped_agg(
        marked,
        keys=[lang_col],
        aggs=[
            ("is_doc", "sum", "n_docs"),
            ("chunk_id", "count", "n_chunks"),
            ("n_toks", "sum", "sum_toks"),
        ],
    )


def training_shards(
    ds: "rd.Dataset",
    capacity: int = 256,
    n_shards: int = 4,
    seed: int = 7,
    max_tokens: int = 32,
    overlap: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "rd.Dataset":
    """The full corpus→training-set layout chain, one streaming
    pipeline: quality gate → exact dedup → survivor semi-join →
    context-window chunking → concat-and-chop sequence packing
    (distributed prefix sum) → deterministic shard assignment
    (splitmix64 of the sequence id).  Every chunk row comes out with
    its (seq_id, seq_offset, shard) — exactly what a training-data
    writer needs to emit fixed-capacity sequences into per-shard
    files.  Chunk order is the global (doc_id, chunk_id) order via one
    int64 order key; only vocabulary-free O(blocks) driver state (the
    pack offsets)."""
    from hydra_ray.stages.dedup import dedup_exact
    from hydra_ray.stages.joins import semi_join
    from hydra_ray.stages.pack import pack_sequences
    from hydra_ray.stages.text import chunk_documents, quality_batch
    from hydra_ray.state.cuckoo import _mix64

    import numpy as np

    def qfilter(t: pa.Table) -> pa.Table:
        return t.filter(quality_batch(t, id_col, text_col)["keep"])

    good = ds.map_batches(qfilter, batch_format="pyarrow")
    winners = dedup_exact(good, id_col=id_col, text_col=text_col).map_batches(
        lambda t: t.select([id_col]), batch_format="pyarrow"
    )
    survivors = semi_join(good, winners, id_col)
    chunks = chunk_documents(
        survivors, max_tokens=max_tokens, overlap=overlap,
        id_col=id_col, text_col=text_col,
    )

    def add_key(t: pa.Table) -> pa.Table:
        ok = (
            t[id_col].to_numpy(zero_copy_only=False).astype(np.int64) * 4096
            + t["chunk_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        )
        return pa.table(
            {
                id_col: t[id_col],
                "chunk_id": t["chunk_id"],
                "n_toks": t["n_toks"],
                "_ok": pa.array(ok),
            }
        )

    keyed = chunks.map_batches(add_key, batch_format="pyarrow")
    packed = pack_sequences(keyed, capacity=capacity, id_col="_ok", count_col="n_toks")

    def assign_shard(t: pa.Table) -> pa.Table:
        seq = t["seq_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        shard = (_mix64(seq + np.uint64(seed)) % np.uint64(n_shards)).astype(np.int64)
        return pa.table(
            {
                id_col: t[id_col],
                "chunk_id": t["chunk_id"],
                "n_toks": t["n_toks"],
                "seq_id": t["seq_id"],
                "seq_offset": t["seq_offset"],
                "shard": pa.array(shard),
            }
        )

    return packed.map_batches(assign_shard, batch_format="pyarrow")


def write_shards(ds: "rd.Dataset", out_dir: str) -> list[str]:
    """Write a ``training_shards`` result as hive-partitioned parquet —
    one directory per shard (``shard=K/``), many part files per shard
    (per-block writes, heavy bytes never on the driver).  This is the
    resumable layout the brief asks for: a restarted run lists the
    finished ``shard=`` directories and skips them.  Returns the shard
    directories written."""
    import os

    ds.write_parquet(out_dir, partition_cols=["shard"])
    return sorted(
        os.path.join(out_dir, d)
        for d in os.listdir(out_dir)
        if d.startswith("shard=")
    )
