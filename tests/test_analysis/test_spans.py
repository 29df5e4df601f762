"""Interleaved span documents: construction contract, explode, comparator,
and a DuckDB oracle for the chunk/offset arithmetic."""

import duckdb
import pyarrow as pa

from hydra_ray.stages.spans import (
    CHUNK,
    build_spans_batch,
    explode_spans_batch,
    span_sequences_equal,
)


def docs_table():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                "a" * 10,            # 1 chunk → no media
                "b" * (CHUNK * 3),   # 3 chunks → 1 media after chunk 2
                "c" * (CHUNK * 7 + 5),  # 8 chunks → media after 2 and 5
            ],
        }
    )


def test_build_contract():
    out = build_spans_batch(docs_table())
    spans = out["spans"].to_pylist()
    # doc 1: single text span
    assert [(s["kind"], s["offset"]) for s in spans[0]] == [("text", 0)]
    # doc 2: t0 t1 t2 m
    assert [(s["kind"], s["offset"]) for s in spans[1]] == [
        ("text", 0), ("text", 1), ("text", 2), ("media", 3),
    ]
    assert spans[1][3]["media_ref"] == "media://2/2"
    assert spans[1][0]["text"] == "b" * CHUNK
    # doc 3: 8 text chunks with media after i=2 and i=5 → 10 spans
    seq = [(s["kind"]) for s in spans[2]]
    assert seq == ["text", "text", "text", "media", "text", "text", "text", "media", "text", "text"]
    assert [s["offset"] for s in spans[2]] == list(range(10))
    assert spans[2][-1]["text"] == "c" * 5  # last partial chunk


def test_empty_text_single_empty_span():
    out = build_spans_batch(pa.table({"doc_id": pa.array([9], type=pa.int64()), "text": [""]}))
    spans = out["spans"].to_pylist()[0]
    assert len(spans) == 1 and spans[0]["kind"] == "text" and spans[0]["text"] == ""


def test_explode_roundtrip():
    built = build_spans_batch(docs_table())
    flat = explode_spans_batch(built)
    assert flat.num_rows == 1 + 4 + 10
    assert flat.column_names == ["doc_id", "kind", "text", "media_ref", "offset"]
    assert flat["doc_id"].to_pylist()[:5] == ["1", "2", "2", "2", "2"]


def test_comparator():
    a = build_spans_batch(docs_table())
    ok, bad = span_sequences_equal(a, a)
    assert ok and bad == []
    # mutate one span's text
    t = docs_table().set_column(1, "text", pa.array(["a" * 10, "b" * (CHUNK * 3 - 1), "c" * (CHUNK * 7 + 5)]))
    b = build_spans_batch(t)
    ok, bad = span_sequences_equal(a, b)
    assert not ok and bad == ["2"]


def test_duckdb_oracle_for_explode():
    """The span derivation is SQL-expressible; verify the engine against
    an independent DuckDB formulation (same contract, different code)."""
    docs = docs_table()
    flat = explode_spans_batch(build_spans_batch(docs)).to_pandas()
    con = duckdb.connect()
    con.register("documents", docs)
    oracle = con.execute(
        f"""
        WITH base AS (
            SELECT CAST(doc_id AS VARCHAR) AS doc_id, text,
                   CAST(greatest(1, ceil(length(text)/{CHUNK}.0)) AS BIGINT) AS nchunks
            FROM documents
        ), chunks AS (
            SELECT doc_id, unnest(generate_series(0, nchunks - 1)) AS i,
                   text FROM base
        ), chunks2 AS (
            SELECT doc_id, i, substring(text, i*{CHUNK}+1, {CHUNK}) AS chunk FROM chunks
        )
        SELECT doc_id, 'text' AS kind, chunk AS text, NULL AS media_ref,
               CAST(i + i//3 AS INT) AS "offset" FROM chunks2
        UNION ALL
        SELECT doc_id, 'media', NULL, 'media://' || doc_id || '/' || i,
               CAST(i + i//3 + 1 AS INT) FROM chunks2 WHERE i % 3 = 2
        ORDER BY doc_id, "offset"
        """
    ).df()
    got = flat.sort_values(["doc_id", "offset"]).reset_index(drop=True)
    oracle = oracle.sort_values(["doc_id", "offset"]).reset_index(drop=True)
    assert got["kind"].tolist() == oracle["kind"].tolist()
    assert got["offset"].tolist() == oracle["offset"].tolist()
    assert got["text"].fillna("∅").tolist() == oracle["text"].fillna("∅").tolist()
    assert got["media_ref"].fillna("∅").tolist() == oracle["media_ref"].fillna("∅").tolist()


def test_span_dedup_first_wins_and_media_survive():
    """Duplicate text spans drop corpus-wide (first in (doc_id, offset)
    order wins); media spans always survive; offsets re-densify."""
    import ray

    from hydra_ray.stages.spans import span_dedup

    # doc 1 and doc 2 share identical chunk text; doc 2 sees it later
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": ["x" * CHUNK + "y" * CHUNK, "x" * CHUNK + "z" * CHUNK + "w" * CHUNK],
        }
    )
    out = span_dedup(ray.data.from_arrow(docs), num_parts=4)
    rows = {r["doc_id"]: r["spans"] for r in out.take_all()}
    # doc 1 keeps both chunks (first occurrence of the shared "x" chunk)
    assert [(s["kind"], s["offset"]) for s in rows["1"]] == [("text", 0), ("text", 1)]
    # doc 2: shared "x" chunk dropped; media (i=2) kept; offsets dense
    kinds = [(s["kind"], s["offset"]) for s in rows["2"]]
    assert kinds == [("text", 0), ("text", 1), ("media", 2)]
    assert rows["2"][0]["text"] == "z" * CHUNK
    assert rows["2"][1]["text"] == "w" * CHUNK


def test_interleave_pack_capacity_and_doc_atomicity():
    """Greedy packing: spans fill sequences up to capacity; an
    over-capacity span sits alone; sequences reset per doc."""
    import ray

    from hydra_ray.stages.spans import interleave_pack

    # words of 1 char → token count = word count; CHUNK-sized chunks of
    # "w " pairs give CHUNK/2 tokens per chunk
    per_chunk = CHUNK // 2  # 128 tokens > capacity 64 → each chunk alone
    docs = pa.table(
        {
            "doc_id": pa.array([1], type=pa.int64()),
            "text": [("w " * per_chunk) * 3],  # 3 chunks + 1 media span
        }
    )
    out = interleave_pack(ray.data.from_arrow(docs), capacity=64, media_tokens=16)
    t = out.to_pandas().sort_values("offset").reset_index(drop=True)
    assert t["kind"].tolist() == ["text", "text", "text", "media"]
    # each 128-token chunk exceeds capacity → own sequence; media starts seq 3
    assert t["seq_id"].tolist() == [0, 1, 2, 3]
    # small spans pack together until the boundary
    docs2 = pa.table(
        {
            "doc_id": pa.array([7], type=pa.int64()),
            "text": ["one two three"],  # single 3-token span
        }
    )
    out2 = interleave_pack(ray.data.from_arrow(docs2), capacity=64)
    t2 = out2.to_pandas()
    assert t2["tok_cost"].tolist() == [3] and t2["seq_id"].tolist() == [0]


def test_interleaved_shards_composite(ray_session):
    """Dedup feeds the keep rule: a doc whose spans are all corpus-dups
    loses its tokens before the quality window is applied."""
    import ray

    from hydra_ray.stages.spans import interleaved_shards

    base = "alpha beta gamma delta " * 8  # 32 tokens, 1 chunk (<256 chars)
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [base, base, "unique words " + "w " * 30],
        }
    )
    out = interleaved_shards(
        ray.data.from_arrow(docs), capacity=16, n_shards=4, num_parts=4
    ).to_pandas()
    # doc 2's only span is a dup of doc 1's → zero surviving tokens → dropped
    assert set(out["doc_id"]) == {"1", "3"}
    assert (out["shard"] >= 0).all() and (out["shard"] < 4).all()
    # capacity 16 over a 32-token span → span alone in its sequence
    d1 = out[out["doc_id"] == "1"]
    assert d1["seq_id"].tolist() == [0] and d1["tok_total"].tolist() == [32]


def test_span_near_dup_fuzzy_removal(ray_session, keyset_route):
    """Near-identical (not byte-equal) chunks drop; short spans with no
    full shingle always survive; media survives."""
    import ray

    from hydra_ray.stages.spans import span_near_dup

    base = "alpha beta gamma delta epsilon zeta eta theta " * 5
    near = base.replace("theta", "thetaX", 1)  # one token differs
    assert base != near and len(base) < CHUNK and len(near) < CHUNK
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [base, near, "aa bb"],  # doc 3: 2 tokens, no shingle
        }
    )
    out = span_near_dup(ray.data.from_arrow(docs), threshold=0.5, num_parts=4)
    rows = {r["doc_id"]: r["spans"] for r in out.take_all()}
    # doc 1 keeps its span (smaller key wins); doc 2's near-dup drops,
    # so doc 2 vanishes entirely; doc 3's 2-token span is uncandidate
    assert set(rows) == {"1", "3"}
    assert [s["kind"] for s in rows["1"]] == ["text"]
    assert [s["text"] for s in rows["3"]] == ["aa bb"]


def test_span_near_dup_exact_dup_still_drops(ray_session, keyset_route):
    """Byte-equal spans are trivially Jaccard 1.0 — subsumes span_dedup
    on candidates; first-wins order matches the oracle's string keys."""
    import ray

    from hydra_ray.stages.spans import span_near_dup

    t = "one two three four five six " * 4
    docs = pa.table(
        {"doc_id": pa.array([7, 8], type=pa.int64()), "text": [t, t]}
    )
    out = span_near_dup(ray.data.from_arrow(docs), threshold=0.5, num_parts=4)
    rows = {r["doc_id"]: r["spans"] for r in out.take_all()}
    assert set(rows) == {"7"}


def test_span_near_dup_shuffle_route_matches_broadcast(ray_session, monkeypatch):
    """Many byte-identical docs: the dropped-key set is as large as the
    input. The keyed-shuffle route returns the same spans as the
    broadcast route, and neither route collects the dropped keys on
    the driver (Dataset.take_all is never called)."""
    import ray
    from ray.data import Dataset

    from hydra_ray.stages import joins
    from hydra_ray.stages.spans import span_near_dup

    def no_take_all(self, *args, **kwargs):
        raise AssertionError("span_near_dup called Dataset.take_all")

    monkeypatch.setattr(Dataset, "take_all", no_take_all)
    t = "one two three four five six " * 4
    n = 40
    docs = pa.table(
        {
            "doc_id": pa.array(range(100, 100 + n), type=pa.int64()),
            "text": [t] * n,
        }
    )

    def run():
        out = span_near_dup(
            ray.data.from_arrow(docs).repartition(4), threshold=0.5, num_parts=4
        ).to_pandas()
        return {
            d: [(s["kind"], s["text"], s["offset"]) for s in spans]
            for d, spans in zip(out["doc_id"], out["spans"])
        }

    broadcast = run()
    monkeypatch.setattr(joins, "KEYS_BROADCAST_MAX", 0)
    shuffle = run()
    assert shuffle == broadcast
    # every copy after the first is dropped; the first keeps its span
    assert list(broadcast) == ["100"]
    assert broadcast["100"] == [("text", t, 0)]


def test_span_near_dup_distributed_verify_matches_broadcast(ray_session, monkeypatch):
    """Above dedup.BROADCAST_DOCS_MAX span-docs the verify attaches
    texts by co-partitioning on the ``doc_id:offset`` string keys; it
    returns the same spans as the broadcast verify."""
    import ray

    from hydra_ray.stages import dedup
    from hydra_ray.stages.spans import span_near_dup

    base = "alpha beta gamma delta epsilon zeta eta theta " * 5
    near = base.replace("theta", "thetaX", 1)
    other = " ".join(f"w{i}" for i in range(30))
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "text": [base, near, "aa bb", other, base + "b" * CHUNK],
        }
    )

    def run():
        out = span_near_dup(
            ray.data.from_arrow(docs).repartition(2), threshold=0.5, num_parts=4
        ).to_pandas()
        return {
            d: [(s["kind"], s["text"], s["offset"]) for s in spans]
            for d, spans in zip(out["doc_id"], out["spans"])
        }

    broadcast = run()
    monkeypatch.setattr(dedup, "BROADCAST_DOCS_MAX", 0)
    distributed = run()
    assert distributed == broadcast
    # doc 2 is a near-dup of doc 1; doc 5's first span is one too
    assert set(broadcast) == {"1", "3", "4", "5"}
    assert broadcast["5"][0] != ("text", base, 0)
