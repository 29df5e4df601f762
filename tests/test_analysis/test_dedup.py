"""Dedup stages: exact keep-first, MinHash-LSH recall on planted
near-dups, SimHash locality, n-gram Jaccard blocking."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from hydra_ray.stages.dedup import (
    N_PERM,
    dedup_exact,
    dedup_minhash,
    hamming64,
    jaccard,
    minhash_signature,
    ngram_jaccard_pairs,
    simhash_batch,
)

BASE = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "from a warm window sill in the late afternoon sun of a quiet town"
)


def corpus():
    rows = []
    # near-dup pair: one word changed
    rows.append((0, BASE, "src0"))
    rows.append((1, BASE.replace("lazy", "sleepy"), "src0"))
    # exact dup pair
    rows.append((2, "identical text content here", "src0"))
    rows.append((3, "identical text content here", "src0"))
    # unrelated docs
    for i in range(4, 14):
        rows.append((i, " ".join(f"w{i}x{j}" for j in range(30)), "src1"))
    return pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "text": [r[1] for r in rows],
            "source": [r[2] for r in rows],
        }
    )


@pytest.mark.usefixtures("ray_session")
class TestDedup:
    def test_exact(self):
        out = dedup_exact(rd.from_arrow(corpus())).to_pandas()
        assert len(out) == 13  # 14 docs, one exact dup collapsed
        row = out[out["n_dupes"] > 0]
        assert row["doc_id"].tolist() == [2]  # min id kept
        assert row["n_dupes"].tolist() == [1]

    def test_minhash_finds_planted_pairs(self):
        out = dedup_minhash(rd.from_arrow(corpus()), threshold=0.5).to_pandas()
        pairs = set(zip(out["doc_a"], out["doc_b"]))
        assert (0, 1) in pairs  # near-dup
        assert (2, 3) in pairs  # exact dup (jaccard 1.0)
        # unrelated docs must not pair
        assert not any(a >= 4 for a, _ in pairs)

    def test_jaccard_bounds(self):
        assert jaccard(BASE, BASE) == 1.0
        assert jaccard(BASE, "completely different words") < 0.05
        j = jaccard(BASE, BASE.replace("lazy", "sleepy"))
        assert 0.5 < j < 1.0

    def test_simhash_locality(self):
        t = pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "text": [BASE, BASE.replace("lazy", "sleepy"), "totally other content now"],
            }
        )
        h = simhash_batch(t)["simhash"].to_numpy(zero_copy_only=False)
        d_near = hamming64(h[:1], h[1:2])[0]
        d_far = hamming64(h[:1], h[2:3])[0]
        assert d_near < d_far
        assert d_near <= 12

    def test_minhash_signature_deterministic(self):
        s1, s2 = minhash_signature(BASE), minhash_signature(BASE)
        assert s1.shape == (N_PERM,)
        assert (s1 == s2).all()

    def test_minhash_distributed_matches_broadcast(self):
        """The co-partitioned verify path (no driver materialization,
        no text broadcast) must produce byte-identical pairs to the
        broadcast path."""
        b = (
            dedup_minhash(rd.from_arrow(corpus()), threshold=0.5, distributed=False)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        d = (
            dedup_minhash(rd.from_arrow(corpus()), threshold=0.5, distributed=True)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert b.astype({"doc_a": "int64", "doc_b": "int64"}).equals(
            d.astype({"doc_a": "int64", "doc_b": "int64"})
        )
        assert len(b) >= 2

    def test_ngram_pairs_blocked_by_source(self):
        out = ngram_jaccard_pairs(rd.from_arrow(corpus()), threshold=0.5).to_pandas()
        pairs = set(zip(out["doc_a"], out["doc_b"]))
        assert (0, 1) in pairs and (2, 3) in pairs


@pytest.mark.usefixtures("ray_session")
def test_duplicate_clusters_distributed_matches_driver():
    """The iterative min-label co-partition variant must produce the
    same components as the driver pandas version — including a chain
    long enough to need several propagation rounds."""
    import pandas as pd
    import ray.data as rd

    from hydra_ray.stages.dedup import duplicate_clusters, duplicate_clusters_distributed

    # chain 0-1-2-3 (needs several propagation rounds), a triangle, a
    # separate pair (each ray round is 2 shuffles — keep diameter small
    # so the suite stays fast; convergence at depth is covered by the
    # driver-variant test below with the same min-label semantics)
    pairs = pd.DataFrame(
        {
            "doc_a": [0, 1, 2] + [100, 101, 100, 200],
            "doc_b": [1, 2, 3] + [101, 102, 102, 201],
        }
    )
    want = duplicate_clusters(pairs).astype({"doc_id": "int64", "cluster_id": "int64"})
    got = (
        duplicate_clusters_distributed(rd.from_pandas(pairs).repartition(3))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
        .astype({"doc_id": "int64", "cluster_id": "int64"})
    )
    assert got.equals(want.sort_values("doc_id").reset_index(drop=True))
    assert set(got[got["doc_id"] < 10]["cluster_id"]) == {0}  # chain fully merged
    assert set(got[(got["doc_id"] >= 100) & (got["doc_id"] < 200)]["cluster_id"]) == {100}


def test_duplicate_clusters():
    import pandas as pd

    from hydra_ray.stages.dedup import duplicate_clusters

    # components: {1,2,3} via chain, {7,9}, singleton pairs absent
    pairs = pd.DataFrame({"doc_a": [1, 2, 7], "doc_b": [2, 3, 9]})
    out = duplicate_clusters(pairs).set_index("doc_id")["cluster_id"]
    assert out.loc[1] == 1 and out.loc[2] == 1 and out.loc[3] == 1
    assert out.loc[7] == 7 and out.loc[9] == 7
    assert duplicate_clusters(pd.DataFrame({"doc_a": [], "doc_b": []})).empty


@pytest.mark.usefixtures("ray_session")
def test_duplicated_passages_spans_and_merging():
    """Two docs share a 6-token passage (two overlapping 5-gram hits ->
    one merged span); a third doc shares nothing."""
    import ray.data as rd

    from hydra_ray.stages.dedup import duplicated_passages

    shared = "alpha beta gamma delta epsilon zeta"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    f"one two {shared} three four",
                    f"x {shared} y z",
                    "totally different words only here now",
                ]
            ),
        }
    )
    out = (
        duplicated_passages(rd.from_arrow(t).repartition(2), k=5)
        .to_pandas()
        .sort_values(["doc_id", "start_tok"])
        .reset_index(drop=True)
    )
    # doc1: shared starts at token 3 -> grams at 3,4 -> span tokens 3..8
    # doc2: shared starts at token 2 -> span tokens 2..7
    assert out["doc_id"].tolist() == [1, 2]
    assert out.loc[0, ["start_tok", "end_tok", "n_grams"]].tolist() == [3, 8, 2]
    assert out.loc[1, ["start_tok", "end_tok", "n_grams"]].tolist() == [2, 7, 2]


@pytest.mark.usefixtures("ray_session")
def test_duplicated_passages_gram_frequency_cap_and_invariance():
    """max_gram_freq drops ubiquitous boilerplate grams (the hot-key
    skew guard); output is invariant under input partitioning."""
    import ray.data as rd

    from hydra_ray.stages.dedup import duplicated_passages

    boiler = "same old boiler plate text"  # appears in every doc (6 hits)
    uniq = "alpha beta gamma delta epsilon"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
            "text": pa.array(
                [f"{boiler} one", f"{boiler} two", f"{boiler} three",
                 f"x {uniq} y", f"z {uniq} w", f"{boiler} four"]
            ),
        }
    )
    capped = (
        duplicated_passages(rd.from_arrow(t).repartition(3), k=5, max_gram_freq=3)
        .to_pandas()
        .sort_values(["doc_id", "start_tok"])
        .reset_index(drop=True)
    )
    # boiler gram occurs 4x (> cap) -> only the uniq passage pair remains
    assert set(capped["doc_id"]) == {4, 5}
    uncapped = duplicated_passages(rd.from_arrow(t).repartition(2), k=5).to_pandas()
    assert set(uncapped["doc_id"]) == {1, 2, 3, 4, 5, 6}
    # partitioning invariance
    a = (
        duplicated_passages(rd.from_arrow(t).repartition(6), k=5)
        .to_pandas().sort_values(["doc_id", "start_tok"]).reset_index(drop=True)
    )
    b = (
        duplicated_passages(rd.from_arrow(t), k=5)
        .to_pandas().sort_values(["doc_id", "start_tok"]).reset_index(drop=True)
    )
    assert a.equals(b)


@pytest.mark.usefixtures("ray_session")
def test_decontaminate_paths_agree(monkeypatch):
    """Broadcast and distributed semi-join decontamination paths
    produce identical (doc, n_overlap, contaminated) rows; planted
    overlaps are found, clean docs score zero."""
    import ray.data as rd

    from hydra_ray.stages import joins
    from hydra_ray.stages.dedup import decontaminate

    bench = pa.table(
        {
            "doc_id": pa.array([100, 101], type=pa.int64()),
            "text": ["the quick brown fox jumps over the lazy dog",
                     "pack my box with five dozen liquor jugs"],
        }
    )
    corpus = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                "intro words then the quick brown fox jumps right out",  # 5-gram overlap
                "totally clean document with no shared phrases at all",
                "pack my box with five dozen liquor jugs verbatim copy",  # long overlap
                "quick brown fox alone is too short to hit",              # <5-gram overlap
            ],
        }
    )

    def run():
        return (
            decontaminate(
                rd.from_arrow(corpus).repartition(2), rd.from_arrow(bench), n=5
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )

    a = run()  # broadcast path
    monkeypatch.setattr(joins, "KEYS_BROADCAST_MAX", 0)
    b = run()  # distributed semi-join path
    assert a.equals(b)
    got = a.set_index("doc_id")
    assert bool(got.loc[1, "contaminated"]) and got.loc[1, "n_overlap"] == 1
    assert not bool(got.loc[2, "contaminated"]) and got.loc[2, "n_overlap"] == 0
    assert bool(got.loc[3, "contaminated"]) and got.loc[3, "n_overlap"] == 4
    assert not bool(got.loc[4, "contaminated"])


def test_exact_substr_dedup_removes_shared_passages():
    import ray.data as rd
    from hydra_ray.stages.dedup import exact_substr_dedup

    shared = "one two three four five six seven"
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    f"alpha beta {shared} gamma",
                    f"delta {shared} epsilon zeta",
                    "totally unique words only here appear once",
                    shared,  # fully duplicated doc
                ]
            ),
        }
    )
    out = {
        r["doc_id"]: r
        for r in exact_substr_dedup(rd.from_arrow(docs), k=5, min_docs=2).take_all()
    }
    assert out[1]["clean_text"] == "alpha beta gamma"
    assert out[1]["n_removed"] == 7
    assert out[2]["clean_text"] == "delta epsilon zeta"
    assert out[3]["clean_text"] == docs["text"][2].as_py()
    assert out[3]["n_removed"] == 0
    assert out[4]["clean_text"] == "" and out[4]["n_removed"] == 7


def test_exact_substr_dedup_partition_invariant():
    import numpy as np
    import ray.data as rd
    from hydra_ray.stages.dedup import exact_substr_dedup

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(30)]
    base = " ".join(rng.choice(vocab, 12))
    texts = [
        (" ".join(rng.choice(vocab, 8)) + " " + base) if i % 3 == 0
        else " ".join(rng.choice(vocab, 15))
        for i in range(40)
    ]
    t = pa.table({"doc_id": pa.array(range(40), type=pa.int64()), "text": pa.array(texts)})
    a = {r["doc_id"]: r["clean_text"] for r in exact_substr_dedup(rd.from_arrow(t)).take_all()}
    b = {
        r["doc_id"]: r["clean_text"]
        for r in exact_substr_dedup(rd.from_arrow(t).repartition(9)).take_all()
    }
    assert a == b


def _brute_char_spans(docs, L, min_occ):
    """Reference: duplicated L-windows by exact text count, islands."""
    from collections import Counter

    c = Counter()
    for _, tx in docs:
        for p in range(len(tx) - L + 1):
            c[tx[p : p + L]] += 1
    spans = []
    for did, tx in docs:
        pos = [
            p + 1
            for p in range(len(tx) - L + 1)
            if c[tx[p : p + L]] >= min_occ
        ]
        if not pos:
            continue
        start, prev, n = pos[0], pos[0], 1
        for p in pos[1:]:
            if p - prev > L:
                spans.append((did, start, prev + L - 1, n))
                start, n = p, 0
            prev = p
            n += 1
        spans.append((did, start, prev + L - 1, n))
    return sorted(spans)


def test_char_dup_spans_both_paths_match_bruteforce(ray_session):
    """Scale (hash-candidate/verify) and direct paths both equal the
    brute-force reference, including a WITHIN-doc repeat (a suffix
    array counts occurrences, not documents)."""
    from hydra_ray.stages.dedup import char_dup_spans, char_dup_spans_direct

    L = 12
    shared = "XxYzCommonDuplicatedRun12345"  # > L chars, in docs 0 & 2
    docs = [
        (0, "prefix alpha " + shared + " suffix omega one two three"),
        (1, "totally unrelated content with nothing repeated here at all"),
        (2, "other header " + shared + " trailing words differ"),
        # within-doc repeat: the same >L block twice in one document
        (3, "qqq InsideRepeatBlock!! mid InsideRepeatBlock!! end"),
        (4, "short"),
    ]
    want = _brute_char_spans(docs, L, 2)
    assert want, "fixture must contain duplicated spans"
    assert any(d == 3 for d, *_ in want), "within-doc repeat must surface"

    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "text": [tx for _, tx in docs],
        }
    )
    for fn, kw in (
        (char_dup_spans, {"small_threshold": None, "num_parts": 8}),
        (char_dup_spans, {"small_threshold": 1000}),
        (char_dup_spans_direct, {"num_parts": 8}),
    ):
        out = fn(rd.from_arrow(t), L=L, min_occ=2, **kw).to_pandas()
        got = sorted(
            (int(r.doc_id), int(r.start_chr), int(r.end_chr), int(r.n_windows))
            for r in out.itertuples()
        )
        assert got == want, (fn.__name__, kw, got, want)


def test_jaccard_set_join_exact_pairs(ray_session):
    """PPJoin prefix filtering finds exactly the ≥t pairs (verified
    against a brute-force python Jaccard on token sets)."""
    import itertools

    import pyarrow as pa

    import ray.data as rd

    from hydra_ray.stages.dedup import jaccard_set_join

    texts = {
        "a": "alpha beta gamma delta epsilon zeta",
        "b": "alpha beta gamma delta epsilon eta",     # J(a,b)=5/7
        "c": "alpha beta gamma delta epsilon zeta",    # == a -> J=1
        "d": "one two three four five six",
        "e": "one two three four five six seven",      # J(d,e)=6/7
    }
    t = pa.table({"doc_id": list(texts), "text": list(texts.values())})
    thr = 0.8
    got = (
        jaccard_set_join(rd.from_arrow(t).repartition(1), threshold=thr)
        .to_pandas()
        .sort_values(["da", "db"])
        .reset_index(drop=True)
    )
    expect = []
    for x, y in itertools.combinations(sorted(texts), 2):
        sa, sb = set(texts[x].split()), set(texts[y].split())
        j = len(sa & sb) / len(sa | sb)
        if j >= thr:
            expect.append((x, y, round(j, 6)))
    assert list(map(tuple, got.to_numpy())) == expect
    assert ("a", "c", 1.0) in expect and ("d", "e", round(6 / 7, 6)) in expect


def test_jaccard_hot_bucket_chunk_split(ray_session):
    """A degenerate hot prefix token (every doc shares the same tiny
    vocabulary) is split into chunk-pair groups: the split path must
    return exactly the same pairs as the single-bucket path, and the
    count must match the closed form."""
    import pyarrow as pa

    import ray.data as rd

    from hydra_ray.stages.dedup import jaccard_set_join

    # 90 docs over a 4-token vocabulary: 3 groups of 30 identical sets
    vocab = [["red", "green", "blue"], ["red", "green", "gold"], ["blue", "gold", "red"]]
    ids = [f"d{i:03d}" for i in range(90)]
    texts = [" ".join(vocab[i % 3]) for i in range(90)]
    t = pa.table({"doc_id": ids, "text": texts})
    kw = dict(threshold=0.9, num_parts=8)
    split = (
        jaccard_set_join(rd.from_arrow(t).repartition(4), hot_bucket_max=16, **kw)
        .to_pandas().sort_values(["da", "db"]).reset_index(drop=True)
    )
    whole = (
        jaccard_set_join(rd.from_arrow(t).repartition(4), hot_bucket_max=10**9, **kw)
        .to_pandas().sort_values(["da", "db"]).reset_index(drop=True)
    )
    assert split.equals(whole)
    # exactly the within-group identical pairs: 3 × C(30,2)
    assert len(split) == 3 * (30 * 29 // 2)
    assert (split["jaccard"] == 1.0).all()


def test_jaccard_cross_chunk_pairs(ray_session):
    """Near-dup pairs split across hash chunks (J just over threshold,
    found only via cross-chunk groups) survive the split."""
    import itertools

    import pyarrow as pa

    import ray.data as rd

    from hydra_ray.stages.dedup import jaccard_set_join

    # 40 docs, each shares a hot core of 8 tokens plus one variant token
    # from a pool of 4 → many cross-doc J = 8/10... build pairs with
    # J = 9/11 >= 0.8 when variant matches (sets of 9+1 shared core)
    core = " ".join(f"core{k}" for k in range(9))
    ids, texts = [], []
    for i in range(40):
        ids.append(f"x{i:02d}")
        texts.append(core + f" var{i % 4}")
    t = pa.table({"doc_id": ids, "text": texts})
    got = (
        jaccard_set_join(rd.from_arrow(t).repartition(3), threshold=0.95, hot_bucket_max=8)
        .to_pandas().sort_values(["da", "db"]).reset_index(drop=True)
    )
    expect = sorted(
        (a, b)
        for (i, a), (j, b) in itertools.combinations(enumerate(ids), 2)
        if i % 4 == j % 4  # identical sets → J=1; others J=9/11 < 0.95
    )
    assert [tuple(r[:2]) for r in got.to_numpy()] == expect


def test_minhash_cross_of_incremental_mode(ray_session):
    """cross_of keeps exactly the cross-side subset of the self-join
    pairs, identically in the broadcast and distributed verify paths."""
    import numpy as np

    def is_new(ids):
        return np.asarray([int(x) % 2 == 1 for x in ids], dtype=bool)

    full = (
        dedup_minhash(rd.from_arrow(corpus()), threshold=0.5)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    expect = full[
        is_new(full["doc_a"].to_numpy()) != is_new(full["doc_b"].to_numpy())
    ].reset_index(drop=True)
    for distributed in (False, True):
        got = (
            dedup_minhash(
                rd.from_arrow(corpus()), threshold=0.5,
                cross_of=is_new, distributed=distributed,
            )
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert got[["doc_a", "doc_b"]].astype(str).equals(
            expect[["doc_a", "doc_b"]].astype(str)
        ), distributed
    assert len(expect) >= 1  # the 0-1 near-dup pair spans the sides


def test_minhash_distributed_matches_broadcast_string_ids(ray_session):
    """String ids (span_near_dup's ``doc_id:offset`` keys) keep their
    type through the co-partitioned verify, which returns the same
    pairs, dtypes included, as the broadcast verify."""
    t = corpus()
    ids = pa.array([f"d{i:02d}" for i in t["doc_id"].to_pylist()])
    t = t.set_column(0, "doc_id", ids)

    def run(distributed):
        return (
            dedup_minhash(rd.from_arrow(t), threshold=0.5, distributed=distributed)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )

    b, d = run(False), run(True)
    assert d.equals(b)
    assert {("d00", "d01"), ("d02", "d03")} <= set(zip(b["doc_a"], b["doc_b"]))


def test_minhash_paths_run_as_tasks(ray_session, monkeypatch):
    """dedup_minhash (both verify routes), span_near_dup and
    curate_corpus hand map_batches only plain functions: no class UDF
    (an actor pool) and no ``concurrency``."""
    import inspect

    from ray.data import Dataset

    from hydra_ray.pipelines.curate import curate_corpus
    from hydra_ray.stages.spans import span_near_dup

    pools = []
    map_batches = Dataset.map_batches

    def recording(self, fn, *args, **kwargs):
        if inspect.isclass(fn) or "concurrency" in kwargs:
            pools.append(getattr(fn, "__name__", repr(fn)))
        return map_batches(self, fn, *args, **kwargs)

    monkeypatch.setattr(Dataset, "map_batches", recording)
    docs = corpus()
    for distributed in (False, True):
        dedup_minhash(rd.from_arrow(docs), threshold=0.5, distributed=distributed).materialize()
    spans_in = rd.from_arrow(docs.select(["doc_id", "text"]))
    span_near_dup(spans_in, threshold=0.5, num_parts=4).materialize()
    with_lang = docs.append_column("lang", pa.array(["en"] * len(docs)))
    curate_corpus(rd.from_arrow(with_lang), near_dup_threshold=0.5).materialize()
    assert pools == []
