"""Dedup stages: exact keep-first, MinHash-LSH recall on planted
near-dups, passage / paragraph / char-span dedup, decontamination and
the PPJoin set-similarity join."""

from unittest import mock

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.functions.hashing import _mix64
from hydra_ray.stages import dedup
from hydra_ray.stages.dedup import (
    _MERSENNE,
    _PERM_A,
    _PERM_B,
    N_BANDS,
    N_PERM,
    ROWS_PER_BAND,
    _shingle_hashes,
    dedup_exact,
    dedup_minhash,
    jaccard,
    minhash_bands_batch,
)


def minhash_on(distributed: bool, ds: "rd.Dataset", **kw) -> "rd.Dataset":
    """``dedup_minhash`` on the co-partitioned verify route when
    ``distributed`` (``BROADCAST_DOCS_MAX`` patched to 0), else on the
    broadcast route of these small corpora."""
    with mock.patch.object(dedup, "BROADCAST_DOCS_MAX", 0 if distributed else 10**9):
        return dedup_minhash(ds, **kw)


# Per-doc scalar spec of the batch band kernel: a signature is the
# min, over the doc's unique shingle hashes, of the permuted values.


def _permuted(h: np.ndarray) -> np.ndarray:
    """(n_shingles,) hashes → (n_shingles, N_PERM) permuted values."""
    return (h[:, None] * _PERM_A[None, :] + _PERM_B[None, :]) % np.uint64(_MERSENNE)


def minhash_signature(text: str, shingle_k: int = 3) -> np.ndarray:
    """N_PERM-long MinHash signature: min permuted value over shingles."""
    return _permuted(_shingle_hashes(text, shingle_k)).min(axis=0)


def bands_spec(doc_ids: list, texts: list, shingle_k: int = 3) -> pa.Table:
    """(doc_id, band_id, band_hash) rows, one doc at a time."""
    ids, band_ids, hashes = [], [], []
    for d, t in zip(doc_ids, texts):
        b = minhash_signature(t or "", shingle_k).reshape(N_BANDS, ROWS_PER_BAND)
        h = _mix64(b[:, 3])
        for j in (2, 1, 0):
            h = _mix64(b[:, j] ^ h)
        ids += [d] * N_BANDS
        band_ids += range(N_BANDS)
        hashes += h.view(np.int64).tolist()
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "band_id": pa.array(band_ids, type=pa.int32()),
            "band_hash": pa.array(hashes, type=pa.int64()),
        }
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

    def test_minhash_signature_deterministic(self):
        s1, s2 = minhash_signature(BASE), minhash_signature(BASE)
        assert s1.shape == (N_PERM,)
        assert (s1 == s2).all()
        t = corpus().select(["doc_id", "text"])
        assert minhash_bands_batch(t).equals(minhash_bands_batch(t))

    def test_minhash_distributed_matches_broadcast(self):
        """The co-partitioned verify path (no driver materialization,
        no text broadcast) must produce byte-identical pairs to the
        broadcast path."""
        b = (
            minhash_on(False, rd.from_arrow(corpus()), threshold=0.5)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        d = (
            minhash_on(True, rd.from_arrow(corpus()), threshold=0.5)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
        )
        assert b.astype({"doc_a": "int64", "doc_b": "int64"}).equals(
            d.astype({"doc_a": "int64", "doc_b": "int64"})
        )
        assert len(b) >= 2


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


def test_char_dup_spans_matches_bruteforce(ray_session):
    """char_dup_spans equals the brute-force reference, including a
    WITHIN-doc repeat (a suffix array counts occurrences, not
    documents)."""
    from hydra_ray.stages.dedup import char_dup_spans

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
    out = char_dup_spans(rd.from_arrow(t), L=L, min_occ=2, num_parts=8).to_pandas()
    got = sorted(
        (int(r.doc_id), int(r.start_chr), int(r.end_chr), int(r.n_windows))
        for r in out.itertuples()
    )
    assert got == want


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


def test_minhash_distributed_matches_broadcast_string_ids(ray_session):
    """String ids (span_near_dup's ``doc_id:offset`` keys) keep their
    type through the co-partitioned verify, which returns the same
    pairs, dtypes included, as the broadcast verify."""
    t = corpus()
    ids = pa.array([f"d{i:02d}" for i in t["doc_id"].to_pylist()])
    t = t.set_column(0, "doc_id", ids)

    def run(distributed):
        return (
            minhash_on(distributed, rd.from_arrow(t), threshold=0.5)
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
        minhash_on(distributed, rd.from_arrow(docs), threshold=0.5).materialize()
    spans_in = rd.from_arrow(docs.select(["doc_id", "text"]))
    span_near_dup(spans_in, threshold=0.5, num_parts=4).materialize()
    with_lang = docs.append_column("lang", pa.array(["en"] * len(docs)))
    curate_corpus(rd.from_arrow(with_lang), near_dup_threshold=0.5).materialize()
    assert pools == []


_WORDS = st.sampled_from(["a", "b", "c", "dup", "\u00e9t\u00e9", "x1"])
_SEPS = st.sampled_from([" ", "  ", "\t", "\n", " \n\t "])
_TEXTS = st.one_of(
    st.none(),
    st.lists(st.tuples(_SEPS, _WORDS), max_size=12).map(
        lambda ws: "".join(sep + w for sep, w in ws)
    ),
)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(_TEXTS, max_size=9), k=st.sampled_from([1, 2, 3, 4]), data=st.data())
def test_minhash_bands_batch_matches_per_doc_spec(texts, k, data):
    """The whole-batch kernel (flat token array, windows masked per doc,
    no per-doc unique, Mersenne fold, tiled reduceat) returns exactly
    the per-doc spec's band rows: empty and null texts, docs shorter
    than k, repeated shingles, tab/newline separators, and doc_id /
    text columns split into chunks at an arbitrary row."""
    ids = list(range(100, 100 + len(texts)))
    cut = data.draw(st.integers(0, len(texts)))
    batch = pa.table(
        {
            "doc_id": pa.chunked_array([ids[:cut], ids[cut:]], type=pa.int64()),
            "text": pa.chunked_array([texts[:cut], texts[cut:]], type=pa.string()),
        }
    )
    got = minhash_bands_batch(batch, shingle_k=k)
    assert got.equals(bands_spec(ids, texts, k))


def test_minhash_bands_batch_spans_many_tiles():
    """A batch far larger than one permute tile (docs cut at tile
    edges, one doc longer than a tile) still matches the spec."""
    import random

    from hydra_ray.stages import dedup

    rng = random.Random(5)
    vocab = [f"t{i}" for i in range(40)]
    lens = [rng.randrange(0, 60) for _ in range(300)] + [dedup._TILE + 7]
    texts = [" ".join(rng.choice(vocab) for _ in range(n)) for n in lens]
    ids = list(range(len(texts)))
    batch = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": texts})
    assert minhash_bands_batch(batch).equals(bands_spec(ids, texts))


@pytest.fixture()
def count_executions():
    """Count Ray Data executions (``StreamingExecutor.execute`` over a
    DAG that is more than its input, the ones that log ``Starting
    execution``) while ``fn`` runs; the count is checked against those
    log lines."""
    import logging

    from ray.data._internal.execution import streaming_executor as se
    from ray.data._internal.execution.operators.input_data_buffer import (
        InputDataBuffer,
    )

    execute = se.StreamingExecutor.execute
    seen = {"execute": 0, "logged": 0}

    def counting(self, dag, *args, **kwargs):
        seen["execute"] += not isinstance(dag, InputDataBuffer)
        return execute(self, dag, *args, **kwargs)

    class Lines(logging.Handler):
        def emit(self, record):
            seen["logged"] += record.getMessage().startswith("Starting execution")

    logger = logging.getLogger(se.__name__)
    handler, level = Lines(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)

    def count(fn) -> int:
        seen.update(execute=0, logged=0)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(se.StreamingExecutor, "execute", counting)
            fn()
        assert seen["execute"] == seen["logged"], seen
        return seen["execute"]

    yield count
    logger.removeHandler(handler)
    logger.setLevel(level)


def test_near_dup_execution_counts(ray_session, count_executions, keyset_route, monkeypatch):
    """Executions per call (each costs ~45 ms before any UDF work), the
    same on both key-set-filter routes: dedup_minhash executes its input
    once and verify reads those blocks; span_near_dup keeps no exploded
    copy; curate_corpus runs near-dup on the materialized
    quality-passing corpus and no exact dedup; the shuffle route never
    executes the left side just to learn its schema. Exchanges
    (``Dataset.sort`` calls) per call: MinHash's band-bucket shuffle
    (the lowest-band rule leaves no pair shuffle), span_near_dup's doc
    reassembly, and on the shuffle route each anti-join's keyed
    shuffle."""
    from ray.data import Dataset

    from hydra_ray.pipelines.curate import curate_corpus
    from hydra_ray.stages.spans import span_near_dup

    docs = corpus()
    with_lang = docs.append_column("lang", pa.array(["en"] * len(docs)))

    def minhash():
        src = rd.from_arrow(docs).map_batches(lambda t: t, batch_format="pyarrow")
        return dedup_minhash(src, threshold=0.5).to_pandas()

    def spans():
        src = rd.from_arrow(docs.select(["doc_id", "text"]))
        return span_near_dup(src, threshold=0.5, num_parts=4).to_pandas()

    def curate():
        return curate_corpus(rd.from_arrow(with_lang), near_dup_threshold=0.5).to_pandas()

    sorts = []
    sort = Dataset.sort
    monkeypatch.setattr(
        Dataset, "sort", lambda self, *a, **kw: sorts.append(1) or sort(self, *a, **kw)
    )

    def counts(fn) -> tuple[int, int]:
        sorts.clear()
        return count_executions(fn), len(sorts)

    anti = int(keyset_route == "shuffle")  # the anti-join's keyed shuffle
    assert counts(minhash) == (2, 1)
    assert counts(spans) == (3, 2 + anti)
    assert counts(curate) == (3, 1 + anti)


# Corpora whose pairs collide in many bands: exact-dup groups of 3 or
# more docs (every band), near-dups of each group's text (some bands),
# and unrelated docs, some too short for the quality gate. Doc ids are
# shuffled, so a group's winner is not its first doc.
_VOCAB = [c + v for c in "bdfgklmprst" for v in ("ar", "el", "io")]


@st.composite
def _dup_corpora(draw) -> pa.Table:
    words = st.sampled_from(_VOCAB)
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.lists(words, min_size=8, max_size=30))
        texts += [" ".join(base)] * draw(st.integers(3, 5))
        for _ in range(draw(st.integers(0, 3))):
            near = list(base)
            for _ in range(draw(st.integers(1, 3))):
                near[draw(st.integers(0, len(near) - 1))] = draw(words)
            texts += [" ".join(near)] * draw(st.integers(1, 2))
    texts += draw(st.lists(st.lists(words, min_size=1, max_size=20).map(" ".join), max_size=4))
    ids = draw(st.permutations(range(100, 100 + len(texts))))
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array([f"l{i}" for i in ids]),
        }
    )


def _brute_force_pairs(t: pa.Table, threshold: float) -> dict:
    """(doc_a, doc_b) → rounded Jaccard for every id pair a < b that
    shares at least one band hash and reaches ``threshold``."""
    import itertools

    ids = t["doc_id"].to_pylist()
    texts = t["text"].to_pylist()
    bh = bands_spec(ids, texts)["band_hash"].to_numpy().reshape(len(ids), N_BANDS)
    out = {}
    for i, j in itertools.combinations(range(len(ids)), 2):
        if (bh[i] == bh[j]).any():
            jac = round(jaccard(texts[i], texts[j]), 6)
            if jac >= threshold:
                out[tuple(sorted((ids[i], ids[j])))] = jac
    return out


def _blocks(t: pa.Table) -> "rd.Dataset":
    cut = t.num_rows // 2
    return rd.from_arrow([t.slice(0, cut), t.slice(cut)])


@settings(max_examples=10, deadline=None)
@given(t=_dup_corpora())
def test_minhash_pairs_once_and_match_brute_force(ray_session, t):
    """Both verify routes return each verified pair exactly once (a pair
    of an exact-dup group collides in all 16 bands), and the pairs and
    their Jaccard equal the brute-force reference."""
    want = _brute_force_pairs(t, 0.5)
    for distributed in (False, True):
        out = minhash_on(
            distributed, _blocks(t.select(["doc_id", "text"])), threshold=0.5
        ).to_pandas()
        got = list(zip(out["doc_a"], out["doc_b"]))
        assert len(got) == len(set(got)), distributed
        assert dict(zip(got, out["jaccard"])) == want, distributed


@settings(max_examples=6, deadline=None)
@given(t=_dup_corpora())
def test_curate_near_dup_folds_exact_dedup(ray_session, t):
    """curate_corpus with a near-dup threshold, which runs no exact
    dedup, equals the quality gate, then dedup_exact, then near-dup
    removal over the exact-dedup survivors. One lang per doc, so the
    per-lang stats name every surviving doc."""
    from hydra_ray.pipelines.curate import curate_corpus
    from hydra_ray.stages.text import quality_batch

    good = t.filter(quality_batch(t)["keep"])
    winners = set(dedup_exact(rd.from_arrow(good)).to_pandas()["doc_id"])
    surv = good.filter(pa.array([d in winners for d in good["doc_id"].to_pylist()]))
    cols = ["lang", "n_docs", "n_chunks", "sum_toks"]

    def stats(ds: "rd.Dataset", **kw):
        out = curate_corpus(ds, **kw).to_pandas()
        return out.sort_values("lang")[cols].reset_index(drop=True)

    for threshold in (0.5, 1.0):
        dropped = {b for _, b in _brute_force_pairs(surv, threshold)}
        kept = [d for d in surv["doc_id"].to_pylist() if d not in dropped]
        keep_t = t.filter(pa.array([d in kept for d in t["doc_id"].to_pylist()]))
        got = stats(_blocks(t), near_dup_threshold=threshold)
        assert sorted(int(lang[1:]) for lang in got["lang"]) == sorted(kept), threshold
        assert got.equals(stats(rd.from_arrow(keep_t))), threshold


def test_curate_near_dup_custom_columns(ray_session):
    """``id_col`` / ``text_col`` reach the near-dup route: the corpus
    under ``id`` / ``body`` curates to the same stats as under
    ``doc_id`` / ``text``. One lang per doc, so the stats name every
    surviving doc."""
    from hydra_ray.pipelines.curate import curate_corpus

    docs = corpus()
    docs = docs.append_column("lang", pa.array([f"l{d}" for d in docs["doc_id"].to_pylist()]))
    names = {"doc_id": "id", "text": "body"}
    renamed = docs.rename_columns([names.get(c, c) for c in docs.column_names])

    def stats(ds: "rd.Dataset", **kw):
        out = curate_corpus(ds, near_dup_threshold=0.5, **kw).to_pandas()
        return out.sort_values("lang").reset_index(drop=True)

    want = stats(rd.from_arrow(docs))
    assert "l1" not in set(want["lang"]) and "l3" not in set(want["lang"])  # near and exact dup losers
    assert stats(rd.from_arrow(renamed), id_col="id", text_col="body").equals(want)


@pytest.mark.parametrize("threshold", [0, -0.25, 1.000001, 2])
def test_curate_near_dup_threshold_range(threshold):
    """Near-dup removal folds exact dedup in only for thresholds in
    (0, 1]: an exact-dup pair verifies at Jaccard 1.0."""
    from hydra_ray.pipelines.curate import curate_corpus

    with pytest.raises(ValueError, match="near_dup_threshold"):
        curate_corpus(None, near_dup_threshold=threshold)
