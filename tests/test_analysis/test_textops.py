"""Text-analysis stages: stats parity with the SQL token contract,
language ID accuracy, quality gates, fingerprint determinism."""

import time

import duckdb
import pyarrow as pa
import pytest

from hydra_ray.stages.text import (
    LangId,
    fingerprint_batch,
    quality_batch,
    text_stats_batch,
)


def docs():
    return pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": [
                "the cat and the dog",
                "",
                "  spaced   out  tokens  ",
                "digits 123 456 end",
            ],
        }
    )


def test_text_stats_matches_duckdb_token_contract():
    got = text_stats_batch(docs()).to_pandas().set_index("doc_id")
    con = duckdb.connect()
    con.register("documents", docs())
    want = con.execute(
        r"""SELECT doc_id, length(text) AS n_chars,
              CAST(array_length(regexp_split_to_array(trim(text), '\s+')) AS BIGINT) AS n_tokens,
              length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits
            FROM documents"""
    ).df().set_index("doc_id")
    assert (got["n_chars"] == want["n_chars"]).all()
    assert (got["n_tokens"] == want["n_tokens"]).all()
    assert (got["n_digits"] == want["n_digits"]).all()


def test_quality_gates():
    out = quality_batch(docs()).to_pandas().set_index("doc_id")
    assert bool(out.loc[1, "keep"]) is True  # 5 tokens, no digits
    assert bool(out.loc[2, "keep"]) is False  # empty
    assert bool(out.loc[4, "keep"]) is False  # digit ratio 6/18 >= 0.3


def test_langid_on_clear_samples():
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": [
                "the cat and the dog is in a house",
                "le chat et la maison est une merveille",
                "der Hund und die Katze ist ein Tier",
            ],
        }
    )
    preds = LangId()(t)["lang_pred"].to_pylist()
    assert preds == ["en", "fr", "de"]


def test_langid_accuracy_on_testdata():
    """Stopword heuristic beats chance decisively on the synthetic corpus
    only if texts carry language signal — here they mostly don't, so we
    only assert valid labels + determinism."""
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.001/documents.parquet", columns=["doc_id", "text"])
    p1 = LangId()(t)["lang_pred"].to_pylist()
    p2 = LangId()(t)["lang_pred"].to_pylist()
    assert p1 == p2
    assert set(p1) <= {"en", "fr", "de", "es", "zh", "und"}


def test_fingerprint_deterministic_and_order_sensitive():
    a = fingerprint_batch(docs())["fingerprint"].to_pylist()
    b = fingerprint_batch(docs())["fingerprint"].to_pylist()
    assert a == b
    flipped = pa.table(
        {"doc_id": pa.array([1], type=pa.int64()), "text": ["cat the and the dog"]}
    )
    assert fingerprint_batch(flipped)["fingerprint"].to_pylist()[0] != a[0]


@pytest.mark.usefixtures("ray_session")
def test_chunk_documents_windows():
    import ray.data as rd

    from hydra_ray.stages.text import chunk_documents

    toks = [f"w{i}" for i in range(10)]
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array([" ".join(toks), "tiny doc"]),
        }
    )
    out = (
        chunk_documents(rd.from_arrow(t), max_tokens=6, overlap=2)
        .to_pandas()
        .sort_values(["doc_id", "chunk_id"])
        .reset_index(drop=True)
    )
    # doc1: 10 tokens, stride 4 -> ceil((10-2)/4)=2 chunks: [1..6], [5..10]
    d1 = out[out["doc_id"] == 1]
    assert d1["start_tok"].tolist() == [1, 5]
    assert d1["n_toks"].tolist() == [6, 6]
    assert d1["chunk"].tolist()[1] == "w4 w5 w6 w7 w8 w9"
    # doc2: shorter than one window -> single clipped chunk
    d2 = out[out["doc_id"] == 2]
    assert d2["chunk"].tolist() == ["tiny doc"] and d2["n_toks"].tolist() == [2]


@pytest.mark.usefixtures("ray_session")
def test_sample_per_group_deterministic_and_parallelism_invariant():
    import ray.data as rd

    from hydra_ray.stages.text import sample_per_group

    t = pa.table(
        {
            "doc_id": pa.array(list(range(100)), type=pa.int64()),
            "lang": pa.array(["fr" if i % 3 else "en" for i in range(100)]),
        }
    )
    a = (
        sample_per_group(rd.from_arrow(t).repartition(7), key="lang", n=4, seed=9)
        .to_pandas()
        .sort_values(["lang", "rank"])
        .reset_index(drop=True)
    )
    b = (
        sample_per_group(rd.from_arrow(t).repartition(2), key="lang", n=4, seed=9)
        .to_pandas()
        .sort_values(["lang", "rank"])
        .reset_index(drop=True)
    )
    assert a.equals(b)  # invariant under partitioning
    assert (a.groupby("lang")["rank"].max() == 4).all()
    c = (
        sample_per_group(rd.from_arrow(t), key="lang", n=4, seed=10)
        .to_pandas()
        .sort_values(["lang", "rank"])
        .reset_index(drop=True)
    )
    assert not a["doc_id"].equals(c["doc_id"])  # seed changes the draw


def test_bpe_token_count_pretokenizer_shapes():
    from hydra_ray.stages.text import bpe_token_count_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(["Hello world, it's 42 tokens!", "", "héllo wörld 漢字"]),
        }
    )
    out = bpe_token_count_batch(t)
    # contractions split ('s), punctuation runs separate, unicode letters count
    assert out["n_bpe_tokens"].to_pylist() == [8, 0, 7]


def test_repetition_stats_gopher_signals():
    from hydra_ray.stages.text import repetition_stats_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "spam spam spam spam spam spam",  # one 3-gram repeated
                    "all words here are fully distinct tokens",
                    "ab",  # too short for 3-grams
                ]
            ),
        }
    )
    out = repetition_stats_batch(t).to_pydict()
    # doc1: 4 identical 3-grams -> dup frac 1 - 1/4; top 2-gram covers all
    assert out["dup_3gram_frac"][0] == 0.75
    assert out["top_2gram_frac"][0] == round(5 * 2 / 6, 6)
    assert out["dup_3gram_frac"][1] == 0.0
    assert out["top_2gram_frac"][1] == round(2 / 7, 6)
    assert out["dup_3gram_frac"][2] == 0.0 and out["top_2gram_frac"][2] == 0.0


@pytest.mark.usefixtures("ray_session")
def test_tdigest_exact_weights_and_rank_error():
    """t-digest invariants: per-key weight totals are EXACT counts,
    centroid count is bounded by delta, and quantile estimates have
    small rank error on skewed data at any partitioning."""
    import numpy as np
    import ray.data as rd

    from hydra_ray.stages.agg import tdigest_centroids, tdigest_quantile

    rng = np.random.default_rng(11)
    n = 9000
    keys = np.repeat(["x", "y", "z"], n // 3)
    vals = np.concatenate([
        rng.lognormal(0, 2, n // 3),           # heavy right tail
        rng.normal(0, 1, n // 3),
        np.repeat([1.0, 2.0, 100.0], n // 9),  # atoms + outlier mass
    ])
    t = pa.table({"k": pa.array(keys), "v": pa.array(vals)})
    import pandas as pd

    df = pd.DataFrame({"k": keys, "v": vals})
    for parts in (3, 13):
        cents = tdigest_centroids(
            rd.from_arrow(t).repartition(parts), key="k", value_col="v", delta=100
        ).to_pandas()
        per_key = cents.groupby("k")
        assert (per_key["weight"].sum() == n // 3).all()  # exact totals
        assert (per_key.size() <= 100).all()              # bounded sketch
        est = tdigest_quantile(cents, "k", (0.01, 0.5, 0.9, 0.99)).set_index("k")
        for kk, g in df.groupby("k"):
            for q in (0.01, 0.5, 0.9, 0.99):
                e = est.loc[kk, f"q{int(q*100)}"]
                if kk == "z":
                    # atoms: rank error is ill-posed (CDF jumps); the
                    # estimate must sit at/near the atom value itself
                    true = float(np.quantile(g["v"], q))
                    assert abs(e - true) <= 0.05 * max(true, 1.0), (parts, kk, q, e, true)
                else:
                    rank = (g["v"] <= e).mean()
                    assert abs(rank - q) < 0.03, (parts, kk, q, rank)


def test_table_profile_big_int64_exact_distinct(ray_session):
    """int64 values ≥ 2^53 (adjacent, float64-indistinguishable) must
    keep exact distinct counts — integers stay int64 through the
    unique path; only emitted min/max are float64."""
    import ray.data as rd

    from hydra_ray.stages.agg import table_profile

    big = 2**60
    vals = [big, big + 1, big + 2, big, big + 1, None]
    t = pa.table({"x": pa.array(vals, type=pa.int64()), "y": pa.array([0.5] * 6)})
    out = table_profile(rd.from_arrow(t).repartition(3), ["x", "y"]).to_pylist()
    by = {r["col_name"]: r for r in out}
    assert by["x"]["n_distinct"] == 3  # float64 would collapse to 1-2
    assert by["x"]["n_null"] == 1
    assert by["x"]["min_val"] == float(big)
    assert by["y"]["n_distinct"] == 1
    # non-numeric column: loud error, not a garbage cast
    s = pa.table({"s": pa.array(["a", "b"])})
    import pytest as _pytest

    with _pytest.raises(Exception, match="non-numeric"):
        table_profile(rd.from_arrow(s), ["s"])


def test_table_profile_hll_route_above_cap(ray_session):
    """High-cardinality auto-route (round-3 verdict item 9): a column
    whose block uniques exceed distinct_cap ships HLL registers instead
    of the uniques list; the merged estimate lands within HLL's p=12
    error band (~1.6% σ), mixed exact blocks fold in correctly, and
    under-cap columns stay EXACT with the same inputs."""
    import numpy as np
    import ray.data as rd

    from hydra_ray.stages.agg import table_profile

    n = 60_000
    rng = np.random.default_rng(7)
    # 50k distinct ints (some repeats), one low-card column, one float col
    x = rng.integers(0, 50_000, size=n).astype(np.int64)
    true_x = len(np.unique(x))
    t = pa.table(
        {
            "x": pa.array(x),
            "lo": pa.array((x % 17).astype(np.int64)),
            "f": pa.array(x.astype(np.float64) / 8.0),
        }
    )
    stats: dict = {}
    out = table_profile(
        rd.from_arrow(t).repartition(6), ["x", "lo", "f"],
        distinct_cap=1_000, stats_out=stats,
    ).to_pylist()
    by = {r["col_name"]: r for r in out}
    assert set(stats["approx_cols"]) == {"x", "f"}
    assert by["lo"]["n_distinct"] == 17  # exact below the cap
    assert abs(by["x"]["n_distinct"] / true_x - 1) < 0.05, by["x"]
    assert abs(by["f"]["n_distinct"] / true_x - 1) < 0.05, by["f"]
    # counts/min/max are unaffected by the route
    assert by["x"]["n_rows"] == n and by["x"]["n_null"] == 0
    assert by["x"]["min_val"] == float(x.min())
    # determinism: same inputs, same estimate
    out2 = table_profile(
        rd.from_arrow(t).repartition(6), ["x"], distinct_cap=1_000
    ).to_pylist()
    assert out2[0]["n_distinct"] == by["x"]["n_distinct"]


def test_table_profile_hll_mixed_exact_and_hll_blocks(ray_session):
    """Skewed split: one block stays under the cap (exact uniques list)
    while the other overflows to HLL registers — the driver must fold
    the exact list into the registers with the identical hash. True
    distinct = 1 (constant half) + 20000 (distinct half), estimate
    within the p=12 band."""
    import numpy as np
    import ray.data as rd

    from hydra_ray.stages.agg import table_profile

    low = np.arange(20_000, dtype=np.int64) % 4_001  # 4,001 uniques ≤ cap
    dist = np.arange(1_000_000, 1_020_000, dtype=np.int64)  # 20,000 > cap
    t = pa.table({"x": pa.array(np.concatenate([low, dist]))})
    stats: dict = {}
    out = table_profile(
        rd.from_arrow(t).repartition(2), ["x"], distinct_cap=5_000, stats_out=stats
    ).to_pylist()
    assert stats["approx_cols"] == ["x"]
    est = out[0]["n_distinct"]
    # a dropped exact-block fold would estimate ~20,000 (17% low)
    assert abs(est / 24_001 - 1) < 0.05, est
    assert out[0]["min_val"] == 0.0 and out[0]["max_val"] == 1_019_999.0


def test_temperature_mix_quotas_and_determinism():
    import math

    import ray.data as rd
    from hydra_ray.stages.text import temperature_mix

    # skewed sources: 64 / 16 / 4 docs; alpha=0.5 flattens 16:4:1 to 4:2:1
    rows = [(i, "big") for i in range(64)] + [(100 + i, "mid") for i in range(16)] + [
        (200 + i, "small") for i in range(4)
    ]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "source": pa.array([r[1] for r in rows]),
        }
    )
    out = temperature_mix(rd.from_arrow(t), total_n=14, alpha=0.5, seed=5).take_all()
    got = {}
    for r in out:
        got[r["source"]] = got.get(r["source"], 0) + 1
    s = {g: math.floor(n**0.5 * 1e6 + 0.5) for g, n in {"big": 64, "mid": 16, "small": 4}.items()}
    st = sum(s.values())
    expect = {g: math.floor(14 * sg / st) for g, sg in s.items()}
    assert got == {g: n for g, n in expect.items() if n > 0}
    # alpha < 1 flattens: big is 16x small by count but only ~4x by quota
    assert expect["big"] / max(expect["small"], 1) <= 8
    # determinism across partitioning
    out2 = temperature_mix(rd.from_arrow(t).repartition(7), total_n=14, alpha=0.5, seed=5).take_all()
    key = lambda r: (r["source"], r["doc_id"], r["rank"])
    assert sorted(map(key, out)) == sorted(map(key, out2))


@pytest.mark.usefixtures("ray_session")
def test_bpe_train_matches_reference_and_is_partition_invariant():
    """Distributed BPE merge learning equals the classic in-memory
    Sennrich algorithm (same deterministic tie-break) on a small
    corpus, for every merge rank, at any partitioning."""
    import pyarrow as pa
    import ray.data as rd

    from hydra_ray.stages.text import bpe_train

    texts = [
        "low low low low low lower lower newest newest",
        "newest newest newest newest widest widest widest",
        "low lower newest widest widest new new new",
    ]

    def reference_bpe(texts, n_merges):
        from collections import Counter

        wc = Counter(w for t in texts for w in t.split())
        vocab = {tuple(list(w) + ["</w>"]): c for w, c in wc.items()}
        out = []
        for rank in range(n_merges):
            pc_ = Counter()
            for syms, c in vocab.items():
                for p in zip(syms, syms[1:]):
                    pc_[p] += c
            if not pc_:
                break
            best = min(pc_.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
            (a, b), n = best
            out.append((rank, a, b, n))
            new_vocab = {}
            for syms, c in vocab.items():
                res, i = [], 0
                while i < len(syms):
                    if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                        res.append(a + b)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                new_vocab[tuple(res)] = new_vocab.get(tuple(res), 0) + c
            vocab = new_vocab
        return out

    expect = reference_bpe(texts, 8)
    t = pa.table({"doc_id": pa.array(range(3), type=pa.int64()), "text": pa.array(texts)})
    for parts in (1, 3):
        got = bpe_train(rd.from_arrow(t).repartition(parts), n_merges=8)
        rows = list(
            zip(
                got["rank"].to_pylist(),
                got["left"].to_pylist(),
                got["right"].to_pylist(),
                got["pair_count"].to_pylist(),
            )
        )
        assert rows == expect, (rows, expect)


class TestC4Filter:
    """C4 line/page rules (Raffel et al. 2020 §2.2) — stages/text.py::
    c4_filter_batch (vectorized; no per-row Python)."""

    def _run(self, texts):
        from hydra_ray.stages.text import c4_filter_batch

        t = pa.table({"doc_id": [str(i) for i in range(len(texts))], "text": texts})
        return c4_filter_batch(t).to_pylist()

    def test_line_rules(self):
        doc = "\n".join(
            [
                "This line is kept fine.",     # kept
                "Short one.",                  # <3 words
                "No terminal punctuation at all",  # no punct
                "Enable javascript to view this page.",  # javascript
                'A quoted good line "here"',   # ends with quote -> kept
                "   ",                         # whitespace only
            ]
        )
        (row,) = self._run([doc])
        assert row["n_lines"] == 6
        assert row["n_kept"] == 2
        assert row["keep"] is False  # <5 kept lines
        assert row["cleaned"] == ""

    def test_page_keep_and_cleaned_join(self):
        lines = [f"Good solid line number {i}." for i in range(6)] + ["junk"]
        (row,) = self._run(["\n".join(lines)])
        assert row["keep"] is True
        assert row["cleaned"] == "\n".join(lines[:6])

    def test_page_poison(self):
        good = "\n".join(f"Good solid line number {i}." for i in range(6))
        for poison in ["contains Lorem Ipsum filler", "css { display: none }"]:
            (row,) = self._run([good + "\n" + poison])
            assert row["n_kept"] == 6
            assert row["keep"] is False, poison
            assert row["cleaned"] == ""

    def test_null_and_empty(self):
        rows = self._run([None, ""])
        for row in rows:
            assert row["n_lines"] == 1 and row["n_kept"] == 0
            assert row["keep"] is False and row["cleaned"] == ""


class TestNormalizeText:
    """NFC + lowercase hybrid normalizer (stages/text.py::
    normalize_text_batch): ASCII fast path == Python path; non-ASCII
    routes through CPython NFC (pyarrow 16 utf8_normalize is broken
    for composition)."""

    def test_compose_and_lower(self):
        from hydra_ray.stages.text import normalize_text_batch

        t = pa.table(
            {
                "doc_id": ["1", "2", "3", "4"],
                "text": [
                    "Plain ASCII Text",
                    "de\u0301compose\u0301",  # decomposed acutes
                    "ÅNGSTROM",  # U+212B singleton -> U+00C5 -> å
                    None,
                ],
            }
        )
        out = normalize_text_batch(t).to_pylist()
        assert out[0]["norm"] == "plain ascii text"
        assert out[1]["norm"] == "d\u00e9compos\u00e9"
        assert out[1]["n_cp_raw"] == 11 and out[1]["n_cp_norm"] == 9
        assert out[2]["norm"] == "ångstrom"
        assert out[3]["norm"] == "" and out[3]["n_cp_raw"] == 0


def test_tfidf_keywords_ranking(ray_session):
    """tf desc, then rarer-term (df asc), then lexicographic."""
    import ray.data as rd

    from hydra_ray.stages.text import tfidf_keywords

    docs = pa.table(
        {
            "doc_id": ["a", "b"],
            "text": [
                "zeta zeta common rare common",   # tf: zeta 2, common 2, rare 1
                "common common common other",
            ],
        }
    )
    out = tfidf_keywords(rd.from_arrow(docs), k=2).to_pandas()
    a = out[out.doc_id == "a"].sort_values("rank")
    # zeta (tf 2, df 1) beats common (tf 2, df 2)
    assert list(a.term) == ["zeta", "common"]
    assert list(a["rank"]) == [1, 2]
    b = out[out.doc_id == "b"].sort_values("rank")
    assert list(b.term) == ["common", "other"]


def test_gopher_quality_rules():
    from hydra_ray.stages.text import gopher_quality_batch

    t = pa.table(
        {
            "doc_id": ["ok", "short", "sym", "noalpha", "nostop"],
            "text": [
                "the quick brown fox jumps over a lazy dog with style and grace intact",
                "the end.",
                "the " + "# " * 30 + "of and to in is with pad pad pad",
                "the 111 222 333 444 555 666 777 888 999 000 111 222",
                "qqq www eee rrr ttt yyy uuu iii ooo ppp",
            ],
        }
    )
    out = {r["doc_id"]: r for r in gopher_quality_batch(t, min_words=10, min_stopwords=1).to_pylist()}
    assert out["ok"]["keep"] is True
    assert out["short"]["keep"] is False and out["short"]["n_words"] == 2
    assert out["sym"]["keep"] is False and out["sym"]["symbol_ratio"] > 0.1
    assert out["noalpha"]["keep"] is False and out["noalpha"]["frac_alpha"] < 0.8
    assert out["nostop"]["keep"] is False and out["nostop"]["n_stop"] == 0


def test_token_entropy_values():
    import math

    from hydra_ray.stages.text import token_entropy_batch

    t = pa.table(
        {
            "doc_id": ["uniform", "repeat", "empty"],
            "text": ["a b c d", "x x x x", ""],
        }
    )
    out = {r["doc_id"]: r for r in token_entropy_batch(t).to_pylist()}
    assert out["uniform"]["entropy"] == 2.0  # 4 distinct of 4 -> log2(4)
    assert out["repeat"]["entropy"] == 0.0
    assert out["empty"]["n_tokens"] == 1 and out["empty"]["entropy"] == 0.0
    # mixed: 2/4 'a', 1/4 'b', 1/4 'c'
    t2 = pa.table({"doc_id": ["m"], "text": ["a a b c"]})
    (row,) = token_entropy_batch(t2).to_pylist()
    assert row["entropy"] == round(-(0.5 * math.log2(0.5) + 2 * 0.25 * math.log2(0.25)), 6)


class TestBpeEncode:
    def test_apply_word_matches_reference(self):
        from hydra_ray.stages.text import bpe_apply_word

        merges = [("l", "o"), ("lo", "w"), ("low", "</w>")]
        assert bpe_apply_word("low", merges) == ["low</w>"]
        assert bpe_apply_word("lower", merges) == ["low", "e", "r", "</w>"]
        assert bpe_apply_word("xyz", merges) == ["x", "y", "z", "</w>"]

    def test_encode_over_trained_merges(self, ray_session):
        import ray.data as rd

        from hydra_ray.stages.text import bpe_apply_word, bpe_encode, bpe_train

        docs = pa.table(
            {
                "doc_id": ["1", "2", "3"],
                "text": [
                    "low lower lowest low low",
                    "newer newest new",
                    "low new",
                ],
            }
        )
        ds = rd.from_arrow(docs)
        merges = bpe_train(ds, n_merges=8)
        out = {
            r["doc_id"]: r
            for r in bpe_encode(rd.from_arrow(docs), merges).to_pandas().to_dict("records")
        }
        rules = list(zip(merges["left"].to_pylist(), merges["right"].to_pylist()))
        for doc_id, text in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
            expect = sum(len(bpe_apply_word(w, rules)) for w in text.split())
            assert out[doc_id]["n_pieces"] == expect
            assert out[doc_id]["n_words"] == len(text.split())


def test_bpe_train_driver_and_distributed_paths_identical(ray_session):
    import ray.data as rd

    from hydra_ray.stages.text import bpe_train

    docs = pa.table(
        {
            "doc_id": ["1", "2"],
            "text": ["low lower lowest low low newer", "newer newest new low"],
        }
    )
    fast = bpe_train(rd.from_arrow(docs), n_merges=6)
    dist = bpe_train(rd.from_arrow(docs), n_merges=6, driver_vocab_rows=0)
    assert fast.equals(dist)


def test_bpe_train_batched_rounds_match_sequential(ray_session):
    """Merge-round batching (round-3 verdict item 2): the distributed
    path applies many symbol-disjoint merges per Dataset pass yet
    produces the EXACT sequential merge sequence, and the pass count
    (the term that multiplies Ray's fixed per-round overhead — the
    timing claim in deterministic form) drops well below n_merges on a
    Zipfian corpus."""
    import random

    import ray.data as rd

    from hydra_ray.stages.text import bpe_train

    rng = random.Random(3)
    vocab = [
        "".join(rng.choice("abcdefghijklmnop") for _ in range(rng.randint(3, 9)))
        for _ in range(120)
    ]
    texts = []
    for d in range(60):
        # Zipf-ish: low-index words repeat much more
        words = [vocab[min(int(rng.paretovariate(1.2)) % 120, 119)] for _ in range(80)]
        texts.append(" ".join(words))
    docs = pa.table({"doc_id": [str(i) for i in range(60)], "text": texts})

    n_merges = 48
    fast = bpe_train(rd.from_arrow(docs), n_merges=n_merges)
    stats: dict = {}
    t0 = time.monotonic()
    dist = bpe_train(
        rd.from_arrow(docs).repartition(4),
        n_merges=n_merges,
        driver_vocab_rows=0,
        stats_out=stats,
    )
    elapsed = time.monotonic() - t0
    assert fast.equals(dist)
    assert fast.num_rows == n_merges
    assert stats["rounds"] < n_merges, stats  # batching engaged
    # the old engine ran TWO Dataset executions per round (~3 s fixed
    # each on this host); at 33 rounds that is minutes. The sharded
    # actor engine does one RPC fan-out per round — generous bound so
    # steal noise can't flake it, but the old pathology can't pass it.
    assert elapsed < 60, (elapsed, stats)


def test_bpe_train_batched_tie_heavy_corpus(ray_session):
    """Adversarial ties: tiny vocab where many pairs share counts and
    symbols — the strict-count guard must collapse batches rather than
    diverge from the sequential sequence."""
    import ray.data as rd

    from hydra_ray.stages.text import bpe_train

    docs = pa.table(
        {
            "doc_id": ["1", "2", "3"],
            "text": [
                "ab ab ab ba ba aa bb ab ba",
                "aa aa bb bb ab ba ab",
                "aba bab abab baba ab ba aa bb",
            ],
        }
    )
    fast = bpe_train(rd.from_arrow(docs), n_merges=16)
    dist = bpe_train(
        rd.from_arrow(docs).repartition(3), n_merges=16, driver_vocab_rows=0
    )
    assert fast.equals(dist)
