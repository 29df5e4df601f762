"""Text-analysis stages: stats parity with the SQL token contract,
quality gates (token band, C4, Gopher), chunking, t-digest."""

import duckdb
import pyarrow as pa
import pytest

from hydra_ray.stages.text import quality_batch, text_stats_batch


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


