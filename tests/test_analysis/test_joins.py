"""Key joins (semi_join, hash_join, bloom_semi_join) and the curation
pipelines built on them."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd


@pytest.mark.usefixtures("ray_session", "keyset_route")
def test_semi_join_keeps_only_members():
    from hydra_ray.stages.joins import semi_join

    left = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "text": pa.array(list("abcde")),
        }
    )
    keys = pa.table({"doc_id": pa.array([2, 4, 9], type=pa.int64())})
    out = (
        semi_join(rd.from_arrow(left).repartition(3), rd.from_arrow(keys), "doc_id")
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == [2, 4]
    assert out["text"].tolist() == ["b", "d"]
    assert str(out["doc_id"].dtype) == "int64"


@pytest.mark.usefixtures("ray_session")
def test_curate_corpus_pipeline_counts():
    """Composite curation: dedup removes the planted copy, low-quality
    (short) docs are gated, chunk counts follow the window math."""
    from hydra_ray.pipelines.curate import curate_corpus

    # 40 digit-free tokens (digits would trip the quality gate) -> 2 chunks (32/8)
    long_text = " ".join("w" + "x" * (i % 7) for i in range(40))
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array([long_text, long_text, "too short", " ".join(["w"] * 10)]),
            "lang": pa.array(["fr", "fr", "fr", "en"]),
        }
    )
    out = (
        curate_corpus(rd.from_arrow(t).repartition(2))
        .to_pandas()
        .set_index("lang")
        .sort_index()
    )
    # doc2 is an exact dupe of doc1 (dropped); doc3 fails quality (3 toks)
    assert out.loc["fr", "n_docs"] == 1 and out.loc["fr", "n_chunks"] == 2
    assert out.loc["fr", "sum_toks"] == 32 + 16  # clipped second window
    assert out.loc["en", "n_docs"] == 1 and out.loc["en", "n_chunks"] == 1
    assert out.loc["en", "sum_toks"] == 10


@pytest.mark.usefixtures("ray_session", "keyset_route")
def test_anti_semi_join():
    from hydra_ray.stages.joins import semi_join

    left = pa.table(
        {"doc_id": pa.array([1, 2, 3, 4], type=pa.int64()), "v": pa.array(list("abcd"))}
    )
    keys = pa.table({"doc_id": pa.array([2, 4], type=pa.int64())})
    out = (
        semi_join(rd.from_arrow(left), rd.from_arrow(keys), "doc_id", anti=True)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out["doc_id"].tolist() == [1, 3]


@pytest.mark.usefixtures("ray_session", "keyset_route")
def test_curate_corpus_near_dup_removal():
    """With near_dup_threshold set, a near-duplicate (one word changed)
    of a kept doc is dropped (higher doc_id loses); without it, both
    survive exact dedup."""
    from hydra_ray.pipelines.curate import curate_corpus

    base_words = ["w" + "x" * (i % 7) for i in range(40)]
    near = list(base_words)
    near[5] = "changedword"
    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [" ".join(base_words), " ".join(near), " ".join(["distinct"] * 20)]
            ),
            "lang": pa.array(["fr", "fr", "en"]),
        }
    )
    plain = (
        curate_corpus(rd.from_arrow(t)).to_pandas().set_index("lang")["n_docs"].to_dict()
    )
    assert plain == {"fr": 2, "en": 1}  # not exact dupes -> both kept
    nd = (
        curate_corpus(rd.from_arrow(t), near_dup_threshold=0.5)
        .to_pandas()
        .set_index("lang")["n_docs"]
        .to_dict()
    )
    assert nd == {"fr": 1, "en": 1}  # doc 2 dropped as near-dup of doc 1


@pytest.mark.usefixtures("ray_session", "keyset_route")
def test_curate_corpus_near_dup_over_quality_passing_corpus():
    """Near-dup pairs taken over the quality-passing corpus (exact-dup
    losers included) drop the same docs as pairs taken over the
    exact-dedup survivors. Each group has an exact-dup pair W < L and
    a near-dup partner D of their text placed below W, between W and
    L, or above L. One lang per doc, so the per-lang stats name every
    surviving doc."""
    from hydra_ray.pipelines.curate import curate_corpus
    from hydra_ray.stages.dedup import dedup_exact, dedup_minhash
    from hydra_ray.stages.text import quality_batch

    def words(g: str) -> list[str]:
        return [g + "x" * (i % 7) + "y" * (i % 3) for i in range(40)]

    def near(g: str) -> str:
        w = words(g)
        w[17] = "changedword"
        return " ".join(w)

    rows = []
    for g, (w_id, l_id, d_id) in {"a": (2, 3, 1), "b": (11, 13, 12), "c": (21, 22, 23)}.items():
        rows += [(w_id, " ".join(words(g))), (l_id, " ".join(words(g))), (d_id, near(g))]
    rows += [(30 + i, " ".join(f"u{i}" + "z" * j for j in range(12))) for i in range(4)]
    rows.append((40, "too short"))
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([f"l{r[0]}" for r in rows]),
        }
    )

    # the survivors-only order: quality gate, exact dedup, then near-dup
    # pairs among the survivors
    good = t.filter(quality_batch(t)["keep"])
    winners = set(dedup_exact(rd.from_arrow(good)).to_pandas()["doc_id"])
    surv = good.filter(pa.array([d in winners for d in good["doc_id"].to_pylist()]))
    pairs = dedup_minhash(rd.from_arrow(surv.select(["doc_id", "text"])), threshold=0.5)
    dropped = set(pairs.to_pandas()["doc_b"])
    kept = sorted(d for d in winners if d not in dropped)
    assert kept == [1, 11, 21, 30, 31, 32, 33]

    got = curate_corpus(rd.from_arrow(t).repartition(3), near_dup_threshold=0.5).to_pandas()
    assert sorted(int(lang[1:]) for lang in got["lang"]) == kept
    keep_t = t.filter(pa.array([d in kept for d in t["doc_id"].to_pylist()]))
    want = curate_corpus(rd.from_arrow(keep_t)).to_pandas()
    cols = ["lang", "n_docs", "n_chunks", "sum_toks"]
    assert got.sort_values("lang")[cols].reset_index(drop=True).equals(
        want.sort_values("lang")[cols].reset_index(drop=True)
    )


@pytest.mark.usefixtures("ray_session")
def test_hash_join_inner_left_and_collisions():
    from hydra_ray.stages.joins import hash_join

    left = pa.table(
        {
            "k": pa.array([1, 1, 2, 3], type=pa.int64()),
            "v": pa.array([10, 11, 20, 30], type=pa.int64()),
            "tag": pa.array(["a", "b", "c", "d"]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 2, 2, 9], type=pa.int64()),
            "w": pa.array([100, 200, 201, 900], type=pa.int64()),
            "tag": pa.array(["x", "y", "z", "q"]),  # collides with left
        }
    )
    for parts in (1, 4):
        inner = (
            hash_join(
                rd.from_arrow(left).repartition(2),
                rd.from_arrow(right).repartition(2),
                key="k",
                num_parts=parts,
            )
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        expect = (
            left.to_pandas()
            .merge(right.to_pandas(), on="k", suffixes=("", "_r"))
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        assert list(inner.columns) == ["k", "v", "tag", "w", "tag_r"]
        pd.testing.assert_frame_equal(inner[expect.columns], expect)

        lj = (
            hash_join(
                rd.from_arrow(left),
                rd.from_arrow(right),
                key="k",
                how="left",
                num_parts=parts,
            )
            .to_pandas()
            .sort_values(["k", "v", "w"])
            .reset_index(drop=True)
        )
        assert len(lj) == 5  # k=3 survives with nulls, k=1 1x, k=2 2x
        k3 = lj[lj["k"] == 3]
        assert k3["w"].isna().all() and k3["tag_r"].isna().all()
        assert lj["w"].dtype == np.float64  # SQL NULLable-int semantics


@pytest.mark.usefixtures("ray_session")
def test_joins_tolerate_empty_sides():
    from hydra_ray.stages.joins import hash_join, semi_join

    t = pa.table({"k": pa.array([1, 2], type=pa.int64()), "v": pa.array([10, 20])})
    empty = rd.from_arrow(t).filter(lambda r: False)
    # empty left: no crash, empty result
    assert semi_join(empty, rd.from_arrow(t.select(["k"])), "k").count() == 0
    assert hash_join(empty, rd.from_arrow(t), "k").count() == 0
    # empty right: inner empty, left keeps its rows
    assert hash_join(rd.from_arrow(t), empty, "k").count() == 0
    assert hash_join(rd.from_arrow(t), empty, "k", how="left").count() == 2
    # empty key set through semi_join's broadcast route: empty result,
    # no ArrowInvalid from pa.concat_tables([])
    from hydra_ray.stages.joins import bloom_semi_join

    assert bloom_semi_join(rd.from_arrow(t), empty.select_columns(["k"]), "k").count() == 0


def test_bloom_semi_join_equals_exact(ray_session):
    """Bloom pre-filter never changes results (false positives removed
    by the exact stage) and actually prunes definite-negatives."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from hydra_ray.stages.joins import bloom_semi_join, build_bloom, semi_join

    left = pa.table(
        {
            "k": pa.array(np.arange(1000, dtype=np.int64)),
            "v": pa.array(np.arange(1000, dtype=np.int64) * 2),
        }
    )
    keys = pa.table({"k": pa.array(np.arange(0, 1000, 37, dtype=np.int64))})
    got = (
        bloom_semi_join(rd.from_arrow(left).repartition(7), rd.from_arrow(keys), "k", nbits=1 << 16)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    exact = (
        semi_join(rd.from_arrow(left).repartition(7), rd.from_arrow(keys), "k")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got.equals(exact)
    assert set(got["k"]) == set(range(0, 1000, 37))

    # the bitmap itself: members always hit, most non-members miss
    bits, nh = build_bloom(rd.from_arrow(keys), "k", nbits=1 << 16)
    assert bits.any()


def test_bloom_semi_join_paths_identical(ray_session, monkeypatch):
    """bloom+broadcast route == bloom+shuffle route == plain semi_join."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from hydra_ray.stages import joins
    from hydra_ray.stages.joins import bloom_semi_join

    left = pa.table(
        {
            "k": pa.array(np.arange(500, dtype=np.int64)),
            "v": pa.array(np.arange(500, dtype=np.int64) * 3),
        }
    )
    keys = pa.table({"k": pa.array(np.arange(0, 500, 11, dtype=np.int64))})

    def run():
        return (
            bloom_semi_join(
                rd.from_arrow(left).repartition(4), rd.from_arrow(keys), "k", nbits=1 << 14
            )
            .to_pandas().sort_values("k").reset_index(drop=True)
        )

    fast = run()
    monkeypatch.setattr(joins, "KEYS_BROADCAST_MAX", 0)  # keyed-shuffle route
    slow = run()
    assert fast.equals(slow)
    assert set(fast["k"]) == set(range(0, 500, 11))
