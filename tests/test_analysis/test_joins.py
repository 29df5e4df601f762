"""Temporal join operators: as-of join, range join, windowed agg.

These are the custom operators the brief calls out as missing from
Ray Data, built as map_batches + one keyed shuffle (joins.py) and the
partial-agg path (agg.py::windowed_agg).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from hydra_ray.stages.agg import windowed_agg
from hydra_ray.stages.joins import asof_join, range_join


def _ts(*days):
    return pa.array([np.datetime64(f"2024-01-{d:02d}", "us") for d in days])


@pytest.mark.usefixtures("ray_session")
def test_asof_backward_basic_and_unmatched():
    left = pa.table(
        {
            "id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "k": pa.array([10, 10, 10, 20], type=pa.int64()),
            "t": _ts(5, 12, 2, 7),
        }
    )
    right = pa.table(
        {
            "k": pa.array([10, 10, 20], type=pa.int64()),
            "t": _ts(3, 10, 9),
            "payload": pa.array([100, 200, 300], type=pa.int64()),
        }
    )
    out = (
        asof_join(rd.from_arrow(left).repartition(2), rd.from_arrow(right), by="k", on="t")
        .to_pandas()
        .set_index("id")
        .sort_index()
    )
    # id=1 (k=10, t=Jan5) -> right Jan3 (100); id=2 (Jan12) -> Jan10 (200)
    # id=3 (Jan2) -> no right row at/before -> NULL
    # id=4 (k=20, Jan7) -> Jan9 is after -> NULL
    assert out.loc[1, "payload"] == 100
    assert out.loc[2, "payload"] == 200
    assert pd.isna(out.loc[3, "payload"])
    assert pd.isna(out.loc[4, "payload"])
    assert str(out["payload"].dtype) == "Int64"  # ints stay ints despite nulls
    assert len(out) == 4


@pytest.mark.usefixtures("ray_session")
def test_asof_exact_timestamp_is_inclusive():
    left = pa.table({"k": pa.array([1], type=pa.int64()), "t": _ts(10)})
    right = pa.table(
        {"k": pa.array([1], type=pa.int64()), "t": _ts(10), "v": pa.array([7], type=pa.int64())}
    )
    out = asof_join(rd.from_arrow(left), rd.from_arrow(right), by="k", on="t").to_pandas()
    assert out["v"].tolist() == [7]


@pytest.mark.usefixtures("ray_session")
def test_asof_collision_raises():
    t = pa.table({"k": pa.array([1]), "t": _ts(1), "v": pa.array([1])})
    with pytest.raises(ValueError, match="collide"):
        asof_join(rd.from_arrow(t), rd.from_arrow(t), by="k", on="t")


@pytest.mark.usefixtures("ray_session")
def test_range_join_overlapping_intervals_multi_match():
    iv = pa.table(
        {
            "win_id": pa.array([0, 1], type=pa.int64()),
            "start": _ts(1, 3),
            "end": _ts(5, 8),
        }
    )
    ds = rd.from_arrow(
        pa.table({"id": pa.array([1, 2, 3], type=pa.int64()), "ts": _ts(2, 4, 20)})
    )
    out = range_join(ds, iv, t_col="ts").to_pandas()
    got = sorted(zip(out["id"], out["win_id"]))
    # id=1 (Jan2) in win0 only; id=2 (Jan4) in both; id=3 (Jan20) in none
    assert got == [(1, 0), (2, 0), (2, 1)]


@pytest.mark.usefixtures("ray_session")
def test_range_join_boundaries_half_open():
    iv = pa.table({"win_id": pa.array([0], type=pa.int64()), "start": _ts(2), "end": _ts(4)})
    ds = rd.from_arrow(pa.table({"id": pa.array([1, 2], type=pa.int64()), "ts": _ts(2, 4)}))
    out = range_join(ds, iv, t_col="ts").to_pandas()
    assert out["id"].tolist() == [1]  # start inclusive, end exclusive


@pytest.mark.usefixtures("ray_session")
def test_windowed_agg_tumbling():
    t = pa.table(
        {
            "ts": pa.array(
                [np.datetime64("2024-01-01T00:30", "us"), np.datetime64("2024-01-01T00:45", "us"),
                 np.datetime64("2024-01-01T01:30", "us")]
            ),
            "v": pa.array([1.0, 2.0, 4.0]),
        }
    )
    out = (
        windowed_agg(
            rd.from_arrow(t).repartition(2),
            t_col="ts",
            window_us=3600 * 1_000_000,
            aggs=[("v", "sum", "sv"), ("v", "count", "n")],
        )
        .to_pandas()
        .sort_values("window_start")
        .reset_index(drop=True)
    )
    assert out["sv"].tolist() == [3.0, 4.0]
    assert out["n"].tolist() == [2, 1]
    assert out["window_start"].iloc[0] == pd.Timestamp("2024-01-01T00:00")


@pytest.mark.usefixtures("ray_session")
def test_windowed_agg_sliding_counts_match_bruteforce():
    rng = np.random.default_rng(3)
    base = np.datetime64("2024-01-01", "us").astype("int64")
    us = base + rng.integers(0, 48 * 3600, size=200) * 1_000_000
    t = pa.table({"ts": pa.array(us).cast(pa.timestamp("us")), "v": pa.array(np.ones(200))})
    w, s = 6 * 3600 * 1_000_000, 2 * 3600 * 1_000_000
    out = (
        windowed_agg(rd.from_arrow(t).repartition(3), t_col="ts", window_us=w, slide_us=s,
                     aggs=[("v", "count", "n")])
        .to_pandas()
        .set_index("window_start")["n"]
    )
    # brute force: every slide-aligned window [ws, ws+w) with >=1 event
    starts = (us // s) * s
    expect: dict[np.int64, int] = {}
    for j in range(w // s):
        for st in starts - j * s:
            expect[st] = expect.get(st, 0) + 1
    # re-count properly: window ws contains events with ws <= t < ws+w
    uniq = sorted(set(expect))
    for ws in uniq:
        n_true = int(((us >= ws) & (us < ws + w)).sum())
        assert out[pd.Timestamp(ws, unit="us")] == n_true


@pytest.mark.usefixtures("ray_session")
def test_windowed_agg_rejects_non_multiple_slide():
    t = pa.table({"ts": _ts(1), "v": pa.array([1.0])})
    with pytest.raises(ValueError):
        windowed_agg(rd.from_arrow(t), t_col="ts", window_us=10, slide_us=3,
                     aggs=[("v", "sum", "s")])


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
