"""ExactSubstr spans from the suffix-array rank tables (prefix doubling)."""

import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd

from hydra_ray.stages.dedup import char_dup_spans
from hydra_ray.stages.suffix import sa_dup_spans


def _corpus(n_docs=24, seed=11, planted=True):
    rng = random.Random(seed)
    texts = []
    for i in range(n_docs):
        texts.append(
            "".join(rng.choice("abcdefgh ") for _ in range(rng.randint(40, 260)))
        )
    if planted:
        chunk = "the exact same long duplicated passage appears here verbatim"
        # cross-doc duplicate
        texts[3] = texts[3][:20] + chunk + texts[3][20:]
        texts[17] = chunk + texts[17]
        # within-doc duplicate
        texts[8] = texts[8] + "zzz repeated block zzz repeated block zzz repeated block"
        # triple occurrence (min_occ=3 cases)
        tri = "triple occurrence fragment!"
        texts[1] += tri
        texts[9] += tri
        texts[14] += tri
    return pa.table({"doc_id": list(range(n_docs)), "text": texts})


def _sorted_df(ds) -> pd.DataFrame:
    df = ds.to_pandas() if hasattr(ds, "to_pandas") else ds
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_sa_dup_spans_equals_char_dup_spans(ray_session):
    """The verdict-item-8 contract: the suffix-array formulation agrees
    with the window-text path on its whole output (the SA path is exact
    by construction — no window text or hash enters a shuffle)."""
    t = _corpus()
    sa = _sorted_df(sa_dup_spans(rd.from_arrow(t).repartition(4), min_len=30, min_occ=2))
    ch = _sorted_df(
        char_dup_spans(
            rd.from_arrow(t).repartition(4), L=30, min_occ=2
        ).to_pandas()
    )
    assert len(sa) > 0  # planted dups detected
    pd.testing.assert_frame_equal(sa, ch, check_dtype=False)


def test_sa_dup_spans_min_occ3_and_power_of_two(ray_session):
    """min_occ=3 keeps only the triple-planted fragment; a power-of-two
    min_len exercises the δ=0 branch (k2 ≡ k1)."""
    t = _corpus()
    sa = _sorted_df(sa_dup_spans(rd.from_arrow(t), min_len=16, min_occ=3))
    ch = _sorted_df(
        char_dup_spans(rd.from_arrow(t), L=16, min_occ=3).to_pandas()
    )
    assert len(sa) > 0
    pd.testing.assert_frame_equal(sa, ch, check_dtype=False)
    # the triple fragment (docs 1/9/14) and doc 8's 3× repeated block
    assert set(sa["doc_id"]) == {1, 8, 9, 14}


def test_sa_dup_spans_distributed_parity(ray_session):
    t = _corpus(n_docs=18, seed=23)
    fast = _sorted_df(sa_dup_spans(rd.from_arrow(t), min_len=20, min_occ=2))
    dist = _sorted_df(
        sa_dup_spans(
            rd.from_arrow(t).repartition(5), min_len=20, min_occ=2,
            driver_docs=0, num_parts=8,
        )
    )
    pd.testing.assert_frame_equal(fast, dist, check_dtype=False)


def test_sa_dup_spans_large_min_len_doubling_branch(ray_session):
    """min_len > 4·MAX_WINDOW_COLS leaves the direct packed-key path
    and runs fold-4 doubling rounds before the window grouping — pin
    that branch against the driver path and char_dup_spans."""
    rng = random.Random(3)
    texts = [
        "".join(rng.choice("abcdefgh ") for _ in range(rng.randint(150, 400)))
        for _ in range(12)
    ]
    chunk = "a very long duplicated passage " * 6  # 192 chars
    texts[2] = texts[2][:30] + chunk + texts[2][30:]
    texts[7] += chunk
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    for min_len in (40, 100):  # h_t=8 (one round) and h_t=16
        fast = _sorted_df(sa_dup_spans(rd.from_arrow(t), min_len=min_len, min_occ=2))
        dist = _sorted_df(
            sa_dup_spans(
                rd.from_arrow(t).repartition(4), min_len=min_len, min_occ=2,
                driver_docs=0, num_parts=6,
            )
        )
        ch = _sorted_df(
            char_dup_spans(rd.from_arrow(t), L=min_len, min_occ=2).to_pandas()
        )
        assert len(fast) > 0
        pd.testing.assert_frame_equal(fast, dist, check_dtype=False)
        pd.testing.assert_frame_equal(fast, ch, check_dtype=False)


def test_sa_dup_spans_no_dups_is_empty(ray_session):
    """All-distinct corpus: early rank-exhaustion short-circuits to an
    empty result on both paths."""
    t = pa.table(
        {
            "doc_id": [0, 1],
            "text": ["abcdefghijklmnopqrstuvwxyz0123456789", "ABCDEFGHIJKLMNOPQRSTUVWXYZ!@#$%^&*()"],
        }
    )
    for kwargs in ({}, {"driver_docs": 0, "num_parts": 4}):
        out = sa_dup_spans(rd.from_arrow(t), min_len=8, min_occ=2, **kwargs)
        df = out.to_pandas() if hasattr(out, "to_pandas") else out
        assert len(df) == 0


def test_sa_dup_spans_min_len_guard(ray_session):
    with pytest.raises(ValueError, match="min_len"):
        sa_dup_spans(rd.from_arrow(_corpus(n_docs=2, planted=False)), min_len=1)


