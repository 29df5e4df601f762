"""Sequence packing: distributed prefix sum correctness and invariance
to block layout."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from hydra_ray.stages.pack import pack_sequences


@pytest.mark.usefixtures("ray_session")
def test_pack_sequences_matches_serial_cumsum():
    rng = np.random.default_rng(3)
    n = 300
    counts = rng.integers(1, 40, size=n).astype(np.int64)
    ids = rng.permutation(n).astype(np.int64)  # unsorted input
    t = pa.table({"doc_id": pa.array(ids), "n_tokens": pa.array(counts[ids])})
    for parts in (1, 7):
        out = (
            pack_sequences(rd.from_arrow(t).repartition(parts), capacity=64)
            .to_pandas()
            .sort_values("doc_id")
        )
        start = np.cumsum(counts) - counts  # exclusive prefix in id order
        assert out["seq_id"].to_numpy().tolist() == (start // 64).tolist()
        assert out["seq_offset"].to_numpy().tolist() == (start % 64).tolist()
        # a doc starting exactly on a boundary has offset 0
        assert ((out["seq_offset"] >= 0) & (out["seq_offset"] < 64)).all()


@pytest.mark.usefixtures("ray_session")
def test_paragraph_dedup_first_wins_and_reassembly():
    from hydra_ray.stages.dedup import paragraph_dedup

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": pa.array(
                [
                    "a b c d e f g h",      # paras: 'a b c d', 'e f g h'
                    "a b c d x y z w",      # first para duplicates doc 1
                    "e f g h a b c d",      # both paras already seen
                ]
            ),
        }
    )
    for parts in (1, 4):
        out = (
            paragraph_dedup(rd.from_arrow(docs).repartition(parts), para_words=4)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert out["n_paras"].tolist() == [2, 2, 2]
        assert out["n_kept"].tolist() == [2, 1, 0]
        assert out["new_text"].tolist() == ["a b c d e f g h", "x y z w", ""]


@pytest.mark.usefixtures("ray_session")
def test_training_shards_writes_partitioned_output(tmp_path):
    from hydra_ray.pipelines.curate import training_shards, write_shards

    docs = pa.table(
        {
            "doc_id": pa.array(range(40), type=pa.int64()),
            "text": pa.array(
                [
                    " ".join(
                        "word" + "abcdefghijklmnopqrstuvw"[(i * 7 + j) % 23]
                        for j in range(30 + i % 11)
                    )
                    for i in range(40)
                ]
            ),
        }
    )
    out = training_shards(rd.from_arrow(docs).repartition(4), capacity=64, n_shards=3)
    dirs = write_shards(out, str(tmp_path / "shards"))
    assert 1 <= len(dirs) <= 3 and all("shard=" in d for d in dirs)
    back = rd.read_parquet(str(tmp_path / "shards")).to_pandas()
    ref = out.to_pandas()
    assert len(back) == len(ref)
    # hive partition column survives the round trip with the same totals
    assert sorted(back["n_toks"].groupby(back["shard"].astype(int)).sum().items()) == sorted(
        ref["n_toks"].groupby(ref["shard"]).sum().items()
    )
