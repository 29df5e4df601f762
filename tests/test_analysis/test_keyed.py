"""stages/keyed.py: one UDF call per co-partitioned block, every key's
rows in exactly one call, and no call for an empty block."""

import uuid

import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.stages.keyed import keyed_map_partitions, keyed_map_partitions_arrow


def _blocks(keys_per_block: list[list[int]]) -> "rd.Dataset":
    """One Arrow block per inner list; ``v`` numbers the rows globally."""
    tables, n = [], 0
    for keys in keys_per_block:
        tables.append(
            pa.table(
                {
                    "k": pa.array(keys, type=pa.int64()),
                    "v": pa.array(range(n, n + len(keys)), type=pa.int64()),
                }
            )
        )
        n += len(keys)
    return rd.from_arrow(tables)


def _agg_pandas(df: pd.DataFrame) -> pd.DataFrame:
    out = df.groupby("k", as_index=False).agg(n=("v", "size"), s=("v", "sum"))
    return out.assign(call=uuid.uuid4().hex)


def _agg_arrow(t: pa.Table) -> pa.Table:
    g = t.group_by("k").aggregate([("v", "count"), ("v", "sum")])
    call = pa.array([uuid.uuid4().hex] * g.num_rows)
    return pa.table({"k": g["k"], "n": g["v_count"], "s": g["v_sum"], "call": call})


ROUTES = [(keyed_map_partitions, _agg_pandas), (keyed_map_partitions_arrow, _agg_arrow)]


@pytest.mark.parametrize("helper,fn", ROUTES, ids=["pandas", "arrow"])
def test_fn_runs_at_most_once_per_block(helper, fn):
    """32 hash partitions over 4 input blocks: at most 4 calls, not one
    call per partition."""
    n_blocks = 4
    ds = _blocks([[(b * 100 + i) for i in range(100)] for b in range(n_blocks)])
    out = helper(ds, ["k"], fn, num_parts=32).to_pandas()
    assert len(out) == 400
    assert 1 <= out["call"].nunique() <= n_blocks


@pytest.mark.parametrize("helper,fn", ROUTES, ids=["pandas", "arrow"])
@settings(max_examples=8, deadline=None)
@given(
    keys_per_block=st.lists(
        st.lists(st.integers(0, 25), max_size=40), min_size=2, max_size=5
    ).filter(lambda bs: any(bs)),
    num_parts=st.sampled_from([1, 3, 32]),
)
def test_every_key_reaches_one_call(helper, fn, keys_per_block, num_parts):
    """Each key's rows, spread over several input blocks, meet in one
    call; the union of outputs is the plain pandas groupby."""
    out = helper(_blocks(keys_per_block), ["k"], fn, num_parts=num_parts).to_pandas()
    flat = pd.DataFrame({"k": [k for ks in keys_per_block for k in ks]})
    ref = (
        flat.assign(v=range(len(flat)))
        .groupby("k", as_index=False)
        .agg(n=("v", "size"), s=("v", "sum"))
    )
    assert out["k"].is_unique  # a key split across two calls shows up twice
    got = out[["k", "n", "s"]].astype("int64").sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, ref.astype("int64"))


@pytest.mark.parametrize("helper", [keyed_map_partitions, keyed_map_partitions_arrow])
def test_all_blocks_empty(helper):
    """Every block filtered empty: no rows out and no call on an empty frame."""
    ds = _blocks([list(range(20)), list(range(20, 40)), list(range(40, 60))])
    empty = ds.map_batches(lambda t: t.slice(0, 0), batch_format="pyarrow")

    def fn(batch):
        assert len(batch) > 0, "called with an empty frame"
        return batch

    assert helper(empty, ["k"], fn).take_all() == []
