"""Registry contract: the query/oracle maps `__ray_entry__.py` exposes,
checked without running any query."""

import pytest

import __ray_entry__ as entry
import bench
from hydra_ray.pipelines import queries
from hydra_ray.pipelines.queries import ORACLES, QUERIES
from perfbench.oracle import ORACLE_OF


def test_priority_window_leads_the_registry():
    assert list(entry.queries())[:50] == entry._PRIORITY
    assert list(entry.oracle_sql())[:50] == entry._PRIORITY


def test_every_query_has_an_oracle():
    assert set(QUERIES) == set(ORACLES)


def test_bench_and_perfbench_targets_are_registered():
    assert set(bench.QUERY_NAMES) <= set(QUERIES)
    assert set(ORACLE_OF.values()) <= set(ORACLES)


def test_duplicate_registration_raises():
    before = dict(QUERIES), dict(ORACLES)
    with pytest.raises(ValueError, match="catalog_synth"):
        queries._register("catalog_synth", lambda sf_dir: None, "SELECT 1")
    assert (QUERIES, ORACLES) == before
