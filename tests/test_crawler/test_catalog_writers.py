"""A second writer on the engine's catalog.

The catalog table is the only copy of the crawl frontier: the engine
reads it each iteration and its checkpoint writes back only the rows
the iteration touched. So a tombstone committed through another
``VersionedTable`` handle on the same directory (what a serving API in
another process holds) is seen by the next iteration and by an
on-demand check, and no engine checkpoint writes the row back live.
"""

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from hydra_ray.pipelines.crawl import ResourceDeleted
from hydra_ray.sources.store import VersionedTable

from .test_resume import small_seed


def _crawled_engine(tmp_path, make_crawl_engine):
    eng = make_crawl_engine(str(tmp_path / "wd"), batch_size=30)
    eng.load_catalog(small_seed())
    eng.run(1)
    return eng


def _tombstone_unchecked(eng) -> str:
    """Tombstone one never-checked resource through a second handle."""
    other = VersionedTable(
        eng.catalog.path,
        partition_key="resource_id",
        n_parts=eng.catalog.n_parts,
        partition_min_rows=eng.catalog.partition_min_rows,
    )
    cat = other.read_arrow()
    unchecked = cat.filter(pc.is_null(cat["last_check_id"]))
    assert unchecked.num_rows
    row = unchecked.slice(0, 1)
    row = row.set_column(row.column_names.index("deleted"), "deleted", pa.array([True]))
    other.merge_insert(row, key="resource_id")
    return row["resource_id"][0].as_py()


@pytest.mark.usefixtures("ray_session")
def test_tombstone_from_second_handle_survives_iterations(tmp_path, make_crawl_engine):
    eng = _crawled_engine(tmp_path, make_crawl_engine)
    rid = _tombstone_unchecked(eng)
    eng.run(2)
    cat = eng.catalog.read_arrow()
    row = cat.filter(pc.equal(cat["resource_id"], rid))
    assert row.num_rows == 1 and row["deleted"][0].as_py() is True
    assert row["last_check_id"][0].as_py() is None
    checked = set(eng.checks.read_arrow(columns=["resource_id"])["resource_id"].to_pylist())
    assert rid not in checked
    assert len(checked) > 30  # the iterations after the tombstone did crawl


@pytest.mark.usefixtures("ray_session")
def test_check_now_refuses_tombstone_from_second_handle(tmp_path, make_crawl_engine):
    eng = _crawled_engine(tmp_path, make_crawl_engine)
    rid = _tombstone_unchecked(eng)
    n_checks = eng.checks.count()
    with pytest.raises(ResourceDeleted):
        eng.check_resource_now(rid)
    assert eng.checks.count() == n_checks
