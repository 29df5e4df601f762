"""``VersionedTable.merge_insert``, the catalog's one upsert: the layout
recorded in the manifest, the table-size routes, and a dict model of
last-wins upserts that keep the stored values of the columns an update
lacks."""

import tempfile
from unittest import mock

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.sources import store
from hydra_ray.sources.store import VersionedTable


def kv(keys, vals) -> pa.Table:
    return pa.table({"k": pa.array(keys, pa.int64()), "v": pa.array(vals, pa.int64())})


def as_dict(vt: VersionedTable) -> dict:
    t = vt.read_arrow()
    return dict(zip(t["k"].to_pylist(), t["v"].to_pylist()))


@pytest.mark.usefixtures("ray_session")
def test_changing_n_parts_between_writes_keeps_one_row_per_key(tmp_path, hash_layout):
    """The partition count is the manifest's, not the module's: a write
    after ``N_PARTS`` changed still finds every stored key."""
    hash_layout(16)
    vt = VersionedTable(str(tmp_path / "t"), partition_key="k")
    vt.overwrite(kv(range(100), range(100)))
    assert len(vt.files()) == 16
    hash_layout(8)
    vt.merge_insert(kv(range(80, 120), [-1] * 40), key="k")
    got = vt.read_arrow()["k"].to_pylist()
    assert len(got) == len(set(got)) == 120
    assert as_dict(vt) == {k: (k if k < 80 else -1) for k in range(120)}
    assert all(VersionedTable._file_part(f) < 16 for f in vt.files())


@pytest.mark.usefixtures("ray_session")
def test_dataset_route_upsert_loads_no_stored_file_on_driver(tmp_path, hash_layout, table_route):
    """Above ``fits_driver`` an upsert into a partitioned table reads the
    stored files only in Ray tasks, and gives the driver route's table."""
    hash_layout(4)
    tables = {}
    for route in ("driver", "dataset"):
        vt = VersionedTable(str(tmp_path / route), partition_key="k")
        vt.overwrite(kv(range(40), range(40)))
        vt.delete_where("k", [1, 2])
        loads = []
        read_table = store.pq.read_table
        with table_route(route), mock.patch.object(
            store.pq, "read_table", lambda *a, **kw: loads.append(a) or read_table(*a, **kw)
        ):
            vt.merge_insert(pa.table({"k": pa.array([3, 50], pa.int64())}), key="k")
        if route == "dataset":
            assert loads == []
        tables[route] = vt.read_arrow().sort_by("k")
    assert tables["dataset"].equals(tables["driver"])
    assert tables["driver"]["k"].to_pylist() == [0] + list(range(3, 40)) + [50]
    assert as_dict(vt)[3] == 3 and as_dict(vt)[50] is None


@pytest.mark.usefixtures("ray_session")
def test_second_handle_from_path_upserts_into_recorded_layout(tmp_path, hash_layout):
    """A handle opened from the path alone follows the recorded layout:
    its upsert rewrites only the partitions its keys hash to."""
    hash_layout(8)
    path = str(tmp_path / "t")
    VersionedTable(path, partition_key="k").overwrite(kv(range(200), range(200)))
    other = VersionedTable(path)
    before = set(other.files())
    other.merge_insert(kv([3, 7], [333, 777]), key="k")
    after = set(other.files())
    assert len(after) == 8 and all(VersionedTable._file_part(f) is not None for f in after)
    assert 1 <= len(after - before) <= 2
    got = as_dict(other)
    assert len(got) == 200 and got[3] == 333 and got[7] == 777 and got[5] == 5


# -- the dict model ---------------------------------------------------------

TYPES = {"k": pa.int64(), "a": pa.int64(), "b": pa.string(), "c": pa.int64()}

keys_st = st.integers(0, 12)
upsert_st = st.tuples(
    st.just("upsert"),
    st.lists(
        st.tuples(keys_st, st.none() | st.integers(-5, 5), st.none() | st.sampled_from("xyz")),
        min_size=1,
        max_size=8,
    ),
    st.sets(st.sampled_from(["a", "b", "c"])),
)
delete_st = st.tuples(
    st.sampled_from(["delete", "eq_delete"]), st.lists(keys_st, min_size=1, max_size=4)
)
add_st = st.tuples(st.just("add"), st.none() | st.integers(100, 105))
ops_st = st.lists(st.one_of(upsert_st, upsert_st, delete_st, add_st), min_size=1, max_size=5)


def _apply(vt: VersionedTable, model: dict, cols: list, defaults: dict, op) -> None:
    kind = op[0]
    if kind == "upsert":
        _, rows, carried = op
        carried = [c for c in cols if c in carried]  # only columns the table has
        t = pa.table(
            {"k": pa.array([r[0] for r in rows], pa.int64())}
            | {c: pa.array([r[1] if c != "b" else r[2] for r in rows], TYPES[c]) for c in carried}
        )
        vt.merge_insert(t, key="k")
        for r in rows:
            row = model.setdefault(r[0], {c: defaults.get(c) for c in cols} | {"k": r[0]})
            row.update({c: (r[1] if c != "b" else r[2]) for c in carried})
    elif kind in ("delete", "eq_delete"):
        vt.delete_where("k", op[1], defer=kind == "eq_delete")
        for k in op[1]:
            model.pop(k, None)
    elif "c" not in cols:
        vt.add_column("c", "int64", default=op[1])
        cols.append("c")
        defaults["c"] = op[1]
        for row in model.values():
            row["c"] = op[1]


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("route", ["driver", "dataset"])
@pytest.mark.parametrize("n_parts", [1, 4])
@settings(max_examples=8, deadline=None)
@given(ops=ops_st)
def test_merge_insert_matches_dict_model(route, n_parts, ops):
    """Any sequence of upserts (repeated keys, columns left out),
    position and equality deletes and added columns leaves the table
    equal to a dict model: last row wins per key, a column an upsert
    lacks keeps its stored value (a new key gets null or the added
    column's default), and the stored column order and types hold.
    ``n_parts`` 1 keeps the table one file; 4 hash-partitions it."""
    with tempfile.TemporaryDirectory() as d, mock.patch.multiple(
        store,
        N_PARTS=n_parts,
        PARTITION_MIN_ROWS=0 if n_parts > 1 else 10**9,
        DRIVER_MAX_ROWS=0 if route == "dataset" else store.DRIVER_MAX_ROWS,
    ):
        vt = VersionedTable(d, partition_key="k")
        cols = ["k", "a", "b"]
        vt.overwrite(
            pa.table(
                {
                    "k": pa.array([0, 5], pa.int64()),
                    "a": pa.array([1, 2], pa.int64()),
                    "b": pa.array(["p", None], pa.string()),
                }
            )
        )
        model = {0: {"k": 0, "a": 1, "b": "p"}, 5: {"k": 5, "a": 2, "b": None}}
        defaults: dict = {}
        for op in ops:
            _apply(vt, model, cols, defaults, op)
        got = vt.read_arrow()
        assert got.schema.names == cols
        assert got.schema.types == [TYPES[c] for c in cols]
        got = got.sort_by("k").to_pylist()
        assert got == [{c: model[k][c] for c in cols} for k in sorted(model)]
        if n_parts > 1 and route == "driver":
            assert all(VersionedTable._file_part(f) is not None for f in vt.files())
        keys = pc.unique(vt.read_arrow()["k"]).to_pylist()
        assert len(keys) == vt.count()
