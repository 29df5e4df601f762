"""Versioned table semantics: append/overwrite/merge_insert/meta/resume."""

import pyarrow as pa
import pytest

from hydra_ray.sources.store import VersionedTable


def t(ids, vals):
    return pa.table({"k": pa.array(ids, type=pa.string()), "v": pa.array(vals, type=pa.int64())})


@pytest.mark.usefixtures("ray_session")
class TestVersionedTable:
    def test_append_versions(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        assert vt.is_empty() and vt.latest_version() == 0
        vt.append(t(["a"], [1]))
        vt.append(t(["b"], [2]))
        assert vt.latest_version() == 2
        assert vt.count() == 2
        # older version still readable (time travel)
        assert vt.count(version=1) == 1

    def test_overwrite(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        vt.overwrite(t(["z"], [9]))
        got = vt.read_arrow()
        assert got["k"].to_pylist() == ["z"]

    def test_merge_insert_upsert(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.overwrite(t(["a", "b"], [1, 2]))
        vt.merge_insert(t(["b", "c"], [20, 30]), key="k")
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b", "c"]
        assert got["v"].to_pylist() == [1, 20, 30]

    def test_merge_insert_dedups_incoming_last_wins(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.overwrite(t(["a"], [1]))
        vt.merge_insert(t(["b", "b"], [5, 6]), key="k")
        got = vt.read_arrow().sort_by("k")
        assert got["v"].to_pylist() == [1, 6]
        # interleaved repeats: each key's last row wins, and the kept
        # rows stay in incoming order after the stored survivors
        vt.merge_insert(t(["c", "a", "c", "d", "a"], [7, 2, 8, 4, 3]), key="k")
        got = vt.read_arrow()
        assert got["k"].to_pylist() == ["b", "c", "d", "a"]
        assert got["v"].to_pylist() == [6, 8, 4, 3]

    def test_meta_cursor(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]), meta={"iteration": 1})
        assert vt.meta()["iteration"] == 1
        vt.commit_meta({"iteration": 2})
        assert vt.meta()["iteration"] == 2
        assert vt.count() == 1  # files unchanged

    def test_read_as_dataset(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        ds = vt.read()
        assert ds.count() == 2


def test_lineage_chain(tmp_path, ray_session):
    import json

    import pyarrow as pa

    from hydra_ray.sources.store import VersionedTable

    t = VersionedTable(str(tmp_path / "tbl"))
    t.overwrite(pa.table({"x": [1]}), meta={"iteration": 0})
    t.append(pa.table({"x": [2]}), meta={"iteration": 1})
    t.append(pa.table({"x": [3]}), meta={"iteration": 2})
    lin = t.lineage().to_pylist()
    assert [r["version"] for r in lin] == [1, 2, 3]
    assert [r["parent"] for r in lin] == [0, 1, 2]
    assert [json.loads(r["meta"])["iteration"] for r in lin] == [0, 1, 2]
    assert lin[-1]["n_files"] >= lin[0]["n_files"]


@pytest.mark.usefixtures("ray_session")
class TestDeletionVectors:
    """Lance deletion-file semantics: position deletes applied
    merge-on-read, carried across appends, compacted away."""

    def test_delete_by_values_and_read_paths(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.append(t(["d", "e"], [4, 5]))
        v_before = vt.latest_version()
        files_before = set(vt.files())
        vt.delete_where("k", ["b", "d", "zz"])
        # no data file rewritten; versions advance; counts are exact
        assert set(vt.files()) == files_before
        assert vt.latest_version() == v_before + 1
        assert vt.count() == 3 and vt.deleted_count() == 2
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "c", "e"]
        # distributed read path applies the same vectors
        ds = vt.read(columns=["k"])
        assert sorted(r["k"] for r in ds.take_all()) == ["a", "c", "e"]
        # time travel: pre-delete version still sees every row
        assert vt.count(version=v_before) == 5

    def test_delete_by_predicate_union_and_append_carry(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.delete_where("k", predicate=lambda tb: pa.compute.greater(tb["v"], 2),
                        predicate_columns=["v"])
        assert vt.read_arrow()["k"].to_pylist() == ["a", "b"]
        # second delete on the same file unions positions
        vt.delete_where("k", ["a"])
        assert vt.read_arrow()["k"].to_pylist() == ["b"]
        # appends carry existing deletion vectors forward
        vt.append(t(["x"], [9]))
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["b", "x"]
        assert vt.count() == 2

    def test_merge_insert_respects_deletes(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.overwrite(t(["a", "b", "c"], [1, 2, 3]))
        vt.delete_where("k", ["a"])
        vt.merge_insert(t(["b"], [20]), key="k")
        got = vt.read_arrow().sort_by("k")
        # deleted 'a' must not resurrect through the merge rewrite
        assert got["k"].to_pylist() == ["b", "c"]
        assert got["v"].to_pylist() == [20, 3]

    def test_partitioned_merge_carries_deletes(self, tmp_path, hash_layout):
        hash_layout(4)
        vt = VersionedTable(str(tmp_path / "t"), partition_key="k")
        keys = [f"k{i}" for i in range(40)]
        vt.overwrite(t(keys, list(range(40))))
        vt.delete_where("k", ["k1", "k2", "k3"])
        assert vt.count() == 37
        # upsert touching SOME partitions: untouched partitions keep
        # their deletion vectors; touched ones materialize them
        vt.merge_insert(t(["k5"], [500]), key="k")
        got = vt.read_arrow()
        ks = set(got["k"].to_pylist())
        assert {"k1", "k2", "k3"}.isdisjoint(ks) and len(ks) == 37
        assert got.filter(pa.compute.equal(got["k"], "k5"))["v"].to_pylist() == [500]

    def test_compact_and_gc(self, tmp_path):
        import os

        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.delete_where("k", ["b"])
        vt.compact()
        assert vt.deleted_count() == 0 and vt.count() == 2
        assert vt.read_arrow().sort_by("k")["k"].to_pylist() == ["a", "c"]
        removed = vt.gc(keep_versions=1)
        assert removed >= 1  # old data file + stale delete sidecar
        del_dir = tmp_path / "t" / "deletes"
        assert not del_dir.exists() or not any(os.listdir(del_dir))
        # survivors still readable after gc
        assert vt.read_arrow().sort_by("k")["k"].to_pylist() == ["a", "c"]

    def test_resume_sees_deletes(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.delete_where("k", ["a"])
        # a fresh handle (crash/resume) reads the same live rows
        vt2 = VersionedTable(str(tmp_path / "t"))
        assert vt2.read_arrow()["k"].to_pylist() == ["b"]
        assert vt2.count() == 1


@pytest.mark.usefixtures("ray_session")
class TestUpdateRestore:
    """Lance update/restore parity: merge-on-read updates (delete-vector
    + appended replacement rows in ONE commit) and version rollback."""

    def test_update_set_values(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.append(t(["d"], [4]))
        files_before = set(vt.files())
        v_before = vt.latest_version()
        vt.update_where("k", ["b", "d"], set_values={"v": 99})
        # one commit; original data files untouched, replacements appended
        assert vt.latest_version() == v_before + 1
        assert files_before <= set(vt.files())
        assert len(set(vt.files()) - files_before) == 2  # one part per touched file
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b", "c", "d"]
        assert got["v"].to_pylist() == [1, 99, 3, 99]
        assert vt.count() == 4 and vt.deleted_count() == 2
        # distributed read path agrees
        assert sorted(r["v"] for r in vt.read(columns=["v"]).take_all()) == [1, 3, 99, 99]

    def test_update_predicate_callable_updater(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))

        def bump(matched):
            import pyarrow.compute as pc

            return matched.set_column(
                matched.schema.get_field_index("v"),
                matched.schema.field("v"),
                pc.add(matched["v"], 10),
            )

        vt.update_where(
            "k",
            predicate=lambda tb: pa.compute.greater(tb["v"], 1),
            predicate_columns=["v"],
            updater=bump,
        )
        got = vt.read_arrow().sort_by("k")
        assert got["v"].to_pylist() == [1, 12, 13]

    def test_update_never_resurrects_deleted_rows(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.delete_where("k", ["a"])
        vt.update_where("k", ["a", "b"], set_values={"v": 7})
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["b"] and got["v"].to_pylist() == [7]

    def test_repeated_update_unions_vectors_and_compacts(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.update_where("k", ["a"], set_values={"v": 10})
        vt.update_where("k", ["a"], set_values={"v": 20})  # updates the replacement row
        got = vt.read_arrow().sort_by("k")
        assert got["v"].to_pylist() == [20, 2, 3]
        vt.compact()
        assert vt.deleted_count() == 0
        assert vt.read_arrow().sort_by("k")["v"].to_pylist() == [20, 2, 3]

    def test_time_travel_sees_pre_update_values(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        v1 = vt.latest_version()
        vt.update_where("k", ["a"], set_values={"v": 50})
        assert vt.read_arrow(version=v1).sort_by("k")["v"].to_pylist() == [1, 2]
        assert vt.read_arrow().sort_by("k")["v"].to_pylist() == [50, 2]

    def test_restore_rolls_back_as_new_commit(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]), meta={"iteration": 1})
        v1 = vt.latest_version()
        vt.append(t(["b"], [2]), meta={"iteration": 2})
        vt.update_where("k", ["a"], set_values={"v": 9})
        v_restored = vt.restore(v1)
        assert v_restored == vt.latest_version() and v_restored > v1
        assert vt.read_arrow()["k"].to_pylist() == ["a"]
        assert vt.read_arrow()["v"].to_pylist() == [1]  # pre-update value
        assert vt.meta()["iteration"] == 1  # old cursor restored
        # rollback is lineage, not erasure: the undone version still reads
        assert sorted(vt.read_arrow(version=v1 + 1)["k"].to_pylist()) == ["a", "b"]

    def test_restore_refuses_gced_target(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        v1 = vt.latest_version()
        vt.overwrite(t(["b"], [2]))
        vt.gc(keep_versions=1)
        with pytest.raises(ValueError, match="not restorable"):
            vt.restore(v1)

    def test_update_validates_arguments(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        with pytest.raises(ValueError, match="set_values / updater"):
            vt.update_where("k", ["a"])
        with pytest.raises(ValueError, match="values / predicate"):
            vt.update_where("k", set_values={"v": 1})


@pytest.mark.usefixtures("ray_session")
class TestZoneMaps:
    """Zone-map file pruning: per-file key min/max from Parquet footers
    (cached in _stats/) lets point deletes/updates/lookups skip files
    whose range can't match."""

    def _two_range_table(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))   # file 1: keys a..c
        vt.append(t(["x", "y", "z"], [7, 8, 9]))   # file 2: keys x..z
        return vt

    def test_prune_files_by_key_range(self, tmp_path):
        vt = self._two_range_table(tmp_path)
        files = vt.files()
        assert len(files) == 2
        assert vt.prune_files(files, "k", ["b"]) == [files[0]]
        assert vt.prune_files(files, "k", ["y", "z"]) == [files[1]]
        assert set(vt.prune_files(files, "k", ["a", "z"])) == set(files)
        assert vt.prune_files(files, "k", ["m"]) == []  # between the ranges
        # cache file exists and survives a fresh handle
        import os as _os

        assert _os.path.exists(str(tmp_path / "t" / "_stats" / "k.json"))
        vt2 = VersionedTable(str(tmp_path / "t"))
        assert vt2.prune_files(files, "k", ["b"]) == [files[0]]

    def test_read_where_point_lookup(self, tmp_path):
        vt = self._two_range_table(tmp_path)
        got = vt.read_where("k", ["b", "y"]).take_all()
        assert sorted((r["k"], r["v"]) for r in got) == [("b", 2), ("y", 8)]
        # pruned column selection that omits the key still works
        got = vt.read_where("k", ["z"], columns=["v"]).take_all()
        assert [r["v"] for r in got] == [9]
        assert all(set(r) == {"v"} for r in got)
        # no candidate file → empty result, schema preserved
        assert vt.read_where("k", ["m"]).count() == 0

    def test_read_where_respects_deletes(self, tmp_path):
        vt = self._two_range_table(tmp_path)
        vt.delete_where("k", ["b"])
        assert vt.read_where("k", ["b", "c"]).take_all() == [{"k": "c", "v": 3}]

    def test_delete_and_update_prune_but_stay_correct(self, tmp_path):
        vt = self._two_range_table(tmp_path)
        vt.delete_where("k", ["y"])
        vt.update_where("k", ["a"], set_values={"v": 100})
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b", "c", "x", "z"]
        assert got["v"].to_pylist() == [100, 2, 3, 7, 9]
        # only file 2 carries a delete sidecar from the "y" delete plus
        # file 1 from the "a" update — the untouched ranges were pruned
        assert vt.deleted_count() == 2

    def test_gc_prunes_stale_stats_entries(self, tmp_path):
        import json as _json
        import os as _os

        vt = self._two_range_table(tmp_path)
        files_v1 = list(vt.files())
        vt.prune_files(files_v1, "k", ["a"])  # populate cache
        vt.overwrite(t(["q"], [0]))
        vt.gc(keep_versions=1)
        cache = _json.loads((tmp_path / "t" / "_stats" / "k.json").read_text())
        assert all(_os.path.exists(f) for f in cache)
        assert not (set(files_v1) & set(cache))


@pytest.mark.usefixtures("ray_session")
class TestSchemaEvolution:
    """Lance add_columns parity: manifest-recorded column adds,
    default-filled merge-on-read for files that predate the add —
    no file rewritten, time travel exact."""

    def test_add_column_default_fill_both_read_paths(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        files_before = set(vt.files())
        vt.add_column("score", "float64", default=0.5)
        assert set(vt.files()) == files_before  # no rewrite
        got = vt.read_arrow().sort_by("k")
        assert got.column_names == ["k", "v", "score"]
        assert got["score"].to_pylist() == [0.5, 0.5]
        rows = sorted(vt.read().take_all(), key=lambda r: r["k"])
        assert [r["score"] for r in rows] == [0.5, 0.5]

    def test_add_column_null_default_and_new_appends_carry_it(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        vt.add_column("tag", "string")
        vt.append(
            pa.table({"k": ["b"], "v": pa.array([2], pa.int64()), "tag": ["fresh"]})
        )
        got = vt.read_arrow().sort_by("k")
        assert got["tag"].to_pylist() == [None, "fresh"]
        # column selection across mixed physical schemas
        sel = vt.read_arrow(columns=["k", "tag"]).sort_by("k")
        assert sel.column_names == ["k", "tag"]
        assert sel["tag"].to_pylist() == [None, "fresh"]
        ds_rows = sorted(vt.read(columns=["k", "tag"]).take_all(), key=lambda r: r["k"])
        assert [r["tag"] for r in ds_rows] == [None, "fresh"]

    def test_time_travel_predates_the_add(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        v1 = vt.latest_version()
        vt.add_column("score", "int64", default=7)
        assert vt.read_arrow(version=v1).column_names == ["k", "v"]
        assert vt.read_arrow()["score"].to_pylist() == [7]

    def test_update_and_delete_on_added_column(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.add_column("score", "int64", default=0)
        vt.update_where("k", ["b"], set_values={"score": 9})
        got = vt.read_arrow().sort_by("k")
        assert got["score"].to_pylist() == [0, 9]
        # filter on the added column itself (merge-on-read value)
        vt.delete_where(
            "score", predicate=lambda tb: pa.compute.equal(tb["score"], 9),
            predicate_columns=["score"],
        )
        assert vt.read_arrow()["k"].to_pylist() == ["a"]

    def test_merge_insert_across_schema_evolution(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.overwrite(t(["a", "b"], [1, 2]))
        vt.add_column("score", "int64", default=3)
        # incoming batch predates the add → default-filled
        vt.merge_insert(t(["b", "c"], [20, 30]), key="k")
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b", "c"]
        assert got["v"].to_pylist() == [1, 20, 30]
        assert got["score"].to_pylist() == [3, 3, 3]

    def test_compact_materializes_added_columns(self, tmp_path):
        import pyarrow.parquet as _pq

        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.add_column("score", "float64", default=1.5)
        vt.compact()
        for f in vt.files():
            assert "score" in _pq.ParquetFile(f).schema_arrow.names
        assert vt.read_arrow().sort_by("k")["score"].to_pylist() == [1.5, 1.5]

    def test_add_column_validations(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        with pytest.raises(ValueError, match="already exists"):
            vt.add_column("v", "int64")
        with pytest.raises(ValueError, match="unsupported"):
            vt.add_column("x", "list<int64>")
        vt.add_column("s", "string", default="d")
        with pytest.raises(ValueError, match="already exists"):
            vt.add_column("s", "string")

    def test_restore_restores_pre_add_schema(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        v1 = vt.latest_version()
        vt.add_column("score", "int64", default=7)
        vt.restore(v1)
        assert vt.read_arrow().column_names == ["k", "v"]


@pytest.mark.usefixtures("ray_session")
def test_clustered_compaction_tightens_zone_maps(tmp_path, table_route):
    """compact(sort_by=key) rewrites rows clustered on the key, so the
    fresh files' footer ranges prune point lookups tightly."""
    vt = VersionedTable(str(tmp_path / "t"))
    # interleaved key ranges across two files → no pruning possible
    vt.append(t(["a", "z", "c"], [1, 26, 3]))
    vt.append(t(["b", "y", "d"], [2, 25, 4]))
    files = vt.files()
    assert set(vt.prune_files(files, "k", ["d"])) == set(files)
    vt.delete_where("k", ["c"])
    vt.compact(sort_by="k")
    assert vt.deleted_count() == 0
    got = vt.read_arrow()
    assert got["k"].to_pylist() == sorted(got["k"].to_pylist())
    assert got["k"].to_pylist() == ["a", "b", "d", "y", "z"]
    # distributed path pinned equal
    vt2 = VersionedTable(str(tmp_path / "t2"))
    vt2.append(t(["a", "z", "c"], [1, 26, 3]))
    vt2.append(t(["b", "y", "d"], [2, 25, 4]))
    vt2.delete_where("k", ["c"])
    with table_route("dataset"):
        vt2.compact(sort_by="k")
    got2 = vt2.read_arrow()
    assert got2["k"].to_pylist() == ["a", "b", "d", "y", "z"]
    assert got2["v"].to_pylist() == got["v"].to_pylist()


@pytest.mark.usefixtures("ray_session")
def test_zone_maps_int_keys_and_update_preserves_partition_layout(tmp_path, hash_layout):
    """Zone maps work on int64 keys (doc_id shape), and update_where on
    a hash-partitioned table keeps every file part-tagged so the
    merge_insert partial-rewrite fast path survives."""
    import pyarrow as pa

    from hydra_ray.sources.store import VersionedTable

    def ti(ids, vals):
        return pa.table(
            {"k": pa.array(ids, type=pa.int64()), "v": pa.array(vals, type=pa.int64())}
        )

    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(ti([1, 2, 3], [10, 20, 30]))
    vt.append(ti([100, 200], [1000, 2000]))
    files = vt.files()
    assert vt.prune_files(files, "k", [2]) == [files[0]]
    assert vt.prune_files(files, "k", [50]) == []  # in the gap between ranges
    got = vt.read_where("k", [3, 200]).take_all()
    assert sorted(r["v"] for r in got) == [30, 2000]

    # partitioned layout survives an update
    hash_layout(4, min_rows=0)
    pt = VersionedTable(str(tmp_path / "p"), partition_key="k")
    pt.overwrite(ti(list(range(40)), list(range(40))))
    assert pt._partitioned_layout(pt.files()) is not None
    pt.update_where("k", [7, 23], set_values={"v": -1})
    assert pt._partitioned_layout(pt.files()) is not None  # still all tagged
    # partial-rewrite merge still works and sees the updated values
    pt.merge_insert(ti([7, 41], [700, 4100]), key="k")
    got = {r["k"]: r["v"] for r in pt.read_arrow().to_pylist()}
    assert got[7] == 700 and got[23] == -1 and got[41] == 4100 and len(got) == 41


@pytest.mark.usefixtures("ray_session")
class TestReviewHardening:
    """Regressions from the round-4 self-review: sidecar-aware restore,
    temporal zone-map keys, heterogeneous-schema union reads,
    partition-key-rewriting updates, crash-leftover gc hygiene."""

    def test_restore_refuses_when_sidecar_gced(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.delete_where("k", ["b"])          # sidecar d1
        v_d1 = vt.latest_version()
        vt.delete_where("k", ["c"])          # union sidecar d2; d1 now stale
        vt.gc(keep_versions=1)               # removes d1
        with pytest.raises(ValueError, match="not restorable"):
            vt.restore(v_d1)
        # the latest head still reads fine
        assert vt.read_arrow()["k"].to_pylist() == ["a"]

    def test_temporal_key_zone_maps_never_prune_but_work(self, tmp_path):
        from datetime import datetime

        vt = VersionedTable(str(tmp_path / "t"))
        ts = [datetime(2024, 1, d + 1) for d in range(4)]
        vt.append(pa.table({"ts": pa.array(ts[:2], pa.timestamp("us")), "v": [1, 2]}))
        vt.append(pa.table({"ts": pa.array(ts[2:], pa.timestamp("us")), "v": [3, 4]}))
        files = vt.files()
        # temporal stats are not JSON-round-trippable: no pruning, no crash
        assert vt.prune_files(files, "ts", [ts[0]]) == files
        vt.delete_where("ts", [ts[1]])
        assert sorted(vt.read_arrow()["v"].to_pylist()) == [1, 3, 4]
        got = vt.read_where_arrow("ts", [ts[2]])
        assert got["v"].to_pylist() == [3]

    def test_heterogeneous_appends_union_not_dropped(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.append(
            pa.table({"k": ["c"], "v": pa.array([3], pa.int64()), "extra": ["x"]})
        )
        vt.delete_where("k", ["a"])  # forces the merged per-file read path
        got = vt.read_arrow().sort_by("k")
        assert got.column_names == ["k", "v", "extra"]
        assert got["extra"].to_pylist() == [None, "x"]
        rows = sorted(vt.read().take_all(), key=lambda r: r["k"])
        assert [r["extra"] for r in rows] == [None, "x"]

    def test_heterogeneous_read_canonical_in_every_block(self, tmp_path):
        """Plain read() (no deletes/adds/eq) over heterogeneous files must
        emit the canonical layout in EVERY block — a downstream
        map_batches touching the newer column would otherwise crash on
        blocks from older files (ray read_parquet hands each file's own
        schema through)."""
        vt = VersionedTable(str(tmp_path / "h"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.append(
            pa.table({"k": ["c"], "v": pa.array([3], pa.int64()), "extra": ["x"]})
        )

        def touch_extra(tb: pa.Table) -> pa.Table:
            assert tb.column_names == ["k", "v", "extra"]  # canonical order
            return tb.select(["k", "extra"])

        rows = sorted(
            vt.read().map_batches(touch_extra, batch_format="pyarrow").take_all(),
            key=lambda r: r["k"],
        )
        assert [r["extra"] for r in rows] == [None, None, "x"]
        # column projection still honored on the merged path
        got = sorted(vt.read(columns=["extra", "k"]).take_all(), key=lambda r: r["k"])
        assert [list(r.keys()) for r in got] == [["extra", "k"]] * 3

    def test_update_rewriting_partition_key_stays_correct(self, tmp_path, hash_layout):
        def ti(ids, vals):
            return pa.table(
                {"k": pa.array(ids, pa.int64()), "v": pa.array(vals, pa.int64())}
            )

        hash_layout(4, min_rows=0)
        pt = VersionedTable(str(tmp_path / "p"), partition_key="k")
        pt.overwrite(ti(list(range(20)), list(range(20))))
        pt.update_where("v", [7], set_values={"k": 99})
        # rewriting the partition key must drop the part tags (rows would
        # sit in the wrong hash bucket) → fast-path layout disabled
        assert pt._partitioned_layout(pt.files()) is None
        got = {r["k"]: r["v"] for r in pt.read_arrow().to_pylist()}
        assert got[99] == 7 and 7 not in got
        # last-wins upsert of the moved key must not duplicate it
        pt.merge_insert(ti([99], [990]), key="k")
        ks = pt.read_arrow()["k"].to_pylist()
        assert ks.count(99) == 1
        assert {r["k"]: r["v"] for r in pt.read_arrow().to_pylist()}[99] == 990

    def test_gc_survives_crashed_stats_tmp(self, tmp_path):
        import os as _os

        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        vt.prune_files(vt.files(), "k", ["a"])  # create _stats
        stats_dir = tmp_path / "t" / "_stats"
        (stats_dir / "k.json.tmp-dead").write_text("{trunc")
        vt.gc(keep_versions=1)  # must not raise
        assert not _os.path.exists(stats_dir / "k.json.tmp-dead")

    def test_read_where_arrow_matches_dataset_path(self, tmp_path, table_route):
        """read_where_arrow (read_arrow's per-file loader + filter) equals
        read_where, a read_arrow + filter, and lookup on both table
        routes, over every manifest shape the loader handles: plain
        files, position deletes, equality deletes, added columns and a
        heterogeneous append."""
        import pyarrow.compute as pc

        def deletes(vt):
            vt.delete_where("k", ["b"])

        def eq_deletes(vt):
            vt.delete_where("k", ["c"], defer=True)

        def added(vt):
            vt.add_column("score", "int64", default=5)

        def heterogeneous(vt):
            vt.append(pa.table({"k": ["y2"], "v": pa.array([9], pa.int64()), "e": ["x"]}))

        shapes = {
            "plain": [],
            "deletes": [deletes],
            "eq_deletes": [eq_deletes],
            "added": [added],
            "heterogeneous": [heterogeneous],
            "deletes_added": [deletes, added],
            "all": [deletes, eq_deletes, added, heterogeneous],
        }
        keys = ["a", "b", "c", "y", "y2", "zz"]

        def rows(tbl):
            return sorted(tbl.to_pylist(), key=lambda r: r["k"])

        for name, steps in shapes.items():
            vt = VersionedTable(str(tmp_path / name))
            vt.append(t(["a", "b", "c"], [1, 2, 3]))
            vt.append(t(["x", "y"], [7, 8]))
            for step in steps:
                step(vt)
            want = sorted(vt.read_where("k", keys).take_all(), key=lambda r: r["k"])
            got = rows(vt.read_where_arrow("k", keys))
            assert got == want, name
            full = vt.read_arrow()
            assert rows(full.filter(pc.is_in(full["k"], pa.array(keys)))) == want, name
            for route in ("driver", "dataset"):
                with table_route(route):
                    assert rows(vt.lookup("k", keys)) == want, (name, route)
            # column subset without the key
            sub = vt.read_where_arrow("k", ["x"], columns=["v"])
            assert sub.column_names == ["v"] and sub["v"].to_pylist() == [7], name
        # the deletes + added shape: b deleted, the added default filled
        vt = VersionedTable(str(tmp_path / "deletes_added"))
        got = rows(vt.read_where_arrow("k", ["a", "y", "zz"]))
        assert [r["k"] for r in got] == ["a", "y"]
        assert [r["score"] for r in got] == [5, 5]


@pytest.mark.usefixtures("ray_session")
def test_store_churn_soak(tmp_path):
    """60 mixed append/update/delete cycles with periodic compact+gc:
    the table must always equal a driver-side dict oracle, and gc must
    keep disk bounded (no file leaks across compactions)."""
    import os as _os

    import numpy as np

    rng = np.random.default_rng(7)
    vt = VersionedTable(str(tmp_path / "t"))
    expected: dict[str, int] = {}
    next_id = 0

    def check():
        got = {r["k"]: r["v"] for r in vt.read_arrow().to_pylist()}
        assert got == expected
        assert vt.count() == len(expected)

    for cycle in range(60):
        op = cycle % 3
        if op == 0 or not expected:  # append 3 fresh rows
            ks = [f"r{next_id + i}" for i in range(3)]
            next_id += 3
            vs = [int(x) for x in rng.integers(0, 1000, 3)]
            vt.append(t(ks, vs))
            expected.update(zip(ks, vs))
        elif op == 1:  # update one existing row
            k = sorted(expected)[int(rng.integers(len(expected)))]
            nv = int(rng.integers(0, 1000))
            vt.update_where("k", [k], set_values={"v": nv})
            expected[k] = nv
        else:  # delete one existing row
            k = sorted(expected)[int(rng.integers(len(expected)))]
            vt.delete_where("k", [k])
            del expected[k]
        if cycle % 10 == 9:
            vt.compact(sort_by="k")
            vt.gc(keep_versions=1)
            vt.prune_manifests(keep=4)
            check()
    check()
    # disk stays bounded: after a final compact+gc only the live files
    # (plus their stats caches) remain
    vt.compact()
    vt.gc(keep_versions=1)
    n_parquet = sum(
        len([f for f in fs if f.endswith(".parquet")])
        for _, _, fs in _os.walk(tmp_path / "t")
    )
    assert n_parquet <= 4  # live data only — no leaked parts or sidecars
    check()


# ---------------------------------------------------------------------------
# property-based: random op sequences vs a dict oracle (hypothesis)
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["append", "update", "delete", "eq_delete", "add_col", "compact", "restore"]
        ),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1,
    max_size=12,
)


@pytest.mark.usefixtures("ray_session")
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=_OPS)
def test_store_random_op_sequences_match_dict_oracle(tmp_path_factory, ops):
    """Any sequence of append/update/delete/add_column/compact/restore
    leaves the table equal to a plain-dict model; restore rewinds the
    model to the chosen snapshot."""
    tmp_path = tmp_path_factory.mktemp("vt")
    vt = VersionedTable(str(tmp_path / "t"))
    model: dict[str, dict] = {}
    cols: dict[str, int] = {}  # added column -> default
    snapshots: dict[int, tuple[dict, dict]] = {}
    next_id = 0

    def rows_for(keys, seed):
        out = {"k": list(keys), "v": pa.array([seed % 997] * len(keys), pa.int64())}
        for c, d in cols.items():
            out[c] = pa.array([seed % 53] * len(keys), pa.int64())
        return pa.table(out)

    for op, seed in ops:
        if op == "append" or not model:
            keys = [f"r{next_id + i}" for i in range(2)]
            next_id += 2
            vt.append(rows_for(keys, seed))
            for k in keys:
                model[k] = {"v": seed % 997, **{c: seed % 53 for c in cols}}
        elif op == "update":
            k = sorted(model)[seed % len(model)]
            vt.update_where("k", [k], set_values={"v": seed % 101})
            model[k]["v"] = seed % 101
        elif op == "delete":
            k = sorted(model)[seed % len(model)]
            vt.delete_where("k", [k])
            del model[k]
        elif op == "eq_delete":
            k = sorted(model)[seed % len(model)]
            vt.delete_where("k", [k], defer=True)  # O(1) equality delete
            del model[k]
        elif op == "add_col":
            name = f"c{len(cols)}"
            vt.add_column(name, "int64", default=seed % 7)
            cols[name] = seed % 7
            for r in model.values():
                r[name] = seed % 7
        elif op == "compact":
            vt.compact(sort_by="k")
        elif op == "restore":
            if snapshots:
                v = sorted(snapshots)[seed % len(snapshots)]
                vt.restore(v)
                m, c = snapshots[v]
                model = {k: dict(r) for k, r in m.items()}
                cols = dict(c)
        snapshots[vt.latest_version()] = (
            {k: dict(r) for k, r in model.items()},
            dict(cols),
        )

    got = {
        r["k"]: {c: r[c] for c in r if c != "k"}
        for r in vt.read_arrow().to_pylist()
    }
    want = {k: {"v": r["v"], **{c: r.get(c) for c in cols}} for k, r in model.items()}
    assert got == want
    assert vt.count() == len(model)


@pytest.mark.usefixtures("ray_session")
def test_schema_reflects_union_and_evolution(tmp_path):
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(t(["a"], [1]))
    v1 = vt.latest_version()
    assert vt.schema().names == ["k", "v"]
    vt.append(pa.table({"k": ["b"], "v": pa.array([2], pa.int64()), "extra": [1.5]}))
    vt.add_column("score", "int64", default=0)
    sch = vt.schema()
    assert sch.names == ["k", "v", "extra", "score"]
    assert sch.field("extra").type == pa.float64()
    assert sch.field("score").type == pa.int64()
    # matches what reads actually emit
    assert vt.read_arrow().column_names == sch.names
    # time travel
    assert vt.schema(version=v1).names == ["k", "v"]


@pytest.mark.usefixtures("ray_session")
class TestEqualityDeletes:
    """Iceberg-style deferred equality deletes: an O(1) manifest commit
    (no file probed), applied by every reader to files committed
    strictly BEFORE the entry (per-file sequence numbers), so later
    upserts of the same key stay visible; compaction resolves them."""

    def test_o1_commit_and_all_read_paths(self, tmp_path):
        import os as _os

        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.append(t(["d"], [4]))
        files_before = list(vt.files())
        vt.delete_where("k", ["b", "d"], defer=True)
        # nothing probed or written besides the manifest
        assert vt.files() == files_before
        assert vt.deleted_count() == 0  # no position sidecars
        assert not _os.path.isdir(tmp_path / "t" / "deletes")
        assert len(vt.pending_eq_deletes()) == 1
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "c"]
        assert sorted(r["k"] for r in vt.read().take_all()) == ["a", "c"]
        assert vt.count() == 2  # exact under pending entries
        assert vt.read_where_arrow("k", ["b", "c"])["k"].to_pylist() == ["c"]
        assert [r["k"] for r in vt.read_where("k", ["b", "c"]).take_all()] == ["c"]

    def test_sequence_rule_later_rows_survive(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.delete_where("k", ["b"], defer=True)
        vt.append(t(["b"], [20]))  # newer file: entry must not touch it
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b"]
        assert got["v"].to_pylist() == [1, 20]
        assert vt.count() == 2

    def test_upsert_after_eq_delete_visible(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.overwrite(t(["a", "b"], [1, 2]))
        vt.delete_where("k", ["a"], defer=True)
        vt.merge_insert(t(["a"], [100]), key="k")
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["a", "b"]
        assert got["v"].to_pylist() == [100, 2]

    def test_partitioned_upsert_keeps_entries_for_untouched_files(self, tmp_path, hash_layout):
        def ti(ids, vals):
            return pa.table(
                {"k": pa.array(ids, pa.int64()), "v": pa.array(vals, pa.int64())}
            )

        hash_layout(4, min_rows=0)
        pt = VersionedTable(str(tmp_path / "p"), partition_key="k")
        pt.overwrite(ti(list(range(20)), list(range(20))))
        pt.delete_where("k", [3, 7], defer=True)
        assert pt.count() == 18
        pt.merge_insert(ti([7], [700]), key="k")  # re-insert one deleted key
        got = {r["k"]: r["v"] for r in pt.read_arrow().to_pylist()}
        assert 3 not in got and got[7] == 700 and len(got) == 19

    def test_update_never_resurrects_eq_deleted_rows(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.delete_where("k", ["a"], defer=True)
        vt.update_where("k", ["a", "b"], set_values={"v": 9})
        got = vt.read_arrow().sort_by("k")
        assert got["k"].to_pylist() == ["b"] and got["v"].to_pylist() == [9]

    def test_compact_resolves_pending_entries(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b", "c"], [1, 2, 3]))
        vt.delete_where("k", ["b"])            # position delete
        vt.delete_where("k", ["c"], defer=True)  # equality delete
        assert vt.count() == 1
        vt.compact()
        assert vt.pending_eq_deletes() == [] and vt.deleted_count() == 0
        assert vt.read_arrow()["k"].to_pylist() == ["a"]
        assert vt.count() == 1

    def test_time_travel_and_restore_around_eq_delete(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        v1 = vt.latest_version()
        vt.delete_where("k", ["a"], defer=True)
        assert vt.read_arrow(version=v1).sort_by("k")["k"].to_pylist() == ["a", "b"]
        assert vt.count(version=v1) == 2
        vt.restore(v1)
        assert vt.read_arrow().sort_by("k")["k"].to_pylist() == ["a", "b"]
        assert vt.pending_eq_deletes() == []

    def test_eq_delete_on_added_column(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a", "b"], [1, 2]))
        vt.add_column("tag", "string", default="old")
        vt.delete_where("tag", ["old"], defer=True)
        vt.append(
            pa.table({"k": ["c"], "v": pa.array([3], pa.int64()), "tag": ["old"]})
        )  # newer file: survives despite matching value
        got = vt.read_arrow()
        assert got["k"].to_pylist() == ["c"]
        assert vt.count() == 1

    def test_validation(self, tmp_path):
        vt = VersionedTable(str(tmp_path / "t"))
        vt.append(t(["a"], [1]))
        with pytest.raises(ValueError, match="requires values"):
            vt.delete_where("k", predicate=lambda tb: None, defer=True)
        with pytest.raises(ValueError, match="int/float/str"):
            vt.delete_where("k", [("tuple",)], defer=True)


@pytest.mark.usefixtures("ray_session")
def test_read_appended_changelog(tmp_path):
    """read_appended(since): only files committed after the cursor are
    read (O(new files)), current deletes applied."""
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(t(["a", "b"], [1, 2]))
    cursor = vt.latest_version()
    assert vt.read_appended(cursor).take_all() == []  # nothing new yet
    vt.append(t(["c", "d"], [3, 4]))
    vt.append(t(["e"], [5]))
    got = sorted(r["k"] for r in vt.read_appended(cursor).take_all())
    assert got == ["c", "d", "e"]
    # deletes that land after the cursor apply to the changelog too
    vt.delete_where("k", ["d"])
    vt.delete_where("k", ["e"], defer=True)
    got = sorted(r["k"] for r in vt.read_appended(cursor).take_all())
    assert got == ["c"]
    # full reads unaffected
    assert sorted(vt.read_arrow()["k"].to_pylist()) == ["a", "b", "c"]
    # schema evolution visible in the changelog
    vt.add_column("score", "int64", default=9)
    vt.append(t(["f"], [6]))
    rows = sorted(vt.read_appended(cursor).take_all(), key=lambda r: r["k"])
    assert [r["k"] for r in rows] == ["c", "f"]
    assert [r["score"] for r in rows] == [9, 9]


@pytest.mark.usefixtures("ray_session")
def test_tags_pin_versions_against_gc(tmp_path):
    """Lance-style tags: a named ref keeps its version readable across
    later commits, gc and manifest pruning; deleting the tag frees it."""
    vt = VersionedTable(str(tmp_path / "t"))
    vt.overwrite(t(["a"], [1]))
    v_pub = vt.tag("published")
    assert vt.version_of("published") == v_pub == vt.latest_version()
    for i in range(6):
        vt.overwrite(t([f"x{i}"], [i]))
    vt.gc(keep_versions=1)
    vt.prune_manifests(keep=2)
    # tagged version still fully readable
    assert vt.read_arrow(version=vt.version_of("published"))["k"].to_pylist() == ["a"]
    assert vt.tags() == {"published": v_pub}
    # restore from the tag works (files retained)
    vt.restore(vt.version_of("published"))
    assert vt.read_arrow()["k"].to_pylist() == ["a"]
    # deleting the tag frees the old version for gc
    vt.delete_tag("published")
    vt.overwrite(t(["z"], [9]))
    vt.gc(keep_versions=1)
    with pytest.raises(ValueError, match="not restorable"):
        vt.restore(v_pub)
    with pytest.raises(KeyError):
        vt.version_of("published")
    # unknown version refuses
    with pytest.raises(ValueError):
        vt.tag("nope", version=99999)


@pytest.mark.usefixtures("ray_session")
def test_eq_delete_value_type_validated_at_commit(tmp_path):
    """A mistyped deferred delete must fail AT DELETE TIME, not poison
    every later read."""
    def ti(ids, vals):
        return pa.table(
            {"k": pa.array(ids, pa.int64()), "v": pa.array(vals, pa.int64())}
        )

    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(ti([1, 2], [10, 20]))
    with pytest.raises(ValueError, match="do not fit"):
        vt.delete_where("k", [2.5], defer=True)  # lossy float → int64
    with pytest.raises(KeyError, match="unknown column"):
        vt.delete_where("nope", [1], defer=True)
    # int-typed value against an int column is fine; whole-float too
    vt.delete_where("k", [2.0], defer=True)
    assert vt.read_arrow()["k"].to_pylist() == [1]
    # temporal keys are eager-only
    from datetime import datetime

    vt2 = VersionedTable(str(tmp_path / "t2"))
    vt2.append(pa.table({"ts": pa.array([datetime(2024, 1, 1)], pa.timestamp("us")), "v": [1]}))
    with pytest.raises(ValueError, match="eager"):
        vt2.delete_where("ts", ["2024-01-01"], defer=True)


@pytest.mark.usefixtures("ray_session")
def test_read_appended_legacy_manifest_over_delivers(tmp_path):
    """A manifest written before file_versions existed must make
    read_appended return ALL rows (changelogs over-deliver, never
    silently skip)."""
    import json as _json
    import os as _os

    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(t(["a", "b"], [1, 2]))
    # simulate a pre-feature manifest
    mp = vt._manifest_path(vt.latest_version())
    m = _json.loads(open(mp).read())
    m.pop("file_versions", None)
    with open(mp, "w") as fh:
        _json.dump(m, fh)
    got = sorted(r["k"] for r in vt.read_appended(0).take_all())
    assert got == ["a", "b"]


@pytest.mark.usefixtures("ray_session")
def test_eq_deletes_survive_fresh_handle(tmp_path):
    """Pending equality deletes are manifest state: a fresh handle
    (crash/resume) applies them identically and compaction from the
    new handle resolves them."""
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(t(["a", "b"], [1, 2]))
    vt.delete_where("k", ["a"], defer=True)
    vt2 = VersionedTable(str(tmp_path / "t"))
    assert vt2.read_arrow()["k"].to_pylist() == ["b"]
    assert vt2.count() == 1
    assert len(vt2.pending_eq_deletes()) == 1
    vt2.compact()
    assert vt2.pending_eq_deletes() == []
    assert vt2.read_arrow()["k"].to_pylist() == ["b"]


@pytest.mark.usefixtures("ray_session")
def test_read_appended_schema_stable_across_heterogeneous_files(tmp_path):
    """The changelog's schema is the TABLE's canonical schema even when
    the new files lack a union column older files carry."""
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(
        pa.table({"k": ["a"], "v": pa.array([1], pa.int64()), "extra": ["x"]})
    )
    cursor = vt.latest_version()
    vt.append(t(["b"], [2]))  # no 'extra'
    rows = vt.read_appended(cursor).take_all()
    assert rows == [{"k": "b", "v": 2, "extra": None}]
    # empty-delta path agrees with the non-empty one
    empty = vt.read_appended(vt.latest_version())
    assert empty.take_all() == []
    assert set(empty.schema().names) == {"k", "v", "extra"}


@pytest.mark.usefixtures("ray_session")
def test_eager_delete_update_with_absent_key_column(tmp_path):
    """ADVICE r4: eager delete_where/update_where (values path) on a
    union column some files physically lack must treat the absent key
    as NULL = no match (like _apply_eq), not crash in the Ray task."""
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(pa.table({"k": ["a", "b"], "extra": [1, 2]}))
    vt.append(pa.table({"k": ["c", "d"]}))  # this file lacks "extra"
    vt.delete_where("extra", [2])
    assert sorted(vt.read_arrow()["k"].to_pylist()) == ["a", "c", "d"]
    vt.update_where("extra", [1], set_values={"k": "z"})
    assert sorted(vt.read_arrow()["k"].to_pylist()) == ["c", "d", "z"]


@pytest.mark.usefixtures("ray_session")
def test_string_zone_maps_serving_keys(tmp_path):
    """VERDICT r4 #7: lexicographic string zone maps on the serving
    path's actual key types (url_md5/resource_id-shaped 32-char hex) —
    point lookups prune files, pruned reads equal unpruned ones, and
    long (>64B) string keys stay containment-safe."""
    import hashlib

    import pyarrow.compute as pc

    vt = VersionedTable(str(tmp_path / "t"))
    # three files with disjoint sorted md5-key ranges
    keys = sorted(hashlib.md5(str(i).encode()).hexdigest() for i in range(90))
    for part in range(3):
        chunk = keys[part * 30 : (part + 1) * 30]
        vt.append(pa.table({"url_md5": chunk, "v": list(range(len(chunk)))}))
    files = vt.files()
    probe = keys[5]  # inside file 0's range only
    pruned = vt.prune_files(files, "url_md5", [probe])
    assert len(pruned) == 1
    # path equality: pruned point read == full-scan filter
    got = vt.read_where_arrow("url_md5", [probe])
    full = vt.read_arrow()
    want = full.filter(pc.equal(full["url_md5"], probe))
    assert got.sort_by("url_md5").to_pylist() == want.sort_by("url_md5").to_pylist()
    # a key in the gap between file ranges prunes everything
    gap_probe = keys[29] + "0"  # > file0 max, < file1 min
    assert vt.prune_files(files, "url_md5", [gap_probe]) == []
    assert vt.read_where_arrow("url_md5", [gap_probe]).num_rows == 0

    # long string keys (beyond any footer truncation length): pruning
    # must stay containment-correct or disable itself — never drop rows
    vt2 = VersionedTable(str(tmp_path / "t2"))
    long_keys = [c * 200 for c in "abc"]
    vt2.append(pa.table({"k": long_keys[:2]}))
    vt2.append(pa.table({"k": long_keys[2:]}))
    for k in long_keys:
        got = vt2.read_where_arrow("k", [k])
        assert got["k"].to_pylist() == [k]


@pytest.mark.usefixtures("ray_session")
def test_register_replace_tag_absorbs_shifted_block_boundaries(tmp_path):
    """Crash-rerun idempotency must be boundary-oblivious: a rerun whose
    dynamic block splitting cuts the same deterministic row set at
    DIFFERENT boundaries (ray 2.49 re-cuts map outputs) supersedes the
    crashed attempt's files instead of basename-matching them — the
    skip-by-basename scheme duplicates rows that straddle a boundary
    shift (old merged part kept, new split part committed)."""
    import os

    import pyarrow.parquet as pq

    def write(d, name, ids):
        p = os.path.join(d, f"part-{name}.parquet")
        pq.write_table(pa.table({"id": pa.array(ids, type=pa.int64())}), p)
        return p

    vt = VersionedTable(str(tmp_path / "t"))
    # a completed earlier iteration + an untagged (on-demand) part:
    # both must survive every later replace
    d_prev = vt.new_txn_dir(tag="iter2")
    vt.register_files([write(d_prev, "0000", [1, 2])], replace_tag="iter2")
    d_odd = vt.new_txn_dir()
    vt.register_files([write(d_odd, "odd", [99])], skip_existing_basenames=True)

    # crashed attempt of iter3: ONE merged block covering ids 5..9,
    # content-named after its min id
    d1 = vt.new_txn_dir(tag="iter3")
    vt.register_files([write(d1, "0005", [5, 6, 7, 8, 9])], replace_tag="iter3")

    # rerun of iter3: same rows, split into TWO blocks — the first
    # shares the crashed part's basename (same min id), the second is new
    d2 = vt.new_txn_dir(tag="iter3")
    f_a = write(d2, "0005", [5, 6, 7])
    f_b = write(d2, "0008", [8, 9])
    vt.register_files([f_a, f_b], replace_tag="iter3")

    got = sorted(vt.read_arrow()["id"].to_pylist())
    assert got == [1, 2, 5, 6, 7, 8, 9, 99]  # no dupes, no loss

    # inverse shift: a second rerun merges back into one block — the
    # split attempt's extra part must not linger
    d3 = vt.new_txn_dir(tag="iter3")
    vt.register_files([write(d3, "0005", [5, 6, 7, 8, 9])], replace_tag="iter3")
    assert sorted(vt.read_arrow()["id"].to_pylist()) == [1, 2, 5, 6, 7, 8, 9, 99]

    # the superseded version is still consistent for time travel
    v_crashed = 3  # iter2 + odd + crashed iter3 commits
    assert sorted(vt.read_arrow(version=v_crashed)["id"].to_pylist()) == [
        1, 2, 5, 6, 7, 8, 9, 99,
    ]


@pytest.mark.usefixtures("ray_session")
def test_read_where_schema_stable_under_pruning(tmp_path):
    """Zone-map pruning must never change the output schema: a column
    carried only by pruned-away heterogeneous appends still appears
    (null-filled), and projecting it never crashes."""
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(pa.table({"k": ["a", "b"], "x": [1, 2]}))
    vt.append(pa.table({"k": ["y", "z"]}))  # no x — heterogeneous
    # 'a' lives only in file 1; pruning for 'z' drops file 1 entirely
    got = vt.read_where("k", ["z"], columns=["k", "x"]).take_all()
    assert {r["k"]: r["x"] for r in got} == {"z": None}
    full = vt.read_where("k", ["z"]).take_all()
    assert set(full[0].keys()) == {"k", "x"}  # union layout, not subset


@pytest.mark.usefixtures("ray_session")
def test_add_column_rejects_name_in_any_file(tmp_path):
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(pa.table({"k": ["a"]}))
    vt.append(pa.table({"k": ["b"], "y": ["s"]}))  # y only in file 2
    with pytest.raises(ValueError, match="already exists"):
        vt.add_column("y", "int64", default=0)


@pytest.mark.usefixtures("ray_session")
def test_merge_insert_large_path_streams_and_matches(tmp_path, table_route):
    """Above the store's DRIVER_MAX_ROWS the upsert must not pull the
    table to the driver; the Dataset path's result is pinned equal to
    the driver path's. Both keep the stored schema, also when the batch
    replaces every stored row with its columns reordered and a narrower
    value type."""
    base = pa.table({"k": [f"k{i}" for i in range(40)], "v": list(range(40))})
    upd = pa.table({"k": ["k3", "k7", "new"], "v": [300, 700, 999]})
    replace_all = pa.table(
        {"v": pa.array(range(100, 140), type=pa.int32()), "k": base["k"]}
    )
    got = []
    for i, batch in enumerate((upd, replace_all)):
        out = {}
        for route in ("driver", "dataset"):
            vt = VersionedTable(str(tmp_path / f"{route}{i}"))
            vt.overwrite(base)
            with table_route(route):
                vt.merge_insert(batch, key="k")
            assert vt.schema().equals(base.schema)
            out[route] = vt.read_arrow().sort_by("k")
        assert out["driver"].equals(out["dataset"])
        assert out["driver"].schema.equals(base.schema)
        got.append({r["k"]: r["v"] for r in out["dataset"].to_pylist()})
    assert got[0]["k3"] == 300 and got[0]["new"] == 999 and len(got[0]) == 41
    assert got[1] == {f"k{i}": 100 + i for i in range(40)}


@pytest.mark.usefixtures("ray_session")
def test_merge_insert_null_key_raises(tmp_path):
    vt = VersionedTable(str(tmp_path / "t"))
    vt.overwrite(t(["a"], [1]))
    bad = pa.table({"k": pa.array(["b", None], type=pa.string()), "v": [2, 3]})
    with pytest.raises(ValueError, match="null values in key"):
        vt.merge_insert(bad, key="k")


@pytest.mark.usefixtures("ray_session")
def test_partition_hash_int_width_insensitive(tmp_path, hash_layout):
    """The documented dtype-WIDTH trap: an int32-keyed upsert against an
    int64-keyed partitioned layout must route each key to the partition
    holding its stored row, or the upsert leaves two live rows."""
    import numpy as np

    hash_layout(8)
    vt = VersionedTable(str(tmp_path / "t"), partition_key="k")
    base = pa.table({"k": pa.array(range(64), type=pa.int64()),
                     "v": pa.array([0] * 64, type=pa.int64())})
    vt.overwrite(base)
    upd = pa.table({"k": pa.array([5, 17, 42], type=pa.int32()),
                    "v": pa.array([1, 1, 1], type=pa.int64())})
    vt.merge_insert(upd, key="k")
    got = vt.read_arrow()
    ks = got["k"].to_pylist()
    assert len(ks) == 64 == len(set(ks))  # no duplicated keys
    by_k = {r["k"]: r["v"] for r in got.to_pylist()}
    assert by_k[5] == by_k[17] == by_k[42] == 1


@pytest.mark.usefixtures("ray_session")
def test_concurrent_commit_detected_not_clobbered(tmp_path):
    from hydra_ray.sources.store import ConcurrentCommitError

    h1 = VersionedTable(str(tmp_path / "t"))
    h1.append(t(["a"], [1]))
    files = h1.files()
    # two writers race from the same parent: the second commit must
    # surface, never silently overwrite v2
    h1._commit(files, {"writer": 1}, parent=1)
    with pytest.raises(ConcurrentCommitError):
        h1._commit(files, {"writer": 2}, parent=1)
    assert h1.meta()["writer"] == 1  # the first commit survived intact


@pytest.mark.usefixtures("ray_session")
def test_register_files_missing_part_fails_loud(tmp_path):
    vt = VersionedTable(str(tmp_path / "t"))
    d = vt.new_txn_dir()
    import os

    ghost = os.path.join(d, "part-dead.parquet")
    with pytest.raises(FileNotFoundError, match="do not exist"):
        vt.register_files([ghost])


@pytest.mark.usefixtures("ray_session")
def test_meta_cursor_survives_metaless_commits(tmp_path):
    vt = VersionedTable(str(tmp_path / "t"))
    vt.append(t(["a"], [1]), meta={"iteration": 7})
    vt.append(t(["b"], [2]))  # no meta — must not wipe the cursor
    assert vt.meta()["iteration"] == 7
    d = vt.new_txn_dir()
    vt.register_files([])  # empty metaless commit, same rule
    assert vt.meta()["iteration"] == 7
    vt.append(t(["c"], [3]), meta={})  # explicit {} clears
    assert vt.meta() == {}
