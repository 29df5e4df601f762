"""Versioned Parquet tables (Lance-style semantics on plain Parquet).

The north rule calls for Lance tables; the ``lance`` wheel is not
available in this environment, so this module provides the same
*semantics* on a directory of Parquet files with JSON manifests:

    table_dir/
      _versions/v00001.json   {"version":1,"parent":0,"files":[...],"meta":{}}
      data/txn-<id>/part-*.parquet

- every ``append``/``overwrite`` is a new immutable version (atomic
  manifest rename), so readers never see partial writes and a crashed
  run resumes from the last committed version — this is the
  per-partition checkpoint mechanism; ``lineage()`` exposes the
  version/parent/meta ancestry, ``restore(version)`` rolls back as a
  new commit, and old versions stay readable (time travel) until
  ``gc()`` reclaims them;
- ``read()`` returns a lazy ``ray.data.Dataset`` over the manifest's
  files (never materializes);
- ``fits_driver()`` is the one table-size rule (``DRIVER_MAX_ROWS``):
  ``lookup``, ``filter_rows``, ``merge_insert`` and ``compact`` work on
  the driver at or below it and as Ray Datasets above it;
- ``merge_insert`` is the one upsert, the Lance ``merge_insert`` /
  reference ``ON CONFLICT DO UPDATE`` equivalent
  (udata_hydra/db/resource.py:64-79): last-wins by key in the columns
  the update carries, the stored values kept in the columns it lacks;
- a keyed table (``partition_key``) that a driver write finds at
  ``PARTITION_MIN_ROWS`` rows or more is stored as ``N_PARTS``
  key-hash partition files, and an upsert rewrites only the partitions
  its keys hash to; the write that picks this layout records it in the
  manifest, and every later write and handle follows the record;
- ``delete_where`` implements Lance deletion-file semantics: row
  deletes are POSITION vectors in per-data-file sidecar files, applied
  merge-on-read by every reader — no data file is rewritten at delete
  time, a delete at 10^10-row scale costs O(matching files' key
  columns) read + O(deleted positions) write; ``update_where`` is the
  merge-on-read UPDATE (deletion vector + replacement parts appended
  in ONE commit, written inside Ray tasks); ``compact()`` materializes
  the churn away (``sort_by=`` clusters the rewrite);
- per-file footer min/max zone maps (cached under ``_stats/``) let
  ``delete_where``/``update_where``/``read_where``/``read_where_arrow``
  prune to the files whose key range can match — the Lance
  scalar-index analog;
- ``add_column`` records schema evolution in the manifest: readers
  default-fill the column merge-on-read for files predating the add,
  time travel and restore keep the pre-add schema;
- ``delete_where(defer=True)`` is an Iceberg-style EQUALITY delete:
  an O(1) manifest entry applied by readers only to files committed
  strictly before it (per-file commit versions = sequence numbers), so
  later upserts of the same key stay visible; ``count()`` stays exact;
- ``read_appended(since_version)`` reads the append-only changelog —
  O(new files) at any table size, table-canonical schema;
- ``tag(name)`` pins a version as a named ref: ``gc`` and
  ``prune_manifests`` retain it until ``delete_tag``.

Swapping the physical layer for real Lance on a cluster is a local
change confined to this module.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Any

import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd


# the one table-size rule (``VersionedTable.fits_driver``): a table of
# at most this many live rows is read and merged on the driver, with no
# Ray execution; above it, as a Ray Dataset
DRIVER_MAX_ROWS = 2_000_000

# the layout a driver write picks for a keyed table of at least
# PARTITION_MIN_ROWS rows: N_PARTS files, one per key-hash partition.
# The manifest records the pick; later writes follow the record, so
# changing these constants only affects tables that have none yet.
N_PARTS = 16
PARTITION_MIN_ROWS = 50_000


class ConcurrentCommitError(RuntimeError):
    """Two writers raced to commit the same version number: the second
    link of v<N>.json fails instead of clobbering the first writer's
    manifest (which would silently drop its files from lineage)."""


class VersionedTable:
    def __init__(self, path: str, partition_key: str | None = None):
        """``partition_key`` names the column to hash-partition on: the
        first driver write of at least ``PARTITION_MIN_ROWS`` rows
        stores the table as ``N_PARTS`` key-hash part files and records
        that layout in the manifest. From then on ``merge_insert``
        rewrites only the partitions its keys hash to, and untouched
        part files are re-referenced by the new manifest, so the write
        I/O of an upsert is O(touched partitions), not O(table). Every
        handle on the path follows the recorded layout, whatever its
        own ``partition_key``."""
        self.path = path
        self.partition_key = partition_key
        self.versions_dir = os.path.join(path, "_versions")
        self.data_dir = os.path.join(path, "data")
        os.makedirs(self.versions_dir, exist_ok=True)
        os.makedirs(self.data_dir, exist_ok=True)
        # a version's row count is immutable — memoize per version so
        # serving-path threshold checks don't re-open every footer
        self._count_cache: dict[int, int] = {}
        # in-memory copies of the _stats/ per-file caches (see _stats_cache)
        self._stats_memo: dict[str, dict] = {}

    # -- version bookkeeping ---------------------------------------------
    def latest_version(self) -> int:
        # parse the full stem (zero-padding is only for sort-friendly
        # listings): v100000.json must not truncate to 10000
        versions = [
            int(f[1:].split(".")[0]) for f in os.listdir(self.versions_dir) if f.endswith(".json")
        ]
        return max(versions, default=0)

    def lineage(self) -> "pa.Table":
        """The table's version lineage as rows (version, parent,
        n_files, meta JSON) — the north rule's per-partition lineage
        surface: every committed version records its parent and carried
        metadata (frontier cursor, iteration), so a resume point's full
        ancestry is queryable without reading any data files."""
        import json as _json

        rows = []
        for f in sorted(os.listdir(self.versions_dir)):
            if not f.endswith(".json"):
                continue
            with open(os.path.join(self.versions_dir, f)) as fh:
                m = _json.load(fh)
            rows.append(
                (
                    int(m["version"]),
                    -1 if m.get("parent") is None else int(m["parent"]),
                    len(m.get("files", [])),
                    _json.dumps(m.get("meta", {}), sort_keys=True),
                )
            )
        rows.sort()
        return pa.table(
            {
                "version": pa.array([r[0] for r in rows], pa.int64()),
                "parent": pa.array([r[1] for r in rows], pa.int64()),
                "n_files": pa.array([r[2] for r in rows], pa.int64()),
                "meta": pa.array([r[3] for r in rows], pa.string()),
            }
        )

    def _manifest_path(self, version: int) -> str:
        return os.path.join(self.versions_dir, f"v{version:05d}.json")

    def _load_manifest(self, version: int | None = None) -> dict:
        v = self.latest_version() if version is None else version
        if v == 0:
            return {"version": 0, "parent": None, "files": [], "meta": {}}
        with open(self._manifest_path(v)) as f:
            return json.load(f)

    def _commit(
        self,
        files: list[str],
        meta: dict | None,
        parent: int,
        deletes: dict[str, str] | None = None,
        added: list[dict] | None = None,
        eq_deletes: list[dict] | None = None,
        file_versions: dict | None = None,
        layout: dict | None = None,
    ) -> int:
        """Write manifest ``parent + 1``. Left at None, ``added``,
        ``eq_deletes`` and ``layout`` carry the parent's; pass [] or {}
        to clear them."""
        version = parent + 1
        # the parent manifest is always needed (file_versions fallback)
        prev = self._load_manifest(parent)
        fileset = set(files)
        # deletion vectors only make sense for files the version references
        deletes = {f: d for f, d in (deletes or {}).items() if f in fileset}
        if added is None:
            # schema adds are table state: carried forward automatically
            # (readers default-fill files predating each add)
            added = prev.get("added_columns") or []
        if eq_deletes is None:
            # pending equality deletes carry forward too (overwrite/
            # compact pass [] explicitly — their data already excludes
            # the matched rows)
            eq_deletes = prev.get("eq_deletes") or []
        if layout is None:
            # {"key", "n_parts"} of a hash-partitioned table
            layout = prev.get("layout")
        # per-file commit version (the Iceberg sequence number): an
        # equality delete applies only to files committed strictly
        # before it, so a later upsert of the same key stays visible
        if file_versions is None:
            file_versions = {
                f: v
                for f, v in (prev.get("file_versions") or {}).items()
                if f in fileset
            }
        else:
            file_versions = {f: v for f, v in file_versions.items() if f in fileset}
        prev_files = set(prev.get("files") or [])
        for f in files:
            if f not in file_versions:
                # carried from an older (pre-feature) manifest → at least
                # as old as the parent; genuinely new → this commit
                file_versions[f] = parent if f in prev_files else version
        manifest = {
            "version": version,
            "parent": parent,
            "files": files,
            # meta=None carries the parent's meta so a meta-less commit
            # (append/register between catalog checkpoints) can never
            # wipe the resume cursor; pass {} to clear explicitly
            "meta": (prev.get("meta") or {}) if meta is None else meta,
            "deletes": deletes,
            "added_columns": added,
            "eq_deletes": eq_deletes,
            "file_versions": file_versions,
        }
        if layout:
            manifest["layout"] = layout
        tmp = self._manifest_path(version) + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        # os.link refuses an existing target, so two writers that both
        # read parent N cannot silently clobber each other's v(N+1) —
        # the loser gets a detectable conflict instead of vanished
        # lineage (os.replace would overwrite)
        try:
            os.link(tmp, self._manifest_path(version))
        except FileExistsError:
            os.unlink(tmp)
            raise ConcurrentCommitError(
                f"{self.path}: version {version} was committed by another "
                "writer since this commit read its parent; reload and retry"
            )
        os.unlink(tmp)
        return version

    # -- writes -----------------------------------------------------------
    def _write_data(self, data: "rd.Dataset | pa.Table") -> list[str]:
        txn_dir = os.path.join(self.data_dir, f"txn-{uuid.uuid4().hex[:12]}")
        if isinstance(data, pa.Table):
            os.makedirs(txn_dir, exist_ok=True)
            out = os.path.join(txn_dir, "part-0.parquet")
            pq.write_table(data, out, compression="snappy")
            return [out]
        data.write_parquet(txn_dir, compression="snappy")
        return sorted(
            os.path.join(txn_dir, f) for f in os.listdir(txn_dir) if f.endswith(".parquet")
        )

    def new_txn_dir(self, tag: str | None = None) -> str:
        """Directory for externally written part files (distributed sinks
        write here; ``register_files`` commits them atomically). A
        ``tag`` marks the dir as belonging to a named attempt group so a
        rerun can supersede it wholesale (``replace_tag``)."""
        prefix = f"txn-{tag}-" if tag else "txn-"
        path = os.path.join(self.data_dir, f"{prefix}{uuid.uuid4().hex[:12]}")
        os.makedirs(path, exist_ok=True)
        return path

    def register_files(
        self,
        files: list[str],
        meta: dict | None = None,
        skip_existing_basenames: bool = False,
        replace_tag: str | None = None,
    ) -> int:
        """Commit externally written part files as a new version (the
        write-tasks-then-commit-manifest pattern: files not registered
        are invisible; a crashed run leaves only garbage, never a
        partial version).

        ``replace_tag="iter3"`` DROPS every previously registered file
        living under a ``txn-iter3-*`` dir before adding ``files`` —
        exact crash-rerun idempotency for sinks whose rerun regenerates
        the complete row set (IterationSink: check ids are
        mix64(url_key, iteration), parallelism-invariant). A basename
        skip alone is NOT enough there: ray 2.49 dynamic block
        splitting may cut the rerun's map output at different
        boundaries, so a rerun block can share its ``part-<min
        check_id>`` name with a crashed-attempt file that also covered
        rows now landing in a DIFFERENT rerun part — skipped + committed
        = duplicated rows. Replacement is boundary-oblivious. Old
        versions keep referencing the superseded files (time travel
        stays consistent); gc reclaims them once their versions age out.

        ``skip_existing_basenames=True`` keeps the lighter file-level
        skip for single-block writers (check_resource_now: one batch →
        one content-named part per table, no splitting hazard)."""
        missing = [f for f in files if not os.path.exists(f)]
        if missing:
            # fail loud: silently committing a smaller file set would
            # turn real data loss (a part swept by a concurrent gc, a
            # sink writing to the wrong dir) into a "successful" run
            raise FileNotFoundError(
                f"register_files: {len(missing)} of {len(files)} part files "
                f"do not exist (first: {missing[0]!r})"
            )
        parent = self.latest_version()
        prev = self._load_manifest(parent)
        prev_files = prev["files"]
        if replace_tag is not None:
            marker = f"txn-{replace_tag}-"
            prev_files = [
                f
                for f in prev_files
                if not os.path.basename(os.path.dirname(f)).startswith(marker)
            ]
        elif skip_existing_basenames:
            have = {os.path.basename(f) for f in prev_files}
            files = [f for f in files if os.path.basename(f) not in have]
        return self._commit(
            prev_files + sorted(files), meta, parent,
            deletes=prev.get("deletes"), added=prev.get("added_columns") or [],
        )

    def append(self, data: "rd.Dataset | pa.Table", meta: dict | None = None) -> int:
        parent = self.latest_version()
        prev = self._load_manifest(parent)
        files = prev["files"] + self._write_data(data)
        return self._commit(
            files, meta, parent,
            deletes=prev.get("deletes"), added=prev.get("added_columns") or [],
        )

    def overwrite(self, data: "rd.Dataset | pa.Table", meta: dict | None = None) -> int:
        parent = self.latest_version()
        files, layout = self._write(data, self._load_manifest(parent).get("layout"))
        # a wholesale rewrite voids pending equality deletes: callers
        # built `data` from reads that already applied them
        return self._commit(files, meta, parent, eq_deletes=[], layout=layout)

    # -- hash-partitioned layout ------------------------------------------
    def _write(
        self, data: "rd.Dataset | pa.Table", layout: dict | None
    ) -> tuple[list[str], dict | None]:
        """Write a whole table's rows as new files → (files, layout).
        A driver table follows the recorded ``layout``; without one it
        is hash-partitioned once a keyed table reaches
        ``PARTITION_MIN_ROWS`` rows (that pick is the returned layout),
        else one file. A Dataset's write tasks write one untagged file
        per block."""
        if isinstance(data, pa.Table):
            if not layout and self.partition_key and data.num_rows >= PARTITION_MIN_ROWS:
                layout = {"key": self.partition_key, "n_parts": N_PARTS}
            if layout:
                return self._write_partitioned(data, layout), layout
        return self._write_data(data), layout

    @staticmethod
    def _part_ids(tbl: pa.Table, layout: dict):
        import numpy as np
        import pandas as pd

        keys = tbl[layout["key"]].to_pandas()
        # hash_pandas_object is dtype-WIDTH-sensitive: the same key as
        # int32 and int64 lands in different buckets, silently breaking
        # the last-wins contract when a source downcasts. Canonicalize
        # signed/unsigned ints to int64 (uint64 stays: >2^63 values
        # cannot widen, and a table keyed uint64 is at least
        # self-consistent).
        if pd.api.types.is_integer_dtype(keys.dtype) and keys.dtype != np.uint64:
            keys = keys.astype(np.int64)
        kh = pd.util.hash_pandas_object(keys, index=False).to_numpy().astype(np.uint64)
        return (kh % np.uint64(layout["n_parts"])).astype(np.int64)

    def _write_partitioned(self, tbl: pa.Table, layout: dict) -> list[str]:
        """Split by key hash and write one file per partition; the
        partition id is carried in the file name."""
        import numpy as np

        n = layout["n_parts"]
        parts = self._part_ids(tbl, layout)
        # one stable gather + zero-copy slices beats n full scans
        order = np.argsort(parts, kind="stable")
        sorted_tbl = tbl.take(pa.array(order))
        bounds = np.searchsorted(parts[order], np.arange(n + 1))
        return self._write_parts(
            [
                (p, sorted_tbl.slice(int(bounds[p]), int(bounds[p + 1] - bounds[p])))
                for p in range(n)
            ]
        )

    def _write_parts(self, parts: list[tuple[int, pa.Table]]) -> list[str]:
        """Write each ``(partition id, table)`` to its own file in one new
        txn dir, the id carried in the file name. Parquet encode releases
        the GIL, so the files are written concurrently (this runs serially
        on the driver every iteration; Amdahl)."""
        from concurrent.futures import ThreadPoolExecutor

        txn_dir = os.path.join(self.data_dir, f"txn-{uuid.uuid4().hex[:12]}")
        os.makedirs(txn_dir, exist_ok=True)
        jobs = [
            (tbl, os.path.join(txn_dir, f"part-p{p:04d}-{uuid.uuid4().hex[:8]}.parquet"))
            for p, tbl in parts
        ]
        with ThreadPoolExecutor(max_workers=min(8, max(1, len(jobs)))) as ex:
            list(ex.map(lambda j: pq.write_table(j[0], j[1], compression="snappy"), jobs))
        return [out for _, out in jobs]

    @staticmethod
    def _file_part(path: str) -> int | None:
        import re

        m = re.match(r"part-p(\d{4})-", os.path.basename(path))
        return int(m.group(1)) if m else None

    def _partitioned_layout(self, files: list[str]) -> dict[int, list[str]] | None:
        """files → {part: [files]} if EVERY file carries a part tag."""
        out: dict[int, list[str]] = {}
        for f in files:
            p = self._file_part(f)
            if p is None:
                return None
            out.setdefault(p, []).append(f)
        return out

    def commit_meta(self, meta: dict) -> int:
        """New version with same files, updated metadata (checkpoint cursor)."""
        parent = self.latest_version()
        prev = self._load_manifest(parent)
        merged = {**prev.get("meta", {}), **meta}
        return self._commit(
            prev["files"], merged, parent,
            deletes=prev.get("deletes"), added=prev.get("added_columns") or [],
        )

    # -- schema evolution (Lance add_columns analog) -----------------------
    _ADD_TYPES = {
        "int8": pa.int8,
        "int16": pa.int16,
        "int32": pa.int32,
        "int64": pa.int64,
        "float32": pa.float32,
        "float64": pa.float64,
        "double": pa.float64,
        "bool": pa.bool_,
        "string": pa.string,
        "large_string": pa.large_string,
        "binary": pa.binary,
        "date32[day]": pa.date32,
        "timestamp[us]": lambda: pa.timestamp("us"),
        "timestamp[ms]": lambda: pa.timestamp("ms"),
        "timestamp[s]": lambda: pa.timestamp("s"),
    }

    @classmethod
    def _parse_add_type(cls, s: str) -> pa.DataType:
        try:
            return cls._ADD_TYPES[s]()
        except KeyError:
            raise ValueError(
                f"unsupported added-column type {s!r} (one of {sorted(cls._ADD_TYPES)})"
            ) from None

    def add_column(
        self, name: str, type: "pa.DataType | str", default=None, meta: dict | None = None
    ) -> int:
        """Schema evolution WITHOUT rewriting any file (the Lance
        ``add_columns`` contract): the new column is recorded in the
        manifest and every reader default-fills it for files that
        predate the add, while appends from now on may carry it
        physically. Time travel stays exact — versions before the add
        do not have the column. ``compact()`` materializes it into
        real files. O(1) cost at any table size."""
        typ = self._parse_add_type(type) if isinstance(type, str) else type
        type_str = str(typ)
        self._parse_add_type(type_str)  # round-trippable or refuse
        if default is not None:
            pa.array([default]).cast(typ)  # default must fit the type
        parent = self.latest_version()
        prev = self._load_manifest(parent)
        if not prev["files"]:
            raise ValueError(f"table {self.path} is empty")
        added = list(prev.get("added_columns") or [])
        # union over ALL files: a heterogeneous append can carry a column
        # the first file lacks — re-adding it with another type would
        # poison every later read with a type conflict
        existing: set[str] = set()
        for names in self._file_schemas(prev["files"]).values():
            existing.update(names)
        existing.update(a["name"] for a in added)
        if name in existing:
            raise ValueError(f"column {name!r} already exists")
        added.append({"name": name, "type": type_str, "default": default})
        return self._commit(
            prev["files"], meta or prev.get("meta"), parent,
            deletes=prev.get("deletes"), added=added,
        )

    @classmethod
    def _fill_added(
        cls, tbl: pa.Table, added: list[dict] | None, columns: list[str] | None = None
    ) -> pa.Table:
        """Append manifest-declared columns missing from a physical file,
        filled with each add's default (None → nulls)."""
        for spec in added or []:
            name = spec["name"]
            if name in tbl.column_names or (columns is not None and name not in columns):
                continue
            typ = cls._parse_add_type(spec["type"])
            default = spec.get("default")
            if default is None:
                arr = pa.nulls(tbl.num_rows, typ)
            else:
                # constant array without an O(rows) Python list
                arr = pa.repeat(pa.array([default]).cast(typ)[0], tbl.num_rows)
            tbl = tbl.append_column(pa.field(name, typ), arr)
        return tbl

    def added_columns(self, version: int | None = None) -> list[dict]:
        return self._load_manifest(version).get("added_columns") or []

    def schema(self, version: int | None = None) -> pa.Schema:
        """The table's logical Arrow schema at ``version``: the union of
        the physical file schemas (first-seen order) plus manifest-added
        columns — exactly the column set every read path emits. Footer
        metadata only; no data reads."""
        m = self._load_manifest(version)
        if not m["files"]:
            raise ValueError(f"table {self.path} is empty")
        added = m.get("added_columns") or []
        canon, fill_types = self._canonical_layout(m["files"], added, None)
        added_types = {a["name"]: self._parse_add_type(a["type"]) for a in added}
        base = pq.ParquetFile(m["files"][0]).schema_arrow
        fields = []
        for n in canon:
            if n in fill_types:
                fields.append(pa.field(n, fill_types[n]))
            elif base.get_field_index(n) >= 0:
                fields.append(base.field(n))
            else:
                fields.append(pa.field(n, added_types[n]))
        return pa.schema(fields)

    # -- zone maps (Lance scalar-index analog) -----------------------------
    def file_key_ranges(self, files: list[str], key: str) -> dict[str, tuple | None]:
        """Per-file (min, max) of ``key`` from the Parquet footers'
        row-group statistics, cached in ``_stats/<key>.json`` (stats are
        immutable per data file, so the cache is version-independent and
        only ever extends). ``None`` means the footer carries no usable
        stats for the file — such a file is never pruned. Reading a
        footer costs one metadata fetch, paid once per file per key over
        the table's lifetime."""
        cache = self._stats_cache(key, files, lambda f: self._footer_key_range(f, key))
        return {f: (None if r is None else tuple(r)) for f, r in cache.items()}

    def _stats_cache(self, name: str, files: list[str], compute) -> dict:
        """``{file: compute(file)}`` for per-file facts cached in
        ``_stats/<name>.json`` and in memory. A data file is immutable
        and its path unique, so an entry never goes stale and the cache
        only extends; ``compute`` runs once per file over the table's
        lifetime, and a read whose files are all known opens no file."""
        memo = self._stats_memo.setdefault(name, {})
        missing = [f for f in files if f not in memo]
        if missing:
            stats_dir = os.path.join(self.path, "_stats")
            cache_path = os.path.join(stats_dir, f"{name}.json")
            cache: dict = {}
            if os.path.exists(cache_path):
                with open(cache_path) as fh:
                    cache = json.load(fh)
            new = [f for f in missing if f not in cache]
            for f in new:
                cache[f] = compute(f)
            if new:
                os.makedirs(stats_dir, exist_ok=True)
                tmp = cache_path + f".tmp-{uuid.uuid4().hex[:8]}"
                with open(tmp, "w") as fh:
                    json.dump(cache, fh)
                os.replace(tmp, cache_path)
            memo.update(cache)
        return {f: memo[f] for f in files}

    @staticmethod
    def _footer_key_range(path: str, key: str):
        try:
            md = pq.ParquetFile(path).metadata
            names = md.schema.names
            if key not in names:
                return None
            idx = names.index(key)
            lo = hi = None
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(idx).statistics
                if st is None or not st.has_min_max:
                    return None
                lo = st.min if lo is None else min(lo, st.min)
                hi = st.max if hi is None else max(hi, st.max)
            # only JSON-round-trippable, order-preserving stat types are
            # usable: temporal/decimal footer stats come back as Python
            # datetime/Decimal objects that neither json.dump nor a
            # post-reload bisect can handle — such keys are never pruned
            if (
                lo is None
                or isinstance(lo, bool)
                or not isinstance(lo, (int, float, str))
            ):
                return None
            return [lo, hi]
        except Exception:
            return None

    def prune_files(self, files: list[str], key: str, values) -> list[str]:
        """Files that MAY contain a row whose ``key`` is in ``values``
        (zone-map containment test; unknown-stats files always kept)."""
        import bisect

        vals = sorted(set(values))
        ranges = self.file_key_ranges(files, key)
        out = []
        for f in files:
            r = ranges[f]
            if r is None:
                out.append(f)
                continue
            i = bisect.bisect_left(vals, r[0])
            if i < len(vals) and vals[i] <= r[1]:
                out.append(f)
        return out

    def read_where(
        self, key: str, values, columns: list[str] | None = None
    ) -> "rd.Dataset":
        """Point/set lookup: zone-map-prune the manifest's files, then
        read only the surviving files and row-filter. A lookup of k keys
        against a 10^10-row table touches O(files whose range matches),
        never the whole table. The value set ships to the read tasks
        once (``ray.put``), so a seed-sized key set is not pickled into
        every task."""
        import pyarrow.compute as pc

        m = self._load_manifest(None)
        files = self.prune_files(m["files"], key, values)
        deletes = m.get("deletes") or {}
        added = m.get("added_columns") or []
        eq = m.get("eq_deletes") or []
        cols_read = (
            columns if columns is None or key in columns else list(columns) + [key]
        )

        def only_matching(tbl: pa.Table) -> pa.Table:
            out = tbl.filter(pc.is_in(tbl[key], value_set=ray.get(value_ref)))
            return out.select(columns) if columns is not None else out

        if not files:
            # empty result with the right shape: no file can match
            # (schema from the footer — never read data for an empty result)
            if not m["files"]:
                raise ValueError(f"table {self.path} is empty")
            return rd.from_arrow(self._empty_canonical_table(m, columns))
        value_ref = ray.put(pa.array(sorted(set(values))))
        # layout_files pins the canonical layout to the FULL manifest:
        # pruning must never change the output schema (a heterogeneous
        # append's column could exist only in pruned-away files)
        if deletes or added or eq or not self._one_schema(m["files"]):
            ds = self._read_files_merged(
                files, deletes, added, cols_read, eq, m.get("file_versions"),
                layout_files=m["files"],
            )
        else:
            ds = rd.read_parquet(files, columns=cols_read)
        return ds.map_batches(only_matching, batch_format="pyarrow")

    def read_where_arrow(
        self, key: str, values, columns: list[str] | None = None
    ) -> pa.Table:
        """Driver-side zone-map point lookup: prune to candidate files,
        read them with ``read_arrow``'s per-file loader, row-filter.
        Same result as ``read_where`` without Ray Data's per-execution
        fixed cost. Zone maps prune by each file's footer min/max of
        ``key``, so they skip files only when the key is clustered
        (after ``compact(sort_by=key)``); on hash-spread keys every
        file is a candidate and this reads the whole table."""
        import pyarrow.compute as pc

        m = self._load_manifest(None)
        if not m["files"]:
            raise ValueError(f"table {self.path} is empty")
        want = (
            None
            if columns is None
            else list(columns) + ([key] if key not in columns else [])
        )
        load = self._file_loader(m, want)
        value_set = pa.array(sorted(set(values)))
        parts = [
            t.filter(pc.is_in(t[key], value_set=value_set))
            for t in map(load, self.prune_files(m["files"], key, values))
        ]
        if not parts:
            parts = [self._empty_canonical_table(m, want)]
        out = pa.concat_tables(parts, promote_options="default")
        return out.select(columns) if columns is not None else out

    def lookup(self, key: str, values, columns: list[str] | None = None) -> pa.Table:
        """Rows whose ``key`` is in ``values``, projected to ``columns``,
        as one Arrow table: ``read_where_arrow`` on the driver while the
        table fits it (``fits_driver``), a ``read_where`` Dataset above
        it. Either way only the matching rows reach the driver."""
        if self.fits_driver():
            return self.read_where_arrow(key, values, columns=columns)
        return _ds_to_arrow(self.read_where(key, values, columns=columns))

    def filter_rows(self, predicate, columns: list[str]) -> pa.Table:
        """Rows where ``predicate(batch)`` (a boolean mask over a
        pyarrow batch) is true, projected to ``columns``, which must
        hold every column the predicate reads: a driver read + filter
        while the table fits the driver, a streamed Dataset filter above
        it that pulls only the matching rows."""

        def keep(t: pa.Table) -> pa.Table:
            return t.filter(predicate(t))

        if self.fits_driver():
            return keep(self.read_arrow(columns=columns))
        return _ds_to_arrow(
            self.read(columns=columns).map_batches(keep, batch_format="pyarrow")
        )

    def _empty_canonical_table(
        self, m: dict, columns: list[str] | None
    ) -> pa.Table:
        """Zero-row table with the manifest's canonical output schema
        (shared by every empty-result path — schema from footers only,
        no data reads)."""
        added = m.get("added_columns") or []
        canon, fill_types = self._canonical_layout(m["files"], added, columns)
        base = pq.ParquetFile(m["files"][0]).schema_arrow.empty_table()
        empty = self._fill_added(base, added, canon)
        for name in canon:
            if name not in empty.column_names:
                typ = fill_types[name]
                empty = empty.append_column(pa.field(name, typ), pa.nulls(0, typ))
        return empty.select(canon)

    # -- tags (named refs, Lance-style) ------------------------------------
    def _refs_path(self) -> str:
        return os.path.join(self.path, "_refs.json")

    def _load_refs(self) -> dict[str, int]:
        p = self._refs_path()
        if not os.path.exists(p):
            return {}
        with open(p) as fh:
            return json.load(fh)

    def _save_refs(self, refs: dict[str, int]) -> None:
        tmp = self._refs_path() + f".tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as fh:
            json.dump(refs, fh)
        os.replace(tmp, self._refs_path())

    def tag(self, name: str, version: int | None = None) -> int:
        """Pin a version under a name (Lance tags): ``read(version=
        vt.version_of(name))`` keeps working after any number of later
        commits, because ``gc()`` retains every tagged version's files
        until the tag is deleted."""
        v = self.latest_version() if version is None else version
        if v < 1 or not os.path.exists(self._manifest_path(v)):
            raise ValueError(f"no committed version {v} in {self.path}")
        refs = self._load_refs()
        refs[name] = v
        self._save_refs(refs)
        return v

    def version_of(self, name: str) -> int:
        refs = self._load_refs()
        if name not in refs:
            raise KeyError(f"no tag {name!r} on {self.path}")
        return refs[name]

    def tags(self) -> dict[str, int]:
        return self._load_refs()

    def delete_tag(self, name: str) -> None:
        refs = self._load_refs()
        refs.pop(name, None)
        self._save_refs(refs)

    # -- incremental reads (changelog over per-file commit versions) -------
    def read_appended(
        self, since_version: int, columns: list[str] | None = None
    ) -> "rd.Dataset":
        """Rows appended strictly AFTER ``since_version`` — the
        append-only changelog read: only files whose commit version
        exceeds the cursor are touched (O(new files), regardless of
        table size), with the LATEST manifest's deletion vectors,
        equality deletes and schema adds applied. An incremental
        consumer (e.g. dedup of each crawl iteration's new documents
        against an already-processed corpus) checkpoints
        ``latest_version()`` and reads forward from there."""
        m = self._load_manifest(None)
        if not m["files"]:
            raise ValueError(f"table {self.path} is empty")
        fv = m.get("file_versions") or {}
        # unknown commit version (pre-feature manifest) → treat as NEW:
        # a changelog must over-deliver, never silently skip rows (the
        # opposite default from _eq_entries_for, where unknown = oldest
        # keeps deletes conservative)
        files = [
            f for f in m["files"] if fv.get(f, since_version + 1) > since_version
        ]
        added = m.get("added_columns") or []
        if not files:
            return rd.from_arrow(self._empty_canonical_table(m, columns))
        return self._read_files_merged(
            files,
            m.get("deletes") or {},
            added,
            columns,
            m.get("eq_deletes") or [],
            fv,
            layout_files=m["files"],  # table schema, not the new subset's
        )

    # -- equality deletes (Iceberg-style deferred deletes) -----------------
    def pending_eq_deletes(self, version: int | None = None) -> list[dict]:
        return self._load_manifest(version).get("eq_deletes") or []

    @staticmethod
    def _eq_entries_for(
        entries: list[dict], file_version: int
    ) -> list[dict]:
        """Entries applicable to a file committed at ``file_version`` —
        strictly older files only (the Iceberg sequence-number rule), so
        rows upserted AFTER the delete stay visible."""
        return [e for e in entries if file_version < e["at_version"]]

    @staticmethod
    def _apply_eq(tbl: pa.Table, entries: list[dict]) -> pa.Table:
        if not entries:
            return tbl
        import pyarrow.compute as pc

        mask = None
        for e in entries:
            if e["key"] not in tbl.column_names:
                continue  # column absent from this projection's source
            m = pc.is_in(
                tbl[e["key"]],
                value_set=pa.array(e["values"]).cast(tbl[e["key"]].type),
            )
            mask = m if mask is None else pc.or_(mask, m)
        if mask is None:
            return tbl
        return tbl.filter(pc.invert(pc.fill_null(mask, False)))

    # -- deletion vectors (Lance deletion-file semantics) ------------------
    def delete_where(
        self,
        key: str,
        values=None,
        *,
        predicate=None,
        predicate_columns: list[str] | None = None,
        defer: bool = False,
        meta: dict | None = None,
    ) -> int:
        """Merge-on-read row deletes: mark rows for deletion WITHOUT
        rewriting any data file. For every data file whose rows match,
        a sidecar Parquet of deleted row POSITIONS (``pos:int64``,
        sorted, deduped) is written and referenced from the new
        manifest's ``deletes`` map; readers drop those positions.
        Repeated deletes against the same file union into a fresh
        sidecar (the old one becomes gc()-able garbage).

        Match either by ``values`` (rows whose ``key`` column is in the
        set — the common path; only the key column is read per file) or
        by ``predicate`` (a callable ``pa.Table -> bool mask``;
        ``predicate_columns`` bounds what it reads). The per-file match
        runs as parallel Ray tasks, so delete cost at any table size is
        O(matched files' pruned columns), never O(table rewrite).

        ``defer=True`` (values path only) commits an Iceberg-style
        EQUALITY delete instead: an O(1) manifest entry, no file probed
        at delete time. Every reader excludes matching rows from files
        committed strictly before the entry (per-file commit versions =
        sequence numbers), so a later upsert of the same key is
        visible. ``compact()``/``overwrite`` materialize pending
        entries away; ``count()`` stays exact by resolving applicable
        entries against zone-map-pruned key columns.

        Returns the new version (a version is committed even when
        nothing matched — the delete intent is part of lineage)."""
        import numpy as np

        parent = self.latest_version()
        prev = self._load_manifest(parent)
        files = prev["files"]
        if defer:
            if values is None:
                raise ValueError("defer=True requires values (equality delete)")
            if not files:
                raise ValueError(f"table {self.path} is empty")
            vals = sorted(set(values))
            for v in vals:
                if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                    raise ValueError(
                        "equality-delete values must be int/float/str "
                        f"(got {type(v).__name__})"
                    )
            # a mistyped entry would poison EVERY later read (the safe
            # cast in _apply_eq raises) — validate against the key's
            # logical type NOW and store the values post-cast
            sch = self.schema()
            if key not in sch.names:
                raise KeyError(f"unknown column {key!r} in {self.path}")
            ktype = sch.field(key).type
            if not (
                pa.types.is_integer(ktype)
                or pa.types.is_floating(ktype)
                or pa.types.is_string(ktype)
                or pa.types.is_large_string(ktype)
            ):
                raise ValueError(
                    f"equality deletes support int/float/string keys, not "
                    f"{ktype} — use an eager delete_where for this column"
                )
            try:
                vals = sorted(pa.array(vals).cast(ktype).to_pylist())
            except Exception as exc:
                raise ValueError(
                    f"equality-delete values do not fit column {key!r} "
                    f"({ktype}): {exc}"
                ) from None
            entries = list(prev.get("eq_deletes") or [])
            entries.append({"key": key, "values": vals, "at_version": parent + 1})
            return self._commit(
                files,
                meta or prev.get("meta"),
                parent,
                deletes=prev.get("deletes"),
                added=prev.get("added_columns") or [],
                eq_deletes=entries,
            )
        if not files:
            raise ValueError(f"table {self.path} is empty")
        if (values is None) == (predicate is None):
            raise ValueError("pass exactly one of values / predicate")
        cols = [key] if predicate is None else predicate_columns
        if values is not None:
            value_set = pa.array(sorted(set(values)))

            def match(tbl: pa.Table):
                import numpy as _np
                import pyarrow.compute as pc

                if key not in tbl.column_names:
                    # heterogeneous appends: a file that physically lacks
                    # the key (and it isn't manifest-added) simply has no
                    # matching rows — mirror _apply_eq's absent-column skip
                    return _np.zeros(tbl.num_rows, dtype=bool)
                return pc.is_in(tbl[key], value_set=value_set)

        else:
            match = predicate

        added_specs = prev.get("added_columns") or []
        fill = self._fill_added

        @ray.remote
        def positions(path: str) -> "np.ndarray":
            import pyarrow.compute as pc

            avail = set(pq.ParquetFile(path).schema_arrow.names)
            tbl = pq.read_table(
                path, columns=None if cols is None else [c for c in cols if c in avail]
            )
            tbl = fill(tbl, added_specs, cols)
            mask = match(tbl)
            if isinstance(mask, (pa.Array, pa.ChunkedArray)):
                m = pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
            else:
                m = np.asarray(mask)
            return np.flatnonzero(m.astype(bool)).astype(np.int64)

        # zone-map prune: files whose key range can't contain any target
        # value are skipped without a task (O(matching files), not O(files))
        candidates = files if values is None else self.prune_files(files, key, values)
        hit_lists = ray.get([positions.remote(f) for f in candidates])
        del_dir = os.path.join(self.path, "deletes")
        os.makedirs(del_dir, exist_ok=True)
        deletes = dict(prev.get("deletes") or {})
        for f, pos in zip(candidates, hit_lists):
            if len(pos) == 0:
                continue
            old = deletes.get(f)
            if old is not None:
                pos = np.union1d(pos, pq.read_table(old)["pos"].to_numpy())
            out = os.path.join(del_dir, f"del-{uuid.uuid4().hex[:12]}.parquet")
            pq.write_table(pa.table({"pos": pa.array(np.sort(pos), pa.int64())}), out)
            deletes[f] = out
        return self._commit(
            files, meta or prev.get("meta"), parent,
            deletes=deletes, added=prev.get("added_columns") or [],
        )

    def update_where(
        self,
        key: str,
        values=None,
        *,
        predicate=None,
        predicate_columns: list[str] | None = None,
        set_values: dict[str, Any] | None = None,
        updater=None,
        meta: dict | None = None,
    ) -> int:
        """Merge-on-read row UPDATE (the Lance ``update`` contract):
        rows matching the filter are marked deleted via position
        sidecars and their replacements are appended as fresh part
        files — ONE manifest commit, no data file rewritten. Cost is
        O(matched files) read + O(matched rows) write at any table
        size; ``compact()`` later materializes the churn away.

        Filter: exactly one of ``values`` (rows whose ``key`` is in the
        set) or ``predicate`` (``pa.Table -> bool mask``, reading only
        ``predicate_columns``). New values: exactly one of
        ``set_values`` ({col: scalar} assigned to every matched row) or
        ``updater`` (callable ``matched_rows: pa.Table -> pa.Table``,
        same row count; output is cast back to the file schema).

        Per-file match+rewrite runs as parallel Ray tasks; replacement
        parts are written inside the tasks, so updated bytes never
        touch the driver. Rows already dead under an existing deletion
        vector are NOT matched (an update never resurrects a deleted
        row). Returns the new version."""
        import numpy as np

        parent = self.latest_version()
        prev = self._load_manifest(parent)
        files = prev["files"]
        if not files:
            raise ValueError(f"table {self.path} is empty")
        if (values is None) == (predicate is None):
            raise ValueError("pass exactly one of values / predicate")
        if (set_values is None) == (updater is None):
            raise ValueError("pass exactly one of set_values / updater")
        cols = [key] if predicate is None else predicate_columns
        if values is not None:
            value_set = pa.array(sorted(set(values)))

            def match(tbl: pa.Table):
                import numpy as _np
                import pyarrow.compute as pc

                if key not in tbl.column_names:
                    # absent key (file lacks it, not manifest-added) =
                    # NULL = no match, same as _apply_eq
                    return _np.zeros(tbl.num_rows, dtype=bool)
                return pc.is_in(tbl[key], value_set=value_set)

        else:
            match = predicate

        prev_deletes = dict(prev.get("deletes") or {})
        txn_dir = self.new_txn_dir()

        def apply_new_values(matched: pa.Table) -> pa.Table:
            if set_values is not None:
                out = matched
                for col, val in set_values.items():
                    i = out.schema.get_field_index(col)
                    if i < 0:
                        raise KeyError(f"unknown column {col!r}")
                    typ = out.schema.field(i).type
                    arr = pa.array([val] * out.num_rows).cast(typ)
                    out = out.set_column(i, out.schema.field(i), arr)
                return out
            out = updater(matched)
            if out.num_rows != matched.num_rows:
                raise ValueError("updater must preserve the row count")
            return out.select(matched.column_names).cast(matched.schema)

        added_specs = prev.get("added_columns") or []
        fill = self._fill_added
        eq_all = prev.get("eq_deletes") or []
        fv = prev.get("file_versions") or {}
        eq_for = self._eq_entries_for

        @ray.remote
        def process(path: str, del_file: str | None, out_path: str, ents: list):
            import pyarrow.compute as pc

            # pruned probe first: unmatched files never read full columns
            avail = set(pq.ParquetFile(path).schema_arrow.names)
            need = None
            if cols is not None:
                need = list(dict.fromkeys(list(cols) + [e["key"] for e in ents]))
            probe = pq.read_table(
                path, columns=None if need is None else [c for c in need if c in avail]
            )
            probe = fill(probe, added_specs, need)
            m = match(probe)
            if isinstance(m, (pa.Array, pa.ChunkedArray)):
                m = pc.fill_null(m, False).to_numpy(zero_copy_only=False)
            m = np.asarray(m).astype(bool)
            if del_file is not None:
                dead = pq.read_table(del_file)["pos"].to_numpy()
                m[dead[dead < len(m)]] = False  # never update a deleted row
            for e in ents:
                # rows dead under a pending equality delete must not be
                # resurrected through a replacement part (which, being
                # newer, escapes the entry's sequence number)
                if e["key"] not in probe.column_names:
                    continue
                em = pc.is_in(
                    probe[e["key"]],
                    value_set=pa.array(e["values"]).cast(probe[e["key"]].type),
                )
                m &= ~pc.fill_null(em, False).to_numpy(zero_copy_only=False)
            pos = np.flatnonzero(m).astype(np.int64)
            if len(pos) == 0:
                return None
            tbl = fill(pq.read_table(path), added_specs)
            replacement = apply_new_values(tbl.take(pa.array(pos)))
            pq.write_table(replacement, out_path, compression="snappy")
            return pos

        # zone-map prune as in delete_where
        candidates = files if values is None else self.prune_files(files, key, values)

        # an update that may rewrite the partition key itself would leave
        # replacement rows in the wrong hash bucket — only keep the tag
        # when the update provably cannot touch the key (updater callables
        # are opaque, so they conservatively untag; merge_insert then
        # takes the table as one partition and rewrites it whole,
        # correct but slower)
        layout = prev.get("layout")
        keeps_partition = not layout or (
            set_values is not None and layout["key"] not in set_values
        )

        def out_name(src: str) -> str:
            # replacement rows stay in their source file's hash partition:
            # carry the part tag so a partitioned layout (and with it the
            # merge_insert partial-rewrite fast path) survives updates
            p = self._file_part(src) if keeps_partition else None
            stem = f"part-p{p:04d}-{uuid.uuid4().hex[:8]}" if p is not None else f"upd-{uuid.uuid4().hex[:8]}"
            return os.path.join(txn_dir, f"{stem}.parquet")

        out_paths = [out_name(f) for f in candidates]
        hit_lists = ray.get(
            [
                process.remote(
                    f, prev_deletes.get(f), out, eq_for(eq_all, fv.get(f, 0))
                )
                for f, out in zip(candidates, out_paths)
            ]
        )
        del_dir = os.path.join(self.path, "deletes")
        os.makedirs(del_dir, exist_ok=True)
        deletes = dict(prev_deletes)
        new_parts: list[str] = []
        for f, pos, out in zip(candidates, hit_lists, out_paths):
            if pos is None:
                continue
            new_parts.append(out)
            old = deletes.get(f)
            if old is not None:
                pos = np.union1d(pos, pq.read_table(old)["pos"].to_numpy())
            sidecar = os.path.join(del_dir, f"del-{uuid.uuid4().hex[:12]}.parquet")
            pq.write_table(pa.table({"pos": pa.array(np.sort(pos), pa.int64())}), sidecar)
            deletes[f] = sidecar
        return self._commit(
            files + sorted(new_parts), meta or prev.get("meta"), parent,
            deletes=deletes, added=prev.get("added_columns") or [],
        )

    def restore(self, version: int, meta: dict | None = None) -> int:
        """Roll the table back to an earlier committed version as a NEW
        commit (Lance ``restore``): the old manifest's files, deletion
        vectors and metadata are re-referenced under version
        latest+1, so the rollback itself is part of lineage and no data
        moves. The intervening versions' files stay gc()-able garbage."""
        if version < 1 or not os.path.exists(self._manifest_path(version)):
            raise ValueError(f"no committed version {version} in {self.path}")
        m = self._load_manifest(version)
        referenced = list(m["files"]) + list((m.get("deletes") or {}).values())
        gone = [f for f in referenced if not os.path.exists(f)]
        if gone:
            raise ValueError(
                f"version {version} is not restorable: {len(gone)} data "
                "files were gc()-ed (raise gc keep_versions to retain "
                "rollback targets)"
            )
        return self._commit(
            m["files"],
            meta or m.get("meta"),
            self.latest_version(),
            deletes=m.get("deletes"),
            added=m.get("added_columns") or [],
            eq_deletes=m.get("eq_deletes") or [],
            file_versions=m.get("file_versions") or {},
            layout=m.get("layout") or {},
        )

    def deleted_count(self, version: int | None = None) -> int:
        m = self._load_manifest(version)
        return sum(
            pq.ParquetFile(d).metadata.num_rows for d in (m.get("deletes") or {}).values()
        )

    def compact(self, meta: dict | None = None, sort_by: str | None = None) -> int:
        """Materialize deletion vectors (and schema adds) away: rewrite
        the table's live rows as fresh files and commit a delete-free
        version. The rewrite streams through Ray Data (never a driver
        pull). ``sort_by`` clusters the rewrite on a key so the new
        files carry tight, near-disjoint zone maps — point lookups and
        deletes after a clustered compaction prune to O(1) files."""
        if not self.fits_driver():
            ds = self.read()
            return self.overwrite(ds.sort(sort_by) if sort_by else ds, meta=meta)
        tbl = self.read_arrow()
        return self.overwrite(tbl.sort_by(sort_by) if sort_by else tbl, meta=meta)

    @staticmethod
    def _drop_positions(tbl: pa.Table, del_file: str | None) -> pa.Table:
        if del_file is None:
            return tbl
        import numpy as np

        pos = pq.read_table(del_file)["pos"].to_numpy()
        keep = np.ones(tbl.num_rows, dtype=bool)
        keep[pos[pos < tbl.num_rows]] = False
        return tbl.filter(pa.array(keep))

    def _file_schemas(self, files: list[str]) -> dict[str, list[str]]:
        """Per-file physical column names, cached like zone maps
        (a file's schema is immutable, so the cache only extends)."""
        return self._stats_cache(
            "__schemas__", files, lambda f: list(pq.ParquetFile(f).schema_arrow.names)
        )

    def _one_schema(self, files: list[str]) -> bool:
        """Whether every file carries the same physical columns (a
        heterogeneous append makes readers use the canonical layout)."""
        return len({tuple(ns) for ns in self._file_schemas(files).values()}) <= 1

    def _canonical_layout(
        self, files: list[str], added: list[dict], columns: list[str] | None
    ) -> tuple[list[str], dict]:
        """Stable output layout across physically heterogeneous files:
        (column order, {name: pa type} for columns some file lacks).
        Order = requested order, or the union of file schemas in
        first-seen order + manifest-added columns at the end. A column
        only SOME files carry (appended without ``add_column``) is
        null-filled for the others — never silently dropped."""
        schemas = self._file_schemas(files)
        name_sets = {f: set(ns) for f, ns in schemas.items()}
        union: list[str] = []
        seen: set[str] = set()
        for f in files:
            for n in schemas[f]:
                if n not in seen:
                    seen.add(n)
                    union.append(n)
        added_names = {a["name"] for a in added}
        canon = (
            list(columns)
            if columns is not None
            else union + [a["name"] for a in added if a["name"] not in seen]
        )
        universal = set.intersection(*name_sets.values()) if name_sets else set()
        fill_types: dict[str, pa.DataType] = {}
        for n in canon:
            if n in added_names or n in universal:
                continue  # _fill_added owns adds; universal needs no fill
            donor = next((f for f in files if n in name_sets[f]), None)
            if donor is None:
                raise KeyError(f"column {n!r} exists in no file of {self.path}")
            fill_types[n] = pq.ParquetFile(donor).schema_arrow.field(n).type
        return canon, fill_types

    @classmethod
    def _load_file_table(
        cls,
        path: str,
        del_file: str | None,
        added: list[dict],
        canon: list[str],
        fill_types: dict | None = None,
        eq_entries: list[dict] | None = None,
    ) -> pa.Table:
        """One file → live rows with the canonical columns: prune the
        read to what the file physically has, drop deleted positions,
        apply this file's equality-delete entries, default-fill
        manifest-added columns, null-fill union columns the file
        predates, fix the order."""
        avail = set(pq.ParquetFile(path).schema_arrow.names)
        want = set(canon)
        for e in eq_entries or []:
            want.add(e["key"])  # the filter key must be read even if unprojected
        read_cols = [c for c in canon if c in avail] + sorted(
            (want - set(canon)) & avail
        )
        t = pq.read_table(path, columns=read_cols)
        t = cls._drop_positions(t, del_file)
        t = cls._fill_added(t, added, sorted(want))
        t = cls._apply_eq(t, eq_entries or [])
        for name in canon:
            if name not in t.column_names:
                typ = (fill_types or {})[name]
                t = t.append_column(pa.field(name, typ), pa.nulls(t.num_rows, typ))
        return t.select(canon)

    def _read_files_merged(
        self,
        files: list[str],
        deletes: dict[str, str],
        added: list[dict],
        columns: list[str] | None,
        eq_deletes: list[dict] | None = None,
        file_versions: dict | None = None,
        layout_files: list[str] | None = None,
    ) -> "rd.Dataset":
        """Per-file load tasks that apply each file's deletion vector,
        equality-delete entries and schema adds as the rows come off the
        Parquet reader (one task per file — files are partition-sized by
        construction). ``layout_files`` fixes the canonical layout to a
        larger file set than is being read (changelog reads must emit
        the TABLE's schema, not the new-files subset's)."""
        canon, fill_types = self._canonical_layout(
            layout_files if layout_files is not None else files, added, columns
        )
        load_one = self._load_file_table
        eq = eq_deletes or []
        fv = file_versions or {}
        eq_for = self._eq_entries_for

        def load(batch: pa.Table) -> pa.Table:
            out = [
                load_one(
                    row["file"], row["del_file"], added, canon, fill_types,
                    eq_for(eq, fv.get(row["file"], 0)),
                )
                for row in batch.to_pylist()
            ]
            return pa.concat_tables(out, promote_options="default")

        items = pa.table(
            {
                "file": pa.array(files, pa.string()),
                "del_file": pa.array([deletes.get(f) for f in files], pa.string()),
            }
        )
        # one block per file so loads run as parallel tasks
        return (
            rd.from_arrow(items)
            .repartition(len(files))
            .map_batches(load, batch_format="pyarrow", batch_size=None)
        )

    # -- reads ------------------------------------------------------------
    def files(self, version: int | None = None) -> list[str]:
        return self._load_manifest(version)["files"]

    def meta(self, version: int | None = None) -> dict:
        return self._load_manifest(version).get("meta", {})

    def is_empty(self, version: int | None = None) -> bool:
        return not self.files(version)

    def read(self, version: int | None = None, columns: list[str] | None = None, **kwargs) -> "rd.Dataset":
        m = self._load_manifest(version)
        files = m["files"]
        if not files:
            raise ValueError(f"table {self.path} is empty")
        deletes = m.get("deletes") or {}
        added = m.get("added_columns") or []
        eq = m.get("eq_deletes") or []
        if deletes or added or eq:
            return self._read_files_merged(
                files, deletes, added, columns, eq, m.get("file_versions")
            )
        # heterogeneous appends (a column only SOME files carry, without
        # add_column) must still emit the canonical layout in EVERY block:
        # plain read_parquet hands each file's own schema downstream, so a
        # map_batches touching the newer column crashes on older blocks.
        # Same homogeneity gate as read_where; schema probe is cached.
        if not self._one_schema(files):
            return self._read_files_merged(
                files, {}, [], columns, [], m.get("file_versions")
            )
        return rd.read_parquet(files, columns=columns, **kwargs)

    def read_arrow(self, version: int | None = None, columns: list[str] | None = None) -> pa.Table:
        """Driver-side read of the whole table — for tables that fit
        the driver (``fits_driver``), manifests and tests."""
        m = self._load_manifest(version)
        if not m["files"]:
            raise ValueError(f"table {self.path} is empty")
        load = self._file_loader(m, columns)
        return pa.concat_tables(
            [load(f) for f in m["files"]], promote_options="default"
        )

    def _file_loader(self, m: dict, columns: list[str] | None):
        """The per-file reader of every driver read (``read_arrow``,
        ``read_where_arrow``): ``load(path)`` returns that file's live
        rows in the manifest's layout. A plain ``pq.read_table`` when
        the manifest has no deletes, no added columns, no equality
        deletes and one file schema; the canonical-layout loader
        otherwise."""
        files = m["files"]
        deletes = m.get("deletes") or {}
        added = m.get("added_columns") or []
        eq = m.get("eq_deletes") or []
        if not (deletes or added or eq) and self._one_schema(files):
            return lambda f: pq.read_table(f, columns=columns)
        canon, fill_types = self._canonical_layout(files, added, columns)
        fv = m.get("file_versions") or {}
        return lambda f: self._load_file_table(
            f, deletes.get(f), added, canon, fill_types,
            self._eq_entries_for(eq, fv.get(f, 0)),
        )

    def fits_driver(self) -> bool:
        """The one table-size rule (``DRIVER_MAX_ROWS``): whether the
        table is small enough to read and merge on the driver. Every
        driver-or-Dataset choice over a stored table asks this."""
        return self.count() <= DRIVER_MAX_ROWS

    def count(self, version: int | None = None) -> int:
        """Live row count: file metadata minus deletion-vector sizes —
        position deletes keep counts exact with zero data reads. With
        pending equality deletes, the files each entry can touch (zone-
        map pruned, strictly-older sequence numbers only) resolve their
        key columns; everything else stays metadata-only — still exact.
        Memoized per version (a committed version never changes)."""
        v = self.latest_version() if version is None else version
        cached = self._count_cache.get(v)
        if cached is not None:
            return cached
        m = self._load_manifest(v)
        eq = m.get("eq_deletes") or []
        if not eq:
            n = sum(
                pq.ParquetFile(f).metadata.num_rows for f in m["files"]
            ) - self.deleted_count(v)
        else:
            deletes = m.get("deletes") or {}
            added = m.get("added_columns") or []
            fv = m.get("file_versions") or {}
            n = 0
            added_names = {a["name"] for a in added}
            # hoist the _stats cache loads out of the per-file loop:
            # one schemas read + one zone-map read per distinct entry key
            schemas = self._file_schemas(m["files"])
            ranges_by_key = {
                k: self.file_key_ranges(m["files"], k)
                for k in sorted({e["key"] for e in eq})
            }
            import bisect as _bisect

            def range_may_match(e, f):
                r = ranges_by_key[e["key"]].get(f)
                if r is None:
                    return True
                vals = e["values"]  # stored sorted at commit
                i = _bisect.bisect_left(vals, r[0])
                return i < len(vals) and vals[i] <= r[1]

            for f in m["files"]:
                ents = self._eq_entries_for(eq, fv.get(f, 0))
                present = set(schemas[f]) | added_names
                ents = [
                    e
                    for e in ents
                    # a key absent from the file is NULL → never matches
                    if e["key"] in present and range_may_match(e, f)
                ]
                if not ents:
                    rows = pq.ParquetFile(f).metadata.num_rows
                    d = deletes.get(f)
                    if d is not None:
                        rows -= pq.ParquetFile(d).metadata.num_rows
                    n += rows
                else:
                    keys = sorted({e["key"] for e in ents})
                    _, fill_types = self._canonical_layout([f], added, keys)
                    n += self._load_file_table(
                        f, deletes.get(f), added, keys, fill_types, ents
                    ).num_rows
        self._count_cache[v] = n
        return n

    # -- maintenance -------------------------------------------------------
    def gc(self, keep_versions: int = 1) -> int:
        """Remove data files not referenced by the newest ``keep_versions``
        manifests (crashed-iteration txn garbage + compacted-away
        versions + superseded deletion vectors). Returns the number of
        files removed."""
        latest = self.latest_version()
        versions = set(range(max(1, latest - keep_versions + 1), latest + 1))
        versions.update(self._load_refs().values())  # tagged versions stay readable
        keep = set()
        for v in versions:
            if not os.path.exists(self._manifest_path(v)):
                continue
            m = self._load_manifest(v)
            keep.update(m["files"])
            keep.update((m.get("deletes") or {}).values())
        removed = 0
        del_dir = os.path.join(self.path, "deletes")
        for top in (self.data_dir, del_dir):
            for root, _dirs, files in os.walk(top, topdown=False):
                for f in files:
                    path = os.path.join(root, f)
                    if f.endswith(".parquet") and path not in keep:
                        os.remove(path)
                        removed += 1
                if root != top and not os.listdir(root):
                    os.rmdir(root)
        # drop zone-map cache entries for files that no longer exist
        # (and crashed-write .tmp leftovers — gc must never choke on them)
        self._stats_memo.clear()
        stats_dir = os.path.join(self.path, "_stats")
        if os.path.isdir(stats_dir):
            for f in os.listdir(stats_dir):
                p = os.path.join(stats_dir, f)
                if not f.endswith(".json"):
                    if ".tmp-" in f:
                        os.remove(p)
                    continue
                with open(p) as fh:
                    cache = json.load(fh)
                live = {k: v for k, v in cache.items() if os.path.exists(k)}
                if len(live) != len(cache):
                    tmp = p + f".tmp-{uuid.uuid4().hex[:8]}"
                    with open(tmp, "w") as fh:
                        json.dump(live, fh)
                    os.replace(tmp, p)
        return removed

    def prune_manifests(self, keep: int = 16) -> int:
        """Drop version-history manifests older than the newest ``keep``
        (long-soak bound on _versions/ growth; data files referenced
        only by pruned manifests become gc()-able)."""
        latest = self.latest_version()
        tagged = set(self._load_refs().values())
        removed = 0
        for f in os.listdir(self.versions_dir):
            if not f.endswith(".json"):
                continue
            v = int(f[1:].split(".")[0])
            if v <= latest - keep and v not in tagged:
                os.remove(os.path.join(self.versions_dir, f))
                removed += 1
        return removed

    # -- upsert -----------------------------------------------------------
    def merge_insert(self, data: "rd.Dataset | pa.Table", key: str, meta: dict | None = None) -> int:
        """Last-wins upsert by ``key``, the reference ``ON CONFLICT DO
        UPDATE``: an incoming row replaces its key's stored row in the
        columns it carries and keeps the stored values in the columns it
        lacks; a new key gets nulls there, or the ``add_column``
        default. Of repeated incoming keys the last row wins. The table
        keeps its stored column order and types (incoming columns it
        lacks are dropped).

        Above ``fits_driver`` the stored rows stream through a Dataset
        into the rewrite, and the lacking columns come from ``lookup``.
        At or below it only the partitions the incoming keys hash to are
        read and rewritten; a table without a recorded layout on
        ``key``, or with untagged files, is one partition."""
        import numpy as np
        import pyarrow.compute as pc

        incoming = data if isinstance(data, pa.Table) else _ds_to_arrow(data)
        keys = incoming[key]
        if keys.null_count:
            # fail loud: "upsert by null" has no last-wins meaning
            raise ValueError(f"merge_insert: null values in key column {key!r}")
        # last-wins dedup by key: one distinct-count kernel decides; the
        # per-key last row index is grouped only when keys repeat
        if pc.count_distinct(keys).as_py() < len(keys):
            last = (
                pa.table({"k": keys, "i": np.arange(len(keys))})
                .group_by("k", use_threads=False)
                .aggregate([("i", "max")])["i_max"]
            )
            incoming = incoming.take(pa.array(np.sort(last.to_numpy())))

        parent = self.latest_version()
        m = self._load_manifest(parent)
        if not m["files"]:
            files, layout = self._write(incoming, None)
            return self._commit(files, meta, parent, eq_deletes=[], layout=layout)
        schema = self.schema(parent)
        carried = [f for f in schema if f.name in incoming.column_names]
        incoming = incoming.select([f.name for f in carried]).cast(pa.schema(carried))
        added = m.get("added_columns") or []

        if not self.fits_driver():
            # 10^10-row route: survivors stay a Dataset end to end —
            # filtered blocks stream straight into the write tasks; the
            # driver holds only the incoming rows and their stored matches
            lacking = [n for n in schema.names if n not in incoming.column_names]
            stored = (
                self.lookup(key, incoming[key].to_pylist(), columns=[key] + lacking)
                if lacking
                else None
            )
            incoming = self._fill_lacking(incoming, stored, key, schema, added)
            new_keys = incoming[key].combine_chunks()

            def drop_updated(batch: pa.Table) -> pa.Table:
                return batch.filter(pc.invert(pc.is_in(batch[key], value_set=new_keys)))

            merged = self.read(parent).map_batches(drop_updated, batch_format="pyarrow")
            files = self._write_data(merged.union(rd.from_arrow(incoming)))
            return self._commit(files, meta, parent, eq_deletes=[])

        layout = m.get("layout")
        groups = (
            self._partitioned_layout(m["files"])
            if layout and layout["key"] == key
            else None
        )
        if groups is None:
            touched = {None: (m["files"], incoming)}
        else:
            parts = self._part_ids(incoming, layout)
            touched = {
                int(p): (groups.get(int(p), []), incoming.filter(pa.array(parts == p)))
                for p in np.unique(parts)
            }
        load = self._file_loader(m, None)
        merged: dict = {}
        for p, (files, inc) in touched.items():
            stored = (
                pa.concat_tables([load(f) for f in files], promote_options="default")
                if files
                else schema.empty_table()
            )
            inc = self._fill_lacking(inc, stored, key, schema, added)
            survivors = stored.filter(
                pc.invert(pc.is_in(stored[key], value_set=inc[key].combine_chunks()))
            )
            merged[p] = pa.concat_tables([survivors, inc], promote_options="default")
        if groups is None:
            # every file rewritten, with the equality deletes applied
            files, layout = self._write(merged[None], layout)
            return self._commit(files, meta, parent, eq_deletes=[], layout=layout)
        kept = [f for p, fs in groups.items() if p not in touched for f in fs]
        return self._commit(
            sorted(kept + self._write_parts(list(merged.items()))), meta, parent,
            deletes=m.get("deletes"),
        )

    def _fill_lacking(
        self,
        inc: pa.Table,
        stored: pa.Table | None,
        key: str,
        schema: pa.Schema,
        added: list[dict],
    ) -> pa.Table:
        """``inc`` in ``schema``: a column it lacks takes the value of the
        row's key in ``stored`` (which holds ``key`` and those columns);
        a key ``stored`` lacks gets null, or the column's ``add_column``
        default."""
        import pyarrow.compute as pc

        lacking = [n for n in schema.names if n not in inc.column_names]
        if not lacking:
            return inc
        pos = pc.index_in(inc[key], value_set=stored[key].combine_chunks())
        known = pc.is_valid(pos)
        defaults = self._fill_added(inc.select([key]), added, lacking)
        for n in lacking:
            vals = stored[n].take(pos)
            if n in defaults.column_names:
                vals = pc.if_else(known, vals, defaults[n])
            inc = inc.append_column(schema.field(n), vals)
        return inc.select(schema.names)


def ds_to_table_refs(ds: "rd.Dataset") -> list:
    """Execute a Dataset exactly once and return block REFS (no driver
    pull). Same single-execution rationale as ds_to_tables; use for
    block-parallel follow-up work (e.g. iterative graph shards) where
    the blocks must stay in the object store. to_arrow_refs can still
    pass through column-less pandas blocks unconverted (ray 2.49) —
    consumers of these refs must run each block through
    ``block_to_table`` before touching Table attributes."""
    return ds.materialize().to_arrow_refs()


def block_to_table(t) -> pa.Table:
    """Normalize a block ref payload to an Arrow table. Ray 2.49's
    to_arrow_refs passes empty column-less pandas blocks (out of pandas
    groupby().map_groups) through UNCONVERTED; any remote consumer that
    does ``t.num_rows`` on a raw block must call this first."""
    if isinstance(t, pa.Table):
        return t
    import pandas as pd

    if isinstance(t, pd.DataFrame):
        return pa.Table.from_pandas(t, preserve_index=False)
    return pa.table(dict(t))


def ds_to_tables(ds: "rd.Dataset") -> list[pa.Table]:
    """Execute a Dataset exactly once and return its blocks.

    ``Dataset.to_arrow_refs()`` on a lazy dataset runs the pipeline
    TWICE in Ray 2.49 (an eager schema pass plus the real execution) —
    fatal for stages with side-effecting sinks and a silent 2× cost
    everywhere else. ``materialize()`` runs once; refs off the
    materialized dataset are then free.
    """
    mat = ds.materialize()
    return [block_to_table(t) for t in ray.get(mat.to_arrow_refs())]


def cpu_slots() -> int:
    """The Ray cluster's CPU count: how many tasks run at once."""
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def blocks_dataset(tables: "pa.Table | list[pa.Table]") -> "rd.Dataset":
    """One block per table, whose blocks run side by side, in order.

    ``rd.from_blocks`` (a ``DeveloperAPI`` in Ray 2.49) reads each
    block's metadata and schema on the driver, which already holds the
    tables; ``rd.from_arrow`` starts one Ray task per block to read them.

    Ray Data 2.49 reserves object store per operator
    (``op_resource_reservation_enabled``, ratio 0.5) and, until a task
    has produced output, budgets it at about ``target_max_block_size``
    (128 MiB). On a 512 MiB object store that budget admits ONE task of
    the operator at a time, so the blocks of a fused one-operator map
    over driver-held tables queue behind each other while CPUs idle.
    Such a plan has nothing to reserve for: it is a single operator fed
    from memory, with no downstream operator. Backpressure still applies
    through the non-reservation object-store limit. So reservation is
    switched off here, and ``preserve_order`` keeps the pulled result in
    block order rather than completion order. Both flags go on this
    Dataset's own ``ds.context`` (a copy, shared by the maps chained on
    it); the process-global ``DataContext`` is left untouched.
    """
    ds = rd.from_blocks([tables] if isinstance(tables, pa.Table) else tables)
    ds.context.op_resource_reservation_enabled = False
    ds.context.execution_options.preserve_order = True
    return ds


def _ds_to_arrow(ds: "rd.Dataset") -> pa.Table:
    tables = ds_to_tables(ds)
    tables = [t for t in tables if t.num_rows] or tables[:1]
    return pa.concat_tables(tables, promote_options="default")
