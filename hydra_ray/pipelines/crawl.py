"""The crawl loop: frontier → politeness → fetch → checks → analysis → docs.

Ray-Data-native equivalent of the reference's three cooperating
processes (crawler loop crawl/__init__.py:27-37, RQ workers, webhook
sender): one iteration is a single streaming Dataset pipeline over the
selected batch, with all shared state in actor pools
(politeness/URL-seen) and versioned tables (catalog checkpoint, checks
log, interleaved documents, payloads, metrics).

Determinism contract (replaces the reference's wall clock + ORDER BY
random()): a virtual clock ``t0 + iteration * SLEEP_BETWEEN_BATCHES``
and the seeded rank ordering (stages/frontier.py). Under a fixed seed
the sequence of (iteration, tier, resource) selections, politeness
decisions, check rows and span documents is a pure function of the
seed catalog — at any parallelism level, which is what the scaling
benchmark and the cross-parallelism parity test assert.

Checkpoint/resume: every iteration commits (a) the merged catalog
version carrying last-check columns + frontier cursor in the manifest
meta, (b) appended checks/docs/payloads/metrics versions, (c) the
politeness + cuckoo shard state serialized next to the manifest. A
killed run resumes from the last committed iteration (see
``CrawlEngine.resume``/tests/test_crawler/test_resume.py).
"""

from __future__ import annotations

import json
import os
import pickle
from datetime import datetime, timezone

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from hydra_ray.config import config
from hydra_ray.functions.urls import canonicalize_batch
from hydra_ray.sources.store import VersionedTable, _ds_to_arrow
from hydra_ray.stages.analysis import Analyser
from hydra_ray.stages.checks_stage import build_checks_batch
from hydra_ray.stages.fetcher import Fetcher
from hydra_ray.stages.frontier import select_batch
from hydra_ray.stages.sinks import IterationSink
from hydra_ray.state.politeness import PolitenessPool
from hydra_ray.state.urlseen import UrlSeenPool

VIRTUAL_T0 = datetime(2026, 1, 1, 0, 0, 0)  # virtual clock origin (naive UTC)


class ResourceDeleted(KeyError):
    """Raised for on-demand checks of tombstoned resources (the API maps
    it to 410 Gone). A dedicated type — classifying by exception text
    would misfire on a resource id that happens to contain the text."""


class CrawlEngine:
    def __init__(
        self,
        workdir: str,
        seed: int | None = None,
        transport: dict | None = None,
        batch_size: int | None = None,
        fetch_concurrency: int | None = None,
        urlseen_shards: int | None = None,
        urlseen_capacity: int = 1 << 18,  # per shard; size to frontier/shards at scale
        politeness_shards: int | None = None,
        politeness_kwargs: dict | None = None,
        actor_pools: bool = True,
        analysis_content_rows: int = 200,
        resource_exceptions: set | None = None,
        partition_by_domain: bool = False,
        robots: bool = False,
        catalog_parts: int = 16,
        catalog_partition_min_rows: int = 50_000,
        analysis_config: dict | None = None,
    ):
        # robots.txt gate in the fetch stage (north-rule component)
        self.robots = robots
        # hash-partition fetch blocks by domain with hot-host salting
        # (stages/partitioning.py) instead of row-range slicing — the
        # multi-node layout (connection reuse per partition, skew bounded)
        self.partition_by_domain = partition_by_domain
        self.analysis_content_rows = analysis_content_rows
        # config-flag overrides (DB_TO_PARQUET, OGC_ANALYSIS_ENABLED, …)
        # shipped to the analyse workers via fn_constructor_kwargs —
        # driver-side config_override is invisible in Ray workers
        self.analysis_config = analysis_config or {}
        # per-resource overrides (size-cap exemptions), J3 broadcast side
        self.resource_exceptions = resource_exceptions or set()
        # actor_pools=False runs fetch/analyse as stateless tasks — faster
        # startup for tiny batches (tests); production keeps actor pools so
        # per-actor state (HTTP session) is created once.
        self.actor_pools = actor_pools
        self.workdir = workdir
        self.seed = config.ORDERING_SEED if seed is None else seed
        self.batch_size = batch_size or config.BATCH_SIZE
        self.fetch_concurrency = fetch_concurrency or config.FETCH_CONCURRENCY
        self.transport = transport or {"kind": "synthetic"}
        os.makedirs(os.path.join(workdir, "state"), exist_ok=True)
        # hash-partitioned checkpoint files (above the row threshold):
        # merge_insert rewrites only the partitions an iteration touches,
        # so per-iteration checkpoint I/O is O(checked rows), not O(frontier)
        self.catalog = VersionedTable(
            os.path.join(workdir, "catalog"),
            partition_key="resource_id",
            n_parts=catalog_parts,
            partition_min_rows=catalog_partition_min_rows,
        )
        self.checks = VersionedTable(os.path.join(workdir, "checks"))
        self.documents = VersionedTable(os.path.join(workdir, "documents"))
        self.payloads = VersionedTable(os.path.join(workdir, "payloads"))
        self.metrics = VersionedTable(os.path.join(workdir, "metrics"))
        self.tables_index = VersionedTable(os.path.join(workdir, "tables_index"))
        self.urlseen = UrlSeenPool.create(
            n_shards=urlseen_shards or config.URLSEEN_SHARDS,
            capacity_per_shard=urlseen_capacity,
        )
        self.politeness = PolitenessPool.create(
            n_shards=politeness_shards or config.POLITENESS_SHARDS, **(politeness_kwargs or {})
        )
        self.iteration = int(self.catalog.meta().get("iteration", 0))
        # tombstones already purged this engine lifetime (resume
        # re-purges once — idempotent, see purge_deleted_resources)
        self._purged_resource_ids: set[str] = set()
        # driver-side frontier cache: the catalog table stays in driver
        # memory between iterations while it fits (same kernels, no
        # per-iteration Ray execution); the distributed Dataset path is
        # used automatically beyond CACHE_MAX_ROWS — the 10^10-row shape.
        self._frontier_cache: pa.Table | None = None
        self._maybe_restore_state()

    def shutdown(self) -> None:
        """Kill the state actors (tests create many engines per session)."""
        import ray

        for actor in self.urlseen.shards + self.politeness.shards:
            try:
                ray.kill(actor)
            except Exception:
                pass

    # -- time -------------------------------------------------------------
    def now_dt(self, iteration: int | None = None) -> datetime:
        from datetime import timedelta

        it = self.iteration if iteration is None else iteration
        return VIRTUAL_T0 + timedelta(seconds=it * config.SLEEP_BETWEEN_BATCHES)

    def now_epoch(self, iteration: int | None = None) -> float:
        return self.now_dt(iteration).replace(tzinfo=timezone.utc).timestamp()

    # -- catalog ingest (S1) ----------------------------------------------
    def load_catalog(self, seed: "rd.Dataset | pa.Table") -> int:
        """Canonicalize + URL-seen dedup + upsert into the catalog table.

        Mirrors cli/catalog.py:20-98: rows already present (by url/
        resource_id) are updated, new ones inserted; the URL-seen cuckoo
        shards learn every canonical url_key.
        """
        if isinstance(seed, pa.Table):
            seed_cols = set(seed.schema.names)
            seed_ds = rd.from_arrow(seed)
        else:
            seed_ds = seed
            seed_cols = set(seed_ds.schema().names)
        canon = seed_ds.map_batches(canonicalize_batch, batch_format="pyarrow")
        canon = canon.map_batches(_add_frontier_columns, batch_format="pyarrow")
        tbl = _ds_to_arrow(canon)
        # register every url in the seen set; first-wins dedup inside the load
        keys = tbl["url_key"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_new = self.urlseen.add_if_new(keys)
        if self.catalog.is_empty():
            tbl = tbl.filter(pa.array(is_new))
            self.catalog.overwrite(tbl, meta={"iteration": self.iteration})
            self._frontier_cache = tbl if tbl.num_rows <= self.CACHE_MAX_ROWS else None
        else:
            # re-loads refresh existing rows (upsert by resource_id) and
            # add new ones — with the SAME URL-uniqueness contract as the
            # fresh-load path: a row is kept iff its URL is new OR its
            # resource_id already exists (a refresh of itself). Without
            # this, a reload could insert a second resource pointing at
            # an already-seen URL. Above the driver-merge threshold the
            # membership probe reads only the incoming ids' rows — the
            # full id column never reaches the driver.
            from hydra_ray.sources.store import DRIVER_MERGE_MAX_ROWS

            if self.catalog.count() <= DRIVER_MERGE_MAX_ROWS:
                existing = self.catalog.read_arrow(columns=["resource_id"])["resource_id"]
            else:
                existing = _ds_to_arrow(
                    self.catalog.read_where(
                        "resource_id", tbl["resource_id"].to_pylist(), columns=["resource_id"]
                    )
                )["resource_id"]
            known_rid = pc.is_in(
                tbl["resource_id"],
                value_set=existing.combine_chunks()
                if isinstance(existing, pa.ChunkedArray)
                else existing,
            )
            keep = pc.or_(pa.array(is_new), known_rid)
            tbl = tbl.filter(keep)
            # a reload refreshes seed METADATA but must not reset crawl
            # state: merge_insert is a full-row last-wins replace and the
            # incoming rows carry NULL/default state columns (filled by
            # _add_frontier_columns) — without this overlay, every reload
            # reverted the whole frontier to tier-2 "never checked" and
            # fired a change-detection re-parse storm. State a caller
            # EXPLICITLY provides in the seed still wins.
            preserve = [c for c in self._STATE_COLS if c not in seed_cols]
            tbl = self._carry_stored_columns(tbl, preserve, live_only=True)
            self.catalog.merge_insert(tbl, key="resource_id", meta={"iteration": self.iteration})
            self._frontier_cache = None
        if self._purged_resource_ids:
            # a re-registered resource is live again: it must escape the
            # purge lifetime skip, or documents it re-creates (in files
            # NEWER than the old equality-delete entry) leak past every
            # later purge until a restart
            self._purged_resource_ids.difference_update(
                tbl["resource_id"].to_pylist()
            )
        self._save_state()
        return self.catalog.count()

    # -- one iteration -----------------------------------------------------
    def run_iteration(self) -> dict:
        import time as _time

        profile = bool(os.environ.get("HYDRA_PROFILE"))
        marks: dict[str, float] = {}
        _last = _time.time()

        def mark(name: str) -> None:
            nonlocal _last
            if profile:
                now_t = _time.time()
                marks[f"t_{name}"] = round(now_t - _last, 2)
                _last = now_t

        it = self.iteration
        now = self.now_dt(it)
        now64 = np.datetime64(now, "us")
        now_epoch = self.now_epoch(it)

        frontier = self._frontier()
        selected = select_batch(frontier, it, now64, batch_size=self.batch_size, seed=self.seed)
        # one contiguous buffer before slicing into blocks: ray.put of a
        # slice over a many-chunked table pays per-chunk serialization
        # costs × n_blocks (10s+ on a freshly concat-loaded catalog)
        selected = selected.combine_chunks()
        mark("select")
        stats = {"iteration": it, "selected": selected.num_rows}
        if selected.num_rows == 0:
            self._finish_iteration([], stats)
            return stats

        # politeness: deterministic per-iteration quota per domain, applied
        # in crawl (rank) order — selected is already sorted by (tier, rank)
        domains = selected["domain"].to_pylist()
        dom_counts: dict[str, int] = {}
        for d in domains:
            dom_counts[d] = dom_counts.get(d, 0) + 1
        allowed = self.politeness.reserve(list(dom_counts.items()), now_epoch)
        # first `allowed[d]` rows per domain in crawl (rank) order — vectorized
        dom_series = pd.Series(domains)
        cum = dom_series.groupby(dom_series).cumcount().to_numpy()
        quota = dom_series.map(allowed).fillna(0).to_numpy()
        allow_mask = cum < quota
        backoff_rows = selected.filter(pa.array(~allow_mask))
        fetch_rows = selected.filter(pa.array(allow_mask))
        stats["backoff"] = backoff_rows.num_rows
        mark("politeness")

        updates: list[pa.Table] = []
        if backoff_rows.num_rows:
            updates.append(_frontier_update_backoff(backoff_rows, now))

        if fetch_rows.num_rows:
            # fine-grained fixed block budget: identical work decomposition
            # at every parallelism level (scaling measurements compare like
            # with like) and good straggler balance — content sizes vary
            # ~30× between resources
            n_blocks = max(1, min(128, max(self.fetch_concurrency * 4, fetch_rows.num_rows // 256 + 1)))
            if self.partition_by_domain:
                from hydra_ray.stages.partitioning import detect_hot_domains, partition_slices

                hot = detect_hot_domains(fetch_rows, n_blocks)
                slices = partition_slices(fetch_rows, n_blocks, hot_domains=hot)
            else:
                # pre-slice into row-range blocks on the driver:
                # from_arrow(list) makes one block per table, no shuffle
                step = -(-fetch_rows.num_rows // n_blocks)
                slices = [fetch_rows.slice(i, step) for i in range(0, fetch_rows.num_rows, step)]
            ds = rd.from_arrow(slices)
            pool_kw = dict(batch_format="pyarrow", batch_size=config.FETCH_BATCH_SIZE)
            # autoscaling (1, N) pools: two pools in one pipeline must never
            # reserve more CPUs than the node has (a fixed pool larger than
            # the free CPUs deadlocks the streaming executor)
            pool_n = max(1, min(self.fetch_concurrency, n_blocks))
            fetch_kwargs = {
                "transport": self.transport,
                "udata_uri": config.UDATA_URI,
                "robots": self.robots,
            }
            if self.actor_pools:
                ds = ds.map_batches(
                    Fetcher,
                    fn_constructor_kwargs=fetch_kwargs,
                    concurrency=(1, pool_n),
                    **pool_kw,
                )
            else:
                ds = ds.map_batches(Fetcher(**fetch_kwargs), **pool_kw)
            ds = ds.map_batches(
                lambda b: build_checks_batch(b, iteration=it, now=now.replace(tzinfo=timezone.utc)),
                batch_format="pyarrow",
            )
            analyse_kwargs = {
                "transport": self.transport,
                "content_rows": self.analysis_content_rows,
                "exceptions": self.resource_exceptions,
                "exports_dir": os.path.join(self.workdir, "exports"),
                "config_overrides": self.analysis_config,
            }
            if self.actor_pools:
                ds = ds.map_batches(
                    Analyser,
                    fn_constructor_kwargs=analyse_kwargs,
                    concurrency=(1, pool_n),
                    **pool_kw,
                )
            else:
                ds = ds.map_batches(Analyser(**analyse_kwargs), **pool_kw)

            # per-block distributed sinks: checks / payloads / span docs are
            # written by the workers; only slim frontier columns reach the
            # driver (the heavy spans + payload strings never move)
            tag = f"iter{it}"
            checks_txn = self.checks.new_txn_dir(tag=tag)
            payloads_txn = self.payloads.new_txn_dir(tag=tag)
            docs_txn = self.documents.new_txn_dir(tag=tag)
            tables_txn = self.tables_index.new_txn_dir(tag=tag)
            ds = ds.map_batches(
                IterationSink(checks_txn, payloads_txn, docs_txn, it, tables_dir=tables_txn),
                batch_format="pyarrow",
            )
            result = _ds_to_arrow(ds)
            mark("pipeline")

            # commit the part files written by the sink stage + record
            # per-partition lineage (file, row-count) into metrics.
            # replace_tag: a crash between this commit and the catalog
            # meta advance reruns the iteration; the rerun regenerates
            # the complete deterministic row set, so its files SUPERSEDE
            # every file the crashed attempt registered under this
            # iteration's tag — exact even when ray's dynamic block
            # splitting cuts the rerun at different block boundaries
            # (a basename skip would duplicate boundary-straddling rows)
            checks_files = _txn_files(checks_txn)
            self.checks.register_files(checks_files, replace_tag=tag)
            self.payloads.register_files(_txn_files(payloads_txn), replace_tag=tag)
            self.documents.register_files(_txn_files(docs_txn), replace_tag=tag)
            self.tables_index.register_files(_txn_files(tables_txn), replace_tag=tag)
            self._record_lineage(it, checks_files, now)
            mark("register")

            # frontier updates
            updates.append(_frontier_update_fetched(result, now))

            # 5. politeness bookkeeping: per-domain completed counts + the
            # latest check's status/ratelimit headers (by max check_id —
            # deterministic under any block ordering)
            self.politeness.record_agg(_politeness_records(result), now_epoch)
            mark("record")

            for o in ("ok", "timeout", "error"):
                stats[o] = int(
                    pc.sum(pc.cast(pc.equal(result["outcome"], o), pa.int32())).as_py() or 0
                )
            stats["parsed"] = int(pc.sum(pc.cast(result["do_parse"], pa.int32())).as_py() or 0)
            stats["changed"] = int(
                pc.sum(pc.cast(result["has_changed"], pa.int32())).as_py() or 0
            )

        if profile:
            stats.update(marks)
        self._finish_iteration(updates, stats)
        if profile:
            import time as _t2
            stats["t_finish"] = round(_t2.time() - _last, 2)
        return stats

    def run(self, iterations: int = 1) -> list[dict]:
        return [self.run_iteration() for _ in range(iterations)]

    def run_continuous(
        self,
        iterations: int | None = None,
        gc_every: int = 25,
        keep_versions: int = 2,
        keep_state: int = 3,
        stop_when_drained: bool = False,
        compact_every: int = 0,
        purge_deleted_every: int = 0,
    ) -> list[dict]:
        """The streaming driver loop (``run(iterations=∞)``):
        crawl → checkpoint → periodic compaction + GC, forever (or
        ``iterations``). GC keeps disk and driver state bounded across
        unbounded soaks: superseded catalog + documents versions and
        orphaned txn dirs are reclaimed, old manifests and
        per-iteration state pickles pruned. ``compact_every`` rewrites
        the append-only documents table to one row per doc_id
        (merge-on-read → merge-on-write), bounding read amplification
        under re-parse churn; a crash mid-compaction is harmless —
        uncommitted txn part files are invisible and gc()-able.

        ``purge_deleted_every`` is the reference's periodic purge job
        (cli/purge.py drop-data-of-deleted-resources) inside the loop:
        every Nth iteration, documents of newly-tombstoned catalog
        resources are dropped via ONE O(1) equality-delete commit;
        compaction (``compact_every``, which should be a multiple)
        resolves the entries, bounding their number. Idempotent across
        resume: re-purging an already-purged tombstone is harmless
        (tombstoned resources never re-enter the frontier)."""
        stats: list[dict] = []
        i = 0
        while iterations is None or i < iterations:
            s = self.run_iteration()
            stats.append(s)
            i += 1
            if purge_deleted_every and i % purge_deleted_every == 0:
                s["purged"] = self.purge_deleted_resources()
            if compact_every and i % compact_every == 0:
                self.compact_documents()
            if gc_every and i % gc_every == 0:
                self.gc(keep_versions=keep_versions, keep_state=keep_state)
            if stop_when_drained and s.get("selected", 0) == 0:
                break
        return stats

    def purge_deleted_resources(self) -> int:
        """Purge documents of catalog-tombstoned resources not yet
        purged this engine lifetime (one deferred equality-delete
        commit for the batch). Returns the number of newly purged
        resource ids."""
        if self.catalog.is_empty() or self.documents.is_empty():
            return 0
        # pending-entry coverage, VERSION-AWARE (doc_id → newest entry
        # version): an entry only deletes rows in files strictly older
        # than it (sequence rule), so "already purged" must mean "no
        # live file at-or-after the entry may contain the doc" — a
        # resource re-registered live writes NEWER files that escape
        # the old entry and needs a fresh one when re-tombstoned.
        covered: dict[str, int] = {}
        for e in self.documents.pending_eq_deletes():
            if e["key"] == "doc_id":
                for v in e["values"]:
                    s = str(v)
                    if e["at_version"] > covered.get(s, -1):
                        covered[s] = e["at_version"]
        if self._frontier_cache is not None:
            cat = self._frontier_cache
            mask = pc.fill_null(cat["deleted"], False)
            deleted = set(cat.filter(mask)["resource_id"].to_pylist())
        elif self.catalog.count() <= self.CACHE_MAX_ROWS:
            cat = self.catalog.read_arrow(columns=["resource_id", "deleted"])
            mask = pc.fill_null(cat["deleted"], False)
            deleted = set(cat.filter(mask)["resource_id"].to_pylist())
        else:
            # 10^10-frontier path: stream the scan, pull only tombstones
            from hydra_ray.sources.store import _ds_to_arrow

            def only_deleted(t: pa.Table) -> pa.Table:
                return t.filter(pc.fill_null(t["deleted"], False)).select(
                    ["resource_id"]
                )

            tomb = _ds_to_arrow(
                self.catalog.read(columns=["resource_id", "deleted"]).map_batches(
                    only_deleted, batch_format="pyarrow"
                )
            )
            deleted = set(tomb["resource_id"].to_pylist())
        # a resource observed live again (re-registered after a purge)
        # must escape the lifetime skip: documents it re-creates postdate
        # the old entry and would otherwise leak past every later purge
        self._purged_resource_ids &= deleted
        todo = sorted(deleted - self._purged_resource_ids)
        n_live = 0
        if todo:
            # per-tombstone liveness: an entry is needed iff some live
            # file (a) may contain the doc_id (zone-map containment) and
            # (b) is NOT covered by a pending entry — i.e. its commit
            # version is at/after the entry (unknown version = oldest =
            # covered, matching _eq_entries_for). Bounds entry growth
            # across restarts AND re-admits re-tombstoned resurrections.
            files = self.documents.files()
            ranges = self.documents.file_key_ranges(files, "doc_id")
            fv = self.documents._load_manifest().get("file_versions") or {}
            live = []
            for rid in todo:
                v_cov = covered.get(rid)
                for f in files:
                    r = ranges[f]
                    if r is not None and not (r[0] <= rid <= r[1]):
                        continue  # file can't contain the doc
                    fver = fv.get(f)
                    if v_cov is not None and (fver is None or fver < v_cov):
                        continue  # covered by the pending entry
                    live.append(rid)
                    break
            if live:
                self.purge_documents(live, defer=True)
            n_live = len(live)
        self._purged_resource_ids |= deleted
        return n_live

    def gc(self, keep_versions: int = 2, keep_state: int = 3) -> dict:
        """Reclaim storage: superseded catalog versions (the only table
        whose versions rewrite data), stale manifests on every table,
        orphaned txn dirs, and old state pickles. Append-only tables
        (checks/documents/...) lose no data — their latest manifest
        references every live file."""
        import glob as _glob

        removed = {"catalog_files": self.catalog.gc(keep_versions=keep_versions)}
        # documents is append-only (gc is a no-op) UNTIL a compaction
        # supersedes the pre-compaction versions — reclaim those too
        removed["documents_files"] = self.documents.gc(keep_versions=max(keep_versions, 2))
        pruned = 0
        for table in (
            self.catalog,
            self.checks,
            self.documents,
            self.payloads,
            self.metrics,
            self.tables_index,
        ):
            pruned += table.prune_manifests(keep=max(keep_versions, 8))
        removed["manifests"] = pruned
        import shutil as _shutil

        committed = self._committed_states()
        keep = set(committed[-keep_state:]) if keep_state else set()
        newest_it = self._state_iteration(committed[-1]) if committed else -1
        pruned_state = 0
        for p in _glob.glob(os.path.join(self.workdir, "state", "iter*")):
            if p in keep:
                continue
            if p in committed:
                pass  # superseded committed checkpoint → prune
            elif os.path.isdir(p) and self._state_iteration(p) >= newest_it:
                continue  # in-flight/aborted save newer than any commit: leave it
            (_shutil.rmtree if os.path.isdir(p) else os.remove)(p)
            pruned_state += 1
        removed["state_files"] = pruned_state
        return removed

    def check_resource_now(self, resource_id: str) -> dict:
        """On-demand synchronous check for one resource — the engine's
        ``POST /api/checks`` equivalent (reference routes/checks.py:59-96:
        an API request triggers an immediate check outside the crawl
        loop). Runs the same fetch → check-build → analyse → sink stages
        inline on the single row, commits the check, updates politeness
        counters and upserts the frontier columns (so the row leaves the
        'unchecked' tier and the loop won't re-check it this iteration).
        Returns the check row as a dict."""
        frontier = self._frontier()
        if not isinstance(frontier, pa.Table):
            frontier = _ds_to_arrow(
                frontier.map_batches(
                    lambda t: t.filter(pc.equal(t["resource_id"], resource_id)),
                    batch_format="pyarrow",
                )
            )
            row = frontier
        else:
            row = frontier.filter(pc.equal(frontier["resource_id"], resource_id))
        if row.num_rows == 0:
            raise KeyError(f"resource {resource_id!r} not in catalog")
        if "deleted" in row.column_names and bool(
            pc.fill_null(row["deleted"], False)[0].as_py()
        ):
            # reference routes/checks.py: a deleted resource is Gone —
            # checking it would recreate documents that escape the
            # already-committed purge entries (sequence rule)
            raise ResourceDeleted(f"resource {resource_id!r} is deleted")
        it = self.iteration
        now = self.now_dt(it)
        fetch_kwargs = {
            "transport": self.transport,
            "udata_uri": config.UDATA_URI,
            "robots": self.robots,
        }
        analyse_kwargs = {
            "transport": self.transport,
            "content_rows": self.analysis_content_rows,
            "exceptions": self.resource_exceptions,
            "exports_dir": os.path.join(self.workdir, "exports"),
            "config_overrides": self.analysis_config,
        }
        b = Fetcher(**fetch_kwargs)(row)
        b = build_checks_batch(b, iteration=it, now=now.replace(tzinfo=timezone.utc))
        b = Analyser(**analyse_kwargs)(b)
        checks_txn = self.checks.new_txn_dir()
        payloads_txn = self.payloads.new_txn_dir()
        docs_txn = self.documents.new_txn_dir()
        tables_txn = self.tables_index.new_txn_dir()
        result = IterationSink(checks_txn, payloads_txn, docs_txn, it, tables_dir=tables_txn)(b)
        self.checks.register_files(_txn_files(checks_txn), skip_existing_basenames=True)
        self.payloads.register_files(_txn_files(payloads_txn), skip_existing_basenames=True)
        self.documents.register_files(_txn_files(docs_txn), skip_existing_basenames=True)
        self.tables_index.register_files(_txn_files(tables_txn), skip_existing_basenames=True)
        self.politeness.record_agg(_politeness_records(result), self.now_epoch(it))
        upd = _frontier_update_fetched(result, now)
        cache = self._frontier_cache
        missing = [
            c
            for c in (
                cache.column_names
                if cache is not None
                else (self.catalog.schema().names if not self.catalog.is_empty() else [])
            )
            if c not in upd.column_names
        ]
        upd = self._carry_stored_columns(upd, missing)
        if cache is not None:
            survivors = cache.filter(
                pc.invert(pc.is_in(cache["resource_id"], value_set=upd["resource_id"].combine_chunks() if isinstance(upd["resource_id"], pa.ChunkedArray) else upd["resource_id"]))
            )
            upd_cast = upd.select(survivors.column_names).cast(survivors.schema)
            self._frontier_cache = pa.concat_tables([survivors, upd_cast])
        self.catalog.merge_insert(upd, key="resource_id", meta={"iteration": it})
        # the on-demand check advanced politeness actor state; checkpoint
        # it so a crash before the next iteration resumes the SAME
        # per-domain window timeline the committed check row implies
        self._save_state()
        check = {
            "check_id": int(result["check_id"][0].as_py()),
            "resource_id": result["resource_id"][0].as_py(),
            "url": result["url"][0].as_py(),
            "status": result["check_status"][0].as_py(),
            "timeout": result["check_timeout"][0].as_py(),
            "error": result["check_error"][0].as_py(),
            "checksum": result["checksum"][0].as_py(),
            "filesize": result["filesize"][0].as_py(),
            "mime_type": result["mime_type"][0].as_py(),
            "next_check_at": result["next_check_at"][0].as_py(),
        }
        return check

    def invalidate_frontier_cache(self) -> None:
        """MUST be called by any out-of-band catalog writer (e.g. the
        serving API's DELETE tombstone): the next ``_finish_iteration``
        checkpoint writes the driver-held cache back to disk, so a
        catalog edit the cache doesn't know about would be silently
        reverted."""
        self._frontier_cache = None

    def insert_priority_resource(self, row: "pa.Table | dict") -> None:
        """S2 parity (reference: on-demand resource registration gets
        priority=True so the next frontier selection picks it in tier 1).
        Accepts a single catalog-shaped row (dict or 1-row table)."""
        if isinstance(row, dict):
            row = pa.table({k: [v] for k, v in row.items()})
        n = row.num_rows
        prio = pa.array([True] * n)
        if "priority" in row.column_names:
            row = row.set_column(row.column_names.index("priority"), "priority", prio)
        else:
            row = row.append_column("priority", prio)
        self.load_catalog(row)

    def clean_up_statuses(self) -> int:
        """T7 parity (db/resource.py:172-192): resources stuck in a
        non-null status whose last activity is older than
        STUCK_THRESHOLD_SECONDS return to the frontier (status → NULL).
        Returns the number of rows cleaned. Run at catalog load like the
        reference (cli/catalog.py:91-92)."""
        from datetime import timedelta

        cat = self._frontier()
        now = self.now_dt()
        threshold = np.datetime64(now - timedelta(seconds=config.STUCK_THRESHOLD_SECONDS), "us")
        if not isinstance(cat, pa.Table):
            # 10^10-row path: detect stale rows distributed over two
            # projected columns, pull only the (rare) stuck ids, and fix
            # them with a merge-on-read update — never a full-width
            # driver read + wholesale overwrite
            thr = pa.scalar(threshold.item(), type=pa.timestamp("us"))

            def stuck_ids(b: pa.Table) -> pa.Table:
                stale_b = pc.and_(
                    pc.invert(pc.is_null(b["status"])),
                    pc.fill_null(pc.less(b["status_since"], thr), True),
                )
                return b.filter(stale_b).select(["resource_id"])

            ids = _ds_to_arrow(
                self.catalog.read(
                    columns=["resource_id", "status", "status_since"]
                ).map_batches(stuck_ids, batch_format="pyarrow")
            )["resource_id"].to_pylist()
            if ids:
                self.catalog.update_where(
                    "resource_id", ids,
                    set_values={"status": None, "status_since": now},
                    meta={"iteration": self.iteration},
                )
                self.invalidate_frontier_cache()
            return len(ids)
        status_set = pc.invert(pc.is_null(cat["status"]))
        since = cat["status_since"]
        stale = pc.and_(
            status_set,
            pc.fill_null(
                pc.less(since, pa.scalar(threshold.item(), type=pa.timestamp("us"))), True
            ),
        )
        n_stuck = int(pc.sum(pc.cast(stale, pa.int32())).as_py() or 0)
        if n_stuck:
            new_status = pc.if_else(stale, pa.nulls(len(cat), pa.string()), cat["status"])
            cat = _set_column(cat, "status", new_status)
            cat = _set_column(
                cat,
                "status_since",
                pc.if_else(
                    stale, pa.array([now] * len(cat), type=pa.timestamp("us")), cat["status_since"]
                ),
            )
            self.catalog.overwrite(cat, meta={"iteration": self.iteration})
            self._frontier_cache = cat if cat.num_rows <= self.CACHE_MAX_ROWS else None
        return n_stuck

    # -- documents (merge-on-read) ----------------------------------------
    def read_documents(self, since_version: int | None = None) -> pa.Table:
        """Latest span document per doc_id (resolves the append-only
        ``_iter`` versions last-wins — Lance-style merge-on-read).

        ``since_version`` switches to the CHANGELOG contract: only
        files committed after that table version are read
        (store.read_appended — O(new files) at any corpus size), and
        the result is the CURRENT state of every document touched
        since the cursor (``_iter`` is monotone, so the max-_iter row
        among the new rows IS the document's latest version). An
        incremental consumer checkpoints
        ``engine.documents.latest_version()`` between pulls."""
        if since_version is not None:
            from hydra_ray.sources.store import _ds_to_arrow

            tbl = _ds_to_arrow(self.documents.read_appended(since_version))
        else:
            tbl = self.documents.read_arrow()
        if "_iter" not in tbl.column_names:
            return tbl
        return self._dedup_docs_table(tbl).drop_columns(["_iter"])

    def purge_documents(self, doc_ids: list[str], defer: bool = False) -> dict:
        """Remove documents (all their ``_iter`` versions) WITHOUT
        rewriting the append-only table: a deletion-vector commit
        (sources/store.py delete_where — Lance deletion-file
        semantics). ``read_documents`` and every downstream reader
        exclude the rows immediately; ``compact_documents`` later
        materializes the deletes away and ``gc`` reclaims the sidecars.
        This is the reference purge contract (cli/purge.py: drop data
        of deleted resources) at append-only-log cost: O(matching
        files' doc_id column), never O(table rewrite).

        ``defer=True`` downgrades that to an O(1) Iceberg-style
        equality-delete commit — no file probed at purge time at all
        (the 10^10-frontier bulk-purge path); readers still exclude
        the rows immediately and compaction resolves the entries."""
        if not doc_ids or self.documents.is_empty():
            return {"deleted_rows": 0}
        meta = {"purged_at_iteration": self.iteration}
        if defer:
            self.documents.delete_where(
                "doc_id", list(doc_ids), defer=True, meta=meta
            )
            return {"deferred": True, "keys": len(set(doc_ids))}
        before = self.documents.deleted_count()
        self.documents.delete_where("doc_id", list(doc_ids), meta=meta)
        return {"deleted_rows": self.documents.deleted_count() - before}

    DOCS_COMPACT_DRIVER_ROWS = 2_000_000

    def compact_documents(self) -> dict:
        """Merge-on-read → merge-on-write: rewrite the append-only
        documents table keeping only the latest ``_iter`` row per
        doc_id. After a long crawl the table holds one superseded copy
        per re-parse; compaction bounds the read amplification that
        ``read_documents`` (and every downstream consumer) pays.
        Driver path below DOCS_COMPACT_DRIVER_ROWS; above, a
        distributed keyed dedup (stages/keyed.py) — the heavy span
        payload crosses one hash shuffle, nothing lands on the driver.
        Run ``gc()`` afterwards to drop the superseded version files."""
        before = self.documents.count()
        if before == 0:
            return {"rows_before": 0, "rows_after": 0}
        sample = self.documents.read_arrow(columns=None) if before <= self.DOCS_COMPACT_DRIVER_ROWS else None
        if sample is not None:
            if "_iter" not in sample.column_names:
                return {"rows_before": before, "rows_after": before}
            compacted = self._dedup_docs_table(sample)
        else:
            # arrow-native consumer: the spans list<struct> column does
            # not survive a pandas round-trip
            from hydra_ray.stages.keyed import keyed_map_partitions_arrow

            ds = self.documents.read()
            compacted = keyed_map_partitions_arrow(ds, ["doc_id"], self._dedup_docs_table)
        self.documents.overwrite(compacted, meta={"compacted_at_iteration": self.iteration})
        after = self.documents.count()
        return {"rows_before": before, "rows_after": after}

    @staticmethod
    def _dedup_docs_table(tbl: pa.Table) -> pa.Table:
        import pandas as pd_

        order = pd_.DataFrame(
            {"doc_id": tbl["doc_id"].to_pylist(), "_iter": tbl["_iter"].to_pylist()}
        )
        keep = (
            order.reset_index()
            .sort_values(["doc_id", "_iter", "index"])
            .groupby("doc_id", as_index=False)
            .tail(1)["index"]
            .to_numpy()
        )
        return tbl.take(pa.array(np.sort(keep)))

    # -- internals ---------------------------------------------------------
    CACHE_MAX_ROWS = 2_000_000

    # catalog columns that hold CRAWL STATE (vs seed metadata): a reload
    # or upsert must never reset them to defaults unless the caller
    # explicitly provides values — the reference's catalog refresh
    # (cli/catalog.py:20-98) updates resource metadata while checks /
    # scheduling live untouched in their own tables
    _STATE_COLS = [
        "status", "status_since", "priority",
        "last_check_id", "last_check_at", "last_status", "last_timeout",
        "last_error", "last_headers", "last_cors_headers",
        "last_checksum", "last_filesize", "last_mime_type",
        "detected_last_modified_at", "next_check_at",
    ]

    def _stored_rows_for(self, ids, columns: list[str]) -> pa.Table | None:
        """resource_id + `columns` for catalog rows matching `ids`
        (cache → driver read → distributed semi-join probe, by size;
        the pulled table is O(matching ids), never O(catalog))."""
        if self.catalog.is_empty():
            return None
        cache = self._frontier_cache
        if cache is not None:
            have = ["resource_id"] + [c for c in columns if c in cache.column_names]
            return cache.select(have) if len(have) > 1 else None
        names = set(self.catalog.schema().names)
        have = ["resource_id"] + [c for c in columns if c in names]
        if len(have) == 1:
            return None
        if self.catalog.count() <= self.CACHE_MAX_ROWS:
            return self.catalog.read_arrow(columns=have)
        return _ds_to_arrow(
            self.catalog.read_where("resource_id", ids.to_pylist(), columns=have)
        )

    def _carry_stored_columns(
        self, tbl: pa.Table, cols: list[str], live_only: bool = False
    ) -> pa.Table:
        """Give `tbl`'s rows the currently stored catalog values for
        `cols`, matched by resource_id (rows new to the catalog keep
        their incoming value / null). Columns already in `tbl` are
        overridden for known rows; absent ones are appended — this is
        what lets passenger/added catalog columns and reload-preserved
        state survive a full-row merge_insert. ``live_only`` skips rows
        whose STORED row is tombstoned: a re-registered deleted resource
        returns as fresh (no last_checksum), so its next check re-parses
        and re-creates the documents its purge entry removed."""
        cols = [c for c in cols if c != "resource_id"]
        if not cols or self.catalog.is_empty() or not tbl.num_rows:
            return tbl
        fetch = cols + ["deleted"] if live_only and "deleted" not in cols else cols
        stored = self._stored_rows_for(tbl["resource_id"], fetch)
        if stored is None or not stored.num_rows:
            return tbl
        if live_only and "deleted" in stored.column_names:
            stored = stored.filter(
                pc.invert(pc.fill_null(stored["deleted"], False))
            )
            if "deleted" not in cols:
                stored = stored.drop_columns(["deleted"])
            if not stored.num_rows:
                return tbl
        idx = pc.index_in(tbl["resource_id"], value_set=stored["resource_id"].combine_chunks())
        known = pc.is_valid(idx)
        for c in cols:
            if c not in stored.column_names:
                continue
            vals = stored[c].take(idx)  # null rows where idx is null
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            if c in tbl.column_names:
                cur = tbl[c]
                if vals.type != cur.type:
                    vals = vals.cast(cur.type)
                tbl = _set_column(tbl, c, pc.if_else(known, vals, cur))
            else:
                tbl = tbl.append_column(c, vals)
        return tbl

    def _frontier(self) -> "rd.Dataset | pa.Table":
        if self._frontier_cache is not None:
            return self._frontier_cache
        if self.catalog.count() <= self.CACHE_MAX_ROWS:
            self._frontier_cache = self.catalog.read_arrow()
            return self._frontier_cache
        return self.catalog.read()

    def _finish_iteration(self, updates: list[pa.Table], stats: dict) -> None:
        now = self.now_dt(self.iteration)
        # stats rows commit BEFORE the catalog meta advances (a crash in
        # between reruns the iteration and the tagged register replaces
        # them; the old order — append after the commit — could leave a
        # committed iteration with its stats rows lost forever)
        self._append_metrics_tagged(
            pa.table(
                {
                    "iteration": pa.array([stats["iteration"]] * len(stats), type=pa.int64()),
                    "partition": pa.array([0] * len(stats), type=pa.int32()),
                    "metric": pa.array(list(stats.keys())),
                    "value": pa.array([float(v) for v in stats.values()], type=pa.float64()),
                    "created_at": pa.array([now] * len(stats), type=pa.timestamp("us")),
                }
            ),
            tag=f"iter{stats['iteration']}stats",
        )
        # persist politeness/URL-seen state for iteration+1 BEFORE the
        # catalog manifest advances to iteration+1: a crash in between
        # then leaves meta=N with state files for both N and N+1 (restore
        # at N uses N), never meta=N+1 with only iterN.pkl on disk
        self._save_state(self.iteration + 1)
        if updates:
            upd = pa.concat_tables(updates, promote_options="default")
            # passenger catalog columns (extra seed metadata, add_column
            # evolution) are outside _FRONTIER_COLS, so the update rows
            # lack them — carry the stored values for the touched rows or
            # the select below crashes (cached) / the merge null-fills
            # them (uncached)
            missing = [
                c
                for c in (
                    self._frontier_cache.column_names
                    if self._frontier_cache is not None
                    else (self.catalog.schema().names if not self.catalog.is_empty() else [])
                )
                if c not in upd.column_names
            ]
            upd = self._carry_stored_columns(upd, missing)
            cache = self._frontier_cache
            if cache is not None:
                # driver merge against the cached frontier (no read)
                new_keys = upd["resource_id"].combine_chunks() if isinstance(
                    upd["resource_id"], pa.ChunkedArray
                ) else upd["resource_id"]
                survivors = cache.filter(
                    pc.invert(pc.is_in(cache["resource_id"], value_set=new_keys))
                )
                upd = upd.select(survivors.column_names).cast(survivors.schema)
                # contiguous buffers: filter+concat leaves the cache
                # more chunked every iteration, and both the partitioned
                # write's take() and next iteration's filters pay
                # per-chunk costs that compound (0.5s → 3s+ by iter 3)
                merged = pa.concat_tables([survivors, upd]).combine_chunks()
                touched_frac = 1.0
                if (
                    not self.catalog.is_empty()
                    and self.catalog._partitioned_layout(self.catalog.files()) is not None
                ):
                    touched = set(int(p) for p in self.catalog._part_ids(upd))
                    touched_frac = len(touched) / self.catalog.n_parts
                if touched_frac <= 0.5:
                    # incremental checkpoint: rewrite only touched
                    # partitions; the in-memory cache stays authoritative.
                    # When the batch touches most partitions (small
                    # frontiers / huge batches), writing the cached merge
                    # directly is cheaper than read+merge per partition.
                    self.catalog.merge_insert(
                        upd, key="resource_id", meta={"iteration": self.iteration + 1}
                    )
                else:
                    self.catalog.overwrite(merged, meta={"iteration": self.iteration + 1})
                self._frontier_cache = merged
            else:
                self.catalog.merge_insert(
                    upd, key="resource_id", meta={"iteration": self.iteration + 1}
                )
        else:
            self.catalog.commit_meta({"iteration": self.iteration + 1})
        self.iteration += 1

    def _append_metrics_tagged(self, tbl: pa.Table, tag: str) -> None:
        """Metrics commit with the same crash-rerun idempotency as the
        data tables: a rerun of the iteration REPLACES the crashed
        attempt's rows (plain append would duplicate them — including
        lineage rows naming superseded part files)."""
        import pyarrow.parquet as pq

        d = self.metrics.new_txn_dir(tag=tag)
        out = os.path.join(d, "part-0.parquet")
        pq.write_table(tbl, out, compression="snappy")
        self.metrics.register_files([out], replace_tag=tag)

    def _record_lineage(self, iteration: int, files: list[str], now: datetime) -> None:
        """Per-partition lineage rows (north rule): one metrics row per
        committed checks part file with its row count (from the parquet
        footer — no data read)."""
        if not files:
            return
        import pyarrow.parquet as pq

        rows = [pq.ParquetFile(f).metadata.num_rows for f in files]
        n = len(files)
        self._append_metrics_tagged(
            pa.table(
                {
                    "iteration": pa.array([iteration] * n, type=pa.int64()),
                    "partition": pa.array(list(range(n)), type=pa.int32()),
                    "metric": pa.array([f"lineage:{os.path.basename(f)}" for f in files]),
                    "value": pa.array([float(r) for r in rows], type=pa.float64()),
                    "created_at": pa.array([now] * n, type=pa.timestamp("us")),
                }
            ),
            tag=f"iter{iteration}lin",
        )

    # -- crawl-state checkpoints (per-shard files, write-then-commit) ------
    #
    # Layout: workdir/state/iter{N:06d}/ holding one pkl per politeness
    # and URL-seen shard (each written by its own actor — state bytes
    # never pass through the driver, and the N writes run in parallel)
    # plus meta.json written LAST as the commit marker. A dir without
    # meta.json is an aborted save and is ignored / GC'd. The legacy
    # single-pickle iter{N:06d}.pkl format is still restorable.

    def _state_dir(self, iteration: int) -> str:
        return os.path.join(self.workdir, "state", f"iter{iteration:06d}")

    def _state_path(self, iteration: int) -> str:
        """Legacy single-file path (read-compat only)."""
        return self._state_dir(iteration) + ".pkl"

    def _save_state(self, iteration: int | None = None) -> None:
        it = self.iteration if iteration is None else iteration
        d = self._state_dir(it)
        os.makedirs(d, exist_ok=True)
        import ray as _ray

        _ray.get(self.politeness.save_shards(d) + self.urlseen.save_shards(d))
        meta = {
            "iteration": it,
            "politeness_shards": self.politeness.n,
            "urlseen_shards": self.urlseen.n,
        }
        tmp = os.path.join(d, f".meta.tmp.{os.getpid()}")
        with open(tmp, "w") as f:
            json.dump(meta, f)
        os.replace(tmp, os.path.join(d, "meta.json"))

    @staticmethod
    def _state_iteration(path: str) -> int:
        return int(os.path.basename(path)[4:].split(".")[0])

    def _committed_states(self) -> list[str]:
        """Committed checkpoints (dirs with meta.json + legacy pkls),
        sorted by iteration."""
        import glob as _glob

        out = []
        for p in _glob.glob(os.path.join(self.workdir, "state", "iter*")):
            if p.endswith(".pkl") or os.path.exists(os.path.join(p, "meta.json")):
                out.append(p)
        return sorted(out, key=self._state_iteration)

    def _restore_from(self, path: str) -> None:
        if path.endswith(".pkl"):
            with open(path, "rb") as f:
                blob = pickle.load(f)
            self.politeness.restore(blob["politeness"])
            self.urlseen.restore(blob["urlseen"])
            return
        with open(os.path.join(path, "meta.json")) as f:
            meta = json.load(f)
        self.politeness.load_shards(
            [os.path.join(path, f"politeness-{i:03d}.pkl")
             for i in range(meta["politeness_shards"])]
        )
        self.urlseen.load_shards(
            [os.path.join(path, f"urlseen-{i:03d}.pkl")
             for i in range(meta["urlseen_shards"])]
        )

    def _maybe_restore_state(self) -> None:
        # crash-window fallback: the newest committed state at or before
        # the committed iteration (never silently restart with empty
        # politeness windows / URL-seen filters mid-crawl)
        cands = [
            p for p in self._committed_states()
            if self._state_iteration(p) <= self.iteration
        ]
        if not cands:
            if self.iteration:
                raise RuntimeError(
                    f"catalog is at iteration {self.iteration} but no crawl state "
                    f"checkpoint <= {self._state_dir(self.iteration)} exists — refusing "
                    "to resume with empty politeness/URL-seen state"
                )
            return
        self._restore_from(cands[-1])


# ---------------------------------------------------------------------------
# batch helpers (module-level so Ray serializes cheaply)
# ---------------------------------------------------------------------------


def _add_frontier_columns(batch: pa.Table) -> pa.Table:
    """Fill the frontier/last-check columns a fresh catalog row needs."""
    n = len(batch)
    ts = pa.timestamp("us")
    defaults: list[tuple[str, pa.Array]] = [
        ("type", pa.array(["main"] * n)),
        ("title", pa.nulls(n, pa.string())),
        ("deleted", pa.array([False] * n)),
        ("priority", pa.array([False] * n)),
        ("status", pa.nulls(n, pa.string())),
        ("status_since", pa.nulls(n, ts)),
        ("harvest_modified_at", pa.nulls(n, ts)),
        ("last_check_id", pa.nulls(n, pa.int64())),
        ("last_check_at", pa.nulls(n, ts)),
        ("last_status", pa.nulls(n, pa.int32())),
        ("last_timeout", pa.nulls(n, pa.bool_())),
        ("last_error", pa.nulls(n, pa.string())),
        ("last_headers", pa.nulls(n, pa.string())),
        ("last_cors_headers", pa.nulls(n, pa.string())),
        ("last_checksum", pa.nulls(n, pa.string())),
        ("last_filesize", pa.nulls(n, pa.int64())),
        ("last_mime_type", pa.nulls(n, pa.string())),
        ("detected_last_modified_at", pa.nulls(n, ts)),
        ("next_check_at", pa.nulls(n, ts)),
    ]
    out = batch
    for name, arr in defaults:
        if name not in out.column_names:
            out = out.append_column(name, arr)
    return out


_FRONTIER_COLS = [
    "dataset_id",
    "resource_id",
    "url",
    "type",
    "format",
    "title",
    "deleted",
    "priority",
    "status",
    "status_since",
    "harvest_modified_at",
    "domain",
    "url_md5",
    "url_key",
    "last_check_id",
    "last_check_at",
    "last_status",
    "last_timeout",
    "last_error",
    "last_headers",
    "last_cors_headers",
    "last_checksum",
    "last_filesize",
    "last_mime_type",
    "detected_last_modified_at",
    "next_check_at",
]


def _frontier_update_backoff(rows: pa.Table, now: datetime) -> pa.Table:
    n = rows.num_rows
    out = rows.select([c for c in _FRONTIER_COLS if c in rows.column_names])
    out = _set_column(out, "status", pa.array(["BACKOFF"] * n))
    out = _set_column(out, "status_since", pa.array([now] * n, type=pa.timestamp("us")))
    # priority survives a quota backoff: the check the flag requested
    # has NOT run yet — clearing it here silently demoted an explicitly
    # requested check to its regular schedule (only a completed fetch
    # resets it, see _frontier_update_fetched)
    return out


def _frontier_update_fetched(result: pa.Table, now: datetime) -> pa.Table:
    """Post-check frontier row: status reset, priority reset, last-check
    columns replaced by the new check's values; 404-recovered resources
    get their catalog url updated + re-canonicalized (J5)."""
    n = result.num_rows
    out = result.select([c for c in _FRONTIER_COLS if c in result.column_names])
    out = _set_column(out, "status", pa.nulls(n, pa.string()))
    out = _set_column(out, "status_since", pa.array([now] * n, type=pa.timestamp("us")))
    out = _set_column(out, "priority", pa.array([False] * n))
    out = _set_column(out, "last_check_id", result["check_id"])
    out = _set_column(out, "last_check_at", result["created_at"])
    out = _set_column(out, "last_status", result["check_status"])
    out = _set_column(out, "last_timeout", result["check_timeout"])
    out = _set_column(out, "last_error", result["check_error"])
    out = _set_column(out, "last_headers", result["check_headers"])
    out = _set_column(out, "last_cors_headers", result["check_cors_headers"])
    out = _set_column(out, "last_checksum", result["checksum"])
    out = _set_column(out, "last_filesize", result["filesize"])
    out = _set_column(out, "last_mime_type", result["mime_type"])
    # detected_last_modified_at passes check → check unless refreshed
    new_dlma = pc.coalesce(result["detected_last_modified_at_new"], result["detected_last_modified_at"])
    out = _set_column(out, "detected_last_modified_at", new_dlma)
    out = _set_column(out, "next_check_at", result["next_check_at"])
    return out


def _txn_files(txn_dir: str) -> list[str]:
    import glob as _glob

    return sorted(_glob.glob(os.path.join(txn_dir, "*.parquet")))


def _set_column(tbl: pa.Table, name: str, arr) -> pa.Table:
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if name in tbl.column_names:
        tbl = tbl.drop_columns([name])
    return tbl.append_column(name, arr)




def _politeness_records(result: pa.Table) -> list[tuple]:
    """(domain, n_completed, last_status, rl_remaining, rl_limit) per domain,
    'last' = the row with the maximum ``check_id`` for that domain.

    check_id = mix64(url_key, iteration) is a pure function of (url,
    iteration), so "latest" is identical under any block ordering /
    parallelism — the crawl determinism contract (crawl.py:10-17)
    requires this.  Row POSITION must never be used here: block order
    out of Ray's streaming executor is nondeterministic, and a
    position-based pick makes the 429-cool-off a race (VERDICT r2 #1).

    Vectorized: counts via a grouped size, the per-domain winning row
    via a grouped idxmax over check_id — only ~n_domains header JSONs
    are parsed, not one per check row (this runs serially on the
    driver every iteration)."""
    doms = pd.Series(result["domain"].to_pylist())
    counts = doms.groupby(doms, sort=False).size()
    cids = pd.Series(result["check_id"].to_numpy(zero_copy_only=False))
    last_idx = cids.groupby(doms.values, sort=False).idxmax()
    statuses = result["check_status"]
    headers = result["check_headers"]
    out = []
    for d, i in last_idx.items():
        i = int(i)
        h = headers[i].as_py()
        hd = json.loads(h) if h else {}
        out.append(
            (
                d,
                int(counts[d]),
                statuses[i].as_py(),
                hd.get("x-ratelimit-remaining"),
                hd.get("x-ratelimit-limit"),
            )
        )
    return out
