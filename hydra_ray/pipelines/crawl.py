"""The crawl loop: frontier → politeness → fetch → checks → analysis → docs.

Ray-Data-native equivalent of the reference's three cooperating
processes (crawler loop crawl/__init__.py:27-37, RQ workers, webhook
sender): one iteration is a single streaming Dataset pipeline over the
selected batch, with all shared state in actor pools
(politeness/URL-seen) and versioned tables (catalog checkpoint, checks
log, interleaved documents, payloads, metrics). The catalog table is
the frontier, as the reference's ``catalog`` table is: the engine holds
no copy of it, reads it every iteration, and writes back only the rows
the iteration touched.

Determinism contract (replaces the reference's wall clock + ORDER BY
random()): a virtual clock ``t0 + iteration * SLEEP_BETWEEN_BATCHES``
and the seeded rank ordering (stages/frontier.py). Under a fixed seed
the sequence of (iteration, tier, resource) selections, politeness
decisions, check rows and span documents is a pure function of the
seed catalog — at any parallelism level, which is what the scaling
benchmark and the cross-parallelism parity test assert.

Checkpoint/resume: every iteration commits (a) a catalog version
upserting the touched rows' last-check columns + the frontier cursor in
the manifest meta, (b) appended checks/docs/payloads/metrics
versions, (c) the politeness + URL-seen shard state serialized next to
the manifest. A killed run resumes from the last committed iteration (see
``CrawlEngine.resume``/tests/test_crawler/test_resume.py).
"""

from __future__ import annotations

import functools
import json
import os
from datetime import datetime, timezone

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd

from hydra_ray.config import config
from hydra_ray.functions.urls import canonicalize_batch
from hydra_ray.schemas import strings
from hydra_ray.sources.store import VersionedTable, _ds_to_arrow, blocks_dataset
from hydra_ray.stages.analysis import Analyser
from hydra_ray.stages.checks_stage import build_checks_batch
from hydra_ray.stages.fetcher import Fetcher
from hydra_ray.stages.frontier import select_batch
from hydra_ray.stages.sinks import IterationSink
from hydra_ray.state.politeness import PolitenessPool
from hydra_ray.state.shard import save_slots, start_hosts
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
        urlseen_shards: int | None = None,
        politeness_shards: int | None = None,
        politeness_kwargs: dict | None = None,
        actor_pools: bool = False,
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
        # shipped to the analyse tasks as Analyser constructor arguments —
        # driver-side config_override is invisible in Ray workers
        self.analysis_config = analysis_config or {}
        # per-resource overrides (size-cap exemptions), J3 broadcast side
        self.resource_exceptions = resource_exceptions or set()
        # the crawl stages run only as tasks; the keyword survives as a
        # guard for its last caller, perfbench/workloads.py ENGINE_KW
        if actor_pools:
            raise ValueError("actor_pools=True is not supported: crawl stages run as tasks")
        self.workdir = workdir
        self.seed = config.ORDERING_SEED if seed is None else seed
        self.batch_size = batch_size or config.BATCH_SIZE
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
        # URL-seen shard i and politeness shard i share one actor
        # process: max(u, p) cold workers to start, not u + p
        n_seen = urlseen_shards or config.URLSEEN_SHARDS
        n_pol = politeness_shards or config.POLITENESS_SHARDS
        self._state_hosts = start_hosts(max(n_seen, n_pol), **(politeness_kwargs or {}))
        self.urlseen = UrlSeenPool(self._state_hosts[:n_seen])
        self.politeness = PolitenessPool(self._state_hosts[:n_pol])
        self.iteration = int(self.catalog.meta().get("iteration", 0))
        # tombstones already purged this engine lifetime (resume
        # re-purges once — idempotent, see purge_deleted_resources)
        self._purged_resource_ids: set[str] = set()
        self._maybe_restore_state()

    def shutdown(self) -> None:
        """Kill the state actors (tests create many engines per session)."""
        import ray

        for actor in self._state_hosts:
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
        resource_id) are updated, new ones inserted; the URL-seen shards
        learn every canonical url_key.
        """
        if isinstance(seed, pa.Table):
            seed_cols = set(seed.schema.names)
            seed_ds = blocks_dataset(seed)
        else:
            seed_ds = seed
            seed_cols = set(seed_ds.schema().names)
        canon = seed_ds.map_batches(
            StageChain(canonicalize_batch, _add_frontier_columns), batch_format="pyarrow"
        )
        tbl = _ds_to_arrow(canon)
        # register every url in the seen set; first-wins dedup inside the load
        keys = tbl["url_key"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_new = self.urlseen.add_if_new(keys)
        if self.catalog.is_empty():
            tbl = tbl.filter(pa.array(is_new))
            self.catalog.overwrite(tbl, meta={"iteration": self.iteration})
        else:
            # re-loads refresh existing rows (upsert by resource_id) and
            # add new ones — with the SAME URL-uniqueness contract as the
            # fresh-load path: a row is kept iff its URL is new OR its
            # resource_id already exists (a refresh of itself). Without
            # this, a reload could insert a second resource pointing at
            # an already-seen URL. The membership probe pulls only the
            # incoming ids' rows.
            existing = self.catalog.lookup(
                "resource_id", tbl["resource_id"].to_pylist(), columns=["resource_id"]
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
        stats = {"iteration": it, "selected": selected.num_rows}
        if selected.num_rows == 0:
            self._finish_iteration([], stats)
            return stats

        # politeness: deterministic per-iteration quota per domain, applied
        # in crawl (rank) order — selected is already sorted by (tier, rank)
        domains = strings(selected["domain"])
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

        updates: list[pa.Table] = []
        if backoff_rows.num_rows:
            updates.append(_frontier_update_backoff(backoff_rows, now))

        if fetch_rows.num_rows:
            # blocks of at most FETCH_BATCH_SIZE rows, each ONE call of every
            # stage (batch_size=None): no re-bundled small blocks, no
            # remainder calls paying each stage's fixed cost again, and the
            # same layout at every parallelism level (a function of rows only)
            n_rows = fetch_rows.num_rows
            n_blocks = -(-n_rows // config.FETCH_BATCH_SIZE)
            if self.partition_by_domain:
                from hydra_ray.stages.partitioning import detect_hot_domains, partition_slices

                # a partition stays one call even above FETCH_BATCH_SIZE:
                # keeping a domain's rows together is the point of it
                hot = detect_hot_domains(fetch_rows, n_blocks)
                slices = partition_slices(fetch_rows, n_blocks, hot_domains=hot)
            else:
                # balanced row ranges, sliced on the driver
                cuts = [i * n_rows // n_blocks for i in range(n_blocks + 1)]
                slices = [fetch_rows.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
            # per-block distributed sinks: checks / payloads / span docs are
            # written by the workers; only slim frontier columns reach the
            # driver (the heavy spans + payload strings never move)
            tag = f"iter{it}"
            checks_txn = self.checks.new_txn_dir(tag=tag)
            payloads_txn = self.payloads.new_txn_dir(tag=tag)
            docs_txn = self.documents.new_txn_dir(tag=tag)
            tables_txn = self.tables_index.new_txn_dir(tag=tag)
            # one block per table, no shuffle, one map over the whole stage
            # chain; the blocks run concurrently and come back in block order
            ds = blocks_dataset(slices).map_batches(
                self._stages(it, checks_txn, payloads_txn, docs_txn, tables_txn),
                batch_format="pyarrow",
                batch_size=None,
            )
            result = _ds_to_arrow(ds)

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

            # frontier updates
            updates.append(_frontier_update_fetched(result, now))

            # 5. politeness bookkeeping: per-domain completed counts + the
            # latest check's status/ratelimit headers (by max check_id —
            # deterministic under any block ordering)
            self.politeness.record_agg(_politeness_records(result), now_epoch)

            for o in ("ok", "timeout", "error"):
                stats[o] = int(
                    pc.sum(pc.cast(pc.equal(result["outcome"], o), pa.int32())).as_py() or 0
                )
            stats["parsed"] = int(pc.sum(pc.cast(result["do_parse"], pa.int32())).as_py() or 0)
            stats["changed"] = int(
                pc.sum(pc.cast(result["has_changed"], pa.int32())).as_py() or 0
            )

        self._finish_iteration(updates, stats)
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
        per-iteration state checkpoints pruned. ``compact_every`` rewrites
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
        def is_deleted(t: pa.Table):
            return pc.fill_null(t["deleted"], False)

        tomb = self.catalog.filter_rows(is_deleted, ["resource_id", "deleted"])
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
        orphaned txn dirs, and old state checkpoints. Append-only tables
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
            if p not in committed and self._state_iteration(p) >= newest_it:
                continue  # in-flight/aborted save newer than any commit: leave it
            _shutil.rmtree(p)  # superseded or aborted checkpoint
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
        row = self.catalog.lookup("resource_id", [resource_id])
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
        checks_txn = self.checks.new_txn_dir()
        payloads_txn = self.payloads.new_txn_dir()
        docs_txn = self.documents.new_txn_dir()
        tables_txn = self.tables_index.new_txn_dir()
        result = self._stages(it, checks_txn, payloads_txn, docs_txn, tables_txn)(row)
        self.checks.register_files(_txn_files(checks_txn), skip_existing_basenames=True)
        self.payloads.register_files(_txn_files(payloads_txn), skip_existing_basenames=True)
        self.documents.register_files(_txn_files(docs_txn), skip_existing_basenames=True)
        self.tables_index.register_files(_txn_files(tables_txn), skip_existing_basenames=True)
        self.politeness.record_agg(_politeness_records(result), self.now_epoch(it))
        upd = self._with_stored_columns(_frontier_update_fetched(result, now))
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

    def _stages(
        self, it: int, checks_txn: str, payloads_txn: str, docs_txn: str, tables_txn: str
    ) -> "StageChain":
        """The fetch → check-build → analyse → sink chain for one
        iteration, taking and returning one pyarrow batch. Built on
        every call, so a swapped ``transport`` or edited
        ``resource_exceptions`` reaches the next iteration; the stage
        names are looked up as module globals at call time (perfbench's
        tracing shims replace them)."""
        transport = {**self.transport, "content_rows": self.analysis_content_rows}
        return StageChain(
            Fetcher(transport=transport, udata_uri=config.UDATA_URI, robots=self.robots),
            functools.partial(
                build_checks_batch, iteration=it, now=self.now_dt(it).replace(tzinfo=timezone.utc)
            ),
            Analyser(
                transport=transport,
                exceptions=self.resource_exceptions,
                exports_dir=os.path.join(self.workdir, "exports"),
                config_overrides=self.analysis_config,
            ),
            IterationSink(checks_txn, payloads_txn, docs_txn, it, tables_txn),
        )

    def invalidate_frontier_cache(self) -> None:
        """No-op. The engine holds no copy of the catalog (each
        iteration reads the table and writes back only the rows it
        touched), so another writer's edits need no notice. Kept for
        ``perfbench/workloads.py``, its last caller."""

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
        Returns the number of rows cleaned. The CLI's ``load-catalog``
        runs it after the load, like the reference (cli/catalog.py:91-92)."""
        from datetime import timedelta

        now = self.now_dt()
        threshold = np.datetime64(now - timedelta(seconds=config.STUCK_THRESHOLD_SECONDS), "us")
        thr = pa.scalar(threshold.item(), type=pa.timestamp("us"))

        def is_stuck(t: pa.Table):
            return pc.and_(
                pc.invert(pc.is_null(t["status"])),
                pc.fill_null(pc.less(t["status_since"], thr), True),
            )

        # detect over three projected columns; fix only the (rare) stuck
        # rows with a merge-on-read update — never a full-width rewrite
        stuck = self.catalog.filter_rows(is_stuck, ["resource_id", "status", "status_since"])
        ids = stuck["resource_id"].to_pylist()
        if ids:
            self.catalog.update_where(
                "resource_id", ids,
                set_values={"status": None, "status_since": now},
                meta={"iteration": self.iteration},
            )
        return len(ids)

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

    def compact_documents(self) -> dict:
        """Merge-on-read → merge-on-write: rewrite the append-only
        documents table keeping only the latest ``_iter`` row per
        doc_id. After a long crawl the table holds one superseded copy
        per re-parse; compaction bounds the read amplification that
        ``read_documents`` (and every downstream consumer) pays.
        Driver path while the table fits the driver (the store's
        ``fits_driver``); above, a distributed keyed dedup
        (stages/keyed.py) — the heavy span payload crosses one hash
        shuffle, nothing lands on the driver.
        Run ``gc()`` afterwards to drop the superseded version files."""
        before = self.documents.count()
        if before == 0:
            return {"rows_before": 0, "rows_after": 0}
        if self.documents.fits_driver():
            sample = self.documents.read_arrow()
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
        """resource_id + `columns` for catalog rows matching `ids` (a
        store lookup: the pulled table is O(matching ids), never
        O(catalog))."""
        if self.catalog.is_empty():
            return None
        names = set(self.catalog.schema().names)
        have = ["resource_id"] + [c for c in columns if c in names]
        if len(have) == 1:
            return None
        return self.catalog.lookup("resource_id", ids.to_pylist(), columns=have)

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

    def _with_stored_columns(self, upd: pa.Table) -> pa.Table:
        """`upd` plus the stored values of every catalog column it lacks
        for its rows: passenger catalog columns (extra seed metadata,
        add_column evolution) are outside _FRONTIER_COLS, and the
        full-row merge_insert would null-fill them."""
        if self.catalog.is_empty():
            return upd
        missing = [c for c in self.catalog.schema().names if c not in upd.column_names]
        return self._carry_stored_columns(upd, missing)

    def _frontier(self) -> "rd.Dataset | pa.Table":
        """The catalog as this iteration's frontier: a driver table while
        it fits the driver (the store's ``fits_driver``), else a Dataset
        — the 10^10-row shape."""
        return self.catalog.read_arrow() if self.catalog.fits_driver() else self.catalog.read()

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
        # at N uses N), never meta=N+1 with only iterN's state on disk
        self._save_state(self.iteration + 1)
        if updates:
            # only the rows this iteration touched are written back: an
            # edit another writer committed to any other row stands
            upd = self._with_stored_columns(pa.concat_tables(updates, promote_options="default"))
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
    # and URL-seen shard (each slot's files written by its host actor in
    # one call — state bytes never pass through the driver, and the
    # slots write in parallel)
    # plus meta.json written LAST as the commit marker. A dir without
    # meta.json is an aborted save and is ignored / GC'd.

    def _state_dir(self, iteration: int) -> str:
        return os.path.join(self.workdir, "state", f"iter{iteration:06d}")

    def _save_state(self, iteration: int | None = None) -> None:
        it = self.iteration if iteration is None else iteration
        d = self._state_dir(it)
        os.makedirs(d, exist_ok=True)
        import ray as _ray

        _ray.get(save_slots([self.politeness, self.urlseen], d))
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
        return int(os.path.basename(path)[4:])

    def _committed_states(self) -> list[str]:
        """Committed checkpoints (dirs with meta.json), sorted by
        iteration."""
        import glob as _glob

        out = _glob.glob(os.path.join(self.workdir, "state", "iter*", "meta.json"))
        return sorted((os.path.dirname(p) for p in out), key=self._state_iteration)

    def _restore_from(self, path: str) -> None:
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
        # politeness windows / URL-seen keys mid-crawl)
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


class StageChain:
    """Batch stages applied in order to one pyarrow batch. One
    ``map_batches`` over the chain runs them all in one task per block:
    every ``map_batches`` builds a Dataset, and each Dataset costs a
    synchronous call to Ray Data's stats actor."""

    def __init__(self, *stages):
        self.stages = stages

    def __call__(self, batch: pa.Table) -> pa.Table:
        for stage in self.stages:
            batch = stage(batch)
        return batch


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
    have = set(rows.column_names)
    out = rows.select([c for c in _FRONTIER_COLS if c in have])
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
    have = set(result.column_names)
    out = result.select([c for c in _FRONTIER_COLS if c in have])
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
    doms = pd.Series(strings(result["domain"]))
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
