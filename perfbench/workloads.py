"""The four workloads. Each has a set-up, a pass that the measuring
loop repeats until the window closes, and a check of every pass's
output against a computation that does not go through the code under
test. ``setup`` returns the seconds of each of its set-up repetitions;
a pass that starts with a set-up of its own reports it as ``setup_s``.
A pass returns a dict with at least ``pass_s`` (wall seconds of the
measured unit), ``rate`` (work items per second), ``items``,
``attempted`` and ``failed``; ``t0``/``t1`` (wall ns) bound it so that
traced spans can be attributed to it."""

from __future__ import annotations

import glob
import os
import shutil
import time
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc

from perfbench import inputs

# sizes per scale; "tiny" is the smoke test's scale
SCALES = {
    "full": {
        "fresh_urls": 2000, "daily_urls": 4000, "api_urls": 2000, "docs": 1000,
        "warm_urls": 100,
    },
    "tiny": {
        "fresh_urls": 600, "daily_urls": 500, "api_urls": 400, "docs": 500,
        "warm_urls": 100,
    },
}

# the crawl configuration of the repository's own bench: no request
# budget (throughput, not waiting, is measured), fetch/analyse as tasks.
# The bulk host is exempt from politeness, as the reference exempts its
# own static host; the other hosts keep the 429 / x-ratelimit cool-off,
# so a seed whose hot-host check happens to be a 429 does not idle 55% of
# the next batch. State shards are sized to the 2 Ray CPUs: the default
# 8 + 4 actor processes took 3.9 s to start on a 4-vCPU host, against
# 1.4 s for 2 + 2, and crowd the host's few cores.
ENGINE_KW = {
    "actor_pools": False,
    "politeness_kwargs": {
        "backoff_nb_req": 10**9,
        "no_backoff_domains": {"static.data.example"},
    },
    "analysis_content_rows": 200,
    "urlseen_shards": 2,
    "politeness_shards": 2,
}
BATCH_FRACTION = 0.4
FRESH_ITERATIONS = 3
NEW_URL_FRACTION = 0.05
SETUP_REPEATS = 3


def new_engine(workdir: str, n_urls: int, tracer):
    """A CrawlEngine whose state actors are up (actor start-up is
    set-up, not crawl time), and the seconds it took to start."""
    from hydra_ray.pipelines.crawl import CrawlEngine

    shutil.rmtree(workdir, ignore_errors=True)
    a = time.perf_counter()
    eng = CrawlEngine(workdir, batch_size=max(1, int(n_urls * BATCH_FRACTION)), **ENGINE_KW)
    eng.urlseen.stats()
    eng.politeness.serialize()
    start_s = time.perf_counter() - a
    if tracer is not None:
        tracer.instrument_engine(eng)
    return eng, start_s


def predicted_outcome(url: str) -> str:
    """Outcome class of one URL in the synthetic web, read straight off
    its response (a HEAD without usable headers is retried as GET, so
    the GET answer decides)."""
    from hydra_ray.synth import synthetic_response

    kind = synthetic_response(url, "get")["kind"]
    return kind if kind in ("ok", "timeout") else "error"


def checked_urls(engine, since) -> list[str]:
    """URLs whose last check is at or after virtual time ``since``."""
    cat = engine.catalog.read_arrow(columns=["url", "last_check_at"])
    at = pa.scalar(since, type=pa.timestamp("us"))
    return cat.filter(pc.fill_null(pc.greater_equal(cat["last_check_at"], at), False))[
        "url"
    ].to_pylist()


def selection_mismatch(stats: list[dict], n_rows: int, batch: int) -> int:
    """Rows a fresh crawl selected or checked against the frontier rule:
    iteration i selects min(batch, rows not yet checked), and every
    selected row is either checked or backed off."""
    bad, done = 0, 0
    for s in stats:
        bad += abs(s.get("selected", 0) - min(batch, n_rows - done))
        bad += abs(checked([s]) + s.get("backoff", 0) - s.get("selected", 0))
        done += checked([s])
    return bad


def outcome_mismatch(stats: list[dict], urls) -> int:
    """|checked - len(urls)| plus, per outcome class, |checked -
    predicted| over ``urls``."""
    want = Counter(predicted_outcome(u) for u in urls)
    got = Counter()
    for s in stats:
        for o in ("ok", "timeout", "error"):
            got[o] += s.get(o, 0)
    bad = abs(checked(stats) - len(urls))
    return bad + sum(abs(got[o] - want[o]) for o in ("ok", "timeout", "error"))


def checked(stats: list[dict]) -> int:
    return sum(s.get("ok", 0) + s.get("timeout", 0) + s.get("error", 0) for s in stats)


def sink_output(workdir: str, before: set[str]) -> tuple[int, int, set[str]]:
    """(bytes, count) of the part files the sinks wrote that are not in
    ``before``, and the set of all part files now."""
    files = set()
    for table in ("checks", "documents", "payloads", "tables_index"):
        files.update(glob.glob(os.path.join(workdir, table, "**", "*.parquet"), recursive=True))
    new = files - before
    return sum(os.path.getsize(f) for f in new), len(new), files


def state_bytes(workdir: str) -> dict:
    """Bytes of the newest committed crawl-state checkpoint, per pool."""
    dirs = [os.path.dirname(m) for m in glob.glob(os.path.join(workdir, "state", "iter*", "meta.json"))]
    if not dirs:
        return {"politeness": 0, "urlseen": 0}
    d = max(dirs, key=lambda p: int(os.path.basename(p)[4:]))
    return {
        pool: sum(os.path.getsize(f) for f in glob.glob(os.path.join(d, f"{pool}-*.pkl")))
        for pool in ("politeness", "urlseen")
    }


def due_urls(engine) -> list[str]:
    """URLs the next iteration must check, by the frontier rule: live,
    not leased, and never checked or past next_check_at."""
    cat = engine.catalog.read_arrow(
        columns=["url", "deleted", "status", "last_check_id", "next_check_at"]
    )
    now = pa.scalar(engine.now_dt(), type=pa.timestamp("us"))
    live = pc.invert(pc.fill_null(cat["deleted"], False))
    free = pc.fill_null(pc.equal(cat["status"], "BACKOFF"), True)
    due = pc.or_(
        pc.is_null(cat["last_check_id"]),
        pc.fill_null(pc.less_equal(cat["next_check_at"], now), True),
    )
    return cat.filter(pc.and_(pc.and_(live, free), due))["url"].to_pylist()


class FreshCrawl:
    """The first crawl of a new catalog: load it, then three iterations
    of 40% of the frontier. Every URL is new to URL-seen and every row
    is fetched and analysed. Each crawl starts its own engine; that
    start is the set-up repeated in every pass."""

    name = "fresh_crawl"
    # a pass is one sample of a few seconds; the median of four is not
    # moved by one slow pass
    min_passes = 4
    min_traced_passes = 3
    # its traced run also serves the API, the only layers it lacks
    companions = ("api_serve",)

    def setup(self, ctx) -> list[float]:
        self.catalog = inputs.catalog(inputs.catalog_doc_ids(ctx.seed, ctx.scale["fresh_urls"]))
        # one small crawl runs every stage, and the second iteration's
        # merge path, before the first pass
        warm = inputs.catalog(inputs.catalog_doc_ids(ctx.seed + 1, ctx.scale["warm_urls"]))
        eng, start_s = new_engine(ctx.work("warm"), warm.num_rows, None)
        eng.load_catalog(warm)
        eng.run(2)
        eng.shutdown()
        shutil.rmtree(ctx.work("warm"), ignore_errors=True)
        return [start_s]

    def run_pass(self, ctx) -> dict:
        wd = ctx.work(f"pass{ctx.pass_index}")
        eng, start_s = new_engine(wd, self.catalog.num_rows, ctx.tracer)
        t0 = time.time_ns()
        a = time.perf_counter()
        eng.load_catalog(self.catalog)
        b = time.perf_counter()
        stats = eng.run(FRESH_ITERATIONS)
        c = time.perf_counter()
        t1 = time.time_ns()
        n_checked = checked(stats)
        failed = selection_mismatch(stats, self.catalog.num_rows, eng.batch_size)
        failed += outcome_mismatch(stats, checked_urls(eng, eng.now_dt(0)))
        sink_b, sink_f, _ = sink_output(wd, set())
        out = {
            "t0": t0, "t1": t1, "setup_s": start_s, "pass_s": c - a, "load_s": b - a,
            "crawl_s": c - b,
            "items": n_checked, "rate": n_checked / (c - b),
            "attempted": self.catalog.num_rows, "failed": min(failed, self.catalog.num_rows),
            "selected": sum(s.get("selected", 0) for s in stats),
            "backoff": sum(s.get("backoff", 0) for s in stats),
            "parsed": sum(s.get("parsed", 0) for s in stats),
            "sink_bytes": sink_b, "sink_files": sink_f, "state_bytes": state_bytes(wd),
        }
        eng.shutdown()
        shutil.rmtree(wd, ignore_errors=True)
        return out


class DailyRecheck:
    """The steady-state cycle: reload the catalog with 5% new URLs (the
    merge path; URL-seen mostly hits), move the virtual clock and the
    synthetic web on, re-check every due row. Set-up crawls the catalog
    once. The clock moves by the longest check delay, so every row is due
    on every pass and passes stay alike (the first pass is the same work
    as a one-day step after set-up)."""

    name = "daily_recheck"
    # each pass adds 5% to the catalog, so the count is fixed: a faster
    # host would otherwise hold more, larger passes and move the median
    min_passes = max_passes = 3

    def setup(self, ctx) -> list[float]:
        a = time.perf_counter()
        n = ctx.scale["daily_urls"]
        self.n = n
        self.catalog = inputs.catalog(inputs.catalog_doc_ids(ctx.seed, n))
        self.wd = ctx.work("daily")
        self.eng, _ = new_engine(self.wd, n, None)
        # one iteration selects every row: set-up crawls, and each pass
        # re-checks every due row, in a single iteration
        self.eng.batch_size = 10**9
        self.eng.load_catalog(self.catalog)
        self.eng.run(1)
        self.day = 0
        self.sink_files: set[str] = set()
        _, _, self.sink_files = sink_output(self.wd, set())
        self.run_pass(ctx)  # unmeasured warm pass
        # one set-up: a second would re-crawl the whole catalog
        return [time.perf_counter() - a]

    def instrument(self, tracer) -> None:
        tracer.instrument_engine(self.eng)

    def run_pass(self, ctx) -> dict:
        from hydra_ray.config import config

        self.day += 1
        new = inputs.catalog(
            inputs.new_doc_ids(ctx.seed, self.day, int(self.n * NEW_URL_FRACTION))
        )
        self.catalog = pa.concat_tables([self.catalog, new])
        eng = self.eng
        t0 = time.time_ns()
        a = time.perf_counter()
        eng.load_catalog(self.catalog)
        b = time.perf_counter()
        eng.iteration += max(config.CHECK_DELAYS) * 60  # hours → virtual minutes
        # the synthetic web alternates between two states, so each pass
        # sees the same ~10% of resources change
        eng.transport = {"kind": "synthetic", "epoch": self.day % 2}
        want = due_urls(eng)  # untimed: the independent expectation
        since = eng.now_dt()
        c = time.perf_counter()
        stats = eng.run(1)
        d = time.perf_counter()
        t1 = time.time_ns()
        n_checked = checked(stats)
        backoff = sum(s.get("backoff", 0) for s in stats)
        got = checked_urls(eng, since)
        # every checked row was due, and the due rows not checked are
        # exactly the backed-off ones
        failed = len(set(got) - set(want)) + abs(len(got) + backoff - len(want))
        failed += outcome_mismatch(stats, got)
        sink_b, sink_f, self.sink_files = sink_output(self.wd, self.sink_files)
        crawl_s = d - c
        return {
            "t0": t0, "t1": t1, "pass_s": (b - a) + crawl_s, "load_s": b - a,
            "crawl_s": crawl_s, "items": n_checked, "rate": n_checked / crawl_s,
            "attempted": len(want), "failed": min(failed, len(want)),
            "selected": sum(s.get("selected", 0) for s in stats), "backoff": backoff,
            "parsed": sum(s.get("parsed", 0) for s in stats),
            "sink_bytes": sink_b, "sink_files": sink_f, "state_bytes": state_bytes(self.wd),
        }

    def teardown(self) -> None:
        self.eng.shutdown()


class ApiServe:
    """One closed-loop client (one thread, next request after the
    previous reply) sending a fixed seeded sequence to EngineApi over a
    crawled catalog whose checks log holds two checks per resource. One
    request in ten is a create_check write. A pass is one block of
    requests; after it (untimed) the tables roll back to their set-up
    versions, so every pass reads a log of the same size however many
    writes the window held. Set-up starts an engine and loads the
    catalog three times over (the first is cold), then crawls the last
    one and serves it."""

    name = "api_serve"
    min_passes = 6
    block = 2 * len(inputs.API_BLOCK)  # requests per pass
    # the traced run's per-call p90s need 10 samples beyond them: 50
    # blocks hold 100 create_check calls and 500 lookups
    min_traced_passes = 50

    def setup(self, ctx) -> list[float]:
        from hydra_ray.pipelines.api import EngineApi

        n = ctx.scale["api_urls"]
        cat = inputs.catalog(inputs.catalog_doc_ids(ctx.seed, n))
        reps = []
        for i in range(SETUP_REPEATS):
            if i:
                self.eng.shutdown()
                shutil.rmtree(self.wd, ignore_errors=True)
            self.wd = ctx.work(f"api{i}")
            a = time.perf_counter()
            self.eng, _ = new_engine(self.wd, n, None)
            self.eng.load_catalog(cat)
            reps.append(time.perf_counter() - a)
        # one crawl and one recheck a day later: two checks per resource
        self.eng.batch_size = 10**9
        self.eng.run(1)
        self.eng.iteration += 24 * 60
        self.eng.transport = {"kind": "synthetic", "epoch": 1}
        self.eng.run(1)
        self.api = EngineApi(self.eng)
        checks = self.eng.checks.read_arrow(columns=["id", "resource_id"])
        latest = checks.group_by("resource_id").aggregate([("id", "max")])
        self.latest0 = dict(
            zip(latest["resource_id"].to_pylist(), latest["id_max"].to_pylist())
        )
        self.versions = {t: t.latest_version() for t in self._tables()}
        self.rids = cat["resource_id"].to_pylist()
        self.url_of = dict(zip(self.rids, cat["url"].to_pylist()))
        self.n_live = cat.num_rows
        self.requests = inputs.api_requests(ctx.seed, len(self.rids), 20000)
        self.next = 0
        self.run_pass(ctx)  # unmeasured warm block
        return reps

    def _tables(self) -> list:
        e = self.eng
        return [e.catalog, e.checks, e.documents, e.payloads, e.tables_index]

    def instrument(self, tracer) -> None:
        tracer.instrument_engine(self.eng)

    def _call(self, call: str, rid: str) -> bool:
        """Run one request; return whether the reply is right."""
        api = self.api
        if call == "lookup_rid":
            r = api.get_latest_check(resource_id=rid)
            return r["resource_id"] == rid and r["id"] == self.latest[rid]
        if call == "lookup_url":
            r = api.get_latest_check(url=self.url_of[rid])
            return r["resource_id"] == rid and r["id"] == self.latest[rid]
        if call == "resource":
            r = api.get_resource(rid)
            return r["resource_id"] == rid and r["document"]["url"] == self.url_of[rid]
        if call == "status":
            r = api.get_crawler_status()
            return r["count_checked"] + r["count_never_checked"] == self.n_live
        r = api.create_check(rid)
        ok = r["resource_id"] == rid and r["check_id"] is not None
        self.latest[rid] = max(self.latest[rid], r["check_id"])
        return ok

    def run_pass(self, ctx) -> dict:
        from perfbench.tracing import Span

        lat: dict[str, list[float]] = {}
        failed = 0
        self.latest = dict(self.latest0)
        t0 = time.time_ns()
        a = time.perf_counter()
        for _ in range(self.block):
            call, i = self.requests[self.next % len(self.requests)]
            self.next += 1
            rid = self.rids[i]
            kind = "lookup" if call.startswith("lookup") else call
            with Span(f"api.{kind}"):
                s = time.perf_counter()
                try:
                    ok = self._call(call, rid)
                except (KeyError, ValueError):
                    ok = False
                lat.setdefault(kind, []).append((time.perf_counter() - s) * 1000.0)
            failed += not ok
        b = time.perf_counter()
        t1 = time.time_ns()
        for table, version in self.versions.items():
            table.restore(version)
        self.eng.invalidate_frontier_cache()
        return {
            "t0": t0, "t1": t1, "pass_s": b - a, "items": self.block,
            "rate": self.block / (b - a), "attempted": self.block, "failed": failed,
            "latency_ms": lat,
        }

    def teardown(self) -> None:
        self.eng.shutdown()


CURATE_STAGES = ("curate_corpus", "span_dedup", "span_near_dup", "interleave_pack")


def _curate_stage(name: str, docs: pa.Table):
    """The Dataset one curation stage returns, shaped as the repository's
    query of the same name shapes it for its oracle."""
    import ray.data as rd

    from hydra_ray.pipelines.curate import curate_corpus
    from hydra_ray.stages import spans

    if name == "curate_corpus":
        return curate_corpus(
            rd.from_arrow(docs.select(["doc_id", "text", "lang"])), near_dup_threshold=0.5
        )
    ds = rd.from_arrow(docs.select(["doc_id", "text"]))
    if name == "span_dedup":
        out = spans.span_dedup(ds)
    elif name == "span_near_dup":
        out = spans.span_near_dup(ds, threshold=0.5)
    else:
        return spans.interleave_pack(ds)
    return out.map_batches(spans.explode_spans_batch, batch_format="pyarrow")


def _consume(ds) -> pa.Table:
    return pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    )


class CorpusCurate:
    """A batch job over a documents corpus: the four stage functions
    behind the in-window curation queries, each result consumed fully.
    The pass is the job's first run in the Ray session, as a scheduled
    batch job meets it: each stage's first shuffle and actor pools start
    their worker processes (see README.md for why not a warm pass)."""

    name = "corpus_curate"

    def setup(self, ctx) -> list[float]:
        self.variant = ctx.seed % inputs.CORPUS_VARIANTS
        reps = []
        for _ in range(SETUP_REPEATS):
            a = time.perf_counter()
            self.docs = inputs.corpus(self.variant, ctx.scale["docs"])
            reps.append(time.perf_counter() - a)
        return reps

    def run_pass(self, ctx) -> dict:
        stage_s, outs = {}, {}
        t0 = time.time_ns()
        for name in CURATE_STAGES:
            a = time.perf_counter()
            outs[name] = _consume(_curate_stage(name, self.docs))
            stage_s[name] = time.perf_counter() - a
        t1 = time.time_ns()
        pass_s = sum(stage_s.values())
        return {
            "t0": t0, "t1": t1, "pass_s": pass_s, "items": self.docs.num_rows,
            "rate": self.docs.num_rows / pass_s, "attempted": len(CURATE_STAGES),
            "failed": 0, "stage_s": stage_s,
            "rows_out": sum(t.num_rows for t in outs.values()),
            "out": outs,
        }

    def finish(self, passes: list[dict]) -> None:
        """Count every stage output that differs from the oracle's."""
        from perfbench.oracle import expected, rows_digest

        want = expected(self.variant, self.docs.num_rows)
        for p in passes:
            got = {n: [t.num_rows, rows_digest(t.to_pandas())] for n, t in p.pop("out").items()}
            p["failed"] = sum(got[n] != want[n] for n in CURATE_STAGES)


WORKLOADS = {w.name: w for w in (FreshCrawl, DailyRecheck, ApiServe, CorpusCurate)}
