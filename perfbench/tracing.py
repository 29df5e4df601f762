"""Tracing from outside the program.

A traced run swaps timing shims in for the names the engine looks up
(``hydra_ray.pipelines.crawl.{Fetcher, build_checks_batch, Analyser,
IterationSink, select_batch, canonicalize_batch}``) and wraps the
public methods of the engine's state pools and tables. The analyser
shim, once per worker process, also wraps the ``stages.inspection`` and
``stages.spans`` functions that the analyser imports at call time.

Every process appends its spans to its own file, ``spans-<pid>.jsonl``
in the directory named by ``PERFBENCH_TRACE_DIR``; ``load_spans``
merges them when the run ends. A span is one JSON object: ``n`` name,
``t`` wall-clock start in ns (comparable across processes of one host),
``d`` duration in ns, ``p`` pid, plus counts. Nothing here runs unless
``install`` was called, so untraced runs execute the program as is.
``enable`` must run before Ray starts: workers inherit the directory
from the client process's environment.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time

import hydra_ray.pipelines.crawl as crawl_mod
from hydra_ray.stages.analysis import Analyser
from hydra_ray.stages.checks_stage import build_checks_batch
from hydra_ray.stages.fetcher import Fetcher
from hydra_ray.stages.sinks import IterationSink

TRACE_ENV = "PERFBENCH_TRACE_DIR"


def record(name: str, t_wall_ns: int, dur_ns: int, **counts) -> None:
    d = os.environ.get(TRACE_ENV)
    if not d:
        return
    span = {"n": name, "t": t_wall_ns, "d": dur_ns, "p": os.getpid(), **counts}
    with open(os.path.join(d, f"spans-{os.getpid()}.jsonl"), "a") as f:
        f.write(json.dumps(span) + "\n")


def timed(name: str, fn, counts=None):
    """fn wrapped in a span; ``counts(args, kwargs, out)`` adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t_wall = time.time_ns()
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        dur = time.perf_counter_ns() - t0
        record(name, t_wall, dur, **(counts(args, kwargs, out) if counts else {}))
        return out

    return wrapper


def _rows_out(args, kwargs, out) -> dict:
    return {"rows": out.num_rows}


def _rows_in(args, kwargs, out) -> dict:
    return {"rows": len(args[0])}


class Span:
    """``with Span("name") as s: ...; s.counts[...] = ...``"""

    def __init__(self, name: str, **counts):
        self.name = name
        self.counts = counts

    def __enter__(self) -> "Span":
        self.t_wall = time.time_ns()
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        record(self.name, self.t_wall, time.perf_counter_ns() - self.t0, **self.counts)


# -- worker-side shims (pickled by reference into Ray workers) -------------


class TimedFetcher(Fetcher):
    def __call__(self, batch):
        with Span("fetch", rows=batch.num_rows):
            return super().__call__(batch)


class TimedSink(IterationSink):
    def __call__(self, batch):
        with Span("sink", rows=batch.num_rows):
            return super().__call__(batch)


_ANALYSIS_PATCHED = False


def _patch_analysis_functions() -> None:
    """Once per process: time the inspect / typed cast / span build
    functions the analyser imports when it parses."""
    global _ANALYSIS_PATCHED
    if _ANALYSIS_PATCHED:
        return
    import hydra_ray.stages.inspection as insp
    import hydra_ray.stages.spans as spans

    insp.inspect_csv_texts_batch = timed("inspect", insp.inspect_csv_texts_batch, _rows_in)
    insp.csv_texts_to_tables = timed("cast", insp.csv_texts_to_tables, _rows_in)
    spans.build_spans_batch = timed("spans", spans.build_spans_batch, _rows_out)
    _ANALYSIS_PATCHED = True


class TimedAnalyser(Analyser):
    def __call__(self, batch):
        _patch_analysis_functions()
        with Span("analyse", rows=batch.num_rows) as s:
            out = super().__call__(batch)
            if "do_parse" in out.column_names:
                s.counts["parsed"] = int(sum(1 for v in out["do_parse"].to_pylist() if v))
            return out


def _timed_build_checks_batch(b, **kwargs):
    with Span("checks", rows=b.num_rows):
        return build_checks_batch(b, **kwargs)


def enable(trace_dir: str) -> None:
    os.makedirs(trace_dir, exist_ok=True)
    os.environ[TRACE_ENV] = trace_dir


def install() -> None:
    """Route every later crawl, load and on-demand check through the
    shims (engines built earlier keep their untimed stages)."""
    if crawl_mod.Fetcher is TimedFetcher:
        return
    crawl_mod.Fetcher = TimedFetcher
    crawl_mod.Analyser = TimedAnalyser
    crawl_mod.IterationSink = TimedSink
    crawl_mod.build_checks_batch = _timed_build_checks_batch
    crawl_mod.select_batch = timed("select", crawl_mod.select_batch, _rows_out)
    crawl_mod.canonicalize_batch = timed("canon", crawl_mod.canonicalize_batch, _rows_out)


def _urlseen_counts(args, kwargs, out) -> dict:
    return {"keys": len(args[0]), "new": int(out.sum())}


def instrument_engine(engine) -> None:
    """Wrap the client-side public calls of one engine instance."""
    engine.run_iteration = timed("iteration", engine.run_iteration)
    engine.urlseen.add_if_new = timed("urlseen.add", engine.urlseen.add_if_new, _urlseen_counts)
    engine.politeness.reserve = timed("politeness.reserve", engine.politeness.reserve)
    engine.politeness.record_agg = timed("politeness.record", engine.politeness.record_agg)
    engine.catalog.merge_insert = timed("store.checkpoint", engine.catalog.merge_insert)
    engine.catalog.overwrite = timed("store.checkpoint", engine.catalog.overwrite)
    engine.catalog.read_arrow = timed("store.read", engine.catalog.read_arrow, _rows_out)
    engine.checks.read_arrow = timed("store.read", engine.checks.read_arrow, _rows_out)
    engine.checks.read_where_arrow = timed(
        "store.read", engine.checks.read_where_arrow, _rows_out
    )
    for table in (engine.checks, engine.payloads, engine.documents, engine.tables_index):
        table.register_files = timed("store.register", table.register_files)
    engine._save_state = timed("state.save", engine._save_state)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return spans
