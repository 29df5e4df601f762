"""Per-layer metrics of a traced run, from the merged spans and the
traced passes. Every workload reports every metric; a layer a workload
does not touch reads 0."""

from __future__ import annotations

import numpy as np

# (name, unit) in report order; BENCHMARK.json's per_layer list matches
PER_LAYER = [
    ("analyse.us_per_url", "us"),
    ("analyse.parse_frac", "ratio"),
    ("analyse.inspect_us_per_parsed", "us"),
    ("analyse.cast_us_per_parsed", "us"),
    ("analyse.spans_us_per_parsed", "us"),
    ("fetch.us_per_url", "us"),
    ("fetch.rows", "count"),
    ("checks.us_per_url", "us"),
    ("sink.us_per_url", "us"),
    ("sink.bytes_written", "bytes"),
    ("sink.files", "count"),
    ("crawl.load_s", "s"),
    ("crawl.pipeline_s", "s"),
    ("crawl.stage_parallelism", "ratio"),
    ("frontier.select_s", "s"),
    ("frontier.selected_rows", "count"),
    ("politeness.reserve_s", "s"),
    ("politeness.record_s", "s"),
    ("politeness.backoff_rows", "count"),
    ("politeness.checkpoint_bytes", "bytes"),
    ("urlseen.add_s", "s"),
    ("urlseen.keys", "count"),
    ("urlseen.new_frac", "ratio"),
    ("urlseen.checkpoint_bytes", "bytes"),
    ("canon.us_per_url", "us"),
    ("store.checkpoint_s", "s"),
    ("store.register_s", "s"),
    ("store.read_s", "s"),
    ("store.rows_read_per_lookup", "count"),
    ("check_now.stages_s", "s"),
    ("check_now.commit_s", "s"),
    ("api.lookup_ms_p50", "ms"),
    ("api.lookup_ms_p90", "ms"),
    ("api.resource_ms_p50", "ms"),
    ("api.status_ms_p50", "ms"),
    ("api.check_now_ms_p50", "ms"),
    ("api.check_now_ms_p90", "ms"),
    ("curate.curate_corpus_s", "s"),
    ("curate.span_dedup_s", "s"),
    ("curate.span_near_dup_s", "s"),
    ("curate.interleave_pack_s", "s"),
    ("curate.rows_out", "count"),
    ("host.steal_frac", "ratio"),
    ("host.calib_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

# the layers only the serving workload reaches; a traced fresh_crawl
# run takes them from its api_serve companion passes
SERVE_LAYERS = [
    "store.read_s", "store.rows_read_per_lookup", "check_now.stages_s", "check_now.commit_s",
    "api.lookup_ms_p50", "api.lookup_ms_p90", "api.resource_ms_p50", "api.status_ms_p50",
    "api.check_now_ms_p50", "api.check_now_ms_p90",
]

STAGES = ("fetch", "checks", "analyse", "sink")
# client-side calls an iteration makes between its pipeline executions
CLIENT_CALLS = (
    "select", "politeness.reserve", "politeness.record", "store.checkpoint",
    "store.register", "store.read", "state.save",
)
COMMIT_CALLS = ("store.register", "store.checkpoint", "state.save")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _inside(spans: list[dict], parents: list[dict], names, client_pid=None) -> list[dict]:
    """Spans named ``names`` that start inside one of ``parents``
    (restricted to the client process when ``client_pid`` is given)."""
    iv = sorted((p["t"], p["t"] + p["d"]) for p in parents)
    out = []
    for s in spans:
        if s["n"] not in names or (client_pid is not None and s["p"] != client_pid):
            continue
        if any(a <= s["t"] <= b for a, b in iv):
            out.append(s)
    return out


def _secs(spans: list[dict]) -> float:
    return sum(s["d"] for s in spans) / 1e9


def _count(spans: list[dict], key: str = "rows") -> int:
    return sum(s.get(key, 0) for s in spans)


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _mean(passes: list[dict], fn) -> float:
    vals = [fn(p) for p in passes]
    return float(np.mean(vals)) if vals else 0.0


def layer_metrics(spans: list[dict], passes: list[dict], client_pid: int) -> dict[str, float]:
    lo = min(p["t0"] for p in passes)
    hi = max(p["t1"] for p in passes)
    spans = [s for s in spans if lo <= s["t"] <= hi]
    n = len(passes)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["n"] == name]

    m: dict[str, float] = {}
    an = named("analyse")
    parsed = _count(an, "parsed")
    m["analyse.us_per_url"] = _div(_secs(an) * 1e6, _count(an))
    m["analyse.parse_frac"] = _div(parsed, _count(an))
    for step in ("inspect", "cast", "spans"):
        m[f"analyse.{step}_us_per_parsed"] = _div(_secs(named(step)) * 1e6, parsed)
    for stage in ("fetch", "checks", "sink"):
        m[f"{stage}.us_per_url"] = _div(_secs(named(stage)) * 1e6, _count(named(stage)))
    m["fetch.rows"] = _count(named("fetch")) / n
    m["sink.bytes_written"] = _mean(passes, lambda p: p.get("sink_bytes", 0))
    m["sink.files"] = _mean(passes, lambda p: p.get("sink_files", 0))
    m["crawl.load_s"] = _mean(passes, lambda p: p.get("load_s", 0.0))

    iters = named("iteration")
    client_s = _secs(_inside(spans, iters, CLIENT_CALLS, client_pid))
    pipeline_s = max(_secs(iters) - client_s, 0.0)
    m["crawl.pipeline_s"] = pipeline_s / n
    m["crawl.stage_parallelism"] = _div(_secs(_inside(spans, iters, STAGES)), pipeline_s)

    sel = named("select")
    m["frontier.select_s"] = _secs(sel) / n
    m["frontier.selected_rows"] = _count(sel) / n
    m["politeness.reserve_s"] = _secs(named("politeness.reserve")) / n
    m["politeness.record_s"] = _secs(named("politeness.record")) / n
    m["politeness.backoff_rows"] = _mean(passes, lambda p: p.get("backoff", 0))
    m["politeness.checkpoint_bytes"] = _mean(
        passes, lambda p: p.get("state_bytes", {}).get("politeness", 0)
    )
    us = named("urlseen.add")
    m["urlseen.add_s"] = _secs(us) / n
    m["urlseen.keys"] = _count(us, "keys") / n
    m["urlseen.new_frac"] = _div(_count(us, "new"), _count(us, "keys"))
    m["urlseen.checkpoint_bytes"] = _mean(
        passes, lambda p: p.get("state_bytes", {}).get("urlseen", 0)
    )
    m["canon.us_per_url"] = _div(_secs(named("canon")) * 1e6, _count(named("canon")))

    m["store.checkpoint_s"] = _secs(_inside(spans, iters, ("store.checkpoint",), client_pid)) / n
    m["store.register_s"] = _secs(_inside(spans, iters, ("store.register",), client_pid)) / n
    lookups = named("api.lookup")
    reads = _inside(spans, lookups, ("store.read",), client_pid)
    m["store.read_s"] = _div(_secs(reads), len(lookups))
    m["store.rows_read_per_lookup"] = _div(_count(reads), len(lookups))
    now = named("api.check_now")
    m["check_now.stages_s"] = _div(_secs(_inside(spans, now, STAGES, client_pid)), len(now))
    m["check_now.commit_s"] = _div(_secs(_inside(spans, now, COMMIT_CALLS, client_pid)), len(now))

    lat: dict[str, list[float]] = {}
    for p in passes:
        for kind, vals in p.get("latency_ms", {}).items():
            lat.setdefault(kind, []).extend(vals)
    m["api.lookup_ms_p50"] = _pct(lat.get("lookup", []), 50)
    m["api.lookup_ms_p90"] = _pct(lat.get("lookup", []), 90)
    m["api.resource_ms_p50"] = _pct(lat.get("resource", []), 50)
    m["api.status_ms_p50"] = _pct(lat.get("status", []), 50)
    m["api.check_now_ms_p50"] = _pct(lat.get("check_now", []), 50)
    m["api.check_now_ms_p90"] = _pct(lat.get("check_now", []), 90)

    for stage in ("curate_corpus", "span_dedup", "span_near_dup", "interleave_pack"):
        m[f"curate.{stage}_s"] = _mean(passes, lambda p: p.get("stage_s", {}).get(stage, 0.0))
    m["curate.rows_out"] = _mean(passes, lambda p: p.get("rows_out", 0))
    return m
