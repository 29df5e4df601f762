"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload fresh_crawl --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
the current directory. Workloads and metrics are described in
perfbench/README.md. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``. The line before it carries every pass
and the host-noise record; the same detail is kept under
``.perfbench/results/``. Everything the run writes stays under
``.perfbench/`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

NUM_CPUS = 2  # of the host's 4 vCPUs: steadier than all 4
OBJECT_STORE_BYTES = 512 << 20
# keep idle workers (and their imports) alive between executions, as a
# long-running engine does; Ray's default reaps them after a second
RAY_SYSTEM_CONFIG = {"idle_worker_killing_time_threshold_ms": 600_000, "num_workers_soft_limit": 12}
# Ray's unix sockets live under its temp dir and must fit in 107 bytes
RAY_TMP_MAX_LEN = 44

E2E = [("setup_s", "s"), ("pass_s", "s"), ("rate_per_s", "1/s"), ("peak_rss_mb", "MB")]


class Ctx:
    """What a workload needs to know about its run."""

    def __init__(self, root: str, seed: int, scale: dict):
        self.seed = seed % 2**32  # numpy seeds must be non-negative
        self.scale = scale
        self.tracer = None  # the tracing module once traced passes start
        self.pass_index = 0
        self.base = os.path.join(root, ".perfbench", f"work-{os.getpid()}")

    def work(self, name: str) -> str:
        return os.path.join(self.base, name)


def start_ray(root: str) -> str | None:
    import ray
    import ray.data as rd

    # workers import the program (and the shims) from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    tmp = os.path.join(root, ".perfbench", "ray")
    if len(tmp) > RAY_TMP_MAX_LEN:
        print("checkout path too long for Ray sockets; Ray uses its default temp dir", file=sys.stderr)
        tmp = None
    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=tmp,
        _system_config=RAY_SYSTEM_CONFIG,
    )
    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return tmp


def _warm() -> int:
    import hydra_ray.pipelines.crawl  # noqa: F401
    import hydra_ray.stages.inspection  # noqa: F401
    import hydra_ray.stages.spans  # noqa: F401

    time.sleep(0.5)  # hold this worker so each task gets its own
    return os.getpid()


def warm_workers() -> None:
    """Import the program in every task worker before anything is timed:
    one task per CPU, all running at once, so the same number of workers
    start on every run."""
    import ray

    task = ray.remote(_warm)
    ray.get([task.remote() for _ in range(NUM_CPUS)])


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; reaps it first if it is our exited child."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started is gone."""
    import ray

    from perfbench.hostprobe import tree_pids

    me = os.getpid()
    pids = [p for p in tree_pids(me) if p != me]
    ray.shutdown()
    deadline = time.monotonic() + 10
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if _alive(p)]
        time.sleep(0.1)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while any(_alive(p) for p in pids):
        time.sleep(0.05)


def measure(workload, ctx: Ctx, seconds: float, least: int) -> list[dict]:
    """Repeat passes until ``seconds`` have gone by and at least ``least``
    are done, but never more than the workload's ``max_passes``."""
    passes = []
    most = getattr(workload, "max_passes", None)
    t0 = time.perf_counter()
    while len(passes) < least or (
        time.perf_counter() - t0 < seconds and len(passes) != most
    ):
        passes.append(workload.run_pass(ctx))
        ctx.pass_index += 1
    return passes


def run_companion(workload, ctx: Ctx, tracing) -> list[dict]:
    """Set up another workload in the same Ray session and run its
    traced passes, so a traced run also measures layers that only that
    workload reaches."""
    workload.setup(ctx)
    workload.instrument(tracing)
    try:
        return measure(workload, ctx, 0, workload.min_traced_passes)
    finally:
        workload.teardown()


def run(args, root: str) -> dict:
    from perfbench import hostprobe, tracing
    from perfbench.layers import SERVE_LAYERS, layer_metrics
    from perfbench.workloads import SCALES, WORKLOADS

    workload = WORKLOADS[args.workload]()
    ctx = Ctx(root, args.seed, SCALES[args.scale])
    trace_dir = os.path.join(ctx.base, "trace")
    calib = [hostprobe.calib_ms()]

    t_setup = time.perf_counter()
    if args.trace:
        tracing.enable(trace_dir)
    ray_tmp = start_ray(root)
    try:
        t_ray = time.perf_counter()
        warm_workers()
        t_warm = time.perf_counter()
        setup_reps = workload.setup(ctx)
        t_done = time.perf_counter()
        phases = {
            "ray_start_s": t_ray - t_setup,
            "warm_workers_s": t_warm - t_ray,
            "workload_s": t_done - t_warm,
        }

        cpu0 = hostprobe.cpu_times()
        with hostprobe.MemorySampler() as mem:
            least = getattr(workload, "min_passes", 1)
            least_traced = getattr(workload, "min_traced_passes", least)
            if args.trace:
                # the untraced passes of a traced run are only the
                # baseline of trace.overhead_frac
                least = min(least, least_traced)
            passes = measure(workload, ctx, args.seconds, least)
            traced, companions = [], {}
            if args.trace:
                tracing.install()
                ctx.tracer = tracing
                if hasattr(workload, "instrument"):
                    workload.instrument(tracing)
                traced = measure(workload, ctx, args.seconds, least_traced)
                for name in getattr(workload, "companions", ()):
                    companions[name] = run_companion(WORKLOADS[name](), ctx, tracing)
        cpu1 = hostprobe.cpu_times()
        calib.append(hostprobe.calib_ms())
        # the program's set-up: worker imports, then the median of the
        # workload's set-up repetitions (a pass that starts with a set-up
        # of its own adds one). Ray's start is the runtime's, the same
        # for every version of the program, and the noisiest part, so it
        # is left out
        setup_reps += [p["setup_s"] for p in passes if "setup_s" in p]
        phases["setup_reps_s"] = setup_reps
        setup_s = phases["warm_workers_s"] + statistics.median(setup_reps)
        if hasattr(workload, "finish"):
            workload.finish(passes + traced)
        if hasattr(workload, "teardown"):
            workload.teardown()
    finally:
        stop_ray()
        if ray_tmp:
            shutil.rmtree(ray_tmp, ignore_errors=True)

    host = {
        "steal_frac": hostprobe.steal_frac(cpu0, cpu1),
        "calib_ms": statistics.fmean(calib),
        "calib_samples_ms": calib,
    }
    every = passes + traced + [p for cp in companions.values() for p in cp]
    metrics = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "rate_per_s": statistics.median(p["rate"] for p in passes),
        "peak_rss_mb": mem.peak_mb,
    }
    layers = None
    if args.trace:
        spans = tracing.load_spans(trace_dir)
        layers = layer_metrics(spans, traced, os.getpid())
        for cp in companions.values():
            serve = layer_metrics(spans, cp, os.getpid())
            layers.update((n, serve[n]) for n in SERVE_LAYERS)
        layers["host.steal_frac"] = host["steal_frac"]
        layers["host.calib_ms"] = host["calib_ms"]
        traced_rate = statistics.median(p["rate"] for p in traced)
        layers["trace.overhead_frac"] = 1.0 - traced_rate / metrics["rate_per_s"]
    shutil.rmtree(ctx.base, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "num_cpus": NUM_CPUS,
        "host": host,
        "setup_phases": phases,
        "e2e": metrics,
        "layers": layers,
        "passes": passes,
        "traced_passes": traced,
        "companion_passes": companions,
        "attempted": sum(p["attempted"] for p in every),
        "failed": sum(p["failed"] for p in every),
    }


def parse_args(argv=None):
    names = ("fresh_crawl", "daily_recheck", "api_serve", "corpus_curate")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "hydra_ray", "__init__.py")):
        print(f"no hydra_ray package under {root}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, root)
    from perfbench.layers import PER_LAYER

    detail = run(args, root)
    out_dir = os.path.join(root, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(detail, f, indent=1)

    if args.trace:
        metrics = {n: {"value": detail["layers"][n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": detail["e2e"][n], "unit": u} for n, u in E2E}
    print(json.dumps(detail, separators=(",", ":")))
    print(
        json.dumps(
            {
                "correct": detail["failed"] == 0,
                "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
