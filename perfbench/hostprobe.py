"""Host-noise probes and the memory sampler.

Noise is recorded next to every sample as data, never used as a gate:
``steal_frac`` is the share of CPU time the hypervisor stole over the
measured window (/proc/stat), ``calib_ms`` is the wall time of a fixed
piece of single-threaded work taken before and after the window.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already inside user/nice
    return fields[7], sum(fields[:8])


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def calib_ms() -> float:
    """Wall milliseconds of a fixed hashing loop (about 20 ms on an idle
    2 GHz core); it grows when the host takes the CPU away."""
    buf = b"\x5a" * 4096
    t0 = time.perf_counter()
    h = hashlib.sha256()
    for _ in range(6000):
        h.update(buf)
    h.digest()
    return (time.perf_counter() - t0) * 1000.0


def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: ppid follows the closing paren
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(name))
    return kids


def tree_pids(root: int) -> list[int]:
    kids = _children()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mb(root: int) -> float:
    """Proportional set size of a process and all its descendants (the
    client process plus Ray's raylet, GCS and workers), so pages the object store
    shares between processes are counted once."""
    return sum(_pss_kb(p) for p in tree_pids(root)) / 1024.0


class MemorySampler:
    """Samples tree_pss_mb(os.getpid()) on a thread; ``peak_mb`` is the
    highest sample taken while started. One sample reads ~25
    smaps_rollup files (tens of ms of kernel time), hence once a second."""

    INTERVAL_S = 1.0

    def __init__(self):
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_pss_mb(os.getpid()))
            self._stop.wait(self.INTERVAL_S)

    def __enter__(self) -> "MemorySampler":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self.peak_mb = max(self.peak_mb, tree_pss_mb(os.getpid()))
