"""Deterministic 64-bit hashing shared by routing, sampling and sketches.

``_mix64`` is the splitmix64 finalizer. Every seeded hash in the engine
(frontier ranks, check ids, domain partitioning, MinHash permutations,
shuffles, sketches) goes through it, and the SQL oracles in
pipelines/queries.py inline the same constants, so its output is part
of the determinism contract: changing it changes every seeded result.
"""

from __future__ import annotations

import numpy as np


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — deterministic 64-bit mixing."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x
