"""Expected outputs of the curation workload.

The curation stages are checked against the DuckDB SQL oracles that the
repository's correctness gate (tools/check_correctness.py) uses for the
same stages. The two MinHash oracles take minutes in SQL, so their
results are pinned in ``expected.json`` per corpus variant and size;
regenerate the pins after changing the corpus generator with

    python3 perfbench/oracle.py

run from the root of the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# stage -> the correctness-gate query whose oracle checks it
ORACLE_OF = {
    "curate_corpus": "curate_near_dup",
    "span_dedup": "span_dedup",
    "span_near_dup": "span_near_dup",
    "interleave_pack": "interleave_pack",
}


def rows_digest(df) -> str:
    """Order-insensitive digest of a DataFrame: columns by name, values
    rendered as the correctness gate renders them."""
    df = df.reindex(sorted(df.columns), axis=1)
    rows = []
    for tup in df.itertuples(index=False):
        parts = []
        for v in tup:
            if v is None or (isinstance(v, float) and v != v):
                parts.append("∅")
            elif isinstance(v, (float, np.floating)):
                parts.append(f"{float(v):.6f}")
            else:
                parts.append(str(v))
        rows.append("|".join(parts))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()


def oracle_digests(docs) -> dict[str, list]:
    """[rows, digest] per stage, computed by the SQL oracles."""
    import duckdb

    from hydra_ray.pipelines.queries import ORACLES

    con = duckdb.connect()
    con.register("documents", docs)
    out = {}
    for stage, query in ORACLE_OF.items():
        want = con.execute(ORACLES[query]).df()
        out[stage] = [len(want), rows_digest(want)]
    con.close()
    return out


def _key(variant: int, n_docs: int) -> str:
    return f"{variant}/{n_docs}"


def expected(variant: int, n_docs: int) -> dict[str, list]:
    """Pinned oracle results; every (variant, size) the benchmark makes
    is pinned, so a missing pin is an error (run ``pin``)."""
    with open(EXPECTED_PATH) as f:
        pins = json.load(f)
    return pins[_key(variant, n_docs)]


def pin() -> None:
    from perfbench import inputs
    from perfbench.workloads import SCALES

    pins = {}
    for scale in SCALES.values():
        for variant in range(inputs.CORPUS_VARIANTS):
            n = scale["docs"]
            pins[_key(variant, n)] = oracle_digests(inputs.corpus(variant, n))
            print(_key(variant, n), pins[_key(variant, n)], flush=True)
    with open(EXPECTED_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.getcwd())
    pin()
