"""Local pre-flight for the driver's correctness gate.

Runs every queries() entry at the given sf and, where an oracle exists,
compares row count + order-insensitive values against DuckDB, the same
way the driver does (columns sorted by name, values stringified with
rounding). Usage: python tools/check_correctness.py [sf_dir [query ...]]
Naming a query that is not registered is an error (exit 2).
"""

from __future__ import annotations

import os
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

warnings.filterwarnings("ignore")


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    if isinstance(obj, rd.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    if isinstance(obj, pd.DataFrame):
        return obj
    raise TypeError(type(obj))


def normalize(df):
    import numpy as np
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1)
    rows = []
    for tup in df.itertuples(index=False):
        parts = []
        for v in tup:
            if v is None or (isinstance(v, float) and pd.isna(v)):
                parts.append("∅")
            elif isinstance(v, (float, np.floating)):
                parts.append(f"{float(v):.6f}")
            elif isinstance(v, (pd.Timestamp,)):
                parts.append(v.isoformat())
            else:
                parts.append(str(v))
        rows.append("|".join(parts))
    return sorted(rows)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = sys.argv[2:] or None

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    unknown = sorted(set(only or ()) - set(qs))
    if unknown:
        print("UNKNOWN QUERIES:", " ".join(unknown))
        return 2

    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            failures.append(name)
            print(f"  {name:28s} EXEC-FAIL {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name in oracles:
            want = con.execute(oracles[name]).df()
            ng, nw = normalize(got), normalize(want)
            status = "OK" if ng == nw else "MISMATCH"
            if status != "OK":
                failures.append(name)
                diff_g = [r for r in ng if r not in set(nw)][:3]
                diff_w = [r for r in nw if r not in set(ng)][:3]
                print(f"  {name:28s} {status}  rows ray={len(ng)} sql={len(nw)} ({dt:.1f}s)")
                for d in diff_g:
                    print(f"      ray-only: {d[:140]}")
                for d in diff_w:
                    print(f"      sql-only: {d[:140]}")
            else:
                print(f"  {name:28s} OK        rows={len(ng)} ({dt:.1f}s)")
        else:
            print(f"  {name:28s} rows-only rows={len(got)} ({dt:.1f}s)")
    print("FAILURES:", failures or "none")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
