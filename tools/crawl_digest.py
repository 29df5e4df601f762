"""Per-column sha256 digests of a small seeded crawl's tables.

Runs a three-iteration crawl of a synthetic catalog (some resources
carry harvest dates, a few are WFS/WMS services; OGC analysis and the
parquet export are on), then moves the virtual clock past the longest
check delay, switches the synthetic web to its next epoch and re-checks
every resource. Prints one line per column of the catalog, checks,
payloads, documents and tables_index tables:

    <table>.<column> <sha256 of the column's values, rows in key order>

Two source trees that crawl identically print identical lines, so a
change to the crawl stages is byte-checked with a ``diff`` of two runs:

    python tools/crawl_digest.py > after.txt

The workdir is removed and recreated on every run. Values are hashed
with the workdir path cut out, so runs in different workdirs compare.
``tests/test_crawler/crawl_digest.txt`` holds the default output, and
``tests/test_crawler/test_crawl_digest.py`` runs the same crawl
in-process and compares line by line; after a change that moves crawl
output on purpose, regenerate it with

    python tools/crawl_digest.py > tests/test_crawler/crawl_digest.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
from datetime import timedelta

import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

# rows of each table in a key order that does not depend on block order
SORT_KEYS = {
    "catalog": ["resource_id"],
    "checks": ["id"],
    "payloads": ["iteration", "resource_id", "kind", "payload"],
    "documents": ["doc_id", "_iter"],
    "tables_index": ["parsing_table", "_iter"],
}


def digest_catalog(seed: int, n: int) -> pa.Table:
    from hydra_ray.pipelines.crawl import VIRTUAL_T0
    from perfbench import inputs

    cat = inputs.catalog(inputs.catalog_doc_ids(seed, n))
    rows = cat.num_rows
    # every fifth resource carries a harvest date, a few days apart
    harvest = [
        VIRTUAL_T0 - timedelta(days=1 + i % 7) if i % 5 == 0 else None for i in range(rows)
    ]
    cat = cat.append_column("harvest_modified_at", pa.array(harvest, type=pa.timestamp("us")))
    services = [
        "https://geo.example/geoserver/wfs?typeName=ns:roads",
        "https://maps.example/ows?service=WFS&typeName=ns:rivers",
        "https://tiles.example/geoserver/wms",
    ]
    ogc = pa.table(
        {
            "dataset_id": [f"ds-ogc-{i}" for i in range(len(services))],
            "resource_id": [hashlib.md5(u.encode()).hexdigest() for u in services],
            "url": services,
            "type": ["main"] * len(services),
            "format": ["wfs", "wfs", "wms"],
            "title": [f"service {i}" for i in range(len(services))],
            "deleted": [False] * len(services),
            "priority": [False] * len(services),
            "harvest_modified_at": pa.nulls(len(services), pa.timestamp("us")),
        }
    )
    return pa.concat_tables([cat, ogc.cast(cat.schema)])


def column_digests(name: str, table: pa.Table, workdir: str) -> list[str]:
    keys = [k for k in SORT_KEYS[name] if k in table.column_names]
    table = table.sort_by([(k, "ascending") for k in keys]) if keys else table
    lines = []
    for col in sorted(table.column_names):
        text = json.dumps(table[col].to_pylist(), default=str, sort_keys=True)
        text = text.replace(workdir.rstrip(os.sep) + os.sep, "")
        lines.append(f"{name}.{col} {hashlib.sha256(text.encode()).hexdigest()}")
    return lines


def digest_lines(workdir: str, seed: int = 1001, urls: int = 400) -> list[str]:
    """Run the seeded crawl in ``workdir`` on the running Ray session and
    return the digest lines; ``workdir`` is removed before and after."""
    from hydra_ray.config import config
    from hydra_ray.pipelines.crawl import CrawlEngine

    shutil.rmtree(workdir, ignore_errors=True)
    catalog = digest_catalog(seed, urls)
    eng = CrawlEngine(
        workdir,
        seed=seed,
        batch_size=max(1, int(catalog.num_rows * 0.4)),
        politeness_kwargs={"backoff_nb_req": 10**9},
        urlseen_shards=2,
        politeness_shards=2,
        analysis_config={"OGC_ANALYSIS_ENABLED": True, "DB_TO_PARQUET": True, "MIN_LINES_FOR_PARQUET": 5},
    )
    try:
        eng.load_catalog(catalog)
        eng.run(3)
        # the recheck: every resource is due, and ~10% of the web changed
        eng.iteration += max(config.CHECK_DELAYS) * 60
        eng.transport = {"kind": "synthetic", "epoch": 1}
        eng.batch_size = 10**9
        eng.run(1)
        tables = {
            "catalog": eng.catalog.read_arrow(),
            "checks": eng.checks.read_arrow(),
            "payloads": eng.payloads.read_arrow(),
            "documents": eng.read_documents(),
            "tables_index": eng.tables_index.read_arrow(),
        }
        lines = []
        for name, table in tables.items():
            lines.append(f"{name} rows {table.num_rows}")
            lines.extend(column_digests(name, table, workdir))
        return lines
    finally:
        eng.shutdown()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1001)
    ap.add_argument("--urls", type=int, default=400)
    ap.add_argument(
        "--workdir", default=os.path.join(tempfile.gettempdir(), "hydra-ray-crawl-digest")
    )
    args = ap.parse_args(argv)

    import ray

    # workers import the program from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=2, include_dashboard=False, log_to_driver=False, logging_level="ERROR")
    try:
        print("\n".join(digest_lines(args.workdir, args.seed, args.urls)))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
