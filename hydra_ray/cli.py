"""Command-line surface mirroring the reference's typer CLI
(reference: udata_hydra/cli/{analysis,catalog,crawl,db,purge}.py) over
the Ray Data engine — a user of `udata-hydra <cmd>` runs the same verbs
here. stdlib argparse only; every command prints one JSON document.

Determinism note: the reference's `csv-sample` uses ORDER BY RANDOM();
this engine's contract replaces all random ordering with seeded
splitmix64 ranks (SURVEY §7.6), so samples are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import pyarrow as pa


def _ray_init() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")


def _engine(workdir: str, **kw):
    from hydra_ray.pipelines.crawl import CrawlEngine

    return CrawlEngine(workdir, **kw)


def cmd_load_catalog(args) -> dict:
    """reference: cli/catalog.py load_catalog (CSV seed → catalog)."""
    _ray_init()
    from hydra_ray.sources.catalog import load_catalog_from_csv

    eng = _engine(args.workdir)
    n = load_catalog_from_csv(eng, args.csv)
    # reference cli/catalog.py:91-92: stuck statuses return to the frontier
    cleaned = eng.clean_up_statuses()
    eng.shutdown()
    return {"loaded": n, "cleaned": cleaned, "workdir": args.workdir}


def cmd_crawl(args) -> dict:
    """reference: cli/crawl.py crawl (run N crawl iterations)."""
    _ray_init()
    eng = _engine(args.workdir, batch_size=args.batch_size)
    stats = eng.run(args.iterations)
    eng.shutdown()
    return {"iterations": stats}


def cmd_check_resource(args) -> dict:
    """reference: cli/crawl.py check_resource (one-shot synchronous check)."""
    _ray_init()
    eng = _engine(args.workdir)
    out = eng.check_resource_now(args.resource_id)
    eng.shutdown()
    return out


def _insert_url(eng, url: str, resource_id: str | None, dataset_id: str, fmt: str | None) -> str:
    """Shared by crawl-url / insert-url-into-catalog: derive rid/format
    and register the URL as a priority resource. Returns the rid."""
    import hashlib

    rid = resource_id or hashlib.md5(url.encode()).hexdigest()
    if not fmt:
        fmt = url.rsplit(".", 1)[-1].lower() if "." in url.rsplit("/", 1)[-1] else ""
    eng.insert_priority_resource(
        {"resource_id": rid, "dataset_id": dataset_id, "url": url, "format": fmt}
    )
    return rid


def cmd_crawl_url(args) -> dict:
    """reference: cli/crawl.py crawl_url + catalog.py insert_url_into_catalog:
    insert the URL as a priority resource, then check it immediately."""
    _ray_init()
    eng = _engine(args.workdir)
    rid = _insert_url(eng, args.url, args.resource_id, args.dataset_id, None)
    out = eng.check_resource_now(rid)
    eng.shutdown()
    return out


def cmd_analyse_csv(args) -> dict:
    """reference: cli/analysis.py analyse_csv_cli (inspection + profile)."""
    from hydra_ray.stages.inspection import inspect_csv_bytes

    with open(args.file, "rb") as f:
        data = f.read()
    return inspect_csv_bytes(data, output_profile=args.profile)


def cmd_analyse_parquet(args) -> dict:
    """reference: cli/analysis.py analyse_parquet_cli (metadata only)."""
    from hydra_ray.stages.inspection import inspect_parquet

    return inspect_parquet(args.file)


def cmd_analyse_geojson(args) -> dict:
    """reference: cli/analysis.py analyse_geojson_cli: feature count,
    geometry types and bbox of a GeoJSON FeatureCollection."""
    with open(args.file, encoding="utf-8") as f:
        doc = json.load(f)
    feats = doc.get("features", [])
    kinds: dict[str, int] = {}
    xs: list[float] = []
    ys: list[float] = []

    def walk(coords):
        if not coords:
            return
        if isinstance(coords[0], (int, float)):
            xs.append(float(coords[0]))
            ys.append(float(coords[1]))
        else:
            for c in coords:
                walk(c)

    for ft in feats:
        geom = ft.get("geometry") or {}
        kinds[geom.get("type", "null")] = kinds.get(geom.get("type", "null"), 0) + 1
        walk(geom.get("coordinates", []))
    bbox = [min(xs), min(ys), max(xs), max(ys)] if xs else None
    return {"n_features": len(feats), "geometry_types": kinds, "bbox": bbox}


def cmd_convert_csv_to_geojson(args) -> dict:
    """reference: cli/analysis.py convert_csv_to_geojson_cli."""
    _ray_init()
    import ray.data as rd

    from hydra_ray.config import config
    from hydra_ray.stages.geo import detect_geo_columns, features_batch, write_feature_collections
    from hydra_ray.stages.inspection import csv_text_to_table, decode_text, inspect_csv_text

    with open(args.file, "rb") as f:
        text, _enc = decode_text(f.read(), config.MAX_FILESIZE_ALLOWED["csvgz"])
    report = inspect_csv_text(text)
    geo = detect_geo_columns(report["columns"])
    if geo is None:
        return {"error": "no geographic columns detected"}
    tbl = csv_text_to_table(text, report)
    ds = rd.from_arrow(tbl).map_batches(
        lambda t: features_batch(t, geo), batch_format="pyarrow"
    )
    files = write_feature_collections(ds, args.out)
    return {"files": files, "geo": geo}


def cmd_convert_geojson_to_pmtiles(args) -> dict:
    """reference: cli/analysis.py convert_geojson_to_pmtiles_cli."""
    _ray_init()
    from hydra_ray.stages.geo import to_pmtiles

    out = to_pmtiles(args.file, args.out, zoom=args.zoom)
    return {"pmtiles": out}


def _latest_checks(eng) -> pa.Table:
    return eng.checks.read_arrow()


def cmd_csv_sample(args) -> dict:
    """reference: cli/db.py csv_sample — latest checks whose content-type
    is csv-ish, 2xx/3xx, size-capped; seeded-rank sample (the engine's
    deterministic replacement for ORDER BY RANDOM())."""
    _ray_init()
    from hydra_ray.functions.hashing import _mix64

    eng = _engine(args.workdir)
    checks = _latest_checks(eng).to_pandas()
    eng.shutdown()
    if checks.empty:
        return {"sample": []}
    ok = (
        checks["mime_type"].fillna("").str.contains("csv")
        & (checks["status"] >= 200)
        & (checks["status"] < 400)
        & (checks["filesize"].fillna(0) <= args.max_size_bytes)
    )
    sub = checks[ok]
    if sub.empty:
        return {"sample": []}
    # seeded stable rank over the url keys (splitmix64 of the md5 head)
    import hashlib

    key = np.array(
        [
            int(_mix64(np.frombuffer(hashlib.md5(u.encode()).digest()[:8], dtype=np.uint64))[0])
            for u in sub["url"]
        ],
        dtype=np.uint64,
    )
    order = np.argsort(key, kind="stable")[: args.size]
    rows = sub.iloc[order][["resource_id", "url", "mime_type", "filesize"]]
    return {"sample": rows.to_dict(orient="records")}


def cmd_probe_cors(args) -> dict:
    """reference: cli/crawl.py probe_cors_cli — one CORS preflight."""
    _ray_init()
    eng = _engine(args.workdir)
    url = args.url
    if args.resource_id and not url:
        from hydra_ray.pipelines.api import EngineApi

        res = EngineApi(eng).get_resource(args.resource_id)
        url = res["document"]["url"]  # reference ResourceSchema wire format
    from hydra_ray.stages.fetcher import make_transport

    transport = make_transport(eng.transport)
    cors = transport.cors(url) or {}
    eng.shutdown()
    allow = {k.lower(): v for k, v in cors.items()}.get("access-control-allow-origin")
    return {"url": url, "cors_headers": cors, "allows_any": allow == "*"}


def cmd_insert_url(args) -> dict:
    """reference: cli/catalog.py insert_url_into_catalog — register one
    URL as a (priority) catalog resource without a full resync. The
    reference resolves metadata from the data.gouv API; offline, the
    caller supplies it."""
    import hashlib

    _ray_init()
    eng = _engine(args.workdir)
    rid = args.resource_id or hashlib.md5(args.url.encode()).hexdigest()
    existed = False
    if not eng.catalog.is_empty():
        # zone-map point lookup — O(matching files' key column)
        existed = (
            eng.catalog.read_where_arrow(
                "resource_id", [rid], columns=["resource_id"]
            ).num_rows
            > 0
        )
    _insert_url(eng, args.url, rid, args.dataset_id, args.format)
    eng.shutdown()
    return {"resource_id": rid, "url": args.url, "action": "update" if existed else "insert"}


def cmd_download_resource(args) -> dict:
    """reference: cli/crawl.py download_resource_cli — fetch a catalog
    resource's bytes to {output_dir}/{resource_id}.{ext}."""
    import os

    _ray_init()
    from hydra_ray.pipelines.api import EngineApi
    from hydra_ray.stages.fetcher import make_transport

    eng = _engine(args.workdir)
    res = EngineApi(eng).get_resource(args.resource_id)
    url = res["document"]["url"]  # reference ResourceSchema wire format
    data = make_transport(eng.transport).download(url, args.max_bytes)
    eng.shutdown()
    if len(data) > args.max_bytes:
        return {"resource_id": args.resource_id, "url": url, "error": "File too large to download"}
    ext = url.rsplit(".", 1)[-1].lower() if "." in url.rsplit("/", 1)[-1] else "bin"
    out_dir = args.output_dir or "/tmp"
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.resource_id}.{ext}")
    with open(path, "wb") as f:
        f.write(data)
    return {"resource_id": args.resource_id, "url": url, "path": path, "bytes": len(data)}


def cmd_analyse_ogc(args) -> dict:
    """reference: cli/analysis.py analyse_ogc_cli — OGC GetCapabilities
    analysis from a check_id, URL or resource_id (check looked up first,
    bare URLs analysed directly, same fallback order as the reference)."""
    _ray_init()
    from hydra_ray.config import config
    from hydra_ray.pipelines.api import EngineApi, Gone, NotFound
    from hydra_ray.stages.fetcher import make_transport
    from hydra_ray.stages.ogc import analyse_ogc

    # reference cli/analysis.py:311: "Temporarily enabling OGC analysis
    # for CLI" — restored afterwards so long-lived callers keep their
    # configuration
    was_enabled = config.OGC_ANALYSIS_ENABLED
    config.override(OGC_ANALYSIS_ENABLED=True)
    eng = _engine(args.workdir)
    try:
        check = None
        try:
            if args.check_id is not None and not eng.checks.is_empty():
                # zone-map point lookup straight on the checks table —
                # works with a bare --check-id; --url/--resource-id
                # still scope it (a mismatched id is treated as absent)
                t = eng.checks.read_where_arrow("id", [int(args.check_id)])
                check = t.to_pylist()[0] if t.num_rows else None
                if check is not None and (
                    (args.resource_id and check.get("resource_id") != args.resource_id)
                    or (args.url and check.get("url") != args.url)
                ):
                    check = None
                if check is not None and check.get("resource_id"):
                    # reference parity: a tombstoned resource is Gone
                    cat = eng.catalog.read_where_arrow(
                        "resource_id", [check["resource_id"]], columns=["deleted"]
                    )
                    if cat.num_rows and bool(cat["deleted"][0].as_py() or False):
                        check = None
            if check is None and (args.url or args.resource_id):
                wire = EngineApi(eng).get_latest_check(
                    url=args.url, resource_id=args.resource_id
                )
                # the API speaks the reference wire format (check_url);
                # analyse_ogc consumes internal check rows (url)
                check = dict(wire) | {"url": wire["check_url"]}
        except (NotFound, Gone, ValueError):
            check = None
        if check is None and args.url:
            check = {"id": None, "url": args.url, "resource_id": None}
        if check is None:
            return {"error": "no check found for this resource", "result": None}
        result = analyse_ogc(dict(check), transport=make_transport(eng.transport))
        return {"url": check["url"], "result": result}
    finally:
        config.override(OGC_ANALYSIS_ENABLED=was_enabled)
        eng.shutdown()


def cmd_find_check(args) -> dict:
    """reference: cli/db.py find_check — checks rows for a URL / resource."""
    _ray_init()
    from hydra_ray.pipelines.api import EngineApi

    eng = _engine(args.workdir)
    api = EngineApi(eng)
    rows = api.get_all_checks(url=args.url, resource_id=args.resource_id)
    eng.shutdown()
    return {"checks": rows}


def cmd_purge(args) -> dict:
    """reference: cli/purge.py purge_checks/purge_csv_tables — here the
    versioned-store GC (old table versions + orphaned txn dirs + state)."""
    _ray_init()
    eng = _engine(args.workdir)
    out = eng.gc(keep_versions=args.keep_versions)
    eng.shutdown()
    return out


def cmd_purge_documents(args) -> dict:
    """reference: cli/purge.py drop-data-of-deleted-resources — here a
    deletion-vector commit on the documents table (no rewrite); the
    next `purge` (gc) after compaction reclaims the bytes. --defer
    downgrades to an O(1) equality-delete commit (bulk-purge path)."""
    _ray_init()
    eng = _engine(args.workdir)
    out = eng.purge_documents(args.resource_id, defer=args.defer)
    eng.shutdown()
    return out


def cmd_status(args) -> dict:
    """reference: routes worker/crawler status."""
    _ray_init()
    from hydra_ray.pipelines.api import EngineApi

    eng = _engine(args.workdir)
    api = EngineApi(eng)
    out = {"crawler": api.get_crawler_status(), "worker": api.get_worker_status()}
    eng.shutdown()
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hydra-ray", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, *specs):
        sp = sub.add_parser(name)
        for flags, kw in specs:
            sp.add_argument(*flags, **kw)
        sp.set_defaults(fn=fn)
        return sp

    wd = (["--workdir"], {"required": True})
    add("load-catalog", cmd_load_catalog, wd, (["--csv"], {"required": True}))
    add("crawl", cmd_crawl, wd, (["--iterations"], {"type": int, "default": 1}),
        (["--batch-size"], {"type": int, "default": None}))
    add("check-resource", cmd_check_resource, wd, (["--resource-id"], {"required": True}))
    # reference cli/analysis.py analyse-resource: re-run fetch+analysis
    # for one resource — same one-shot path as check-resource here
    add("analyse-resource", cmd_check_resource, wd, (["--resource-id"], {"required": True}))
    add("crawl-url", cmd_crawl_url, wd, (["--url"], {"required": True}),
        (["--resource-id"], {"default": None}), (["--dataset-id"], {"default": "cli"}))
    add("analyse-csv", cmd_analyse_csv, (["--file"], {"required": True}),
        (["--profile"], {"action": "store_true"}))
    add("analyse-parquet", cmd_analyse_parquet, (["--file"], {"required": True}))
    add("analyse-geojson", cmd_analyse_geojson, (["--file"], {"required": True}))
    add("convert-csv-to-geojson", cmd_convert_csv_to_geojson,
        (["--file"], {"required": True}), (["--out"], {"required": True}))
    add("convert-geojson-to-pmtiles", cmd_convert_geojson_to_pmtiles,
        (["--file"], {"required": True}), (["--out"], {"required": True}),
        (["--zoom"], {"type": int, "default": 6}))
    add("csv-sample", cmd_csv_sample, wd, (["--size"], {"type": int, "default": 1000}),
        (["--max-size-bytes"], {"type": int, "default": 100 * 1024 * 1024}))
    add("probe-cors", cmd_probe_cors, wd, (["--url"], {"default": None}),
        (["--resource-id"], {"default": None}))
    add("find-check", cmd_find_check, wd, (["--url"], {"default": None}),
        (["--resource-id"], {"default": None}))
    add("insert-url-into-catalog", cmd_insert_url, wd,
        (["--url"], {"required": True}), (["--resource-id"], {"default": None}),
        (["--dataset-id"], {"default": "cli"}), (["--format"], {"default": None}))
    add("insert-resource-into-catalog", cmd_insert_url, wd,
        (["--url"], {"required": True}), (["--resource-id"], {"required": True}),
        (["--dataset-id"], {"default": "cli"}), (["--format"], {"default": None}))
    add("download-resource", cmd_download_resource, wd,
        (["--resource-id"], {"required": True}),
        (["--output-dir"], {"default": None}),
        (["--max-bytes"], {"type": int, "default": 100 * 1024 * 1024}))
    add("analyse-ogc", cmd_analyse_ogc, wd, (["--url"], {"default": None}),
        (["--resource-id"], {"default": None}), (["--check-id"], {"default": None}))
    add("purge", cmd_purge, wd, (["--keep-versions"], {"type": int, "default": 2}))
    add("purge-documents", cmd_purge_documents, wd,
        (["--resource-id"], {"action": "append", "required": True}),
        (["--defer"], {"action": "store_true", "default": False}))
    add("status", cmd_status, wd)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    out = args.fn(args)
    json.dump(out, sys.stdout, default=str)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
