"""Per-resource export artifacts recorded on check rows.

Reference semantics (analysis/exports.py:20-128 + migrations
20241021_add_parquet_columns / 20250130_add_pmtiles_fields /
20250615_add_geojson_fields): after a successful parse, low-priority
jobs convert the parsed table to Parquet (when it has at least
``MIN_LINES_FOR_PARQUET`` lines), GeoJSON (when geo columns were
detected) and PMTiles, upload each artifact, and write
``check.{parquet,geojson,pmtiles}_url`` + ``_size`` back onto the
check row (then notify udata through the payload flattener).

Here the conversion runs inside the analyse task — the worker
already holds the typed Arrow table, so the artifact bytes never move
— and the recorded URL follows the deterministic
``EXPORTS_BASE_URL/<url_md5>.<ext>`` layout (the sandbox stand-in for
the S3 object URL ``send_file`` returns). ``exports_dir`` persists the
bytes next to the engine's tables (atomic tmp+rename, idempotent names
— a re-executed Ray task overwrites its own artifact).
"""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from hydra_ray.config import config
from hydra_ray.stages.geo import detect_geo_columns, features_batch, lonlat_to_tile

_EXPORT_KEYS = (
    "parquet_url",
    "parquet_size",
    "geojson_url",
    "geojson_size",
    "pmtiles_url",
    "pmtiles_size",
)


def geojson_collection(features: list[str]) -> str:
    """Feature strings → one FeatureCollection document (byte-identical
    layout to stages/geo.py write_feature_collections)."""
    return (
        '{"type": "FeatureCollection", "features": [\n'
        + ",\n".join(features)
        + "\n]}\n"
    )


def point_features_pmtiles_bytes(features: list[str], zoom: int = 6) -> bytes:
    """GeoJSON Feature strings → PMTiles v3 archive bytes (the
    per-resource path of stages/geo.py to_pmtiles, without the file
    round-trip). Non-point/null geometries are skipped."""
    import numpy as np

    from hydra_ray.sources.pmtiles import build_pmtiles_bytes, encode_mvt_layer

    pts = []
    for feat in features:
        obj = json.loads(feat)
        geom = obj.get("geometry") or {}
        if geom.get("type") == "Point":
            pts.append((geom["coordinates"], obj.get("properties") or {}))
    if not pts:
        raise ValueError("no point features to tile")
    lons = np.array([c[0] for c, _ in pts])
    lats = np.array([c[1] for c, _ in pts])
    tx, ty, px, py = lonlat_to_tile(lons, lats, zoom)
    buckets: dict[tuple[int, int], list] = {}
    for i, (_c, props) in enumerate(pts):
        buckets.setdefault((int(tx[i]), int(ty[i])), []).append(
            (int(px[i]), int(py[i]), props)
        )
    tiles = {}
    for (x, y), feats in buckets.items():
        feats.sort(key=lambda t: (t[0], t[1], json.dumps(t[2], sort_keys=True, default=str)))
        tiles[(zoom, x, y)] = encode_mvt_layer(
            "features", [(i + 1, fx, fy, pr) for i, (fx, fy, pr) in enumerate(feats)]
        )
    return build_pmtiles_bytes(tiles)


def _persist(exports_dir: str | None, name: str, blob: bytes) -> None:
    if exports_dir is None:
        return
    os.makedirs(exports_dir, exist_ok=True)
    path = os.path.join(exports_dir, name)
    # uuid, not pid: two workers on DIFFERENT nodes sharing the exports
    # dir can collide on pid and interleave bytes before the rename
    tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)


def export_artifacts(
    table: pa.Table,
    insp: dict,
    url_md5: str,
    exports_dir: str | None = None,
) -> dict:
    """Run the enabled export jobs for one parsed resource. Returns the
    ``{parquet,geojson,pmtiles}_{url,size}`` column values (None where
    an export is disabled or not applicable)."""
    out: dict = {k: None for k in _EXPORT_KEYS}
    base = config.EXPORTS_BASE_URL.rstrip("/")
    if (
        config.DB_TO_PARQUET
        and int(insp.get("total_lines") or 0) >= config.MIN_LINES_FOR_PARQUET
    ):
        buf = pa.BufferOutputStream()
        pq.write_table(table, buf, compression="snappy")
        blob = buf.getvalue().to_pybytes()
        _persist(exports_dir, f"{url_md5}.parquet", blob)
        out["parquet_url"] = f"{base}/{url_md5}.parquet"
        out["parquet_size"] = len(blob)
    geo = detect_geo_columns(insp) if config.DB_TO_GEOJSON else None
    if geo is not None:
        features = features_batch(table, geo)["feature"].to_pylist()
        doc = geojson_collection(features).encode()
        _persist(exports_dir, f"{url_md5}.geojson", doc)
        out["geojson_url"] = f"{base}/{url_md5}.geojson"
        out["geojson_size"] = len(doc)
        if config.GEOJSON_TO_PMTILES:
            try:
                tiles = point_features_pmtiles_bytes(features)
            except ValueError:
                tiles = None  # no point features: reference records no artifact
            if tiles is not None:
                _persist(exports_dir, f"{url_md5}.pmtiles", tiles)
                out["pmtiles_url"] = f"{base}/{url_md5}.pmtiles"
                out["pmtiles_size"] = len(tiles)
    return out
