"""Serving surface: the reference's HTTP API as engine-level calls.

Mirrors udata_hydra's aiohttp routes (routes/__init__.py:52-79) as
plain functions over the versioned tables — the sandbox mapping of the
serving layer (no web framework is needed to express the semantics;
a deployment wraps these in any HTTP server):

  GET  /api/checks/latest     → get_latest_check(url|resource_id)
       (routes/checks.py:16-25; Check.get_latest)
  GET  /api/checks/all        → get_all_checks(url|resource_id)
  GET  /api/checks/aggregate  → get_checks_aggregate(created_at, group_by)
       (routes/checks.py:37-57)
  POST /api/checks            → create_check(resource_id)
       (routes/checks.py:60-96 — delegates to CrawlEngine.check_resource_now)
  GET  /api/resources/{id}    → get_resource(resource_id)
  GET  /api/status/crawler    → get_crawler_status()
       (routes/status.py:29-77: never-checked / checked / outdated /
        in-progress over non-excluded rows)
  GET  /api/status (counts)   → get_resources_status_counts()
  GET  /api/health            → health()

Small-result queries run as vectorized Arrow kernels over the latest
table versions. Point lookups (a check by url or resource_id, a catalog
row by resource_id) read ``VersionedTable.read_where_arrow``: each
file's footer min/max of the key prunes the files that cannot match,
the rest are read and filtered on the driver. The pruning skips files
only when the key is clustered (after ``compact(sort_by=key)``); on the
hash-spread ids of an uncompacted table every file is read.
"""

from __future__ import annotations

from datetime import date, datetime

import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.config import config


class NotFound(KeyError):
    """404 equivalent."""


class Gone(KeyError):
    """410 equivalent (deleted resource)."""


class EngineApi:
    def __init__(self, engine):
        self.engine = engine

    # -- checks ------------------------------------------------------------
    def _checks_filtered(self, url: str | None, resource_id: str | None) -> pa.Table:
        """Every check of one url or resource_id. The zone maps prune
        the files whose footer min/max of the key cannot match; that
        skips files only when the checks table was compacted sorted by
        the key, otherwise every file is read and filtered. Always on
        the driver: a serving lookup must not pay Ray Data's
        per-execution fixed cost."""
        if url is None and resource_id is None:
            raise ValueError("provide url or resource_id")
        key, val = (
            ("resource_id", resource_id) if resource_id is not None else ("url", url)
        )
        return self.engine.checks.read_where_arrow(key, [val])

    # reference wire format (schemas/check.py CheckSchema): marshmallow
    # data_key renames check_id→"id" / check_status→"status", headers
    # parsed to a dict (empty when null), cors_headers parsed or None,
    # datetimes ISO-serialized, plus the catalog-join fields
    # (catalog_id/catalog_url/deleted — Check.get_latest, db/check.py:62-70)
    # and the parse/export lifecycle columns.
    @staticmethod
    def _check_wire(row: dict, cat_row: dict | None) -> dict:
        import json as _json

        def iso(v):
            return v.isoformat() if v is not None else None

        cat_row = cat_row or {}
        return {
            "id": row["id"],
            # the engine's stable per-URL integer (url_key) stands in for
            # the reference's serial catalog.id
            "catalog_id": cat_row.get("url_key"),
            "catalog_url": cat_row.get("url"),
            "check_url": row["url"],
            "domain": row["domain"],
            "created_at": iso(row["created_at"]),
            "status": row["status"],
            "headers": _json.loads(row["headers"]) if row.get("headers") else {},
            "cors_headers": (
                _json.loads(row["cors_headers"]) if row.get("cors_headers") else None
            ),
            "timeout": row["timeout"],
            "response_time": row["response_time"],
            "error": row["error"],
            "dataset_id": row["dataset_id"],
            "resource_id": row["resource_id"],
            "next_check_at": iso(row["next_check_at"]),
            "deleted": bool(cat_row.get("deleted") or False),
            "parsing_started_at": iso(row.get("parsing_started_at")),
            "parsing_finished_at": iso(row.get("parsing_finished_at")),
            "parsing_error": row.get("parsing_error"),
            "parsing_table": row.get("parsing_table"),
            "parquet_url": row.get("parquet_url"),
            "parquet_size": row.get("parquet_size"),
            "pmtiles_url": row.get("pmtiles_url"),
            "pmtiles_size": row.get("pmtiles_size"),
            "geojson_url": row.get("geojson_url"),
            "geojson_size": row.get("geojson_size"),
        }

    # every catalog column any wire format reads — the serving lookups
    # project to these instead of scanning the full catalog width
    _CATALOG_WIRE_COLS = [
        "resource_id", "dataset_id", "url", "url_key", "deleted", "status",
        "status_since", "format", "title", "type", "last_mime_type",
        "last_filesize", "last_checksum", "harvest_modified_at",
        "detected_last_modified_at",
    ]

    def _catalog_row(self, resource_id: str) -> dict | None:
        cat = self.engine.catalog
        if cat.is_empty():
            return None
        have = set(cat.schema().names)
        cols = [c for c in self._CATALOG_WIRE_COLS if c in have]
        t = cat.read_where_arrow("resource_id", [resource_id], columns=cols)
        if t.num_rows == 0:
            return None
        return {c: t[c][0].as_py() for c in t.column_names}

    def get_latest_check(self, url: str | None = None, resource_id: str | None = None) -> dict:
        t = self._checks_filtered(url, resource_id)
        if t.num_rows == 0:
            raise NotFound(url or resource_id)
        idx = pc.index(t["id"], pc.max(t["id"]).as_py()).as_py()
        row = {c: t[c][idx].as_py() for c in t.column_names}
        cat_row = self._catalog_row(row["resource_id"])
        if cat_row is not None and bool(cat_row.get("deleted") or False):
            raise Gone(row["resource_id"])
        return self._check_wire(row, cat_row)

    def get_all_checks(self, url: str | None = None, resource_id: str | None = None) -> list[dict]:
        t = self._checks_filtered(url, resource_id)
        if t.num_rows == 0:
            raise NotFound(url or resource_id)
        t = t.sort_by([("created_at", "descending"), ("id", "descending")])
        cat_cache: dict[str, dict | None] = {}
        out = []
        for row in t.to_pylist():
            rid = row["resource_id"]
            if rid not in cat_cache:
                cat_cache[rid] = self._catalog_row(rid)
            out.append(self._check_wire(row, cat_cache[rid]))
        return out

    def get_checks_aggregate(self, created_at: "str | date", group_by: str) -> list[dict]:
        """Counts per ``group_by`` value for checks created on a date
        ('today' = the engine's virtual today)."""
        if created_at == "today":
            created_at = self.engine.now_dt().date()
        elif isinstance(created_at, str):
            created_at = date.fromisoformat(created_at)
        t = self.engine.checks.read_arrow()
        if group_by not in t.column_names:
            raise ValueError(f"unknown group_by column {group_by!r}")
        days = pc.cast(t["created_at"], pa.date32())
        t = t.filter(pc.equal(days, pa.scalar(created_at, type=pa.date32())))
        if t.num_rows == 0:
            raise NotFound(str(created_at))
        g = t.group_by(group_by).aggregate([([], "count_all")])  # rows, not non-nulls
        g = g.rename_columns(["value", "count"])
        out = g.to_pylist()
        out.sort(key=lambda r: (-r["count"], str(r["value"])))
        return out

    def create_check(self, resource_id: str) -> dict:
        """POST /api/checks: immediate synchronous check + commit.
        A tombstoned resource is Gone (410), never re-checked."""
        from hydra_ray.pipelines.crawl import ResourceDeleted

        try:
            return self.engine.check_resource_now(resource_id)
        except ResourceDeleted as err:
            raise Gone(resource_id) from err
        except KeyError as err:
            raise NotFound(resource_id) from err

    # -- resources ---------------------------------------------------------
    def get_resource(self, resource_id: str) -> dict:
        """Reference wire format (schemas/resource.py ResourceSchema:
        dataset_id/resource_id/status/status_since + the nested
        ResourceDocumentSchema document — fields the engine does not
        track are None, like optional marshmallow fields)."""
        row = self._catalog_row(resource_id)
        if row is None:
            raise NotFound(resource_id)

        def iso(v):
            return v.isoformat() if v is not None else None

        return {
            "dataset_id": row["dataset_id"],
            "resource_id": row["resource_id"],
            "status": row.get("status"),
            "status_since": iso(row.get("status_since")),
            "document": {
                "id": row["resource_id"],
                "url": row["url"],
                "format": row.get("format"),
                "title": row.get("title"),
                "schema": None,
                "description": None,
                "filetype": "file",
                "type": row.get("type"),
                "mime": row.get("last_mime_type"),
                "filesize": row.get("last_filesize"),
                "checksum_type": "sha1" if row.get("last_checksum") else None,
                "checksum_value": row.get("last_checksum"),
                "created_at": iso(row.get("harvest_modified_at")),
                "last_modified": iso(row.get("detected_last_modified_at")),
                "extras": {},
                "harvest": {},
            },
        }

    def get_resources_status_counts(self) -> dict:
        cat = self.engine.catalog.read_arrow(columns=["status"])
        status = pc.fill_null(cat["status"], "NULL")
        g = pa.table({"status": status}).group_by("status").aggregate([("status", "count")])
        out = {None: 0}
        for row in g.to_pylist():
            key = None if row["status"] == "NULL" else row["status"]
            out[key] = row["status_count"]
        return out

    def get_crawler_status(self) -> dict:
        """never-checked / checked / outdated / in-progress over
        non-excluded, non-deleted rows (routes/status.py:29-77)."""
        cat = self.engine.catalog.read_arrow(
            columns=["url", "deleted", "status", "last_check_id", "next_check_at"]
        )
        keep = pc.equal(cat["deleted"], False)
        for pattern in config.EXCLUDED_PATTERNS or []:
            keep = pc.and_(keep, pc.invert(pc.match_like(cat["url"], pattern)))
        t = cat.filter(keep)
        has_check = pc.is_valid(t["last_check_id"])
        now64 = pa.scalar(self.engine.now_dt(), type=pa.timestamp("us"))
        outdated = pc.fill_null(pc.less_equal(t["next_check_at"], now64), False)
        in_progress = pc.and_(
            pc.is_valid(t["status"]), pc.not_equal(pc.fill_null(t["status"], ""), "BACKOFF")
        )

        def n(mask):
            return int(pc.sum(pc.cast(mask, pa.int32())).as_py() or 0)

        return {
            "count_never_checked": n(pc.invert(has_check)),
            "count_checked": n(has_check),
            "count_outdated": n(outdated),
            "count_in_progress": n(in_progress),
        }

    def get_checks_stats(self) -> dict:
        """GET /api/checks/stats (routes/status.py:118-177): ok / error
        / timeout split of the LATEST check per crawler-eligible
        resource + HTTP status-code distribution. The engine carries
        the latest-check columns on the catalog row (J1 design), so
        this is a pure catalog scan — no join."""
        cat = self.engine.catalog.read_arrow(
            columns=["url", "deleted", "last_check_id", "last_status", "last_error", "last_timeout"]
        )
        keep = pc.equal(cat["deleted"], False)
        for pattern in config.EXCLUDED_PATTERNS or []:
            keep = pc.and_(keep, pc.invert(pc.match_like(cat["url"], pattern)))
        t = cat.filter(pc.and_(keep, pc.is_valid(cat["last_check_id"])))
        count_checked = t.num_rows
        timeout = pc.fill_null(t["last_timeout"], False)
        error = pc.is_valid(t["last_error"])
        ok = pc.and_(pc.invert(pc.cast(timeout, pa.bool_())), pc.invert(error))

        def n(mask) -> int:
            return int(pc.sum(pc.cast(mask, pa.int32())).as_py() or 0)

        counts = {"ok": n(ok), "error": n(error), "timeout": n(timeout)}

        def rate(c: int) -> float:
            return 0 if not count_checked else round(c / count_checked * 100, 1)

        codes = t.filter(pc.is_valid(t["last_status"]))
        g = (
            pa.table({"status": codes["last_status"]})
            .group_by("status")
            .aggregate([("status", "count")])
            .to_pylist()
        )
        total_codes = sum(r["status_count"] for r in g) or 1
        g.sort(key=lambda r: (-r["status_count"], str(r["status"])))
        return {
            "status": sorted(
                [
                    {"label": s, "count": counts[s], "percentage": rate(counts[s])}
                    for s in ("error", "timeout", "ok")
                ],
                key=lambda x: x["count"],
                reverse=True,
            ),
            "status_codes": [
                {
                    "code": r["status"],
                    "count": r["status_count"],
                    "percentage": round(r["status_count"] / total_codes * 100, 1),
                }
                for r in g
            ],
        }

    def create_resource(self, resource_id: str, dataset_id: str, url: str, **extra) -> dict:
        """POST /api/resources (routes/resources.py:30-59): insert with
        priority=True so the next frontier batch picks it in tier 1."""
        row = {"resource_id": resource_id, "dataset_id": dataset_id, "url": url} | extra
        self.engine.insert_priority_resource(row)
        return {"message": "created"}

    def update_resource(self, resource_id: str, dataset_id: str, url: str, **extra) -> dict:
        """PUT /api/resources/{id} (routes/resources.py:62-91): upsert +
        re-prioritize (same merge path as create; the catalog upsert is
        keyed on resource_id)."""
        row = {"resource_id": resource_id, "dataset_id": dataset_id, "url": url} | extra
        self.engine.insert_priority_resource(row)
        return {"message": "updated"}

    def delete_resource(self, resource_id: str) -> dict:
        """DELETE /api/resources/{id} (routes/resources.py:94-107):
        mark deleted=True (tombstone; the frontier excludes deleted).
        The upsert carries only ``deleted``: every other column keeps
        its stored value."""
        catalog = self.engine.catalog
        if not catalog.lookup("resource_id", [resource_id], columns=["resource_id"]).num_rows:
            raise NotFound(resource_id)
        catalog.merge_insert(
            pa.table({"resource_id": [resource_id], "deleted": [True]}), key="resource_id"
        )
        return {"message": "deleted"}

    def get_resources_stats(self) -> dict:
        """GET /api/resources/stats (routes/resources.py:110-125)."""
        cat = self.engine.catalog.read_arrow(columns=["deleted"])
        deleted = int(pc.sum(pc.cast(pc.fill_null(cat["deleted"], False), pa.int32())).as_py() or 0)
        return {
            "total_count": cat.num_rows,
            "deleted_count": deleted,
            "statuses_count": self.get_resources_status_counts(),
        }

    def get_resources_stats_cors(self) -> dict:
        """GET /api/resources/stats/cors (routes/resources.py:128-196):
        CORS coverage over EXTERNAL (non-data.gouv.fr) resources, plus
        the allow-origin classification among covered ones. Any-check
        semantics (BOOL_OR over the checks history), like the reference."""
        import json as _json

        cat = self.engine.catalog.read_arrow(columns=["resource_id", "url", "deleted"])
        ext = cat.filter(
            pc.and_(
                pc.equal(cat["deleted"], False),
                pc.invert(pc.match_like(cat["url"], "%data.gouv.fr%")),
            )
        )
        checks = self.engine.checks.read_arrow(columns=["resource_id", "cors_headers"])
        per_res: dict[str, str | None] = {}  # resource -> best allow-origin seen
        has_cors: set[str] = set()
        rids = checks["resource_id"].to_pylist()
        cors = checks["cors_headers"].to_pylist()
        for rid, ch in zip(rids, cors):
            if ch is None:
                continue
            has_cors.add(rid)
            try:
                allow = (_json.loads(ch) or {}).get("allow-origin")
            except (TypeError, ValueError):
                allow = None
            prev = per_res.get(rid)
            # precedence mirrors the reference CASE: * > whitelist > other
            def _score(v):
                if v == "*":
                    return 3
                if v and "data.gouv.fr" in v:
                    return 2
                if v:
                    return 1
                return 0

            if _score(allow) > _score(prev):
                per_res[rid] = allow
        ext_ids = set(ext["resource_id"].to_pylist())
        covered = ext_ids & has_cors
        n_cov, n_ext = len(covered), len(ext_ids)
        dist: dict[str, int] = {}
        for rid in covered:
            allow = per_res.get(rid)
            if allow == "*":
                label = "Accessible (Wildcard *)"
            elif allow and "data.gouv.fr" in allow:
                label = "Accessible (Specific Whitelist)"
            elif allow:
                label = "Blocked (Other Domain Only)"
            else:
                label = "Blocked (Missing Header)"
            dist[label] = dist.get(label, 0) + 1
        return {
            "external_resources_with_cors_data": n_cov,
            "external_resources_without_cors_data": n_ext - n_cov,
            "external_resources_cors_coverage_percentage": (
                round(n_cov * 100.0 / n_ext, 2) if n_ext else None
            ),
            "external_resources_allow_origin_distribution": [
                {
                    "access_status": k,
                    "unique_resources_count": v,
                    "percentage": round(v * 100.0 / n_cov, 2) if n_cov else None,
                }
                for k, v in sorted(dist.items())
            ],
        }

    # -- resources-exceptions CRUD ------------------------------------------
    # reference routes/resources_exceptions.py + db/resource_exception.py:
    # the exception set feeds the analyser's size-cap bypass (J3); the
    # engine mutates its live set, and the crawl rebuilds its stages on
    # every iteration, so the next one picks the change up.
    def get_all_resources_exceptions(self) -> list[dict]:
        return [
            {"resource_id": rid, **meta}
            for rid, meta in sorted(self._exceptions_meta().items())
        ]

    def _exceptions_meta(self) -> dict:
        if not hasattr(self.engine, "resource_exceptions_meta"):
            self.engine.resource_exceptions_meta = {
                rid: {"table_indexes": None, "comment": None}
                for rid in self.engine.resource_exceptions
            }
        return self.engine.resource_exceptions_meta

    def create_resource_exception(
        self, resource_id: str, table_indexes: dict | None = None, comment: str | None = None
    ) -> dict:
        meta = self._exceptions_meta()
        if resource_id in meta:
            raise ValueError("Resource exception already exists")
        cat = self.engine.catalog.read_arrow(columns=["resource_id"])
        if not pc.any(pc.equal(cat["resource_id"], resource_id)).as_py():
            raise NotFound(resource_id)
        meta[resource_id] = {"table_indexes": table_indexes, "comment": comment}
        self.engine.resource_exceptions.add(resource_id)
        return {"resource_id": resource_id, "table_indexes": table_indexes, "comment": comment}

    def update_resource_exception(
        self, resource_id: str, table_indexes: dict | None = None, comment: str | None = None
    ) -> dict:
        meta = self._exceptions_meta()
        if resource_id not in meta:
            raise NotFound(resource_id)
        meta[resource_id] = {"table_indexes": table_indexes, "comment": comment}
        return {"resource_id": resource_id, "table_indexes": table_indexes, "comment": comment}

    def delete_resource_exception(self, resource_id: str) -> dict:
        meta = self._exceptions_meta()
        if resource_id not in meta:
            raise NotFound(resource_id)
        del meta[resource_id]
        self.engine.resource_exceptions.discard(resource_id)
        return {"message": "deleted"}

    def get_worker_status(self) -> dict:
        """GET /api/status/worker (routes/status.py:113-115): queue
        depths. The engine's analogue of the RQ queues is the frontier
        tiers — priority / never-checked / due."""
        cat = self.engine.catalog.read_arrow(
            columns=["deleted", "priority", "last_check_id", "next_check_at", "status"]
        )
        t = cat.filter(pc.equal(cat["deleted"], False))
        free = pc.is_null(t["status"])
        prio = pc.and_(pc.fill_null(t["priority"], False), free)
        never = pc.and_(pc.is_null(t["last_check_id"]), free)
        now64 = pa.scalar(self.engine.now_dt(), type=pa.timestamp("us"))
        due = pc.and_(pc.fill_null(pc.less_equal(t["next_check_at"], now64), True), free)

        def n(mask) -> int:
            return int(pc.sum(pc.cast(mask, pa.int32())).as_py() or 0)

        return {"queued": {"priority": n(prio), "never_checked": n(never), "due": n(due)}}

    # -- health ------------------------------------------------------------
    def health(self) -> dict:
        return {
            "status": "ok",
            "iteration": self.engine.iteration,
            "catalog_rows": self.engine.catalog.count() if not self.engine.catalog.is_empty() else 0,
            "checks_rows": self.engine.checks.count() if not self.engine.checks.is_empty() else 0,
            "virtual_now": self.engine.now_dt().isoformat(),
        }


# -- bearer-token auth (reference utils/auth.py:16-70, wired in app.py:20
#    as token_auth_middleware(exclude_methods=("GET",))) --------------------


class Unauthorized(PermissionError):
    """401 — missing Authorization header."""


class Forbidden(PermissionError):
    """403 — malformed header, wrong scheme, or wrong token."""


def token_auth_check(
    headers: dict | None,
    *,
    path: str = "",
    method: str = "POST",
    auth_scheme: str = "Bearer",
    exclude_routes: tuple[str, ...] = (),
    exclude_methods: tuple[str, ...] = ("GET",),
    api_key: str | None = None,
) -> dict | None:
    """The reference token middleware as a pure function: returns the
    authenticated user dict, None for excluded routes/methods, raises
    Unauthorized (missing header) / Forbidden (malformed header, wrong
    scheme, wrong token) — same exception split as the aiohttp
    middleware's 401/403 responses."""
    import re as _re

    if method in exclude_methods or any(_re.fullmatch(p, path) for p in exclude_routes):
        return None
    try:
        scheme, token = (headers or {})["Authorization"].strip().split(" ")
    except KeyError:
        raise Unauthorized("Missing authorization header")
    except ValueError:
        raise Forbidden("Invalid authorization header")
    if auth_scheme.lower() != scheme.lower():
        raise Forbidden("Invalid token scheme")
    if token != (api_key if api_key is not None else config.API_KEY):
        raise Forbidden("Invalid authentication token")
    return {"username": "udata"}


# mutating route table (reference routes/__init__.py:52-79): everything
# else is GET and passes the exclude_methods filter untouched
_WRITE_ROUTES: dict[str, tuple[str, str]] = {
    "create_check": ("POST", "/api/checks"),
    "create_resource": ("POST", "/api/resources"),
    "update_resource": ("PUT", "/api/resources/{resource_id}"),
    "delete_resource": ("DELETE", "/api/resources/{resource_id}"),
    "create_resource_exception": ("POST", "/api/resources-exceptions"),
    "update_resource_exception": ("PUT", "/api/resources-exceptions/{id}"),
    "delete_resource_exception": ("DELETE", "/api/resources-exceptions/{id}"),
}


class SecuredApi:
    """EngineApi behind the reference's bearer-token middleware: GET
    routes are open; mutating routes require ``Authorization: Bearer
    <API_KEY>``. ``request["user"]`` is exposed as ``.user`` after a
    successful authorized call, mirroring the middleware's
    request_property."""

    def __init__(self, api: EngineApi, headers: dict | None = None):
        self._api = api
        self.headers = dict(headers or {})
        self.user: dict | None = None

    def __getattr__(self, name):
        fn = getattr(self._api, name)
        route = _WRITE_ROUTES.get(name)
        if route is None or not callable(fn):
            return fn
        method, path = route

        def guarded(*args, **kwargs):
            self.user = token_auth_check(self.headers, path=path, method=method)
            return fn(*args, **kwargs)

        return guarded
