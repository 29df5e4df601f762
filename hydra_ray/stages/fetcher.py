"""Fetch stage: HEAD/GET checks as a ``map_batches`` task stage.

Reproduces the reference's per-URL check flow
(udata_hydra/crawl/check_resources.py:58-234):
  - empty netloc → error check "Not netloc in url"
  - HEAD with timeout; if ``has_nice_head`` fails → retry as GET
  - raise_for_status → error check carrying status/headers
  - on success: OPTIONS CORS preflight (stored only for 2xx/3xx probes,
    check_resources.py:121-139), then the check row fields
  - timeout → check {timeout: true}; client errors → check {error,...}

The HTTP client is pluggable ("Transport"), and it is the only part of
the chain that knows the web. A transport has exactly four methods:
``request(url, method)`` (a HEAD/GET response dict), ``cors(url)`` (the
OPTIONS preflight or None), ``download(url, max_bytes)`` (a resource's
file, at most ``max_bytes + 1`` bytes so an oversize body shows) and
``robots(domain)`` (robots.txt text). The analyse stage hashes, sniffs
and parses exactly what ``download`` returns, and the OGC stage reads
a service's GetCapabilities document through it too.
``SyntheticTransport`` is the deterministic sandbox web
(hydra_ray/synth.py); ``MockTransport`` powers the parity tests (the
aioresponses role). Neither holds a session, so nothing is worth
keeping alive between blocks.

Used as the first stage of the iteration's one ``map_batches``
(``CrawlEngine._stages``, ``batch_format="pyarrow", batch_size=None``):
one instance is built on the driver for the iteration and every block
is one task call of a copy of it. Per-batch work is a python loop over URLs because each
URL is an independent request/response conversation (I/O-bound in
production, never a vectorizable kernel). The loop stores each row's
headers as JSON strings (the check row's ``headers`` / ``cors_headers``)
and also emits the header values the later stages decide on as typed
columns (``HEADER_COLS``), so no later stage parses the current
check's JSON.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import pyarrow as pa

from hydra_ray import synth
from hydra_ray.functions.headers import convert_headers, fix_surrogates, has_nice_head
from hydra_ray.schemas import strings, with_columns

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_ERROR = "error"

# transient columns typed straight from each row's headers dict, beside
# the stored JSON strings: what change detection, the format route and
# the check payload read (the Analyser drops them)
HEADER_COLS = {
    "hdr_content_type": "content-type",
    "hdr_content_length": "content-length",
    "hdr_last_modified": "last-modified",
}


class SyntheticTransport:
    """Deterministic in-process web (synth.synthetic_response and
    synthetic_download); ``content_rows`` sizes a served CSV file."""

    def __init__(self, epoch: int = 0, content_rows: int = 200):
        self.epoch = epoch
        self.content_rows = content_rows

    def request(self, url: str, method: str) -> dict:
        return synth.synthetic_response(url, method=method, epoch=self.epoch)

    def cors(self, url: str) -> dict | None:
        return synth.synthetic_cors(url)

    def download(self, url: str, max_bytes: int) -> bytes:
        return synth.synthetic_download(url, self.epoch, self.content_rows)[: max_bytes + 1]

    def robots(self, domain: str) -> str:
        return synth.synthetic_robots(domain)


class MockTransport:
    """Scripted responses for tests (the aioresponses equivalent).

    ``responses`` maps (method, url) → response dict or list of dicts
    consumed in order (last one repeats). Unknown URLs → 404.
    ``bodies`` maps url → the bytes ``download`` serves, cut to
    ``max_bytes + 1``; a URL without a body downloads as ``b""``.

    Caveat: the transport is built on the driver when the iteration's
    stages are built, and each task gets its own copy of it, so a list
    sequence advances only within one block's call (and within one
    in-process on-demand check); to change the world between crawl
    iterations, swap ``engine.transport`` (or use SyntheticTransport
    epochs).
    """

    def __init__(self, responses: dict[tuple[str, str], Any] | None = None, bodies: dict | None = None):
        self.responses = {k: (list(v) if isinstance(v, list) else [v]) for k, v in (responses or {}).items()}
        self.bodies = bodies or {}

    def request(self, url: str, method: str) -> dict:
        key = (method, url)
        if key not in self.responses:
            return {"kind": "error", "status": 404, "headers": {}, "error": "Not Found"}
        seq = self.responses[key]
        return seq.pop(0) if len(seq) > 1 else seq[0]

    def cors(self, url: str) -> dict | None:
        resp = self.responses.get(("options", url))
        if resp:
            return resp.pop(0) if len(resp) > 1 else resp[0]
        return None

    def download(self, url: str, max_bytes: int) -> bytes:
        return self.bodies.get(url, b"")[: max_bytes + 1]

    def robots(self, domain: str) -> str:
        resp = self.responses.get(("robots", domain))
        if resp:
            return resp[0] if isinstance(resp, list) else resp
        return ""


def make_transport(spec: dict | None) -> Any:
    spec = spec or {}
    kind = spec.get("kind", "synthetic")
    if kind == "synthetic":
        return SyntheticTransport(epoch=spec.get("epoch", 0), content_rows=spec.get("content_rows", 200))
    if kind == "mock":
        return MockTransport(responses=spec.get("responses"), bodies=spec.get("bodies"))
    raise ValueError(f"unknown transport kind {kind}")


def fetch_one(
    url: str,
    domain: str,
    transport: Any,
    resource_id: str | None = None,
    udata_uri: str | None = None,
    _recovered: bool = False,
) -> dict:
    """One URL's check fields (pure given a transport). Returns dict with
    outcome, status, headers(dict), cors_headers(dict|None), timeout,
    error, method, url (the checked url), new_url (set when 404 recovery
    found a moved resource — reference check_resources.py:237-259)."""
    res = _fetch_raw(url, domain, transport)
    res["url"] = url
    res["new_url"] = None
    if (
        not _recovered
        and udata_uri
        and resource_id
        and res["outcome"] == OUTCOME_ERROR
        and res.get("status") == 404
    ):
        # 404 stable-URL recovery: HEAD the stable udata URL, follow its
        # location, update the catalog url and re-check the actual URL
        stable = f"{udata_uri.replace('api/2', 'api/1')}/datasets/r/{resource_id}"
        probe = transport.request(stable, "head")
        if probe.get("kind") == "ok" and 200 <= int(probe.get("status", 0)) < 400:
            location = (probe.get("headers") or {}).get("location")
            if location and location != url:
                from hydra_ray.functions.urls import url_domain

                rec = fetch_one(location, url_domain(location), transport, _recovered=True)
                rec["new_url"] = location
                return rec
    return res


def _fetch_raw(url: str, domain: str, transport: Any) -> dict:
    if not domain:
        return {
            "outcome": OUTCOME_ERROR,
            "status": None,
            "headers": {},
            "cors_headers": None,
            "timeout": False,
            "error": "Not netloc in url",
            "method": None,
        }

    method = "head"
    resp = transport.request(url, method)
    if resp.get("kind") == "ok" and not has_nice_head(resp.get("status"), resp.get("headers", {})):
        method = "get"
        resp = transport.request(url, method)

    kind = resp.get("kind")
    if kind == "timeout":
        return {
            "outcome": OUTCOME_TIMEOUT,
            "status": None,
            "headers": None,
            "cors_headers": None,
            "timeout": True,
            "error": None,
            "method": method,
        }
    if kind == "conn_error":
        return {
            "outcome": OUTCOME_ERROR,
            "status": None,
            "headers": {},
            "cors_headers": None,
            "timeout": False,
            "error": fix_surrogates(resp.get("error") or "connection error"),
            "method": method,
        }
    status = resp.get("status")
    headers = convert_headers(resp.get("headers") or {})
    if kind == "error" or not (200 <= int(status) < 400):
        # raise_for_status path: error check carrying status + headers
        return {
            "outcome": OUTCOME_ERROR,
            "status": int(status) if status is not None else None,
            "headers": headers,
            "cors_headers": None,
            "timeout": False,
            "error": fix_surrogates(resp.get("error") or f"HTTP {status}"),
            "method": method,
        }

    # success → CORS preflight; keep only successful (2xx/3xx, no error) probes
    cors_probe = transport.cors(url)
    cors_headers = None
    if cors_probe and not cors_probe.get("error"):
        cstatus = cors_probe.get("status")
        try:
            if cstatus is not None and 200 <= int(cstatus) < 400:
                cors_headers = dict(cors_probe)
                cors_headers["status"] = int(cstatus)
        except (TypeError, ValueError):
            pass

    return {
        "outcome": OUTCOME_OK,
        "status": int(status),
        "headers": headers,
        "cors_headers": cors_headers,
        "timeout": False,
        "error": None,
        "method": method,
    }


class Fetcher:
    """Fetch stage body, one task call per block. The transport is built
    once per instance, and each task runs its own copy of the instance.

    ``udata_uri`` must be passed explicitly (captured driver-side):
    worker processes have their own config module, so driver-side
    config overrides are not visible here.
    """

    def __init__(
        self,
        transport: dict | None = None,
        udata_uri: str | None = None,
        robots: bool = False,
    ):
        self.transport = make_transport(transport)
        self.udata_uri = udata_uri
        # robots.txt gate (north-rule component): rules fetched once per
        # domain per instance and cached; disallowed URLs produce an error
        # check without touching the resource
        self.robots = robots
        self._robots_cache: dict[str, list] = {}

    def _robots_allowed(self, url: str, domain: str) -> bool:
        from hydra_ray.functions.robots import is_allowed, parse_robots

        rules = self._robots_cache.get(domain)
        if rules is None:
            rules = parse_robots(self.transport.robots(domain))
            self._robots_cache[domain] = rules
        return is_allowed(url, rules)

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = strings(batch["url"])
        domains = strings(batch["domain"])
        rids = strings(batch["resource_id"])
        keys = batch["url_key"].to_numpy(zero_copy_only=False)

        outcome, status, headers_js, cors_js, timeout, error, new_urls = [], [], [], [], [], [], []
        typed: dict[str, list] = {c: [] for c in HEADER_COLS}
        for url, domain, rid in zip(urls, domains, rids):
            if self.robots and domain and not self._robots_allowed(url, domain):
                r = {
                    "outcome": OUTCOME_ERROR,
                    "status": None,
                    "headers": {},
                    "cors_headers": None,
                    "timeout": False,
                    "error": "Blocked by robots.txt",
                    "method": None,
                    "url": url,
                    "new_url": None,
                }
            else:
                r = fetch_one(url, domain, self.transport, resource_id=rid, udata_uri=self.udata_uri)
            new_urls.append(r["new_url"])
            outcome.append(r["outcome"])
            status.append(r["status"])
            headers, cors = r["headers"], r["cors_headers"]
            headers_js.append(json.dumps(headers, sort_keys=True) if headers is not None else None)
            cors_js.append(json.dumps(cors, sort_keys=True) if cors is not None else None)
            timeout.append(r["timeout"])
            error.append(r["error"])
            for col, name in HEADER_COLS.items():
                typed[col].append(headers.get(name) if headers else None)

        # deterministic pseudo response time (reference records wall time)
        response_time = ((keys.astype(np.uint64) % np.uint64(1000)).astype(np.float64)) / 5000.0

        columns = {
            "outcome": pa.array(outcome, type=pa.string()),
            "check_status": pa.array(status, type=pa.int32()),
            "check_headers": pa.array(headers_js, type=pa.string()),
            "check_cors_headers": pa.array(cors_js, type=pa.string()),
            "check_timeout": pa.array(timeout, type=pa.bool_()),
            "check_error": pa.array(error, type=pa.string()),
            "response_time": pa.array(response_time),
            "new_url": pa.array(new_urls, type=pa.string()),
            **{col: pa.array(typed[col], type=pa.string()) for col in HEADER_COLS},
        }
        out = with_columns(batch, columns)
        if any(u is not None for u in new_urls):
            # 404-recovered rows: the check + catalog carry the actual URL
            # (reference updates catalog.url then re-checks) — refresh the
            # url and its derived domain/md5/key columns
            import pyarrow.compute as pc

            from hydra_ray.functions.urls import canonicalize_batch

            fixed = pc.coalesce(out["new_url"], out["url"])
            idx = out.column_names.index("url")
            out = out.set_column(idx, "url", fixed)
            out = canonicalize_batch(out)
        return out
