"""Distributed per-block sinks for the crawl iteration.

``IterationSink`` runs as the last stage of the iteration's one
``map_batches``: each block writes its own checks / payloads /
span-document part files straight from the worker (no driver
materialization of the heavy columns), then passes on only the slim
frontier-update columns. The engine registers the written files into
the versioned tables' manifests after the pipeline completes — the
standard write-then-commit pattern, so a crashed iteration leaves only
unregistered garbage, never a partial version.

Span documents are appended with an ``_iter`` column and resolved
last-wins on read (merge-on-read), avoiding a rewrite of the whole
documents table per iteration.
"""

from __future__ import annotations

import os
import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

# written by the sink, dropped before the frontier update (do_parse
# rides on: the driver counts parsed rows from it)
HEAVY_COLS = ("spans", "payload", "analysis_payload", "parsing_payload", "inspection")

# parse/export lifecycle columns recorded verbatim on the check row
# (reference migrations 20241021/20250130/20250615/20260202 + utils/
# errors.py handle_parse_exception). parsing_table is null unless the
# parse COMPLETED — the reference drops the table on failure.
_LIFECYCLE_COLS = (
    "parsing_error",
    "parsing_table",
    "parsing_started_at",
    "parsing_finished_at",
    "ogc_metadata",
    "parquet_url",
    "parquet_size",
    "geojson_url",
    "geojson_size",
    "pmtiles_url",
    "pmtiles_size",
)


def to_checks_table(result: pa.Table) -> pa.Table:
    """Fetch/analysis output rows → the checks-log schema."""
    cols = {
        "id": result["check_id"],
        "resource_id": result["resource_id"],
        "dataset_id": result["dataset_id"],
        "url": result["url"],
        "domain": result["domain"],
        "created_at": result["created_at"],
        "status": result["check_status"],
        "headers": result["check_headers"],
        "cors_headers": result["check_cors_headers"],
        "timeout": result["check_timeout"],
        "response_time": result["response_time"],
        "error": result["check_error"],
        "checksum": result["checksum"],
        "filesize": result["filesize"],
        "mime_type": result["mime_type"],
        "analysis_error": result["analysis_error"],
        "detected_last_modified_at": result["detected_last_modified_at_new"],
    }
    for name in _LIFECYCLE_COLS:
        cols[name] = result[name]
    cols["next_check_at"] = result["next_check_at"]
    return pa.table(
        {k: (v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v) for k, v in cols.items()}
    )


def payload_rows(result: pa.Table, iteration: int) -> pa.Table:
    """Non-null check/analysis payloads → webhook-notification rows."""
    parts = []
    for kind, col in (
        ("check", "payload"),
        ("analysis", "analysis_payload"),
        ("parsing", "parsing_payload"),
    ):
        sub = result.filter(pc.is_valid(result[col]))
        if sub.num_rows:
            parts.append(
                pa.table(
                    {
                        "iteration": pa.array([iteration] * sub.num_rows, type=pa.int64()),
                        "dataset_id": sub["dataset_id"].cast(pa.string()),
                        "resource_id": sub["resource_id"].cast(pa.string()),
                        "kind": pa.array([kind] * sub.num_rows, type=pa.string()),
                        "payload": sub[col].cast(pa.string()),
                    }
                )
            )
    if not parts:
        return pa.table(
            {
                "iteration": pa.array([], type=pa.int64()),
                "dataset_id": pa.array([], type=pa.string()),
                "resource_id": pa.array([], type=pa.string()),
                "kind": pa.array([], type=pa.string()),
                "payload": pa.array([], type=pa.string()),
            }
        )
    return pa.concat_tables(parts)


def docs_table(result: pa.Table, iteration: int) -> pa.Table:
    """Parsed rows → (doc_id, spans, _iter) span documents. Rows routed
    to parse that FAILED (parsing_error set, spans null) emit no doc."""
    parse_rows = result.filter(
        pc.and_(pc.equal(result["do_parse"], True), pc.is_valid(result["spans"]))
    )
    spans = parse_rows["spans"]
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.combine_chunks()
    return pa.table(
        {
            "doc_id": parse_rows["resource_id"].cast(pa.string()),
            "spans": spans,
            "_iter": pa.array([iteration] * parse_rows.num_rows, type=pa.int64()),
        }
    )


def tables_index_rows(result: pa.Table, iteration: int) -> pa.Table:
    """Parsed rows → tables_index registry rows (reference
    analysis/tables_index.py:39-61: parsing_table, inspection,
    resource/dataset/url, created_at). Failed parses register no row —
    the reference drops the table + tables_index entry on failure
    (utils/errors.py:118-121)."""
    parsed = result.filter(
        pc.and_(pc.equal(result["do_parse"], True), pc.is_valid(result["parsing_table"]))
    )
    n = parsed.num_rows
    return pa.table(
        {
            "parsing_table": parsed["parsing_table"],
            "csv_detective": parsed["inspection"],
            "resource_id": parsed["resource_id"].cast(pa.string()),
            "dataset_id": parsed["dataset_id"].cast(pa.string()),
            "url": parsed["url"].cast(pa.string()),
            "created_at": parsed["created_at"],
            "_iter": pa.array([iteration] * n, type=pa.int64()),
        }
    )


class IterationSink:
    """Per-block sink + projection to the slim frontier columns."""

    def __init__(
        self,
        checks_dir: str,
        payloads_dir: str,
        docs_dir: str,
        iteration: int,
        tables_dir: str,
    ):
        self.checks_dir = checks_dir
        self.payloads_dir = payloads_dir
        self.docs_dir = docs_dir
        self.tables_dir = tables_dir
        self.iteration = iteration

    @staticmethod
    def _write(table: pa.Table, out_dir: str, blk: str) -> None:
        """Atomic + idempotent part write: the name derives from block
        content, so a Ray task RE-EXECUTION (worker crash, lineage
        reconstruction) overwrites its own file instead of adding a
        duplicate that the post-execution register_files glob would
        commit twice. tmp+rename keeps half-written files out of the
        txn dir glob."""
        path = os.path.join(out_dir, f"part-{blk}.parquet")
        tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(table, tmp, compression="snappy")
        os.replace(tmp, path)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows:
            # deterministic block name: check ids are unique per row and
            # blocks are disjoint, so the min id identifies the block
            blk = f"{int(pc.min(batch['check_id']).as_py()) & 0xFFFFFFFFFFFFFFFF:016x}"
            self._write(to_checks_table(batch), self.checks_dir, blk)
            pl = payload_rows(batch, self.iteration)
            if pl.num_rows:
                self._write(pl, self.payloads_dir, blk)
            docs = docs_table(batch, self.iteration)
            if docs.num_rows:
                self._write(docs, self.docs_dir, blk)
            ti = tables_index_rows(batch, self.iteration)
            if ti.num_rows:
                self._write(ti, self.tables_dir, blk)
        return batch.drop_columns(list(HEAVY_COLS))
