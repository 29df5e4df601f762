"""Resource analysis stage: change detection → download → checksum/mime.

A ``map_batches`` task stage (one call per block) reproducing the reference's
``analyse_resource`` worker job (udata_hydra/analysis/resource.py:41-184):

  1. early-hints change detection over the top-2 checks window
     (harvest date → last-modified header → content-length;
     resource.py:285-336) — the window is O(1) here because the
     previous check's columns ride on the frontier row;
  2. when NO_GUESS / HAS_CHANGED (or forced): download (size-capped per
     format, utils/file.py:46-115), sha1 checksum
     (utils/file.py:26-34), mime sniff (libmagic stubbed with a
     deterministic content-type map — the real library is not in this
     container), checksum-based change detection (resource.py:210-233);
  3. when HAS_NOT_CHANGED: copy checksum/filesize/mime from the
     previous check (resource.py:128-133);
  4. detected_last_modified_at / next_check_at updates
     (resource.py:187-207) and format detection for routing
     (data_formats/detect.py) + the analysis payload for udata.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone

import pyarrow as pa

from hydra_ray.config import config
from hydra_ray.functions.checks import (
    Change,
    calculate_next_check_date,
    detect_change_from_checksum,
    detect_change_on_early_hints,
)
from hydra_ray.functions.detect import detect_format
from hydra_ray.functions.payload import flatten_payload
from hydra_ray.stages.exports import _EXPORT_KEYS, export_artifacts
from hydra_ray.stages.fetcher import make_transport

# MIME from downloaded bytes (M15): the reference shells into libmagic;
# functions/detect.py::sniff_mime makes the same decision directly from
# content magic numbers, with the detected format as the text fallback.
# Kept as an alias for backwards compat in tests.
from hydra_ray.functions.detect import FORMAT_MIME as _MAGIC_MIME  # noqa: E402
from hydra_ray.functions.detect import sniff_mime  # noqa: E402

PARSEABLE_FORMATS = {"csv", "csvgz", "xls", "xlsx", "ods", "parquet"}


def workbook_codecs() -> dict:
    """Workbook format → (writer, reader) for the synthetic download,
    imported on first use like the rest of the parse route."""
    from hydra_ray.sources.ods import read_ods_rows, write_ods
    from hydra_ray.sources.xls import read_xls_rows, write_xls
    from hydra_ray.sources.xlsx import read_xlsx_rows, write_xlsx

    return {
        "xls": (write_xls, read_xls_rows),
        "xlsx": (write_xlsx, read_xlsx_rows),
        "ods": (write_ods, read_ods_rows),
    }


def _max_size_for(fmt: str | None) -> int:
    if fmt is None:
        return config.DEFAULT_MAX_FILESIZE_ALLOWED
    return config.MAX_FILESIZE_ALLOWED.get(fmt, config.DEFAULT_MAX_FILESIZE_ALLOWED)


class Analyser:
    """Analyse stage body, one task call per block; the transport is
    built once per instance. The batch body is a per-row loop over the
    change-detection decision tree (branchy row logic, not a kernel).

    With ``parse_content=True`` (default) rows routed to a parseable
    format run the full content analysis inside this distributed stage:
    synthetic download → csv-detective-style inspection → typed Arrow
    cast → interleaved span-document build (the reference's CsvLike
    .analyse path, csv_like/__init__.py:60-159). The resulting spans
    ride out as a list<struct> column (null for unparsed rows)."""

    def __init__(
        self,
        transport: dict | None = None,
        force_analysis: bool = False,
        parse_content: bool = True,
        content_rows: int = 200,
        exceptions: set | None = None,
        exports_dir: str | None = None,
        config_overrides: dict | None = None,
    ):
        self.transport = make_transport(transport or {"kind": "synthetic"})
        self.force = force_analysis
        self.parse_content = parse_content
        # resources_exceptions (J3, reference db/resource_exception.py):
        # exempted resource_ids skip the per-format size cap — broadcast
        # as a small set captured at stage construction
        self.exceptions = exceptions or set()
        # synthetic downloaded-file size (CSV rows) — the per-resource
        # inspection/cast/span cost; bench raises it to approximate real
        # file sizes
        self.content_rows = content_rows
        # artifact sink for the export jobs (engine workdir/exports)
        self.exports_dir = exports_dir
        # driver-side config_override is invisible in Ray workers —
        # feature flags (DB_TO_PARQUET, OGC_ANALYSIS_ENABLED, ...) must
        # ride the constructor arguments and re-apply inside the worker
        self.config_overrides = config_overrides or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.config_overrides:
            from hydra_ray.config import config_override

            with config_override(**self.config_overrides):
                return self._analyse(batch)
        return self._analyse(batch)

    def _analyse(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        urls = batch["url"].to_pylist()
        rids = batch["resource_id"].to_pylist() if "resource_id" in batch.column_names else [None] * n
        formats = batch["format"].to_pylist()
        headers_js = batch["check_headers"].to_pylist()
        created_at = batch["created_at"].to_pylist()
        harvest = (
            batch["harvest_modified_at"].to_pylist()
            if "harvest_modified_at" in batch.column_names
            else [None] * n
        )
        has_last = [x is not None for x in batch["last_check_id"].to_pylist()]
        last_at = batch["last_check_at"].to_pylist()
        last_headers_js = batch["last_headers"].to_pylist()
        last_checksum = batch["last_checksum"].to_pylist()
        last_filesize = batch["last_filesize"].to_pylist()
        last_mime = batch["last_mime_type"].to_pylist()
        prev_dlma = batch["detected_last_modified_at"].to_pylist()
        next_check = batch["next_check_at"].to_pylist()
        check_ids = batch["check_id"].to_pylist()

        out_change, out_checksum, out_filesize, out_mime = [], [], [], []
        out_err, out_dlma, out_next, out_fmt, out_payload, out_parse = [], [], [], [], [], []
        out_run: list[bool] = []  # run_further per row (feeds OGC analysis)

        outcomes = batch["outcome"].to_pylist() if "outcome" in batch.column_names else ["ok"] * n

        for j in range(n):
            if outcomes[j] != "ok":
                # timeout / error checks skip analysis (the reference only
                # enqueues analyse_resource on the success path)
                out_change.append(None)
                out_checksum.append(None)
                out_filesize.append(None)
                out_mime.append(None)
                out_err.append(None)
                out_dlma.append(None)
                out_next.append(next_check[j])
                out_fmt.append(None)
                out_payload.append(None)
                out_parse.append(False)
                out_run.append(False)
                continue
            headers = json.loads(headers_js[j]) if headers_js[j] else {}
            now = created_at[j].replace(tzinfo=timezone.utc)
            cur = {
                "created_at": now,
                "last_modified": headers.get("last-modified"),
                "content_length": headers.get("content-length"),
                "detected_last_modified_at": None,
            }
            checks2 = [cur]
            if has_last[j]:
                lh = json.loads(last_headers_js[j]) if last_headers_js[j] else {}
                prev_d = prev_dlma[j]
                if prev_d is not None and prev_d.tzinfo is None:
                    prev_d = prev_d.replace(tzinfo=timezone.utc)
                checks2.append(
                    {
                        "created_at": last_at[j],
                        "last_modified": lh.get("last-modified"),
                        "content_length": lh.get("content-length"),
                        "detected_last_modified_at": prev_d,
                    }
                )
            hv = harvest[j]
            if hv is not None and hv.tzinfo is None:
                hv = hv.replace(tzinfo=timezone.utc)
            change, payload = detect_change_on_early_hints(checks2, hv)

            fmt = detect_format(headers.get("content-type"), urls[j], formats[j])
            dl: dict = {}
            if change != Change.HAS_NOT_CHANGED or self.force:
                content_len = int(headers.get("content-length") or 0)
                max_allowed = (
                    (1 << 62) if rids[j] in self.exceptions else _max_size_for(fmt)
                )
                if content_len > max_allowed:
                    dl["analysis:error"] = "File too large to download"
                else:
                    body = self.transport.body(urls[j], max_bytes=min(max_allowed, 1 << 16))
                    dl["analysis:content-length"] = content_len or len(body)
                    dl["analysis:checksum"] = hashlib.sha1(body).hexdigest()
                    if change == Change.NO_GUESS:
                        change, payload = detect_change_from_checksum(
                            dl["analysis:checksum"],
                            {
                                "checksum": last_checksum[j],
                                "detected_last_modified_at": checks2[1]["detected_last_modified_at"]
                                if len(checks2) > 1
                                else None,
                            }
                            if has_last[j]
                            else None,
                            now=now,
                        )
                    dl["analysis:mime-type"] = sniff_mime(body, fmt)
                out_checksum.append(dl.get("analysis:checksum"))
                out_filesize.append(dl.get("analysis:content-length"))
                out_mime.append(dl.get("analysis:mime-type"))
                out_err.append(dl.get("analysis:error"))
            else:
                out_checksum.append(last_checksum[j])
                out_filesize.append(last_filesize[j])
                out_mime.append(last_mime[j])
                out_err.append(None)

            # detected_last_modified_at / next_check_at updates (resource.py:187-207)
            dlma = None
            nca = next_check[j]
            lm = (payload or {}).get("analysis:last-modified-at")
            if change in (Change.HAS_CHANGED, Change.HAS_NOT_CHANGED) and lm:
                dlma_dt = datetime.fromisoformat(lm)
                dlma = dlma_dt.replace(tzinfo=None) if dlma_dt.tzinfo else dlma_dt
                if change == Change.HAS_CHANGED:
                    prev_check = {"created_at": last_at[j].replace(tzinfo=timezone.utc)} if has_last[j] else None
                    nca = calculate_next_check_date(
                        True, prev_check, dlma_dt if dlma_dt.tzinfo else dlma_dt.replace(tzinfo=timezone.utc), now=now
                    ).replace(tzinfo=None)
            out_dlma.append(dlma)
            out_next.append(nca)
            out_change.append(change.name)
            out_fmt.append(fmt)

            is_first = not has_last[j]
            run_further = change == Change.HAS_CHANGED or is_first or self.force
            out_parse.append(bool(run_further and fmt in PARSEABLE_FORMATS))
            out_run.append(bool(run_further))
            if run_further:
                analysis_results = {"analysis:check_id": int(check_ids[j])} | dl | (payload or {})
                out_payload.append(json.dumps(flatten_payload(analysis_results), sort_keys=True, default=str))
            else:
                out_payload.append(None)

        # full content analysis for parseable, changed resources — the
        # heavy distributed work (inspection, typed cast, span build)
        spans_col = None
        parsing_tables: list[str | None] = [None] * n
        self._last_inspections = [None] * n
        self._last_parse_errors: list[str | None] = [None] * n
        self._last_exports = {k: [None] * n for k in _EXPORT_KEYS}
        if self.parse_content:
            spans_col, parsing_tables = self._parse_contents(batch, out_parse)

        # OGC capabilities analysis for service-format resources
        # (reference data_formats/ogc/__init__.py:80-248: parse
        # GetCapabilities, store the JSONB on the check row between
        # parsing_started_at / parsing_finished_at)
        out_ogc: list[str | None] = [None] * n
        if config.OGC_ANALYSIS_ENABLED:
            from hydra_ray.stages.ogc import analyse_ogc

            for j in range(n):
                if not out_run[j] or out_fmt[j] not in config.OGC_FORMATS:
                    continue
                try:
                    meta = analyse_ogc(
                        {"url": urls[j], "format": formats[j]}, transport=self.transport
                    )
                except Exception as exc:  # noqa: BLE001
                    self._last_parse_errors[j] = f"ogc_service_parsing:{exc}"
                    continue
                if meta is not None:
                    out_ogc[j] = json.dumps(meta, sort_keys=True)

        # parsing lifecycle timestamps (csv_like/__init__.py:84-117 sets
        # started_at before inspection; utils/errors.py:130 sets
        # finished_at on BOTH success and parse failure). The virtual
        # clock has no sub-iteration resolution, so both are the check's
        # created_at — deterministic and oracle-reproducible.
        parse_attempted = [
            bool(
                out_parse[j]
                or out_ogc[j] is not None
                or self._last_parse_errors[j] is not None
            )
            for j in range(n)
        ]
        ts_col = pa.array(
            [created_at[j] if parse_attempted[j] else None for j in range(n)],
            type=pa.timestamp("us"),
        )

        # udata notification for the parse/export lifecycle (reference
        # analysis/helpers.py:71-100 notify_udata: analysis:parsing:*
        # document, sent after every parse attempt — success or failure)
        out_ppayload: list[str | None] = [None] * n
        for j in range(n):
            if not parse_attempted[j]:
                continue
            iso = created_at[j].replace(tzinfo=timezone.utc).isoformat()
            d: dict = {
                "analysis:parsing:error": self._last_parse_errors[j],
                "analysis:parsing:started_at": iso,
                "analysis:parsing:finished_at": iso,
            }
            if parsing_tables[j] is not None:
                d["analysis:parsing:parsing_table"] = parsing_tables[j]
            for k in _EXPORT_KEYS:
                v = self._last_exports[k][j]
                if v is not None:
                    d[f"analysis:parsing:{k}"] = v
            if out_ogc[j] is not None:
                d["analysis:parsing:ogc_metadata"] = out_ogc[j]
            out_ppayload[j] = json.dumps(flatten_payload(d), sort_keys=True, default=str)

        out = batch
        for name, arr in (
            ("change_status", pa.array(out_change, type=pa.string())),
            ("checksum", pa.array(out_checksum, type=pa.string())),
            ("filesize", pa.array(out_filesize, type=pa.int64())),
            ("mime_type", pa.array(out_mime, type=pa.string())),
            ("analysis_error", pa.array(out_err, type=pa.string())),
            ("detected_last_modified_at_new", pa.array(out_dlma, type=pa.timestamp("us"))),
            ("next_check_at", pa.array(out_next, type=pa.timestamp("us"))),
            ("data_format", pa.array(out_fmt, type=pa.string())),
            ("analysis_payload", pa.array(out_payload, type=pa.string())),
            ("do_parse", pa.array(out_parse, type=pa.bool_())),
            ("parsing_table", pa.array(parsing_tables, type=pa.string())),
            ("parsing_error", pa.array(self._last_parse_errors, type=pa.string())),
            ("parsing_payload", pa.array(out_ppayload, type=pa.string())),
            ("parsing_started_at", ts_col),
            ("parsing_finished_at", ts_col),
            ("ogc_metadata", pa.array(out_ogc, type=pa.string())),
            ("parquet_url", pa.array(self._last_exports["parquet_url"], type=pa.string())),
            ("parquet_size", pa.array(self._last_exports["parquet_size"], type=pa.int64())),
            ("geojson_url", pa.array(self._last_exports["geojson_url"], type=pa.string())),
            ("geojson_size", pa.array(self._last_exports["geojson_size"], type=pa.int64())),
            ("pmtiles_url", pa.array(self._last_exports["pmtiles_url"], type=pa.string())),
            ("pmtiles_size", pa.array(self._last_exports["pmtiles_size"], type=pa.int64())),
        ):
            if name in out.column_names:
                out = out.drop_columns([name])
            out = out.append_column(name, arr)
        if spans_col is not None:
            if "spans" in out.column_names:
                out = out.drop_columns(["spans"])
            out = out.append_column("spans", spans_col)
            out = out.append_column(
                "inspection", pa.array(self._last_inspections, type=pa.string())
            )
        return out

    def _parse_contents(self, batch: pa.Table, do_parse: list[bool]):
        """Inspect + cast + span-build for parse-routed rows; returns the
        spans list<struct> column (nulls elsewhere) and parsing-table
        names. Parse failures are captured per resource into
        ``self._last_parse_errors`` with the reference's ``step:cause``
        contract (utils/errors.py:113-135); successfully cast tables feed
        the enabled export jobs (``self._last_exports``)."""
        from hydra_ray.schemas import SPAN_STRUCT
        # the two sweeps are looked up by name at call time: perfbench's
        # tracing shims replace these module attributes
        from hydra_ray.stages.inspection import (
            Sheet,
            csv_texts_to_tables,
            find_ragged_row,
            inspect_csv_texts_batch,
        )
        from hydra_ray.stages.spans import build_spans_batch

        urls = batch["url"].to_pylist()
        rids = batch["resource_id"].to_pylist()
        md5s = batch["url_md5"].to_pylist() if "url_md5" in batch.column_names else [None] * len(urls)
        epoch = getattr(self.transport, "epoch", 0)

        from hydra_ray import synth

        fmts = batch["format"].to_pylist() if "format" in batch.column_names else [None] * len(urls)
        # (row, text, sweep item) per parse-routed row: workbook Sheets
        # first, then CSV texts (the span order)
        codecs = workbook_codecs()
        sheets, csvs = [], []
        for j, parse in enumerate(do_parse):
            if not parse:
                continue
            text = synth.synthetic_text(urls[j], epoch=epoch, max_rows=self.content_rows)
            codec = codecs.get(fmts[j])
            if codec is None:
                csvs.append((j, text, text))
                continue
            # Workbook route (S4): the synthetic download is written as
            # a real workbook and read back by the matching stdlib
            # reader. The workbook is capped at 64 data rows: per xlsx
            # resource the write costs 0.40-0.65 ms and the read
            # 0.34-0.43 ms (1 vCPU), and a 2000-row write would turn
            # deep-content benches into a writer benchmark; full-depth
            # casting is measured on the CSV path.
            write, read = codec
            try:
                rows = read(write([line.split(",") for line in text.splitlines()[:65]]))
            except Exception as exc:  # noqa: BLE001
                # reference ParseException step contract
                # (csv_like/__init__.py:93 — inspection failures)
                self._last_parse_errors[j] = f"csv_detective:{exc}"
                continue
            sheets.append((j, text, Sheet(rows, f"hydra-ray-{fmts[j]}")))
        routed = sheets + csvs
        good, tables = [], []  # (row, text, sweep item, inspection), typed tables
        if routed:  # one inspect sweep and one cast sweep for the block
            insps = inspect_csv_texts_batch([item for _j, _t, item in routed])
            # strictness gate (CSV only): a ragged body is the failure the
            # reference hits when copying records into the parsing table
            # (step="copy_records_to_table", to_db.py:95). Scalar on
            # purpose: an Arrow-sweep twin measured 1.3-2x SLOWER at bench
            # shape (kernel dispatch overhead, as in build_spans_batch)
            for (j, text, item), insp in zip(routed, insps):
                n_cols = len(insp["header"])
                bad = (
                    find_ragged_row(item, insp["separator"], n_cols) if isinstance(item, str) else None
                )
                if bad is not None:
                    self._last_parse_errors[j] = (
                        f"copy_records_to_table:row {bad[0]} has {bad[1]} "
                        f"cells, expected {n_cols}"
                    )
                    continue
                good.append((j, text, item, insp))
            tables = csv_texts_to_tables([g[2] for g in good], [g[3] for g in good])

        # export jobs over the successfully cast tables (worker-side:
        # the artifact bytes never leave this task)
        inspections: list[str | None] = [None] * len(urls)
        parsing_tables: list[str | None] = [None] * len(urls)
        for (j, _text, _item, insp), tbl in zip(good, tables):
            inspections[j] = json.dumps(insp, sort_keys=True)
            parsing_tables[j] = md5s[j]
            if config.DB_TO_PARQUET or config.DB_TO_GEOJSON:
                for k, v in export_artifacts(tbl, insp, md5s[j], self.exports_dir).items():
                    self._last_exports[k][j] = v

        self._last_inspections = inspections  # consumed by __call__ below
        if not good:
            return pa.nulls(len(urls), pa.list_(SPAN_STRUCT)), parsing_tables

        built = build_spans_batch(
            pa.table(
                {
                    "doc_id": pa.array([rids[g[0]] for g in good], type=pa.string()),
                    "text": pa.array([g[1] for g in good]),
                }
            )
        )
        full: list = [None] * len(urls)
        for g, spans in zip(good, built["spans"].to_pylist()):
            full[g[0]] = spans
        return pa.array(full, type=pa.list_(SPAN_STRUCT)), parsing_tables
