"""Resource analysis stage: change detection → download → checksum/mime.

A ``map_batches`` task stage (one call per block) reproducing the reference's
``analyse_resource`` worker job (udata_hydra/analysis/resource.py:41-184):

  1. early-hints change detection over the top-2 checks window
     (harvest date → last-modified header → content-length;
     resource.py:285-336) — the window is O(1) here because the
     previous check's columns ride on the frontier row;
  2. when NO_GUESS / HAS_CHANGED (or forced): one download (size-capped
     per format, utils/file.py:46-115); its sha1 checksum
     (utils/file.py:26-34), mime sniff and parse all read those bytes;
     checksum-based change detection (resource.py:210-233);
  3. when HAS_NOT_CHANGED: copy checksum/filesize/mime from the
     previous check (resource.py:128-133);
  4. detected_last_modified_at / next_check_at updates
     (resource.py:187-207) and format detection for routing
     (data_formats/detect.py) + the analysis payload for udata.

Steps 1, 3 and 4 run as kernels over the block's columns (the
scalars in ``functions/checks.py`` are their spec); the current
check's headers come typed from the fetch stage and the previous
check's from ``build_checks_batch``, so nothing here parses JSON.
"""

from __future__ import annotations

import hashlib
import json
from datetime import timedelta

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.config import config
from hydra_ray.functions.check_kernels import (
    CHANGE_NAMES,
    CHANGED,
    NOT_CHANGED,
    TS,
    content_length_ints,
    early_hints,
    iso_utc,
    mask,
    micros,
    refine_with_checksum,
    valid,
)
from hydra_ray.functions.detect import FORMAT_MIME, detect_formats, sniff_mime
from hydra_ray.functions.payload import category_fields, encode_payloads
from hydra_ray.schemas import column, strings, with_columns
from hydra_ray.stages.checks_stage import PREV_COLS
from hydra_ray.stages.exports import _EXPORT_KEYS, export_artifacts
from hydra_ray.stages.fetcher import HEADER_COLS, make_transport

PARSEABLE_FORMATS = pa.array(["csv", "csvgz", "xls", "xlsx", "ods", "parquet"])


def workbook_readers() -> dict:
    """Sniffed workbook MIME type → (reader, engine mark): the parser
    follows the content magic, as the reference's libmagic sniff picks
    the file's extension. Imported on first use like the rest of the
    parse route."""
    from hydra_ray.sources.ods import read_ods_cells
    from hydra_ray.sources.xls import read_xls_cells
    from hydra_ray.sources.xlsx import read_xlsx_cells

    readers = {"xls": read_xls_cells, "xlsx": read_xlsx_cells, "ods": read_ods_cells}
    return {FORMAT_MIME[f]: (read, f"hydra-ray-{f}") for f, read in readers.items()}


class Analyser:
    """Analyse stage body, one task call per block; the transport is
    built once per instance. The change decision, the dates it sets,
    the format route and the payloads are Arrow/numpy kernels over the
    block (``functions/check_kernels.py``); only the work that needs a
    body loops over rows: download, sha1 and mime sniff.

    Rows routed to a parseable format run the full content analysis
    inside this distributed stage: download → csv-detective-style
    inspection → typed Arrow cast → interleaved span-document build (the
    reference's CsvLike .analyse path, csv_like/__init__.py:60-159). The
    resulting spans ride out as a list<struct> column (null for unparsed
    rows)."""

    def __init__(
        self,
        transport: dict | None = None,
        force_analysis: bool = False,
        exceptions: set | None = None,
        exports_dir: str | None = None,
        config_overrides: dict | None = None,
    ):
        self.transport = make_transport(transport)
        self.force = force_analysis
        # resources_exceptions (J3, reference db/resource_exception.py):
        # exempted resource_ids skip the per-format size cap — broadcast
        # as a small set captured at stage construction
        self.exceptions = exceptions or set()
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
        urls = strings(batch["url"])
        rids = strings(batch["resource_id"])
        ok = mask(pc.equal(batch["outcome"], "ok"))
        has_last = valid(batch["last_check_id"])
        created_at = column(batch, "created_at")
        prev_dlma = column(batch, "detected_last_modified_at")
        content_length = column(batch, "hdr_content_length")
        # timeout / error checks skip analysis (the reference only
        # enqueues analyse_resource on the success path): every output
        # below is masked to the ok rows
        decision = early_hints(
            has_last,
            column(batch, "harvest_modified_at"),
            prev_dlma,
            column(batch, "hdr_last_modified"),
            column(batch, "prev_last_modified"),
            content_length,
            column(batch, "prev_content_length"),
            created_at,
        )
        fmts = detect_formats(column(batch, "hdr_content_type"), column(batch, "url"), column(batch, "format"))
        fmts = pc.if_else(pa.array(ok), fmts, pa.scalar(None, pa.string()))

        # the per-row work that needs a body: one download per changed
        # (or unknown, or forced) resource, its sha1 and mime sniff
        fetch = ok & ((decision.change != NOT_CHANGED) | self.force)
        sizes = pc.fill_null(content_length_ints(content_length), 0).to_numpy(zero_copy_only=False)
        fmt_of = strings(fmts)
        bodies: list[bytes | None] = [None] * n  # the downloaded file per row
        caps = [0] * n  # each downloaded body's size cap (bounds its gunzip too)
        dl = {k: [None] * n for k in ("checksum", "content-length", "error", "mime-type")}
        for j in np.flatnonzero(fetch):
            cap = config.MAX_FILESIZE_ALLOWED.get(fmt_of[j], config.DEFAULT_MAX_FILESIZE_ALLOWED)
            max_allowed = caps[j] = (1 << 62) if rids[j] in self.exceptions else cap
            # transports return at most max_allowed + 1 bytes: an
            # oversize body shows even under a small Content-Length
            body = None if sizes[j] > max_allowed else self.transport.download(urls[j], max_allowed)
            if body is None or len(body) > max_allowed:
                dl["error"][j] = "File too large to download"
                continue
            bodies[j] = body
            dl["content-length"][j] = int(sizes[j]) or len(body)
            dl["checksum"][j] = hashlib.sha1(body).hexdigest()
            dl["mime-type"][j] = sniff_mime(body, fmt_of[j])
        downloaded = np.array([b is not None for b in bodies], dtype=bool)
        dl_cols = {
            k: pa.array(v, type=pa.int64() if k == "content-length" else pa.string())
            for k, v in dl.items()
        }
        refine_with_checksum(
            decision,
            downloaded,
            has_last,
            dl_cols["checksum"],
            column(batch, "last_checksum"),
            prev_dlma,
            created_at,
        )
        change = decision.change

        # detected_last_modified_at / next_check_at updates
        # (resource.py:187-207): a concluded decision's date, and the
        # earliest delay after a change
        dated = ok & valid(decision.dlma)
        no_dlma = pa.scalar(None, TS)
        d0 = timedelta(hours=config.CHECK_DELAYS[0]) // timedelta(microseconds=1)
        next_at = pc.if_else(
            pa.array(dated & (change == CHANGED)),
            pa.array(micros(created_at) + d0, type=TS),
            column(batch, "next_check_at"),
        )
        # a row not downloaded keeps the previous check's file facts
        kept = pa.array(ok & ~fetch)
        fetched = pa.array(fetch)

        def file_fact(key: str, last: str) -> pa.Array:
            prev = column(batch, last)
            return pc.if_else(fetched, dl_cols[key], pc.if_else(kept, prev, pa.scalar(None, prev.type)))

        run = ok & ((change == CHANGED) | ~has_last | self.force)
        do_parse = run & mask(pc.is_in(fmts, value_set=PARSEABLE_FORMATS)) & downloaded
        payload = encode_payloads(
            category_fields(
                "analysis",
                {
                    "check_id": column(batch, "check_id"),
                    **{k: dl_cols[k] for k in dl},
                    "last-modified-at": decision.at,
                    "last-modified-detection": decision.detection,
                },
            ),
            n,
        )

        # full content analysis for parseable, changed resources — the
        # heavy distributed work (inspection, typed cast, span build)
        self._last_parse_errors: list[str | None] = [None] * n
        self._last_exports = {k: [None] * n for k in _EXPORT_KEYS}
        spans_col, parsing_tables, inspections = self._parse_contents(batch, do_parse.tolist(), bodies, caps)

        # OGC capabilities analysis for service-format resources
        # (reference data_formats/ogc/__init__.py:80-268: parse
        # GetCapabilities, detect the layer from the URL or the
        # resource title, store the JSONB on the check row between
        # parsing_started_at / parsing_finished_at)
        out_ogc: list[str | None] = [None] * n
        if config.OGC_ANALYSIS_ENABLED:
            from hydra_ray.stages.ogc import analyse_ogc

            services = run & mask(pc.is_in(fmts, value_set=pa.array(config.OGC_FORMATS, pa.string())))
            for j in np.flatnonzero(services):
                try:
                    meta = analyse_ogc(
                        {"url": urls[j], "format": batch["format"][j].as_py()},
                        transport=self.transport,
                        title=batch["title"][j].as_py(),
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
        parse_attempted = pa.array(
            do_parse
            | np.array([v is not None for v in out_ogc], dtype=bool)
            | np.array([e is not None for e in self._last_parse_errors], dtype=bool)
        )
        ts_col = pc.if_else(parse_attempted, created_at, no_dlma)
        lifecycle = {
            "parsing_table": pa.array(parsing_tables, type=pa.string()),
            "parsing_error": pa.array(self._last_parse_errors, type=pa.string()),
            "ogc_metadata": pa.array(out_ogc, type=pa.string()),
            **{
                k: pa.array(v, type=pa.int64() if k.endswith("_size") else pa.string())
                for k, v in self._last_exports.items()
            },
        }

        # udata notification for the parse/export lifecycle (reference
        # analysis/helpers.py:71-100 notify_udata: analysis:parsing:*
        # document, sent after every parse attempt — success or failure)
        iso = iso_utc(created_at)
        parsing_payload = encode_payloads(
            category_fields(
                "analysis:parsing",
                {
                    "error": lifecycle["parsing_error"],
                    "started_at": iso,
                    "finished_at": iso,
                    "parsing_table": lifecycle["parsing_table"],
                    "ogc_metadata": lifecycle["ogc_metadata"],
                    **{k: lifecycle[k] for k in _EXPORT_KEYS},
                },
            ),
            n,
        )

        no_text = pa.scalar(None, pa.string())
        return with_columns(
            batch,
            {
                "change_status": pa.array(np.where(ok, CHANGE_NAMES[change], None), type=pa.string()),
                "checksum": file_fact("checksum", "last_checksum"),
                "filesize": file_fact("content-length", "last_filesize"),
                "mime_type": file_fact("mime-type", "last_mime_type"),
                "analysis_error": dl_cols["error"],
                "detected_last_modified_at_new": pc.if_else(pa.array(dated), decision.dlma, no_dlma),
                "next_check_at": next_at,
                "data_format": fmts,
                "analysis_payload": pc.if_else(pa.array(run), payload, no_text),
                "do_parse": pa.array(do_parse, type=pa.bool_()),
                "parsing_table": lifecycle["parsing_table"],
                "parsing_error": lifecycle["parsing_error"],
                "parsing_payload": pc.if_else(parse_attempted, parsing_payload, no_text),
                "parsing_started_at": ts_col,
                "parsing_finished_at": ts_col,
                "ogc_metadata": lifecycle["ogc_metadata"],
                **{k: lifecycle[k] for k in _EXPORT_KEYS},
                "spans": spans_col,
                "inspection": pa.array(inspections, type=pa.string()),
            },
            # the typed header columns end here: no later stage reads them
            drop=(*HEADER_COLS, *PREV_COLS),
        )

    def _parse_contents(
        self, batch: pa.Table, do_parse: list[bool], bodies: list[bytes | None], caps: list[int]
    ):
        """Inspect + cast + span-build of the parse-routed rows'
        downloaded bodies (a gzip body inflates to at most its row's
        size cap, ``caps``); returns the spans list<struct> column (nulls
        elsewhere), parsing-table names and inspection reports. A sheet's span text is its
        rows' cells joined with "," and the rows with newlines. Parse
        failures are captured per resource into ``self._last_parse_errors`` with the
        reference's ``step:cause`` contract (utils/errors.py:113-135);
        successfully cast tables feed the enabled export jobs
        (``self._last_exports``)."""
        from hydra_ray.schemas import SPAN_STRUCT
        # the two sweeps are looked up by name at call time: perfbench's
        # tracing shims replace these module attributes
        from hydra_ray.stages.inspection import (
            Sheet,
            csv_texts_to_tables,
            decode_text,
            find_ragged_row,
            inspect_csv_texts_batch,
            with_filled_rows,
        )
        from hydra_ray.stages.spans import build_spans_batch

        n = batch.num_rows
        rids = strings(batch["resource_id"])
        md5s = strings(batch["url_md5"])
        # (row, span text, sweep item) per parse-routed row: workbook
        # Sheets first, then CSV texts (the span order)
        readers = workbook_readers()
        sheets, csvs = [], []
        for j, parse in enumerate(do_parse):
            if not parse:
                continue
            reader = readers.get(sniff_mime(bodies[j]))
            try:
                if reader is None:
                    text = decode_text(bodies[j], caps[j])[0]
                    csvs.append((j, text, text))
                    continue
                sheets.append((j, Sheet(reader[0](bodies[j]), reader[1])))
            except Exception as exc:  # noqa: BLE001
                # reference ParseException step contract
                # (csv_like/__init__.py:93 — inspection failures)
                self._last_parse_errors[j] = f"csv_detective:{exc}"
        # the blank-row masks both sweeps read, for all sheets at once
        sheets = list(zip([j for j, _ in sheets], with_filled_rows([sheet for _j, sheet in sheets])))
        texts = _sheet_texts([sheet for _j, sheet in sheets])
        routed = [(j, text, sheet) for (j, sheet), text in zip(sheets, texts)] + csvs
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
        inspections: list[str | None] = [None] * n
        parsing_tables: list[str | None] = [None] * n
        for (j, _text, _item, insp), tbl in zip(good, tables):
            inspections[j] = json.dumps(insp, sort_keys=True)
            parsing_tables[j] = md5s[j]
            if config.DB_TO_PARQUET or config.DB_TO_GEOJSON:
                for k, v in export_artifacts(tbl, insp, md5s[j], self.exports_dir).items():
                    self._last_exports[k][j] = v

        if not good:
            return pa.nulls(n, pa.list_(SPAN_STRUCT)), parsing_tables, inspections

        built = build_spans_batch(
            pa.table(
                {
                    "doc_id": pa.array([rids[g[0]] for g in good], type=pa.string()),
                    "text": pa.array([g[1] for g in good]),
                }
            )
        )
        at: list = [None] * n  # block position -> built row (null: unparsed)
        for i, g in enumerate(good):
            at[g[0]] = i
        return built["spans"].take(pa.array(at, type=pa.int32())), parsing_tables, inspections


def _sheet_texts(sheets: list) -> list[str]:
    """Each sheet's span text: its rows' cells joined with ",", the rows
    with newlines (two ``binary_join`` kernels over all the sheets)."""
    if not sheets:
        return []
    rows = pc.binary_join(pa.concat_arrays([s.cells for s in sheets]), ",")
    offsets = np.cumsum([0, *(len(s.cells) for s in sheets)]).astype(np.int32)
    return strings(pc.binary_join(pa.ListArray.from_arrays(pa.array(offsets), rows), "\n"))
