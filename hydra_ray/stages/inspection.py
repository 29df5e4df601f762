"""Tabular inspection: csv-detective-style schema inference + casting.

Produces the reference's "inspection" report shape
(udata_hydra/data_formats/csv_like/__init__.py:35-58):
    {header, columns: {name: {python_type, format, score}}, total_lines,
     encoding, separator, header_row_idx, engine}
with the same python-type vocabulary (conversion/schema.py:26-64):
    string float int bool json date datetime

Components:
  - ``detect_separator``  : most consistent of ; , \\t | over sample rows
  - ``detect_types``      : per-column vote over sampled cells
  - ``inspect_csv_text``  : the full report
  - ``smart_cast``        : per-cell cast with ''→None failsafe
                            (utils/casting.py:12-25)
  - ``db_col_name``       : reserved-column rename + NAMEDATALEN truncation
                            (db/__init__.py:10-15; to_db.py:48-58)
  - ``csv_text_to_table`` : typed Arrow table via the inspection
  - ``inspect_parquet``   : Arrow schema → python-type report
                            (data_formats/parquet/__init__.py:35-62,
                            PYARROW_TYPE_TO_PYTHON semantics)

Workbooks are first-class: the stdlib readers in ``hydra_ray.sources``
(.xlsx zip+XML, .xls BIFF, .ods ODF) yield a ``Sheet``, one
``list<string>`` cells array with one list per row, which enters
``inspect_csv_texts_batch`` / ``csv_texts_to_tables`` next to CSV texts.
CSV lines are split on their separator into the same form, so a
block's CSV and workbook resources share one Arrow inspect sweep and
one cast sweep, and an .xls, its .xlsx twin and its CSV twin produce
identical typed tables and csv-detective profiles.
"""

from __future__ import annotations

import json
import re
import zlib
from datetime import date, datetime
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.config import config

SEPARATORS = [";", ",", "\t", "|"]

# PostgreSQL reserved words the reference renames (db/__init__.py:10-15)
RESERVED_COLS = {"do", "select", "from", "where", "table", "order", "group", "user", "check"}
NAMEDATALEN = 64

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(\d+[.,]\d*|\d*[.,]\d+|\d+)([eE][+-]?\d+)?$")
_BOOL_SET = {"true", "false", "vrai", "faux", "oui", "non", "yes", "no"}
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$|^\d{2}/\d{2}/\d{4}$")
_DATETIME_RE = re.compile(r"^\d{4}-\d{2}-\d{2}[T ]\d{2}:\d{2}(:\d{2})?")


class Sheet(NamedTuple):
    """A workbook's first sheet as read by a ``hydra_ray.sources`` reader:
    its ``list<string>`` cells, one list per row with the header first
    and every row as wide as the widest (``sheet_cells``), and the
    engine its report names."""

    cells: pa.ListArray
    engine: str
    # which body rows hold a non-blank cell (``with_filled_rows``)
    filled: np.ndarray | None = None


def sheet_cells(rows: list[list[str]]) -> pa.ListArray:
    """Rows of strings → a ``Sheet``'s cells array (short rows padded
    with "")."""
    return dense_cells(pa.array(rows, type=pa.list_(pa.string())))


def dense_cells(cells: pa.ListArray) -> pa.ListArray:
    """``cells`` with every row padded with "" to the widest row."""
    lens = pc.list_value_length(cells).to_numpy(zero_copy_only=False).astype(np.int64)
    width = int(lens.max()) if len(lens) else 0
    if (lens == width).all():
        return cells
    values = pa.concat_arrays([pc.list_flatten(cells), pa.array([""])])
    # each row's cells land at row * width + column; the rest read the "" appended last
    take = np.full(len(lens) * width, len(values) - 1, dtype=np.int64)
    row_of = np.repeat(np.arange(len(lens)), lens)
    col_of = np.arange(len(row_of)) - np.repeat(np.cumsum(lens) - lens, lens)
    take[row_of * width + col_of] = np.arange(len(row_of))
    offsets = pa.array(np.arange(len(lens) + 1, dtype=np.int32) * width)
    return pa.ListArray.from_arrays(offsets, values.take(pa.array(take)))


def with_filled_rows(sheets: list[Sheet]) -> list[Sheet]:
    """``sheets`` with their ``filled`` masks set. A body row is filled
    (it counts as a body row and in ``total_lines``) unless every cell
    strips to empty; one trim kernel covers every sheet
    (``utf8_trim_whitespace`` blanks exactly the cells ``str.strip``
    blanks). Sheets that all have masks come back as they are: the
    analyse stage sets a block's masks once, for both of its sweeps."""
    if all(s.filled is not None for s in sheets):
        return list(sheets)
    cells = pa.concat_arrays([s.cells for s in sheets])
    blank = pc.equal(pc.utf8_trim_whitespace(pc.list_flatten(cells)), "")
    parents = pc.list_parent_indices(cells).to_numpy(zero_copy_only=False)
    filled = np.bincount(
        parents[~blank.to_numpy(zero_copy_only=False)], minlength=len(cells)
    ) > 0
    starts = np.cumsum([0] + [len(s.cells) for s in sheets])
    return [s._replace(filled=filled[a + 1 : b]) for s, a, b in zip(sheets, starts[:-1], starts[1:])]


def _sheet_bodies(sheets: list[Sheet]) -> list[tuple[pa.ListArray, np.ndarray]]:
    """(body rows, filled mask) per sheet."""
    return [(s.cells.slice(1), s.filled) for s in with_filled_rows(sheets)]


def db_col_name(name: str) -> str:
    """Reserved-name rename + identifier-length budget (parity M10)."""
    if name.lower() in RESERVED_COLS:
        name = f"{name}__hydra_renamed"
    return name[: NAMEDATALEN - 1]


def detect_separator(lines: list[str]) -> str:
    """The separator with the highest consistent per-line count > 0."""
    nz = [line for line in lines if line.strip()]
    return _detect_separator_nz(nz)


def _detect_separator_nz(nz: list[str]) -> str:
    """detect_separator over pre-filtered non-blank lines (the analyse
    hot path strips once and shares the list with the body parse)."""
    best, best_score = ",", -1.0
    for sep in SEPARATORS:
        # a separator absent from the first non-blank line always has
        # min(counts) == 0 and is skipped — gate before the full scan
        if not nz or sep not in nz[0]:
            continue
        counts = [line.count(sep) for line in nz]
        if min(counts) == 0:
            continue
        consistency = 1.0 if len(set(counts)) == 1 else 1.0 / len(set(counts))
        score = consistency * (counts[0] + 1)
        if score > best_score:
            best, best_score = sep, score
    return best


def cell_type(value: str) -> str:
    v = value.strip()
    if not v:
        return "empty"
    if _INT_RE.match(v):
        return "int"
    if _FLOAT_RE.match(v):
        return "float"
    if v.lower() in _BOOL_SET:
        return "bool"
    if _DATETIME_RE.match(v):
        return "datetime"
    if _DATE_RE.match(v):
        return "date"
    if (v.startswith("{") and v.endswith("}")) or (v.startswith("[") and v.endswith("]")):
        try:
            json.loads(v)
            return "json"
        except ValueError:
            pass
    return "string"


_WIDEN = {
    ("int", "float"): "float",
    ("float", "int"): "float",
    ("date", "datetime"): "datetime",
    ("datetime", "date"): "datetime",
}

# RE2 (Arrow kernel) twins of the Python patterns above. RE2's [0-9] is
# deliberate where Python's \d would match Unicode digits — any cell
# containing a non-printable-ASCII character takes the exact-parity
# Python cell_type fallback instead.
_ASCII_RE2 = r"^[ -~]*$"
_INT_RE2 = r"^[+-]?[0-9]+$"
_FLOAT_RE2 = r"^[+-]?([0-9]+[.,][0-9]*|[0-9]*[.,][0-9]+|[0-9]+)([eE][+-]?[0-9]+)?$"
_DATETIME_RE2 = r"^[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}(:[0-9]{2})?"
_DATE_RE2 = r"^([0-9]{4}-[0-9]{2}-[0-9]{2}|[0-9]{2}/[0-9]{2}/[0-9]{4})$"

_T_EMPTY, _T_INT, _T_FLOAT, _T_BOOL, _T_DATETIME, _T_DATE, _T_JSON, _T_STRING = range(8)
_TYPE_NAMES = ["empty", "int", "float", "bool", "datetime", "date", "json", "string"]
_CODE_OF = {n: i for i, n in enumerate(_TYPE_NAMES)}
_BOOL_ARR = pa.array(sorted(_BOOL_SET))


def _classify_cells(arr: pa.Array, ascii_ok: np.ndarray) -> np.ndarray:
    """Vectorized cell_type over a flat string array → int8 type codes.
    One Arrow RE2 kernel per TYPE over the whole array (the round-3
    verdict fix for the per-cell Python type-vote loop); cells outside
    printable ASCII (``ascii_ok`` False: the ``_ASCII_RE2`` mask, which
    the caller also reads) fall back to cell_type per cell, so Unicode-digit /
    exotic-whitespace semantics stay bit-identical to the Python path."""
    s = pc.utf8_trim(arr, " ")
    masks = [
        pc.equal(s, ""),
        pc.match_substring_regex(s, _INT_RE2),
        pc.match_substring_regex(s, _FLOAT_RE2),
        pc.is_in(pc.utf8_lower(s), value_set=_BOOL_ARR),
        pc.match_substring_regex(s, _DATETIME_RE2),
        pc.match_substring_regex(s, _DATE_RE2),
    ]
    np_masks = [m.to_numpy(zero_copy_only=False) for m in masks]
    codes = np.select(
        np_masks,
        [_T_EMPTY, _T_INT, _T_FLOAT, _T_BOOL, _T_DATETIME, _T_DATE],
        default=_T_STRING,
    ).astype(np.int8)
    # json: bracketed string-coded cells that actually parse
    jsonish = pc.or_(
        pc.and_(pc.starts_with(s, "{"), pc.ends_with(s, "}")),
        pc.and_(pc.starts_with(s, "["), pc.ends_with(s, "]")),
    ).to_numpy(zero_copy_only=False)
    cand = np.nonzero(jsonish & (codes == _T_STRING))[0]
    if cand.size:
        vals = s.take(pa.array(cand)).to_pylist()
        for i, v in zip(cand, vals):
            try:
                json.loads(v)
                codes[i] = _T_JSON
            except ValueError:
                pass
    bad = np.nonzero(~ascii_ok)[0]
    if bad.size:
        vals = arr.take(pa.array(bad)).to_pylist()
        for i, v in zip(bad, vals):
            codes[i] = _CODE_OF[cell_type(v)]
    return codes


def _fold_column(row: np.ndarray) -> tuple[str, float]:
    """Fold one column's 8-slot type-count vector into (type, score).
    The widening fold is order-independent (both directions of each
    widening pair are in _WIDEN), so this set-based fold is exactly the
    original first-seen-order fold."""
    total = int(row.sum())
    if not total:
        return ("string", 0.0)
    present = {_TYPE_NAMES[t] for t in np.nonzero(row)[0]}
    if len(present) == 1:
        agreed = next(iter(present))
    elif present == {"int", "float"}:
        agreed = "float"
    elif present == {"date", "datetime"}:
        agreed = "datetime"
    else:
        agreed = "string"
    return (agreed, round(int(row.max()) / total, 3))


def detect_types(rows: list[list[str]], n_cols: int) -> list[tuple[str, float]]:
    """(python_type, score) per column — majority vote with int→float and
    date→datetime widening; any irreconcilable mix → string. The per-cell
    fold of one resource's sample; the crawl analyse stage votes a whole
    block's cells in one sweep instead (``inspect_csv_texts_batch``)."""
    out = []
    for c in range(n_cols):
        seen: dict[str, int] = {}
        total = 0
        for row in rows:
            if c >= len(row):
                continue
            t = cell_type(row[c])
            if t == "empty":
                continue
            seen[t] = seen.get(t, 0) + 1
            total += 1
        if not total:
            out.append(("string", 0.0))
            continue
        agreed: str | None = None
        for t in seen:
            if agreed is None:
                agreed = t
            elif (agreed, t) in _WIDEN:
                agreed = _WIDEN[(agreed, t)]
            elif agreed != t:
                agreed = "string"
                break
        dominant = max(seen.values()) / total
        out.append((agreed or "string", round(dominant, 3)))
    return out


def _parse_csv_line(line: str, sep: str) -> list[str]:
    """Minimal quoted-field split (double-quote CSV convention)."""
    if '"' not in line:
        return line.split(sep)
    out, cur, quoted = [], [], False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == '"':
            if quoted and i + 1 < len(line) and line[i + 1] == '"':
                cur.append('"')
                i += 1
            else:
                quoted = not quoted
        elif ch == sep and not quoted:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
        i += 1
    out.append("".join(cur))
    return out


def _csv_prepare(text: str, sample_rows: int) -> tuple[list[str], str, list[str], list[str]]:
    """(lines, separator, header, sampled non-blank body lines) for CSV
    text."""
    lines = text.splitlines()
    sample = lines[: sample_rows + 1]
    # one strip pass shared by separator detection and the body sample
    nz = [line for line in sample if line.strip()]
    sep = _detect_separator_nz(nz)
    if not lines:
        return lines, sep, [], []
    header = [h.strip() for h in _parse_csv_line(lines[0], sep)]
    body = nz[1:] if (nz and nz[0] is lines[0]) else [ln for ln in sample[1:] if ln.strip()]
    return lines, sep, header, body


def _report(
    header: list[str],
    types: list[tuple[str, float]],
    total_lines: int,
    separator: str | None,
    engine: str = "hydra-ray-inspect",
    encoding: str = "utf-8",
) -> dict:
    """The inspection report shape shared by CSV texts and sheets."""
    return {
        "header": header,
        "columns": {
            db_col_name(name): {"python_type": t, "format": t, "score": score}
            for name, (t, score) in zip(header, types)
        },
        "total_lines": total_lines,
        "encoding": encoding,
        "separator": separator,
        "header_row_idx": 0,
        "engine": engine,
    }


def _add_profile(report: dict, full_body: list[list[str]]) -> None:
    """csv-detective's per-column profile over the FULL body (not the
    type-detection sample)."""
    columns = report["columns"]
    report["profile"] = {
        db_col_name(name): column_profile(
            [row[c] if c < len(row) else None for row in full_body],
            columns[db_col_name(name)]["python_type"],
        )
        for c, name in enumerate(report["header"])
    }


def inspect_csv_text(text: str, sample_rows: int = 100, output_profile: bool = False) -> dict:
    """Full inspection report for CSV text content.

    ``output_profile=True`` mirrors csv-detective's profile output
    (``csv_detective_routine(output_profile=True, num_rows=-1)``,
    reference csv_like/__init__.py:35-58): per-column min/max/mean/std
    (numerics), top-10 values, nb_distinct, nb_missing_values computed
    over the FULL body (not the type-detection sample)."""
    lines, sep, header, body_lines = _csv_prepare(text, sample_rows)
    if not lines:
        return _report([], [], 0, sep)
    body = [_parse_csv_line(line, sep) for line in body_lines]
    types = detect_types(body, len(header))
    report = _report(header, types, sum(1 for line in lines[1:] if line.strip()), sep)
    _refine_geo_formats(body, header, report["columns"])
    if output_profile:
        _add_profile(report, [_parse_csv_line(line, sep) for line in lines[1:] if line.strip()])
    return report


def find_ragged_row(text: str, sep: str, n_cols: int) -> tuple[int, int] | None:
    """First body row whose cell count differs from the header's —
    ``(1-based line number, cell count)`` or None. This is the failure
    the reference hits at the copy-to-DB step (ParseException
    step="copy_records_to_table", data_formats/csv_like/to_db.py:95).
    Quoted texts are skipped: the per-cell fallback parser handles them
    tolerantly, like the reference's csv module."""
    if '"' in text:
        return None
    lines = [line for line in text.splitlines() if line.strip()]
    for idx, line in enumerate(lines[1:], start=2):
        c = line.count(sep) + 1
        if c != n_cols:
            return idx, c
    return None


def _filled_rows(body: pa.ListArray, filled: np.ndarray) -> pa.ListArray:
    """The rows of ``body`` that ``filled`` marks."""
    return body if filled.all() else body.filter(pa.array(filled))


def inspect_csv_texts_batch(texts: list[str | Sheet], sample_rows: int = 100) -> list[dict]:
    """inspect_csv_text over MANY resources in ONE Arrow pass — the
    crawl analyse stage's entry point for CSV texts and ``Sheet`` cells
    alike. Sampled body lines of unquoted texts are cell-split with one
    ``split_pattern`` kernel per separator group; sheets' filled body
    rows join as the ``list<string>`` cells they are (a cell holding a
    separator, a quote or a newline stays one cell). Cells are
    classified once (`_classify_cells`), votes fold with one global
    bincount, and geo-format refinement touches only columns whose every
    non-empty cell passes a vectorized candidate gate. Quoted texts take
    the per-resource `inspect_csv_text` path with identical semantics."""
    out: list[dict | None] = [None] * len(texts)
    metas = []  # (out index, separator or None, header, sampled body, report fields)
    sheet_at = [i for i, item in enumerate(texts) if isinstance(item, Sheet)]
    bodies = dict(zip(sheet_at, _sheet_bodies([texts[i] for i in sheet_at])))
    for i, item in enumerate(texts):
        if isinstance(item, Sheet):
            fields = {"separator": None, "engine": item.engine, "encoding": "binary"}
            if not len(item.cells):
                out[i] = _report([], [], 0, **fields)
                continue
            body, filled = bodies[i]
            sample = _filled_rows(body.slice(0, sample_rows), filled[:sample_rows])
            header = [h.strip() for h in item.cells[0].as_py()]
            total = int(filled.sum())
            metas.append((i, None, header, sample, {"total_lines": total, **fields}))
            continue
        if '"' in item:
            out[i] = inspect_csv_text(item, sample_rows)
            continue
        lines, sep, header, body_lines = _csv_prepare(item, sample_rows)
        if not lines:
            out[i] = _report([], [], 0, sep)
            continue
        total = sum(1 for ln in lines[1:] if ln.strip())
        metas.append((i, sep, header, body_lines, {"total_lines": total, "separator": sep}))
    _inspect_metas_arrow(metas, out)
    return out


def _cells(sep: str | None, bodies: list) -> pa.Array:
    """Resources' body rows as one ``list<string>`` cells array: CSV
    lines split on their separator, sheet bodies (``sep`` None, cells
    arrays already) concatenated."""
    if sep is None:
        return pa.concat_arrays(bodies)
    return pc.split_pattern(pa.array([ln for b in bodies for ln in b], type=pa.string()), sep)


# RE2 twins of the geo-refinement predicates (_LATLON_CELL_RE and
# ``v.lstrip().startswith("{")``); cells outside printable ASCII pass
# the gate conservatively and are re-judged by the exact Python loop,
# so unicode-whitespace semantics stay bit-identical.
_LATLON_RE2 = (
    r"^\s*\[?\s*[+-]?[0-9]+(\.[0-9]+)?\s*,\s*[+-]?[0-9]+(\.[0-9]+)?\s*\]?\s*$"
)
_CURLY_RE2 = r"^\s*\{"


def _inspect_metas_arrow(metas: list, out: list) -> None:
    """The vectorized body of `inspect_csv_texts_batch`: one
    cells/classify/bincount sweep per separator group (sheets are the
    ``None`` group), then per-resource reports with gate-targeted geo
    refinement."""
    by_sep: dict[str | None, list[int]] = {}
    for k, m in enumerate(metas):
        by_sep.setdefault(m[1], []).append(k)
    for sep, ks in by_sep.items():
        bodies = [metas[k][3] for k in ks]
        rows_per = [len(body) for body in bodies]
        ncols_per = [len(metas[k][2]) for k in ks]
        ncols_np = np.asarray(ncols_per, dtype=np.int64)
        bases = np.concatenate([[0], np.cumsum(ncols_np)[:-1]]) if ncols_per else ncols_np
        base_total = int(ncols_np.sum())
        if not sum(rows_per) or base_total == 0:
            for k, nc in zip(ks, ncols_per):
                i, _sep, header, _b, fields = metas[k]
                out[i] = _report(header, [("string", 0.0)] * nc, **fields)
            continue
        cells_list = _cells(sep, bodies)
        flat = pc.list_flatten(cells_list)
        lens = pc.list_value_length(cells_list).to_numpy(zero_copy_only=False).astype(np.int64)
        rows_per_np = np.asarray(rows_per, dtype=np.int64)
        # per-cell (resource-column) slot, clipped to the header width
        # exactly like detect_types' c >= len(row) skip
        row_base = np.repeat(np.repeat(bases, rows_per_np), lens)
        starts = np.cumsum(lens) - lens
        col_idx = np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(starts, lens)
        valid = col_idx < np.repeat(np.repeat(ncols_np, rows_per_np), lens)
        slots = row_base + col_idx
        ascii_ok = pc.match_substring_regex(flat, _ASCII_RE2).to_numpy(zero_copy_only=False)
        codes = _classify_cells(flat, ascii_ok)
        ne = (codes != _T_EMPTY) & valid
        counts = np.bincount(
            slots[ne] * 8 + codes[ne], minlength=base_total * 8
        ).reshape(base_total, 8)
        nonempty = counts.sum(axis=1)
        geo_cols = []  # (slot, report column) of string/json slots with cells
        for k, b in zip(ks, bases):
            i, _sep, header, _b, fields = metas[k]
            b = int(b)
            types = [_fold_column(counts[b + c]) for c in range(len(header))]
            report = _report(header, types, **fields)
            columns = report["columns"]
            for c, name in enumerate(header):
                meta_col = columns.get(db_col_name(name))
                if meta_col and meta_col["python_type"] in ("string", "json") and nonempty[b + c]:
                    geo_cols.append((b + c, meta_col))
            out[i] = report
        if not geo_cols:
            continue
        # the geo gate reads only those slots' non-empty cells (``ne``
        # first: a ragged row's extra cells may index past base_total)
        wanted = np.zeros(base_total, dtype=bool)
        wanted[[slot for slot, _ in geo_cols]] = True
        at = np.nonzero(ne)[0]
        at = at[wanted[slots[at]]]
        cells = flat.take(pa.array(at))
        cand = (
            pc.match_substring_regex(cells, _LATLON_RE2).to_numpy(zero_copy_only=False)
            | pc.match_substring_regex(cells, _CURLY_RE2).to_numpy(zero_copy_only=False)
            | ~ascii_ok[at]
        )
        at_slots = slots[at]
        geo_cand = np.bincount(at_slots[cand], minlength=base_total)
        for slot, meta_col in geo_cols:
            if geo_cand[slot] != nonempty[slot]:
                continue  # some cell hits neither predicate: no format
            fmt = _geo_format_of(cells.filter(pa.array(at_slots == slot)).to_pylist())
            if fmt is not None:
                meta_col["format"] = fmt


def column_profile(values: list, ptype: str) -> dict:
    """csv-detective-style per-column profile: numeric min/max/mean/std,
    top-10 values, nb_distinct, nb_missing_values (casting failures and
    empties count as missing, like the reference's failsafe cast)."""
    import numpy as np
    from collections import Counter

    cast = [smart_cast(ptype, v) for v in values]
    present = [c for c in cast if c is not None]
    prof = {
        "nb_distinct": len({str(c) for c in present}),
        "nb_missing_values": len(cast) - len(present),
    }
    if ptype in ("int", "float") and present:
        arr = np.asarray(present, dtype=np.float64)
        prof.update(
            {
                "min": float(arr.min()),
                "max": float(arr.max()),
                "mean": round(float(arr.mean()), 6),
                "std": round(float(arr.std()), 6),  # population std (ddof=0)
            }
        )
    prof["tops"] = [
        {"value": v, "count": n} for v, n in Counter(str(c) for c in present).most_common(10)
    ]
    return prof


# -- encoding detection (reference: chardet via csv-detective) ---------------

_BOMS = [
    (b"\xef\xbb\xbf", "utf-8-sig"),
    (b"\xff\xfe", "utf-16-le"),
    (b"\xfe\xff", "utf-16-be"),
]


def detect_encoding(data: bytes) -> str:
    """BOM sniff → strict utf-8 try → latin-1 fallback (chardet isn't in
    this container; this covers the encodings data.gouv resources
    actually use — utf-8 variants and legacy latin-1/cp1252)."""
    for bom, name in _BOMS:
        if data.startswith(bom):
            return name
    try:
        data.decode("utf-8")
        return "utf-8"
    except UnicodeDecodeError:
        return "latin-1"


class FileTooLarge(ValueError):
    """A body past its format's size cap: refused as an oversize
    download is."""

    def __init__(self) -> None:
        super().__init__("File too large to download")


def decode_text(data: bytes, max_size: int) -> tuple[str, str]:
    """Downloaded bytes → (text, encoding): gunzip if compressed
    (.csv.gz resources, reference utils/file.py gzip handling), then
    detect the encoding and decode. A gzip body (every member) inflates
    to at most ``max_size`` bytes, its format's cap; past that it raises
    ``FileTooLarge`` without building the rest."""
    if data[:2] == b"\x1f\x8b":
        members, room = [], max_size
        while data:
            d = zlib.decompressobj(wbits=31)
            out = d.decompress(data, room + 1)
            if len(out) > room:
                raise FileTooLarge()
            if not d.eof:
                raise EOFError("Compressed file ended before the end-of-stream marker was reached")
            members.append(out)
            room -= len(out)
            data = d.unused_data
        data = b"".join(members)
    enc = detect_encoding(data)
    return data.decode(enc), enc


def inspect_csv_bytes(data: bytes, sample_rows: int = 100, output_profile: bool = False) -> dict:
    """Bytes entry point: decode (``decode_text``, at the csvgz cap),
    then inspect."""
    text, enc = decode_text(data, config.MAX_FILESIZE_ALLOWED["csvgz"])
    report = inspect_csv_text(text, sample_rows=sample_rows, output_profile=output_profile)
    report["encoding"] = enc
    return report


_LATLON_CELL_RE = re.compile(r"^\s*\[?\s*([+-]?\d+(?:\.\d+)?)\s*,\s*([+-]?\d+(?:\.\d+)?)\s*\]?\s*$")
_GEOM_TYPES = {"Point", "LineString", "Polygon", "MultiPoint", "MultiLineString", "MultiPolygon"}


def _refine_geo_formats(rows: list[list[str]], header: list[str], columns: dict) -> None:
    """csv-detective-style geo format refinement: string columns whose
    sampled cells are '[lat, lon]' pairs → format 'latlon'; embedded
    GeoJSON geometry objects → format 'geojson' (feeds M11 detection)."""
    for c, name in enumerate(header):
        key = db_col_name(name)
        meta = columns.get(key)
        if not meta or meta["python_type"] not in ("string", "json"):
            continue
        values = [row[c] for row in rows if c < len(row) and row[c].strip()]
        if not values:
            continue
        fmt = _geo_format_of(values)
        if fmt is not None:
            meta["format"] = fmt


def _geo_format_of(values: list[str]) -> str | None:
    """'geojson' when every value is an embedded geometry object,
    'latlon' when every value is a '[lat, lon]' pair, else None."""
    latlon_hits = geojson_hits = 0
    for v in values:
        m = _LATLON_CELL_RE.match(v)
        if m and abs(float(m.group(1))) <= 90 and abs(float(m.group(2))) <= 180:
            latlon_hits += 1
        elif v.lstrip().startswith("{"):
            try:
                obj = json.loads(v)
                if isinstance(obj, dict) and obj.get("type") in _GEOM_TYPES:
                    geojson_hits += 1
                else:
                    return None  # miss: neither count can reach len(values)
            except ValueError:
                return None
        else:
            return None  # miss: neither count can reach len(values)
        if latlon_hits and geojson_hits:
            return None  # mixed: neither count can reach len(values)
    if geojson_hits == len(values):
        return "geojson"
    if latlon_hits == len(values):
        return "latlon"
    return None


def smart_cast(python_type: str, value: str | None):
    """Per-cell failsafe cast ('' → None; failure → None), the M9 parity."""
    if value is None:
        return None
    v = value.strip()
    if v == "":
        return None
    try:
        if python_type == "int":
            return int(v)
        if python_type == "float":
            return float(v.replace(",", "."))
        if python_type == "bool":
            return v.lower() in {"true", "vrai", "oui", "yes", "1"}
        if python_type == "date":
            if "/" in v:
                d, m, y = v.split("/")
                return date(int(y), int(m), int(d))
            return date.fromisoformat(v)
        if python_type == "datetime":
            return datetime.fromisoformat(v.replace("T", " ").split("+")[0])
        if python_type == "json":
            json.loads(v)  # validated, stored as text (reference stores JSONB)
            return v
        return value
    except (ValueError, TypeError):
        return None


_PA_TYPE = {
    "string": pa.string(),
    "int": pa.int64(),
    "float": pa.float64(),
    "bool": pa.bool_(),
    "date": pa.date32(),
    "datetime": pa.timestamp("us"),
    "json": pa.string(),
}


class _VectorFallback(Exception):
    """Raised when the vectorized CSV path can't guarantee exact
    smart_cast parity (quoted fields, ragged rows, kernel cast error) —
    the caller retries on the per-cell Python path."""


_TRUE_ARR = pa.array(sorted({"true", "vrai", "oui", "yes", "1"}))
_CTRL_WS_RE2 = r"[\x1c-\x1f]"  # Python str.strip() strips these; Arrow doesn't


def _cast_column_vector(col: pa.Array, pt: str) -> pa.Array:
    """smart_cast over a whole string column with Arrow kernels; cells
    the kernels can't reproduce bit-identically (non-printable-ASCII,
    non-canonical-but-Python-castable like '1_0' or extended ISO forms)
    are overridden per cell with smart_cast itself. Each branch computes
    only the masks it reads."""
    if pt == "json":  # validate-by-parse: inherently per cell
        return pa.array([smart_cast(pt, v) for v in col.to_pylist()], type=_PA_TYPE[pt])
    if pt == "string":
        res = pc.if_else(
            pc.equal(pc.utf8_trim_whitespace(col), ""), pa.scalar(None, pa.string()), col
        )
        # Unicode-whitespace emptiness matches str.strip() except \x1c-\x1f
        need_py = pc.match_substring_regex(col, _CTRL_WS_RE2).to_numpy(zero_copy_only=False)
        return _smart_cast_where(res, col, need_py, pt)
    s = pc.utf8_trim(col, " ")
    not_ascii = ~pc.match_substring_regex(col, _ASCII_RE2).to_numpy(zero_copy_only=False)
    if pt == "bool":
        # any non-empty cell yields a bool (never None) — same as smart_cast
        res = pc.if_else(
            pc.equal(s, ""),
            pa.scalar(None, pa.bool_()),
            pc.is_in(pc.utf8_lower(s), value_set=_TRUE_ARR),
        )
        return _smart_cast_where(res, col, not_ascii, pt)
    if pt == "int":
        valid = pc.match_substring_regex(s, _INT_RE2)
        sv = pc.replace_substring_regex(
            pc.if_else(valid, s, pa.scalar(None, pa.string())), r"^\+", ""
        )
        res = pc.cast(sv, pa.int64())
        matched = valid.to_numpy(zero_copy_only=False)
    elif pt == "float":
        valid = pc.match_substring_regex(s, _FLOAT_RE2)
        sv = pc.replace_substring(
            pc.if_else(valid, s, pa.scalar(None, pa.string())), ",", "."
        )
        res = pc.cast(sv, pa.float64())
        matched = valid.to_numpy(zero_copy_only=False)
    elif pt == "date":
        # strptime ROLLS OVER invalid days (31/04 → 01/05) where Python
        # date() raises → None, so every parse is strftime-round-tripped
        m_iso = pc.match_substring_regex(s, r"^[0-9]{4}-[0-9]{2}-[0-9]{2}$")
        m_fr = pc.match_substring_regex(s, r"^[0-9]{2}/[0-9]{2}/[0-9]{4}$")
        null_s = pa.scalar(None, pa.string())
        iso_ts = pc.strptime(pc.if_else(m_iso, s, null_s), format="%Y-%m-%d", unit="s", error_is_null=True)
        iso_ok = pc.fill_null(pc.equal(pc.strftime(iso_ts, format="%Y-%m-%d"), s), False)
        fr_ts = pc.strptime(pc.if_else(m_fr, s, null_s), format="%d/%m/%Y", unit="s", error_is_null=True)
        fr_ok = pc.fill_null(pc.equal(pc.strftime(fr_ts, format="%d/%m/%Y"), s), False)
        ts = pc.if_else(iso_ok, iso_ts, pc.if_else(fr_ok, fr_ts, pa.scalar(None, pa.timestamp("s"))))
        res = pc.cast(ts, pa.date32())
        matched = pc.or_(m_iso, m_fr).to_numpy(zero_copy_only=False)
    elif pt == "datetime":
        s2 = pc.replace_substring_regex(pc.replace_substring(s, "T", " "), r"\+.*$", "")
        m1 = pc.match_substring_regex(s2, r"^[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}$")
        m2 = pc.match_substring_regex(s2, r"^[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}$")
        null_s = pa.scalar(None, pa.string())
        # unit="s" for the round-trip check: Arrow strftime %S appends
        # the unit's fractional digits (".000000" at us), breaking it
        t1 = pc.strptime(pc.if_else(m1, s2, null_s), format="%Y-%m-%d %H:%M:%S", unit="s", error_is_null=True)
        ok1 = pc.fill_null(pc.equal(pc.strftime(t1, format="%Y-%m-%d %H:%M:%S"), s2), False)
        t2 = pc.strptime(pc.if_else(m2, s2, null_s), format="%Y-%m-%d %H:%M", unit="s", error_is_null=True)
        ok2 = pc.fill_null(pc.equal(pc.strftime(t2, format="%Y-%m-%d %H:%M"), s2), False)
        res = pc.cast(
            pc.if_else(ok1, t1, pc.if_else(ok2, t2, pa.scalar(None, pa.timestamp("s")))),
            pa.timestamp("us"),
        )
        matched = pc.or_(m1, m2).to_numpy(zero_copy_only=False)
    else:
        raise _VectorFallback
    # unmatched non-empty cells: Python may still cast them
    empty = pc.equal(s, "").to_numpy(zero_copy_only=False)
    return _smart_cast_where(res, col, (~matched & ~empty) | not_ascii, pt)


def _smart_cast_where(res: pa.Array, col: pa.Array, need_py: np.ndarray, pt: str) -> pa.Array:
    """``res`` with the cells ``need_py`` marks recast by smart_cast."""
    idx = np.nonzero(need_py)[0]
    if not idx.size:
        return res
    vals = res.to_pylist()
    orig = col.take(pa.array(idx)).to_pylist()
    for i, v in zip(idx, orig):
        vals[int(i)] = smart_cast(pt, v)
    return pa.array(vals, type=_PA_TYPE[pt])


def _cast_cells(cells: pa.Array, ptypes: list[str]) -> list[pa.Array]:
    """Per-column kernel casts of a ``list<string>`` cells array; raises
    _VectorFallback on ragged rows or a kernel rejection."""
    lens = pc.list_value_length(cells).to_numpy(zero_copy_only=False)
    if len(lens) and (lens != len(ptypes)).any():
        raise _VectorFallback  # ragged rows: the Python path pads with None
    try:
        return [
            _cast_column_vector(
                pc.list_element(cells, c) if len(lens) else pa.array([], pa.string()), pt
            )
            for c, pt in enumerate(ptypes)
        ]
    except (pa.ArrowInvalid, pa.ArrowTypeError) as e:  # e.g. int64 overflow
        raise _VectorFallback from e


def _rows_table(rows: list[list[str]], names: list[str], ptypes: list[str]) -> pa.Table:
    """The per-cell smart_cast path over split body rows (short rows pad
    with None)."""
    arrays = [
        pa.array([smart_cast(pt, r[c] if c < len(r) else None) for r in rows], type=_PA_TYPE[pt])
        for c, pt in enumerate(ptypes)
    ]
    return pa.table(dict(zip(names, arrays)))


def _names_types(insp: dict) -> tuple[list[str], list[str]]:
    names = [db_col_name(h) for h in insp["header"]]
    return names, [insp["columns"][c]["python_type"] for c in names]


def csv_texts_to_tables(texts: list[str | Sheet], insps: list[dict]) -> list[pa.Table]:
    """csv_text_to_table over MANY resources, CSV texts and ``Sheet``
    cells alike: group by (separator, columns, types) signature, build
    each group's cells array once (`_cells`; a sheet's body is its
    non-blank rows at the header width), run each column cast kernel
    ONCE per group, then hand each resource a zero-copy slice. Quoted /
    ragged / kernel-rejected resources take the per-cell path."""
    out: list = [None] * len(texts)
    groups: dict[tuple, list[int]] = {}
    bodies: dict[int, list | pa.ListArray] = {}
    sheet_at = [i for i, item in enumerate(texts) if isinstance(item, Sheet)]
    sheet_bodies = dict(zip(sheet_at, _sheet_bodies([texts[i] for i in sheet_at])))
    for i, (item, insp) in enumerate(zip(texts, insps)):
        names, ptypes = _names_types(insp)
        if isinstance(item, Sheet):
            sep = None
            rows = item.cells
            body = _filled_rows(*sheet_bodies[i])
            w = len(names)
            if len(rows) and len(rows[0]) != w:  # an inspection of another width
                body = sheet_cells([(r + [""] * w)[:w] for r in body.to_pylist()])
        elif '"' in item:
            out[i] = csv_text_to_table(item, insp)
            continue
        else:
            sep = insp["separator"]
            rows = [line for line in item.splitlines() if line.strip()]
            body = rows[1:]
        if not len(rows):
            out[i] = pa.table({})
            continue
        bodies[i] = body
        groups.setdefault((sep, tuple(names), tuple(ptypes)), []).append(i)
    for (sep, names, ptypes), idxs in groups.items():
        try:
            arrays = _cast_cells(_cells(sep, [bodies[i] for i in idxs]), ptypes)
        except _VectorFallback:  # ragged or kernel-rejected somewhere in the group
            for i in idxs:
                rows = bodies[i].to_pylist() if sep is None else [line.split(sep) for line in bodies[i]]
                out[i] = _rows_table(rows, names, ptypes)
            continue
        off = 0
        for i in idxs:
            cnt = len(bodies[i])
            out[i] = pa.table(dict(zip(names, [a.slice(off, cnt) for a in arrays])))
            off += cnt
    return out


def csv_text_to_table(text: str, inspection: dict | None = None) -> pa.Table:
    """CSV text → typed Arrow table using (or computing) the inspection.
    Unquoted, rectangular CSV takes the all-Arrow vector path (split →
    per-column kernel casts); quoted or ragged content falls back to the
    per-cell Python path with identical semantics."""
    insp = inspection or inspect_csv_text(text)
    sep = insp["separator"]
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return pa.table({})
    names, ptypes = _names_types(insp)
    if '"' not in text:
        try:
            return pa.table(dict(zip(names, _cast_cells(_cells(sep, [lines[1:]]), ptypes))))
        except _VectorFallback:
            pass
    return _rows_table([_parse_csv_line(line, sep) for line in lines[1:]], names, ptypes)


def inspect_sheet(sheet: Sheet, sample_rows: int = 100, output_profile: bool = False) -> dict:
    """Inspection report for one sheet (a one-item batch); with
    ``output_profile`` the csv-detective profile the CSV route emits."""
    report = inspect_csv_texts_batch([sheet], sample_rows)[0]
    if output_profile and len(sheet.cells):
        _add_profile(report, _filled_rows(*_sheet_bodies([sheet])[0]).to_pylist())
    return report


def sheet_to_table(sheet: Sheet, inspection: dict | None = None) -> pa.Table:
    """One sheet → typed Arrow table (a one-item batch)."""
    insp = inspection or inspect_sheet(sheet)
    return csv_texts_to_tables([sheet], [insp])[0]


# -- parquet inspection (S5) -------------------------------------------------

def _arrow_to_python_type(t: pa.DataType) -> str:
    """PYARROW_TYPE_TO_PYTHON semantics (conversion/schema.py:38-53):
    struct/list → json, decimal → float, timestamp+tz → datetime_aware,
    dictionary unwrapped."""
    if pa.types.is_dictionary(t):
        return _arrow_to_python_type(t.value_type)
    if pa.types.is_struct(t) or pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        return "json"
    if pa.types.is_decimal(t) or pa.types.is_floating(t):
        return "float"
    if pa.types.is_integer(t):
        return "int"
    if pa.types.is_boolean(t):
        return "bool"
    if pa.types.is_timestamp(t):
        return "datetime_aware" if t.tz is not None else "datetime"
    if pa.types.is_date(t):
        return "date"
    if pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return "binary"
    return "string"


def inspect_parquet(path: str) -> dict:
    """Parquet metadata → the same inspection shape (no data read)."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    schema = pf.schema_arrow
    columns = {
        db_col_name(f.name): {"python_type": _arrow_to_python_type(f.type), "format": str(f.type), "score": 1.0}
        for f in schema
    }
    return {
        "header": list(schema.names),
        "columns": columns,
        "total_lines": pf.metadata.num_rows,
        "encoding": "binary",
        "separator": None,
        "header_row_idx": None,
        "engine": "pyarrow-metadata",
    }
