"""Minimal stdlib ODS (OpenDocument Spreadsheet) reader + writer.

The reference declares .ods as a first-class size-capped tabular
format (config_default.toml:63 `MAX_FILESIZE_ALLOWED.ods`) alongside
xls/xlsx, but has no stdlib-free parse path. ODS is a zip whose
`content.xml` holds `<table:table-row>` / `<table:table-cell>`
elements — this module implements the subset needed for tabular
ingestion with the standard library only:

  - typed cells: value-type float (office:value), boolean
    (office:boolean-value), date (office:date-value), string
    (text:p paragraphs, with text:s / text:tab expansion);
  - `table:number-columns-repeated` and `table:number-rows-repeated`
    run-length expansion (trailing all-empty runs are trimmed, the
    standard layout for the 16384-wide filler cells LibreOffice emits);
  - all values surface as STRINGS: the rows join the crawl block's
    CSV texts and XLSX/XLS sheets as a ``Sheet`` in the one batched
    inspect/cast sweep (stages/inspection.py), so an .ods and its CSV
    twin produce the identical typed table.

Not supported (documented limitation): formula evaluation (the cached
office:value is used — same policy as the XLSX reader) and multi-table
documents beyond the first table.
"""

from __future__ import annotations

import io
import zipfile
from xml.etree import ElementTree as ET

import pyarrow as pa

from hydra_ray.stages.inspection import Sheet, inspect_sheet, sheet_to_table

_OFFICE = "urn:oasis:names:tc:opendocument:xmlns:office:1.0"
_TABLE = "urn:oasis:names:tc:opendocument:xmlns:table:1.0"
_TEXT = "urn:oasis:names:tc:opendocument:xmlns:text:1.0"

_VALUE_TYPE = f"{{{_OFFICE}}}value-type"
_VALUE = f"{{{_OFFICE}}}value"
_BOOL_VALUE = f"{{{_OFFICE}}}boolean-value"
_DATE_VALUE = f"{{{_OFFICE}}}date-value"
_TIME_VALUE = f"{{{_OFFICE}}}time-value"
_COLS_REPEATED = f"{{{_TABLE}}}number-columns-repeated"
_ROWS_REPEATED = f"{{{_TABLE}}}number-rows-repeated"

ODS_MIMETYPE = "application/vnd.oasis.opendocument.spreadsheet"

# repeat counts beyond this are filler (LibreOffice pads rows to 16384
# columns / 1048576 rows); a repeated NON-empty run this large would be
# a >1M-cell literal, which no tabular resource legitimately encodes
_MAX_REPEAT = 4096


def _cell_text(cell: ET.Element) -> str:
    """Concatenate the cell's text:p paragraphs, expanding text:s
    (repeated spaces) and text:tab; multiple paragraphs join with \\n."""
    paras = []
    for p in cell.findall(f"{{{_TEXT}}}p"):
        parts = [p.text or ""]
        for node in p:
            tag = node.tag
            if tag == f"{{{_TEXT}}}s":
                parts.append(" " * int(node.get(f"{{{_TEXT}}}c", "1")))
            elif tag == f"{{{_TEXT}}}tab":
                parts.append("\t")
            else:
                parts.append("".join(node.itertext()))
            parts.append(node.tail or "")
        paras.append("".join(parts))
    return "\n".join(paras)


def _cell_value(cell: ET.Element) -> str:
    vtype = cell.get(_VALUE_TYPE)
    if vtype == "boolean":
        return "true" if cell.get(_BOOL_VALUE, "").strip() == "true" else "false"
    if vtype == "date":
        return cell.get(_DATE_VALUE, "")
    if vtype == "time":
        return cell.get(_TIME_VALUE, "")
    if vtype in ("float", "currency", "percentage"):
        return cell.get(_VALUE, "")
    return _cell_text(cell)


def read_ods_rows(data: bytes) -> list[list[str]]:
    """ODS bytes → dense rows of strings (first table)."""
    zf = zipfile.ZipFile(io.BytesIO(data))
    root = ET.fromstring(zf.read("content.xml"))
    table = root.find(f".//{{{_TABLE}}}table")
    if table is None:
        raise ValueError("no table in ods content.xml")
    rows: list[list[str]] = []
    max_cols = 0
    for row_el in table.findall(f"{{{_TABLE}}}table-row"):
        cells: list[str] = []
        for cell in row_el:
            tag = cell.tag
            if tag not in (
                f"{{{_TABLE}}}table-cell",
                f"{{{_TABLE}}}covered-table-cell",
            ):
                continue
            value = "" if tag.endswith("covered-table-cell") else _cell_value(cell)
            repeat = int(cell.get(_COLS_REPEATED, "1"))
            if value == "":
                repeat = min(repeat, _MAX_REPEAT)  # trailing filler run
            cells.extend([value] * repeat)
        while cells and cells[-1] == "":
            cells.pop()
        row_repeat = int(row_el.get(_ROWS_REPEATED, "1"))
        # interior blank runs must expand (they shift subsequent rows);
        # only the size is clamped, like the column case — a trailing
        # 2^20-row LibreOffice filler run gets popped below either way
        if row_repeat > _MAX_REPEAT:
            row_repeat = _MAX_REPEAT
        max_cols = max(max_cols, len(cells))
        rows.extend([list(cells) for _ in range(row_repeat)])
    while rows and not rows[-1]:
        rows.pop()
    return [r + [""] * (max_cols - len(r)) for r in rows]


def inspect_ods(
    data: bytes,
    sample_rows: int = 100,
    rows: list[list[str]] | None = None,
    output_profile: bool = False,
) -> dict:
    """Inspection report for ODS bytes in the exact shape of
    inspect_csv_text (a one-sheet batch). Pass ``rows`` (from
    read_ods_rows) to avoid a second XML parse."""
    if rows is None:
        rows = read_ods_rows(data)
    return inspect_sheet(Sheet(rows, "hydra-ray-ods"), sample_rows, output_profile)


def ods_to_table(
    data: bytes, inspection: dict | None = None, rows: list[list[str]] | None = None
) -> pa.Table:
    """ODS bytes → typed Arrow table via the batched cast sweep. Pass
    ``rows`` to reuse an existing read_ods_rows result."""
    if rows is None:
        rows = read_ods_rows(data)
    return sheet_to_table(Sheet(rows, "hydra-ray-ods"), inspection)


# ---------------------------------------------------------------------------
# writer (fixtures / tests only — hand-rolled minimal ODF)
# ---------------------------------------------------------------------------

_MANIFEST = f"""<?xml version="1.0" encoding="UTF-8"?>
<manifest:manifest xmlns:manifest="urn:oasis:names:tc:opendocument:xmlns:manifest:1.0" manifest:version="1.2">
<manifest:file-entry manifest:full-path="/" manifest:media-type="{ODS_MIMETYPE}"/>
<manifest:file-entry manifest:full-path="content.xml" manifest:media-type="text/xml"/>
</manifest:manifest>"""

_CONTENT_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>'
    f'<office:document-content xmlns:office="{_OFFICE}" xmlns:table="{_TABLE}" '
    f'xmlns:text="{_TEXT}" office:version="1.2">'
    "<office:body><office:spreadsheet>"
    '<table:table table:name="Sheet1">'
)
_CONTENT_TAIL = "</table:table></office:spreadsheet></office:body></office:document-content>"


def _esc(s: str) -> str:
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_ods(rows: list[list[object]]) -> bytes:
    """Rows (str/int/float/bool) → minimal single-table ODS bytes.
    Numbers carry office:value (same repr formatting as the XLSX
    writer), bools office:boolean-value, strings a text:p paragraph."""
    body = []
    for row in rows:
        cells = []
        for val in row:
            if isinstance(val, bool):
                b = "true" if val else "false"
                cells.append(
                    f'<table:table-cell office:value-type="boolean" '
                    f'office:boolean-value="{b}"><text:p>{b}</text:p></table:table-cell>'
                )
            elif isinstance(val, (int, float)):
                cells.append(
                    f'<table:table-cell office:value-type="float" '
                    f'office:value="{val!r}"><text:p>{val!r}</text:p></table:table-cell>'
                )
            else:
                s = "" if val is None else str(val)
                cells.append(
                    '<table:table-cell office:value-type="string">'
                    f"<text:p>{_esc(s)}</text:p></table:table-cell>"
                )
        body.append(f"<table:table-row>{''.join(cells)}</table:table-row>")
    content = _CONTENT_HEAD + "".join(body) + _CONTENT_TAIL
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        # the ODF spec requires 'mimetype' first and uncompressed
        zf.writestr("mimetype", ODS_MIMETYPE)
        zf.writestr("META-INF/manifest.xml", _MANIFEST)
        zf.writestr("content.xml", content)
    return buf.getvalue()
