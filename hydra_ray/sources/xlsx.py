"""Minimal stdlib XLSX reader (+ writer for fixtures/tests).

The reference ingests Excel as a first-class tabular source
(utils/reader.py:19-70 via openpyxl/xlrd; data_formats/csv_like/
__init__.py:161-217). Those wheels are not in this container, but XLSX
is just a zip of XML — this module implements the subset needed for
tabular ingestion with the standard library only:

  - shared strings (t="s"), inline strings (t="inlineStr" / t="str"),
    booleans (t="b") and numbers (default) are decoded;
  - sheet order comes from xl/workbook.xml + its relationships part
    (relative targets resolve from xl/, absolute ones from the package
    root);
  - cells are addressed by their r="A1" reference, so sparse rows and
    skipped columns land in the right slot;
  - the writer's canonical layout (unprefixed ``<row>`` / ``<c r t>``
    cells with a ``<v>``, plain ``<si><t>`` shared strings) is read by a
    regex scan; anything else — carriage returns, inline or rich-text
    strings, gaps in the column refs, prefixed namespaces, entities
    beyond the five XML ones and numeric refs — falls back to an
    ElementTree walk that yields the same rows;
  - all values surface as STRINGS: the rows join the crawl block's CSV
    texts as a ``Sheet`` in the one batched inspect/cast sweep
    (stages/inspection.py), so an .xlsx and its CSV twin produce the
    identical typed table.

Not supported (documented limitation): style-driven serial-number
dates (requires styles.xml numFmt resolution) and formula evaluation —
the cached formula value is used.
"""

from __future__ import annotations

import io
import re
import zipfile
from string import ascii_uppercase
from xml.etree import ElementTree as ET

import pyarrow as pa

from hydra_ray.stages.inspection import Sheet, inspect_sheet, sheet_to_table

_CELL_REF_RE = re.compile(r"^([A-Z]+)(\d+)$")

# the writer's canonical layout, scanned without building a tree:
# _ROWS_RE is a whole <sheetData> body of such rows, so one fullmatch
# proves nothing else is in it; _SCAN_RE then reads row starts and cells
_ROW = r"<row(?: [^>/]*)?>"
_CELL = r'<c r="([A-Z]+)[0-9]+"(?: t="(s|b|n|str)")?><v>([^<]*)</v></c>'
_ROWS_RE = re.compile(r"(?:%s(?:%s)*</row>)*" % (_ROW, re.sub(r"\((?!\?)", "(?:", _CELL)))
_SCAN_RE = re.compile(r"(%s)|%s" % (_ROW, _CELL))
_SHEET_DATA_RE = re.compile(r"<sheetData>(.*)</sheetData>", re.S)
_SST_RE = re.compile(r"<sst(?: [^>]*)?>(.*)</sst>", re.S)
_SI_RE = re.compile(r"<si><t>([^<]*)</t></si>")
_SIS_RE = re.compile(r"(?:<si><t>[^<]*</t></si>)*")
# \r (XML folds line ends) and the control characters XML rejects
_ODD_BYTES = bytes([*range(0x09), *range(0x0B, 0x20)])
_ENTITY_RE = re.compile(r"&(?:(amp|lt|gt|quot|apos)|#([0-9]+)|#x([0-9a-fA-F]+));")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
# column letters by index, A..ZZ: wider sheets take the ElementTree walk
_LETTERS = (*ascii_uppercase, *(a + b for a in ascii_uppercase for b in ascii_uppercase))


def _col_index(letters: str) -> int:
    idx = 0
    for ch in letters:
        idx = idx * 26 + (ord(ch) - ord("A") + 1)
    return idx - 1


def _text(elem) -> str:
    return "".join(elem.itertext())


def _first_sheet_target(zf: zipfile.ZipFile) -> str:
    """First sheet's worksheet part, resolved through the workbook
    relationships (falls back to the lowest-numbered sheet part).
    Relative targets resolve from xl/, absolute ones ("/xl/...") from
    the package root."""
    try:
        wb = ET.fromstring(zf.read("xl/workbook.xml"))
        rels = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
        rid_to_target = {
            r.get("Id"): r.get("Target") for r in rels if r.get("Target")
        }
        for sheet in wb.findall(".//{*}sheet"):
            rid = sheet.get(
                "{http://schemas.openxmlformats.org/officeDocument/2006/relationships}id"
            )
            target = rid_to_target.get(rid)
            if target:
                if target.startswith("/"):
                    return target[1:]
                return target if target.startswith("xl/") else "xl/" + target
    except (KeyError, ET.ParseError):
        pass
    sheets = sorted(n for n in zf.namelist() if re.match(r"xl/worksheets/sheet\d+\.xml$", n))
    if not sheets:
        raise ValueError("no worksheet part in xlsx archive")
    return sheets[0]


def _local(tag) -> str:
    """Local name of a (possibly namespace-qualified) element tag."""
    return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""


def _parts(data: bytes) -> tuple[bytes, bytes | None]:
    """(first worksheet part, shared-strings part or None)."""
    zf = zipfile.ZipFile(io.BytesIO(data))
    sheet = zf.read(_first_sheet_target(zf))
    try:
        return sheet, zf.read("xl/sharedStrings.xml")
    except KeyError:
        return sheet, None


def _value(ctype: str, raw: str, shared: list[str]) -> str:
    if ctype == "s":
        return shared[int(raw)] if raw else ""
    if ctype == "b":
        return "true" if raw.strip() == "1" else "false"
    return raw  # n (number), str (cached formula string)


def _entity(m: re.Match) -> str:
    if m.group(1):
        return _ENTITIES[m.group(1)]
    return chr(int(m.group(2)) if m.group(2) else int(m.group(3), 16))


def _unescape(s: str) -> str:
    return _ENTITY_RE.sub(_entity, s) if "&" in s else s


def _xml_char(cp: int) -> bool:
    """A code point XML allows in text, less \\r (see _ODD_BYTES)."""
    return (
        cp in (0x9, 0xA) or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD or 0x10000 <= cp <= 0x10FFFF
    )


def _plain(part: bytes) -> str | None:
    """The part as text when the scan may read it, else None. OOXML
    parts are UTF-8 or UTF-16, and UTF-16 ones hold NUL bytes."""
    if len(part.translate(None, _ODD_BYTES)) != len(part) or any(
        # U+FFFE, U+FFFF, a stray CDATA end, a DTD (its entities and
        # default attributes are the parser's to apply)
        s in part for s in (b"\xef\xbf\xbe", b"\xef\xbf\xbf", b"]]>", b"<!DOCTYPE")
    ):
        return None
    try:
        text = part.decode("utf-8")
    except UnicodeDecodeError:
        return None
    refs = _ENTITY_RE.findall(text) if "&" in text else []
    if text.count("&") != len(refs) or not all(
        _xml_char(int(d) if d else int(x, 16)) for _n, d, x in refs if d or x
    ):
        return None  # a DTD-defined or malformed entity, or a character XML rejects
    return text


def _scan_rows(sheet: bytes, sst: bytes | None) -> list[list[str]] | None:
    """Rows of the writer's canonical layout read by regex (not padded),
    or None when the parts hold anything else."""
    sheet_text = _plain(sheet)
    sst_text = "<sst></sst>" if sst is None else _plain(sst)
    if sheet_text is None or sst_text is None:
        return None
    data = _SHEET_DATA_RE.search(sheet_text)
    strings = _SST_RE.search(sst_text)
    if (
        data is None
        or strings is None
        or not _ROWS_RE.fullmatch(data.group(1))
        or not _SIS_RE.fullmatch(strings.group(1))
    ):
        return None
    shared = [_unescape(t) for t in _SI_RE.findall(strings.group(1))]
    rows: list[list[str]] = []
    row: list[str] = []
    for start, col, ctype, raw in _SCAN_RE.findall(data.group(1)):
        if start:
            row = []
            rows.append(row)
        elif len(row) >= len(_LETTERS) or col != _LETTERS[len(row)]:
            return None  # a gap or an out-of-order column ref
        elif ctype == "s" and "&" not in raw:
            row.append(shared[int(raw)] if raw else "")
        else:
            row.append(_value(ctype or "n", _unescape(raw), shared))
    if sheet_text.count("<row") + sheet_text.count(":row") != len(rows):
        return None  # a row outside <sheetData>
    return rows


def _walk_rows(sheet: bytes, sst: bytes | None) -> list[list[str]]:
    """Rows by an ElementTree walk, for any layout (not padded): direct
    child iteration with local-name checks — per-cell
    ``find("{*}v")`` path lookups pay ElementPath machinery per call."""
    shared = []
    if sst is not None:
        shared = [_text(si) for si in ET.fromstring(sst) if _local(si.tag) == "si"]
    root = ET.fromstring(sheet)
    rows: list[list[str]] = []
    for row_el in (el for el in root.iter() if _local(el.tag) == "row"):
        cells: dict[int, str] = {}
        auto_col = 0
        for c in row_el:
            if _local(c.tag) != "c":
                continue
            ref = c.get("r")
            if ref and (m := _CELL_REF_RE.match(ref)):
                col = _col_index(m.group(1))
            else:
                col = auto_col
            auto_col = col + 1
            ctype = c.get("t", "n")
            v_el = is_el = None
            for ch in c:
                ln = _local(ch.tag)
                if ln == "v":
                    v_el = ch
                elif ln == "is":
                    is_el = ch
            if ctype == "inlineStr":
                cells[col] = _text(is_el) if is_el is not None else ""
            else:
                cells[col] = _value(ctype, _text(v_el) if v_el is not None else "", shared)
        rows.append([cells.get(i, "") for i in range(max(cells, default=-1) + 1)])
    return rows


def read_xlsx_rows(data: bytes) -> list[list[str]]:
    """XLSX bytes → dense rows of strings (first sheet): the regex scan
    when the parts are in the canonical layout, else the ElementTree
    walk."""
    sheet, sst = _parts(data)
    rows = _scan_rows(sheet, sst)
    if rows is None:
        rows = _walk_rows(sheet, sst)
    max_cols = max(map(len, rows), default=0)
    return [r + [""] * (max_cols - len(r)) for r in rows]


def inspect_xlsx(
    data: bytes,
    sample_rows: int = 100,
    rows: list[list[str]] | None = None,
    output_profile: bool = False,
) -> dict:
    """Inspection report for XLSX bytes (a one-sheet batch, see
    stages/inspection.py ``inspect_sheet``). Pass ``rows`` (from
    read_xlsx_rows) to avoid a second XML parse."""
    if rows is None:
        rows = read_xlsx_rows(data)
    return inspect_sheet(Sheet(rows, "hydra-ray-xlsx"), sample_rows, output_profile)


def xlsx_to_table(
    data: bytes, inspection: dict | None = None, rows: list[list[str]] | None = None
) -> pa.Table:
    """XLSX bytes → typed Arrow table via the batched cast sweep.
    Pass ``rows`` to reuse an existing read_xlsx_rows result."""
    if rows is None:
        rows = read_xlsx_rows(data)
    return sheet_to_table(Sheet(rows, "hydra-ray-xlsx"), inspection)


# ---------------------------------------------------------------------------
# writer (fixtures / tests only — hand-rolled minimal OOXML)
# ---------------------------------------------------------------------------

_CONTENT_TYPES = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>
<Override PartName="/xl/worksheets/sheet1.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>
<Override PartName="/xl/sharedStrings.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sharedStrings+xml"/>
</Types>"""

_ROOT_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="xl/workbook.xml"/>
</Relationships>"""

_WORKBOOK = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">
<sheets><sheet name="Sheet1" sheetId="1" r:id="rId1"/></sheets>
</workbook>"""

_WORKBOOK_RELS = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" Target="worksheets/sheet1.xml"/>
<Relationship Id="rId2" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/sharedStrings" Target="sharedStrings.xml"/>
</Relationships>"""


def _col_letters(idx: int) -> str:
    out = ""
    idx += 1
    while idx:
        idx, rem = divmod(idx - 1, 26)
        out = chr(ord("A") + rem) + out
    return out


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write_xlsx(rows: list[list[object]]) -> bytes:
    """Rows (str/int/float/bool) → minimal single-sheet XLSX bytes.
    Strings go through sharedStrings (the common layout); numbers and
    bools use native cell types."""
    shared: list[str] = []
    shared_idx: dict[str, int] = {}
    body = []
    for ri, row in enumerate(rows, start=1):
        cells = []
        for ci, val in enumerate(row):
            ref = f"{_col_letters(ci)}{ri}"
            if isinstance(val, bool):
                cells.append(f'<c r="{ref}" t="b"><v>{1 if val else 0}</v></c>')
            elif isinstance(val, (int, float)):
                cells.append(f'<c r="{ref}"><v>{val!r}</v></c>')
            else:
                s = "" if val is None else str(val)
                if s not in shared_idx:
                    shared_idx[s] = len(shared)
                    shared.append(s)
                cells.append(f'<c r="{ref}" t="s"><v>{shared_idx[s]}</v></c>')
        body.append(f'<row r="{ri}">{"".join(cells)}</row>')
    sheet = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
        f'<sheetData>{"".join(body)}</sheetData></worksheet>'
    )
    sst = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" count="{len(shared)}" uniqueCount="{len(shared)}">'
        + "".join(f"<si><t>{_esc(s)}</t></si>" for s in shared)
        + "</sst>"
    )
    buf = io.BytesIO()
    # STORED: fixtures and synthetic-web files skip the deflate cost
    # (readers accept either compression). A fixed entry timestamp (a
    # string name stamps the wall clock) keeps equal rows at equal bytes.
    stamp = (1980, 1, 1, 0, 0, 0)
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("[Content_Types].xml", stamp), _CONTENT_TYPES)
        zf.writestr(zipfile.ZipInfo("_rels/.rels", stamp), _ROOT_RELS)
        zf.writestr(zipfile.ZipInfo("xl/workbook.xml", stamp), _WORKBOOK)
        zf.writestr(zipfile.ZipInfo("xl/_rels/workbook.xml.rels", stamp), _WORKBOOK_RELS)
        zf.writestr(zipfile.ZipInfo("xl/sharedStrings.xml", stamp), sst)
        zf.writestr(zipfile.ZipInfo("xl/worksheets/sheet1.xml", stamp), sheet)
    return buf.getvalue()
