"""Minimal stdlib XLSX reader (+ writer for fixtures/tests).

The reference ingests Excel as a first-class tabular source
(utils/reader.py:19-70 via openpyxl/xlrd; data_formats/csv_like/
__init__.py:161-217). Those wheels are not in this container, but XLSX
is just a zip of XML — this module implements the subset needed for
tabular ingestion with the standard library and pyarrow only:

  - shared strings (t="s"), inline strings (t="inlineStr" / t="str"),
    booleans (t="b") and numbers (default) are decoded;
  - sheet order comes from xl/workbook.xml + its relationships part
    (relative targets resolve from xl/, absolute ones from the package
    root); a plain ``<sheets>`` list and a plain relationships part are
    read by regex, anything else by ElementTree;
  - cells are addressed by their r="A1" reference, so sparse rows and
    skipped columns land in the right slot;
  - the writer's canonical layout (unprefixed ``<row>`` / ``<c r t>``
    cells with a ``<v>``, plain ``<si><t>`` shared strings) is read by a
    regex scan straight into Arrow: the fullmatch that proves the
    layout also proves each row's column refs run A, B, C… (ragged
    rows: one findall and one comparison), one findall takes the
    values, and shared-string cells resolve with one ``take`` from the
    shared-string array. Anything else — carriage returns, inline or
    rich-text strings, gaps in the column refs, prefixed namespaces,
    entities beyond the five XML ones and numeric refs — falls back to
    an ElementTree walk that yields the same cells;
  - zip parts are sliced straight out of the archive bytes when their
    local header, size and CRC-32 check out (else ``ZipFile.read``);
  - all values surface as STRINGS in one ``list<string>`` array, one
    list per row with the header first: it joins the crawl block's CSV
    texts as a ``Sheet`` in the one batched inspect/cast sweep
    (stages/inspection.py), so an .xlsx and its CSV twin produce the
    identical typed table.

Not supported (documented limitation): style-driven serial-number
dates (requires styles.xml numFmt resolution) and formula evaluation —
the cached formula value is used.
"""

from __future__ import annotations

import functools
import io
import re
import struct
import zipfile
import zlib
from string import ascii_uppercase
from xml.etree import ElementTree as ET

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from hydra_ray.stages.inspection import Sheet, dense_cells, inspect_sheet, sheet_cells, sheet_to_table

_CELL_REF_RE = re.compile(r"^([A-Z]+)(\d+)$")

# the writer's canonical layout, scanned without building a tree:
# _ROWS_RE is a whole <sheetData> body of such rows, so one fullmatch
# proves nothing else is in it (_square_rows_re also proves each row
# holds columns A, B, C… of one width); the findalls below then read it
_ROW = r"<row(?: [^>/]*+)?+>"
_CELL = r'<c r="%s[0-9]++"(?: t="(?:s|b|n|str)")?+><v>[^<]*+</v></c>'
_ROWS_RE = re.compile(r"(?:%s(?:%s)*+</row>)*+" % (_ROW, _CELL % "[A-Z]++"))
_ROW_COL_RE = re.compile(r'<(?:r|c r="([A-Z]+))')  # over a fullmatched body: <row or a cell
_TYPE_RE = re.compile(r'<c r="[A-Z]+[0-9]+"(?: t="([a-z]+)")?>')
_V_RE = re.compile(r"<v>([^<]*)</v>")
_SHEET_DATA_RE = re.compile(r"<sheetData>(.*)</sheetData>", re.S)
_SST_RE = re.compile(r"<sst(?: [^>]*)?>(.*)</sst>", re.S)
_SIS_RE = re.compile(r"(?:<si><t>[^<]*+</t></si>)*+")
# \r (XML folds line ends) and the control characters XML rejects
_ODD_BYTES = bytes([*range(0x09), *range(0x0B, 0x20)])
_ENTITY_RE = re.compile(r"&(?:(amp|lt|gt|quot|apos)|#([0-9]+)|#x([0-9a-fA-F]+));")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
# column letters by index, A..ZZ: wider sheets take the ElementTree walk
_LETTERS = [*ascii_uppercase, *(a + b for a in ascii_uppercase for b in ascii_uppercase)]

_R_NS = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
# the workbook's sheet list and its relationships part in the plain
# layout Excel and the writer emit: double-quoted attribute values with
# no entity, tag or whitespace an XML parser would rewrite
_VAL = rb'"[^"<>&\t\n\r]*"'
_WB_ROOT_RE = re.compile(rb'(?:<\?xml [^<>]*\?>)?\s*<workbook [^<>]*\bxmlns:r="%s"' % re.escape(_R_NS.encode()))
_WB_SHEETS_RE = re.compile(rb"<sheets>((?:\s*<sheet [^<>]*/>)*)\s*</sheets>")
_WB_SHEET_RE = re.compile(rb"<sheet ([^<>]*)/>")
_WB_SHEET_TAG_RE = re.compile(rb"<sheet[\s/>]")
_ATTRS_RE = re.compile(rb"(?:\s*[\w:.-]+=%s)*\s*" % _VAL)
_ATTR_RE = re.compile(rb'([\w:.-]+)="([^"]*)"')
_RELS_RE = re.compile(
    rb'(?:<\?xml [^<>]*\?>)?\s*<Relationships xmlns="http://schemas\.openxmlformats\.org/package/2006/relationships">'
    rb"((?:\s*<Relationship Id=%s Type=%s Target=%s(?: TargetMode=%s)?/>)*)\s*</Relationships>\s*" % ((_VAL,) * 4)
)
_REL_RE = re.compile(rb'<Relationship Id="([^"]*)" Type="[^"]*" Target="([^"]*)"')


@functools.lru_cache(maxsize=64)
def _square_rows_re(width: int) -> re.Pattern:
    """``_ROWS_RE`` for rows of exactly columns A, B, C… up to ``width``."""
    return re.compile(r"(?:%s%s</row>)*+" % (_ROW, "".join(_CELL % c for c in _LETTERS[:width])))


def _col_index(letters: str) -> int:
    idx = 0
    for ch in letters:
        idx = idx * 26 + (ord(ch) - ord("A") + 1)
    return idx - 1


def _text(elem) -> str:
    return "".join(elem.itertext())


def _scan_relationships(wb: bytes, rels: bytes) -> tuple[list, dict] | None:
    """``_walk_relationships`` by regex over the plain layout, or None
    when either part holds anything else."""
    root = _WB_ROOT_RE.match(wb)
    sheets = _WB_SHEETS_RE.search(wb)
    listed = _RELS_RE.fullmatch(rels)
    if (
        root is None
        or sheets is None
        or listed is None
        # comments, CDATA, a DTD, entities, a rebound r: prefix, prefixed
        # sheet elements, an unclosed root
        or any(s in wb for s in (b"<!", b"&", b":sheet"))
        or wb.count(b"xmlns:r=") != 1
        or not wb.rstrip().endswith(b"</workbook>")
    ):
        return None
    tags = _WB_SHEET_RE.findall(sheets.group(1))
    if len(_WB_SHEET_TAG_RE.findall(wb)) != len(tags):
        return None  # a sheet element outside the <sheets> list
    rids = []
    for tag in tags:
        pairs = _ATTR_RE.findall(tag)
        attrs = dict(pairs)
        if not _ATTRS_RE.fullmatch(tag) or len(attrs) != len(pairs) or b"r:id" not in attrs:
            return None  # no r:id, or attributes a parser reads otherwise
        rids.append(attrs[b"r:id"])
    try:
        return [r.decode() for r in rids], {
            i.decode(): t.decode() for i, t in _REL_RE.findall(listed.group(1)) if t
        }
    except UnicodeDecodeError:
        return None


def _walk_relationships(wb: bytes, rels: bytes) -> tuple[list, dict]:
    """(each sheet's relationship id in workbook order, relationship id
    → non-empty target) by ElementTree."""
    rid_to_target = {r.get("Id"): r.get("Target") for r in ET.fromstring(rels) if r.get("Target")}
    sheets = ET.fromstring(wb).findall(".//{*}sheet")
    return [sheet.get(f"{{{_R_NS}}}id") for sheet in sheets], rid_to_target


_LOCAL_HEADER = struct.Struct(zipfile.structFileHeader)


def _member(zf: zipfile.ZipFile, data: bytes, name: str) -> bytes:
    """``zf.read(name)`` sliced straight out of the archive bytes for a
    stored or deflated, unencrypted member whose local header names it
    and whose size and CRC-32 check out; anything else is ``zf.read``'s
    to return or refuse."""
    info = zf.getinfo(name)
    at = info.header_offset
    head = data[at : at + _LOCAL_HEADER.size]
    if len(head) == _LOCAL_HEADER.size and not info.flag_bits & 0x61 and info.compress_type in (0, 8):
        magic, _v, _r, flags, *_rest, n_name, n_extra = _LOCAL_HEADER.unpack(head)
        at += _LOCAL_HEADER.size
        start = at + n_name + n_extra
        try:
            named = data[at : at + n_name].decode("utf-8" if flags & 0x800 else "cp437")
            body = data[start : start + info.compress_size]
            out = body if info.compress_type == 0 else zlib.decompress(body, -15)
        except (UnicodeDecodeError, zlib.error):
            named = out = None
        if (
            magic == zipfile.stringFileHeader
            and named == info.orig_filename
            and len(out) == info.file_size
            and zlib.crc32(out) == info.CRC
        ):
            return out
    return zf.read(name)


def _first_sheet_target(zf: zipfile.ZipFile, data: bytes) -> str:
    """First sheet's worksheet part of the archive ``data``, resolved
    through the workbook relationships (falls back to the
    lowest-numbered sheet part). Relative targets resolve from xl/,
    absolute ones ("/xl/...") from the package root."""
    try:
        wb = _member(zf, data, "xl/workbook.xml")
        rels = _member(zf, data, "xl/_rels/workbook.xml.rels")
        rids, rid_to_target = _scan_relationships(wb, rels) or _walk_relationships(wb, rels)
        for rid in rids:
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
    sheet = _member(zf, data, _first_sheet_target(zf, data))
    try:
        return sheet, _member(zf, data, "xl/sharedStrings.xml")
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
    if len(part.translate(None, _ODD_BYTES)) != len(part):
        return None
    try:
        text = part.decode("utf-8")
    except UnicodeDecodeError:
        return None
    # U+FFFE, U+FFFF, a stray CDATA end, a DTD (its entities and default
    # attributes are the parser's to apply)
    if any(s in text for s in ("\ufffe", "\uffff", "]]>", "<!DOCTYPE")):
        return None
    refs = _ENTITY_RE.findall(text) if "&" in text else []
    if text.count("&") != len(refs) or not all(
        _xml_char(int(d) if d else int(x, 16)) for _n, d, x in refs if d or x
    ):
        return None  # a DTD-defined or malformed entity, or a character XML rejects
    return text


def _scan_cells(sheet: bytes, sst: bytes | None) -> pa.ListArray | None:
    """The cells of the writer's canonical layout read by regex, or None
    when the parts hold anything else."""
    sheet_text = _plain(sheet)
    sst_text = "<sst></sst>" if sst is None else _plain(sst)
    if sheet_text is None or sst_text is None:
        return None
    data = _SHEET_DATA_RE.search(sheet_text)
    strings = _SST_RE.search(sst_text)
    if data is None or strings is None or not _SIS_RE.fullmatch(strings.group(1)):
        return None
    body = data.group(1)
    first = body.find("</row>")
    width = body.count("<c ", 0, first) if first >= 0 else 0
    if width <= len(_LETTERS) and _square_rows_re(width).fullmatch(body):
        counts = None
    elif not _ROWS_RE.fullmatch(body):
        return None
    else:  # "" per row start, the column letters per cell
        seq = _ROW_COL_RE.findall(body)
        starts = [i for i, x in enumerate(seq) if not x]
        counts = np.diff([*starts, len(seq)]) - 1
        width = int(counts.max())
        if width > len(_LETTERS) or seq != [x for c in counts for x in ("", *_LETTERS[:c])]:
            return None  # a gap or an out-of-order column ref
    outside = sheet_text[: data.start(1)] + sheet_text[data.end(1) :]
    if "<row" in outside or ":row" in outside:
        return None  # a row outside <sheetData>
    raw = _V_RE.findall(body)
    if "&" in body:
        raw = [_unescape(v) for v in raw]
    values = _resolve(raw, body, _shared_strings(strings.group(1)))
    if counts is None:
        n_rows = body.count("</row>")
        return pa.ListArray.from_arrays(pa.array(np.arange(n_rows + 1, dtype=np.int32) * width), values)
    offsets = pa.array(np.concatenate([[0], np.cumsum(counts)]).astype(np.int32))
    return dense_cells(pa.ListArray.from_arrays(offsets, values))


def _shared_strings(items: str) -> pa.Array:
    """The shared strings of a fullmatched ``<si><t>…</t></si>`` run."""
    if not items:
        return pa.array([], pa.string())
    if "&" in items:
        return pa.array([_unescape(t) for t in items[7:-9].split("</t></si><si><t>")], pa.string())
    return pc.list_flatten(pc.split_pattern(pa.array([items[7:-9]]), "</t></si><si><t>"))


def _resolve(raw: list[str], body: str, shared: pa.Array) -> pa.Array:
    """Cell values from the ``<v>`` texts (entities resolved): numbers
    and cached formula strings are their text, and shared-string cells
    resolve with one ``take`` of their indexes. Booleans, and an index
    that is not plain digits or is past the last string, go through
    ``_value`` cell by cell."""
    values = pa.array(raw, pa.string())
    # a value holds no "<", so only real cells match
    n_shared = body.count('t="s"><v>')
    if not n_shared and 'b"><v>' not in body:
        return values
    if n_shared == len(raw):
        kinds, is_s, idx = None, None, raw
    else:
        kinds = _TYPE_RE.findall(body)
        is_s = [k == "s" for k in kinds]
        idx = [v for v, s in zip(raw, is_s) if s]
    digits = "".join(idx)
    if (kinds is None or "b" not in kinds) and digits.isascii() and digits.isdigit() and "" not in idx:
        try:
            resolved = shared.take(pc.cast(values if is_s is None else pa.array(idx), pa.int64()))
        except (IndexError, pa.ArrowInvalid):  # past the last string, or past int64
            pass
        else:
            return resolved if is_s is None else pc.replace_with_mask(values, pa.array(is_s), resolved)
    kinds = kinds or _TYPE_RE.findall(body)
    strings = shared.to_pylist()
    return pa.array([_value(k or "n", v, strings) for k, v in zip(kinds, raw)], pa.string())


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


def read_xlsx_cells(data: bytes) -> pa.ListArray:
    """XLSX bytes → a ``Sheet``'s cells (first sheet): the regex scan
    when the parts are in the canonical layout, else the ElementTree
    walk."""
    sheet, sst = _parts(data)
    cells = _scan_cells(sheet, sst)
    return sheet_cells(_walk_rows(sheet, sst)) if cells is None else cells


def inspect_xlsx(
    data: bytes,
    sample_rows: int = 100,
    cells: pa.ListArray | None = None,
    output_profile: bool = False,
) -> dict:
    """Inspection report for XLSX bytes (a one-sheet batch, see
    stages/inspection.py ``inspect_sheet``). Pass ``cells`` (from
    read_xlsx_cells) to avoid a second XML parse."""
    if cells is None:
        cells = read_xlsx_cells(data)
    return inspect_sheet(Sheet(cells, "hydra-ray-xlsx"), sample_rows, output_profile)


def xlsx_to_table(
    data: bytes, inspection: dict | None = None, cells: pa.ListArray | None = None
) -> pa.Table:
    """XLSX bytes → typed Arrow table via the batched cast sweep.
    Pass ``cells`` to reuse an existing read_xlsx_cells result."""
    if cells is None:
        cells = read_xlsx_cells(data)
    return sheet_to_table(Sheet(cells, "hydra-ray-xlsx"), inspection)


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
