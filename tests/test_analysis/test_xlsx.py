"""Stdlib XLSX reader: round-trip, CSV-twin parity, OOXML edge cases.

Reference behavior: utils/reader.py:19-70 + csv_like/__init__.py:161-217
(Excel resources feed the same inspection/cast pipeline as CSV).
"""

import io
import re
import zipfile

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.sources.xlsx import (
    _parts,
    _scan_cells,
    _scan_relationships,
    _walk_relationships,
    _walk_rows,
    inspect_xlsx,
    read_xlsx_cells,
    write_xlsx,
    xlsx_to_table,
)
from hydra_ray.stages.inspection import csv_text_to_table, sheet_cells


def test_roundtrip_types():
    rows = [
        ["id", "name", "score", "flag", "day"],
        [1, "alpha", 1.5, True, "2024-01-02"],
        [2, "beta", 2.0, False, "2024-02-03"],
    ]
    t = xlsx_to_table(write_xlsx(rows))
    assert t["id"].type == pa.int64()
    assert t["name"].type == pa.string()
    assert t["score"].type == pa.float64()
    assert t["flag"].type == pa.bool_()
    assert t["day"].type == pa.date32()
    assert t["score"].to_pylist() == [1.5, 2.0]
    assert t["flag"].to_pylist() == [True, False]


def test_xlsx_equals_csv_twin():
    """The same logical table via .xlsx and via CSV text must produce
    the identical typed Arrow table (shared inspection + cast path)."""
    header = ["id", "label", "value"]
    body = [[7, "x", 0.25], [8, "y z", 4.0], [9, "", 1.75]]
    xlsx_tbl = xlsx_to_table(write_xlsx([header] + body))
    csv_text = "id;label;value\n" + "\n".join(
        ";".join("" if c == "" else str(c) for c in r) for r in body
    )
    csv_tbl = csv_text_to_table(csv_text)
    assert xlsx_tbl.schema == csv_tbl.schema
    assert xlsx_tbl.equals(csv_tbl)


def test_sparse_cells_and_missing_refs():
    """Cells land by their A1 reference; gaps become empty strings."""
    sheet = (
        '<?xml version="1.0"?>'
        '<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
        "<sheetData>"
        '<row r="1"><c r="A1" t="inlineStr"><is><t>a</t></is></c>'
        '<c r="C1" t="inlineStr"><is><t>c</t></is></c></row>'
        '<row r="2"><c r="B2"><v>5</v></c></row>'
        "</sheetData></worksheet>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("xl/worksheets/sheet1.xml", sheet)
    rows = read_xlsx_cells(buf.getvalue()).to_pylist()
    assert rows == [["a", "", "c"], ["", "5", ""]]


def test_inspection_shape_matches_csv_report():
    insp = inspect_xlsx(write_xlsx([["a", "b"], [1, "x"], [2, "y"]]))
    assert insp["engine"] == "hydra-ray-xlsx"
    assert insp["header"] == ["a", "b"]
    assert insp["columns"]["a"]["python_type"] == "int"
    assert insp["columns"]["b"]["python_type"] == "string"
    assert insp["total_lines"] == 2
    assert set(insp) == {
        "header",
        "columns",
        "total_lines",
        "encoding",
        "separator",
        "header_row_idx",
        "engine",
    }


def test_reserved_column_rename_applies():
    t = xlsx_to_table(write_xlsx([["select", "v"], ["a", 1]]))
    assert "select__hydra_renamed" in t.column_names


def test_workbook_profile_matches_csv_twin():
    """output_profile parity: a workbook and its CSV twin produce the
    identical csv-detective profile (min/max/mean/std, tops, distinct,
    missing) and the same geo-format refinement."""
    from hydra_ray.sources.xlsx import inspect_xlsx, write_xlsx
    from hydra_ray.stages.inspection import inspect_csv_text

    rows = [
        ["id", "score", "pos", "note"],
        [1, 0.5, "[48.85, 2.35]", "ok"],
        [2, 1.25, "[43.6, 1.44]", ""],
        [3, 2.0, "[45.76, 4.83]", "ok"],
    ]
    def cell(c):
        if c == "":
            return ""
        if isinstance(c, float):
            return repr(c)
        s = str(c)
        return f'"{s}"' if "," in s else s

    csv_text = "\n".join(",".join(cell(c) for c in r) for r in rows)
    wb = inspect_xlsx(write_xlsx(rows), output_profile=True)
    cv = inspect_csv_text(csv_text, output_profile=True)
    assert wb["profile"] == cv["profile"]
    assert {k: v["python_type"] for k, v in wb["columns"].items()} == {
        k: v["python_type"] for k, v in cv["columns"].items()
    }
    assert wb["columns"]["pos"]["format"] == "latlon" == cv["columns"]["pos"]["format"]


# -- the canonical-layout scan against the ElementTree walk ------------------

_NS = "http://schemas.openxmlformats.org/spreadsheetml/2006/main"
_cells = st.one_of(
    st.text(
        st.characters(blacklist_categories=("Cs", "Cn", "Cc"))
        | st.sampled_from([",", '"', "&", "<", ">", "\n", "\r", "\t", " ", "é"]),
        max_size=8,
    ),
    st.sampled_from(["", " ", "  padded  ", "a,b", 'say "hi"', "1\n2", "x\r\ny", "&amp;"]),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)


def _walked(data: bytes) -> list[list[str]]:
    return sheet_cells(_walk_rows(*_parts(data))).to_pylist()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_cells, max_size=5), max_size=6))
def test_scan_equals_elementtree_walk(grid):
    """read_xlsx_cells (the regex scan where it applies) equals the
    ElementTree walk on every writer grid, as rows and as the cells
    array; grids without a carriage return are read by the scan
    itself."""
    data = write_xlsx(grid)
    walked = sheet_cells(_walk_rows(*_parts(data)))
    cells = read_xlsx_cells(data)
    assert cells.type == walked.type and cells.equals(walked)
    assert cells.to_pylist() == _walked(data)
    if not any("\r" in c for r in grid for c in r if isinstance(c, str)):
        scanned = _scan_cells(*_parts(data))
        assert scanned is not None and scanned.equals(walked)


def _pack(sheet_xml: str, sst_xml: str | None = None, target: str = "worksheets/sheet1.xml") -> bytes:
    """A minimal xlsx whose workbook points at ``target``."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr(
            "xl/workbook.xml",
            f'<workbook xmlns="{_NS}" xmlns:r="http://schemas.openxmlformats.org/'
            'officeDocument/2006/relationships"><sheets>'
            '<sheet name="S" sheetId="1" r:id="rId1"/></sheets></workbook>',
        )
        zf.writestr(
            "xl/_rels/workbook.xml.rels",
            '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
            f'<Relationship Id="rId1" Type="worksheet" Target="{target}"/></Relationships>',
        )
        zf.writestr("xl/worksheets/sheet1.xml", sheet_xml)
        if sst_xml is not None:
            zf.writestr("xl/sharedStrings.xml", sst_xml)
    return buf.getvalue()


def _sheet(rows_xml: str, prefix: str = "") -> str:
    p = f"{prefix}:" if prefix else ""
    ns = f"xmlns:{prefix}" if prefix else "xmlns"
    return f'<{p}worksheet {ns}="{_NS}"><{p}sheetData>{rows_xml}</{p}sheetData></{p}worksheet>'


_SST = f'<sst xmlns="{_NS}"><si><t>a</t></si><si><t>b</t></si></sst>'


@pytest.mark.parametrize(
    "sheet, sst, want",
    [
        (  # inline strings
            _sheet('<row r="1"><c r="A1" t="inlineStr"><is><t>x</t></is></c>'
                   '<c r="B1"><v>2</v></c></row>'),
            None,
            [["x", "2"]],
        ),
        (  # sparse refs: A1, C1
            _sheet('<row r="1"><c r="A1" t="s"><v>0</v></c><c r="C1" t="s"><v>1</v></c></row>'),
            _SST,
            [["a", "", "b"]],
        ),
        (  # rich-text runs in a shared string
            _sheet('<row r="1"><c r="A1" t="s"><v>0</v></c></row>'),
            f'<sst xmlns="{_NS}"><si><r><t>ri</t></r><r><rPr/><t>ch</t></r></si></sst>',
            [["rich"]],
        ),
        (  # xml:space="preserve"
            _sheet('<row r="1"><c r="A1" t="s"><v>0</v></c></row>'),
            f'<sst xmlns="{_NS}"><si><t xml:space="preserve"> a </t></si></sst>',
            [[" a "]],
        ),
        (  # a prefixed namespace throughout
            _sheet('<x:row r="1"><x:c r="A1" t="s"><x:v>1</x:v></x:c>'
                   '<x:c r="B1" t="b"><x:v>1</x:v></x:c></x:row>', prefix="x"),
            f'<x:sst xmlns:x="{_NS}"><x:si><x:t>a</x:t></x:si><x:si><x:t>b</x:t></x:si></x:sst>',
            [["b", "true"]],
        ),
        (  # a DTD whose default attribute makes every cell a bool
            '<!DOCTYPE worksheet [<!ATTLIST c t CDATA "b">]>'
            + _sheet('<row r="1"><c r="A1"><v>1</v></c></row>'),
            None,
            [["true"]],
        ),
    ],
    ids=["inlineStr", "sparse", "rich_text", "space_preserve", "prefixed", "dtd_default"],
)
def test_non_canonical_sheets_fall_back(sheet, sst, want):
    data = _pack(sheet, sst)
    assert _scan_cells(*_parts(data)) is None
    assert read_xlsx_cells(data).to_pylist() == want == _walked(data)


@pytest.mark.parametrize("index", [" 1", "01", "1_0", "0x1", "-1", "", "2", "99999999999999999999"])
def test_shared_string_index_reads_as_int_reads_it(index):
    """A shared-string index the take cannot read as plain digits goes
    cell by cell, so the scan reads each cell (or fails) as the
    ElementTree walk does."""
    data = _pack(
        _sheet(f'<row r="1"><c r="A1" t="s"><v>{index}</v></c><c r="B1" t="s"><v>0</v></c></row>'),
        _SST,
    )
    try:
        want = _walked(data)
    except (ValueError, IndexError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _scan_cells(*_parts(data))
    else:
        assert _scan_cells(*_parts(data)).to_pylist() == want


def test_absolute_relationship_target():
    """An OPC-legal absolute Target ("/xl/...") resolves from the
    package root, and the scan reads that part."""
    data = _pack(
        _sheet('<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1"><v>7</v></c></row>'),
        _SST,
        target="/xl/worksheets/sheet1.xml",
    )
    assert _scan_cells(*_parts(data)).to_pylist() == [["a", "7"]]
    assert read_xlsx_cells(data).to_pylist() == [["a", "7"]]


_R = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"
_WB = f'<workbook xmlns="{_NS}" xmlns:r="{_R}"><sheets>%s</sheets></workbook>'
_RELS = '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">%s</Relationships>'
_REL2 = '<Relationship Id="rId1" Type="worksheet" Target="worksheets/sheet2.xml"/>'
_S1 = '<sheet name="S" sheetId="1" r:id="rId1"/>'


def _pack_book(workbook: str, rels: str) -> bytes:
    """An xlsx with two sheet parts, "one" in sheet1 and "two" in sheet2."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("xl/workbook.xml", workbook)
        zf.writestr("xl/_rels/workbook.xml.rels", rels)
        for i, word in ((1, "one"), (2, "two")):
            zf.writestr(f"xl/worksheets/sheet{i}.xml", _sheet(f'<row r="1"><c r="A1" t="str"><v>{word}</v></c></row>'))
    return buf.getvalue()


@pytest.mark.parametrize(
    "workbook, rels, canonical",
    [
        (_WB % _S1, _RELS % _REL2, True),
        (  # an empty target, then the same id again: the last non-empty one wins
            _WB % _S1,
            _RELS % ('<Relationship Id="rId1" Type="w" Target=""/>' + _REL2),
            True,
        ),
        (  # a sheet with no relationship id is skipped
            _WB % ('<sheet name="A" sheetId="1"/><sheet name="B" sheetId="2" r:id="rId1"/>'),
            _RELS % _REL2,
            False,
        ),
        (_WB % _S1, _RELS % _REL2.replace('"', "'"), False),  # single-quoted attributes
        (  # Target before Id
            _WB % _S1,
            _RELS % '<Relationship Target="worksheets/sheet2.xml" Id="rId1" Type="w"/>',
            False,
        ),
        (_WB % _S1, _RELS % _REL2.replace("sheet2", "sheet&#50;"), False),  # an entity
        (_WB % _S1, _RELS % ("<!-- a note -->" + _REL2), False),  # a comment
        (  # a prefixed relationships part
            _WB % _S1,
            '<p:Relationships xmlns:p="http://schemas.openxmlformats.org/package/2006/relationships">'
            + _REL2.replace("<Relationship", "<p:Relationship")
            + "</p:Relationships>",
            False,
        ),
        (  # a commented-out first sheet in the workbook
            _WB % ('<!-- <sheet name="old" sheetId="9" r:id="rId9"/> -->' + _S1),
            _RELS % (_REL2 + '<Relationship Id="rId9" Type="w" Target="worksheets/sheet1.xml"/>'),
            False,
        ),
        (  # the relationships namespace under a second prefix
            _WB.replace('xmlns:r=', f'xmlns:rel="{_R}" xmlns:r=') % '<sheet name="S" sheetId="1" rel:id="rId1"/>',
            _RELS % _REL2,
            False,
        ),
    ],
    ids=[
        "plain", "empty_then_set", "no_rid", "single_quotes", "attr_order", "entity",
        "comment", "prefixed_rels", "commented_sheet", "second_prefix",
    ],
)
def test_non_canonical_relationships_fall_back(workbook, rels, canonical):
    """The sheet target comes from the regex read of a plain workbook
    and relationships part, and from the ElementTree resolver for
    anything else; both name sheet2 here."""
    wb, rl = workbook.encode(), rels.encode()
    scanned = _scan_relationships(wb, rl)
    assert (scanned is not None) == canonical
    if canonical:
        assert scanned == _walk_relationships(wb, rl)
    assert read_xlsx_cells(_pack_book(workbook, rels)).to_pylist() == [["two"]]


@pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED])
def test_members_read_as_zipfile_reads_them(compression):
    """Parts sliced out of the archive bytes equal ``ZipFile.read``, for
    stored and deflated members; a member whose bytes fail its CRC-32
    raises what ``ZipFile.read`` raises."""
    from hydra_ray.sources.xlsx import _member

    grid = [["id", "name"], [1, "alpha"], [2, "b\u00e9ta"]]
    src = zipfile.ZipFile(io.BytesIO(write_xlsx(grid)))
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression) as zf:
        for name in src.namelist():
            zf.writestr(name, src.read(name))
    data = buf.getvalue()
    zf = zipfile.ZipFile(io.BytesIO(data))
    assert all(_member(zf, data, n) == zf.read(n) for n in zf.namelist())
    assert read_xlsx_cells(data).to_pylist() == [["id", "name"], ["1", "alpha"], ["2", "b\u00e9ta"]]

    info = zf.getinfo("xl/sharedStrings.xml")
    at = info.header_offset + 30 + len(info.filename) + len(info.extra) + info.compress_size // 2
    bad = data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]
    zf = zipfile.ZipFile(io.BytesIO(bad))
    with pytest.raises(Exception) as want:
        zf.read("xl/sharedStrings.xml")
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        _member(zf, bad, "xl/sharedStrings.xml")


@pytest.mark.parametrize("writer", ["xlsx", "xls", "ods"])
def test_workbook_writers_ignore_the_wall_clock(writer, monkeypatch):
    """The synthetic web serves these bytes and the crawl checksums them,
    so the same rows must give the same bytes at any time of day."""
    import time
    import types

    from hydra_ray.sources.ods import write_ods
    from hydra_ray.sources.xls import write_xls

    write = {"xlsx": write_xlsx, "xls": write_xls, "ods": write_ods}[writer]
    rows = [["id", "name"], ["1", "alpha"], ["2", "beta"]]
    first = write(rows)
    # zipfile stamps a string-named entry with time.localtime(time.time())
    later = types.SimpleNamespace(time=lambda: time.time() + 86_400 + 7, localtime=time.localtime)
    monkeypatch.setattr(zipfile, "time", later)
    assert write(rows) == first
