"""Inspection / casting parity (reference csv-detective integration,
utils/casting.py, db/__init__.py, parquet inspect)."""

from datetime import date, datetime

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydra_ray.sources.ods import inspect_ods, ods_to_table, write_ods
from hydra_ray.sources.xls import inspect_xls, write_xls, xls_to_table
from hydra_ray.sources.xlsx import inspect_xlsx, write_xlsx, xlsx_to_table
from hydra_ray.stages.inspection import (
    cell_type,
    csv_text_to_table,
    db_col_name,
    detect_separator,
    inspect_csv_text,
    inspect_parquet,
    smart_cast,
    validate_then_detect,
)

CSV = """id;name;price;active;created;location
1;alpha;1.5;true;2024-01-01;"[48.85, 2.35]"
2;beta;2.25;false;2024-02-03;"[43.6, 1.44]"
3;gamma;10;true;2024-03-04;"[45.76, 4.83]"
"""


def test_separator_detection():
    assert detect_separator(CSV.splitlines()) == ";"
    assert detect_separator(["a,b,c", "1,2,3"]) == ","
    assert detect_separator(["a\tb", "1\t2"]) == "\t"


@pytest.mark.parametrize(
    "value,expected",
    [
        ("12", "int"),
        ("-3", "int"),
        ("1.5", "float"),
        ("1,5", "float"),
        ("true", "bool"),
        ("oui", "bool"),
        ("2024-01-02", "date"),
        ("01/02/2024", "date"),
        ("2024-01-02T10:00:00", "datetime"),
        ('{"a": 1}', "json"),
        ("[1, 2]", "json"),
        ("hello", "string"),
        ("", "empty"),
    ],
)
def test_cell_type(value, expected):
    assert cell_type(value) == expected


def test_inspection_report():
    insp = inspect_csv_text(CSV)
    assert insp["separator"] == ";"
    assert insp["total_lines"] == 3
    assert insp["header"] == ["id", "name", "price", "active", "created", "location"]
    cols = insp["columns"]
    assert cols["id"]["python_type"] == "int"
    assert cols["name"]["python_type"] == "string"
    assert cols["price"]["python_type"] == "float"  # int widened to float
    assert cols["active"]["python_type"] == "bool"
    assert cols["created"]["python_type"] == "date"
    assert cols["location"]["format"] == "latlon"  # geo refinement


def test_reserved_column_rename():
    assert db_col_name("select") == "select__hydra_renamed"
    assert db_col_name("normal") == "normal"
    assert len(db_col_name("x" * 100)) == 63


@pytest.mark.parametrize(
    "ptype,value,expected",
    [
        ("int", "42", 42),
        ("int", "", None),
        ("int", "abc", None),
        ("float", "1,5", 1.5),
        ("bool", "oui", True),
        ("bool", "non", False),
        ("date", "2024-01-02", date(2024, 1, 2)),
        ("date", "02/01/2024", date(2024, 1, 2)),
        ("datetime", "2024-01-02T10:30:00", datetime(2024, 1, 2, 10, 30)),
        ("json", '{"a": 1}', '{"a": 1}'),
        ("string", " keep spaces ", " keep spaces "),
    ],
)
def test_smart_cast(ptype, value, expected):
    assert smart_cast(ptype, value) == expected


def test_csv_to_typed_table():
    t = csv_text_to_table(CSV)
    assert t.num_rows == 3
    assert t["id"].type == pa.int64()
    assert t["price"].type == pa.float64()
    assert t["active"].type == pa.bool_()
    assert t["price"].to_pylist() == [1.5, 2.25, 10.0]


def test_validate_then_detect_fast_path():
    insp, reused = validate_then_detect(CSV, None)
    assert not reused
    insp2, reused2 = validate_then_detect(CSV, insp)
    assert reused2 and insp2 is insp
    changed = CSV.replace("id;name", "key;name")
    _, reused3 = validate_then_detect(changed, insp)
    assert not reused3


def test_inspect_parquet(tmp_path):
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "a": pa.array([1], type=pa.int32()),
            "b": pa.array([{"x": 1}], type=pa.struct([("x", pa.int64())])),
            "c": pa.array([datetime(2024, 1, 1)], type=pa.timestamp("us", tz="UTC")),
            "d": pa.array([[1.0]], type=pa.list_(pa.float64())),
        }
    )
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)
    insp = inspect_parquet(path)
    assert insp["columns"]["a"]["python_type"] == "int"
    assert insp["columns"]["b"]["python_type"] == "json"
    assert insp["columns"]["c"]["python_type"] == "datetime_aware"
    assert insp["columns"]["d"]["python_type"] == "json"
    assert insp["total_lines"] == 1


def test_profile_output():
    """csv-detective output_profile parity: numeric stats, tops,
    distinct/missing counts over the full body."""
    from hydra_ray.stages.inspection import inspect_csv_text

    text = "a;b\n1;x\n2;y\n3;x\n;x\n3;z\n"
    rep = inspect_csv_text(text, output_profile=True)
    assert rep["columns"]["a"]["python_type"] == "int"
    pa_ = rep["profile"]["a"]
    assert pa_["min"] == 1.0 and pa_["max"] == 3.0
    assert pa_["mean"] == 2.25 and pa_["std"] > 0
    assert pa_["nb_missing_values"] == 1  # the empty cell
    assert pa_["nb_distinct"] == 3
    pb = rep["profile"]["b"]
    assert pb["nb_distinct"] == 3 and pb["nb_missing_values"] == 0
    assert pb["tops"][0] == {"value": "x", "count": 3}
    assert "min" not in pb  # numeric stats only for numeric columns


def test_encoding_detection():
    from hydra_ray.stages.inspection import detect_encoding, inspect_csv_bytes

    assert detect_encoding("a;b\n1;é\n".encode("utf-8")) == "utf-8"
    assert detect_encoding(b"\xef\xbb\xbfa;b\n") == "utf-8-sig"
    assert detect_encoding("a;b\n1;é\n".encode("latin-1")) == "latin-1"
    rep = inspect_csv_bytes("x;y\n1;caf\xe9\n2;th\xe9\n".encode("latin-1"))
    assert rep["encoding"] == "latin-1"
    assert rep["columns"]["x"]["python_type"] == "int"


def test_inspect_csv_bytes_gunzips():
    """.csv.gz bytes inspect identically to their plain twin (reference
    utils/file.py gzip handling)."""
    import gzip

    from hydra_ray.stages.inspection import inspect_csv_bytes

    raw = "a;b\n1;x\n2;y\n".encode("utf-8")
    plain = inspect_csv_bytes(raw)
    gz = inspect_csv_bytes(gzip.compress(raw))
    assert gz["header"] == plain["header"] == ["a", "b"]
    assert gz["columns"] == plain["columns"]
    assert gz["total_lines"] == plain["total_lines"] == 2


def test_vectorized_type_vote_parity():
    """The Arrow-kernel type classifier and vote fold are bit-identical
    to the per-cell Python path (round-3 verdict item 1), including
    Unicode digits, control whitespace, json candidates and widening."""
    import random

    from hydra_ray.stages.inspection import (
        _classify_cells,
        _detect_types_py,
        _TYPE_NAMES,
        cell_type,
        detect_types_many,
    )
    import pyarrow as pa

    pool = [
        "12", "-3", "+7", "007", "1.5", "1,5", ".5", "1e5", "+2.5E-3",
        "true", "FALSE", "oui", "Non", "2024-01-02", "31/04/2021",
        "02/01/2024", "2024-02-30", "2024-01-02T10:30:00", "2024-01-02 10:30",
        '{"a": 1}', "[1, 2]", "{bad json", "hello", " spaced ", "", "   ",
        "1_0", "inf", "20240102", "1/2/2024", "٣٤", "éàç",
        "item-42", "2024-01-02T10:30:00+02:00", "x\x1cy", "\x1c", "0", "1",
    ]
    rng = random.Random(11)
    cells = [rng.choice(pool) for _ in range(2000)]
    codes = _classify_cells(pa.array(cells, pa.string()))
    assert [_TYPE_NAMES[c] for c in codes] == [cell_type(v) for v in cells]
    items = []
    for _ in range(40):
        nc = rng.randint(1, 5)
        items.append(
            ([[rng.choice(pool) for _ in range(rng.randint(0, nc + 2))]
              for _ in range(rng.randint(0, 30))], nc)
        )
    assert detect_types_many(items) == [_detect_types_py(r, n) for r, n in items]


def test_vectorized_cast_parity():
    """csv_texts_to_tables (grouped kernel casts) equals the per-cell
    smart_cast path cell-for-cell on unquoted rectangular CSV, and the
    quoted/ragged fallbacks agree too."""
    import random

    from hydra_ray.stages.inspection import (
        csv_text_to_table,
        csv_texts_to_tables,
        inspect_csv_text,
        inspect_csv_texts_batch,
        smart_cast,
        _parse_csv_line,
        db_col_name,
        _PA_TYPE,
    )
    import pyarrow as pa

    pool = [
        "12", "-3", "007", "1.5", "1,5", "1e5", "true", "oui", "Non",
        "2024-01-02", "31/04/2021", "02/01/2024", "2024-01-02T10:30:00",
        "2024-01-02 10:30", "[1, 2]", "hello", " spaced ", "", "éàç",
        "1_0", "20240102", "2024-01-02T10:30:00+02:00",
    ]
    rng = random.Random(13)
    texts = []
    for _ in range(25):
        nc = rng.randint(1, 4)
        hdr = ";".join(f"c{i}" for i in range(nc))
        rows = [";".join(rng.choice(pool) for _ in range(nc)) for _ in range(rng.randint(1, 25))]
        texts.append("\n".join([hdr] + rows))
    texts.append('a;b\n"x;1";2\n"y";3')  # quoted → python fallback
    texts.append("a;b\n1;2;3\n4;5")  # ragged → python fallback
    insps = inspect_csv_texts_batch(texts)
    assert [
        __import__("json").dumps(i, sort_keys=True) for i in insps
    ] == [__import__("json").dumps(inspect_csv_text(t), sort_keys=True) for t in texts]
    batch = csv_texts_to_tables(texts, insps)
    for text, insp, got in zip(texts, insps, batch):
        # reference: raw per-cell smart_cast fold
        sep = insp["separator"]
        lines = [line for line in text.splitlines() if line.strip()]
        names = [db_col_name(h) for h in insp["header"]]
        ptypes = [insp["columns"][c]["python_type"] for c in names]
        cols = [[] for _ in names]
        for line in lines[1:]:
            cs = _parse_csv_line(line, sep)
            for c in range(len(names)):
                cols[c].append(smart_cast(ptypes[c], cs[c] if c < len(cs) else None))
        want = pa.table(dict(zip(names, [pa.array(col, type=_PA_TYPE[pt]) for col, pt in zip(cols, ptypes)])))
        assert got.schema == want.schema and got.equals(want)
        single = csv_text_to_table(text, insp)
        assert single.equals(want)


def test_batched_inspection_fuzz_parity():
    """The Arrow-sweep batched inspection (separator-group split +
    global bincount vote + gated geo refinement) equals the
    per-resource inspect_csv_text path on an adversarial corpus: all
    four separators, quoted cells, ragged rows, blank lines, empty
    bodies, latlon / geojson columns, non-ASCII cells."""
    import json
    import random

    from hydra_ray.stages.inspection import inspect_csv_text, inspect_csv_texts_batch

    rng = random.Random(7)

    def mk():
        sep = rng.choice([",", ";", "\t", "|"])
        cols = rng.randint(1, 6)
        hdr = sep.join(f"col{c}" for c in range(cols))
        rows = []
        for _ in range(rng.randint(0, 120)):
            cells = []
            for _c in range(cols):
                t = rng.random()
                if t < 0.2:
                    cells.append(str(rng.randint(-5000, 5000)))
                elif t < 0.35:
                    cells.append(f"{rng.uniform(-10, 10):.3f}")
                elif t < 0.45:
                    cells.append(rng.choice(["true", "false", "oui", "non"]))
                elif t < 0.55:
                    cells.append("2024-05-0%d" % rng.randint(1, 9))
                elif t < 0.6:
                    cells.append(
                        "[%.2f, %.2f]" % (rng.uniform(-90, 90), rng.uniform(-180, 180))
                    )
                elif t < 0.65:
                    cells.append('{"type": "Point", "coordinates": [1, 2]}')
                elif t < 0.7:
                    cells.append("")
                elif t < 0.75 and rng.random() < 0.5:
                    cells.append('"quoted%s cell"' % sep)
                elif t < 0.78:
                    cells.append("café- %d" % rng.randint(0, 99))
                else:
                    cells.append("item-%d" % rng.randint(0, 999))
            if rng.random() < 0.1:
                cells = cells[: max(1, cols - 1)]
            if rng.random() < 0.05:
                cells = cells + ["extra"]
            rows.append(sep.join(cells))
        lines = [hdr] + rows
        if rng.random() < 0.3:
            lines.insert(min(2, len(lines)), "")
        return "\n".join(lines)

    texts = [mk() for _ in range(200)]
    batch = inspect_csv_texts_batch(texts)
    single = [inspect_csv_text(t) for t in texts]
    for a, b in zip(batch, single):
        assert json.dumps(a, sort_keys=True, default=str) == json.dumps(
            b, sort_keys=True, default=str
        )


# -- workbook sheets in the batched sweep ------------------------------------

WORKBOOK_ROUTES = {
    "xlsx": (write_xlsx, inspect_xlsx, xlsx_to_table),
    "xls": (write_xls, inspect_xls, xls_to_table),
    "ods": (write_ods, inspect_ods, ods_to_table),
}

_twin_cell = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6),
    st.integers(min_value=-4000, max_value=4000).map(lambda k: k / 4 + 0.125),
    st.booleans(),
    st.sampled_from(["2024-01-02", "31/12/2023", "2024-01-02 10:30", "[1, 2]", "oui", ""]),
    # no separator, quote or line break: the CSV twin keeps one cell per
    # cell; BMP only, as the .xls writer counts characters, not UTF-16 units
    st.text(
        st.characters(
            max_codepoint=0xFFFF,
            blacklist_categories=("Cs", "Cn", "Cc", "Zl", "Zp"),
            blacklist_characters=';,|"',
        ),
        max_size=6,
    ),
)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(min_value=0, max_value=999), st.lists(_twin_cell, min_size=n - 1, max_size=n - 1)),
            max_size=8,
        ).map(lambda body: (n, body))
    )
)
def test_workbooks_equal_csv_twin(shape):
    """xlsx, xls and ods each give their CSV twin's typed table, and its
    inspection apart from encoding, separator and engine."""
    n, body = shape
    grid = [[f"c{i}" for i in range(n)]] + [[k, *rest] for k, rest in body]
    text = "\n".join(";".join(_csv_cell(v) for v in row) for row in grid)
    want_tbl = csv_text_to_table(text)
    want = inspect_csv_text(text)
    for fmt, (write, inspect, to_table) in WORKBOOK_ROUTES.items():
        blob = write(grid)
        tbl = to_table(blob)
        assert tbl.schema == want_tbl.schema and tbl.equals(want_tbl), fmt
        got = inspect(blob)
        assert got["engine"] == f"hydra-ray-{fmt}" and got["encoding"] == "binary"
        assert got["separator"] is None
        drop = ("encoding", "separator", "engine")
        assert {k: v for k, v in got.items() if k not in drop} == {
            k: v for k, v in want.items() if k not in drop
        }, fmt


def test_workbook_cells_stay_single_and_blank_rows_drop():
    """A workbook cell holding a comma, a quote or a newline is one cell
    (no separator join), and a row whose cells all strip to empty is
    neither a body row nor counted."""
    grid = [["a", "b"], ["x,y", 'say "hi"'], ["", "  "], ["1\n2", "z;w"], [" ", ""]]
    for fmt, (write, inspect, to_table) in WORKBOOK_ROUTES.items():
        blob = write(grid)
        tbl = to_table(blob)
        assert tbl.to_pydict() == {"a": ["x,y", "1\n2"], "b": ['say "hi"', "z;w"]}, fmt
        assert inspect(blob)["total_lines"] == 2


def test_one_sweep_mixes_csv_and_sheets():
    """One inspect_csv_texts_batch / csv_texts_to_tables call over CSV
    texts and sheets equals each item run alone."""
    from hydra_ray.sources.xlsx import read_xlsx_rows
    from hydra_ray.stages.inspection import (
        Sheet,
        csv_texts_to_tables,
        inspect_csv_texts_batch,
        inspect_sheet,
        sheet_to_table,
    )

    sheet = Sheet(read_xlsx_rows(write_xlsx([["id", "v"], [1, 0.5], [2, "x,y"]])), "hydra-ray-xlsx")
    items = ["id,v\n1,0.5\n2,3", sheet, "id;v\n1;a\n2;b", Sheet([], "hydra-ray-ods"), CSV]
    insps = inspect_csv_texts_batch(items)
    tables = csv_texts_to_tables(items, insps)
    for item, insp, tbl in zip(items, insps, tables):
        if isinstance(item, Sheet):
            assert insp == inspect_sheet(item)
            assert tbl.equals(sheet_to_table(item))
        else:
            assert insp == inspect_csv_text(item)
            assert tbl.equals(csv_text_to_table(item))
    assert tables[1].to_pydict() == {"id": [1, 2], "v": ["0.5", "x,y"]}
