"""Arrow types and table helpers shared across stages.

``SPAN_STRUCT`` is one element of the interleaved documents table's
``spans`` list (BASELINE.json ``input_hint``): a text or media span
and its offset.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)


def column(table: pa.Table, name: str) -> pa.Array:
    """One column of ``table`` as a single array."""
    return table[name].combine_chunks()


def with_columns(table: pa.Table, columns: dict, drop=()) -> pa.Table:
    """``table`` with ``columns`` set and ``drop`` left out: a column of
    the same name is replaced, the others appended in order. One table
    build, where a drop + append per column rebuilds the table every
    time."""
    names = table.column_names
    keep = [i for i, name in enumerate(names) if name not in columns and name not in drop]
    return pa.Table.from_arrays(
        [table.column(i) for i in keep] + list(columns.values()),
        names=[names[i] for i in keep] + list(columns),
    )


def strings(col) -> list:
    """A string column as a list of ``str`` / None (through numpy, which
    is many times quicker than ``to_pylist`` for strings)."""
    return col.to_numpy(zero_copy_only=False).tolist()
