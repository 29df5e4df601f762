"""Catalog CSV ingest (S1).

The reference downloads the data.gouv.fr catalog CSV (``;``-separated,
dotted column names like ``dataset.id`` / ``resource.id``), skips
archived datasets, and upserts rows by resource_id
(cli/catalog.py:20-98, archived filter :58-59). Here the same shape:
``read_catalog_csv`` → rename/select → archived filter → the engine's
``load_catalog`` (canonicalize + URL-seen + merge).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.csv as pacsv

# reference catalog columns (cli/catalog.py:40-56) → our schema
_COLMAP = {
    "dataset.id": "dataset_id",
    "id": "resource_id",
    "url": "url",
    "type": "type",
    "format": "format",
    "title": "title",
    "dataset.archived": "archived",
    "harvest.modified_at": "harvest_modified_at",
}


def read_catalog_csv(path: str) -> pa.Table:
    """Parse a catalog CSV (``;``-separated) into canonical columns,
    dropping archived-dataset rows (M8: keep only archived == 'False')."""
    tbl = pacsv.read_csv(
        path,
        parse_options=pacsv.ParseOptions(delimiter=";"),
        convert_options=pacsv.ConvertOptions(strings_can_be_null=True),
    )
    cols: dict[str, pa.ChunkedArray] = {}
    for src, dst in _COLMAP.items():
        if src in tbl.column_names:
            cols[dst] = tbl[src]
    out = pa.table(cols)
    if "archived" in out.column_names:
        arch = out["archived"]
        if pa.types.is_boolean(arch.type):
            # pyarrow's CSV reader auto-parses True/False strings
            mask = pc.invert(pc.fill_null(arch, True))
        else:
            # reference semantics: keep rows where archived == "False"
            mask = pc.fill_null(pc.equal(pc.cast(arch, pa.string()), "False"), False)
        out = out.filter(mask).drop_columns(["archived"])
    if "harvest_modified_at" in out.column_names:
        try:
            out = out.set_column(
                out.column_names.index("harvest_modified_at"),
                "harvest_modified_at",
                pc.cast(out["harvest_modified_at"], pa.timestamp("us")),
            )
        except pa.ArrowInvalid:
            out = out.drop_columns(["harvest_modified_at"])
    return out


def load_catalog_from_csv(engine, path: str) -> int:
    """End-to-end S1: CSV file → engine catalog (returns row count)."""
    tbl = read_catalog_csv(path)
    return engine.load_catalog(tbl)
