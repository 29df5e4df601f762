"""Arrow types shared across stages.

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
