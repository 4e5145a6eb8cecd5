"""The CLI's record encoder as it stood before output became columnar:
``_fmt`` and ``_emit``, copied verbatim.

``test_cli``'s emission differential pins ``cli._emit`` to this copy, byte
for byte in both formats and message for message on non-finite values.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

from gridcarbon.errors import GridCarbonError


def _fmt(value):
    """Floats at 6 significant digits; everything else unchanged."""
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return float(format(value, ".6g"))


def _emit(records: list[dict], fmt: str, out: str) -> None:
    for record in records:
        for key, value in record.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise GridCarbonError(f"{key} is {value}, which the output cannot represent")
    buffer = io.StringIO()
    if fmt == "json-records":
        for record in records:
            buffer.write(json.dumps({k: _fmt(v) for k, v in record.items()}))
            buffer.write("\n")
    else:
        columns: list[str] = []
        for record in records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        writer = csv.DictWriter(buffer, fieldnames=columns, restval="")
        writer.writeheader()
        for record in records:
            writer.writerow(
                {k: (format(v, ".6g") if isinstance(v, float) else v) for k, v in record.items()}
            )
    text = buffer.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
