"""The CLI's timestamp labels as they stood before ingest kept the CSV's
timestamp text: ``_timestamp_labels``, copied verbatim from year 1000 on.
Below it the copy wrote ``strftime``'s year, which is not zero-padded on
every platform; this one writes every field zero-padded, without
``isoformat``.

``test_cli``'s label differential pins ``cli._timestamp_labels`` to this
copy, on loaded CSVs and on datasets built in code.
"""

from __future__ import annotations


def _timestamp_labels(dataset) -> list[str]:
    """Each step's timestamp as TIMESTAMP_FORMAT reads it. From year 1000
    on, isoformat's first 19 characters are those fields, and cheaper; below
    it, the fields are written zero-padded."""
    return [
        t.isoformat()[:19] + "Z"
        if t.year >= 1000
        else f"{t.year:04d}-{t.month:02d}-{t.day:02d}T{t.hour:02d}:{t.minute:02d}:{t.second:02d}Z"
        for t in dataset.timestamps
    ]
