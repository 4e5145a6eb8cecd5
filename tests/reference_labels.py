"""The CLI's timestamp labels as they stood before ingest kept the CSV's
timestamp text: ``_timestamp_labels``, copied verbatim.

``test_cli``'s label differential pins ``cli._timestamp_labels`` to this
copy, on loaded CSVs and on datasets built in code.
"""

from __future__ import annotations

from gridcarbon.ingest import TIMESTAMP_FORMAT


def _timestamp_labels(dataset) -> list[str]:
    """Each step's timestamp as TIMESTAMP_FORMAT writes it. From year 1000
    on, isoformat's first 19 characters are those fields, and cheaper (below
    it, strftime does not pad the year on every platform)."""
    return [
        t.isoformat()[:19] + "Z" if t.year >= 1000 else t.strftime(TIMESTAMP_FORMAT)
        for t in dataset.timestamps
    ]
