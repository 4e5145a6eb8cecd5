"""CSV ingestion for hourly per-source generation data.

The expected layout follows public grid-data exports: one row per hour,
a ``timestamp`` column (UTC, ``YYYY-MM-DDTHH:00:00Z``), one column per
source category with generation in MWh, and optionally a
``ci_g_per_kwh`` column carrying the operator's published carbon
intensity. Columns that are not recognized source categories are
ignored with a warning.

Missing generation cells are handled by a fill policy: ``drop-row``
(default) discards the whole row, ``zero-fill`` substitutes 0.0; both
are counted in the load summary. ``strict=True`` additionally rejects
datasets whose remaining timestamps are not evenly spaced.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import GapError, ParseError, SchemaError
from .factors import SOURCE_CATEGORIES
from .grid import GridMix

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
TIMESTAMP_COLUMN = "timestamp"
PUBLISHED_CI_COLUMN = "ci_g_per_kwh"

FILL_POLICIES = ("drop-row", "zero-fill")
BASES = ("cef", "published")


@dataclass(frozen=True)
class LoadSummary:
    """Bookkeeping from one CSV load."""

    rows_read: int
    rows_kept: int
    rows_dropped: int
    cells_filled: int
    ignored_columns: tuple[str, ...]


@dataclass(frozen=True)
class RegionDataset:
    """An ordered series of grid mixes for one region.

    Timestamps must be present and strictly increasing. Even spacing is
    not enforced, as drop-row loading can leave gaps; see :attr:`is_uniform`.

    ``published_ci`` is the operator's own carbon-intensity signal,
    aligned step-for-step with the mixes when present.
    """

    region: str
    mixes: tuple[GridMix, ...]
    published_ci: tuple[float, ...] | None = None
    summary: LoadSummary | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mixes", tuple(self.mixes))
        previous: datetime | None = None
        for i, mix in enumerate(self.mixes):
            if mix.region != self.region:
                raise ValueError(f"step {i} has region {mix.region!r}, expected {self.region!r}")
            if mix.timestamp is None:
                raise ValueError(f"step {i} is missing a timestamp")
            if previous is not None and mix.timestamp <= previous:
                raise ValueError(f"timestamps must be strictly increasing (step {i})")
            previous = mix.timestamp
        if self.published_ci is not None:
            object.__setattr__(self, "published_ci", tuple(self.published_ci))
            if len(self.published_ci) != len(self.mixes):
                raise ValueError(
                    f"published_ci has {len(self.published_ci)} values "
                    f"for {len(self.mixes)} series steps"
                )

    def __len__(self) -> int:
        return len(self.mixes)

    @property
    def is_uniform(self) -> bool:
        """True when consecutive timestamps are evenly spaced."""
        if len(self.mixes) < 2:
            return True
        deltas = {
            self.mixes[i + 1].timestamp - self.mixes[i].timestamp
            for i in range(len(self.mixes) - 1)
        }
        return len(deltas) == 1


def check_basis(dataset: RegionDataset, basis: str) -> None:
    """Raise ValueError for an unknown basis, or "published" without that series."""
    if basis not in BASES:
        raise ValueError(f"basis must be 'cef' or 'published', got {basis!r}")
    if basis == "published" and dataset.published_ci is None:
        raise ValueError(f"dataset for region {dataset.region!r} has no published CI series")


def _parse_timestamp(raw: str, row: int) -> datetime:
    try:
        return datetime.strptime(raw, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError:
        raise ParseError(
            f"invalid timestamp {raw!r} (expected YYYY-MM-DDTHH:00:00Z)",
            row=row,
            column=TIMESTAMP_COLUMN,
        ) from None


def _parse_cell(raw: str, row: int, column: str, minimum: float | None = 0.0) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"invalid number {raw!r}", row=row, column=column) from None
    if value != value:
        raise ParseError("NaN is not a valid value", row=row, column=column)
    if math.isinf(value):
        raise ParseError(f"value must be finite, got {value}", row=row, column=column)
    if minimum is not None and value < minimum:
        raise ParseError(f"value must be >= {minimum}, got {value}", row=row, column=column)
    return value


_Row = tuple[datetime, dict[str, float], float | None]


def _read_csv(
    path: Path, fill_policy: str, bare_signal: bool = False
) -> tuple[list[_Row], bool, LoadSummary] | None:
    """Read a CSV under the header and row checks every layout shares.

    Returns the kept rows as (timestamp, generation, published CI) in
    timestamp order, whether the published CI column is present, and the
    load summary. With ``bare_signal`` the header must hold only
    ``timestamp`` and ``ci_g_per_kwh`` (``None`` is returned otherwise)
    and no source column is needed; without it one source column is.
    """
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty") from None
        header = [name.strip() for name in header]
        if bare_signal and not (
            PUBLISHED_CI_COLUMN in header
            and set(header) <= {TIMESTAMP_COLUMN, PUBLISHED_CI_COLUMN}
        ):
            return None
        if TIMESTAMP_COLUMN not in header:
            raise SchemaError(f"{path}: missing required column {TIMESTAMP_COLUMN!r}")
        if len(set(header)) != len(header):
            raise SchemaError(f"{path}: duplicate column names in header")
        source_columns = [name for name in header if name in SOURCE_CATEGORIES]
        ignored = tuple(
            name
            for name in header
            if name not in SOURCE_CATEGORIES and name not in (TIMESTAMP_COLUMN, PUBLISHED_CI_COLUMN)
        )
        if ignored:
            warnings.warn(
                f"{path}: ignoring unrecognized columns: {', '.join(ignored)}",
                stacklevel=3,
            )
        if not source_columns and not bare_signal:
            raise SchemaError(f"{path}: no recognized source columns in header")
        has_published = PUBLISHED_CI_COLUMN in header
        index = {name: i for i, name in enumerate(header)}

        rows: list[_Row] = []
        rows_read = rows_dropped = cells_filled = 0
        for row_number, cells in enumerate(reader, start=2):
            if not cells or all(not cell.strip() for cell in cells):
                continue
            rows_read += 1
            if len(cells) != len(header):
                raise ParseError(
                    f"expected {len(header)} cells, got {len(cells)}", row=row_number
                )
            raw_timestamp = cells[index[TIMESTAMP_COLUMN]].strip()
            if not raw_timestamp:
                raise ParseError("missing timestamp", row=row_number, column=TIMESTAMP_COLUMN)
            timestamp = _parse_timestamp(raw_timestamp, row_number)

            generation: dict[str, float] = {}
            dropped = False
            filled = 0
            for name in source_columns:
                raw = cells[index[name]].strip()
                if not raw:
                    if fill_policy == "zero-fill":
                        generation[name] = 0.0
                        filled += 1
                        continue
                    dropped = True
                    break
                generation[name] = _parse_cell(raw, row_number, name)
            if dropped:
                rows_dropped += 1
                continue

            published: float | None = None
            if has_published:
                raw = cells[index[PUBLISHED_CI_COLUMN]].strip()
                if not raw:
                    if fill_policy == "zero-fill":
                        published = 0.0
                        filled += 1
                    else:
                        rows_dropped += 1
                        continue
                else:
                    published = _parse_cell(raw, row_number, PUBLISHED_CI_COLUMN)
            cells_filled += filled
            rows.append((timestamp, generation, published))

    rows.sort(key=lambda item: item[0])
    for (first, _, _), (second, _, _) in zip(rows, rows[1:]):
        if first == second:
            raise ParseError(
                f"duplicate timestamp {first.strftime(TIMESTAMP_FORMAT)}",
                column=TIMESTAMP_COLUMN,
            )
    summary = LoadSummary(
        rows_read=rows_read,
        rows_kept=len(rows),
        rows_dropped=rows_dropped,
        cells_filled=cells_filled,
        ignored_columns=ignored,
    )
    return rows, has_published, summary


def load_region_csv(
    path: str | Path,
    region: str | None = None,
    fill_policy: str = "drop-row",
    strict: bool = False,
) -> RegionDataset:
    """Load an hourly generation CSV into a :class:`RegionDataset`.

    ``region`` defaults to the file's stem. Rows are sorted by timestamp.

    Raises:
        SchemaError: missing timestamp column or no source columns.
        ParseError: malformed cell, with its row and column.
        GapError: in strict mode, when timestamps are not evenly spaced.
    """
    if fill_policy not in FILL_POLICIES:
        raise ValueError(f"fill_policy must be one of {FILL_POLICIES}, got {fill_policy!r}")
    path = Path(path)
    region = region or path.stem
    rows, has_published, summary = _read_csv(path, fill_policy)
    dataset = RegionDataset(
        region=region,
        mixes=tuple(
            GridMix(region=region, generation=generation, timestamp=timestamp)
            for timestamp, generation, _ in rows
        ),
        published_ci=tuple(p for _, _, p in rows) if has_published else None,
        summary=summary,
    )
    if strict and not dataset.is_uniform:
        raise GapError(f"{path}: timestamps are not evenly spaced")
    return dataset


def load_signal_csv(path: str | Path) -> tuple[float, ...] | None:
    """The CI series of a bare ``timestamp,ci_g_per_kwh`` CSV, in timestamp
    order, or ``None`` when the CSV has other columns (a mix CSV).

    Rows get the checks of :func:`load_region_csv` with its default
    ``drop-row`` policy: a blank CI drops its row.

    Raises:
        SchemaError: an empty file, no timestamp column or duplicate columns.
        ParseError: a ragged row, a bad timestamp, a CI that is not a
            finite number >= 0, or a duplicate timestamp.
    """
    read = _read_csv(Path(path), "drop-row", bare_signal=True)
    if read is None:
        return None
    rows, _, _ = read
    return tuple(published for _, _, published in rows)


def write_region_csv(dataset: RegionDataset, path: str | Path) -> None:
    """Write a dataset back to CSV; loading the result is value-identical.

    Floats are written with ``repr`` so every value round-trips exactly.
    Sources absent from a step are written as 0.0.
    """
    path = Path(path)
    columns = sorted({name for mix in dataset.mixes for name in mix.generation})
    header = [TIMESTAMP_COLUMN, *columns]
    if dataset.published_ci is not None:
        header.append(PUBLISHED_CI_COLUMN)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for i, mix in enumerate(dataset.mixes):
            row = [mix.timestamp.strftime(TIMESTAMP_FORMAT)]
            row.extend(repr(mix.generation.get(name, 0.0)) for name in columns)
            if dataset.published_ci is not None:
                row.append(repr(dataset.published_ci[i]))
            writer.writerow(row)
