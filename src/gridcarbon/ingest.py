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
import re
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from operator import itemgetter, lt
from pathlib import Path

from .errors import GapError, ParseError, SchemaError
from .factors import SOURCE_CATEGORIES
from .grid import GridMix, _rows

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


@dataclass(frozen=True, init=False)
class RegionDataset:
    """An ordered series of one region's generation, stored as columns.

    ``timestamps`` holds one timestamp per step, present and strictly
    increasing. Even spacing is not enforced, as drop-row loading can leave
    gaps; see :attr:`is_uniform`. ``source_ids`` names the sources in
    column order (a CSV's header order) and ``columns`` holds one float
    tuple of MWh per source, aligned with the timestamps.

    ``published_ci`` is the operator's own carbon-intensity signal,
    aligned step-for-step with the timestamps when present. Every
    generation value and every published CI must be finite and >= 0.

    ``RegionDataset(region, mixes=...)`` builds the columns from one
    :class:`GridMix` per step: the union of their source ids in order of
    first appearance, with 0.0 where a mix lacks a source. :attr:`mixes`
    is the reverse view, built from the columns on first access.
    """

    region: str
    timestamps: tuple[datetime, ...]
    source_ids: tuple[str, ...]
    columns: tuple[tuple[float, ...], ...]
    published_ci: tuple[float, ...] | None
    summary: LoadSummary | None

    def __init__(
        self,
        region: str,
        mixes: Iterable[GridMix] | None = None,
        published_ci: Sequence[float] | None = None,
        summary: LoadSummary | None = None,
        *,
        timestamps: Sequence[datetime] = (),
        source_ids: Sequence[str] = (),
        columns: Sequence[Sequence[float]] = (),
    ) -> None:
        if mixes is not None:
            if timestamps or source_ids or columns:
                raise ValueError("give a dataset either mixes or columns, not both")
            mixes = tuple(mixes)
            for i, mix in enumerate(mixes):
                if mix.region != region:
                    raise ValueError(f"step {i} has region {mix.region!r}, expected {region!r}")
                if mix.timestamp is None:
                    raise ValueError(f"step {i} is missing a timestamp")
            timestamps = tuple(mix.timestamp for mix in mixes)
            source_ids = tuple(dict.fromkeys(s for mix in mixes for s in mix.generation))
            columns = tuple(tuple(mix.generation.get(s, 0.0) for mix in mixes) for s in source_ids)
        timestamps = tuple(timestamps)
        source_ids = tuple(source_ids)
        columns = tuple(tuple(column) for column in columns)
        if not all(map(lt, timestamps, timestamps[1:])):
            step = next(
                i for i in range(1, len(timestamps)) if not timestamps[i - 1] < timestamps[i]
            )
            raise ValueError(f"timestamps must be strictly increasing (step {step})")
        if len(source_ids) != len(columns) or len(set(source_ids)) != len(source_ids):
            raise ValueError("a dataset needs one column per distinct source id")
        for source_id, column in zip(source_ids, columns):
            _check_series(f"column {source_id!r}", column, len(timestamps))
        if published_ci is not None:
            published_ci = tuple(published_ci)
            _check_series("published_ci", published_ci, len(timestamps))
        for name, value in (
            ("region", region),
            ("timestamps", timestamps),
            ("source_ids", source_ids),
            ("columns", columns),
            ("published_ci", published_ci),
            ("summary", summary),
        ):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.timestamps)

    def rows(self) -> Iterable[tuple[float, ...]]:
        """The generation of each step, one value per source in column order."""
        return _rows(self.columns, len(self.timestamps))

    def column(self, source_id: str) -> tuple[float, ...]:
        """The generation column of a source id; zeros when the dataset lacks it."""
        if source_id in self.source_ids:
            return self.columns[self.source_ids.index(source_id)]
        return (0.0,) * len(self.timestamps)

    @cached_property
    def mixes(self) -> tuple[GridMix, ...]:
        """One :class:`GridMix` per step, built from the columns on first access."""
        return tuple(
            GridMix(region=self.region, generation=dict(zip(self.source_ids, row)), timestamp=t)
            for t, row in zip(self.timestamps, self.rows())
        )

    @property
    def is_uniform(self) -> bool:
        """True when consecutive timestamps are evenly spaced."""
        timestamps = self.timestamps
        return len({b - a for a, b in zip(timestamps, timestamps[1:])}) <= 1


def _check_series(name: str, values: tuple[float, ...], steps: int) -> None:
    """Raise ValueError unless there is one value per step, finite and >= 0."""
    if len(values) != steps:
        raise ValueError(f"{name} has {len(values)} values for {steps} timestamps")
    # A NaN or inf makes the sum NaN or inf; so can huge finite values.
    if values and not (min(values) >= 0 and sum(values) < math.inf):
        for value in values:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if min(values) < 0:
            raise ValueError(f"{name} must be >= 0, got {min(values)}")


def check_basis(dataset: RegionDataset, basis: str) -> None:
    """Raise ValueError for an unknown basis, or "published" without that series."""
    if basis not in BASES:
        raise ValueError(f"basis must be 'cef' or 'published', got {basis!r}")
    if basis == "published" and dataset.published_ci is None:
        raise ValueError(f"dataset for region {dataset.region!r} has no published CI series")


# The canonical timestamp shape, ASCII digits only. ``datetime.fromisoformat``
# reads it, with ``Z`` as timezone.utc, many times faster than ``strptime``
# and to the same datetime; every other value goes to ``strptime``, so the
# accepted set and the errors stay those of TIMESTAMP_FORMAT.
_CANONICAL_TIMESTAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")


def _timestamp(raw: str) -> datetime:
    if _CANONICAL_TIMESTAMP.fullmatch(raw):
        return datetime.fromisoformat(raw)
    return datetime.strptime(raw, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)


def _parse_timestamp(raw: str, row: int) -> datetime:
    try:
        return _timestamp(raw)
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


def _picker(indexes: Sequence[int]) -> Callable[[list[str]], tuple[str, ...]]:
    """A function from a row's cells to the cells at ``indexes``, as a tuple."""
    if len(indexes) > 1:
        return itemgetter(*indexes)
    return lambda cells: tuple(cells[i] for i in indexes)


def _parse_row(
    raw: Sequence[str], row: int, names: Sequence[str], zero_fill: bool
) -> tuple[tuple[float, ...] | None, int]:
    """A row's values, one per named raw cell, under the blank-cell policy,
    and the cells filled; ``None`` when a blank cell drops the row."""
    values = []
    filled = 0
    for name, cell in zip(names, raw):
        cell = cell.strip()
        if cell:
            values.append(_parse_cell(cell, row, name))
        elif zero_fill:
            values.append(0.0)
            filled += 1
        else:
            return None, 0
    return tuple(values), filled


# A row read but not yet parsed: its number, stripped timestamp and raw cells.
_RawRow = tuple[int, str, tuple[str, ...]]


def _parse_columns(
    rows: Sequence[_RawRow],
) -> tuple[list[datetime], list[tuple[float, ...]]] | None:
    """Parse rows a column at a time: their timestamps and values, or
    ``None`` when a cell or timestamp fails a check. A value passes when
    it is a number >= 0; a NaN or inf makes its column's sum NaN or inf."""
    if not rows:
        return [], []
    _, raw_timestamps, raw_rows = zip(*rows)
    try:
        timestamps = list(map(_timestamp, raw_timestamps))
        columns = [tuple(map(float, column)) for column in zip(*raw_rows)]
    except ValueError:
        return None
    if not all(min(column) >= 0.0 and sum(column) < math.inf for column in columns):
        return None
    return timestamps, list(zip(*columns))


def _parse_rows(
    clean: list[_RawRow], blank: list[_RawRow], names: Sequence[str], zero_fill: bool
) -> tuple[list[datetime], list[tuple[float, ...]], int, int]:
    """Parse the rows read: the kept timestamps and values (in no set
    order), the rows dropped and the cells filled.

    ``clean`` rows have no empty cell and ``blank`` rows have one. When
    every clean row passes the checks, they parse a column at a time and
    only blank rows go one by one through the timestamp check, the
    blank-cell policy and :func:`_parse_cell`. Otherwise every row does,
    in file order, so the first bad row raises its error.
    """
    parsed = _parse_columns(clean)
    timestamps, rows = parsed if parsed is not None else ([], [])
    dropped = filled = 0
    for row, raw_timestamp, raw in blank if parsed is not None else sorted(clean + blank):
        timestamp = _parse_timestamp(raw_timestamp, row)
        values, row_filled = _parse_row(raw, row, names, zero_fill)
        if values is None:
            dropped += 1
            continue
        filled += row_filled
        timestamps.append(timestamp)
        rows.append(values)
    return timestamps, rows, dropped, filled


def _read_csv(path: Path, fill_policy: str, bare_signal: bool = False) -> tuple | None:
    """Read a CSV under the header and row checks every layout shares.

    Returns the kept rows as columns in timestamp order: the timestamps,
    one generation column per source column in header order, the
    published CI when its column is present, and the load summary. With
    ``bare_signal`` the header must hold only ``timestamp`` and
    ``ci_g_per_kwh`` (``None`` is returned otherwise) and no source column
    is needed; without it one source column is.
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
        source_columns = tuple(name for name in header if name in SOURCE_CATEGORIES)
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
        # Every parsed cell of a row: the source columns, then the published CI.
        names = [*source_columns, *([PUBLISHED_CI_COLUMN] if has_published else [])]
        pick = _picker([header.index(name) for name in names])
        timestamp_at = header.index(TIMESTAMP_COLUMN)
        zero_fill = fill_policy == "zero-fill"

        clean: list[_RawRow] = []
        blank: list[_RawRow] = []
        rows_read = 0
        try:
            for row_number, cells in enumerate(reader, start=2):
                if not (cells and (cells[0].strip() or any(map(str.strip, cells)))):
                    continue
                rows_read += 1
                if len(cells) != len(header):
                    raise ParseError(
                        f"expected {len(header)} cells, got {len(cells)}", row=row_number
                    )
                raw_timestamp = cells[timestamp_at].strip()
                if not raw_timestamp:
                    raise ParseError("missing timestamp", row=row_number, column=TIMESTAMP_COLUMN)
                raw = pick(cells)
                (clean if all(raw) else blank).append((row_number, raw_timestamp, raw))
        except ParseError:
            _parse_rows(clean, blank, names, zero_fill)  # a bad row before this one comes first
            raise
    timestamps, rows, rows_dropped, cells_filled = _parse_rows(clean, blank, names, zero_fill)

    if not all(map(lt, timestamps, timestamps[1:])):
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        timestamps = [timestamps[i] for i in order]
        rows = [rows[i] for i in order]
        for first, second in zip(timestamps, timestamps[1:]):
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
    columns = tuple(zip(*rows)) if rows else ((),) * len(names)
    published = columns[-1] if has_published else None
    return tuple(timestamps), source_columns, columns[: len(source_columns)], published, summary


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
    timestamps, source_ids, columns, published_ci, summary = _read_csv(path, fill_policy)
    dataset = RegionDataset(
        region=region or path.stem,
        timestamps=timestamps,
        source_ids=source_ids,
        columns=columns,
        published_ci=published_ci,
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
    table = _read_csv(Path(path), "drop-row", bare_signal=True)
    return None if table is None else table[3]


def write_region_csv(dataset: RegionDataset, path: str | Path) -> None:
    """Write a dataset back to CSV; loading the result is value-identical.

    Floats are written with ``repr`` so every value round-trips exactly.
    Source columns are written in name order.
    """
    path = Path(path)
    named = sorted(zip(dataset.source_ids, dataset.columns))
    header = [TIMESTAMP_COLUMN, *(name for name, _ in named)]
    columns = [column for _, column in named]
    if dataset.published_ci is not None:
        header.append(PUBLISHED_CI_COLUMN)
        columns.append(dataset.published_ci)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for timestamp, row in zip(dataset.timestamps, _rows(columns, len(dataset))):
            writer.writerow([timestamp.strftime(TIMESTAMP_FORMAT), *map(repr, row)])
