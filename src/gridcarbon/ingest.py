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

A file is read once, as UTF-8 (a file that is not is a ParseError), and
its text is tokenized one of two ways. When it holds no quote, no NUL, no
CR outside a CRLF line break and no line longer than
``csv.field_size_limit()``, its lines are split at their commas, which for
such a text gives exactly the rows ``csv.reader`` reads; any other text
goes through ``csv.reader``. The rows then get the same checks either way,
a column at a time where they pass and one by one where they do not, so the
path changes no value, summary, warning or error.
"""

from __future__ import annotations

import contextlib
import csv
import math
import re
import warnings
from collections.abc import Iterable, Iterator, Sequence
from datetime import datetime, timezone
from functools import cached_property
from itertools import compress, repeat
from operator import lt
from pathlib import Path

from ._record import _frozen
from .errors import GapError, ParseError, SchemaError
from .factors import SOURCE_CATEGORIES
from .grid import GridMix, _rows

TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
TIMESTAMP_COLUMN = "timestamp"
PUBLISHED_CI_COLUMN = "ci_g_per_kwh"

FILL_POLICIES = ("drop-row", "zero-fill")
BASES = ("cef", "published")


@_frozen
class LoadSummary:
    """Bookkeeping from one CSV load."""

    rows_read: int
    rows_kept: int
    rows_dropped: int
    cells_filled: int
    ignored_columns: tuple[str, ...]


@_frozen
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
    # The timestamps as _stamp writes them, one per line, when
    # load_region_csv read exactly that text; not a field, so equality
    # and repr ignore it.
    _timestamp_text = None

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
        self._assign(
            region=region,
            timestamps=timestamps,
            source_ids=source_ids,
            columns=columns,
            published_ci=published_ci,
            summary=summary,
        )

    def _assign(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def _checked(cls, **fields) -> RegionDataset:
        """A dataset of fields that already pass every check of the
        constructor, as those of a CSV load do, without checking them again."""
        dataset = object.__new__(cls)
        dataset._assign(**fields)
        return dataset

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


def check_overflow(dataset: RegionDataset, total: float, sums: Iterable[float]) -> None:
    """Unless ``total`` is finite, raise ValueError naming the region and the
    timestamp of the first step whose value in ``sums`` (a total at or up to
    that step) is infinite."""
    if total < math.inf:
        return
    for step, value in enumerate(sums):
        if value == math.inf:
            when = _stamp(dataset.timestamps[step])
            raise ValueError(f"region {dataset.region!r}: total generation or its emissions overflow at {when}")


# The canonical timestamp shape, ASCII digits only: a value has it when
# mapping its digits to "0" gives _CANONICAL_SHAPE. ``datetime.fromisoformat``
# reads it, with ``Z`` as timezone.utc, many times faster than ``strptime``
# and to the same datetime; every other value goes to ``strptime``, so the
# accepted set and the errors stay those of TIMESTAMP_FORMAT.
_CANONICAL_SHAPE = "0000-00-00T00:00:00Z"
_ZERO_DIGITS = str.maketrans("123456789", "000000000")


def _stamp(t: datetime) -> str:
    """``t`` as TIMESTAMP_FORMAT reads it, the year zero-padded to four
    digits on every platform: the one timestamp writer."""
    return t.isoformat()[:19] + "Z"


def _timestamp_labels(dataset: RegionDataset) -> list[str]:
    """Each step's timestamp as :func:`_stamp` writes it: the CSV's own text
    when :func:`load_region_csv` kept it, else written."""
    if dataset._timestamp_text is not None:
        return dataset._timestamp_text.split("\n")
    return list(map(_stamp, dataset.timestamps))


def _timestamp(raw: str) -> datetime:
    if raw.translate(_ZERO_DIGITS) == _CANONICAL_SHAPE:
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


def _parse_cell(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"invalid number {raw!r}", row=row, column=column) from None
    if value != value:
        raise ParseError("NaN is not a valid value", row=row, column=column)
    if math.isinf(value):
        raise ParseError(f"value must be finite, got {value}", row=row, column=column)
    if value < 0:
        raise ParseError(f"value must be >= 0.0, got {value}", row=row, column=column)
    return value


# A data row as read: its number, and its cells or the reader's error on it.
_RawRow = tuple[int, "Sequence[str] | csv.Error"]


def _parse_row(
    row: int, cells: Sequence[str] | csv.Error, header: Sequence[str], names: Sequence[str], zero_fill: bool
) -> tuple[datetime, tuple[float, ...] | None, int]:
    """Every check of one data row: that the reader could read it, its cell
    count, its timestamp, and its cells under ``names`` (a header's source
    columns, then the published CI) under the blank-cell policy. Returns
    the timestamp, the values (``None`` when a blank cell drops the row)
    and the cells filled."""
    if isinstance(cells, csv.Error):
        raise ParseError(f"unreadable row: {cells}", row=row)
    if len(cells) != len(header):
        raise ParseError(f"expected {len(header)} cells, got {len(cells)}", row=row)
    raw_timestamp = cells[header.index(TIMESTAMP_COLUMN)].strip()
    if not raw_timestamp:
        raise ParseError("missing timestamp", row=row, column=TIMESTAMP_COLUMN)
    timestamp = _parse_timestamp(raw_timestamp, row)
    values = []
    filled = 0
    for name in names:
        cell = cells[header.index(name)].strip()
        if cell:
            values.append(_parse_cell(cell, row, name))
        elif zero_fill:
            values.append(0.0)
            filled += 1
        else:
            return timestamp, None, 0
    return timestamp, tuple(values), filled


def _read_text(path: Path) -> str:
    """The file's text, with its line breaks as they are (not translated)."""
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None


def _split_lines(text: str) -> list[str] | None:
    """The lines of ``text`` when splitting each at every "," gives exactly
    the rows ``csv.reader`` reads from it, else ``None``. That holds when
    the text has no quote, no NUL, no CR outside a CRLF, and no line longer
    than ``csv.field_size_limit()``: the reader then ends a row only at a
    line break and a cell only at a comma."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:  # the reader reads no row after a final line break
        lines.pop()
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    return lines


# A line as a file opened with newline="" reads it: up to and with its line
# break, "\r\n", "\r" or "\n", or the last line, which needs none.
_FILE_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _file_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` that ``csv.reader`` would read from its file,
    one at a time."""
    return map(re.Match.group, _FILE_LINE.finditer(text))


def _split_rows(lines: list[str]) -> list[list[str]]:
    """The lines after the header, each split at its commas. The split
    runs in place, a block at a time, so that each block of lines is freed
    as its rows are made."""
    del lines[0]
    for start in range(0, len(lines), 1024):
        lines[start : start + 1024] = map(str.split, lines[start : start + 1024], repeat(","))
    return lines


def _reader_rows(rows: Iterable[list[str]]) -> tuple[list[list[str]], csv.Error | None]:
    """The rows ``csv.reader`` reads before it stops, and its error if it
    stopped on one."""
    read = []
    try:
        for cells in rows:
            read.append(cells)
    except csv.Error as exc:
        return read, exc
    return read, None


def _blank(cells: Sequence[str]) -> bool:
    """True for a row with no cell or only blank cells; it is not read."""
    return not (cells and (cells[0].strip() or any(map(str.strip, cells))))


def _sort_rows(
    body: list[Sequence[str]], width: int, indexes: Sequence[int]
) -> tuple[Sequence[int], list[tuple[str, ...]], list[bool] | None, list[str], list[_RawRow], int]:
    """Sort the data rows, a column at a time, into clean ones (``width``
    cells, and a timestamp and parsed cells that are not empty; ``indexes``
    locates the timestamp and then each parsed cell) and other ones.

    Returns the clean rows' numbers; ``width`` columns that hold the clean
    rows and, where ``keep`` is False when it is not ``None``, other ones
    (so that no cell is copied to drop them); ``keep``; the clean rows'
    stripped timestamps; the other rows in file order, blank ones left out;
    and the number of rows that are not blank. ``body`` is emptied once the
    columns exist, to free the row lists."""
    numbers: Sequence[int] = range(2, len(body) + 2)
    other: list[_RawRow] = []
    full = list(map(width.__eq__, map(len, body)))
    if not all(full):
        other = [(row, cells) for row, cells in zip(numbers, body) if len(cells) != width]
        numbers = list(compress(numbers, full))
        body[:] = compress(body, full)
    columns = list(zip(*body)) or [()] * width  # the one transposition
    body.clear()
    stamps = list(map(str.strip, columns[indexes[0]]))
    # The rows with an empty timestamp or parsed cell, found a column at a time.
    drop = set()
    for column in (stamps, *(columns[i] for i in indexes[1:])):
        i = -1
        with contextlib.suppress(ValueError):  # index() raises past the last empty cell
            while True:
                i = column.index("", i + 1)
                drop.add(i)
    keep = None
    if drop:
        drop = sorted(drop)
        other += ((numbers[i], tuple(column[i] for column in columns)) for i in drop)
        other.sort()
        keep = [True] * len(numbers)
        for i in drop:
            keep[i] = False
        numbers = list(compress(numbers, keep))
        stamps = list(compress(stamps, keep))
    other = [(row, cells) for row, cells in other if not _blank(cells)]
    return numbers, columns, keep, stamps, other, len(numbers) + len(other)


def _kept(items: Iterable, keep: list[bool] | None) -> Iterable:
    """``items`` without those where ``keep``, when not ``None``, is False."""
    return items if keep is None else compress(items, keep)


def _parse_columns(
    stamps: list[str], raw_columns: Iterable[Iterable[str]]
) -> tuple[list[datetime], list[tuple[float, ...]], str | None] | None:
    """Parse clean rows a column at a time: their timestamps from their
    stripped text, one value column per raw cell column and, when every
    timestamp has the canonical shape, their text joined by newlines; or
    ``None`` when a cell or timestamp fails a check. A value passes when it
    is a number >= 0; a NaN or inf makes its column's sum NaN or inf."""
    text = "\n".join(stamps)
    # One comparison for every value: no timestamp holds a line break.
    canonical = text.translate(_ZERO_DIGITS) == "\n".join(repeat(_CANONICAL_SHAPE, len(stamps)))
    try:
        timestamps = list(map(datetime.fromisoformat if canonical else _timestamp, stamps))
        columns = [tuple(map(float, column)) for column in raw_columns]
    except ValueError:
        return None
    if not all(min(column) >= 0.0 and sum(column) < math.inf for column in columns):
        return None
    return timestamps, columns, text if canonical else None


def _is_signal_header(header: Sequence[str]) -> bool:
    """True for the header of a bare signal CSV: ``ci_g_per_kwh``, and
    ``timestamp`` or nothing else, its names stripped."""
    names = set(map(str.strip, header))
    return PUBLISHED_CI_COLUMN in names and names <= {TIMESTAMP_COLUMN, PUBLISHED_CI_COLUMN}


def _read_csv(path: Path, fill_policy: str, bare_signal: bool = False) -> tuple | None:
    """Read a CSV under the header and row checks every layout shares.

    Returns the kept rows as columns in timestamp order: the timestamps,
    one generation column per source column in header order, the
    published CI when its column is present, the load summary, and the
    timestamps' text, one per line, when it is what :func:`_stamp` writes:
    every kept row clean, canonical and in order (``None`` otherwise).
    With ``bare_signal`` the header must hold only ``timestamp`` and
    ``ci_g_per_kwh`` (``None`` is returned otherwise) and no source column
    is needed; without it one source column is.

    The text is read once (``bare_signal`` reads the header line first).
    When :func:`_split_lines` can split it, its rows are the lines split at
    commas; otherwise ``csv.reader`` reads them. Both give the same rows.
    """
    if bare_signal:  # the header line alone, so that a mix CSV is read no further
        try:
            with path.open("r", encoding="utf-8", newline="") as handle:
                first = _split_lines(handle.readline())
        except UnicodeDecodeError:  # _read_text reports it
            first = None
        if first and not _is_signal_header(first[0].split(",")):
            return None
    text = _read_text(path)
    lines = _split_lines(text)
    rows = csv.reader(_file_lines(text)) if lines is None else map(str.split, lines, repeat(","))
    del text
    try:
        header = next(rows)
    except StopIteration:
        raise SchemaError(f"{path}: file is empty") from None
    except csv.Error as exc:
        raise ParseError(f"unreadable row: {exc}", row=1) from None
    header = [name.strip() for name in header]
    if bare_signal and not _is_signal_header(header):
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
    # Where a row's timestamp and parsed cells are.
    indexes = [header.index(TIMESTAMP_COLUMN), *map(header.index, names)]
    zero_fill = fill_policy == "zero-fill"

    if lines is None:
        body, error = _reader_rows(rows)
    else:
        body, error = _split_rows(lines), None
    error_row = len(body) + 2  # the row after the last one read
    del rows, lines
    numbers, raw_columns, keep, stamps, other, rows_read = _sort_rows(body, len(header), indexes)
    if error is not None:  # the reader stopped here: this row is the last one checked
        other.append((error_row, error))
    # When there are clean rows and every one passes the checks, they parse
    # a column at a time and only the other rows go one by one through
    # _parse_row. Otherwise every row does, in file order, so the first bad
    # row raises its error.
    parsed = _parse_columns(stamps, [_kept(raw_columns[i], keep) for i in indexes[1:]]) if stamps else None
    if parsed is None:
        other = sorted([*zip(numbers, _kept(zip(*raw_columns), keep)), *other])
    del raw_columns, stamps  # the raw cells, no longer needed
    timestamps, columns, text = parsed or ([], [()] * len(names), None)
    rows = []
    rows_dropped = cells_filled = 0
    for row, cells in other:
        timestamp, values, filled = _parse_row(row, cells, header, names, zero_fill)
        if values is None:
            rows_dropped += 1
            continue
        cells_filled += filled
        timestamps.append(timestamp)
        rows.append(values)
    if rows:
        columns = [column + extra for column, extra in zip(columns, zip(*rows))]
        text = None

    if not all(map(lt, timestamps, timestamps[1:])):
        text = None
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        timestamps = [timestamps[i] for i in order]
        columns = [tuple(map(column.__getitem__, order)) for column in columns]
        for first, second in zip(timestamps, timestamps[1:]):
            if first == second:
                raise ParseError(
                    f"duplicate timestamp {_stamp(first)}",
                    column=TIMESTAMP_COLUMN,
                )
    summary = LoadSummary(
        rows_read=rows_read,
        rows_kept=len(timestamps),
        rows_dropped=rows_dropped,
        cells_filled=cells_filled,
        ignored_columns=ignored,
    )
    published = columns[-1] if has_published else None
    return tuple(timestamps), source_columns, tuple(columns[: len(source_columns)]), published, summary, text


def load_region_csv(
    path: str | Path,
    region: str | None = None,
    fill_policy: str = "drop-row",
    strict: bool = False,
) -> RegionDataset:
    """Load an hourly generation CSV into a :class:`RegionDataset`.

    ``region`` (not empty) defaults to the file's stem. Rows are sorted by timestamp.

    Raises:
        SchemaError: missing timestamp column or no source columns.
        ParseError: malformed cell, with its row and column.
        GapError: in strict mode, when timestamps are not evenly spaced.
    """
    if fill_policy not in FILL_POLICIES:
        raise ValueError(f"fill_policy must be one of {FILL_POLICIES}, got {fill_policy!r}")
    if region == "":
        raise ValueError("region must not be empty")
    path = Path(path)
    timestamps, source_ids, columns, published_ci, summary, text = _read_csv(path, fill_policy)
    # _read_csv kept only rows that pass the constructor's checks.
    dataset = RegionDataset._checked(
        region=path.stem if region is None else region,
        timestamps=timestamps,
        source_ids=source_ids,
        columns=columns,
        published_ci=published_ci,
        summary=summary,
        _timestamp_text=text,
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
            writer.writerow([_stamp(timestamp), *map(repr, row)])
