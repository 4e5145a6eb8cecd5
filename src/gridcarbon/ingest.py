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
``csv.field_size_limit()``, its lines are split at their commas (all in
one split when each has the header's cell count), which for such a text
gives exactly the rows ``csv.reader`` reads; any other text goes through
``csv.reader``. Then one of two ways is chosen for the whole file. A
clean table goes the column way, checked and parsed a column at a time;
any other file goes the row way, read again by ``csv.reader`` and checked
a row at a time in file order. Both keep the same rows, values, summary,
warnings and errors.
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
from itertools import chain, repeat
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

    Not a field: per CEF tuple of its CI signal, a dataset keeps that signal's
    per-step Σ MWh·CEF (``scheduler._weighted_steps``), 8 bytes a step plus 24
    of float (280 KB a year); a residual dataset reads its parent's.
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

    @cached_property
    def _weighted_sums(self) -> dict[tuple[float, ...], tuple[float, ...]]:
        return {}

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


def _blank(cells: Sequence[str]) -> bool:
    """True for a row with no cell or only blank cells; it is not read."""
    return not (cells and (cells[0].strip() or any(map(str.strip, cells))))


def _empty(cells: list[str]) -> Iterator[int]:
    """The indexes of the empty cells in ``cells``, in order."""
    i = -1
    with contextlib.suppress(ValueError):  # index() raises past the last empty cell
        while True:
            i = cells.index("", i + 1)
            yield i


# The kept rows' timestamps, value columns and timestamp text; the rows read and dropped; the cells filled.
_Table = tuple[list[datetime], list[tuple[float, ...]], str | None, int, int, int]


def _column_table(
    body: list[str] | list[list[str]], width: int, indexes: Sequence[int], zero_fill: bool
) -> _Table | None:
    """The column way: the data rows, ``body`` (lines to split at commas, or
    the rows ``csv.reader`` read), checked and parsed a column at a time;
    ``indexes`` locates the timestamp and then each parsed cell. Returns
    ``None``, for the row way, when a row that is not blank has other than
    ``width`` cells or no timestamp, or a timestamp or cell fails a check.
    Blank rows are left out.

    The rows with ``width`` cells are one flat list of cells, and a needed
    column is a stride slice of it: an unused column is never built. Lines
    are split once, joined with a cell of one line break between each two
    (no line holds one); unless that cell is every ``width + 1``-th, they
    are split again one by one. ``body`` is emptied as the cells are made.

    An empty parsed cell, or one of only whitespace, reads as "0": a filled
    cell under zero-fill, and under drop-row a mark on its row, which is
    dropped once it passes the checks, so that no error hides before its
    blank cell."""
    cells: list[str] = []
    stride = width + 1
    if body and isinstance(body[0], str):
        rows = len(body)
        text = ",\n,".join(body)
        body.clear()
        cells = text.split(",")
        if len(cells) != rows * stride - 1 or cells[width::stride].count("\n") != rows - 1:
            body[:] = map(str.split, text.split(",\n,"), repeat(","))
        del text
    if body:
        if any(len(row_cells) != width and not _blank(row_cells) for row_cells in body):
            return None
        cells = list(chain.from_iterable(row_cells for row_cells in body if len(row_cells) == width))
        stride = width
        body.clear()
    stamps = list(map(str.strip, cells[indexes[0] :: stride]))
    columns = [cells[i::stride] for i in indexes[1:]]
    blank = list(_empty(stamps))  # the rows without a timestamp, which must be blank
    if not all(_blank(cells[i * stride : i * stride + width]) for i in blank):
        return None
    del cells
    stamps, *columns = (_without(items, blank) for items in (stamps, *columns))
    empty = [(column, i) for column in columns for i in _empty(column)]
    table = _filled_table(stamps, columns, empty, zero_fill)
    if table is None:  # a cell of only whitespace is blank too; few files hold one, so look only now
        spaces = [(column, i) for column in columns for i, cell in enumerate(column) if cell.isspace()]
        table = _filled_table(stamps, columns, empty + spaces, zero_fill) if spaces else None
    return table


def _filled_table(
    stamps: list[str], columns: list[list[str]], empty: list[tuple[list[str], int]], zero_fill: bool
) -> _Table | None:
    """The column way's table with the ``empty`` cells, each a (column,
    index) pair, read as blank; ``None`` when a cell or timestamp fails a
    check."""
    for column, i in empty:
        column[i] = "0"
    drop = [] if zero_fill else sorted({i for _, i in empty})
    if drop and _parse_columns([stamps[i] for i in drop], [[column[i] for i in drop] for column in columns]) is None:
        return None
    kept, *kept_columns = (_without(items, drop) for items in (stamps, *columns))
    parsed = _parse_columns(kept, kept_columns)
    return parsed and (*parsed, len(stamps), len(drop), len(empty) if zero_fill else 0)


def _row_table(path: Path, width: int, indexes: Sequence[int], names: Sequence[str], zero_fill: bool) -> _Table:
    """The row way: every row check, in file order, on the rows after the
    header that ``csv.reader`` reads from ``path``; blank rows are skipped.
    The first bad row raises its ParseError, and a row the reader cannot
    read is "unreadable row". A blank cell under ``names`` (at ``indexes``
    after the timestamp's) is 0.0 under zero-fill, and otherwise drops its
    row unchecked past it. No timestamp text is kept."""
    timestamps, rows = [], []
    rows_read = rows_dropped = cells_filled = 0
    row = 1
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            next(reader)  # the header
            for row, cells in enumerate(reader, start=2):
                if _blank(cells):
                    continue
                rows_read += 1
                if len(cells) != width:
                    raise ParseError(f"expected {width} cells, got {len(cells)}", row=row)
                raw_timestamp = cells[indexes[0]].strip()
                if not raw_timestamp:
                    raise ParseError("missing timestamp", row=row, column=TIMESTAMP_COLUMN)
                timestamp = _parse_timestamp(raw_timestamp, row)
                values = []
                for name, i in zip(names, indexes[1:]):
                    cell = cells[i].strip()
                    if cell:
                        values.append(_parse_cell(cell, row, name))
                    elif zero_fill:
                        values.append(0.0)
                        cells_filled += 1
                    else:
                        rows_dropped += 1
                        break
                else:
                    timestamps.append(timestamp)
                    rows.append(values)
        except csv.Error as exc:
            raise ParseError(f"unreadable row: {exc}", row=row + 1) from None
    return timestamps, list(zip(*rows)) or [()] * len(names), None, rows_read, rows_dropped, cells_filled


def _without(items: Sequence, drop: list[int]) -> list:
    """``items`` without those at the sorted indexes ``drop``, copied a run at a time."""
    kept = []
    for i, end in zip([-1, *drop], [*drop, len(items)]):
        kept += items[i + 1 : end]
    return kept


def _parse_columns(
    stamps: list[str], raw_columns: list[list[str]]
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
    # Only a cell with a "-" can be < 0; most columns have none, and skip min().
    negative = ("-" in "".join(cells) and min(column) < 0.0 for cells, column in zip(raw_columns, columns))
    if any(negative) or not all(sum(column) < math.inf for column in columns):
        return None
    return timestamps, columns, text if canonical and text else None


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
    the file read the column way, every kept timestamp canonical and in
    order (``None`` otherwise).
    With ``bare_signal`` the header must hold only ``timestamp`` and
    ``ci_g_per_kwh`` (``None`` is returned otherwise) and no source column
    is needed; without it one source column is.

    The text is read once (``bare_signal`` reads the header line first).
    When :func:`_split_lines` can split it, its rows are the lines split at
    commas; otherwise ``csv.reader`` reads them. Both give the same rows,
    which :func:`_column_table` takes a column at a time. A file it does
    not take, or whose rows ``csv.reader`` stops on, goes to
    :func:`_row_table`, which reads it again and makes every row check.
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

    body = None if lines is None else lines[1:]
    if lines is None:  # the rows csv.reader reads; when it stops on one, the row way reports it
        with contextlib.suppress(csv.Error):
            body = list(rows)
    del rows, lines
    table = None if body is None else _column_table(body, len(header), indexes, zero_fill)
    timestamps, columns, text, rows_read, rows_dropped, cells_filled = table or _row_table(
        path, len(header), indexes, names, zero_fill
    )
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
