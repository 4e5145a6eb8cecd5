from __future__ import annotations

import csv
import tempfile
import warnings
from datetime import datetime, timedelta, timezone
from math import inf, nan
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridcarbon import (
    GapError,
    GridMix,
    ParseError,
    RegionDataset,
    SchemaError,
    load_region_csv,
    write_region_csv,
)

WELL_FORMED = """\
timestamp,solar,wind,coal,ci_g_per_kwh
2022-06-01T00:00:00Z,0.0,60.0,40.0,400.0
2022-06-01T01:00:00Z,0.0,50.0,50.0,500.0
2022-06-01T02:00:00Z,10.0,50.0,40.0,400.0
"""


def _write(tmp_path: Path, text: str, name: str = "aurora.csv") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_well_formed(tmp_path: Path) -> None:
    dataset = load_region_csv(_write(tmp_path, WELL_FORMED))
    assert dataset.region == "aurora"  # file stem
    assert len(dataset) == 3
    assert dataset.mixes[1].generation == {"solar": 0.0, "wind": 50.0, "coal": 50.0}
    assert dataset.mixes[0].timestamp == datetime(2022, 6, 1, 0, tzinfo=timezone.utc)
    assert dataset.published_ci == (400.0, 500.0, 400.0)
    assert dataset.summary.rows_read == 3
    assert dataset.summary.rows_kept == 3
    assert dataset.summary.rows_dropped == 0
    assert dataset.summary.cells_filled == 0
    assert dataset.summary.ignored_columns == ()
    assert dataset.is_uniform


def test_load_stores_columns(tmp_path: Path) -> None:
    dataset = load_region_csv(_write(tmp_path, WELL_FORMED))
    assert dataset.source_ids == ("solar", "wind", "coal")  # header order
    assert dataset.columns == ((0.0, 0.0, 10.0), (60.0, 50.0, 50.0), (40.0, 50.0, 40.0))
    assert dataset.timestamps == tuple(
        datetime(2022, 6, 1, h, tzinfo=timezone.utc) for h in range(3)
    )
    assert dataset.column("wind") == (60.0, 50.0, 50.0)
    assert dataset.column("hydro") == (0.0, 0.0, 0.0)
    assert list(dataset.rows()) == [(0.0, 60.0, 40.0), (0.0, 50.0, 50.0), (10.0, 50.0, 40.0)]
    assert "mixes" not in vars(dataset)  # the view is built on first access only
    assert dataset.mixes[2].generation == {"solar": 10.0, "wind": 50.0, "coal": 40.0}
    assert dataset.mixes is dataset.mixes


def test_dataset_from_mixes_fills_absent_sources() -> None:
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    dataset = RegionDataset(
        region="r",
        mixes=(
            GridMix(region="r", generation={"wind": 1.0, "coal": 2.0}, timestamp=start),
            GridMix(
                region="r", generation={"gas": 3.0, "wind": 4.0}, timestamp=start + timedelta(hours=1)
            ),
        ),
    )
    assert dataset.source_ids == ("wind", "coal", "gas")
    assert dataset.columns == ((1.0, 4.0), (2.0, 0.0), (0.0, 3.0))
    assert dataset.mixes[1].generation == {"wind": 4.0, "coal": 0.0, "gas": 3.0}
    same = RegionDataset(
        region="r",
        timestamps=dataset.timestamps,
        source_ids=dataset.source_ids,
        columns=dataset.columns,
    )
    assert same == dataset


@pytest.mark.parametrize(
    ("columns", "message"),
    [
        ({"source_ids": ("wind",), "columns": ((1.0,),)}, "'wind' has 1 values for 2 timestamps"),
        ({"source_ids": ("wind", "wind"), "columns": ((1.0, 2.0),) * 2}, "one column per distinct"),
        ({"source_ids": ("wind",), "columns": ((1.0, -2.0),)}, "must be >= 0"),
        ({"source_ids": ("wind",), "columns": ((inf, 1.0),)}, "^column 'wind' must be finite, got inf$"),
        ({"source_ids": ("wind",), "columns": ((nan, 1.0),)}, "^column 'wind' must be finite, got nan$"),
        ({"source_ids": ("coal", "wind"), "columns": ((1.0, 1.0), (1.0, -inf))}, "finite, got -inf"),
        ({"published_ci": [1.0]}, "^published_ci has 1 values for 2 timestamps$"),
        ({"published_ci": [-5.0, 10.0]}, "^published_ci must be >= 0, got -5.0$"),
        ({"published_ci": [5.0, nan]}, "^published_ci must be finite, got nan$"),
        ({"published_ci": [inf, 10.0]}, "^published_ci must be finite, got inf$"),
    ],
)
def test_dataset_checks_columns(columns, message: str) -> None:
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    with pytest.raises(ValueError, match=message):
        RegionDataset(region="r", timestamps=(start, start + timedelta(hours=1)), **columns)
    with pytest.raises(ValueError, match="strictly increasing"):
        RegionDataset(region="r", timestamps=(start, start))


def test_dataset_accepts_huge_finite_values(tmp_path: Path) -> None:
    """Two 1e308 cells overflow a column's sum, yet both are finite."""
    text = (
        "timestamp,wind,ci_g_per_kwh\n"
        "2022-06-01T00:00:00Z,1e308,1e308\n"
        "2022-06-01T01:00:00Z,1e308,1e308\n"
    )
    dataset = load_region_csv(_write(tmp_path, text))
    assert dataset.columns == ((1e308, 1e308),)
    assert dataset.published_ci == (1e308, 1e308)


def test_region_override(tmp_path: Path) -> None:
    dataset = load_region_csv(_write(tmp_path, WELL_FORMED), region="custom")
    assert dataset.region == "custom"
    assert all(mix.region == "custom" for mix in dataset.mixes)


def test_rows_sorted_by_timestamp(tmp_path: Path) -> None:
    shuffled = (
        "timestamp,wind\n"
        "2022-06-01T02:00:00Z,30\n"
        "2022-06-01T00:00:00Z,10\n"
        "2022-06-01T01:00:00Z,20\n"
    )
    dataset = load_region_csv(_write(tmp_path, shuffled))
    assert [mix.generation["wind"] for mix in dataset.mixes] == [10.0, 20.0, 30.0]


def test_blank_lines_skipped(tmp_path: Path) -> None:
    text = "timestamp,wind\n\n2022-06-01T00:00:00Z,10\n   \n"
    dataset = load_region_csv(_write(tmp_path, text))
    assert len(dataset) == 1
    assert dataset.summary.rows_read == 1


def test_no_published_column(tmp_path: Path) -> None:
    dataset = load_region_csv(_write(tmp_path, "timestamp,wind\n2022-06-01T00:00:00Z,10\n"))
    assert dataset.published_ci is None


def test_drop_row_policy(tmp_path: Path) -> None:
    gappy = (
        "timestamp,wind,coal\n"
        "2022-06-01T00:00:00Z,10,90\n"
        "2022-06-01T01:00:00Z,,90\n"
        "2022-06-01T02:00:00Z,30,70\n"
    )
    dataset = load_region_csv(_write(tmp_path, gappy))
    assert len(dataset) == 2
    assert dataset.summary.rows_read == 3
    assert dataset.summary.rows_dropped == 1
    assert dataset.summary.cells_filled == 0


def test_zero_fill_policy(tmp_path: Path) -> None:
    gappy = (
        "timestamp,wind,coal\n"
        "2022-06-01T00:00:00Z,10,90\n"
        "2022-06-01T01:00:00Z,,90\n"
    )
    dataset = load_region_csv(_write(tmp_path, gappy), fill_policy="zero-fill")
    assert len(dataset) == 2
    assert dataset.mixes[1].generation == {"wind": 0.0, "coal": 90.0}
    assert dataset.summary.rows_dropped == 0
    assert dataset.summary.cells_filled == 1


def test_missing_published_ci_drops_row(tmp_path: Path) -> None:
    text = (
        "timestamp,wind,ci_g_per_kwh\n"
        "2022-06-01T00:00:00Z,10,0\n"
        "2022-06-01T01:00:00Z,20,\n"
    )
    dataset = load_region_csv(_write(tmp_path, text))
    assert len(dataset) == 1
    assert dataset.summary.rows_dropped == 1
    filled = load_region_csv(_write(tmp_path, text, "b.csv"), fill_policy="zero-fill")
    assert filled.published_ci == (0.0, 0.0)
    assert filled.summary.cells_filled == 1


def test_invalid_fill_policy(tmp_path: Path) -> None:
    with pytest.raises(ValueError):
        load_region_csv(_write(tmp_path, WELL_FORMED), fill_policy="interpolate")


@pytest.mark.parametrize(
    ("cell", "column"),
    [("banana", "wind"), ("-5", "wind"), ("nan", "wind"), ("inf", "wind")],
)
def test_bad_generation_cells(tmp_path: Path, cell: str, column: str) -> None:
    text = f"timestamp,wind\n2022-06-01T00:00:00Z,{cell}\n"
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, text))
    assert exc.value.row == 2
    assert exc.value.column == column


def test_bad_timestamp(tmp_path: Path) -> None:
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, "timestamp,wind\n01/06/2022,10\n"))
    assert exc.value.row == 2
    assert exc.value.column == "timestamp"


def test_missing_timestamp_cell(tmp_path: Path) -> None:
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, "timestamp,wind\n,10\n"))
    assert exc.value.column == "timestamp"


def test_ragged_row(tmp_path: Path) -> None:
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, "timestamp,wind,coal\n2022-06-01T00:00:00Z,10\n"))
    assert exc.value.row == 2
    assert str(exc.value) == "expected 3 cells, got 2 (row 2)"


@pytest.mark.parametrize(
    ("text", "row"),
    [
        ("timestamp,wind\n2022-06-01T00:00:00Z,10\n2022-06-01T01:00:00Z,{huge}\n", 3),
        ("timestamp,{huge}\n2022-06-01T00:00:00Z,10\n", 1),
    ],
    ids=["data-row", "header"],
)
def test_unreadable_row_is_a_parse_error(tmp_path: Path, text: str, row: int) -> None:
    """A field the csv reader refuses is a ParseError naming its row, not a ``csv.Error``."""
    huge = "9" * (csv.field_size_limit() + 1)
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, text.format(huge=huge)))
    assert str(exc.value) == f"unreadable row: field larger than field limit ({csv.field_size_limit()}) (row {row})"


def test_bad_row_before_an_unreadable_one_comes_first(tmp_path: Path) -> None:
    huge = "9" * (csv.field_size_limit() + 1)
    text = f"timestamp,wind\n2022-06-01T00:00:00Z,x\n2022-06-01T01:00:00Z,{huge}\n"
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, text))
    assert str(exc.value) == "invalid number 'x' (row 2, column 'wind')"


def test_dataset_takes_mixes_or_columns_not_both() -> None:
    t0 = datetime(2022, 6, 1, tzinfo=timezone.utc)
    mix = GridMix(region="r", generation={"wind": 1.0}, timestamp=t0)
    with pytest.raises(ValueError, match="^give a dataset either mixes or columns, not both$"):
        RegionDataset("r", mixes=[mix], timestamps=(t0,), source_ids=("wind",), columns=((1.0,),))


def test_duplicate_timestamps(tmp_path: Path) -> None:
    text = (
        "timestamp,wind\n"
        "2022-06-01T00:00:00Z,10\n"
        "2022-06-01T00:00:00Z,20\n"
    )
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, text))
    assert "duplicate" in str(exc.value)
    assert str(exc.value).endswith(" (column 'timestamp')")


@pytest.mark.parametrize(
    ("row", "column", "where"),
    [(3, None, " (row 3)"), (None, "wind", " (column 'wind')"),
     (3, "wind", " (row 3, column 'wind')"), (None, None, "")],
)
def test_parse_error_names_only_the_location_it_has(row, column, where) -> None:
    assert str(ParseError("bad cell", row=row, column=column)) == "bad cell" + where


@pytest.mark.parametrize(
    "text",
    [
        "",  # empty file
        "time,wind\n2022-06-01T00:00:00Z,10\n",  # no timestamp column
        "timestamp,ci_g_per_kwh\n2022-06-01T00:00:00Z,500\n",  # no source columns
        "timestamp,wind,wind\n2022-06-01T00:00:00Z,10,20\n",  # duplicate columns
    ],
)
def test_schema_errors(tmp_path: Path, text: str) -> None:
    with pytest.raises(SchemaError):
        load_region_csv(_write(tmp_path, text))


def test_unknown_columns_warn_but_load(tmp_path: Path) -> None:
    text = "timestamp,wind,price_eur\n2022-06-01T00:00:00Z,10,38.5\n"
    with pytest.warns(UserWarning, match="price_eur"):
        dataset = load_region_csv(_write(tmp_path, text))
    assert dataset.summary.ignored_columns == ("price_eur",)
    assert dataset.mixes[0].generation == {"wind": 10.0}


# --- what csv.reader reads, pinned ---------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "timestamp,wind\r\n2022-06-01T00:00:00Z,10\r\n2022-06-01T01:00:00Z,20\r\n",
        "timestamp,wind\r2022-06-01T00:00:00Z,10\r2022-06-01T01:00:00Z,20\r",
        'timestamp,wind,note\n2022-06-01T00:00:00Z,"10","a, b"\n"2022-06-01T01:00:00Z",20,"say ""hi"""\n',
        "timestamp,wind\n2022-06-01T00:00:00Z,10\n2022-06-01T01:00:00Z,20",
        "timestamp,wind\n , \n2022-06-01T00:00:00Z,10\n\t\n,\n2022-06-01T01:00:00Z,20\n \t, ,\n",
    ],
    ids=["crlf", "lone-cr", "quoted-cells", "no-final-newline", "whitespace-rows"],
)
def test_rows_are_what_csv_reader_reads(tmp_path: Path, text: str) -> None:
    """Line breaks, quoting and blank rows read as ``csv.reader`` reads them:
    two rows each time, and whitespace-only rows are skipped and not counted."""
    path = tmp_path / "r.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dataset = load_region_csv(path)
    assert dataset.column("wind") == (10.0, 20.0)
    assert dataset.timestamps == tuple(datetime(2022, 6, 1, h, tzinfo=timezone.utc) for h in range(2))
    assert dataset.summary.rows_read == 2
    assert dataset.summary.ignored_columns == (("note",) if "note" in text else ())
    assert dataset._timestamp_text == "2022-06-01T00:00:00Z\n2022-06-01T01:00:00Z"


def test_nul_in_a_cell_is_an_invalid_number(tmp_path: Path) -> None:
    with pytest.raises(ParseError) as exc:
        load_region_csv(_write(tmp_path, "timestamp,wind\n2022-06-01T00:00:00Z,2\x00\n"))
    assert str(exc.value) == "invalid number '2\\x00' (row 2, column 'wind')"


def test_blank_first_line_has_no_timestamp_column(tmp_path: Path) -> None:
    path = _write(tmp_path, "\ntimestamp,wind\n2022-06-01T00:00:00Z,10\n")
    with pytest.raises(SchemaError) as exc:
        load_region_csv(path)
    assert str(exc.value) == f"{path}: missing required column 'timestamp'"


def test_strict_rejects_gaps(tmp_path: Path) -> None:
    gappy = (
        "timestamp,wind\n"
        "2022-06-01T00:00:00Z,10\n"
        "2022-06-01T01:00:00Z,20\n"
        "2022-06-01T05:00:00Z,30\n"
    )
    path = _write(tmp_path, gappy)
    assert len(load_region_csv(path)) == 3  # lenient by default
    with pytest.raises(GapError):
        load_region_csv(path, strict=True)


def test_strict_accepts_uniform(tmp_path: Path) -> None:
    assert len(load_region_csv(_write(tmp_path, WELL_FORMED), strict=True)) == 3


# --- dataset validation ------------------------------------------------------

def _series(region: str = "r", hours: int = 2) -> tuple[GridMix, ...]:
    start = datetime(2022, 6, 1, tzinfo=timezone.utc)
    return tuple(
        GridMix(region=region, generation={"wind": 1.0}, timestamp=start + timedelta(hours=h))
        for h in range(hours)
    )


def test_dataset_rejects_misaligned_published_ci() -> None:
    with pytest.raises(ValueError):
        RegionDataset(region="r", mixes=_series(hours=2), published_ci=(1.0,))


def test_dataset_rejects_region_mismatch() -> None:
    with pytest.raises(ValueError):
        RegionDataset(region="other", mixes=_series(region="r"))


# --- round trip ---------------------------------------------------------------

def test_round_trip_value_identity(tmp_path: Path) -> None:
    original = load_region_csv(_write(tmp_path, WELL_FORMED))
    out = tmp_path / "copy.csv"
    write_region_csv(original, out)
    reloaded = load_region_csv(out, region=original.region)
    assert reloaded.published_ci == original.published_ci
    for a, b in zip(original.mixes, reloaded.mixes):
        assert a.timestamp == b.timestamp
        assert a.generation == b.generation


@given(
    values=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
        ),
        min_size=1,
        max_size=24,
    ),
    year=st.integers(min_value=1, max_value=9999),
)
def test_round_trip_exact_floats(values, year) -> None:
    """repr-formatted floats and timestamps of any year survive write -> load bit-for-bit."""
    start = datetime(year, 6, 1, tzinfo=timezone.utc)
    steps = tuple(
        GridMix(
            region="r",
            generation={"wind": wind, "coal": coal},
            timestamp=start + timedelta(hours=h),
        )
        for h, (wind, coal, _) in enumerate(values)
    )
    dataset = RegionDataset(
        region="r",
        mixes=steps,
        published_ci=tuple(ci for _, _, ci in values),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.csv"
        write_region_csv(dataset, path)
        reloaded = load_region_csv(path)
    assert reloaded.published_ci == dataset.published_ci
    for a, b in zip(dataset.mixes, reloaded.mixes):
        assert a.generation == b.generation
        assert a.timestamp == b.timestamp
