"""The package's frozen records against ``@dataclass(frozen=True)`` twins.

Each record class is built by ``gridcarbon._record._frozen``. Its twin is a
``dataclasses.make_dataclass(..., frozen=True)`` class with the same fields,
defaults and ``__post_init__`` (and, for ``RegionDataset``, the same own
``__init__``). Both are built from the same Hypothesis-drawn values, which
must give the same errors, reprs, equality and hashes.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridcarbon
from gridcarbon import _record
from gridcarbon._record import _Fresh, _frozen
from gridcarbon.attribution import ConsumerAttribution, MethodResult, RegionSummary
from gridcarbon.contracts import Contract, ResidualMix
from gridcarbon.fixtures import write_fixture_csvs
from gridcarbon.grid import GridMix, SourceRegistry
from gridcarbon.ingest import LoadSummary, RegionDataset, load_region_csv
from gridcarbon.scenarios import Scenario
from gridcarbon.stats import PenetrationStat

pytestmark = pytest.mark.differential

RECORDS = sorted(
    {
        value
        for info in pkgutil.iter_modules(gridcarbon.__path__)
        for value in vars(importlib.import_module(f"gridcarbon.{info.name}")).values()
        if isinstance(value, type) and value is not _record._Methods
        and value.__setattr__ is _record._Methods.__setattr__
    },
    key=lambda cls: cls.__name__,
)


def test_every_record_is_found() -> None:
    assert [cls.__name__ for cls in RECORDS] == [
        "Allocation", "AttributionReport", "Consumer", "ConsumerAttribution", "Contract",
        "EnergySource", "FleetPenetration", "FlexibleLoad", "GridMix", "LoadSummary",
        "MethodResult", "PenetrationStat", "RegionDataset", "RegionSummary", "ResidualMix",
        "Scenario", "ScheduleResult",
    ]


def _own_init(cls) -> bool:
    """Whether the class body defines ``__init__`` (the decorator's is exec'd)."""
    return cls.__init__.__code__.co_filename != "<string>"


def _twin(cls):
    fields = []
    for name in cls.__match_args__:
        default = vars(cls).get(name, dataclasses.MISSING)
        if isinstance(default, _Fresh):
            spec = dataclasses.field(default_factory=default.make)
        else:
            spec = dataclasses.field(default=default)
        fields.append((name, cls.__annotations__[name], spec))
    namespace = {
        name: value
        for name, value in vars(cls).items()
        if (name == "__post_init__" or not name.startswith("__")) and name not in cls.__match_args__
    }
    if _own_init(cls):
        namespace["__init__"] = cls.__init__
    return dataclasses.make_dataclass(cls.__name__, fields, namespace=namespace, frozen=True, init=not _own_init(cls))


TWINS = {cls: _twin(cls) for cls in RECORDS}
FACTORY = object()


def _signature(cls) -> inspect.Signature:
    """The signature of ``cls.__init__``, with a per-instance default as FACTORY."""
    signature = inspect.signature(cls.__init__)
    return signature.replace(
        parameters=[
            p.replace(default=FACTORY) if repr(p.default) == "<factory>" else p
            for p in signature.parameters.values()
        ]
    )


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_signature_and_match_args_match_the_twin(cls) -> None:
    assert _signature(cls) == _signature(TWINS[cls])
    assert cls.__match_args__ == TWINS[cls].__match_args__


# --- drawn field values ---------------------------------------------------------------------

MIX = GridMix("r", {"wind": 1.0, "coal": 2.0})
RESULT = MethodResult(1.0, 2.0, 3.0, 4.0)
CONTRACT = Contract("k", "b", "rec", "wind", "r", 1.0)
NESTED = {
    "GridMix": [MIX, GridMix("s", {})],
    "MethodResult": [RESULT, MethodResult(0.0, 0.0, 0.0, 0.0)],
    "Contract": [CONTRACT, Contract("k2", "b", "financial", "solar", "s", (1.0, 2.0))],
    "ResidualMix": [ResidualMix(MIX, {"wind": 1.0}, frozenset({"wind"}))],
    "Consumer": [gridcarbon.Consumer("c", "r", 10.0)],
    "ConsumerAttribution": [ConsumerAttribution("c", "r", 10.0, "location_based", RESULT, RESULT)],
    "RegionSummary": [RegionSummary("r", 1.0, 2.0, 3.0, 4.0, 5.0, frozenset())],
    "PenetrationStat": [PenetrationStat("r", 1.0, 0.5, 50.0)],
    "LoadSummary": [LoadSummary(3, 2, 1, 0, ("note",))],
}
# Valid words and numbers come often enough that most classes' checks pass
# in a good share of the examples.
WORDS = st.sampled_from(["wind", "solar", "coal", "location_based", "market_based", "financial", "rec", "", "é'\n"])
# No NaN: from Python 3.13 a dataclass compares field by field, where a
# tuple compares an identical NaN as equal.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 2]),
    st.floats(min_value=0.0),
    st.floats(allow_nan=False),
    st.integers(min_value=-5, max_value=10**400),
)
INTS = st.integers(min_value=-2, max_value=30)
TIMES = st.datetimes()


def _tuples(values):
    return st.lists(values, max_size=3).map(tuple)


def _maps(values):
    return st.dictionaries(WORDS, values, max_size=3)


VALUES = {
    "str": WORDS,
    "float": NUMBERS,
    "int": INTS,
    "bool": st.booleans(),
    "frozenset[str]": st.frozensets(WORDS, max_size=3),
    "Mapping[str, float]": _maps(NUMBERS),
    "float | tuple[float, ...]": st.one_of(NUMBERS, _tuples(NUMBERS)),
    "datetime | None": st.one_of(st.none(), TIMES),
    "tuple[datetime, ...]": st.one_of(_tuples(TIMES), st.lists(TIMES, max_size=3, unique=True).map(sorted).map(tuple)),
    "tuple[str, ...]": _tuples(WORDS),
    "tuple[int, ...]": _tuples(INTS),
    "tuple[int, int] | None": st.one_of(st.none(), st.tuples(INTS, INTS), st.lists(INTS, max_size=3), st.just(1.5)),
    "tuple[float, ...] | None": st.one_of(st.none(), _tuples(NUMBERS)),
    "tuple[tuple[float, ...], ...]": _tuples(_tuples(NUMBERS)),
    "tuple[tuple[float, float], ...]": _tuples(st.tuples(NUMBERS, NUMBERS)),
    "SourceRegistry": st.just(SourceRegistry.default()),
    "LoadSummary | None": st.one_of(st.none(), st.sampled_from(NESTED["LoadSummary"])),
    **{name: st.sampled_from(instances) for name, instances in NESTED.items()},
    **{f"tuple[{name}, ...]": _tuples(st.sampled_from(instances)) for name, instances in NESTED.items()},
    **{f"Mapping[str, {name}]": _maps(st.sampled_from(instances)) for name, instances in NESTED.items()},
}


@st.composite
def field_values(draw, cls) -> dict:
    """Keyword arguments for every field of ``cls``; a field with a default is
    sometimes left out."""
    parameters = inspect.signature(cls.__init__).parameters
    return {
        name: draw(VALUES[cls.__annotations__[name]])
        for name in cls.__match_args__
        if parameters[name].default is inspect.Parameter.empty or draw(st.booleans())
    }


def _build(cls, kwargs):
    try:
        return cls(**kwargs)
    except Exception as exc:  # noqa: BLE001 - the twin must raise the same
        return type(exc), str(exc)


def _hash(record):
    try:
        return hash(record)
    except TypeError as exc:  # a dict field, as in GridMix.generation
        return TypeError, str(exc)


def _failure(action):
    with pytest.raises(AttributeError) as raised:
        action()
    return str(raised.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_record_matches_its_dataclass_twin(cls, data) -> None:
    twin = TWINS[cls]
    a = data.draw(field_values(cls), label="a")
    b = dict(a) if data.draw(st.booleans(), label="same values") else data.draw(field_values(cls), label="b")
    record, twin_record = _build(cls, a), _build(twin, a)
    if isinstance(record, tuple) or isinstance(twin_record, tuple):
        assert record == twin_record  # the same __post_init__ error
        return
    assert repr(record) == repr(twin_record)
    assert _hash(record) == _hash(twin_record)
    assert record.__eq__(twin_record) is NotImplemented
    assert record != twin_record
    other, twin_other = _build(cls, b), _build(twin, b)
    if not isinstance(other, tuple):
        assert (record == other) is (twin_record == twin_other)
        assert (record != other) is (twin_record != twin_other)
    name = data.draw(st.sampled_from(cls.__match_args__), label="field")
    before = repr(record)
    assert _failure(lambda: setattr(record, name, 0)) == _failure(lambda: setattr(twin_record, name, 0))
    assert _failure(lambda: delattr(record, name)) == _failure(lambda: delattr(twin_record, name))
    assert repr(record) == before


def test_a_factory_default_is_made_for_each_instance() -> None:
    @_frozen
    class Box:
        items: dict = _Fresh(dict)

    first, second = Box(), Box()
    assert first.items == second.items == {}
    assert first.items is not second.items
    assert Box({"a": 1}).items == {"a": 1}
    scenarios = [Scenario("s", {}, (), (), SourceRegistry.default()) for _ in range(2)]
    assert scenarios[0].grid_demand_mwh is not scenarios[1].grid_demand_mwh


def test_region_dataset_timestamp_text_is_not_a_field(tmp_path) -> None:
    loaded = load_region_csv(write_fixture_csvs(tmp_path)[0])
    assert loaded._timestamp_text is not None
    rebuilt = RegionDataset(
        loaded.region,
        timestamps=loaded.timestamps,
        source_ids=loaded.source_ids,
        columns=loaded.columns,
        published_ci=loaded.published_ci,
        summary=loaded.summary,
    )
    assert rebuilt._timestamp_text is None
    assert rebuilt == loaded and hash(rebuilt) == hash(loaded)
    assert repr(rebuilt) == repr(loaded)
    assert "_timestamp_text" not in repr(loaded)
