from __future__ import annotations

import io
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import gridcarbon
from gridcarbon import scenarios, yamlscan
from gridcarbon.scenarios import parse_cef_overrides
from gridcarbon import (
    ScenarioInvalid,
    SchemaError,
    builtin_scenario_names,
    load_builtin_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
)

BUILTINS = (
    "commercial-case-1",
    "commercial-case-2",
    "commercial-case-3",
    "residential-case-1",
    "residential-case-2",
    "residential-case-3",
)


def _minimal(**overrides) -> dict:
    data = {
        "name": "t",
        "regions": {"r": {"generation": {"wind": 500.0, "coal": 500.0}}},
        "consumers": [{"id": "H1", "region": "r", "demand_kwh": 20.0}],
    }
    data.update(overrides)
    return data


def test_builtin_names() -> None:
    assert tuple(builtin_scenario_names()) == BUILTINS


@pytest.mark.parametrize("name", BUILTINS)
def test_builtins_load_and_run(name: str, monkeypatch) -> None:
    scenario = load_builtin_scenario(name)
    assert scenario.name == name
    report = run_scenario(scenario)
    assert len(report.consumers) == len(scenario.consumers)
    assert report.double_counted_cfe_mwh >= 0.0
    # With the pure-Python loader set, as without libyaml, the same objects:
    # the scanner reads the bundled files, and would PyYAML otherwise.
    monkeypatch.setattr(yamlscan, "_YAML_LOADER", yaml.SafeLoader)
    assert run_scenario(load_builtin_scenario(name)) == report


def test_unknown_builtin() -> None:
    with pytest.raises(ScenarioInvalid) as exc:
        load_builtin_scenario("no-such-case")
    assert "residential-case-1" in str(exc.value)


# --- bundled case values ----------------------------------------------------

def test_residential_case_1() -> None:
    report = run_scenario(load_builtin_scenario("residential-case-1"))
    for home in ("H1", "H2"):
        entry = report.consumer(home)
        assert entry.selected.attributed_cfe_kwh == pytest.approx(10.0, rel=1e-9)
        assert entry.selected.ci_g_per_kwh == pytest.approx(500.0, rel=1e-9)


def test_residential_case_2() -> None:
    report = run_scenario(load_builtin_scenario("residential-case-2"))
    h1, h2 = report.consumer("H1"), report.consumer("H2")
    # Everyone reading the public signal sees the rooftop surplus.
    assert h1.location_based.attributed_cfe_kwh == pytest.approx(10.0002, rel=1e-9)
    assert h2.location_based.attributed_cfe_kwh == pytest.approx(10.0002, rel=1e-9)
    # Under market rules the claim is H2's alone.
    assert h2.market_based.attributed_cfe_kwh == pytest.approx(15.0, rel=1e-9)
    assert h1.market_based.attributed_cfe_kwh == pytest.approx(10.0, rel=1e-9)
    assert h2.cfe_claim_kwh == pytest.approx(10.0, rel=1e-9)
    # H1 reads the unadjusted signal, so the rooftop claim is double counted.
    assert report.double_counted_cfe_mwh == pytest.approx(0.01, rel=1e-9)


def test_residential_case_3() -> None:
    report = run_scenario(load_builtin_scenario("residential-case-3"))
    h1, h2 = report.consumer("H1"), report.consumer("H2")
    assert h1.cfe_claim_kwh == pytest.approx(10.0, rel=1e-9)
    assert h2.cfe_claim_kwh == 0.0
    assert h1.market_based.attributed_cfe_kwh == pytest.approx(15.0, rel=1e-9)
    assert h2.market_based.attributed_cfe_kwh == pytest.approx(10.0, rel=1e-9)
    # Both registered as market consumers: nobody reads the public signal.
    assert report.double_counted_cfe_mwh == 0.0


def test_commercial_case_1() -> None:
    report = run_scenario(load_builtin_scenario("commercial-case-1"))
    c1 = report.consumer("C1")
    assert c1.selected.ci_g_per_kwh == pytest.approx(500.0, rel=1e-9)
    assert c1.selected.attributed_cfe_kwh == pytest.approx(10_000.0, rel=1e-9)
    assert report.consumer("H1").selected.attributed_cfe_kwh == pytest.approx(10.0, rel=1e-9)


def test_commercial_case_2() -> None:
    report = run_scenario(load_builtin_scenario("commercial-case-2"))
    c1, h1 = report.consumer("C1"), report.consumer("H1")
    assert c1.market_based.ci_g_per_kwh == 0.0
    assert c1.cfe_claim_kwh == pytest.approx(20_000.0, rel=1e-9)
    region = report.region("local")
    assert region.ci_res_g_per_kwh == pytest.approx(480_000.0 / 980.0, rel=1e-9)
    assert region.ci_res_g_per_kwh == pytest.approx(489.80, abs=0.005)
    share = h1.market_based.attributed_cfe_kwh / h1.demand_kwh
    assert share * 100.0 == pytest.approx(51.02, abs=0.1)
    assert h1.market_based.ci_g_per_kwh == pytest.approx(480_000.0 / 980.0, rel=1e-9)


def test_commercial_case_3() -> None:
    report = run_scenario(load_builtin_scenario("commercial-case-3"))
    local, remote = report.region("local"), report.region("remote")
    # PPA sourced remotely: the local mix is untouched...
    assert local.ci_res_g_per_kwh == pytest.approx(local.ci_loc_g_per_kwh, rel=1e-9)
    assert local.contracted_cfe_mwh == 0.0
    # ...while the remote residual gets browner.
    assert remote.ci_res_g_per_kwh > remote.ci_loc_g_per_kwh
    assert remote.ci_res_g_per_kwh == pytest.approx(400_000.0 / 480.0, rel=1e-9)
    assert report.consumer("C1").market_based.ci_g_per_kwh == 0.0
    assert report.consumer("H1").location_based.ci_g_per_kwh == pytest.approx(500.0, rel=1e-9)
    r1 = report.consumer("R1")
    assert r1.market_based.ci_g_per_kwh == pytest.approx(400_000.0 / 480.0, rel=1e-9)


# --- loading ----------------------------------------------------------------

def test_load_from_path(tmp_path) -> None:
    path = tmp_path / "custom-case.yaml"
    path.write_text(
        "regions:\n"
        "  r:\n"
        "    generation: {wind: 30, gas: 70}\n"
        "consumers:\n"
        "  - {id: a, region: r, demand_kwh: 100}\n",
        encoding="utf-8",
    )
    scenario = load_scenario(path)
    assert scenario.name == "custom-case"  # falls back to the file stem
    report = run_scenario(scenario)
    assert report.consumer("a").selected.ci_g_per_kwh == pytest.approx(490.0 * 0.7)


def test_load_from_stream() -> None:
    stream = io.StringIO(
        "name: streamed\n"
        "regions: {r: {generation: {nuclear: 100}}}\n"
        "consumers: [{id: a, region: r, demand_kwh: 1}]\n"
    )
    scenario = load_scenario(stream)
    assert scenario.name == "streamed"
    assert run_scenario(scenario).consumer("a").selected.ci_g_per_kwh == 0.0


# --- YAML decoding -------------------------------------------------------------

# YAML 1.1 scalars whose tags, values or errors differ between plain
# readings and what SafeConstructor does, and scalars the decoder builds itself.
_SCALARS = (
    "0x1F", "-0x1F", "017", "-017", "0o17", "0b101", "1_000", "+5", "-7", "0", "-0", "00",
    "12", "123456789012345678901234567890", "-0.0", "1.5e+3", "1.5E-3", "3.25", "1_000.5",
    ".5", "1e5", ".inf", "-.Inf", ".NaN", "1:30", "-1:30", "1:30.5", "yes", "No", "on", "OFF",
    "true", "False", "~", "null", "Null", "''", '"quoted"', "plain text", "=", "<<",
    "2001-12-14", "2001-12-14t21:59:43.10-05:00", "2001-12-14 21:59:43.10",
    "!!binary aGVsbG8=", "!!binary '!!'", "!!int 12", "!!int +-5", "!!int x", "!!int ''",
    "!!float 1", "!!float +-1", "!!float x", "!!bool maybe", "!!bool yes", "!!str 5",
    "!!null x", "!!timestamp x", "!local x", "!!python/name:os.system", "!!value x",
    "!!map x", "!!seq x", "!!set x",
)
_BAD = ("!!int x", "!!float y", "!!bool maybe", "!!timestamp t", "!local z", "!!binary '!!'", "=")
_KEYS = ("a", "b", "1", "1.0", "true", "~", "017", "2001-12-14", "!!binary aGVsbG8=", "!local k")
_COLLECTION_TAGS = ("",) * 6 + ("!!seq ", "!!map ", "!!set ", "!!omap ", "!!pairs ", "!local ")


@st.composite
def yaml_documents(draw) -> str:
    """One flow-style YAML document: edge-case scalars, tagged
    collections, anchors and aliases (recursive ones too), merge and ``=``
    keys, collection and duplicate keys; sometimes two bad nodes, cut
    short, or followed by a second document."""
    anchors: list[str] = []

    def node(depth: int) -> str:
        kinds = ["scalar", "scalar", "alias", "seq", "map"] if depth < 3 else ["scalar", "alias"]
        kind = draw(st.sampled_from(kinds))
        if kind == "alias" and anchors:
            return "*" + draw(st.sampled_from(anchors))
        anchor = ""
        if draw(st.integers(0, 3)) == 0:
            anchor = f"a{len(anchors)}"
        if kind in ("scalar", "alias"):
            text = draw(st.sampled_from(_SCALARS))
            anchors.extend([anchor] if anchor else [])
            return f"&{anchor} {text}" if anchor else text
        anchors.extend([anchor] if anchor else [])  # its own entries may refer to it
        prefix = (f"&{anchor} " if anchor else "") + draw(st.sampled_from(_COLLECTION_TAGS))
        count = draw(st.integers(0, 3))
        if kind == "seq":
            return prefix + "[" + ", ".join(node(depth + 1) for _ in range(count)) + "]"
        entries = []
        for _ in range(count):
            key = draw(st.sampled_from(["plain", "plain", "plain", "<<", "=", "node"]))
            if key == "plain":
                key = draw(st.sampled_from(_KEYS))
            elif key == "node":
                key = "? " + node(depth + 1)
            entries.append(key if draw(st.integers(0, 5)) == 0 else f"{key} : {node(depth + 1)}")
        return prefix + "{" + ", ".join(entries) + "}"

    text = node(0)
    if draw(st.integers(0, 5)) == 0:  # two bad nodes, the first one nested deeper
        first, second = draw(st.sampled_from(_BAD)), draw(st.sampled_from(_BAD))
        forms = (f"[[{first}], {second}]", f"{{a: {{b: {first}}}, c: {second}}}", f"[{text}, {second}]")
        text = draw(st.sampled_from(forms))
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    if draw(st.integers(0, 9)) == 0:
        text += "\n---\n" + node(0)
    return text + "\n"


def _outcome(call):
    """``call()``'s result, or its error as (type, message)."""
    try:
        return call()
    except Exception as exc:  # the error is the result compared
        return (type(exc), str(exc))


def _same(a, b, paired: dict, seen: set) -> bool:
    """Equal values of equal types, NaN and -0.0 included, with the same
    containers shared: each container of ``a`` pairs with one of ``b``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, dict, set)):
        if id(a) in paired:
            return paired[id(a)] is b
        if id(b) in seen:
            return False
        paired[id(a)] = b
        seen.add(id(b))
        if isinstance(a, set):
            return sorted(map(repr, a)) == sorted(map(repr, b))
        if isinstance(a, dict):
            a, b = list(a.items()), list(b.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y, paired, seen) for x, y in zip(a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


def _stream(text: str, source: str) -> io.StringIO:
    """``text`` in a stream of its own, or after a line already read."""
    stream = io.StringIO(text if source == "string" else "skipped line\n" + text)
    if source == "stream":
        stream.readline()
    return stream


def _as_read(expected):
    """What ``_read_yaml`` gives for ``yaml.load``'s result or error: a
    constructor's error becomes one SchemaError naming the input."""
    if isinstance(expected, tuple) and not issubclass(expected[0], yaml.YAMLError):
        kind, message = expected
        return (SchemaError, f"doc: cannot decode a YAML value: {kind.__name__}: {message}")
    return expected


@pytest.mark.parametrize("loader", [yaml.SafeLoader, yamlscan._loader()])
@settings(max_examples=500, deadline=None)
@given(text=yaml_documents(), source=st.sampled_from(["string", "stream"]))
def test_load_yaml_matches_yaml_load(loader, text: str, source: str) -> None:
    """``_read_yaml`` gives the value (type, aliasing and all) or the error
    (type and message) that ``yaml.load`` gives, with either loader; an
    error that is not PyYAML's is one SchemaError naming the input."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(yamlscan, "_YAML_LOADER", loader)
        got = _outcome(lambda: yamlscan._read_yaml(_stream(text, source), "doc"))
    expected = _as_read(_outcome(lambda: yaml.load(_stream(text, source), Loader=loader)))
    assert _same(got, expected, {}, set()), (text, got, expected)


def test_cef_override_changes_ci() -> None:
    scenario = parse_scenario(_minimal(cef_g_per_kwh={"coal": 800.0}))
    report = run_scenario(scenario)
    assert report.consumer("H1").selected.ci_g_per_kwh == pytest.approx(400.0)


@pytest.mark.parametrize(
    "generation",
    [{"coal": 1.0e308, "wind": 1.0}, {"wind": 1.0e308, "solar": 1.0e308}],
    ids=["emissions", "total"],
)
def test_generation_overflow_is_a_region_error(generation) -> None:
    """A generation whose total or MWh times CEF overflows is named at its
    input, not later as an infinite carbon intensity."""
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(_minimal(regions={"r": {"generation": generation}}))
    assert exc.value.field == "regions.r.generation"


def test_tagged_scalar_is_a_schema_error() -> None:
    """A value its tag's constructor cannot build is one error naming the input."""
    text = "name: !!bool maybe\nregions: {r: {generation: {wind: 1}}}\n"
    with pytest.raises(SchemaError, match=r"^<stream>: cannot decode a YAML value: KeyError: 'maybe'$"):
        load_scenario(io.StringIO(text))


def test_yaml_syntax_error_names_the_file(tmp_path) -> None:
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: t\nregions: [unclosed\n", encoding="utf-8")
    with pytest.raises(yaml.YAMLError, match=f'in "{bad}", line'):
        load_scenario(bad)


@pytest.mark.parametrize(
    ("raw", "prefix", "field", "reason"),
    [
        ({"coall": 5}, "cef_g_per_kwh", "cef_g_per_kwh.coall", "unknown source category"),
        ({"gas": float("nan")}, "", "gas", "must not be NaN or infinite, got nan"),
        ({"gas": -(10**400)}, "x", "x.gas", "must not be NaN or infinite, got -inf"),
        ({"gas": True}, "", "gas", "expected a number, got True"),
        (["gas"], "", "<root>", "expected a mapping of category to g/kWh"),
        ("gas", "cef_g_per_kwh", "cef_g_per_kwh", "expected a mapping of category to g/kWh"),
    ],
)
def test_cef_overrides_name_the_field(raw, prefix: str, field: str, reason: str) -> None:
    with pytest.raises(ScenarioInvalid) as exc:
        parse_cef_overrides(raw, prefix)
    assert (exc.value.field, exc.value.reason) == (field, reason)


def test_cef_overrides_are_floats() -> None:
    overrides = parse_cef_overrides({"gas": 520, "coal": 0.5}, "cef_g_per_kwh")
    assert overrides == {"gas": 520.0, "coal": 0.5}
    assert all(type(value) is float for value in overrides.values())
    assert gridcarbon.load_cef_table is scenarios.load_cef_table


def _nesting(text: str) -> int:
    """The deepest collection nesting among libyaml's parse events."""
    depth = deepest = 0
    for event in yaml.parse(text, Loader=yamlscan._loader()):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            deepest = max(deepest, depth)
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
    return deepest


# Plain words, some with a bracket, which block style writes unquoted.
_WORDS = st.sampled_from(["a", "b c", "x]", "y}", "z]]", "-", "1"])
_NESTED = st.recursive(
    _WORDS | st.integers(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("klm"), inner, max_size=3),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(data=_NESTED, flow=st.sampled_from([None, True, False]), indent=st.integers(2, 5), levels=st.integers(1, 12))
def test_nesting_scan_over_approximates(data, flow, indent: int, levels: int) -> None:
    """A document nested deeper than ``levels`` is never let through to
    libyaml's recursive composer."""
    text = yaml.dump(data, default_flow_style=flow, indent=indent)
    if _nesting(text) > levels:
        assert yamlscan._could_nest_deeper(text, levels), text


@st.composite
def flow_documents(draw) -> str:
    """A block mapping whose values are plain scalars holding closing
    brackets, or flow collections nested up to 40 deep whose items may be
    empty collections, quoted scalars or comments holding closing brackets."""
    closers = st.integers(1, 30).map(lambda n: "]" * n)
    kinds = ["", "b", "[]", *draw(st.sampled_from([[], ["quoted"], ["comment"], ["quoted", "comment"]]))]

    def flow(depth: int) -> str:
        if depth == 0:
            return draw(st.sampled_from(["a", "[]", "{}"]))
        inner = flow(depth - 1)
        item = draw(st.sampled_from(kinds))
        if item == "quoted":
            item = f'"{draw(closers)}"'
        elif item == "comment":
            item = f"c  # {draw(closers)}\n"
        items = [inner, item] if item else [inner]
        if draw(st.booleans()):
            items.reverse()
        if draw(st.booleans()):
            return "[" + ", ".join(items) + "]"
        return "{" + ", ".join(f"k{i}: {value}" for i, value in enumerate(items)) + "}"

    lines = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            lines.append(f"k{i}: x{draw(closers)}")
        else:
            lines.append(f"k{i}: {flow(draw(st.integers(0, 40)))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=flow_documents(), levels=st.integers(12, 40))
def test_nesting_scan_over_approximates_flow(text: str, levels: int) -> None:
    if _nesting(text) > levels:
        assert yamlscan._could_nest_deeper(text, levels), text


@pytest.mark.parametrize("name", BUILTINS)
def test_bundled_scenarios_stay_on_libyaml(name: str) -> None:
    """The scanner reads every bundled scenario, to the value PyYAML gives;
    were one declined, it would still go to libyaml."""
    text = (Path(scenarios.__file__).parent / "data" / "scenarios" / f"{name}.yaml").read_text(encoding="utf-8")
    assert yamlscan._Scanner(text).document() == yaml.load(text, Loader=yaml.SafeLoader)
    assert not yamlscan._could_nest_deeper(text, yamlscan._C_NESTING)


def test_energy_series_contract() -> None:
    data = _minimal(
        contracts=[{
            "id": "c", "buyer": "H1", "kind": "financial",
            "source": "wind", "region": "r", "energy_mwh": [0.0, 0.005],
        }]
    )
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(data)
    assert exc.value.field == "contracts[0].energy_mwh"


# --- validation failures ----------------------------------------------------

@pytest.mark.parametrize(
    ("mutate", "field"),
    [
        (lambda d: d.update(bogus=1), "bogus"),
        (lambda d: d.update(name=""), "name"),
        (lambda d: d.update(description=7), "description"),
        (lambda d: d.update(regions={}), "regions"),
        (lambda d: d.update(regions={"r": []}), "regions.r"),
        (lambda d: d.update(regions={"r": {"generation": {}}}), "regions.r.generation"),
        (
            lambda d: d.update(regions={"r": {"generation": {"plutonium": 1}}}),
            "regions.r.generation.plutonium",
        ),
        (
            lambda d: d.update(regions={"r": {"generation": {"wind": -1}}}),
            "regions.r.generation.wind",
        ),
        (
            lambda d: d.update(regions={"r": {"generation": {"wind": 1}, "demand_mwh": 0}}),
            "regions.r.demand_mwh",
        ),
        (
            lambda d: d.update(regions={"r": {"generation": {"wind": 1}, "extra": 1}}),
            "regions.r.extra",
        ),
        (lambda d: d.update(consumers=[]), "consumers"),
        (lambda d: d.update(consumers="H1"), "consumers"),
        (lambda d: d.update(consumers=[{"region": "r", "demand_kwh": 1}]), "consumers[0].id"),
        (
            lambda d: d.update(consumers=d["consumers"] * 2),
            "consumers[1].id",
        ),
        (
            lambda d: d.update(consumers=[{"id": "a", "region": "x", "demand_kwh": 1}]),
            "consumers[0].region",
        ),
        (
            lambda d: d.update(consumers=[{"id": "a", "region": "r", "demand_kwh": 1,
                                           "method": "vibes"}]),
            "consumers[0].method",
        ),
        (
            lambda d: d.update(consumers=[{"id": "a", "region": "r", "demand_kwh": -1}]),
            "consumers[0].demand_kwh",
        ),
        (
            lambda d: d.update(consumers=[{"id": "a", "region": "r", "demand_kwh": True}]),
            "consumers[0].demand_kwh",
        ),
        (lambda d: d.update(contracts="nope"), "contracts"),
        (
            lambda d: d.update(contracts=[{"buyer": "H1", "kind": "rec", "source": "wind",
                                           "region": "r", "energy_mwh": 1}]),
            "contracts[0].id",
        ),
        (
            lambda d: d.update(contracts=[{"id": "c", "buyer": "ghost", "kind": "rec",
                                           "source": "wind", "region": "r", "energy_mwh": 1}]),
            "contracts[0].buyer",
        ),
        (
            lambda d: d.update(contracts=[{"id": "c", "buyer": "H1", "kind": "barter",
                                           "source": "wind", "region": "r", "energy_mwh": 1}]),
            "contracts[0].kind",
        ),
        (
            lambda d: d.update(contracts=[{"id": "c", "buyer": "H1", "kind": "rec",
                                           "source": "coal", "region": "r", "energy_mwh": 1}]),
            "contracts[0].source",
        ),
        (
            lambda d: d.update(contracts=[{"id": "c", "buyer": "H1", "kind": "rec",
                                           "source": "wind", "region": "x", "energy_mwh": 1}]),
            "contracts[0].region",
        ),
        (
            lambda d: d.update(contracts=[{"id": "c", "buyer": "H1", "kind": "rec",
                                           "source": "wind", "region": "r", "energy_mwh": -1}]),
            "contracts[0].energy_mwh",
        ),
        (
            lambda d: d.update(contracts=[{"id": "c", "buyer": "H1", "kind": "rec",
                                           "source": "wind", "region": "r",
                                           "energy_mwh": [1, -2]}]),
            "contracts[0].energy_mwh[1]",
        ),
        (lambda d: d.update(cef_g_per_kwh="coal"), "cef_g_per_kwh"),
        (lambda d: d.update(cef_g_per_kwh={"coal": -5}), "cef_g_per_kwh.coal"),
        (lambda d: d.update(public_signal_adjusted="yes"), "public_signal_adjusted"),
    ],
)
def test_invalid_scenarios(mutate, field: str) -> None:
    data = _minimal()
    mutate(data)
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(data)
    assert exc.value.field == field


def _contract(energy) -> dict:
    return {"id": "c", "buyer": "H1", "kind": "rec", "source": "wind", "region": "r",
            "energy_mwh": energy}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400])
@pytest.mark.parametrize(
    ("mutate", "field"),
    [
        (lambda d, v: d["regions"]["r"]["generation"].update(wind=v), "regions.r.generation.wind"),
        (lambda d, v: d["regions"]["r"].update(demand_mwh=v), "regions.r.demand_mwh"),
        (lambda d, v: d["consumers"][0].update(demand_kwh=v), "consumers[0].demand_kwh"),
        (lambda d, v: d.update(contracts=[_contract(v)]), "contracts[0].energy_mwh"),
        (lambda d, v: d.update(contracts=[_contract([1, v])]), "contracts[0].energy_mwh[1]"),
        (lambda d, v: d.update(cef_g_per_kwh={"gas": v}), "cef_g_per_kwh.gas"),
    ],
)
def test_every_number_must_be_finite(mutate, field: str, value) -> None:
    data = _minimal()
    mutate(data, value)
    with pytest.raises(ScenarioInvalid, match="must not be NaN or infinite") as exc:
        parse_scenario(data)
    assert exc.value.field == field


def test_root_must_be_mapping() -> None:
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(["not", "a", "mapping"])
    assert exc.value.field == "<root>"


def test_duplicate_contract_ids() -> None:
    contract = {"id": "c", "buyer": "H1", "kind": "rec", "source": "wind",
                "region": "r", "energy_mwh": 1}
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(_minimal(contracts=[contract, dict(contract)]))
    assert exc.value.field == "contracts[1].id"


@pytest.mark.parametrize("key", ["id", "buyer", "kind", "source", "region", "energy_mwh"])
def test_absent_contract_field_reads_missing(key: str) -> None:
    contract = {"id": "c", "buyer": "H1", "kind": "rec", "source": "wind",
                "region": "r", "energy_mwh": 1}
    del contract[key]
    with pytest.raises(ScenarioInvalid, match=rf"^contracts\[0\]\.{key}: missing$") as exc:
        parse_scenario(_minimal(contracts=[contract]))
    assert exc.value.field == f"contracts[0].{key}"


def test_physical_contract_must_stay_in_buyer_region() -> None:
    data = {
        "name": "t",
        "regions": {
            "here": {"generation": {"wind": 10.0, "coal": 10.0}},
            "there": {"generation": {"solar": 10.0, "coal": 10.0}},
        },
        "consumers": [{"id": "a", "region": "here", "demand_kwh": 1.0}],
        "contracts": [{
            "id": "c", "buyer": "a", "kind": "physical_offsite",
            "source": "solar", "region": "there", "energy_mwh": 1.0,
        }],
    }
    with pytest.raises(ScenarioInvalid) as exc:
        parse_scenario(data)
    assert exc.value.field == "contracts[0].region"
    # The same deal as a financial contract is fine.
    data["contracts"][0]["kind"] = "financial"
    assert parse_scenario(data).contracts[0].source_region == "there"
