"""Scenario field tables: parse -> echo -> parse, and the echo's key order."""

import copy
import json
import math
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wastefigure import cascade as cascade_module, config, energy as energy_module
from wastefigure.cascade import Stage
from wastefigure.energy import EnergyContext, LinkTerminals
from wastefigure.fwa import FwaScenario, fwa_verdict
from wastefigure.config import cascade_to_config, load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def echo(sf):
    if sf.kind == "cascade":
        return cascade_to_config(sf.cascade)
    return getattr(sf, sf.kind).to_config()


@st.composite
def ratio(draw, out, key, lo, hi):
    """Set ``key`` linearly or ``key_db`` in dB, for a linear value in [lo, hi]."""
    if draw(st.booleans()):
        out[key] = draw(st.floats(lo, hi))
    else:
        out[f"{key}_db"] = draw(st.floats(10.0 * math.log10(lo), 10.0 * math.log10(hi)))
    return out


@st.composite
def energy(draw):
    out = {"n0": draw(st.floats(1e-22, 1e-18))}
    for key, value, optional in (
        ("capacity", draw(st.floats(1e6, 1e9)), False),
        ("p_np", draw(st.floats(0.0, 10.0)), True),
    ):
        form = draw(st.sampled_from(["shared", "per-direction", "absent"] if optional
                                    else ["shared", "per-direction"]))
        if form == "shared":
            out[key] = value
        elif form == "per-direction":
            out[f"{key}_uplink"] = out[f"{key}_downlink"] = value
    return out


@st.composite
def geometry(draw, out):
    out["alpha"] = draw(st.floats(1.0, 6.0))
    if draw(st.booleans()):
        out["k"] = draw(st.floats(1e-9, 1.0))
    for key in ("d1", "d2", "d3"):
        out[key] = draw(st.floats(0.1, 100.0))
    out["energy"] = draw(energy())
    return out


@st.composite
def cascade_doc(draw):
    stages = []
    for i in range(draw(st.integers(1, 5))):
        stage = {"label": f"s{i}"} if draw(st.booleans()) else {}
        if draw(st.booleans()):
            draw(ratio(stage, "gain", 0.01, 1.0))
            stage["passive"] = True
        else:
            draw(ratio(stage, "gain", 0.5, 1000.0))
            draw(ratio(stage, "waste", 1.0, 10.0))
        stages.append(stage)
    return {"cascade": stages}


@st.composite
def link_doc(draw):
    terminals = {}
    draw(ratio(terminals, "w_tx", 1.0, 5.0))
    draw(ratio(terminals, "w_rx", 1.0, 3.0))
    draw(ratio(terminals, "g_rx", 0.1, 1000.0))
    if draw(st.booleans()):
        channel = {
            "k": draw(st.floats(1e-8, 1e-3)),
            "alpha": draw(st.floats(2.0, 4.0)),
            "distance": draw(st.floats(1.0, 1e3)),
        }
    else:
        channel = draw(ratio({}, "gain", 1e-12, 1.0))
    return {"link": {"terminals": terminals, "channel": channel, "energy": draw(energy())}}


@st.composite
def relay_doc(draw):
    sec = {}
    for key, lo, hi in (("w_tx_source", 1.0, 5.0), ("w_tx_relay", 1.0, 5.0),
                        ("g_rx_relay", 0.1, 1e3), ("g_rx_sink", 0.1, 1e3)):
        draw(ratio(sec, key, lo, hi))
    return {"relay_scenario": draw(geometry(sec))}


@st.composite
def fwa_doc(draw):
    sec = {}
    for key in ("w_tx_ue", "w_tx_bs", "w_tx_ap"):
        draw(ratio(sec, key, 1.0, 20.0))
    for key in ("g_rx_ue", "g_rx_bs", "g_rx_ap"):
        draw(ratio(sec, key, 0.1, 100.0))
    sec["rho_u"] = draw(st.floats(0.0, 1.0))
    return {"fwa_scenario": draw(geometry(sec))}


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(doc=st.one_of(cascade_doc(), link_doc(), relay_doc(), fwa_doc()))
    def test_parse_echo_parse_is_the_identity(self, doc):
        sf = parse_scenario(doc)
        first = echo(sf)
        again = parse_scenario(first)
        assert again == sf
        assert echo(again) == first


class TestEchoKeyOrder:
    """The --json bytes follow the echo's key order, so it is pinned here."""

    ENERGY = ["n0", "capacity", "p_np"]

    @pytest.mark.parametrize("name, order", [
        ("relay", ["w_tx_source", "w_tx_relay", "g_rx_relay", "g_rx_sink",
                   "alpha", "k", "d1", "d2", "d3", "energy"]),
        ("fwa", ["w_tx_ue", "w_tx_bs", "w_tx_ap", "g_rx_ue", "g_rx_bs", "g_rx_ap",
                 "rho_u", "alpha", "k", "d1", "d2", "d3", "energy"]),
    ])
    def test_two_hop_sections(self, name, order):
        (section, body), = echo(load_scenario(SCENARIOS / f"{name}.json")).items()
        assert section == f"{name}_scenario"
        assert list(body) == order
        assert list(body["energy"]) == self.ENERGY

    def test_link_section(self):
        (section, body), = echo(load_scenario(SCENARIOS / "link.json")).items()
        assert section == "link"
        assert list(body) == ["terminals", "channel", "energy"]
        assert list(body["terminals"]) == ["w_tx", "w_rx", "g_rx"]
        assert list(body["channel"]) == ["k", "alpha", "distance"]
        assert list(body["energy"]) == self.ENERGY
        doc = json.loads((SCENARIOS / "link.json").read_text())
        doc["link"]["channel"] = {"gain_db": -60.0}
        assert list(echo(parse_scenario(doc))["link"]["channel"]) == ["gain"]

    def test_cascade_stages(self):
        stages = echo(load_scenario(SCENARIOS / "cascade.json"))["cascade"]
        assert [list(stage) for stage in stages] == [["label", "gain", "waste"]] * 3


class TestNumbers:
    """Numeric fields take JSON numbers only, and name the field when they cannot."""

    def relay(self, **sweep):
        doc = json.loads((SCENARIOS / "relay.json").read_text())
        return dict(doc, sweep=sweep)

    @pytest.mark.parametrize("rng", [[None, 1.0], ["0", "1.5"], [True, 2], [0, "1"], [0, [1]]])
    def test_sweep_range_rejects_non_numbers(self, rng):
        with pytest.raises(ValueError, match=r"^sweep\.x_range: expected a number, got "):
            parse_scenario(self.relay(x_range=rng))

    def test_sweep_range_takes_ints_and_floats(self):
        sf = parse_scenario(self.relay(x_range=[0, 1.5], y_range=[0.25, 2]))
        assert sf.sweep.x_range == (0.0, 1.5)
        assert sf.sweep.y_range == (0.25, 2.0)

    def test_integer_outside_the_float_range(self):
        with pytest.raises(ValueError, match=r"^sweep\.x_range: 1000+ is outside the float range"):
            parse_scenario(self.relay(x_range=[0, 10**400]))
        doc = json.loads((SCENARIOS / "relay.json").read_text())
        doc["relay_scenario"]["alpha"] = 10**400
        with pytest.raises(ValueError, match=r"^relay_scenario\.alpha: 1000+ is outside the float range"):
            parse_scenario(doc)

    @pytest.mark.parametrize("value", [4000, 1e300])
    def test_db_overflow_names_the_field(self, value):
        doc = json.loads((SCENARIOS / "relay.json").read_text())
        doc["relay_scenario"]["g_rx_sink_db"] = value
        with pytest.raises(ValueError, match=r"^relay_scenario\.g_rx_sink_db: dB value .* outside the float range"):
            parse_scenario(doc)


RELAY_DEMO = json.loads((SCENARIOS / "relay.json").read_text())
LINK_DEMO = json.loads((SCENARIOS / "link.json").read_text())


class TestSectionShapes:
    """A section of the wrong shape is a ValueError naming the section and its value."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"relay_scenario": [1]}, "relay_scenario: expected an object, got [1]"),
            # output paths are the --csv/--json flags' alone
            (dict(RELAY_DEMO, output={"csv": "region.csv"}),
             "scenario file: unknown field(s) ['output']; "
             "allowed: ['cascade', 'fwa_scenario', 'link', 'relay_scenario', 'sweep']"),
            ({"link": {k: v for k, v in LINK_DEMO["link"].items() if k != "channel"}},
             "link: missing required section channel"),
            ({"cascade": {}}, "cascade: expected a list of stages, got {}"),
            (dict(RELAY_DEMO, sweep={"x_range": [0]}), "sweep.x_range: expected [low, high], got [0]"),
            (dict(RELAY_DEMO, sweep={"nx": 2.5}), "sweep.nx: expected an integer, got 2.5"),
            # the grid's own checks, prefixed with the section like the readers' errors
            (dict(RELAY_DEMO, sweep={"x_range": [1, 0]}),
             "sweep.x_range must satisfy low < high, got (1.0, 0.0)"),
            (dict(RELAY_DEMO, sweep={"ny": 1}), "sweep.ny must be an integer >= 2, got 1"),
            (dict(RELAY_DEMO, sweep={"mode": "planar", "nx": 10**20}),
             f"sweep.nx must be at most sys.maxsize = {sys.maxsize}, got {10**20}"),
            (dict(RELAY_DEMO, sweep={"mode": "polar"}),
             "sweep.mode must be one of ('normalized', 'planar'), got 'polar'"),
            (dict(RELAY_DEMO, sweep={"d3": 0}), "sweep.d3 must be positive and finite, got 0.0"),
            # a partial or empty path-loss channel names its first missing field
            ({"link": dict(LINK_DEMO["link"], channel={"k": 1e-4, "alpha": 2.0})},
             "link.channel: missing required field distance"),
            ({"link": dict(LINK_DEMO["link"], channel={})}, "link.channel: missing required field k"),
            # a sweep on a cascade is rejected before its fields are read
            ({"cascade": [{"gain": 1.0, "waste": 2.0}], "sweep": {"nx": 1}},
             "sweep sections apply to relay_scenario and fwa_scenario only"),
        ],
        ids=["scenario-list", "output-section", "link-channel", "cascade-object", "sweep-range",
             "sweep-count", "sweep-grid-range", "sweep-grid-count", "sweep-grid-count-huge",
             "sweep-grid-mode", "sweep-grid-d3", "link-channel-partial", "link-channel-empty",
             "sweep-on-cascade"],
    )
    def test_message(self, doc, message):
        with pytest.raises(ValueError) as raised:
            parse_scenario(doc)
        assert str(raised.value) == message


FWA_HARDWARE = dict(w_tx_ue=3.0, w_tx_bs=15.0, w_tx_ap=10.0, g_rx_ue=10.0, g_rx_bs=30.0, g_rx_ap=10.0)
FWA_RHO_U = (0.25, 0.7)


@pytest.mark.filterwarnings("ignore::wastefigure.ApproximationRegimeWarning")
def test_two_hop_echo_in_a_fresh_interpreter_importing_the_record_modules_first():
    code = f"""
import json, sys
import wastefigure.relay as relay, wastefigure.fwa as fwa
from wastefigure.energy import EnergyContext
ctx = EnergyContext(n0=1e-20, capacity=1e8)
geometry = dict(alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=ctx)
echoes = [
    relay.RelayScenario(w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0, **geometry).to_config(),
    *(fwa.FwaScenario(rho_u=rho_u, **{FWA_HARDWARE!r}, **geometry).to_config() for rho_u in {FWA_RHO_U!r}),
]
json.dump(echoes, sys.stdout)
"""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    relay_echo, *fwa_echoes = json.loads(proc.stdout)
    assert list(relay_echo) == ["relay_scenario"]
    assert relay_echo["relay_scenario"]["g_rx_relay"] == 1e3
    for doc in (relay_echo, *fwa_echoes):
        assert echo(parse_scenario(doc)) == doc
    # a library-built record equals its echo's parse, verdict included (1 - 0.7 != 0.3 in floats)
    ctx = EnergyContext(n0=1e-20, capacity=1e8)
    for rho_u, fwa_echo in zip(FWA_RHO_U, fwa_echoes, strict=True):
        s = FwaScenario(rho_u=rho_u, **FWA_HARDWARE, alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=ctx)
        assert s.to_config() == fwa_echo
        assert fwa_echo["fwa_scenario"]["rho_u"] == rho_u
        parsed = parse_scenario(s.to_config()).fwa
        assert parsed == s
        assert fwa_verdict(parsed) == fwa_verdict(s)


# -- the readers and checks as they were before their fast paths ------------
#
# Each reference runs in place of the function it is named after (see
# ``reference_checks``), so its names resolve in that function's module:
# ``_absent``, ``_num``, ``_ratio``, ``_mapping``, ``db_to_linear`` and
# ``Stage`` in ``config``, ``_require_gain``, ``_require_waste`` and ``math``
# in ``cascade``, ``math`` in ``energy``.


def reference_mapping(value, allowed, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    unknown = set(value) - allowed
    if unknown:
        raise ValueError(
            f"{where}: unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )
    return value


def reference_num(section: dict, key: str, where: str, default=None) -> float:
    if key not in section:
        return _absent(default, where, f"field {key}")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where}.{key}: {value!r} is outside the float range") from None


def reference_ratio(section: dict, key: str, where: str, default=None) -> float:
    has_lin = key in section
    has_db = f"{key}_db" in section
    if has_lin and has_db:
        raise ValueError(f"{where}: give {key} or {key}_db, not both")
    if has_lin:
        return _num(section, key, where)
    if has_db:
        try:
            return db_to_linear(_num(section, f"{key}_db", where))
        except ValueError as exc:
            raise ValueError(f"{where}.{key}_db: {exc}") from None
    return _absent(default, where, f"field {key} (or {key}_db)")


def reference_parse_stage(entry, index: int):
    where = f"cascade[{index}]"
    entry = _mapping(entry, {"label", "gain", "gain_db", "waste", "waste_db", "passive"}, where)
    label = entry.get("label", f"stage {index + 1}")
    if not isinstance(label, str):
        raise ValueError(f"{where}.label: expected a string, got {label!r}")
    gain = _ratio(entry, "gain", where)
    passive = entry.get("passive", False)
    if not isinstance(passive, bool):
        raise ValueError(f"{where}.passive: expected true/false, got {passive!r}")
    if passive:
        if "waste" in entry or "waste_db" in entry:
            raise ValueError(f"{where}: a passive stage's waste is implied by its gain")
        return Stage.passive(gain, label=label)
    waste = _ratio(entry, "waste", where)
    return Stage(gain=gain, waste=waste, label=label)


def reference_require_gain(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name}: gain must be positive and finite, got {value!r}")


def reference_require_waste(name: str, value: float) -> None:
    if not (value >= 1.0 and math.isfinite(value)):
        raise ValueError(f"{name}: waste factor must be >= 1 and finite, got {value!r}")


def reference_stage_init(self, gain: float, waste: float, label: str = "") -> None:
    # the generated frozen __init__, then __post_init__
    object.__setattr__(self, "gain", gain)
    object.__setattr__(self, "waste", waste)
    object.__setattr__(self, "label", label)
    name = self.label or "stage"
    _require_gain(name, self.gain)
    _require_waste(name, self.waste)


def reference_stage_passive(cls, gain: float, label: str = ""):
    name = label or "passive stage"
    if not (0.0 < gain <= 1.0):
        raise ValueError(f"{name}: passive gain must be in (0, 1], got {gain!r}")
    return cls(gain=gain, waste=1.0 / gain, label=label)


def reference_require(name: str, value: float, *, minimum: float, exclusive: bool = False) -> None:
    ok = value > minimum if exclusive else value >= minimum
    if not (ok and math.isfinite(value)):
        bound = ">" if exclusive else ">="
        raise ValueError(f"{name} must be {bound} {minimum} and finite, got {value!r}")


@contextmanager
def reference_checks():
    """Run the references in place of today's readers and checks.

    The field tables hold the reader functions themselves, not their
    names, so each function's code is swapped: every binding of it then
    runs the reference.
    """
    swaps = [
        (config._mapping, reference_mapping),
        (config._num, reference_num),
        (config._ratio, reference_ratio),
        (config._parse_stage, reference_parse_stage),
        (cascade_module._require_gain, reference_require_gain),
        (cascade_module._require_waste, reference_require_waste),
        (Stage.__init__, reference_stage_init),
        (vars(Stage)["passive"].__func__, reference_stage_passive),
        (energy_module._require, reference_require),
    ]
    saved = [fn.__code__ for fn, _ in swaps]
    try:
        for fn, reference in swaps:
            fn.__code__ = reference.__code__
        yield
    finally:
        for (fn, _), code in zip(swaps, saved):
            fn.__code__ = code


def outcome(fn, *args) -> str:
    """The record's repr, or the ValueError's message."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


def reference_outcome(fn, *args) -> str:
    with reference_checks():
        return outcome(fn, *args)


# numbers, odd numbers and what is not a number at all
ODD = st.one_of(
    st.floats(),
    st.integers(-3, 10**6),
    st.booleans(),
    st.sampled_from([10**400, -(10**400), math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-200, 4000.0]),
    st.text(max_size=3),
    st.none(),
)
NUMBERS = st.one_of(
    st.floats(), st.integers(-3, 10**6), st.booleans(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
)
VALUES = st.one_of(
    st.floats(0.01, 1000.0),
    st.floats(-40.0, 40.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5, 10**400, True, None, "1"]),
    ODD,
)
STAGE_ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "label": st.one_of(st.just(""), st.text(max_size=3), st.none(), st.integers()),
        "gain": VALUES,
        "gain_db": VALUES,
        "waste": VALUES,
        "waste_db": VALUES,
        "passive": st.one_of(st.booleans(), ODD),
        "bogus": ODD,
    },
)


def objects(node):
    """Every object (dict) nested in ``node``, at any depth."""
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            yield from objects(child)
            if isinstance(child, dict):
                yield child


@st.composite
def mutated(draw, documents):
    """A valid document with up to four fields changed, dropped, added or respelled.

    The fields are those of the document's sections, or of the document
    itself when it has none (a stage entry).
    """
    doc = copy.deepcopy(draw(documents))
    for _ in range(draw(st.integers(0, 4))):
        section = draw(st.sampled_from(list(objects(doc)) or [doc]))
        key = draw(st.sampled_from(sorted(section))) if section else "label"
        action = draw(st.sampled_from(["value", "drop", "unknown", "respell", "passive"]))
        if action == "value":
            section[key] = draw(VALUES)
        elif action == "drop":
            section.pop(key, None)
        elif action == "unknown":
            section[key + "_x"] = draw(VALUES)
        elif action == "respell":
            section[key[:-3] if key.endswith("_db") else key + "_db"] = draw(VALUES)
        else:  # a passive stage given a waste, or a stage given a label
            section[draw(st.sampled_from(["passive", "waste", "waste_db", "label"]))] = draw(
                st.one_of(st.booleans(), st.just(""), VALUES)
            )
    return doc


class TestReadersKeepTheirOutcome:
    """Today's readers and checks give the record or the message the references give."""

    @settings(max_examples=500, deadline=None)
    @given(entry=st.one_of(STAGE_ENTRIES, mutated(cascade_doc().map(lambda d: d["cascade"][0]))),
           index=st.integers(0, 70))
    def test_stage_entries(self, entry, index):
        assert outcome(config._parse_stage, entry, index) == reference_outcome(
            config._parse_stage, entry, index
        )

    @settings(max_examples=500, deadline=None)
    @given(doc=mutated(st.one_of(link_doc(), relay_doc(), fwa_doc(), cascade_doc())))
    def test_sections(self, doc):
        assert outcome(parse_scenario, doc) == reference_outcome(parse_scenario, doc)

    @settings(max_examples=300, deadline=None)
    @given(gain=st.one_of(st.floats(0.01, 10.0), NUMBERS), waste=st.one_of(st.floats(1.0, 10.0), NUMBERS),
           label=st.sampled_from(["", "lna"]))
    def test_record_checks(self, gain, waste, label):
        for build in (
            lambda: Stage(gain, waste, label),
            lambda: Stage.passive(gain, label),
            lambda: EnergyContext(gain, waste, gain - 1.0),
            lambda: LinkTerminals(waste, gain, gain),
        ):
            assert outcome(build) == reference_outcome(build)

    def test_the_swap_runs_the_references(self):
        # an int too large for a float, given to Stage directly (a parsed one is a
        # float already): math.isfinite overflowed, the comparison names the stage
        with reference_checks():
            with pytest.raises(OverflowError):
                Stage(10**400, 1.0)
        with pytest.raises(ValueError, match=r"^stage: gain must be positive and finite, got 1000"):
            Stage(10**400, 1.0)
