"""Scenario field tables: parse -> echo -> parse, and the echo's key order."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


def test_two_hop_echo_in_a_fresh_interpreter_importing_the_record_modules_first():
    code = """
import json, sys
import wastefigure.relay as relay, wastefigure.fwa as fwa
from wastefigure.energy import EnergyContext
ctx = EnergyContext(n0=1e-20, capacity=1e8)
geometry = dict(alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=ctx)
echoes = [
    relay.RelayScenario(w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0, **geometry).to_config(),
    fwa.FwaScenario(w_tx_ue=3.0, w_tx_bs=15.0, w_tx_ap=10.0, g_rx_ue=10.0, g_rx_bs=30.0, g_rx_ap=10.0,
                    traffic=fwa.TrafficMix.from_uplink(0.25), **geometry).to_config(),
]
json.dump(echoes, sys.stdout)
"""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    relay_echo, fwa_echo = json.loads(proc.stdout)
    assert list(relay_echo) == ["relay_scenario"] and list(fwa_echo) == ["fwa_scenario"]
    assert relay_echo["relay_scenario"]["g_rx_relay"] == 1e3
    assert fwa_echo["fwa_scenario"]["rho_u"] == 0.25
    for doc in (relay_echo, fwa_echo):
        assert echo(parse_scenario(doc)) == doc
