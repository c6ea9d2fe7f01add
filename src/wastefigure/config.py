"""Scenario-file parsing and echoing.

Scenario files are JSON objects holding exactly one of the sections
``cascade``, ``link``, ``relay_scenario``, ``fwa_scenario``, plus
optional ``sweep`` (grid) and ``output`` (file paths) sections.

Unit convention: every numeric ratio field accepts either a linear
value under its bare name or a decibel value under the same name with
an ``_db`` suffix (power convention, waste figures included), never
both. Everything is converted to linear on parse; echoes emit linear
fields so a re-parsed echo reproduces the scenario exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cascade import Cascade, Stage
from .channel import PathLossChannel
from .energy import EnergyContext, LinkTerminals, _context_config
from .fwa import FwaScenario, TrafficMix
from .region import GridSpec
from .relay import RelayScenario
from .units import db_to_linear

__all__ = [
    "LinkSetup",
    "OutputSpec",
    "ScenarioFile",
    "load_scenario",
    "parse_scenario",
    "cascade_to_config",
]

_SECTIONS = ("cascade", "link", "relay_scenario", "fwa_scenario")
_KIND_BY_SECTION = {
    "cascade": "cascade",
    "link": "link",
    "relay_scenario": "relay",
    "fwa_scenario": "fwa",
}


@dataclass(frozen=True)
class LinkSetup:
    """Parsed ``link`` section: terminals, channel, operating point."""

    ctx: EnergyContext
    terminals: LinkTerminals
    g_ch: float
    channel: PathLossChannel | None  # present when given as k/alpha/distance

    def to_config(self) -> dict:
        if self.channel is not None:
            channel = {
                "k": self.channel.k,
                "alpha": self.channel.alpha,
                "distance": self.channel.distance,
            }
        else:
            channel = {"gain": self.g_ch}
        return {
            "link": {
                "terminals": {
                    "w_tx": self.terminals.w_tx,
                    "w_rx": self.terminals.w_rx,
                    "g_rx": self.terminals.g_rx,
                },
                "channel": channel,
                "energy": _context_config(self.ctx),
            }
        }


@dataclass(frozen=True)
class OutputSpec:
    """Parsed ``output`` section: where to put region files."""

    csv: str | None = None
    json: str | None = None


@dataclass(frozen=True)
class ScenarioFile:
    """One parsed scenario file; ``kind`` names the populated section."""

    kind: str
    cascade: Cascade | None = None
    link: LinkSetup | None = None
    relay: RelayScenario | None = None
    fwa: FwaScenario | None = None
    sweep: GridSpec | None = None
    output: OutputSpec | None = None


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(
            f"{where}: unknown field(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _num(section: dict, key: str, where: str) -> float:
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}.{key}: expected a number, got {value!r}")
    return float(value)


def _require_num(section: dict, key: str, where: str) -> float:
    if key not in section:
        raise ValueError(f"{where}: missing required field {key}")
    return _num(section, key, where)


def _ratio(section: dict, key: str, where: str, required: bool = True) -> float | None:
    """Fetch a ratio given linearly (``key``) or in dB (``key_db``)."""
    has_lin = key in section
    has_db = f"{key}_db" in section
    if has_lin and has_db:
        raise ValueError(f"{where}: give {key} or {key}_db, not both")
    if has_lin:
        return _num(section, key, where)
    if has_db:
        return db_to_linear(_num(section, f"{key}_db", where))
    if required:
        raise ValueError(f"{where}: missing required field {key} (or {key}_db)")
    return None


def _require_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    return value


def _shared_direction_value(
    section: dict, base: str, where: str, default: float | None
) -> float:
    """Resolve a value that may be given shared or per direction.

    Per-direction fields are accepted for compatibility with layouts
    that track uplink and downlink separately, but the comparison
    assumes they are equal and rejects anything else.
    """
    up, down = f"{base}_uplink", f"{base}_downlink"
    shared = _num(section, base, where) if base in section else None
    if up in section or down in section:
        if not (up in section and down in section):
            raise ValueError(f"{where}: give both {up} and {down}, or just {base}")
        v_up = _num(section, up, where)
        v_down = _num(section, down, where)
        if v_up != v_down:
            raise ValueError(
                f"{where}: {up} and {down} must be equal (the energy comparison "
                f"assumes shared values), got {v_up!r} and {v_down!r}"
            )
        if shared is not None and shared != v_up:
            raise ValueError(f"{where}: {base} disagrees with its per-direction fields")
        return v_up
    if shared is None:
        if default is None:
            raise ValueError(f"{where}: missing required field {base}")
        return default
    return shared


def _parse_energy(section, where: str) -> EnergyContext:
    section = _require_mapping(section, where)
    _check_keys(
        section,
        {
            "n0",
            "capacity",
            "p_np",
            "capacity_uplink",
            "capacity_downlink",
            "p_np_uplink",
            "p_np_downlink",
        },
        where,
    )
    if "n0" not in section:
        raise ValueError(f"{where}: missing required field n0")
    return EnergyContext(
        n0=_num(section, "n0", where),
        capacity=_shared_direction_value(section, "capacity", where, default=None),
        p_np=_shared_direction_value(section, "p_np", where, default=0.0),
    )


def _parse_stage(entry, index: int) -> Stage:
    where = f"cascade[{index}]"
    entry = _require_mapping(entry, where)
    _check_keys(entry, {"label", "gain", "gain_db", "waste", "waste_db", "passive"}, where)
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


def _parse_cascade(section) -> Cascade:
    if not isinstance(section, list):
        raise ValueError(f"cascade: expected a list of stages, got {section!r}")
    return Cascade(tuple(_parse_stage(entry, i) for i, entry in enumerate(section)))


def cascade_to_config(c: Cascade) -> dict:
    """Cascade echoed as a config mapping (linear units, re-parseable)."""
    return {
        "cascade": [
            {"label": st.label, "gain": st.gain, "waste": st.waste} for st in c.stages
        ]
    }


def _parse_channel(section, where: str) -> tuple[float, PathLossChannel | None]:
    section = _require_mapping(section, where)
    _check_keys(section, {"k", "alpha", "distance", "gain", "gain_db"}, where)
    path_loss_keys = {"k", "alpha", "distance"} & set(section)
    gain_keys = {"gain", "gain_db"} & set(section)
    if path_loss_keys and gain_keys:
        raise ValueError(
            f"{where}: give either k/alpha/distance or gain, not both "
            f"({sorted(path_loss_keys | gain_keys)})"
        )
    if gain_keys:
        gain = _ratio(section, "gain", where)
        if not 0.0 < gain <= 1.0:
            raise ValueError(f"{where}: channel gain must be in (0, 1], got {gain!r}")
        return gain, None
    if path_loss_keys != {"k", "alpha", "distance"}:
        raise ValueError(f"{where}: path-loss form needs k, alpha and distance")
    ch = PathLossChannel(
        k=_num(section, "k", where),
        alpha=_num(section, "alpha", where),
        distance=_num(section, "distance", where),
    )
    return ch.gain(), ch


def _parse_terminals(section, where: str) -> LinkTerminals:
    section = _require_mapping(section, where)
    _check_keys(
        section, {"w_tx", "w_tx_db", "w_rx", "w_rx_db", "g_rx", "g_rx_db"}, where
    )
    return LinkTerminals(
        w_tx=_ratio(section, "w_tx", where),
        w_rx=_ratio(section, "w_rx", where),
        g_rx=_ratio(section, "g_rx", where),
    )


def _parse_link(section) -> LinkSetup:
    where = "link"
    section = _require_mapping(section, where)
    _check_keys(section, {"terminals", "channel", "energy"}, where)
    for key in ("terminals", "channel", "energy"):
        if key not in section:
            raise ValueError(f"{where}: missing required section {key}")
    g_ch, channel = _parse_channel(section["channel"], f"{where}.channel")
    return LinkSetup(
        ctx=_parse_energy(section["energy"], f"{where}.energy"),
        terminals=_parse_terminals(section["terminals"], f"{where}.terminals"),
        g_ch=g_ch,
        channel=channel,
    )


def _parse_relay(section) -> RelayScenario:
    where = "relay_scenario"
    section = _require_mapping(section, where)
    _check_keys(
        section,
        {
            "w_tx_source", "w_tx_source_db",
            "w_tx_relay", "w_tx_relay_db",
            "g_rx_relay", "g_rx_relay_db",
            "g_rx_sink", "g_rx_sink_db",
            "alpha", "k", "d1", "d2", "d3", "energy",
        },
        where,
    )
    if "energy" not in section:
        raise ValueError(f"{where}: missing required section energy")
    return RelayScenario(
        w_tx_source=_ratio(section, "w_tx_source", where),
        w_tx_relay=_ratio(section, "w_tx_relay", where),
        g_rx_relay=_ratio(section, "g_rx_relay", where),
        g_rx_sink=_ratio(section, "g_rx_sink", where),
        alpha=_require_num(section, "alpha", where),
        d1=_require_num(section, "d1", where),
        d2=_require_num(section, "d2", where),
        d3=_require_num(section, "d3", where),
        ctx=_parse_energy(section["energy"], f"{where}.energy"),
        k=_num(section, "k", where) if "k" in section else 1.0,
    )


def _parse_fwa(section) -> FwaScenario:
    where = "fwa_scenario"
    section = _require_mapping(section, where)
    _check_keys(
        section,
        {
            "w_tx_ue", "w_tx_ue_db", "w_tx_bs", "w_tx_bs_db", "w_tx_ap", "w_tx_ap_db",
            "g_rx_ue", "g_rx_ue_db", "g_rx_bs", "g_rx_bs_db", "g_rx_ap", "g_rx_ap_db",
            "rho_u", "alpha", "k", "d1", "d2", "d3", "energy",
        },
        where,
    )
    for key in ("rho_u", "energy"):
        if key not in section:
            raise ValueError(f"{where}: missing required field {key}")
    return FwaScenario(
        w_tx_ue=_ratio(section, "w_tx_ue", where),
        w_tx_bs=_ratio(section, "w_tx_bs", where),
        w_tx_ap=_ratio(section, "w_tx_ap", where),
        g_rx_ue=_ratio(section, "g_rx_ue", where),
        g_rx_bs=_ratio(section, "g_rx_bs", where),
        g_rx_ap=_ratio(section, "g_rx_ap", where),
        traffic=TrafficMix.from_uplink(_num(section, "rho_u", where)),
        alpha=_require_num(section, "alpha", where),
        d1=_require_num(section, "d1", where),
        d2=_require_num(section, "d2", where),
        d3=_require_num(section, "d3", where),
        ctx=_parse_energy(section["energy"], f"{where}.energy"),
        k=_num(section, "k", where) if "k" in section else 1.0,
    )


def _parse_sweep(section, default_d3: float) -> GridSpec:
    where = "sweep"
    section = _require_mapping(section, where)
    _check_keys(section, {"mode", "x_range", "y_range", "nx", "ny", "d3"}, where)
    mode = section.get("mode", "normalized")
    d3 = _num(section, "d3", where) if "d3" in section else default_d3
    if mode == "planar":
        base = GridSpec.planar_around(d3)
    else:
        base = GridSpec(mode=mode, d3=d3)
    kwargs = {}
    for key in ("x_range", "y_range"):
        if key in section:
            rng = section[key]
            if not isinstance(rng, (list, tuple)) or len(rng) != 2:
                raise ValueError(f"{where}.{key}: expected [low, high], got {rng!r}")
            kwargs[key] = (float(rng[0]), float(rng[1]))
    for key in ("nx", "ny"):
        if key in section:
            n = section[key]
            if isinstance(n, bool) or not isinstance(n, int):
                raise ValueError(f"{where}.{key}: expected an integer, got {n!r}")
            kwargs[key] = n
    if not kwargs:
        return base
    return GridSpec(
        mode=base.mode,
        x_range=kwargs.get("x_range", base.x_range),
        y_range=kwargs.get("y_range", base.y_range),
        nx=kwargs.get("nx", base.nx),
        ny=kwargs.get("ny", base.ny),
        d3=base.d3,
    )


def _parse_output(section) -> OutputSpec:
    where = "output"
    section = _require_mapping(section, where)
    _check_keys(section, {"csv", "json"}, where)
    for key in ("csv", "json"):
        if key in section and not isinstance(section[key], str):
            raise ValueError(f"{where}.{key}: expected a path string, got {section[key]!r}")
    return OutputSpec(csv=section.get("csv"), json=section.get("json"))


def parse_scenario(data) -> ScenarioFile:
    """Parse a decoded scenario document into validated objects."""
    data = _require_mapping(data, "scenario file")
    _check_keys(data, set(_SECTIONS) | {"sweep", "output"}, "scenario file")
    present = [name for name in _SECTIONS if name in data]
    if len(present) != 1:
        raise ValueError(
            "scenario file must contain exactly one of "
            f"{'/'.join(_SECTIONS)}, found {present or 'none'}"
        )
    section = present[0]
    kind = _KIND_BY_SECTION[section]

    cascade = link = relay = fwa = None
    default_d3 = 1.0
    if section == "cascade":
        cascade = _parse_cascade(data["cascade"])
    elif section == "link":
        link = _parse_link(data["link"])
    elif section == "relay_scenario":
        relay = _parse_relay(data["relay_scenario"])
        default_d3 = relay.d3
    else:
        fwa = _parse_fwa(data["fwa_scenario"])
        default_d3 = fwa.d3

    sweep = _parse_sweep(data["sweep"], default_d3) if "sweep" in data else None
    output = _parse_output(data["output"]) if "output" in data else None
    if sweep is not None and kind not in ("relay", "fwa"):
        raise ValueError("sweep sections apply to relay_scenario and fwa_scenario only")
    return ScenarioFile(
        kind=kind,
        cascade=cascade,
        link=link,
        relay=relay,
        fwa=fwa,
        sweep=sweep,
        output=output,
    )


def load_scenario(path) -> ScenarioFile:
    """Read and parse a scenario file; I/O errors propagate as OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return parse_scenario(data)
