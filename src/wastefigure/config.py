"""Scenario-file parsing and echoing.

Scenario files are JSON objects holding exactly one of the sections
``cascade``, ``link``, ``relay_scenario``, ``fwa_scenario``, plus an
optional ``sweep`` (grid) section.

Unit convention: every numeric ratio field accepts either a linear
value under its bare name or a decibel value under the same name with
an ``_db`` suffix (power convention, waste figures included), never
both. Everything is converted to linear on parse; echoes emit linear
fields so a re-parsed echo reproduces the scenario exactly.

The field tables (``_ENERGY``, ``_TERMINALS``, ``_PATH_LOSS``, ``_LINK``,
``_RELAY``, ``_FWA``) are the one list of each section's
accepted fields, spellings and defaults. Their rows drive parsing, the
unknown-key check and the echo, in echo order. The link, relay and FWA
tables share the one ``_ENERGY`` table as their ``energy`` row.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .cascade import Cascade, Stage
from .channel import PathLossChannel
from .energy import EnergyContext, LinkTerminals
from .fwa import FwaScenario
from .region import GridSpec
from .relay import RelayScenario
from .units import db_to_linear

__all__ = [
    "LinkSetup",
    "ScenarioFile",
    "load_scenario",
    "parse_scenario",
    "cascade_to_config",
]


@dataclass(frozen=True)
class LinkSetup:
    """Parsed ``link`` section: terminals, channel, operating point."""

    ctx: EnergyContext
    terminals: LinkTerminals
    g_ch: float
    channel: PathLossChannel | None  # present when given as k/alpha/distance

    def __post_init__(self) -> None:
        if self.channel is not None and self.g_ch != self.channel.gain():
            raise ValueError(f"g_ch {self.g_ch!r} is not the channel's gain {self.channel.gain()!r}")


@dataclass(frozen=True)
class ScenarioFile:
    """One parsed scenario file; ``kind`` names the populated section."""

    kind: str
    cascade: Cascade | None = None
    link: LinkSetup | None = None
    relay: RelayScenario | None = None
    fwa: FwaScenario | None = None
    sweep: GridSpec | None = None


def _mapping(value, allowed, where: str) -> dict:
    """``value`` as a section: an object with no keys outside ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, got {value!r}")
    if value.keys() <= allowed:
        return value
    raise ValueError(
        f"{where}: unknown field(s) {sorted(set(value) - allowed)}; allowed: {sorted(allowed)}"
    )


def _absent(default, where: str, what: str):
    """The default of a missing field; None marks a required one."""
    if default is None:
        raise ValueError(f"{where}: missing required {what}")
    return default


def _num(section: dict, key: str, where: str, default=None) -> float:
    if key not in section:
        return _absent(default, where, f"field {key}")
    value = section[key]
    if type(value) is float:  # a JSON number with a fraction or exponent: nothing to convert
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}.{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{where}.{key}: {value!r} is outside the float range") from None


def _ratio(section: dict, key: str, where: str, default=None) -> float:
    """Fetch a ratio given linearly (``key``) or in dB (``key_db``)."""
    db_key = key + "_db"
    if key in section:
        if db_key in section:
            raise ValueError(f"{where}: give {key} or {db_key}, not both")
        return _num(section, key, where)
    if db_key in section:
        try:
            return db_to_linear(_num(section, db_key, where))
        except ValueError as exc:
            raise ValueError(f"{where}.{db_key}: {exc}") from None
    return _absent(default, where, f"field {key} (or {db_key})")


def _shared_direction_value(section: dict, base: str, where: str, default) -> float:
    """Resolve a value that may be given shared or per direction.

    Per-direction fields are accepted for compatibility with layouts
    that track uplink and downlink separately, but the comparison
    assumes they are equal and rejects anything else.
    """
    up, down = f"{base}_uplink", f"{base}_downlink"
    if (up in section) != (down in section):
        raise ValueError(f"{where}: give both {up} and {down}, or just {base}")
    if up not in section:
        return _num(section, base, where, default)
    v_up, v_down = _num(section, up, where), _num(section, down, where)
    if v_up != v_down:
        raise ValueError(
            f"{where}: {up} and {down} must be equal (the energy comparison "
            f"assumes shared values), got {v_up!r} and {v_down!r}"
        )
    if base in section and _num(section, base, where) != v_up:
        raise ValueError(f"{where}: {base} disagrees with its per-direction fields")
    return v_up


def _read_channel(section: dict, key: str, where: str, default) -> tuple:
    """A link's ``(g_ch, channel)``, from either channel form."""
    if key not in section:
        return _absent(default, where, f"section {key}")
    where = f"{where}.{key}"
    section = _mapping(section[key], _PATH_LOSS.allowed | {"gain", "gain_db"}, where)
    path_loss_keys = _PATH_LOSS.allowed & set(section)
    gain_keys = {"gain", "gain_db"} & set(section)
    if path_loss_keys and gain_keys:
        raise ValueError(
            f"{where}: give either k/alpha/distance or gain, not both "
            f"({sorted(path_loss_keys | gain_keys)})"
        )
    ch = None if gain_keys else _PATH_LOSS.record(section, where)  # rejects > 1, not 0
    gain = _ratio(section, "gain", where) if ch is None else ch.gain()
    if not 0.0 < gain <= 1.0:
        raise ValueError(f"{where}: channel gain must be in (0, 1], got {gain!r}")
    return gain, ch


def _channel_echo(setup: LinkSetup, attr: str) -> dict:
    return {"gain": setup.g_ch} if setup.channel is None else _PATH_LOSS.config(setup.channel)


class _Reader(NamedTuple):
    """How a table row reads its key, which spellings it has and how it echoes."""

    read: Callable  # (section, key, where, default) -> value
    suffixes: tuple[str, ...] = ("",)
    echo: Callable = getattr  # (record, attr) -> echoed value


class _Table:
    """A section's field table, rows ``(key, reader[, default[, attr]])`` in echo order.

    ``default`` is None (the field is required) and ``attr`` the key when left
    out. ``record`` parses a section, ``config`` echoes a record (``to_config``
    under its scenario ``section``), and nested, the table reads its section.
    """

    suffixes = ("",)

    def __init__(self, cls, *rows, section=None):
        rows = [row + (None, row[0])[len(row) - 2 :] for row in rows]
        self.allowed = frozenset(key + s for key, reader, *_ in rows for s in reader.suffixes)
        self.section = section
        # compiled to one constructor call and one dict display: row loops took twice as long
        env = {"cls": cls}
        for i, (key, reader, default, attr) in enumerate(rows):
            env.update({f"r{i}": reader.read, f"d{i}": default, f"e{i}": reader.echo})
        build = ", ".join(f"{a}=r{i}(s, {k!r}, w, d{i})" for i, (k, _, _, a) in enumerate(rows))
        echo = ", ".join(f"{k!r}: x.{a}" if r.echo is getattr else f"{k!r}: e{i}(x, {a!r})"
                         for i, (k, r, _, a) in enumerate(rows))
        self.build, self.config = eval(f"lambda s, w: cls({build}), lambda x: {{{echo}}}", env)
        if section is not None:  # the same dict display, under the section's name
            self.to_config = eval(f"lambda x: {{{section!r}: {{{echo}}}}}", env)
            self.to_config.__doc__ = "Scenario as a config mapping (linear units, re-parseable)."

    def record(self, section, where: str):
        return self.build(_mapping(section, self.allowed, where), where)

    def read(self, section: dict, key: str, where: str, default):
        if key not in section:
            return _absent(default, where, f"section {key}")
        return self.record(section[key], f"{where}.{key}")

    def echo(self, record, attr: str) -> dict:
        return self.config(getattr(record, attr))


_NUM = _Reader(_num)
_RATIO = _Reader(_ratio, ("", "_db"))
_SHARED = _Reader(_shared_direction_value, ("", "_uplink", "_downlink"))

_PATH_LOSS = _Table(PathLossChannel, ("k", _NUM), ("alpha", _NUM), ("distance", _NUM))
_ENERGY = _Table(EnergyContext, ("n0", _NUM), ("capacity", _SHARED), ("p_np", _SHARED, 0.0))
_TERMINALS = _Table(LinkTerminals, ("w_tx", _RATIO), ("w_rx", _RATIO), ("g_rx", _RATIO))
_LINK = _Table(
    lambda terminals, channel, ctx: LinkSetup(ctx, terminals, *channel),
    ("terminals", _TERMINALS),
    ("channel", _Reader(_read_channel, echo=_channel_echo)),
    ("energy", _ENERGY, None, "ctx"),
    section="link",
)
# the two-hop geometry, after the relay's or the FWA layout's hardware rows
_GEOMETRY = (("alpha", _NUM), ("k", _NUM, 1.0), ("d1", _NUM), ("d2", _NUM), ("d3", _NUM))
_RELAY = _Table(
    RelayScenario,
    ("w_tx_source", _RATIO), ("w_tx_relay", _RATIO), ("g_rx_relay", _RATIO), ("g_rx_sink", _RATIO),
    *_GEOMETRY,
    ("energy", _ENERGY, None, "ctx"),
    section="relay_scenario",
)
_FWA = _Table(
    FwaScenario,
    ("w_tx_ue", _RATIO), ("w_tx_bs", _RATIO), ("w_tx_ap", _RATIO),
    ("g_rx_ue", _RATIO), ("g_rx_bs", _RATIO), ("g_rx_ap", _RATIO),
    ("rho_u", _NUM),
    *_GEOMETRY,
    ("energy", _ENERGY, None, "ctx"),
    section="fwa_scenario",
)

# bound once here: the package imports this module, so every scenario record has its echo
LinkSetup.to_config, RelayScenario.to_config, FwaScenario.to_config = (
    t.to_config for t in (_LINK, _RELAY, _FWA))


_STAGE_KEYS = frozenset({"label", "gain", "gain_db", "waste", "waste_db", "passive"})
_SWEEP_KEYS = frozenset(field.name for field in dataclasses.fields(GridSpec)) - {"d3"}


def _parse_stage(entry, index: int) -> Stage:
    where = f"cascade[{index}]"
    entry = _mapping(entry, _STAGE_KEYS, where)
    label = entry["label"] if "label" in entry else f"stage {index + 1}"
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
    return Stage(gain, _ratio(entry, "waste", where), label)


def _parse_cascade(section, where: str) -> Cascade:
    if not isinstance(section, list):
        raise ValueError(f"{where}: expected a list of stages, got {section!r}")
    return Cascade(tuple([_parse_stage(entry, i) for i, entry in enumerate(section)]))


def cascade_to_config(c: Cascade) -> dict:
    """Cascade echoed as a config mapping (linear units, re-parseable)."""
    return {
        "cascade": [
            {"label": st.label, "gain": st.gain, "waste": st.waste} for st in c.stages
        ]
    }


def _read_range(section: dict, key: str, where: str) -> tuple[float, float]:
    rng = section[key]
    if not isinstance(rng, (list, tuple)) or len(rng) != 2:
        raise ValueError(f"{where}.{key}: expected [low, high], got {rng!r}")
    return tuple(_num({key: value}, key, where) for value in rng)


def _read_count(section: dict, key: str, where: str) -> int:
    n = section[key]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{where}.{key}: expected an integer, got {n!r}")
    return n


def _parse_sweep(section, d3: float) -> GridSpec:
    where = "sweep"
    section = _mapping(section, _SWEEP_KEYS, where)
    mode = section.get("mode", "normalized")
    fields = {"x_range": _read_range, "y_range": _read_range, "nx": _read_count, "ny": _read_count}
    values = {key: read(section, key, where) for key, read in fields.items() if key in section}
    try:  # GridSpec names the field; the prefix names the section
        base = GridSpec.planar_around(d3) if mode == "planar" else GridSpec(mode=mode, d3=d3)
        return dataclasses.replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"{where}.{exc}") from None


# scenario section -> (kind, parser); a cascade is a list of stages, not a table
_KINDS = {"cascade": ("cascade", _parse_cascade)} | {
    t.section: (t.section.removesuffix("_scenario"), t.record) for t in (_LINK, _RELAY, _FWA)
}


def parse_scenario(data) -> ScenarioFile:
    """Parse a decoded scenario document into validated objects."""
    data = _mapping(data, {*_KINDS, "sweep"}, "scenario file")
    present = [name for name in _KINDS if name in data]
    if len(present) != 1:
        raise ValueError(
            "scenario file must contain exactly one of "
            f"{'/'.join(_KINDS)}, found {present or 'none'}"
        )
    kind, parse = _KINDS[present[0]]
    record = parse(data[present[0]], present[0])
    if "sweep" in data and kind not in ("relay", "fwa"):
        raise ValueError("sweep sections apply to relay_scenario and fwa_scenario only")
    sweep = _parse_sweep(data["sweep"], record.d3) if "sweep" in data else None
    return ScenarioFile(kind=kind, sweep=sweep, **{kind: record})


def load_scenario(path) -> ScenarioFile:
    """Read and parse a scenario file; I/O errors propagate as OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad syntax, bytes or nesting depth
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return parse_scenario(data)
