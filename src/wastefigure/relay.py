"""Relay-versus-direct energy comparison for a single traffic direction.

Three nodes: a source transmitting either straight to the sink
(distance d3) or through a relay (source-relay d1, relay-sink d2), all
links following the same power-law channel ``G = k / d**alpha``. Both
routes run at the same rate and the relay hop re-transmits everything,
so the comparison reduces to energy per bit: the relayed route pays the
non-path power twice but can win on transmission waste when the direct
path is long or the relay hardware is favorable.

In the wide-coverage regime each hop's waste factor collapses to
``W_tx / (G_rx * G_hop)``, which turns "relaying uses less energy per
bit" into a closed-form test on distances and hardware ratios:

    d3**alpha > A * d1**alpha + B * d2**alpha + C

with ``A = g_rx_sink / g_rx_relay``, ``B = w_tx_relay / w_tx_source`` and
C the non-path power term (zero when p_np = 0). FWA builds the same
``Rule`` with traffic-weighted A, B and C; margin, rule test, ellipse
axes and sweeps (``region``) derive from it for both kinds. The sweeps
apply C too; normalized ones as C / d3**alpha with the scenario's d3.

At alpha = 2 the boundary of the C = 0 advantageous set in normalized
(d1/d3, d2/d3) coordinates is a quarter ellipse with semi-axes
``sqrt(1 / A)`` and ``sqrt(1 / B)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .energy import LN2, EnergyContext, _check_regime, _require

__all__ = [
    "RelayScenario",
    "RelayVerdict",
    "direct_energy",
    "relayed_energy",
    "relay_ratio",
    "decision_rule_holds",
    "ellipse_axes",
    "relay_verdict",
]


def _bind_echo(record) -> dict:
    """Echo a two-hop record on first use: importing config binds its field table."""
    from . import config  # noqa: F401  (config imports this module, so not at the top)

    return record._config()


@dataclass(frozen=True)
class RelayScenario:
    """Hardware, geometry and operating point of a relay comparison.

    Waste factors are transmit-side figures of the transmitting node on
    each hop; gains are receive-side figures of the receiving node.
    Both routes share the energy context (same rate, same non-path
    power per active transmitter).
    """

    w_tx_source: float
    w_tx_relay: float
    g_rx_relay: float
    g_rx_sink: float
    alpha: float
    d1: float
    d2: float
    d3: float
    ctx: EnergyContext
    k: float = 1.0

    def __post_init__(self) -> None:
        _require("w_tx_source", self.w_tx_source, minimum=1.0)
        _require("w_tx_relay", self.w_tx_relay, minimum=1.0)
        for name in ("g_rx_relay", "g_rx_sink", "alpha", "d1", "d2", "d3", "k"):
            _require(name, getattr(self, name), minimum=0.0, exclusive=True)
        if not isinstance(self.ctx, EnergyContext):
            raise ValueError(f"ctx must be an EnergyContext, got {self.ctx!r}")

    def _rule(self) -> Rule:
        return Rule(
            self.g_rx_sink / self.g_rx_relay,
            self.w_tx_relay / self.w_tx_source,
            _fixed_power_term(self.ctx, self.k, self.w_tx_source / self.g_rx_sink),
        )

    _config = _bind_echo  # replaced by the field table's echo when config is imported

    def to_config(self) -> dict:
        """Scenario as a config mapping (linear units, re-parseable)."""
        return {"relay_scenario": self._config()}


@dataclass(frozen=True)
class RelayVerdict:
    """Outcome of a relay comparison; use_relay iff ratio < 1 (tie -> direct)."""

    e_direct: float
    e_relayed: float
    ratio: float
    use_relay: bool
    decision_margin: float


def _hop_waste(w_tx: float, g_rx: float, d: float, alpha: float, k: float, hop: str) -> float:
    """Wide-coverage waste of one hop: w_tx / (g_rx * g_hop), g_hop = k/d**alpha."""
    try:
        g_hop = k / d**alpha
        waste = w_tx / (g_rx * g_hop)
    except (OverflowError, ZeroDivisionError):
        raise ValueError(
            f"{hop}: d**alpha = {d!r}**{alpha!r} is outside the float range"
        ) from None
    if not math.isfinite(waste):
        raise ValueError(
            f"{hop}: waste w_tx / (g_rx * k / d**alpha) = "
            f"{w_tx!r} / ({g_rx!r} * {k!r} / {d!r}**{alpha!r}) is outside the float range"
        )
    _check_regime(g_rx * g_hop, hop)
    return waste


class Rule(NamedTuple):
    """Two-hop distance rule: assisted wins iff d3**alpha > a*d1**alpha + b*d2**alpha + c."""

    a: float
    b: float
    c: float


def _rule_holds(s, include_c: bool) -> bool:
    """The rule test at the scenario's own distances, with or without c."""
    a, b, c = s._rule()
    try:
        return s.d3**s.alpha > a * s.d1**s.alpha + b * s.d2**s.alpha + (c if include_c else 0.0)
    except OverflowError:
        # alpha > 0, so the largest distance is one whose power overflowed
        d = max(s.d1, s.d2, s.d3)
        raise ValueError(
            f"decision rule: d**alpha = {d!r}**{s.alpha!r} is outside the float range"
        ) from None


def _axes(s) -> tuple[float, float]:
    """Semi-axes sqrt(1/a), sqrt(1/b) of the c = 0 boundary at alpha = 2."""
    if s.alpha != 2.0:
        raise ValueError(
            f"the advantageous region is an ellipse only at alpha = 2, got {s.alpha!r}"
        )
    a, b, _ = s._rule()
    axes = tuple(math.sqrt(1.0 / w) if w > 0.0 else math.inf for w in (a, b))
    if math.inf in axes:
        raise ValueError(
            f"ellipse axes: sqrt(1/A), sqrt(1/B) with A = {a!r}, B = {b!r} "
            "are outside the float range"
        )
    return axes


def _compare(s, e3: float, e12: float) -> tuple:
    """Verdict fields (e_direct, e_relayed, ratio, assisted wins, rule margin)."""
    a, b, c = s._rule()
    ratio = e12 / e3
    margin = s.d3**s.alpha - (a * s.d1**s.alpha + b * s.d2**s.alpha) - c
    return e3, e12, ratio, ratio < 1.0, margin


def _fixed_power_term(ctx: EnergyContext, k: float, den: float) -> float:
    """Non-path power as a distance-rule term: k * p_np / (n0 * C * ln2 * D).

    ``den`` is D, the direct route's W_tx / G_rx weight. The term is exactly
    zero without non-path power, so the p_np = 0 rule is unchanged.
    """
    if ctx.p_np == 0.0:
        return 0.0
    return (ctx.p_np / ctx.capacity) / (LN2 * ctx.n0) * (k / den)


def direct_energy(s: RelayScenario) -> float:
    """Energy per bit of the single-hop route, wide-coverage waste model."""
    w3 = _hop_waste(s.w_tx_source, s.g_rx_sink, s.d3, s.alpha, s.k, "direct hop")
    return s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * w3


def relayed_energy(s: RelayScenario) -> float:
    """Energy per bit of the two-hop route; pays non-path power twice."""
    w1 = _hop_waste(s.w_tx_source, s.g_rx_relay, s.d1, s.alpha, s.k, "source-relay hop")
    w2 = _hop_waste(s.w_tx_relay, s.g_rx_sink, s.d2, s.alpha, s.k, "relay-sink hop")
    return 2.0 * s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * (w1 + w2)


def relay_ratio(s: RelayScenario) -> float:
    """Relayed over direct energy per bit; below 1 means the relay wins."""
    return relayed_energy(s) / direct_energy(s)


def decision_rule_holds(s: RelayScenario, include_pnp: bool = False) -> bool:
    """Closed-form test for the relay route using less energy per bit.

    The default form assumes negligible non-path power and compares
    distances weighted by hardware ratios only. With include_pnp the
    fixed-cost term enters, scaled by the channel constant so the test
    stays exactly equivalent to relay_ratio < 1 for any k.
    """
    return _rule_holds(s, include_pnp)


def ellipse_axes(s: RelayScenario) -> tuple[float, float]:
    """Semi-axes (a, b) of the advantageous-region boundary at alpha = 2.

    Coordinates are normalized distances: a along d1/d3, b along d2/d3.
    """
    return _axes(s)


def relay_verdict(s: RelayScenario) -> RelayVerdict:
    """Full comparison: energies, ratio, decision, and rule margin.

    The margin is the distance rule with its non-path power term, so its
    sign follows the decision.
    """
    return RelayVerdict(*_compare(s, direct_energy(s), relayed_energy(s)))
