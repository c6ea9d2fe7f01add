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
C the non-path power term (zero when p_np = 0). ``Rule`` holds this
algebra for both kinds (FWA weights A, B and C by traffic): the verdict
decides by its margin's sign, and the rule test, ellipse axes and sweeps
(``region``) evaluate it. Normalized sweeps scale C by the scenario's d3.

At alpha = 2 the boundary of the C = 0 advantageous set in normalized
(d1/d3, d2/d3) coordinates is a quarter ellipse with semi-axes
``sqrt(1 / A)`` and ``sqrt(1 / B)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .energy import LN2, EnergyContext, _check_regime, _require
from .units import finite, finite_power, finite_ratio

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
            self.alpha,
        )


@dataclass(frozen=True)
class RelayVerdict:
    """Outcome of a relay comparison; use_relay iff margin > 0; ratio reported; tie -> direct."""

    e_direct: float
    e_relayed: float
    ratio: float
    use_relay: bool
    decision_margin: float


def _hop_waste(w_tx: float, g_rx: float, d: float, alpha: float, k: float, hop: str) -> float:
    """Wide-coverage waste of one hop: w_tx / (g_rx * g_hop), g_hop = k/d**alpha."""
    g_hop = k / finite_power(f"{hop}: d**alpha", d, alpha)
    waste = finite_ratio(f"{hop}: waste w_tx / (g_rx * k / d**alpha)", w_tx, g_rx * g_hop)
    _check_regime(g_rx * g_hop, hop)
    return waste


class Rule(NamedTuple):
    """Two-hop distance rule: assisted wins iff d3**alpha > a*d1**alpha + b*d2**alpha + c."""

    a: float
    b: float
    c: float
    alpha: float

    def rhs(self, d1, d2):
        """a*d1**alpha + b*d2**alpha, for floats or numpy arrays."""
        return self.a * d1**self.alpha + self.b * d2**self.alpha

    def margin(self, d1: float, d2: float, d3: float, include_c: bool = True) -> float:
        """d3**alpha - rhs(d1, d2) - c (c only with include_c); > 0 iff assisted wins."""
        try:
            margin = d3**self.alpha - self.rhs(d1, d2)
        except OverflowError:  # alpha > 0, so the largest distance's power overflowed
            d = max(d1, d2, d3)
            raise ValueError(
                f"decision rule: d**alpha = {d!r}**{self.alpha!r} is outside the float range"
            ) from None
        return margin - self.c if include_c else margin

    def power(self, d: float) -> float:
        """d**alpha on floats, inf where it overflows (as numpy's power gives)."""
        try:
            return d**self.alpha
        except OverflowError:
            return math.inf

    def lhs(self, d3: float, normalized: bool) -> float:
        """A sweep's constant side: d3**alpha - c, or 1 - c / d3**alpha on normalized axes."""
        if normalized and self.c == 0.0:
            return 1.0
        d3_alpha = finite_power("sweep: d3**alpha", d3, self.alpha)
        return 1.0 - self.c / d3_alpha if normalized else d3_alpha - self.c

    def axes(self) -> tuple[float, float]:
        """Semi-axes sqrt(1/a), sqrt(1/b) of the c = 0 boundary at alpha = 2."""
        if self.alpha != 2.0:
            raise ValueError(
                f"the advantageous region is an ellipse only at alpha = 2, got {self.alpha!r}"
            )
        return tuple(
            math.sqrt(finite_ratio(f"ellipse axes: 1/{n}", 1.0, w))
            for n, w in zip("AB", (self.a, self.b))
        )


def _compare(s, e3: float, e12: float) -> tuple:
    """Verdict fields (e_direct, e_relayed, ratio, margin > 0, rule margin), all finite."""
    if e3 == 0.0:  # finite and positive otherwise: the energies check their own overflow
        raise ValueError(f"direct energy per bit = {e3!r} is outside the float range")
    ratio = finite_ratio("energy ratio (assisted/direct)", e12, e3)
    margin = finite("rule margin d3**alpha - (A*d1**alpha + B*d2**alpha) - C",
                    s._rule().margin(s.d1, s.d2, s.d3))
    return e3, e12, ratio, margin > 0.0, margin


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
    return finite("direct energy per bit", s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * w3)


def relayed_energy(s: RelayScenario) -> float:
    """Energy per bit of the two-hop route; pays non-path power twice."""
    w1 = _hop_waste(s.w_tx_source, s.g_rx_relay, s.d1, s.alpha, s.k, "source-relay hop")
    w2 = _hop_waste(s.w_tx_relay, s.g_rx_sink, s.d2, s.alpha, s.k, "relay-sink hop")
    e12 = 2.0 * s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * (w1 + w2)
    return finite("assisted energy per bit", e12)


def relay_ratio(s: RelayScenario) -> float:
    """Relayed over direct energy per bit; below 1 means the relay wins."""
    return relay_verdict(s).ratio


def decision_rule_holds(s: RelayScenario) -> bool:
    """Closed-form test (negligible non-path power): does the relay save energy.

    It compares distances weighted by hardware ratios only; relay_verdict's
    use_relay is the same test with the non-path power term.
    """
    return s._rule().margin(s.d1, s.d2, s.d3, include_c=False) > 0.0


def ellipse_axes(s: RelayScenario) -> tuple[float, float]:
    """Semi-axes (a, b) of the advantageous-region boundary at alpha = 2.

    Coordinates are normalized distances: a along d1/d3, b along d2/d3.
    """
    return s._rule().axes()


def relay_verdict(s: RelayScenario) -> RelayVerdict:
    """Full comparison: energies, ratio, decision, and rule margin.

    The margin is the distance rule with its non-path power term, and the
    decision is its sign. A value outside the float range is a ValueError.
    """
    return RelayVerdict(*_compare(s, direct_energy(s), relayed_energy(s)))
