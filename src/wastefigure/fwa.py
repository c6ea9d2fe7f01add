"""Fixed wireless access: user equipment, optional access point, base station.

Extends the relay comparison to bidirectional traffic. The direct route
runs UE <-> BS over distance d3; the assisted route inserts an access
point, with d1 the first-hop distance and d2 the second-hop distance in
each direction (channels are reciprocal, one gain per link). Uplink and
downlink see different hardware - each direction's hop waste pairs the
transmitting node's waste factor with the receiving node's gain - so
the energies are weighted by the traffic mix before comparing.

The "access point saves energy" test is the relay rule of ``relay``
with traffic-and-hardware coefficients:

    d3**alpha > A * d1**alpha + B * d2**alpha + C

    D = rho_u * w_tx_ue / g_rx_bs + rho_d * w_tx_bs / g_rx_ue
    A = (rho_u * w_tx_ue / g_rx_ap + rho_d * w_tx_bs / g_rx_ap) / D
    B = (rho_u * w_tx_ap / g_rx_bs + rho_d * w_tx_ap / g_rx_ue) / D

and C the non-path power term over D (zero when p_np = 0), built as a
``relay.Rule``: the verdict decides by the sign of its margin, and the
rule test, the ellipse axes and the sweeps evaluate it; the sweeps
include C, scaled by the scenario's d3 in normalized mode. At alpha = 2
the C = 0 advantageous boundary is a quarter ellipse with semi-axes
sqrt(1/A) and sqrt(1/B); pure uplink or pure downlink traffic reduces
everything to the single-direction relay comparison with the
corresponding role assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import LN2, EnergyContext, _require
from .relay import Rule, _compare, _fixed_power_term, _hop_waste
from .units import in_range

__all__ = [
    "TrafficMix",
    "FwaScenario",
    "FwaVerdict",
    "fwa_direct_energy",
    "fwa_relayed_energy",
    "fwa_ratio",
    "rule_coefficients",
    "fwa_decision_holds",
    "fwa_ellipse_axes",
    "fwa_verdict",
]


@dataclass(frozen=True)
class TrafficMix:
    """Uplink/downlink traffic shares; must sum to one."""

    rho_u: float
    rho_d: float

    def __post_init__(self) -> None:
        for name in ("rho_u", "rho_d"):
            v = getattr(self, name)
            if not in_range(name, v, 0.0, 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        if abs(self.rho_u + self.rho_d - 1.0) > 1e-12:
            raise ValueError(
                f"traffic shares must sum to 1, got {self.rho_u!r} + {self.rho_d!r}"
            )

    @classmethod
    def from_uplink(cls, rho_u: float) -> "TrafficMix":
        """Build from the uplink share alone; the downlink share is implied."""
        if not in_range("rho_u", rho_u, 0.0, 1.0):
            raise ValueError(f"rho_u must be in [0, 1], got {rho_u!r}")
        return cls(rho_u=rho_u, rho_d=1.0 - rho_u)


@dataclass(frozen=True)
class FwaScenario:
    """Hardware, geometry, traffic mix and operating point of an FWA layout."""

    w_tx_ue: float
    w_tx_bs: float
    w_tx_ap: float
    g_rx_ue: float
    g_rx_bs: float
    g_rx_ap: float
    traffic: TrafficMix
    alpha: float
    d1: float
    d2: float
    d3: float
    ctx: EnergyContext
    k: float = 1.0

    def __post_init__(self) -> None:
        for name in ("w_tx_ue", "w_tx_bs", "w_tx_ap"):
            _require(name, getattr(self, name), minimum=1.0)
        for name in ("g_rx_ue", "g_rx_bs", "g_rx_ap", "alpha", "d1", "d2", "d3", "k"):
            _require(name, getattr(self, name), minimum=0.0, exclusive=True)
        if not isinstance(self.traffic, TrafficMix):
            raise ValueError(f"traffic must be a TrafficMix, got {self.traffic!r}")
        if not isinstance(self.ctx, EnergyContext):
            raise ValueError(f"ctx must be an EnergyContext, got {self.ctx!r}")

    def _rule(self) -> Rule:
        t = self.traffic
        den = t.rho_u * self.w_tx_ue / self.g_rx_bs + t.rho_d * self.w_tx_bs / self.g_rx_ue
        a_num = t.rho_u * self.w_tx_ue / self.g_rx_ap + t.rho_d * self.w_tx_bs / self.g_rx_ap
        b_num = t.rho_u * self.w_tx_ap / self.g_rx_bs + t.rho_d * self.w_tx_ap / self.g_rx_ue
        return Rule(a_num / den, b_num / den, _fixed_power_term(self.ctx, self.k, den), self.alpha)

    def to_config(self) -> dict:
        """Scenario as a config mapping (linear units, re-parseable)."""
        return {"fwa_scenario": self._config()}  # _config: bound by config's field table


@dataclass(frozen=True)
class FwaVerdict:
    """Outcome of an FWA comparison; use_ap iff margin > 0; ratio reported; tie -> direct."""

    e_direct: float
    e_relayed: float
    ratio: float
    use_ap: bool
    decision_margin: float


def fwa_direct_energy(s: FwaScenario) -> float:
    """Traffic-weighted energy per bit of the direct UE <-> BS route."""
    w3_up = _hop_waste(s.w_tx_ue, s.g_rx_bs, s.d3, s.alpha, s.k, "direct uplink")
    w3_down = _hop_waste(s.w_tx_bs, s.g_rx_ue, s.d3, s.alpha, s.k, "direct downlink")
    weighted = s.traffic.rho_u * w3_up + s.traffic.rho_d * w3_down
    return s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * weighted


def fwa_relayed_energy(s: FwaScenario) -> float:
    """Traffic-weighted energy per bit through the access point (both hops)."""
    w1_up = _hop_waste(s.w_tx_ue, s.g_rx_ap, s.d1, s.alpha, s.k, "uplink first hop")
    w2_up = _hop_waste(s.w_tx_ap, s.g_rx_bs, s.d2, s.alpha, s.k, "uplink second hop")
    w1_down = _hop_waste(s.w_tx_bs, s.g_rx_ap, s.d1, s.alpha, s.k, "downlink first hop")
    w2_down = _hop_waste(s.w_tx_ap, s.g_rx_ue, s.d2, s.alpha, s.k, "downlink second hop")
    weighted = s.traffic.rho_u * (w1_up + w2_up) + s.traffic.rho_d * (w1_down + w2_down)
    return 2.0 * s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * weighted


def fwa_ratio(s: FwaScenario) -> float:
    """Assisted over direct energy per bit; below 1 means the AP wins."""
    return fwa_verdict(s).ratio


def rule_coefficients(s: FwaScenario) -> tuple[float, float]:
    """Distance-rule coefficients (A, B) for the current traffic mix."""
    return s._rule()[:2]


def fwa_decision_holds(s: FwaScenario) -> bool:
    """Closed-form test (negligible non-path power): does the AP save energy."""
    return s._rule().margin(s.d1, s.d2, s.d3, include_c=False) > 0.0


def fwa_ellipse_axes(s: FwaScenario) -> tuple[float, float]:
    """Semi-axes of the advantageous-region boundary at alpha = 2."""
    return s._rule().axes()


def fwa_verdict(s: FwaScenario) -> FwaVerdict:
    """Full comparison: energies, ratio, decision, and rule margin.

    The margin includes the non-path power term, and the decision is its
    sign. A value outside the float range is a ValueError.
    """
    return FwaVerdict(*_compare(s, fwa_direct_energy(s), fwa_relayed_energy(s)))
