"""Fixed wireless access: user equipment, optional access point, base station.

Extends the relay comparison to bidirectional traffic. The direct route
runs UE <-> BS over distance d3; the assisted route inserts an access
point, and each direction's first hop spans d1 and its second d2: UE -> AP
and BS -> AP over d1, AP -> BS and AP -> UE over d2. So links are not
reciprocal when d1 != d2 (a planar sweep, UE at the origin, charges the
downlink's BS -> AP hop at |p|). Uplink and downlink see different
hardware - each hop's waste pairs the transmitting node's waste factor
with the receiving node's gain - so the energies are weighted by the
traffic mix before comparing.

The "access point saves energy" test is the relay rule of ``relay``
with traffic-and-hardware coefficients:

    d3**alpha > A * d1**alpha + B * d2**alpha + C

    D = rho_u * w_tx_ue / g_rx_bs + rho_d * w_tx_bs / g_rx_ue
    A = (rho_u * w_tx_ue / g_rx_ap + rho_d * w_tx_bs / g_rx_ap) / D
    B = (rho_u * w_tx_ap / g_rx_bs + rho_d * w_tx_ap / g_rx_ue) / D

and C the non-path power term over D (zero when p_np = 0), built as a
``relay.Rule``: the verdict decides by the sign of its margin, and
``relay.decision_rule_holds``, ``relay.ellipse_axes`` and the sweeps
evaluate it for both kinds, the sweeps with C (scaled by the scenario's
d3 in normalized mode). At alpha = 2 the C = 0 advantageous boundary is
a quarter ellipse with semi-axes sqrt(1/A) and sqrt(1/B); pure uplink or
pure downlink traffic reduces everything to the single-direction relay
comparison with the corresponding role assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .energy import LN2, EnergyContext
from .relay import Rule, _check_two_hop, _compare, _fixed_power_term, _hop_waste
from .units import finite, in_range

__all__ = [
    "FwaScenario",
    "FwaVerdict",
    "fwa_direct_energy",
    "fwa_relayed_energy",
    "fwa_ratio",
    "rule_coefficients",
    "fwa_verdict",
]


@dataclass(frozen=True)
class FwaScenario:
    """Hardware, uplink traffic share, geometry and operating point of an FWA layout."""

    w_tx_ue: float
    w_tx_bs: float
    w_tx_ap: float
    g_rx_ue: float
    g_rx_bs: float
    g_rx_ap: float
    rho_u: float
    alpha: float
    d1: float
    d2: float
    d3: float
    ctx: EnergyContext
    k: float = 1.0

    def __post_init__(self) -> None:
        _check_two_hop(self, ("w_tx_ue", "w_tx_bs", "w_tx_ap"), ("g_rx_ue", "g_rx_bs", "g_rx_ap"))
        if not in_range("rho_u", self.rho_u, 0.0, 1.0):
            raise ValueError(f"rho_u must be in [0, 1], got {self.rho_u!r}")

    @property
    def rho_d(self) -> float:
        """Downlink traffic share: the traffic the uplink does not carry."""
        return 1.0 - self.rho_u

    def _rule(self) -> Rule:
        u, d = self.rho_u, self.rho_d
        den = u * self.w_tx_ue / self.g_rx_bs + d * self.w_tx_bs / self.g_rx_ue
        a_num = u * self.w_tx_ue / self.g_rx_ap + d * self.w_tx_bs / self.g_rx_ap
        b_num = u * self.w_tx_ap / self.g_rx_bs + d * self.w_tx_ap / self.g_rx_ue
        return Rule(a_num / den, b_num / den, _fixed_power_term(self.ctx, self.k, den), self.alpha)


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
    weighted = s.rho_u * w3_up + s.rho_d * w3_down
    return finite("direct energy per bit", s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * weighted)


def fwa_relayed_energy(s: FwaScenario) -> float:
    """Traffic-weighted energy per bit through the access point (both hops)."""
    w1_up = _hop_waste(s.w_tx_ue, s.g_rx_ap, s.d1, s.alpha, s.k, "uplink first hop")
    w2_up = _hop_waste(s.w_tx_ap, s.g_rx_bs, s.d2, s.alpha, s.k, "uplink second hop")
    w1_down = _hop_waste(s.w_tx_bs, s.g_rx_ap, s.d1, s.alpha, s.k, "downlink first hop")
    w2_down = _hop_waste(s.w_tx_ap, s.g_rx_ue, s.d2, s.alpha, s.k, "downlink second hop")
    weighted = s.rho_u * (w1_up + w2_up) + s.rho_d * (w1_down + w2_down)
    e12 = 2.0 * s.ctx.p_np / s.ctx.capacity + LN2 * s.ctx.n0 * weighted
    return finite("assisted energy per bit", e12)


def fwa_ratio(s: FwaScenario) -> float:
    """Assisted over direct energy per bit; below 1 means the AP wins."""
    return fwa_verdict(s).ratio


def rule_coefficients(s: FwaScenario) -> tuple[float, float]:
    """Distance-rule coefficients (A, B) for the current traffic mix."""
    return s._rule()[:2]


def fwa_verdict(s: FwaScenario) -> FwaVerdict:
    """Full comparison: energies, ratio, decision, and rule margin.

    The margin includes the non-path power term, and the decision is its
    sign. A value outside the float range is a ValueError.
    """
    return FwaVerdict(*_compare(s, fwa_direct_energy(s), fwa_relayed_energy(s)))
