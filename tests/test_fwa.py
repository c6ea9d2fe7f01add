import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wastefigure import (
    ApproximationRegimeWarning,
    EnergyContext,
    FwaScenario,
    RelayScenario,
    decision_rule_holds,
    direct_energy,
    ellipse_axes,
    fwa_direct_energy,
    fwa_ratio,
    fwa_relayed_energy,
    fwa_verdict,
    relayed_energy,
    rule_coefficients,
)

LN2 = math.log(2.0)

pytestmark = pytest.mark.filterwarnings(
    "ignore::wastefigure.ApproximationRegimeWarning"
)

CTX0 = EnergyContext(n0=1e-20, capacity=1e8, p_np=0.0)

# indoor-unit deployment used throughout: lossy base station, efficient
# user equipment, mid-grade access point, directional base-station antenna
HW = dict(
    w_tx_ue=3.0,
    w_tx_bs=15.0,
    w_tx_ap=10.0,
    g_rx_ue=10.0,
    g_rx_bs=10.0**1.5,
    g_rx_ap=10.0,
)


def hw_scenario(rho_u, alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0):
    return FwaScenario(
        rho_u=rho_u,
        alpha=alpha,
        d1=d1,
        d2=d2,
        d3=d3,
        ctx=ctx,
        **HW,
    )


def random_scenario(rng, p_np=0.0):
    return FwaScenario(
        w_tx_ue=rng.uniform(1.0, 20.0),
        w_tx_bs=rng.uniform(1.0, 20.0),
        w_tx_ap=rng.uniform(1.0, 20.0),
        g_rx_ue=10.0 ** rng.uniform(0.5, 3),
        g_rx_bs=10.0 ** rng.uniform(0.5, 3),
        g_rx_ap=10.0 ** rng.uniform(0.5, 3),
        rho_u=rng.uniform(0.0, 1.0),
        alpha=rng.uniform(2.0, 6.0),
        d1=rng.uniform(0.1, 2.0),
        d2=rng.uniform(0.1, 2.0),
        d3=rng.uniform(0.5, 3.0),
        ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=p_np),
    )


class TestTrafficShares:
    def test_downlink_share_is_the_rest(self):
        s = hw_scenario(0.3)
        assert s.rho_u == 0.3
        assert s.rho_d == 0.7

    @pytest.mark.parametrize("bad", [-0.1, 1.1, float("nan")])
    def test_share_bounds(self, bad):
        with pytest.raises(ValueError, match=r"^rho_u must be in \[0, 1\], got "):
            hw_scenario(bad)

    @pytest.mark.parametrize("rho_u", [0.0, 1.0])
    def test_share_edges_build(self, rho_u):
        s = hw_scenario(rho_u)
        assert (s.rho_u, s.rho_d) == (rho_u, 1.0 - rho_u)

    def test_downlink_share_is_read_only(self):
        s = hw_scenario(0.3)
        with pytest.raises(AttributeError):
            s.rho_d = 0.5
        assert s.rho_d == 0.7

    def test_downlink_share_is_not_an_argument(self):
        with pytest.raises(TypeError, match="rho_d"):
            FwaScenario(
                rho_u=0.5, rho_d=0.5, alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0, **HW
            )


class TestCoefficients:
    # frozen against an independent Decimal-arithmetic evaluation of the
    # traffic-weighted hardware ratios for the deployment above
    @pytest.mark.parametrize(
        "rho_u, a_ref, b_ref",
        [
            (0.1, 1.0150889045, 0.6852753215),
            (0.5, 1.1286198154, 0.8252892991),
            (0.9, 1.7843373658, 1.6339644135),
        ],
    )
    def test_reference_values(self, rho_u, a_ref, b_ref):
        a, b = rule_coefficients(hw_scenario(rho_u))
        assert math.isclose(a, a_ref, rel_tol=1e-6)
        assert math.isclose(b, b_ref, rel_tol=1e-6)

    def test_recomputed_from_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s = random_scenario(rng)
            rho_u, rho_d = s.rho_u, s.rho_d
            den = rho_u * s.w_tx_ue / s.g_rx_bs + rho_d * s.w_tx_bs / s.g_rx_ue
            a_ref = (rho_u * s.w_tx_ue + rho_d * s.w_tx_bs) / s.g_rx_ap / den
            b_ref = s.w_tx_ap * (rho_u / s.g_rx_bs + rho_d / s.g_rx_ue) / den
            a, b = rule_coefficients(s)
            assert math.isclose(a, a_ref, rel_tol=1e-12)
            assert math.isclose(b, b_ref, rel_tol=1e-12)

    def test_both_grow_with_uplink_share(self):
        # heavier uplink makes assistance harder to justify here: the UE
        # already transmits cleanly while the BS receiver is directional
        coeffs = [rule_coefficients(hw_scenario(r)) for r in (0.1, 0.5, 0.9)]
        a_vals = [c[0] for c in coeffs]
        b_vals = [c[1] for c in coeffs]
        assert a_vals == sorted(a_vals)
        assert b_vals == sorted(b_vals)
        assert len(set(a_vals)) == 3


class TestEnergies:
    def test_direct_energy_by_hand(self):
        s = hw_scenario(0.5)
        w3_up = 3.0 / (10.0**1.5 * 1.0)  # d3 = 1, k = 1
        w3_down = 15.0 / 10.0
        expected = LN2 * 1e-20 * (0.5 * w3_up + 0.5 * w3_down)
        assert math.isclose(fwa_direct_energy(s), expected, rel_tol=1e-15)

    def test_relayed_energy_by_hand(self):
        # d1 carries both directions' first hop; d2 both second hops
        s = hw_scenario(0.5, d1=0.5, d2=2.0)
        g1 = 1.0 / 0.5**4
        g2 = 1.0 / 2.0**4
        up = 3.0 / (10.0 * g1) + 10.0 / (10.0**1.5 * g2)
        down = 15.0 / (10.0 * g1) + 10.0 / (10.0 * g2)
        expected = LN2 * 1e-20 * (0.5 * up + 0.5 * down)
        assert math.isclose(fwa_relayed_energy(s), expected, rel_tol=1e-15)

    def test_assisted_route_pays_fixed_power_twice(self):
        ctx = EnergyContext(n0=1e-20, capacity=1e8, p_np=1e-3)
        s, s0 = hw_scenario(0.5, ctx=ctx), hw_scenario(0.5)
        assert math.isclose(
            fwa_relayed_energy(s) - fwa_relayed_energy(s0), 2e-3 / 1e8, rel_tol=1e-12
        )

    def test_pure_uplink_is_single_direction_comparison(self):
        s = hw_scenario(1.0)
        r = RelayScenario(
            w_tx_source=s.w_tx_ue,
            w_tx_relay=s.w_tx_ap,
            g_rx_relay=s.g_rx_ap,
            g_rx_sink=s.g_rx_bs,
            alpha=s.alpha,
            d1=s.d1,
            d2=s.d2,
            d3=s.d3,
            ctx=s.ctx,
            k=s.k,
        )
        assert fwa_direct_energy(s) == direct_energy(r)
        assert fwa_relayed_energy(s) == relayed_energy(r)

    def test_pure_downlink_is_single_direction_comparison(self):
        s = hw_scenario(0.0)
        r = RelayScenario(
            w_tx_source=s.w_tx_bs,
            w_tx_relay=s.w_tx_ap,
            g_rx_relay=s.g_rx_ap,
            g_rx_sink=s.g_rx_ue,
            alpha=s.alpha,
            d1=s.d1,
            d2=s.d2,
            d3=s.d3,
            ctx=s.ctx,
            k=s.k,
        )
        assert fwa_direct_energy(s) == direct_energy(r)
        assert fwa_relayed_energy(s) == relayed_energy(r)

    def test_mix_interpolates_between_directions(self):
        e_up = fwa_ratio(hw_scenario(1.0))
        e_down = fwa_ratio(hw_scenario(0.0))
        e_mid = fwa_ratio(hw_scenario(0.5))
        assert min(e_up, e_down) < e_mid < max(e_up, e_down)


class TestDecision:
    def test_equivalent_to_energy_ratio_without_fixed_power(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            s = random_scenario(rng)
            assert decision_rule_holds(s) == (fwa_ratio(s) < 1.0)

    def test_verdict_fields_consistent(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            s = random_scenario(rng)
            v = fwa_verdict(s)
            assert math.isclose(v.e_direct, fwa_direct_energy(s), rel_tol=1e-15)
            assert math.isclose(v.e_relayed, fwa_relayed_energy(s), rel_tol=1e-15)
            assert v.use_ap == (v.ratio < 1.0)
            assert (v.decision_margin > 0.0) == decision_rule_holds(s)

    def test_reference_deployment_prefers_ap_nearby(self):
        assert decision_rule_holds(hw_scenario(0.5, d1=0.4, d2=0.5, d3=1.0))
        assert not decision_rule_holds(hw_scenario(0.5, d1=0.9, d2=0.9, d3=1.0))


class TestEllipse:
    def test_axes_from_coefficients(self):
        s = hw_scenario(0.5, alpha=2.0)
        a, b = rule_coefficients(s)
        ax, bx = ellipse_axes(s)
        assert math.isclose(ax, 1.0 / math.sqrt(a), rel_tol=1e-15)
        assert math.isclose(bx, 1.0 / math.sqrt(b), rel_tol=1e-15)

    def test_requires_square_law(self):
        with pytest.raises(ValueError, match="alpha"):
            ellipse_axes(hw_scenario(0.5, alpha=4.0))

    def test_boundary_points_have_zero_margin(self):
        base = hw_scenario(0.5, alpha=2.0)
        ax, bx = ellipse_axes(base)
        for theta in (0.2, 0.8, 1.4):
            s = hw_scenario(
                0.5,
                alpha=2.0,
                d1=ax * base.d3 * math.cos(theta),
                d2=bx * base.d3 * math.sin(theta),
            )
            assert abs(fwa_verdict(s).decision_margin) < 1e-12


class TestMarginWithFixedPower:
    @given(
        w=st.tuples(*[st.floats(1.0, 20.0)] * 3),
        g=st.tuples(*[st.floats(0.5, 3.0)] * 3),
        rho_u=st.floats(0.0, 1.0),
        alpha=st.floats(2.0, 6.0),
        d=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.floats(0.5, 3.0)),
        k=st.floats(0.5, 2.0),
        p_np=st.floats(-14.0, 0.0),
    )
    def test_margin_sign_is_the_verdict(self, w, g, rho_u, alpha, d, k, p_np):
        s = FwaScenario(
            w_tx_ue=w[0], w_tx_bs=w[1], w_tx_ap=w[2],
            g_rx_ue=10.0 ** g[0], g_rx_bs=10.0 ** g[1], g_rx_ap=10.0 ** g[2],
            rho_u=rho_u,
            alpha=alpha, d1=d[0], d2=d[1], d3=d[2], k=k,
            ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=10.0**p_np),
        )
        v = fwa_verdict(s)
        assume(abs(v.ratio - 1.0) > 1e-9)
        assert (v.decision_margin > 0.0) == v.use_ap

    def test_zero_fixed_power_margin_is_the_distance_rule(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            s = random_scenario(rng)
            a, b = rule_coefficients(s)
            assert fwa_verdict(s).decision_margin == s.d3**s.alpha - (
                a * s.d1**s.alpha + b * s.d2**s.alpha
            )

    @pytest.mark.parametrize("scale", [1e60, 1e-70])
    def test_unrepresentable_distance_is_a_named_value_error(self, scale):
        s = hw_scenario(0.5, alpha=6.0, d1=0.5 * scale, d2=0.6 * scale, d3=scale)
        match = r"direct uplink: d\*\*alpha .* outside the float range"
        with pytest.raises(ValueError, match=match):
            fwa_verdict(s)


class TestOverflowingWaste:
    # d**alpha is finite, but w_tx / (g_rx * k / d**alpha) overflows to inf
    def scenario(self, d1, d2, d3):
        hw = dict(HW, g_rx_ue=1e-5, g_rx_bs=1e-5, g_rx_ap=1e-5)
        return FwaScenario(
            rho_u=0.5, alpha=6.1,
            d1=d1, d2=d2, d3=d3, ctx=CTX0, **hw,
        )

    def test_direct_uplink_named(self):
        s = self.scenario(5e49, 6e49, 1e50)
        with pytest.raises(ValueError, match=r"^direct uplink: waste .* outside the float range"):
            fwa_verdict(s)

    def test_relayed_hop_named(self):
        s = self.scenario(1.0, 6e49, 1.0)
        with pytest.raises(ValueError, match=r"^uplink second hop: waste .* outside the float range"):
            fwa_verdict(s)


class TestUnrepresentableDistance:
    def test_decision_rule_names_the_overflow(self):
        s = hw_scenario(0.5, alpha=6.0, d1=5e59, d2=5e59, d3=1e60)
        match = r"^decision rule: d\*\*alpha = 1e\+60\*\*6\.0 is outside the float range"
        with pytest.raises(ValueError, match=match):
            decision_rule_holds(s)


class TestValidation:
    def test_traffic_share_type_checked(self):
        with pytest.raises(ValueError, match=r"^rho_u must be a number, got \(0\.5, 0\.5\)"):
            FwaScenario(
                rho_u=(0.5, 0.5), alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0, **HW
            )

    def test_waste_below_one_rejected(self):
        bad = dict(HW, w_tx_ap=0.9)
        with pytest.raises(ValueError, match="w_tx_ap"):
            FwaScenario(
                rho_u=0.5,
                alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0, **bad,
            )

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError, match="d2"):
            FwaScenario(
                rho_u=0.5,
                alpha=4.0, d1=0.4, d2=0.0, d3=1.0, ctx=CTX0, **HW,
            )


class TestUnrepresentableEllipse:
    def test_zero_coefficient_named(self):
        # A underflows to 0: 1/A would divide by zero
        hw = dict(HW, g_rx_ap=1e200, g_rx_bs=1e-200, g_rx_ue=1e-200)
        s = FwaScenario(
            rho_u=0.5,
            alpha=2.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0, **hw,
        )
        assert rule_coefficients(s)[0] == 0.0
        with pytest.raises(ValueError, match=r"^ellipse axes: .* outside the float range"):
            ellipse_axes(s)
