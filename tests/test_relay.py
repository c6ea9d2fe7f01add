import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wastefigure import (
    ApproximationRegimeWarning,
    EnergyContext,
    LinkTerminals,
    RelayScenario,
    decision_rule_holds,
    direct_energy,
    ellipse_axes,
    link_waste_approx,
    relay_ratio,
    relay_verdict,
    relayed_energy,
)

LN2 = math.log(2.0)

# random draws roam into near-field geometry on purpose; the regime
# warning itself is exercised explicitly in TestHopEnergies
pytestmark = pytest.mark.filterwarnings(
    "ignore::wastefigure.ApproximationRegimeWarning"
)

CTX0 = EnergyContext(n0=1e-20, capacity=1e8, p_np=0.0)


def reference_scenario(w_tx_relay=2.0, alpha=6.0, d1=0.5, d2=0.5, d3=1.0, ctx=CTX0):
    return RelayScenario(
        w_tx_source=1.0,
        w_tx_relay=w_tx_relay,
        g_rx_relay=1e3,
        g_rx_sink=10.0,
        alpha=alpha,
        d1=d1,
        d2=d2,
        d3=d3,
        ctx=ctx,
    )


def random_scenario(rng, p_np=0.0, k=1.0):
    return RelayScenario(
        w_tx_source=rng.uniform(1.0, 20.0),
        w_tx_relay=rng.uniform(1.0, 20.0),
        g_rx_relay=10.0 ** rng.uniform(1, 4),
        g_rx_sink=10.0 ** rng.uniform(1, 4),
        alpha=rng.uniform(2.0, 6.0),
        d1=rng.uniform(0.1, 2.0),
        d2=rng.uniform(0.1, 2.0),
        d3=rng.uniform(0.5, 3.0),
        ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=p_np),
        k=k,
    )


class TestHopEnergies:
    def test_direct_energy_frozen(self):
        s = reference_scenario()
        # single hop: waste 1 / (10 * 1) = 0.1 at d3 = 1
        assert math.isclose(direct_energy(s), LN2 * 1e-20 * 0.1, rel_tol=1e-15)

    def test_relayed_energy_frozen(self):
        s = reference_scenario()
        w1 = 0.5**6 / 1e3
        w2 = 2.0 * 0.5**6 / 10.0
        assert math.isclose(relayed_energy(s), LN2 * 1e-20 * (w1 + w2), rel_tol=1e-15)

    def test_ratio_reference_point(self):
        assert math.isclose(relay_ratio(reference_scenario()), 0.03140625, rel_tol=1e-12)

    def test_hop_waste_matches_link_form(self):
        # each hop is a wide-coverage link with an ideal receiver chain;
        # stay inside the link function's domain (normalized geometries can
        # push k/d^alpha above unity, which the relay model tolerates but a
        # physical channel gain cannot)
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 200:
            s = random_scenario(rng, k=rng.uniform(0.5, 2.0))
            g3 = s.k / s.d3**s.alpha
            if g3 > 1.0:
                continue
            checked += 1
            expected = LN2 * s.ctx.n0 * link_waste_approx(
                LinkTerminals(w_tx=s.w_tx_source, w_rx=1.0, g_rx=s.g_rx_sink), g3
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ApproximationRegimeWarning)
                got = direct_energy(s)
            assert math.isclose(got, expected, rel_tol=1e-15)

    def test_nonpath_power_paid_twice(self):
        ctx = EnergyContext(n0=1e-20, capacity=1e8, p_np=1e-3)
        s = reference_scenario(ctx=ctx)
        s0 = reference_scenario()
        assert math.isclose(
            relayed_energy(s) - relayed_energy(s0), 2e-3 / 1e8, rel_tol=1e-12
        )
        assert math.isclose(direct_energy(s) - direct_energy(s0), 1e-3 / 1e8, rel_tol=1e-12)

    def test_far_hops_do_not_warn(self):
        s = RelayScenario(
            w_tx_source=2.0, w_tx_relay=2.0, g_rx_relay=10.0, g_rx_sink=10.0,
            alpha=4.0, d1=4.0, d2=4.0, d3=5.0, ctx=CTX0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            relay_ratio(s)

    def test_near_regime_warns(self):
        s = reference_scenario(d1=0.5, d2=0.5, d3=2.0, alpha=2.0)
        # source-relay hop: g_rx * g_hop = 1000 * 4 >> 0.1
        with pytest.warns(ApproximationRegimeWarning):
            relayed_energy(s)


class TestDecisionRule:
    def test_reference_point_holds(self):
        s = reference_scenario()
        assert decision_rule_holds(s)
        assert relay_ratio(s) < 1.0

    def test_equivalent_to_energy_ratio_without_fixed_power(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            s = random_scenario(rng)
            assert decision_rule_holds(s) == (relay_ratio(s) < 1.0)

    def test_fixed_power_term_keeps_equivalence(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            s = random_scenario(rng, p_np=10.0 ** rng.uniform(-6, -2), k=rng.uniform(0.2, 5.0))
            assert relay_verdict(s).use_relay == (relay_ratio(s) < 1.0)

    def test_plain_rule_diverges_when_fixed_power_dominates(self):
        # geometry says relay, but paying p_np twice erases the win
        s = reference_scenario(ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=1e-6))
        assert decision_rule_holds(s)
        assert relay_verdict(s).use_relay == (relay_ratio(s) < 1.0)
        assert relay_ratio(s) > 1.0

    def test_ratio_increases_with_relay_waste(self):
        r2, r4, r8 = (relay_ratio(reference_scenario(w)) for w in (2.0, 4.0, 8.0))
        assert r2 < r4 < r8


class TestEllipse:
    def test_axes_values(self):
        s = reference_scenario(alpha=2.0)
        a, b = ellipse_axes(s)
        assert math.isclose(a, 10.0, rel_tol=1e-15)
        assert math.isclose(b, math.sqrt(0.5), rel_tol=1e-15)

    def test_requires_square_law(self):
        with pytest.raises(ValueError, match="alpha"):
            ellipse_axes(reference_scenario(alpha=2.5))

    def test_boundary_points_have_zero_margin(self):
        base = reference_scenario(alpha=2.0)
        a, b = ellipse_axes(base)
        for theta in (0.1, 0.7, 1.2, 1.5):
            s = reference_scenario(
                alpha=2.0,
                d1=a * base.d3 * math.cos(theta),
                d2=b * base.d3 * math.sin(theta),
            )
            v = relay_verdict(s)
            assert abs(v.decision_margin) < 1e-12
            # nudge inside/outside and the verdict flips
            inside = reference_scenario(alpha=2.0, d1=s.d1 * 0.99, d2=s.d2 * 0.99)
            outside = reference_scenario(alpha=2.0, d1=s.d1 * 1.01, d2=s.d2 * 1.01)
            assert decision_rule_holds(inside)
            assert not decision_rule_holds(outside)


class TestVerdict:
    def test_fields_consistent(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            s = random_scenario(rng)
            v = relay_verdict(s)
            assert math.isclose(v.e_direct, direct_energy(s), rel_tol=1e-15)
            assert math.isclose(v.e_relayed, relayed_energy(s), rel_tol=1e-15)
            assert math.isclose(v.ratio, v.e_relayed / v.e_direct, rel_tol=1e-15)
            assert v.use_relay == (v.ratio < 1.0)
            assert (v.decision_margin > 0.0) == decision_rule_holds(s)

    def test_exact_tie_goes_direct(self):
        # 3-4-5 triangle at alpha = 2 with unit hardware: wastes 9 + 16 == 25
        s = RelayScenario(
            w_tx_source=1.0,
            w_tx_relay=1.0,
            g_rx_relay=1.0,
            g_rx_sink=1.0,
            alpha=2.0,
            d1=3.0,
            d2=4.0,
            d3=5.0,
            ctx=CTX0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApproximationRegimeWarning)
            v = relay_verdict(s)
        assert v.ratio == 1.0
        assert not v.use_relay
        assert v.decision_margin == 0.0


class TestMarginWithFixedPower:
    @given(
        w_src=st.floats(1.0, 20.0),
        w_rel=st.floats(1.0, 20.0),
        g_rel=st.floats(1.0, 4.0),
        g_snk=st.floats(1.0, 4.0),
        alpha=st.floats(2.0, 6.0),
        d1=st.floats(0.1, 2.0),
        d2=st.floats(0.1, 2.0),
        d3=st.floats(0.5, 3.0),
        k=st.floats(0.5, 2.0),
        p_np=st.floats(-14.0, 0.0),
    )
    def test_margin_sign_is_the_verdict(
        self, w_src, w_rel, g_rel, g_snk, alpha, d1, d2, d3, k, p_np
    ):
        s = RelayScenario(
            w_tx_source=w_src, w_tx_relay=w_rel,
            g_rx_relay=10.0**g_rel, g_rx_sink=10.0**g_snk,
            alpha=alpha, d1=d1, d2=d2, d3=d3, k=k,
            ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=10.0**p_np),
        )
        v = relay_verdict(s)
        assume(abs(v.ratio - 1.0) > 1e-9)
        assert (v.decision_margin > 0.0) == v.use_relay

    def test_fixed_power_flips_the_margin(self):
        s = reference_scenario(ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=1e-9))
        v = relay_verdict(s)
        assert not v.use_relay
        assert v.decision_margin < 0.0
        assert relay_verdict(reference_scenario()).decision_margin > 0.0

    def test_zero_fixed_power_margin_is_the_distance_rule(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = random_scenario(rng, k=rng.uniform(0.5, 2.0))
            assert relay_verdict(s).decision_margin == s.d3**s.alpha - (
                (s.g_rx_sink / s.g_rx_relay) * s.d1**s.alpha
                + (s.w_tx_relay / s.w_tx_source) * s.d2**s.alpha
            )


class TestUnrepresentableDistance:
    @pytest.mark.parametrize("scale", [1e60, 1e-70])
    def test_named_value_error(self, scale):
        s = reference_scenario(d1=0.5 * scale, d2=0.6 * scale, d3=scale)
        match = r"direct hop: d\*\*alpha .* outside the float range"
        with pytest.raises(ValueError, match=match):
            relay_verdict(s)

    @pytest.mark.parametrize("p_np", [0.0, 1e-6])
    def test_decision_rule_names_the_overflow(self, p_np):
        # the plain rule is geometry alone: non-path power changes nothing here
        ctx = EnergyContext(n0=1e-20, capacity=1e8, p_np=p_np)
        s = reference_scenario(d1=5e59, d2=5e59, d3=1e60, ctx=ctx)
        match = r"^decision rule: d\*\*alpha = 1e\+60\*\*6\.0 is outside the float range"
        with pytest.raises(ValueError, match=match):
            decision_rule_holds(s)


class TestOverflowingWaste:
    # d**alpha is finite, but w_tx / (g_rx * k / d**alpha) overflows to inf
    def scenario(self, d1, d2, d3):
        return RelayScenario(
            w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e-5, g_rx_sink=1e-5,
            alpha=6.1, d1=d1, d2=d2, d3=d3, ctx=CTX0,
        )

    def test_direct_hop_named(self):
        s = self.scenario(5e49, 6e49, 1e50)
        with pytest.raises(ValueError, match=r"^direct hop: waste .* outside the float range"):
            relay_verdict(s)

    def test_relayed_hop_named(self):
        s = self.scenario(6e49, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^source-relay hop: waste .* outside the float range"):
            relay_verdict(s)


class TestValidation:
    def test_waste_below_one_rejected(self):
        with pytest.raises(ValueError, match="w_tx_source"):
            RelayScenario(
                w_tx_source=0.5, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0,
                alpha=6.0, d1=0.5, d2=0.5, d3=1.0, ctx=CTX0,
            )

    @pytest.mark.parametrize("field", ["g_rx_relay", "d1", "alpha", "k"])
    def test_nonpositive_rejected(self, field):
        kwargs = dict(
            w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0,
            alpha=6.0, d1=0.5, d2=0.5, d3=1.0, ctx=CTX0, k=1.0,
        )
        kwargs[field] = 0.0
        with pytest.raises(ValueError, match=field):
            RelayScenario(**kwargs)

    def test_ctx_type_checked(self):
        with pytest.raises(ValueError, match="EnergyContext"):
            RelayScenario(
                w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0,
                alpha=6.0, d1=0.5, d2=0.5, d3=1.0, ctx={"n0": 1e-20},
            )


class TestUnrepresentableEllipse:
    # A = g_rx_sink / g_rx_relay = 1e-320 is subnormal, so sqrt(1/A) is not
    # a finite float although the verdict itself is representable
    def test_named_value_error(self):
        s = RelayScenario(
            w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e160, g_rx_sink=1e-160,
            alpha=2.0, d1=0.5, d2=0.5, d3=1.0, ctx=CTX0,
        )
        assert relay_verdict(s).use_relay
        with pytest.raises(ValueError, match=r"^ellipse axes: .* outside the float range"):
            ellipse_axes(s)
