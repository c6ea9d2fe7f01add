"""Acceptance suite: one test per release criterion.

Each test prints a single ``[acceptance] Cn <name>: PASS`` line after its
assertions; a failing criterion fails the test (and prints nothing).
Oracles are written out locally so every check is an independent route
to the number under test, not a restatement of library internals.
"""

import math

import numpy as np
import pytest

from wastefigure import (
    Cascade,
    EnergyContext,
    FwaScenario,
    GridSpec,
    LinkTerminals,
    RelayScenario,
    Stage,
    cascade_waste,
    compose_subsystems,
    consumption_factor,
    contribution_report,
    db_to_linear,
    decision_rule_holds,
    direct_energy,
    ellipse_axes,
    energy_per_bit_link,
    energy_per_bit_min,
    fwa_decision_holds,
    fwa_direct_energy,
    fwa_relayed_energy,
    linear_to_db,
    max_efficient_distance,
    region_subset,
    relay_ratio,
    relay_verdict,
    relayed_energy,
    sweep_fwa,
    sweep_relay,
    wideband_rate_limit,
    write_region_csv,
)

LN2 = math.log(2.0)

pytestmark = pytest.mark.filterwarnings(
    "ignore::wastefigure.ApproximationRegimeWarning"
)

CTX0 = EnergyContext(n0=1e-20, capacity=1e8, p_np=0.0)


def _relay(w_src=1.0, w_rel=2.0, g_rel=1e3, g_snk=10.0, alpha=6.0,
           d1=0.5, d2=0.5, d3=1.0, ctx=CTX0, k=1.0):
    return RelayScenario(
        w_tx_source=w_src, w_tx_relay=w_rel, g_rx_relay=g_rel, g_rx_sink=g_snk,
        alpha=alpha, d1=d1, d2=d2, d3=d3, ctx=ctx, k=k,
    )


def _fig10(rho_u, alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0):
    return FwaScenario(
        w_tx_ue=3.0, w_tx_bs=15.0, w_tx_ap=10.0,
        g_rx_ue=db_to_linear(10.0), g_rx_bs=db_to_linear(15.0),
        g_rx_ap=db_to_linear(10.0),
        rho_u=rho_u,
        alpha=alpha, d1=d1, d2=d2, d3=d3, ctx=ctx,
    )


def test_c01_shannon_floor():
    ctx = EnergyContext(n0=1e-20, capacity=1e9, p_np=0.0)
    e = energy_per_bit_min(ctx, 1.0)
    assert math.isclose(e / ctx.n0, LN2, rel_tol=1e-15)
    assert abs(linear_to_db(e / ctx.n0) - (-1.59)) <= 0.01
    print("[acceptance] C1 Shannon floor: PASS")


def test_c02_cascade_fold_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        stages = tuple(
            Stage(gain=10.0 ** rng.uniform(-6, 3), waste=rng.uniform(1.0, 100.0))
            for _ in range(n)
        )
        closed = cascade_waste(Cascade(stages))

        # oracle: fold two devices at a time from the source end
        w = stages[0].waste
        for st in stages[1:]:
            w = st.waste + (w - 1.0) / st.gain
        assert math.isclose(closed, w, rel_tol=1e-12)

        # cut-point invariance at every split
        for s in range(1, n):
            w_pre, w_suf = stages[0].waste, stages[s].waste
            for st in stages[1:s]:
                w_pre = st.waste + (w_pre - 1.0) / st.gain
            for st in stages[s + 1:]:
                w_suf = st.waste + (w_suf - 1.0) / st.gain
            g_suf = math.prod(st.gain for st in stages[s:])
            assert math.isclose(
                compose_subsystems(w_pre, w_suf, g_suf), closed, rel_tol=1e-12
            )
    print("[acceptance] C2 cascade fold equivalence (1000 draws): PASS")


def test_c03_ideal_first_stage_limit():
    rng = np.random.default_rng(3)
    for w2 in (1.0, 1.0001, 1.5, 7.0, 99.0, *rng.uniform(1.0, 100.0, size=200)):
        for g2 in (1e-6, 0.01, 1.0, 3.0, 1e3, *10.0 ** rng.uniform(-6, 3, size=5)):
            assert compose_subsystems(1.0, float(w2), float(g2)) == float(w2)
    print("[acceptance] C3 ideal-first-stage limit (exact): PASS")


def test_c04_link_identity():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        t = LinkTerminals(
            w_tx=rng.uniform(1.0, 100.0),
            w_rx=rng.uniform(1.0, 100.0),
            g_rx=10.0 ** rng.uniform(-1, 4),
        )
        g_ch = 10.0 ** rng.uniform(-10, 0)
        ctx = EnergyContext(
            n0=10.0 ** rng.uniform(-21, -19),
            capacity=10.0 ** rng.uniform(6, 9),
            p_np=rng.choice([0.0, rng.uniform(1e-3, 1.0)]),
        )
        chain = Cascade((
            Stage(gain=10.0 ** rng.uniform(-2, 2), waste=t.w_tx),
            Stage.passive(g_ch),
            Stage(gain=t.g_rx, waste=t.w_rx),
        ))
        via_cascade = energy_per_bit_min(ctx, cascade_waste(chain))
        assert math.isclose(
            energy_per_bit_link(ctx, t, g_ch, mode="exact"), via_cascade, rel_tol=1e-12
        )
    print("[acceptance] C4 link identity (1000 draws): PASS")


def test_c05_wideband_convergence():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n0 = 10.0 ** rng.uniform(-21, -19)
        p_s = 10.0 ** rng.uniform(-9, -3)
        w = rng.uniform(1.0, 1e4)
        p_np = rng.choice([0.0, 10.0 ** rng.uniform(-12, -6)])
        bandwidth = 1e9 * (p_s / n0)
        cf = consumption_factor(
            bandwidth, p_s / (n0 * bandwidth), p_np, n0 * bandwidth, w
        )
        e_bc = energy_per_bit_min(
            EnergyContext(n0=n0, capacity=wideband_rate_limit(p_s, n0), p_np=p_np), w
        )
        assert math.isclose(1.0 / cf, e_bc, rel_tol=1e-4)
    print("[acceptance] C5 wideband convergence (200 draws): PASS")


def test_c06_max_distance_oracle():
    rng = np.random.default_rng(6)

    def transmission_term(ctx, t, k, alpha, d):
        g_ch = k / d**alpha
        return (LN2 * ctx.n0 / (t.g_rx * g_ch)) * (
            (t.g_rx * t.w_rx - 1.0) * g_ch + t.w_tx
        )

    def bisect(ctx, t, k, alpha):
        def holds(d):
            return ctx.p_np / ctx.capacity > transmission_term(ctx, t, k, alpha, d)

        d = 1.0
        while holds(d):
            d *= 2.0
        while not holds(d):
            d /= 2.0
        lo, hi = d, 2.0 * d
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        return 0.5 * (lo + hi)

    found = 0
    while found < 200:
        ctx = EnergyContext(
            n0=10.0 ** rng.uniform(-21, -19),
            capacity=10.0 ** rng.uniform(6, 9),
            p_np=10.0 ** rng.uniform(-3, 1),
        )
        t = LinkTerminals(
            w_tx=rng.uniform(1.0, 50.0),
            w_rx=rng.uniform(1.0, 10.0),
            g_rx=10.0 ** rng.uniform(0, 4),
        )
        k = rng.uniform(0.1, 10.0)
        alpha = rng.uniform(2.0, 6.0)
        d_star = max_efficient_distance(ctx, t, k=k, alpha=alpha)
        if d_star is None:
            continue
        found += 1
        fixed = ctx.p_np / ctx.capacity
        assert fixed > transmission_term(ctx, t, k, alpha, 0.99 * d_star)
        assert fixed < transmission_term(ctx, t, k, alpha, 1.01 * d_star)
        assert math.isclose(d_star, bisect(ctx, t, k, alpha), rel_tol=1e-6)
    print("[acceptance] C6 max-distance oracle (200 draws): PASS")


def test_c07_relay_decision_energy_equivalence():
    rng = np.random.default_rng(7)

    def draw(p_np):
        return _relay(
            w_src=rng.uniform(1.0, 20.0),
            w_rel=rng.uniform(1.0, 20.0),
            g_rel=10.0 ** rng.uniform(1, 4),
            g_snk=10.0 ** rng.uniform(1, 4),
            alpha=rng.uniform(2.0, 6.0),
            d1=rng.uniform(0.1, 2.0),
            d2=rng.uniform(0.1, 2.0),
            d3=rng.uniform(0.5, 3.0),
            ctx=EnergyContext(n0=1e-20, capacity=1e8, p_np=p_np),
            k=rng.uniform(0.5, 2.0),
        )

    checked = 0
    while checked < 10_000:
        s = draw(p_np=0.0)
        ratio = relay_ratio(s)
        if abs(ratio - 1.0) <= 1e-9:
            continue
        checked += 1
        assert decision_rule_holds(s) == (ratio < 1.0)

    checked = 0
    while checked < 10_000:
        s = draw(p_np=10.0 ** rng.uniform(-8, -2))
        ratio = relay_ratio(s)
        if abs(ratio - 1.0) <= 1e-9:
            continue
        checked += 1
        assert relay_verdict(s).use_relay == (ratio < 1.0)
    print("[acceptance] C7 relay decision/energy equivalence (2x10^4 draws): PASS")


def test_c08_ellipse_correctness():
    s = _relay(w_src=1.0, w_rel=3.0, g_rel=400.0, g_snk=25.0, alpha=2.0, d3=2.0)
    a, b = ellipse_axes(s)
    for j in range(360):
        theta = (j + 0.5) * (math.pi / 2.0) / 360.0
        d1 = a * s.d3 * math.cos(theta)
        d2 = b * s.d3 * math.sin(theta)
        lhs = (d1 / (a * s.d3)) ** 2 + (d2 / (b * s.d3)) ** 2
        assert abs(lhs - 1.0) <= 1e-12
        inner = _relay(w_src=1.0, w_rel=3.0, g_rel=400.0, g_snk=25.0,
                       alpha=2.0, d1=0.99 * d1, d2=0.99 * d2, d3=2.0)
        outer = _relay(w_src=1.0, w_rel=3.0, g_rel=400.0, g_snk=25.0,
                       alpha=2.0, d1=1.01 * d1, d2=1.01 * d2, d3=2.0)
        assert decision_rule_holds(inner)
        assert not decision_rule_holds(outer)

    symmetric = _relay(w_src=2.0, w_rel=2.0, g_rel=50.0, g_snk=50.0, alpha=2.0)
    region = sweep_relay(symmetric, GridSpec())  # [0, 1.5]^2 at 201x201
    assert abs(region.area_fraction - (math.pi / 4.0) / 2.25) <= 0.01
    print("[acceptance] C8 ellipse correctness: PASS")


def test_c09_figure_family_nesting():
    spec = GridSpec()  # 201x201 normalized

    def strictly_nested(inner, outer):
        return region_subset(inner, outer) and not region_subset(outer, inner)

    # rising relay transmitter waste shrinks the region
    r2, r4, r8 = (
        sweep_relay(_relay(w_rel=w, alpha=6.0), spec) for w in (2.0, 4.0, 8.0)
    )
    assert strictly_nested(r8, r4) and strictly_nested(r4, r2)

    # steeper path loss widens it
    a4, a5, a6 = (
        sweep_relay(_relay(w_rel=2.0, alpha=al), spec) for al in (4.0, 5.0, 6.0)
    )
    assert strictly_nested(a4, a5) and strictly_nested(a5, a6)

    # a more sensitive relay receiver widens it
    g20, g25, g30 = (
        sweep_relay(_relay(w_rel=2.0, g_rel=db_to_linear(g), alpha=6.0), spec)
        for g in (20.0, 25.0, 30.0)
    )
    assert strictly_nested(g20, g25) and strictly_nested(g25, g30)
    print("[acceptance] C9 figure-family nesting (3 families): PASS")


def test_c10_fwa_reductions():
    spec = GridSpec(nx=101, ny=101)
    for rho_u in (1.0, 0.0):
        s = _fig10(rho_u)
        if rho_u == 1.0:
            r = _relay(w_src=s.w_tx_ue, w_rel=s.w_tx_ap, g_rel=s.g_rx_ap,
                       g_snk=s.g_rx_bs, alpha=s.alpha, d1=s.d1, d2=s.d2, d3=s.d3)
        else:
            r = _relay(w_src=s.w_tx_bs, w_rel=s.w_tx_ap, g_rel=s.g_rx_ap,
                       g_snk=s.g_rx_ue, alpha=s.alpha, d1=s.d1, d2=s.d2, d3=s.d3)
        assert math.isclose(fwa_direct_energy(s), direct_energy(r), rel_tol=1e-12)
        assert math.isclose(fwa_relayed_energy(s), relayed_energy(r), rel_tol=1e-12)
        assert fwa_decision_holds(s) == decision_rule_holds(r)
        reg_f = sweep_fwa(s, spec)
        reg_r = sweep_relay(r, spec)
        assert np.array_equal(reg_f.mask, reg_r.mask)
        assert math.isclose(reg_f.area_fraction, reg_r.area_fraction, rel_tol=1e-12)
    print("[acceptance] C10 FWA pure-traffic reductions: PASS")


def test_c11_fwa_traffic_trend():
    spec = GridSpec()
    regions = [sweep_fwa(_fig10(rho_u), spec) for rho_u in (0.1, 0.5, 0.9)]
    areas = [r.area_fraction for r in regions]
    assert areas[0] >= areas[1] >= areas[2]
    assert region_subset(regions[1], regions[0])
    assert region_subset(regions[2], regions[1])
    print("[acceptance] C11 FWA traffic trend (areas {:.4f} >= {:.4f} >= {:.4f}): PASS"
          .format(*areas))


def test_c12_granular_chain():
    rng = np.random.default_rng(12)
    for _ in range(100):
        chain = Cascade((
            Stage(gain=rng.uniform(1, 100), waste=rng.uniform(1, 2), label="head rx"),
            Stage(gain=rng.uniform(1, 10), waste=rng.uniform(1, 2), label="proc"),
            Stage(gain=rng.uniform(10, 100), waste=rng.uniform(4, 10), label="pa"),
            Stage(gain=rng.uniform(1, 2), waste=1.0, label="tx antenna"),
            Stage.passive(10.0 ** rng.uniform(-8, -6), label="channel"),
            Stage(gain=rng.uniform(1, 100), waste=1.0, label="rx antenna"),
            Stage(gain=rng.uniform(1, 100), waste=rng.uniform(1, 5), label="lna"),
        ))
        rep = contribution_report(chain)
        assert math.isclose(rep.total_waste, cascade_waste(chain), rel_tol=1e-12)
        assert rep.terms[0].label == "pa"  # terms are sorted largest-first
    print("[acceptance] C12 granular chain, PA dominance (100 draws): PASS")


def test_c13_parallel_sweep_determinism(tmp_path):
    s = _relay()
    spec = GridSpec()
    blobs = []
    for i, workers in enumerate((1, 4, 4, 7)):
        path = tmp_path / f"sweep{i}.csv"
        write_region_csv(sweep_relay(s, spec, workers=workers), path)
        blobs.append(path.read_bytes())
    assert all(blob == blobs[0] for blob in blobs)
    print("[acceptance] C13 parallel sweep determinism (byte-identical CSV): PASS")
