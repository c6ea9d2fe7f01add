import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wastefigure
from wastefigure import (
    EnergyContext,
    FeasibilityRegion,
    FwaScenario,
    GridSpec,
    RelayScenario,
    fwa_verdict,
    region_json_doc,
    region_subset,
    relay_verdict,
    rle_decode,
    rule_coefficients,
    write_region_csv,
    write_region_json,
)
from wastefigure.config import load_scenario
from wastefigure.units import FLOAT_MAX

CTX0 = EnergyContext(n0=1e-20, capacity=1e8, p_np=0.0)


def area_checked(sweep):
    """``sweep``, checking that each region's area fraction is its mask's mean."""

    def checked(*args, **kwargs):
        region = sweep(*args, **kwargs)
        assert region.area_fraction == float(region.mask.mean())
        return region

    return checked


sweep_relay, sweep_fwa = area_checked(wastefigure.sweep_relay), area_checked(wastefigure.sweep_fwa)


def relay_scn(w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0, alpha=6.0, d3=1.0):
    return RelayScenario(
        w_tx_source=1.0,
        w_tx_relay=w_tx_relay,
        g_rx_relay=g_rx_relay,
        g_rx_sink=g_rx_sink,
        alpha=alpha,
        d1=0.5,
        d2=0.5,
        d3=d3,
        ctx=CTX0,
    )


def symmetric_scn(alpha=2.0):
    # unit hardware ratios: the advantageous set is the quarter disc d1^2+d2^2<1
    return relay_scn(w_tx_relay=1.0, g_rx_relay=10.0, g_rx_sink=10.0, alpha=alpha)


def loop_mask(spec, s, a, b):
    """Brute-force reference: evaluate the rule point by point in Python, sink at the scenario's d3."""
    alpha, xs, ys = s.alpha, spec.x_points(), spec.y_points()
    out = np.zeros((spec.nx, spec.ny), dtype=bool)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if spec.mode == "normalized":
                d1, d2, lhs = x, y, 1.0
            else:
                d1 = math.hypot(x, y)
                d2 = math.hypot(x - s.d3, y)
                lhs = s.d3**alpha
            out[i, j] = lhs > a * d1**alpha + b * d2**alpha
    return out


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.mode == "normalized"
        assert spec.x_range == (0.0, 1.5)
        assert spec.y_range == (0.0, 1.5)
        assert spec.nx == spec.ny == 201

    def test_points_hit_endpoints(self):
        spec = GridSpec(nx=4, ny=3)
        assert spec.x_points()[0] == 0.0
        assert spec.x_points()[-1] == 1.5
        assert len(spec.y_points()) == 3

    def test_planar_box_around_segment(self):
        spec = GridSpec.planar_around(2.0)
        assert spec.mode == "planar"
        assert spec.x_range == (-0.5, 2.5)
        assert spec.y_range == (-1.5, 1.5)
        assert spec.d3 == 2.0

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_python_points_equal_numpy_linspace(self, data):
        from wastefigure.region import _linspace

        finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)
        lo = data.draw(finite)
        # spans from subnormal (the step underflows to 0) to wide, at negative lows too
        span = data.draw(st.one_of(
            st.floats(min_value=5e-324, max_value=1e-300), st.floats(min_value=1e-300, max_value=1e300),
        ))
        hi = lo + span
        assume(lo < hi and hi - lo <= FLOAT_MAX)
        n = data.draw(st.one_of(st.just(2), st.integers(min_value=2, max_value=400)))
        got = _linspace(lo, hi, n)
        assert {type(v) for v in got} == {float}
        want = np.linspace(lo, hi, n).view(np.int64)
        assert np.array_equal(np.array(got).view(np.int64), want)
        grid = GridSpec(mode="planar", x_range=(lo, hi), nx=n, ny=2)
        assert np.array_equal(grid.x_points().view(np.int64), want)

    @pytest.mark.parametrize("lo, hi, n", [(0.0, 1.5e-323, 7), (-1.0, -1.0 + 2**-52, 7), (-3.5, -0.25, 2)])
    def test_python_points_edge_cases(self, lo, hi, n):
        from wastefigure.region import _linspace

        want = np.linspace(lo, hi, n).view(np.int64)
        assert np.array_equal(np.array(_linspace(lo, hi, n)).view(np.int64), want)
        grid = GridSpec(mode="planar", x_range=(lo, hi), nx=n, ny=2)
        assert np.array_equal(grid.x_points().view(np.int64), want)

    def test_grid_points_are_the_python_points(self):
        from wastefigure.region import _linspace

        spec = GridSpec.planar_around(3.7, nx=2001, ny=7)
        assert spec.x_points().tolist() == _linspace(*spec.x_range, 2001)
        assert spec.y_points().tolist() == _linspace(*spec.y_range, 7)

    @pytest.mark.parametrize("bad", [(-0.5, 1.0), [-1, 1]])
    def test_normalized_rejects_negative_axes(self, bad):
        with pytest.raises(ValueError) as raised:
            GridSpec(x_range=bad)
        assert str(raised.value) == (
            "x_range: normalized coordinates are distance ratios and cannot be negative, "
            f"got lower bound {float(bad[0])!r}"
        )

    def test_planar_allows_negative_axes(self):
        spec = GridSpec(mode="planar", x_range=[-1, 2], y_range=(-1.0, 1))
        # lists and ints come out as float tuples
        assert spec.x_range == (-1.0, 2.0) and spec.y_range == (-1.0, 1.0)
        assert {type(v) for v in spec.x_range + spec.y_range} == {float}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1.0, 1.0), "must satisfy low < high, got (1.0, 1.0)"),
            ((2.0, 1.0), "must satisfy low < high, got (2.0, 1.0)"),
            ((0.0, math.inf), "must satisfy low < high, got (0.0, inf)"),
            ((0.0, 10**400), f"must satisfy low < high, got (0.0, {10**400!r})"),
            # high - low overflows, so np.linspace would space the points by inf
            ((-1e308, 1e308), "must have a finite span high - low, got (-1e+308, 1e+308)"),
            (("0", "1.5"), "must be a number, got '0'"),
            ((0.0, "1"), "must be a number, got '1'"),
            ((None, 1.0), "must be a number, got None"),
            ((0.0,), "must be a (low, high) pair, got (0.0,)"),
            ((0.0, 1.0, 2.0), "must be a (low, high) pair, got (0.0, 1.0, 2.0)"),
            (1.0, "must be a (low, high) pair, got 1.0"),
            # True is an int to Python, but no coordinate, as nx=True is no count
            ((False, True), "must be a number, got False"),
        ],
        ids=["equal", "decreasing", "inf", "huge-int", "span-overflow",
             "str", "str-high", "none", "one", "three", "scalar", "bool"],
    )
    def test_range_must_increase(self, bad, message):
        with pytest.raises(ValueError) as raised:
            GridSpec(x_range=bad)
        assert str(raised.value) == f"x_range {message}"

    @pytest.mark.parametrize("n", [1, 0, -3, 2.5, True, 2**63])
    def test_grid_size_validation(self, n):
        with pytest.raises(ValueError, match="nx"):
            GridSpec(nx=n)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            GridSpec(mode="polar")

    def test_bad_d3(self):
        with pytest.raises(ValueError, match="d3"):
            GridSpec(d3=0.0)


class TestSweepRelay:
    def test_matches_pointwise_loop(self):
        s = relay_scn()
        spec = GridSpec(nx=21, ny=17)
        region = sweep_relay(s, spec)
        expected = loop_mask(spec, s, s.g_rx_sink / s.g_rx_relay, s.w_tx_relay)
        assert np.array_equal(region.mask, expected)

    def test_planar_matches_pointwise_loop(self):
        s = relay_scn(alpha=3.0, d3=2.0)
        spec = GridSpec.planar_around(2.0, nx=19, ny=23)
        region = sweep_relay(s, spec)
        expected = loop_mask(
            spec, s, s.g_rx_sink / s.g_rx_relay, s.w_tx_relay / s.w_tx_source
        )
        assert np.array_equal(region.mask, expected)

    def test_quarter_circle_area(self):
        region = sweep_relay(symmetric_scn(), GridSpec())
        assert abs(region.area_fraction - (math.pi / 4) / 2.25) < 0.01

    def test_boundary_points_are_excluded(self):
        # grid (0, 0.5, 1)^2 with the unit quarter circle: (1, 0) and
        # (0, 1) land exactly on the boundary and must not be members
        spec = GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), nx=3, ny=3)
        mask = sweep_relay(symmetric_scn(), spec).mask
        assert mask[0, 0] and mask[1, 0] and mask[0, 1]
        assert not mask[2, 0] and not mask[0, 2]
        assert not mask[2, 2]

    def test_scenario_distances_do_not_matter(self):
        s1 = relay_scn()
        s2 = RelayScenario(
            w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0,
            alpha=6.0, d1=2.9, d2=0.01, d3=0.7, ctx=CTX0,
        )
        spec = GridSpec(nx=31, ny=31)
        assert np.array_equal(sweep_relay(s1, spec).mask, sweep_relay(s2, spec).mask)

    def test_area_is_mask_mean(self):
        region = sweep_relay(relay_scn(), GridSpec(nx=41, ny=41))
        assert region.area_fraction == pytest.approx(region.mask.mean(), abs=0.0)

    def test_mask_is_read_only(self):
        region = sweep_relay(relay_scn(), GridSpec(nx=5, ny=5))
        with pytest.raises(ValueError):
            region.mask[0, 0] = True

    @pytest.mark.parametrize("d3", [1e200, 1e-200])
    def test_planar_d3_power_outside_float_range_is_named(self, d3):
        with pytest.raises(ValueError, match=r"^sweep: d3\*\*alpha = .* is outside the float range$"):
            sweep_relay(relay_scn(d3=d3), GridSpec.planar_around(d3, nx=5, ny=5))

    @pytest.mark.parametrize("n", [sys.maxsize, sys.maxsize // 8])
    @pytest.mark.parametrize("axis", ["nx", "ny"])
    def test_planar_count_numpy_cannot_size_is_memory_error(self, axis, n):
        # numpy refuses both counts by arithmetic, before it allocates anything
        spec = GridSpec(mode="planar", **{axis: n})
        with pytest.raises(MemoryError, match=f"^{n} grid points do not fit in an array$"):
            sweep_relay(relay_scn(), spec)


class TestNormalizedKernelOnPythonFloats:
    """Normalized cells follow Python's ``**``, the pow of ``Rule.margin``, cell for cell."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mask_equals_pointwise_loop(self, data):
        alpha = data.draw(st.one_of(st.sampled_from([2.0, 3.0, 3.7, 4.0, 6.1]), st.floats(0.5, 8.0)))
        a, b = (data.draw(st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)) for _ in "ab")
        sx, sy = a ** (-1.0 / alpha), b ** (-1.0 / alpha)  # the region lies in x < sx, y < sy
        (x0, xw), (y0, yw) = (
            (data.draw(st.floats(0.0, 0.9)), data.draw(st.floats(0.05, 2.0))) for _ in "xy"
        )
        spec = GridSpec(
            x_range=(x0 * sx, (x0 + xw) * sx), y_range=(y0 * sy, (y0 + yw) * sy),
            nx=data.draw(st.integers(min_value=2, max_value=120)),
            ny=data.draw(st.integers(min_value=2, max_value=120)),
        )
        s = RelayScenario(
            w_tx_source=1e3, w_tx_relay=1e3 * b, g_rx_relay=1.0, g_rx_sink=a,
            alpha=alpha, d1=0.5, d2=0.5, d3=1.0, ctx=CTX0,
        )
        rule = s._rule()
        region = sweep_relay(s, spec)
        assert np.array_equal(region.mask, loop_mask(spec, s, rule.a, rule.b))
        assert region.area_fraction == float(region.mask.mean())


class TestSweepFwa:
    def test_matches_pointwise_loop(self):
        s = FwaScenario(
            w_tx_ue=3.0, w_tx_bs=15.0, w_tx_ap=10.0,
            g_rx_ue=10.0, g_rx_bs=10.0**1.5, g_rx_ap=10.0,
            rho_u=0.5,
            alpha=4.0, d1=0.4, d2=0.5, d3=1.0, ctx=CTX0,
        )
        spec = GridSpec(nx=15, ny=15)
        a, b = rule_coefficients(s)
        assert np.array_equal(sweep_fwa(s, spec).mask, loop_mask(spec, s, a, b))


class TestParallelSweeps:
    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_same_mask_as_serial(self, workers):
        s = relay_scn()
        spec = GridSpec(nx=101, ny=67)
        serial = sweep_relay(s, spec, workers=1)
        parallel = sweep_relay(s, spec, workers=workers)
        assert np.array_equal(serial.mask, parallel.mask)

    def test_more_workers_than_rows(self):
        s = relay_scn()
        spec = GridSpec(nx=3, ny=4)
        assert np.array_equal(
            sweep_relay(s, spec, workers=16).mask, sweep_relay(s, spec).mask
        )

    def test_repeated_csv_bytes_identical(self, tmp_path):
        s = relay_scn()
        spec = GridSpec(nx=64, ny=64)
        paths = [tmp_path / f"run{i}.csv" for i in range(3)]
        for i, path in enumerate(paths):
            write_region_csv(sweep_relay(s, spec, workers=1 + 3 * i), path)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]


def reference_rule_mask(spec, s, a, b, lhs=None):
    """Full-grid broadcast evaluation of the rule: the sweeps must equal it bit for bit.

    The sink is at the scenario's d3. ``lhs`` defaults to the rule's constant
    side without a non-path power term.
    """
    alpha = s.alpha
    x = spec.x_points()[:, None]
    y = spec.y_points()[None, :]
    if spec.mode == "normalized":
        d1, d2, lhs0 = x, y, 1.0
    else:
        d1 = np.hypot(x, y)
        d2 = np.hypot(x - s.d3, y)
        lhs0 = s.d3**alpha
    if lhs is None:
        lhs = lhs0
    with np.errstate(over="ignore"):
        return lhs > a * d1**alpha + b * d2**alpha


def fwa_scn(alpha=4.0, g_rx_ap=10.0, d3=1.0):
    return FwaScenario(
        w_tx_ue=3.0, w_tx_bs=15.0, w_tx_ap=10.0,
        g_rx_ue=10.0, g_rx_bs=10.0**1.5, g_rx_ap=g_rx_ap,
        rho_u=0.5,
        alpha=alpha, d1=0.4, d2=0.5, d3=d3, ctx=CTX0,
    )


def swept_and_reference(kind, s, spec):
    if kind == "relay":
        region = sweep_relay(s, spec)
        a, b = s.g_rx_sink / s.g_rx_relay, s.w_tx_relay / s.w_tx_source
    else:
        region = sweep_fwa(s, spec)
        a, b = rule_coefficients(s)
    return region, reference_rule_mask(spec, s, a, b)


def planar(x_range, y_range, nx, ny, d3=1.0):
    return GridSpec(mode="planar", x_range=x_range, y_range=y_range, nx=nx, ny=ny, d3=d3)


class TestIntervalKernelExact:
    @pytest.mark.parametrize("kind", ["relay", "fwa"])
    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec.planar_around(3.7, nx=2001, ny=2001),
            planar((-1.0, 2.0), (0.05, 1.5), 101, 89),
            planar((-1.0, 2.0), (-1.5, -0.05), 101, 89),
            planar((-1.0, 2.0), (-0.3, 1.7), 113, 97),
            planar((-1.0, 2.0), (-1.0, 2.0), 87, 301),
            GridSpec(x_range=(0.2, 1.5), y_range=(0.0, 1.5), nx=97, ny=113),
            GridSpec(nx=2, ny=2),
            GridSpec(nx=3, ny=17),
            GridSpec.planar_around(1.0, nx=2, ny=2),
            GridSpec.planar_around(1.0, nx=3, ny=17),
        ],
        ids=[
            "planar-2001", "planar-y-above-0", "planar-y-below-0",
            "planar-off-centre", "planar-zero-on-grid", "normalized-x-above-0",
            "normalized-2x2", "normalized-3x17", "planar-2x2", "planar-3x17",
        ],
    )
    def test_mask_equals_full_grid_kernel(self, kind, spec):
        s = (relay_scn if kind == "relay" else fwa_scn)(alpha=4.0, d3=spec.d3)
        region, expected = swept_and_reference(kind, s, spec)
        assert np.array_equal(region.mask, expected)
        assert region.area_fraction == float(region.mask.mean())

    @pytest.mark.parametrize("kind", ["relay", "fwa"])
    @pytest.mark.parametrize(
        "spec, g_rx",
        [
            (GridSpec(x_range=(0.0, 1e200), y_range=(0.0, 1.5), nx=41, ny=43), 1e3),
            (planar((-1e100, 1e100), (-2.0, 2.0), 41, 43), 1e3),
            (planar((-1.0, 2.0), (-1e200, 1e200), 41, 43), 1e3),
            (GridSpec.planar_around(3.7, nx=61, ny=59), 1e-300),
            (GridSpec(nx=61, ny=59), 1e-300),
        ],
        ids=["normalized-range", "planar-x-range", "planar-y-range",
             "planar-coefficient", "normalized-coefficient"],
    )
    def test_overflow_to_inf_drops_whole_rows(self, kind, spec, g_rx):
        # g_rx is the first hop's receiver gain: a tiny one makes A ~ 1e301
        if kind == "relay":
            s = relay_scn(alpha=4.0, g_rx_relay=g_rx, d3=spec.d3)
        else:
            s = fwa_scn(alpha=4.0, g_rx_ap=g_rx, d3=spec.d3)
        region, expected = swept_and_reference(kind, s, spec)
        assert np.array_equal(region.mask, expected)
        assert not region.mask.any(axis=1).all()
        assert region.area_fraction == float(region.mask.mean())

    def test_zero_coefficient_times_inf_power_without_warning(self):
        # A = 1e-200 / 1e200 underflows to 0, and 0 * inf is nan past the
        # first row: nan compares false, so those cells are not advantageous
        s = relay_scn(g_rx_relay=1e200, g_rx_sink=1e-200)
        assert s._rule().a == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            region = sweep_relay(s, GridSpec(x_range=(0.0, 1e200), nx=5, ny=5))
        expected = np.zeros((5, 5), dtype=bool)
        expected[0, :3] = True
        assert np.array_equal(region.mask, expected)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_grid_matches_full_grid_kernel(self, data):
        mode = data.draw(st.sampled_from(["normalized", "planar"]))
        alpha = data.draw(st.floats(min_value=0.5, max_value=6.0))
        coeff = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)
        a, b = data.draw(coeff), data.draw(coeff)
        d3 = data.draw(st.floats(min_value=0.1, max_value=10.0))
        # the advantageous set lies in d1 < sx * d3 and d2 < sy * d3; drawing
        # the grid ranges around that box keeps most masks nontrivial
        sx, sy = a ** (-1.0 / alpha), b ** (-1.0 / alpha)
        if mode == "normalized":
            box, low = ((0.0, sx), (0.0, sy)), 0.0
        else:
            assume(sx + sy > 1.0)  # otherwise no point of the plane qualifies
            h = min(sx, sy) * d3
            box, low = ((max(-sx, 1.0 - sy) * d3, min(sx, 1.0 + sy) * d3), (-h, h)), -0.5
        ranges = []
        for lo, hi in box:
            start = data.draw(st.floats(min_value=low, max_value=0.9))
            width = data.draw(st.floats(min_value=0.05, max_value=2.0))
            ranges.append((lo + start * (hi - lo), lo + (start + width) * (hi - lo)))
        spec = GridSpec(
            mode=mode,
            x_range=ranges[0],
            y_range=ranges[1],
            nx=data.draw(st.integers(min_value=2, max_value=300)),
            ny=data.draw(st.integers(min_value=2, max_value=300)),
        )
        s = RelayScenario(
            w_tx_source=1e3, w_tx_relay=1e3 * b, g_rx_relay=1.0, g_rx_sink=a,
            alpha=alpha, d1=0.5, d2=0.5, d3=d3, ctx=CTX0,
        )
        region, expected = swept_and_reference("relay", s, spec)
        assert np.array_equal(region.mask, expected)
        assert region.area_fraction == float(region.mask.mean())


def true_from(firsts, start, stop):
    """Predicate false-then-true along each row, first true at firsts[row]; only reads [start, stop)."""

    def pred(rows, js):
        assert np.all((start <= js) & (js < stop))
        return js >= firsts[rows]

    return pred


class TestSeededFirstTrue:
    """Seeded row ends are certified by the predicate itself, and bisected where they fail."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_adversarial_seeds_equal_bisection(self, data):
        from wastefigure.region import _first_true

        nrows = data.draw(st.integers(min_value=1, max_value=40))
        start = data.draw(st.integers(min_value=0, max_value=20))
        stop = data.draw(st.integers(min_value=start, max_value=start + 30))
        row_ints = lambda values: st.lists(values, min_size=nrows, max_size=nrows).map(np.array)
        firsts = data.draw(row_ints(st.integers(min_value=start, max_value=stop)))
        seed = st.one_of(
            st.integers(min_value=start, max_value=stop),
            st.sampled_from([start, stop, start - 1, stop + 1, -(10**12), 10**12]),
            st.integers(min_value=-(10**12), max_value=10**12),
        )
        pred = true_from(firsts, start, stop)
        got = _first_true(pred, data.draw(row_ints(seed)), start, stop)
        assert np.array_equal(got, firsts)

    @pytest.mark.parametrize("start", [0, 7])
    def test_empty_range_returns_start(self, start):
        from wastefigure.region import _first_true

        pred = true_from(np.array([start] * 4), start, start)
        seeds = np.array([start - 5, start, start + 1, 10**9])
        assert np.array_equal(_first_true(pred, seeds, start, start), [start] * 4)

    def test_exact_seeds_evaluate_the_predicate_once(self):
        from wastefigure.region import _first_true

        firsts = np.array([0, 3, 10, 5, 10, 1])
        calls = []
        pred = true_from(firsts, 0, 10)
        counted = lambda rows, js: calls.append(rows.size) or pred(rows, js)
        assert np.array_equal(_first_true(counted, firsts.copy(), 0, 10), firsts)
        assert calls == [9]  # one call: at s in the 4 rows with s < 10, at s - 1 in the 5 with s > 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sweeps_equal_full_grid_rule_with_fixed_power(self, data):
        from wastefigure.region import _rle_encode

        alpha = data.draw(st.floats(min_value=0.5, max_value=8.0))
        d3 = data.draw(log_uniform(-2.0, 2.0))
        waste, gain = log_uniform(0.0, 15.0), log_uniform(-15.0, 15.0)
        common = dict(alpha=alpha, d1=0.5, d2=0.5, d3=d3, ctx=CTX0)
        if data.draw(st.booleans()):
            s = RelayScenario(
                w_tx_source=data.draw(waste), w_tx_relay=data.draw(waste),
                g_rx_relay=data.draw(gain), g_rx_sink=data.draw(gain), **common,
            )
        else:
            s = FwaScenario(
                w_tx_ue=data.draw(waste), w_tx_bs=data.draw(waste), w_tx_ap=data.draw(waste),
                g_rx_ue=data.draw(gain), g_rx_bs=data.draw(gain), g_rx_ap=data.draw(gain),
                rho_u=data.draw(st.floats(min_value=0.0, max_value=1.0)),
                **common,
            )
        # c is linear in p_np: scale p_np so that c / d3**alpha is the drawn share;
        # a share >= 1 leaves lhs <= 0 at the scenario's d3, so no cell qualifies
        share = data.draw(st.one_of(st.just(0.0), log_uniform(-6.0, -0.01), log_uniform(0.0, 0.5)))
        c_unit = dataclasses.replace(s, ctx=dataclasses.replace(CTX0, p_np=1.0))._rule().c
        s = dataclasses.replace(s, ctx=dataclasses.replace(CTX0, p_np=share * d3**alpha / c_unit))
        a, b, c, _ = s._rule()
        assert (c > 0.0) == (share > 0.0)
        # ranges drawn around the box the advantageous set lies in (as a share of d3)
        room = 1.0 - share if share < 1.0 else 1.0
        sx, sy = (room / a) ** (1.0 / alpha), (room / b) ** (1.0 / alpha)
        nx, ny = (data.draw(st.integers(min_value=2, max_value=150)) for _ in "xy")
        # each range: a start in [0, 0.9] and a width in [0.05, 2], as shares of its box
        (x0, xw), (y0, yw) = (
            (data.draw(st.floats(0.0, 0.9)), data.draw(st.floats(0.05, 2.0))) for _ in "xy"
        )
        if data.draw(st.booleans()):
            ranges = (x0 * sx, (x0 + xw) * sx), (y0 * sy, (y0 + yw) * sy)
            grid = dict(mode="normalized")
            lhs = 1.0 - c / d3**alpha
        else:
            # the grid boxes the plane around its own d3, g3; the sink stays at
            # the scenario's d3, so lhs = d3**alpha - c whatever g3 is
            g3 = d3 * data.draw(st.one_of(st.just(1.0), log_uniform(-0.3, 0.3)))
            if sx + sy > 1.0:
                (x_lo, x_hi), h = (max(-sx, 1.0 - sy), min(sx, 1.0 + sy)), min(sx, sy)
            else:  # no point of the plane qualifies
                (x_lo, x_hi), h = (-1.0, 2.0), 1.0
            side = data.draw(st.sampled_from(["above", "below", "straddle"]))
            y_lo, y_hi = {"above": (y0, y0 + yw), "below": (-y0 - yw, -y0),
                          "straddle": (-y0 - 0.01, yw)}[side]
            ranges = (
                tuple(g3 * (x_lo + f * (x_hi - x_lo)) for f in (x0, x0 + xw)),
                (g3 * h * y_lo, g3 * h * y_hi),
            )
            grid = dict(mode="planar", d3=g3)
            lhs = d3**alpha - c
        assume(all(lo < hi for lo, hi in ranges))  # a narrow box far from 0 can round shut
        spec = GridSpec(x_range=ranges[0], y_range=ranges[1], nx=nx, ny=ny, **grid)
        expected = reference_rule_mask(spec, s, a, b, lhs=lhs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sweep = sweep_relay if isinstance(s, RelayScenario) else sweep_fwa
            region = sweep(s, spec)
        assert region.rle == _rle_encode(expected.ravel())
        assert region.area_fraction == float(expected.mean())


class TestSubset:
    def test_heavier_relay_hardware_shrinks_region(self):
        spec = GridSpec(nx=51, ny=51)
        light = sweep_relay(relay_scn(w_tx_relay=2.0), spec)
        heavy = sweep_relay(relay_scn(w_tx_relay=8.0), spec)
        assert region_subset(heavy, light)
        assert not region_subset(light, heavy)

    def test_identical_region_is_its_own_subset(self):
        spec = GridSpec(nx=21, ny=21)
        r = sweep_relay(relay_scn(), spec)
        assert region_subset(r, r)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_runs_equal_mask_formula_on_hand_built_regions(self, data):
        nx = data.draw(st.integers(min_value=2, max_value=8))
        ny = data.draw(st.integers(min_value=2, max_value=8))
        spec = GridSpec(nx=nx, ny=ny)
        bits = st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny)
        inner = np.array(data.draw(bits), dtype=bool).reshape(nx, ny)
        # an outer mask that covers inner half the time, with extra cells
        outer = np.array(data.draw(bits), dtype=bool).reshape(nx, ny)
        if data.draw(st.booleans()):
            outer |= inner
        regions = [
            FeasibilityRegion.from_mask(spec=spec, mask=m, scenario=relay_scn())
            for m in (inner, outer)
        ]
        assert region_subset(*regions) == bool(np.all(outer | ~inner))
        assert region_subset(*regions[::-1]) == bool(np.all(inner | ~outer))

    @pytest.mark.parametrize(
        "spec", [GridSpec(nx=61, ny=47), GridSpec.planar_around(2.0, nx=53, ny=61)],
        ids=["normalized", "planar"],
    )
    def test_runs_equal_mask_formula_on_swept_pairs(self, spec):
        regions = [sweep_relay(relay_scn(w_tx_relay=w), spec) for w in (1.0, 2.0, 8.0)]
        regions += [sweep_relay(relay_scn(g_rx_relay=g), spec) for g in (10.0, 1e4)]
        for inner in regions:
            for outer in regions:
                assert region_subset(inner, outer) == bool(np.all(outer.mask | ~inner.mask))

    def test_mismatched_grids_rejected(self):
        r1 = sweep_relay(relay_scn(), GridSpec(nx=21, ny=21))
        r2 = sweep_relay(relay_scn(), GridSpec(nx=22, ny=21))
        with pytest.raises(ValueError, match="identical grids"):
            region_subset(r1, r2)


class TestCsv:
    def test_exact_layout(self, tmp_path):
        spec = GridSpec(x_range=(0.0, 1.0), y_range=(0.0, 1.0), nx=2, ny=2)
        region = sweep_relay(symmetric_scn(), spec)
        path = tmp_path / "region.csv"
        write_region_csv(region, path)
        assert path.read_text() == (
            "x,y,advantageous\n"
            "0,0,1\n"
            "0,1,0\n"
            "1,0,0\n"
            "1,1,0\n"
        )

    def test_row_count_and_header(self, tmp_path):
        spec = GridSpec(nx=7, ny=5)
        path = tmp_path / "region.csv"
        write_region_csv(sweep_relay(relay_scn(), spec), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,advantageous"
        assert len(lines) == 1 + 7 * 5

    def test_x_varies_slowest(self, tmp_path):
        spec = GridSpec(nx=3, ny=2)
        path = tmp_path / "region.csv"
        write_region_csv(sweep_relay(relay_scn(), spec), path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        xs = [float(r[0]) for r in rows]
        assert xs == sorted(xs)
        assert xs[0] == xs[1] < xs[2]


def reference_write_csv(region, path):
    """The per-point CSV formatter, kept as the reference for the format."""
    xs = region.spec.x_points()
    ys = region.spec.y_points()
    lines = ["x,y,advantageous"]
    for i in range(region.spec.nx):
        x = xs[i]
        row = region.mask[i]
        for j in range(region.spec.ny):
            lines.append(f"{x:.17g},{ys[j]:.17g},{int(row[j])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def assert_csv_matches_reference(region, directory):
    write_region_csv(region, directory / "region.csv")
    reference_write_csv(region, directory / "reference.csv")
    assert (directory / "region.csv").read_bytes() == (directory / "reference.csv").read_bytes()


class TestCsvGoldenBytes:
    @pytest.mark.parametrize(
        "spec",
        [
            GridSpec(),
            GridSpec.planar_around(3.7, nx=61, ny=47),
            GridSpec(nx=2, ny=2),
            GridSpec(nx=3, ny=17),
            GridSpec(x_range=(0.0, 1e-300), y_range=(0.1, 3e5), nx=2, ny=7),
        ],
        ids=["normalized-201", "planar", "2x2", "3x17", "extreme-range"],
    )
    def test_swept_grid_matches_reference(self, spec, tmp_path):
        region = sweep_relay(relay_scn(alpha=2.0), spec)
        assert 0.0 < region.area_fraction < 1.0
        assert_csv_matches_reference(region, tmp_path)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_grid_and_mask_match_reference(self, data, tmp_path_factory):
        mode = data.draw(st.sampled_from(["normalized", "planar"]))
        low = 0.0 if mode == "normalized" else -1e300
        bound = st.floats(min_value=low, max_value=1e300, allow_nan=False)
        x_range = sorted(data.draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
        y_range = sorted(data.draw(st.lists(bound, min_size=2, max_size=2, unique=True)))
        nx = data.draw(st.integers(min_value=2, max_value=9))
        ny = data.draw(st.integers(min_value=2, max_value=9))
        spec = GridSpec(mode=mode, x_range=x_range, y_range=y_range, nx=nx, ny=ny)
        bits = data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
        mask = np.array(bits, dtype=bool).reshape(nx, ny)
        region = FeasibilityRegion.from_mask(spec=spec, mask=mask, scenario=relay_scn())
        assert_csv_matches_reference(region, tmp_path_factory.mktemp("csv"))


class TestJson:
    def region(self, nx=21, ny=13):
        return sweep_relay(relay_scn(), GridSpec(nx=nx, ny=ny))

    def test_doc_round_trips_mask(self):
        region = self.region()
        doc = region_json_doc(region)
        assert doc["mask"]["order"] == "x-major"
        rebuilt = rle_decode(
            doc["mask"]["first"], doc["mask"]["runs"], (region.spec.nx, region.spec.ny)
        )
        assert np.array_equal(rebuilt, region.mask)

    def test_doc_contents(self):
        region = self.region()
        doc = region_json_doc(region)
        assert doc["grid"]["nx"] == 21
        assert doc["grid"]["mode"] == "normalized"
        assert doc["area_fraction"] == region.area_fraction
        assert doc["scenario"] == region.scenario.to_config()

    def test_written_file_is_valid_json(self, tmp_path):
        region = self.region()
        path = tmp_path / "region.json"
        write_region_json(region, path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(region_json_doc(region)))

    @pytest.mark.parametrize(
        "flat",
        [
            [True, True, True, True],
            [False, False, False, False],
            [True, False, True, False],
            [False, True, True, False],
        ],
    )
    def test_rle_edge_patterns(self, flat):
        arr = np.array(flat, dtype=bool).reshape(2, 2)
        # encode through the public doc path by faking a region is overkill;
        # decode is public, so check decode(encode) via json doc on real sweeps
        from wastefigure.region import _rle_encode

        first, runs = _rle_encode(arr.ravel())
        assert sum(runs) == arr.size
        assert np.array_equal(rle_decode(first, runs, (2, 2)), arr)


def verdict_disagreements(s, spec, cells):
    """Cells (i, j) whose sweep mask differs from the scalar verdict there.

    Each cell's geometry is the one the sweep implies: normalized ratios
    scaled by the scenario's d3, or planar positions with the scenario's d3.
    Cells on a near-tie (|ratio - 1| < 1e-9) or at a zero distance are
    skipped.
    """
    if isinstance(s, RelayScenario):
        sweep, verdict, use = sweep_relay, relay_verdict, "use_relay"
    else:
        sweep, verdict, use = sweep_fwa, fwa_verdict, "use_ap"
    mask = sweep(s, spec).mask
    xs, ys = spec.x_points(), spec.y_points()
    bad = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, j in cells:
            x, y = float(xs[i]), float(ys[j])
            if spec.mode == "normalized":
                geometry = dict(d1=x * s.d3, d2=y * s.d3)
            else:
                geometry = dict(d1=math.hypot(x, y), d2=math.hypot(x - s.d3, y))
            if min(geometry["d1"], geometry["d2"]) == 0.0:
                continue
            v = verdict(dataclasses.replace(s, **geometry))
            if abs(v.ratio - 1.0) >= 1e-9 and bool(mask[i, j]) != getattr(v, use):
                bad.append((i, j))
    return bad


def log_uniform(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0**e)


class TestSweepFollowsVerdict:
    """The sweeps apply the verdict's full rule, non-path power term included."""

    @pytest.mark.parametrize("mode", ["normalized", "planar"])
    def test_relay_demo_with_non_path_power(self, mode):
        path = Path(__file__).resolve().parent.parent / "scenarios" / "relay.json"
        s = load_scenario(path).relay
        s = dataclasses.replace(s, ctx=dataclasses.replace(s.ctx, p_np=1e-9))
        if mode == "normalized":
            spec = GridSpec(nx=51, ny=51)
        else:
            spec = GridSpec.planar_around(s.d3, nx=51, ny=51)
        cells = [(i, j) for i in range(51) for j in range(51)]
        assert verdict_disagreements(s, spec, cells) == []
        # at p_np = 2e-12 the verdict is "use direct": no grid point beats the direct
        # route to the scenario's sink, whichever d3 the grid was built or boxed around
        s = dataclasses.replace(s, ctx=dataclasses.replace(s.ctx, p_np=2e-12))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wastefigure.ApproximationRegimeWarning)
            assert not relay_verdict(s).use_relay
        for g3 in (0.5, 2.0, 7.0):
            grid = GridSpec(nx=51, ny=51, d3=g3) if mode == "normalized" else GridSpec.planar_around(g3)
            assert sweep_relay(s, grid).area_fraction == 0.0

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mask_equals_verdict_at_random_cells(self, data):
        ctx = EnergyContext(
            n0=1e-20,
            capacity=1e8,
            p_np=data.draw(st.one_of(st.just(0.0), log_uniform(-14.0, -6.0))),
        )
        common = dict(
            alpha=data.draw(st.floats(min_value=1.0, max_value=6.0)),
            d1=0.5,
            d2=0.5,
            d3=data.draw(log_uniform(-1.0, 2.0)),
            ctx=ctx,
            k=data.draw(log_uniform(-2.0, 1.0)),
        )
        waste, gain = log_uniform(0.0, 2.0), log_uniform(0.0, 4.0)
        if data.draw(st.booleans()):
            s = RelayScenario(
                w_tx_source=data.draw(waste), w_tx_relay=data.draw(waste),
                g_rx_relay=data.draw(gain), g_rx_sink=data.draw(gain), **common,
            )
        else:
            s = FwaScenario(
                w_tx_ue=data.draw(waste), w_tx_bs=data.draw(waste), w_tx_ap=data.draw(waste),
                g_rx_ue=data.draw(gain), g_rx_bs=data.draw(gain), g_rx_ap=data.draw(gain),
                rho_u=data.draw(st.floats(min_value=0.0, max_value=1.0)),
                **common,
            )
        nx = data.draw(st.integers(min_value=3, max_value=80))
        ny = data.draw(st.integers(min_value=3, max_value=80))
        if data.draw(st.booleans()):
            hi = st.floats(min_value=0.2, max_value=3.0)
            spec = GridSpec(x_range=(0.0, data.draw(hi)), y_range=(0.0, data.draw(hi)), nx=nx, ny=ny)
        else:
            spec = GridSpec.planar_around(s.d3, nx=nx, ny=ny)
        cell = st.tuples(st.integers(1, nx - 2), st.integers(1, ny - 2))
        cells = data.draw(st.lists(cell, min_size=1, max_size=30))
        assert verdict_disagreements(s, spec, cells) == []


def interval_mask(los, his, ny):
    mask = np.zeros((len(los), ny), dtype=bool)
    for i, (lo, hi) in enumerate(zip(los, his)):
        mask[i, lo:hi] = True
    return mask


@st.composite
def row_intervals(draw):
    """Per-row [lo, hi): empty, full, touching either edge, or inside."""
    nx = draw(st.integers(min_value=1, max_value=12))
    ny = draw(st.integers(min_value=1, max_value=12))
    edge = st.sampled_from([0, ny])
    inner = st.integers(min_value=0, max_value=ny)
    los, his = [], []
    for _ in range(nx):
        lo, hi = sorted(draw(st.tuples(st.one_of(edge, inner), st.one_of(edge, inner))))
        los.append(lo)
        his.append(hi)
    return np.array(los), np.array(his), ny


class TestIntervalRuns:
    """A sweep's runs come from its row intervals; they must equal the mask's encoding."""

    @settings(max_examples=500, deadline=None)
    @given(intervals=row_intervals())
    def test_runs_equal_encoding_of_the_decoded_mask(self, intervals):
        from wastefigure.region import _intervals_rle, _prefix_rle, _rle_encode

        los, his, ny = intervals
        mask = interval_mask(los, his, ny)
        first, runs = _intervals_rle(los, his, ny)
        assert (first, runs) == _rle_encode(mask.ravel())
        assert np.array_equal(rle_decode(first, runs, mask.shape), mask)
        # the normalized kernel's rows are prefixes [0, hi): the same rows moved to 0
        lengths = (his - los).tolist()
        prefixes = interval_mask([0] * len(lengths), lengths, ny)
        assert _prefix_rle(lengths, ny) == _rle_encode(prefixes.ravel())

    @pytest.mark.parametrize(
        "los, his, ny",
        [
            ([0, 2, 5], [0, 2, 5], 5),  # all out, empty rows at both ends and inside
            ([0, 0, 0], [4, 4, 4], 4),  # all in: full rows join into one run
            ([1, 0, 2], [4, 3, 2], 4),  # a row ending at ny, then one starting at 0
            ([3, 0, 0], [3, 4, 2], 4),  # empty first row, full row, row from 0
            ([0, 1, 0, 0], [4, 1, 4, 1], 4),  # full rows split by an empty one
            ([2, 0], [4, 4], 4),  # a row ending at ny, then a full row
        ],
        ids=["all-out", "all-in", "end-then-start", "empty-first", "empty-between", "end-then-full"],
    )
    def test_edge_rows(self, los, his, ny):
        from wastefigure.region import _intervals_rle, _rle_encode

        los, his = np.array(los), np.array(his)
        mask = interval_mask(los, his, ny)
        assert _intervals_rle(los, his, ny) == _rle_encode(mask.ravel())

    @pytest.mark.parametrize("kind", ["relay", "fwa"])
    @pytest.mark.parametrize(
        "spec",
        [GridSpec(nx=41, ny=37), GridSpec.planar_around(2.0, nx=53, ny=61)],
        ids=["normalized", "planar"],
    )
    def test_lazy_mask_is_read_only_and_equals_reference(self, kind, spec):
        s = (relay_scn if kind == "relay" else fwa_scn)(d3=spec.d3)
        region, expected = swept_and_reference(kind, s, spec)
        mask = region.mask
        assert mask is region.mask
        assert not mask.flags.writeable
        assert np.array_equal(mask, expected)
        assert region.area_fraction == np.count_nonzero(expected) / expected.size
        with pytest.raises(ValueError):
            mask[0, 0] = not mask[0, 0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hand_built_region_json_round_trips(self, data):
        nx = data.draw(st.integers(min_value=2, max_value=9))
        ny = data.draw(st.integers(min_value=2, max_value=9))
        bits = data.draw(st.lists(st.booleans(), min_size=nx * ny, max_size=nx * ny))
        mask = np.array(bits, dtype=bool).reshape(nx, ny)
        region = FeasibilityRegion.from_mask(spec=GridSpec(nx=nx, ny=ny), mask=mask, scenario=relay_scn())
        doc = json.loads(json.dumps(region_json_doc(region)))
        m = doc["mask"]
        assert np.array_equal(rle_decode(m["first"], m["runs"], (nx, ny)), mask)
        assert np.array_equal(region.mask, mask)
        assert not region.mask.flags.writeable

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: FeasibilityRegion.from_mask(
                spec=GridSpec(nx=3, ny=4), mask=np.zeros((4, 3), dtype=bool), scenario=relay_scn()),
             "mask shape (4, 3) does not match the 3x4 grid"),
            # hand-built runs must cover the grid: a negative run, too many or too few
            # cells, a first value other than 0 or 1
            *[(lambda rle=rle: FeasibilityRegion(GridSpec(nx=3, ny=3), relay_scn(), rle),
               f"rle must start with 0 or 1 and have runs >= 0 that sum to 3*3, got {rle}")
              for rle in [(0, [12, -3]), (0, [4, 6]), (0, [5]), (2, [9])]],
        ],
        ids=["mask-shape", "negative-run", "too-many-cells", "too-few-cells", "first-not-0-or-1"],
    )
    def test_hand_built_mask_must_match_the_grid(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    def test_doc_runs_are_a_copy(self):
        region = sweep_relay(relay_scn(), GridSpec(nx=21, ny=13))
        region_json_doc(region)["mask"]["runs"].append(1)
        m = region_json_doc(region)["mask"]
        assert np.array_equal(rle_decode(m["first"], m["runs"], (21, 13)), region.mask)
