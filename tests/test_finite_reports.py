"""Every accepted input ends in a finite report or a named error (exit 1).

The CLI runs in process on documents whose values span the whole float
range, subnormals and the largest finite values included. A run must not
raise, must exit 0 or 1, and on exit 0 its JSON report must hold no NaN or
Infinity. The two-hop verdicts decide by the sign of the rule margin.
"""

import contextlib
import decimal
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from wastefigure import (
    ApproximationRegimeWarning,
    Cascade,
    EnergyContext,
    FwaScenario,
    GridSpec,
    LinkTerminals,
    PathLossChannel,
    RelayScenario,
    SnrSpec,
    Stage,
    cascade_waste,
    channel_waste,
    compose_subsystems,
    consumption_factor,
    contribution_report,
    direct_energy,
    energy_per_bit_link,
    energy_per_bit_min,
    fwa_direct_energy,
    fwa_ratio,
    fwa_relayed_energy,
    fwa_verdict,
    link_waste,
    max_efficient_distance,
    min_consumed_power,
    relay_ratio,
    relay_verdict,
    relayed_energy,
    snr_min,
    stage_waste_two,
    wideband_rate_limit,
)
from wastefigure.cli import main
from wastefigure.config import LinkSetup, parse_scenario
from wastefigure.energy import LN2
from wastefigure.units import FLOAT_MAX, FLOAT_MIN, finite_power

VALUES = st.one_of(
    st.floats(-320.0, 308.0).map(lambda e: 10.0**e),
    st.floats(-5.0, 5.0).map(lambda e: 10.0**e),
    st.sampled_from([1.0, 5e-324, 1.7e308]),
)
RHO_U = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
# about 30 % of the two-hop documents carry a 5x5 sweep
SWEEP = st.sampled_from([None] * 7 + ["normalized", "normalized", "planar"])

RELAY_FIELDS = ("w_tx_source", "w_tx_relay", "g_rx_relay", "g_rx_sink")
FWA_FIELDS = ("w_tx_ue", "w_tx_bs", "w_tx_ap", "g_rx_ue", "g_rx_bs", "g_rx_ap")
GEOMETRY = ("alpha", "k", "d1", "d2", "d3")


def fields(names):
    return st.fixed_dictionaries({name: VALUES for name in names})


ENERGY = st.fixed_dictionaries(
    {"n0": VALUES, "capacity": VALUES}, optional={"p_np": VALUES}
)


@st.composite
def two_hop_docs(draw, kind):
    section = draw(fields(RELAY_FIELDS if kind == "relay" else FWA_FIELDS))
    if kind == "fwa":
        section["rho_u"] = draw(RHO_U)
    section.update(draw(fields(GEOMETRY)), energy=draw(ENERGY))
    doc = {f"{kind}_scenario": section}
    mode = draw(SWEEP)
    if mode is not None:
        doc["sweep"] = {"mode": mode, "nx": 5, "ny": 5}
    return doc


DOCS = st.one_of(
    st.tuples(
        st.just("cascade"),
        st.lists(fields(("gain", "waste")), min_size=1, max_size=4).map(
            lambda stages: {"cascade": stages}
        ),
    ),
    st.tuples(
        st.just("link"),
        st.fixed_dictionaries({
            "terminals": fields(("w_tx", "w_rx", "g_rx")),
            "channel": fields(("k", "alpha", "distance")),
            "energy": ENERGY,
        }).map(lambda section: {"link": section}),
    ),
    st.tuples(st.just("relay"), two_hop_docs("relay")),
    st.tuples(st.just("fwa"), two_hop_docs("fwa")),
)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def run_cli(kind, doc):
    """Run the CLI in process; (exit code, stderr, the JSON report or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with warnings.catch_warnings():
            # a raw numpy warning is a defect too: it must not reach the user
            warnings.simplefilter("error", RuntimeWarning)
            with contextlib.redirect_stderr(err):
                code = main([kind, path, "--json", out, "--quiet"])
        report = None
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                report = json.load(fh, parse_constant=_reject_constant)
    return code, err.getvalue(), report


SUBNORMAL_ALPHA_PLANAR = (  # alpha / 2 underflows to 0 in the planar sweep's row seeds
    "relay",
    {
        "relay_scenario": {
            "w_tx_source": 1.0, "w_tx_relay": 1.0, "g_rx_relay": 1.0, "g_rx_sink": 1.0,
            "alpha": 5e-324, "k": 1.0, "d1": 1.0, "d2": 1.0, "d3": 1.0,
            "energy": {"n0": 1.0, "capacity": 1.0},
        },
        "sweep": {"mode": "planar", "nx": 5, "ny": 5},
    },
)


class TestCliEndsInFiniteReportOrNamedError:
    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    def test_any_accepted_document(self, kind_doc):
        kind, doc = kind_doc
        code, err, report = run_cli(kind, doc)
        assert code in (0, 1)
        # on exit 0, run_cli has loaded the report as strict JSON
        assert (report is not None) == (code == 0)
        if code == 1:
            assert err.splitlines()[-1].startswith("error: ")

    def test_subnormal_alpha_planar_sweep(self):
        code, err, report = run_cli(*SUBNORMAL_ALPHA_PLANAR)
        assert code == 0, err
        assert report is not None

    UNIT_RELAY = {
        "w_tx_source": 1.0, "w_tx_relay": 1.0, "g_rx_relay": 1.0, "g_rx_sink": 10.0,
        "alpha": 2.0, "d1": 0.5, "d2": 0.5, "d3": 1.0,
        "energy": {"n0": 5e-324, "capacity": 1.0},
    }
    UNIT_FWA = {
        "w_tx_ue": 1.0, "w_tx_bs": 1.0, "w_tx_ap": 1.0,
        "g_rx_ue": 10.0, "g_rx_bs": 10.0, "g_rx_ap": 1.0, "rho_u": 0.5,
        "alpha": 2.0, "d1": 0.5, "d2": 0.5, "d3": 1.0,
        "energy": {"n0": 5e-324, "capacity": 1.0},
    }

    @pytest.mark.parametrize(
        "kind, doc, named",
        [
            ("relay", {"relay_scenario": UNIT_RELAY}, "direct energy per bit = 0.0"),
            ("fwa", {"fwa_scenario": UNIT_FWA}, "direct energy per bit = 0.0"),
            (
                "relay",
                {"relay_scenario": dict(
                    UNIT_RELAY, w_tx_relay=1.7e308, g_rx_sink=1.7e308, d2=2.0,
                    energy={"n0": 1.0, "capacity": 1.0},
                )},
                "energy ratio (assisted/direct)",
            ),
            (
                "cascade",
                {"cascade": [{"gain": 1.0, "waste": 2.0}, {"gain": 1e-200, "waste": 2.0},
                             {"gain": 1e-200, "waste": 2.0}]},
                "stage 1: term (W - 1) / (gain after it) = 1.0 / 0.0",
            ),
            (
                "link",
                {"link": {
                    "terminals": {"w_tx": 2.0, "w_rx": 1.5, "g_rx": 10.0},
                    "channel": {"k": 1e-4, "alpha": 1e-3, "distance": 2.0},
                    "energy": {"n0": 4e-21, "capacity": 1e8, "p_np": 1e10},
                }},
                "max efficient distance: ",
            ),
        ],
    )
    def test_former_tracebacks_and_infinities_are_named_errors(self, kind, doc, named):
        code, err, _ = run_cli(kind, doc)
        assert code == 1
        assert err.splitlines()[-1].startswith(f"error: {named}")
        assert "outside the float range" in err.splitlines()[-1]
        ratio = {"relay": relay_ratio, "fwa": fwa_ratio}.get(kind)
        if ratio is not None:  # the library's ratio raises the verdict's error, not ZeroDivisionError
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ApproximationRegimeWarning)
                with pytest.raises(ValueError) as raised:
                    ratio(getattr(parse_scenario(doc), kind))
            assert f"error: {raised.value}" == err.splitlines()[-1]


class TestLibraryNamedErrors:
    @pytest.mark.parametrize(
        "stages",
        [
            # the gain product after the first stage underflows to 0
            (Stage(1.0, 2.0, "lna"), Stage(1e-200, 2.0), Stage(1e-200, 2.0)),
            # the first stage's term overflows to inf
            (Stage(0.02, 1.2e174, "lna"), Stage(7.2e-273, 1.7e308)),
        ],
    )
    def test_cascade_waste_and_report_name_the_stage(self, stages):
        c = Cascade(stages)
        for fn in (cascade_waste, contribution_report):
            with pytest.raises(ValueError, match=r"^lna: term \(W - 1\) / \(gain after it\) = "):
                fn(c)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: link_waste(LinkTerminals(1.0, 1.0, 1.0), 1.5),
             "g_ch must be in (0, 1] and finite, got 1.5"),
            (lambda: FwaScenario(**dict(RECORDS[FwaScenario], rho_u=1.5)),
             "rho_u must be in [0, 1], got 1.5"),
            (lambda: FwaScenario(**dict(RECORDS[FwaScenario], ctx=None)),
             "ctx must be an EnergyContext, got None"),
            (lambda: Cascade((1.0,)), "cascade entries must be Stage, got 1.0"),
            # a link's channel gain has one value: its echo re-parses with the channel's
            (lambda: LinkSetup(CTX, LinkTerminals(2.0, 1.5, 10.0), 0.5, PathLossChannel(1e-3, 2.0, 1.0)),
             "g_ch 0.5 is not the channel's gain 0.001"),
        ],
        ids=["link-g_ch", "traffic-share", "fwa-ctx", "cascade-entry", "link-setup-g_ch"],
    )
    def test_invalid_argument_is_named(self, build, message):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message

    @pytest.mark.filterwarnings("ignore::wastefigure.ApproximationRegimeWarning")
    @pytest.mark.parametrize(
        "build, named",
        [
            # g_rx * k / d**alpha underflows to 0 although d**alpha = 1e30 is finite
            (lambda: relay_verdict(RelayScenario(
                **dict(RECORDS[RelayScenario], g_rx_sink=1e-300, alpha=10.0, d3=1000.0))),
             "direct hop: waste "),
            (lambda: fwa_verdict(FwaScenario(
                **dict(RECORDS[FwaScenario], g_rx_bs=1e-300, alpha=10.0, d3=1000.0))),
             "direct uplink: waste "),
            (lambda: consumption_factor(1e308, 1e308, 0.0, 1e308, 1e308),
             "consumption factor = inf / inf "),
            (lambda: wideband_rate_limit(1e300, 1e-300), "wideband rate limit "),
            (lambda: channel_waste(PathLossChannel(k=5e-324, alpha=2.0, distance=1e150)),
             "channel waste 1/gain = 1.0 / 0.0 "),
            (lambda: channel_waste(PathLossChannel(k=1e-300, alpha=2.0, distance=1e10)),
             "channel waste 1/gain = 1.0 / 1e-320 "),
            (lambda: snr_min(SnrSpec(2000.0)), "snr_min: 2**2000.0 "),
            # sums: p_np / capacity, the term (w1 - 1) / g2 or a product overflows
            (lambda: energy_per_bit_min(EnergyContext(1e-20, 1e-300, 1e300), 1.0),
             "energy per bit p_np/C + ln2*n0*w = inf "),
            (lambda: energy_per_bit_link(
                EnergyContext(1e-20, 1e-300, 1e300), LinkTerminals(2.0, 1.5, 10.0), 1e-6),
             "link energy per bit p_np/C + ln2*n0*W = inf "),
            (lambda: stage_waste_two(1e308, 1.0, 1e-10), "two-stage waste w2 + (w1 - 1)/g2 = inf "),
            (lambda: compose_subsystems(1e308, 1.0, 1e-10),
             "two-stage waste w2 + (w1 - 1)/g2 = inf "),
            (lambda: min_consumed_power(1e308, 1e308, 1.0),
             "minimum consumed power p_np + snr_min*p_noise*w = inf "),
            (lambda: SnrSpec(1000.0, 1e300).operating_snr(), "operating SNR margin*snr_min = inf "),
            # the two-hop energies: p_np / capacity overflows, or only the assisted 2*p_np / C does
            (lambda: direct_energy(relay_at(PNP_OVER_C)), "direct energy per bit = inf "),
            (lambda: relayed_energy(relay_at(PNP_OVER_C)), "assisted energy per bit = inf "),
            (lambda: fwa_direct_energy(fwa_at(PNP_OVER_C)), "direct energy per bit = inf "),
            (lambda: fwa_relayed_energy(fwa_at(PNP_OVER_C)), "assisted energy per bit = inf "),
            (lambda: relay_verdict(relay_at(PNP_OVER_C)), "direct energy per bit = inf "),
            (lambda: fwa_verdict(fwa_at(PNP_OVER_C)), "direct energy per bit = inf "),
            (lambda: relay_verdict(relay_at(TWICE_PNP)), "assisted energy per bit = inf "),
            (lambda: fwa_verdict(fwa_at(TWICE_PNP)), "assisted energy per bit = inf "),
        ],
        ids=["relay-hop-underflow", "fwa-hop-underflow", "consumption-factor",
             "wideband-rate-limit", "channel-gain-zero", "channel-gain-subnormal", "snr-min",
             "energy-per-bit-min", "energy-per-bit-link", "stage-waste-two",
             "compose-subsystems", "min-consumed-power", "operating-snr",
             "relay-direct-energy", "relay-assisted-energy", "fwa-direct-energy",
             "fwa-assisted-energy", "relay-verdict-direct", "fwa-verdict-direct",
             "relay-verdict-assisted", "fwa-verdict-assisted"],
    )
    def test_value_outside_the_float_range_is_named(self, build, named):
        with pytest.raises(ValueError) as raised:
            build()
        message = str(raised.value)
        assert message.startswith(named)
        assert message.endswith(" is outside the float range")

    def test_max_efficient_distance_overflow_is_named(self):
        ctx = EnergyContext(n0=4e-21, capacity=1e8, p_np=1e10)
        t = LinkTerminals(w_tx=2.0, w_rx=1.5, g_rx=10.0)
        match = r"^max efficient distance: .* outside the float range"
        with pytest.raises(ValueError, match=match):
            max_efficient_distance(ctx, t, k=1e-4, alpha=1e-3)

    @pytest.mark.parametrize(
        "ctx, terminals, distance",
        [
            # without p_np, N0*C cancels: the base is k*(1 - g_rx*w_rx)/w_tx at any N0*C
            (EnergyContext(1e-200, 1e-200, 0.0), LinkTerminals(2.0, 1.5, 10.0), None),
            (EnergyContext(1e-200, 1e-200, 0.0), LinkTerminals(2.0, 1.0, 0.5), 0.5),
            (EnergyContext(1e-160, 1e-150, 0.0), LinkTerminals(2.0, 1.0, 0.5), 0.5),  # subnormal
            (EnergyContext(1e-20, 1e8, 0.0), LinkTerminals(2.0, 1.0, 0.5), 0.5),
        ],
        ids=["none-n0c-zero", "distance-n0c-zero", "distance-n0c-subnormal", "distance-n0c-normal"],
    )
    def test_max_efficient_distance_where_n0_c_underflows(self, ctx, terminals, distance):
        assert max_efficient_distance(ctx, terminals, k=1.0, alpha=2.0) == distance

    def test_max_efficient_distance_with_p_np_where_n0_c_underflows_is_named(self):
        # the base 10 / (2 ln2 1e-400) - 7 overflows a float; its square root does not
        ctx, t = EnergyContext(1e-200, 1e-200, 1.0), LinkTerminals(2.0, 1.5, 10.0)
        d_star = max_efficient_distance(ctx, t, k=1.0, alpha=2.0)
        assert math.isclose(d_star, math.sqrt(5.0 / math.log(2.0)) * 1e200, rel_tol=1e-12)
        match = r"^max efficient distance: .* = inf\*\*2\.0 is outside the float range$"
        with pytest.raises(ValueError, match=match):
            max_efficient_distance(ctx, t, k=1.0, alpha=0.5)

    def test_max_efficient_distance_where_only_k_over_n0_c_overflows(self):
        # k / (w_tx ln2 N0 C) overflows, the base k p_np g_rx / (w_tx ln2 N0 C) = 1e20 / ln2 does not
        ctx, t = EnergyContext(1e-310, 1.0, 1e-300), LinkTerminals(1.0, 1.0, 1.0)
        d_star = max_efficient_distance(ctx, t, k=1e10, alpha=2.0)
        assert math.isclose(d_star, math.sqrt(1e20 / math.log(2.0)), rel_tol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(ctx=st.builds(EnergyContext, VALUES, VALUES, st.just(0.0) | VALUES),
           terminals=st.builds(LinkTerminals, VALUES.map(lambda w: max(w, 1.0)),
                               VALUES.map(lambda w: max(w, 1.0)), VALUES),
           k=VALUES, alpha=st.floats(1e-3, 8.0))
    # N0*C is subnormal: the float expression drifted to 1.9064904e45
    @example(EnergyContext(4.384057e-318, 2.1442681215771247e-05, 2.1111021955577444e-219),
             LinkTerminals(30.486611422033377, 1.0, 0.9533895222724602), 1.3036757905832618e79, 4.0)
    # k / den and both expanded terms overflow: the expanded base was inf + (-inf) = nan
    @example(EnergyContext(1e308, 5e-324, 1.0), LinkTerminals(10.0, 1.0, 10.0), 1e308, 1.0)
    # N0*C overflows, so the base was nan: here the exact base is 0, and then 0.3
    @example(EnergyContext(10.0, 1.7e308, 0.0), LinkTerminals(1.0, 1.0, 1.0), 1.0, 1.0)
    @example(EnergyContext(1e200, 1e200, 1.0), LinkTerminals(2.0, 1.0, 0.4), 1.0, 2.0)
    def test_max_efficient_distance_keeps_the_reference_answers(self, ctx, terminals, k, alpha):
        try:
            got = max_efficient_distance(ctx, terminals, k, alpha)
        except ValueError as exc:
            got = str(exc)
        # the program's fast-path condition, in the program's order
        n0c = ctx.n0 * ctx.capacity
        den = terminals.w_tx * LN2 * n0c
        scale = k / den if den else math.inf
        t = terminals
        braced = scale * (ctx.p_np * t.g_rx + n0c * LN2 * (1.0 - t.g_rx * t.w_rx))
        if FLOAT_MIN <= n0c and FLOAT_MIN <= scale <= FLOAT_MAX and abs(braced) <= FLOAT_MAX:
            try:
                want = reference_max_efficient_distance(ctx, terminals, k, alpha)
            except ValueError as exc:
                want = str(exc)
            assert got == want  # floats compare bit for bit here: neither is nan or -0.0
            return
        base = exact_base(ctx, terminals, k)
        if base <= 0:
            assert got is None
            return
        Dec = decimal.Decimal
        with decimal.localcontext() as dc:
            dc.prec, dc.Emax, dc.Emin = 40, decimal.MAX_EMAX, decimal.MIN_EMIN
            base = Dec(base.numerator) / Dec(base.denominator)
            distance = (base.ln() / Dec(alpha)).exp()
            if not FLOAT_MIN <= distance <= FLOAT_MAX:  # beyond the float range, or subnormal
                if isinstance(got, str):
                    assert distance < 5e-324 or distance > FLOAT_MAX
                    assert got.startswith("max efficient distance: ")
                    assert got.endswith(" is outside the float range")
                else:  # a subnormal distance, to its own precision
                    assert abs(Dec(got) - distance) <= Dec(5e-324)
                return
            assert isinstance(got, float)
            assert abs(Dec(got) ** Dec(alpha) / base - 1) <= Dec("1e-12")


def exact_base(ctx, t, k):
    """The base of the max efficient distance in exact rationals, each float operand exact."""
    n0c, ln2 = Fraction(ctx.n0) * Fraction(ctx.capacity), Fraction(LN2)
    return Fraction(k) / (Fraction(t.w_tx) * ln2 * n0c) * (
        Fraction(ctx.p_np) * Fraction(t.g_rx) + n0c * ln2 * (1 - Fraction(t.g_rx) * Fraction(t.w_rx))
    )


def reference_max_efficient_distance(ctx, t, k, alpha):
    # max_efficient_distance as it was before the overflowing k / den was expanded
    n0c = ctx.n0 * ctx.capacity
    den = t.w_tx * LN2 * n0c
    scale = k / den if den else math.inf
    if scale == math.inf and ctx.p_np == 0.0:
        braced = k * (1.0 - t.g_rx * t.w_rx) / t.w_tx
    else:
        braced = scale * (ctx.p_np * t.g_rx + n0c * LN2 * (1.0 - t.g_rx * t.w_rx))
    if braced <= 0.0:
        return None
    return finite_power(
        "max efficient distance: (k / (w_tx ln2 N0 C) * (p_np g_rx + N0 C ln2 (1 - g_rx w_rx)))"
        "**(1/alpha)", braced, 1.0 / alpha
    )


@st.composite
def two_hop_scenarios(draw):
    geometry = {name: draw(VALUES) for name in GEOMETRY}
    ctx = EnergyContext(n0=draw(VALUES), capacity=draw(VALUES), p_np=draw(st.just(0.0) | VALUES))
    if draw(st.booleans()):
        hardware = {name: draw(VALUES) for name in RELAY_FIELDS}
        for name in ("w_tx_source", "w_tx_relay"):
            hardware[name] = max(hardware[name], 1.0)
        return RelayScenario(ctx=ctx, **hardware, **geometry)
    hardware = {name: draw(VALUES) for name in FWA_FIELDS}
    for name in ("w_tx_ue", "w_tx_bs", "w_tx_ap"):
        hardware[name] = max(hardware[name], 1.0)
    return FwaScenario(rho_u=draw(RHO_U), ctx=ctx, **hardware, **geometry)


class TestVerdictIsTheMarginSign:
    @settings(max_examples=200, deadline=None)
    @given(two_hop_scenarios())
    def test_decision_is_margin_positive(self, s):
        verdict = relay_verdict if isinstance(s, RelayScenario) else fwa_verdict
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ApproximationRegimeWarning)
            try:
                v = verdict(s)
            except ValueError:
                return
        if isinstance(s, RelayScenario):
            assert v.use_relay == (v.decision_margin > 0.0)
        else:
            assert v.use_ap == (v.decision_margin > 0.0)
        values = (v.e_direct, v.e_relayed, v.ratio, v.decision_margin)
        assert all(math.isfinite(x) for x in values)


class TestCascadeSumOverflowIsNamed:
    """Each term is finite, but W = 1 + their sum overflows: a named error, not W = inf."""

    STAGES = [{"label": "a", "gain": 1.0, "waste": 1.7e308}, {"label": "b", "gain": 1.0, "waste": 1.7e308}]
    NAMED = "cascade waste W = 1 + sum of stage terms is outside the float range"

    def test_library(self):
        c = Cascade(tuple(Stage(**stage) for stage in self.STAGES))
        for fn in (cascade_waste, contribution_report):
            with pytest.raises(ValueError, match=rf"^{self.NAMED.replace('+', '[+]')}"):
                fn(c)

    def test_cli_exits_1(self, tmp_path):
        path = tmp_path / "cascade.json"
        path.write_text(json.dumps({"cascade": self.STAGES}))
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "wastefigure.cli", "cascade", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [f"error: {self.NAMED} (each of the 2 terms is finite)"]
        assert "Traceback" not in proc.stderr


CTX = EnergyContext(n0=1e-20, capacity=1e8)
# each record's constructor with valid arguments; every float among them is a numeric field
RECORDS = {
    Stage: dict(gain=2.0, waste=1.5),
    Stage.passive: dict(gain=0.5),
    EnergyContext: dict(n0=1e-20, capacity=1e8, p_np=0.0),
    LinkTerminals: dict(w_tx=2.0, w_rx=1.5, g_rx=10.0),
    SnrSpec: dict(spectral_efficiency=2.0, margin=1.0),
    PathLossChannel: dict(k=1.0, alpha=2.0, distance=10.0),
    GridSpec: dict(d3=1.0),
    RelayScenario: dict(
        w_tx_source=1.0, w_tx_relay=2.0, g_rx_relay=1e3, g_rx_sink=10.0,
        alpha=6.0, d1=0.5, d2=0.5, d3=1.0, ctx=CTX, k=1.0,
    ),
    FwaScenario: dict(
        w_tx_ue=3.0, w_tx_bs=15.0, w_tx_ap=10.0, g_rx_ue=10.0, g_rx_bs=30.0, g_rx_ap=10.0,
        rho_u=0.5, alpha=3.0, d1=0.5, d2=0.5, d3=1.0, ctx=CTX, k=1.0,
    ),
}
PNP_OVER_C = EnergyContext(1e-20, 1e-300, 1e300)  # p_np / capacity overflows
TWICE_PNP = EnergyContext(1e-20, 1.0, 1e308)  # only the assisted route's 2 * p_np does


def relay_at(ctx):
    return RelayScenario(**dict(RECORDS[RelayScenario], ctx=ctx))


def fwa_at(ctx):
    return FwaScenario(**dict(RECORDS[FwaScenario], ctx=ctx))


NUMERIC_FIELDS = [
    pytest.param(build, name, id=f"{build.__qualname__}.{name}")
    for build, kwargs in RECORDS.items()
    for name, value in kwargs.items()
    if isinstance(value, float)
]


class TestNonNumberFieldsAreNamed:
    def test_valid_arguments_build(self):
        for build, kwargs in RECORDS.items():
            build(**kwargs)

    @pytest.mark.parametrize("bad", ["1", None])
    @pytest.mark.parametrize("build, name", NUMERIC_FIELDS)
    def test_non_number_is_a_value_error_naming_the_field(self, build, name, bad):
        with pytest.raises(ValueError) as raised:
            build(**dict(RECORDS[build], **{name: bad}))
        message = str(raised.value)
        assert name in message
        assert message.endswith(f"must be a number, got {bad!r}")
