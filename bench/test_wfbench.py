"""Tests of the benchmark's own helpers: tail pick, self time, references."""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from wfbench import inputs, reference  # noqa: E402
from wfbench.stats import tail_pick  # noqa: E402
from wfbench.tracing import Tracer, self_times  # noqa: E402


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [
        (10000, 99.9, 10),
        (9999, 99.0, 99),
        (1000, 99.0, 10),
        (200, 95.0, 10),
        (199, 90.0, 19),
        (100, 90.0, 10),
        (99, 50.0, 49),
        (20, 50.0, 10),
        (19, 100.0 * 9 / 19, 10),
        (11, 100.0 * 1 / 11, 10),
        (5, 100.0, 0),
    ],
)
def test_tail_pick_takes_highest_percentile_with_ten_beyond(n, percentile, beyond):
    samples = list(range(n, 0, -1))  # unsorted on purpose
    value, got_pct, got_beyond = tail_pick(samples)
    assert got_pct == pytest.approx(percentile)
    assert got_beyond == beyond
    assert sum(s > value for s in samples) == beyond


def test_self_time_subtracts_merged_children():
    spans = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["a.inner", 15, 20, 1, 0],
        ["b", 25, 50, 0, 0],  # overlaps "a": 10..50 is covered once
    ]
    assert self_times(spans) == [60, 15, 5, 25]


def test_tracer_records_only_inside_ops_and_restores():
    import wastefigure
    from wastefigure import config

    original = config.parse_scenario
    doc = {"cascade": [{"gain_db": 10.0, "waste": 2.0}]}
    tracer = Tracer()
    tracer.instrument(wastefigure)
    try:
        config.parse_scenario(doc)
        assert tracer.spans == []
        with tracer.op(7):
            config.parse_scenario(doc)
    finally:
        tracer.restore()
    assert config.parse_scenario is original
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "config.parse_scenario", "energy.db_to_linear"]
    assert all(s[4] == 7 for s in tracer.spans)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1]


def test_reference_cascade_and_link_floor():
    # Feedline at -2 dB, LNA and mixer: the package README's example chain.
    stages = [(0.63, 1.0 / 0.63), (100.0, 1.4), (10.0, 3.0)]
    assert reference.cascade_waste(stages) == pytest.approx(3.0406, abs=1e-4)
    ideal = {
        "link": {
            "terminals": {"w_tx": 1.0, "w_rx": 1.0, "g_rx": 1.0},
            "channel": {"gain": 1.0},
            "energy": {"n0": 4e-21, "capacity": 1e8},
        }
    }
    exact, approx = reference.link_energies(ideal)
    assert exact == approx == pytest.approx(4e-21 * math.log(2.0), rel=1e-15)


def test_reference_relay_by_hand():
    doc = {
        "relay_scenario": {
            "w_tx_source": 2.0, "w_tx_relay": 4.0, "g_rx_relay": 10.0, "g_rx_sink_db": 20.0,
            "alpha": 2.0, "k": 0.5, "d1": 1.0, "d2": 2.0, "d3": 3.0,
            "energy": {"n0": 1.0, "capacity": 2.0, "p_np": 1.0},
        }
    }
    ln2 = math.log(2.0)
    direct, relayed = reference.relay_energies(doc)
    assert direct == pytest.approx(0.5 + ln2 * 2.0 * 9.0 / (0.5 * 100.0), rel=1e-15)
    assert relayed == pytest.approx(
        1.0 + ln2 * (2.0 * 1.0 / (0.5 * 10.0) + 4.0 * 4.0 / (0.5 * 100.0)), rel=1e-15
    )


def test_references_agree_with_program_on_generated_documents():
    from wastefigure import config, energy, fwa, relay

    rng = random.Random(3)
    for _ in range(40):
        for kind, doc in (
            ("relay", inputs.relay_doc(rng, with_pnp=rng.random() < 0.5)),
            ("fwa", inputs.fwa_doc(rng, with_pnp=rng.random() < 0.5)),
            ("link", inputs.link_doc(rng, with_pnp=rng.random() < 0.5)),
        ):
            sf = config.parse_scenario(doc)
            if kind == "link":
                ln = sf.link
                got = (
                    energy.energy_per_bit_link(ln.ctx, ln.terminals, ln.g_ch),
                    energy.link_waste_approx(ln.terminals, ln.g_ch) * energy.LN2 * ln.ctx.n0
                    + ln.ctx.p_np / ln.ctx.capacity,
                )
                want = reference.link_energies(doc)
            elif kind == "relay":
                got = (relay.direct_energy(sf.relay), relay.relayed_energy(sf.relay))
                want = reference.relay_energies(doc)
            else:
                got = (fwa.fwa_direct_energy(sf.fwa), fwa.fwa_relayed_energy(sf.fwa))
                want = reference.fwa_energies(doc)
            assert all(reference.close(g, w) for g, w in zip(got, want)), (kind, doc)


def test_same_seed_same_inputs():
    assert inputs.scalar_stream(random.Random(5), 50) == inputs.scalar_stream(random.Random(5), 50)


def test_closed_form_mask_matches_program_sweeps_without_fixed_power():
    import numpy as np

    import wastefigure as wf
    from wastefigure import config

    rng = random.Random(11)
    for _ in range(10):
        for kind, doc in (
            ("relay", inputs.relay_doc(rng, with_pnp=False)),
            ("fwa", inputs.fwa_doc(rng, with_pnp=False)),
        ):
            sf = config.parse_scenario(doc)
            s = getattr(sf, kind)
            spec = wf.GridSpec.planar_around(s.d3, 41, 37)
            mask = (wf.sweep_relay if kind == "relay" else wf.sweep_fwa)(s, spec).mask
            x, y = np.meshgrid(spec.x_points(), spec.y_points(), indexing="ij")
            energies = reference.relay_energies if kind == "relay" else reference.fwa_energies
            cheaper, decided = reference.assisted_cheaper(
                energies, doc, np.hypot(x, y), np.hypot(x - s.d3, y), s.d3
            )
            assert decided.any() and np.array_equal(mask[decided], cheaper[decided]), (kind, doc)
            # A flipped cell is caught.
            bad = mask.copy()
            i, j = np.argwhere(decided)[0]
            bad[i, j] = not bad[i, j]
            assert not np.array_equal(bad[decided], cheaper[decided])


def test_git_commit_outside_a_work_tree_is_unknown(tmp_path):
    from wfbench.context import git_commit

    assert git_commit(tmp_path) == "unknown"
