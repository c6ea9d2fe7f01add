import dataclasses
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wastefigure import (
    Cascade,
    Stage,
    cascade_waste,
    compose_subsystems,
    contribution_report,
    stage_waste_two,
)


def fold_waste(stages, two=stage_waste_two):
    # independent route: repeated two-device composition, source first
    w = stages[0].waste
    for stage in stages[1:]:
        w = two(w, stage.waste, stage.gain)
    return w


def stage_waste_two_exact(w1, w2, g2):
    # stage_waste_two's W = w2 + (w1 - 1) / g2 in exact rational arithmetic
    return Fraction(w2) + (Fraction(w1) - 1) / Fraction(g2)


def friis_exact(stages):
    # the Friis sum 1 + sum_k (W_k - 1) / prod(G_i, i > k) in exact rational arithmetic
    total, after = Fraction(1), Fraction(1)
    for stage in reversed(stages):
        total += (Fraction(stage.waste) - 1) / after
        after *= Fraction(stage.gain)
    return total


def random_cascade(rng, max_stages=8):
    n = int(rng.integers(1, max_stages + 1))
    return Cascade(
        tuple(
            Stage(gain=10.0 ** rng.uniform(-6, 3), waste=rng.uniform(1.0, 100.0))
            for _ in range(n)
        )
    )


class TestStage:
    def test_waste_below_one_rejected_with_stage_name(self):
        with pytest.raises(ValueError, match="PA"):
            Stage(gain=10.0, waste=0.99999, label="PA")

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            Stage(gain=0.0, waste=2.0)

    def test_passive_waste_is_reciprocal_gain(self):
        st_ = Stage.passive(0.01)
        assert st_.waste == 100.0
        assert Stage.passive(1.0).waste == 1.0

    def test_passive_gain_above_one_rejected(self):
        with pytest.raises(ValueError, match="passive"):
            Stage.passive(1.5)

    def test_empty_cascade_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Cascade(())

    def test_records_copy_replace_and_pickle_as_dataclasses(self):
        st_ = Stage(2.0, 1.5, "lna")
        assert dataclasses.replace(st_, label="pa") == Stage(2.0, 1.5, "pa")
        with pytest.raises(ValueError, match=r"^lna: waste factor must be >= 1"):
            dataclasses.replace(st_, waste=0.5)
        assert pickle.loads(pickle.dumps(st_)) == st_ and hash(st_) == hash(Stage(2.0, 1.5, "lna"))
        assert repr(st_) == "Stage(gain=2.0, waste=1.5, label='lna')"
        with pytest.raises(dataclasses.FrozenInstanceError):
            st_.gain = 3.0
        (term,) = contribution_report(Cascade((st_,))).terms
        assert dataclasses.asdict(term) == {"label": "lna", "term": 0.5, "share": 1.0}
        assert pickle.loads(pickle.dumps(term)) == term


class TestTwoDevices:
    def test_ideal_pair(self):
        assert stage_waste_two(1.0, 1.0, 123.0) == 1.0

    def test_first_stage_excess_divided_by_second_gain(self):
        assert stage_waste_two(2.0, 1.0, 10.0) == 1.1

    def test_lossy_second_stage(self):
        # frozen from the fold oracle on [(w=3, g=any), (w=2, g=0.5)]
        assert stage_waste_two(3.0, 2.0, 0.5) == 6.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stage_waste_two(0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            stage_waste_two(2.0, 2.0, 0.0)


class TestCascadeWaste:
    def test_single_stage_is_its_own_waste(self):
        assert cascade_waste(Cascade((Stage(gain=7.0, waste=3.5),))) == 3.5

    def test_all_ideal_chain_is_ideal(self):
        c = Cascade(tuple(Stage(gain=g, waste=1.0) for g in (10.0, 0.5, 4.0)))
        assert cascade_waste(c) == 1.0

    def test_three_stage_chain(self):
        c = Cascade(
            (
                Stage(gain=10.0, waste=2.0),
                Stage(gain=0.5, waste=3.0),
                Stage(gain=4.0, waste=1.5),
            )
        )
        total = cascade_waste(c)
        # fold oracle computes 1.5 + (3-1)/4 + (2-1)/2 = 2.5; frozen
        assert math.isclose(total, fold_waste(c.stages), rel_tol=1e-12)
        assert math.isclose(total, 2.5, rel_tol=1e-12)

    def test_fold_equivalence_random(self):
        rng = np.random.default_rng(20240811)
        for _ in range(300):
            c = random_cascade(rng)
            assert math.isclose(cascade_waste(c), fold_waste(c.stages), rel_tol=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=100.0),
                st.floats(min_value=-6.0, max_value=3.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    # the float fold rounds 1 + 2**-52/10 to 1 before the 1e-5 gain would amplify the
    # excess; the closed form keeps it (the Friis sum here is 1 + 2**-52 / 1e-4)
    @example(specs=[(1.0000000000000002, 0.0), (1.0, 1.0), (1.0, -5.0)])
    def test_fold_equivalence_property(self, specs):
        stages = tuple(Stage(gain=10.0**g, waste=w) for w, g in specs)
        exact = friis_exact(stages)
        assert fold_waste(stages, stage_waste_two_exact) == exact  # the fold, unrounded
        assert math.isclose(cascade_waste(Cascade(stages)), float(exact), rel_tol=1e-12)

    def test_cut_point_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = random_cascade(rng)
            if len(c.stages) < 2:
                continue
            whole = cascade_waste(c)
            for m in range(1, len(c.stages)):
                w1 = cascade_waste(Cascade(c.stages[:m]))
                w2 = cascade_waste(Cascade(c.stages[m:]))
                g2 = math.prod(stage.gain for stage in c.stages[m:])
                assert math.isclose(compose_subsystems(w1, w2, g2), whole, rel_tol=1e-12)

    def test_lower_bound_and_equality_condition(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            c = random_cascade(rng)
            total = cascade_waste(c)
            assert total >= 1.0
            if any(stage.waste > 1.0 for stage in c.stages):
                assert total > 1.0

    def test_monotone_in_any_stage_waste(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = random_cascade(rng)
            base = cascade_waste(c)
            k = int(rng.integers(0, len(c.stages)))
            # scale the bump so its term registers against the total:
            # a +1 on a stage buried behind huge downstream gain can land
            # below float resolution of a ~1e22 sum
            g_down = math.prod(st.gain for st in c.stages[k + 1:])
            bump = 1.0 + base * g_down * 1e-6
            bumped = list(c.stages)
            bumped[k] = Stage(gain=bumped[k].gain, waste=bumped[k].waste + bump)
            assert cascade_waste(Cascade(tuple(bumped))) > base


class TestComposeSubsystems:
    def test_ideal_first_subsystem_is_exact_identity(self):
        # bit-exact, not just close
        for w2 in (1.1, 2.03, 7.77, 1e6):
            for g2 in (3.0, 0.1, 1e-6, 123.456):
                assert compose_subsystems(1.0, w2, g2) == w2

    def test_two_subsystem_composition(self):
        assert math.isclose(compose_subsystems(4.0, 2.0, 100.0), 2.03, rel_tol=1e-12)

    def test_matches_two_device_form(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            w1, w2 = rng.uniform(1, 50, size=2)
            g2 = 10.0 ** rng.uniform(-6, 3)
            assert compose_subsystems(w1, w2, g2) == stage_waste_two(w1, w2, g2)

    def test_sink_side_subsystem_is_lower_bound(self):
        # as the source side approaches ideal, the total approaches w2 from above
        w2, g2 = 3.0, 0.25
        totals = [compose_subsystems(1.0 + eps, w2, g2) for eps in (1.0, 0.1, 0.001)]
        assert totals == sorted(totals, reverse=True)
        assert all(t > w2 for t in totals)


class TestContributionReport:
    def test_all_ideal_chain_reports_zero_shares(self):
        c = Cascade(tuple(Stage(gain=2.0, waste=1.0, label=f"s{i}") for i in range(4)))
        rep = contribution_report(c)
        assert rep.total_waste == 1.0
        assert all(t.term == 0.0 and t.share == 0.0 for t in rep.terms)

    def test_sum_of_terms_plus_one_is_total(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = random_cascade(rng)
            rep = contribution_report(c)
            assert math.isclose(1.0 + sum(t.term for t in rep.terms), rep.total_waste, rel_tol=1e-12)
            assert math.isclose(rep.total_waste, cascade_waste(c), rel_tol=1e-12)
            if rep.total_waste > 1.0:
                assert math.isclose(sum(t.share for t in rep.terms), 1.0, rel_tol=1e-12)

    def test_terms_sorted_descending(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            rep = contribution_report(random_cascade(rng))
            values = [t.term for t in rep.terms]
            assert values == sorted(values, reverse=True)

    def test_equal_stages_tie_in_source_to_sink_order(self):
        c = Cascade(
            (
                Stage(gain=1.0, waste=2.0, label="first"),
                Stage(gain=1.0, waste=2.0, label="second"),
            )
        )
        rep = contribution_report(c)
        assert [t.label for t in rep.terms] == ["first", "second"]
        assert rep.terms[0].share == rep.terms[1].share == 0.5

    def test_wasteful_stage_behind_deep_fade_dominates(self):
        c = Cascade(
            (
                Stage(gain=10.0, waste=5.0, label="amp"),
                Stage.passive(1e-6, label="fade"),
                Stage(gain=100.0, waste=2.0, label="front end"),
            )
        )
        rep = contribution_report(c)
        # brute-force terms: amp 4/(1e-6*100), fade (1e6-1)/100, front end 1
        assert rep.terms[0].label == "amp"
        assert math.isclose(rep.terms[0].term, 4.0 / (1e-6 * 100.0), rel_tol=1e-12)

    def test_sink_gain_damps_upstream_terms_only(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            stages = tuple(
                Stage(gain=10.0 ** rng.uniform(-3, 3), waste=rng.uniform(1.001, 100.0), label=f"s{i}")
                for i in range(n)
            )
            before = {t.label: t.term for t in contribution_report(Cascade(stages)).terms}
            last = stages[-1]
            boosted = stages[:-1] + (Stage(gain=3.0 * last.gain, waste=last.waste, label=last.label),)
            after = {t.label: t.term for t in contribution_report(Cascade(boosted)).terms}
            for i in range(n - 1):
                assert after[f"s{i}"] < before[f"s{i}"]
            assert after[f"s{n-1}"] == before[f"s{n-1}"]


class TestIdealStageBehindUnderflowedGain:
    """A stage with W = 1 adds 0 whatever the gain after it, even one that underflowed to 0."""

    def test_waste_and_report(self):
        c = Cascade((Stage(1.0, 1.0, "a"), Stage(1e-200, 1.0, "b"), Stage(1e-200, 1.0, "c")))
        assert cascade_waste(c) == 1.0
        assert cascade_waste(Cascade(c.stages[1:])) == 1.0
        rep = contribution_report(c)
        assert rep.total_waste == 1.0
        assert [(t.label, t.term, t.share) for t in rep.terms] == [
            ("a", 0.0, 0.0), ("b", 0.0, 0.0), ("c", 0.0, 0.0)
        ]

    def test_behind_a_wasteful_sink_stage(self):
        c = Cascade((Stage(1.0, 1.0, "a"), Stage(1e-200, 1.0, "b"), Stage(1e-200, 3.0, "c")))
        assert cascade_waste(c) == 3.0
        rep = contribution_report(c)
        assert [(t.label, t.term, t.share) for t in rep.terms] == [
            ("c", 2.0, 1.0), ("a", 0.0, 0.0), ("b", 0.0, 0.0)
        ]


# -- the algebra as it was before the terms were cached on the Cascade -------


def reference_label(c, idx):
    return c.stages[idx].label or f"stage {idx + 1}"


def reference_terms(c):
    terms = []
    downstream_gain = 1.0
    for st_ in reversed(c.stages):
        term = (st_.waste - 1.0) / downstream_gain if downstream_gain > 0.0 else math.inf
        if term == math.inf:
            raise ValueError(
                f"{reference_label(c, len(c.stages) - 1 - len(terms))}: term (W - 1) / (gain after it) = "
                f"{st_.waste - 1.0!r} / {downstream_gain!r} is outside the float range"
            )
        terms.append(term)
        downstream_gain *= st_.gain
    return terms


def reference_cascade_waste(c):
    total = 1.0
    terms = reference_terms(c)
    for term in terms:
        total += term
    if total == math.inf:
        raise ValueError(
            "cascade waste W = 1 + sum of stage terms is outside the float range "
            f"(each of the {len(terms)} terms is finite)"
        )
    return total


def reference_report(c):
    """``(total_waste, [(label, term, share), ...])``; total_waste is the cascade's W."""
    raw = reference_terms(c)
    raw.reverse()
    total = reference_cascade_waste(c)
    excess = total - 1.0
    if excess > 0.0:
        terms = [(reference_label(c, idx), t, t / excess) for idx, t in enumerate(raw)]
    else:
        terms = [(reference_label(c, idx), 0.0, 0.0) for idx in range(len(raw))]
    terms.sort(key=lambda row: row[1], reverse=True)
    return total, terms


LABELS = st.sampled_from(["", "lna", "pa", "air"])
# repeated stages make equal terms (ties must keep source-to-sink order), and
# deep fades make gain products that underflow to 0
TIES = st.sampled_from([
    Stage(1.0, 2.0, "x"), Stage(1.0, 2.0), Stage(1.0, 1.0), Stage.passive(0.5), Stage(10.0, 1.0, "id"),
    Stage(1e-200, 1.0, "fade"), Stage(1e-200, 2.0),
])
STAGES = st.one_of(
    st.builds(Stage.passive, st.floats(-30.0, 0.0).map(lambda e: 10.0**e), LABELS),
    st.builds(
        Stage,
        st.floats(-30.0, 30.0).map(lambda e: 10.0**e),
        st.one_of(st.just(1.0), st.floats(1.0, 1e6), st.floats(0.0, 30.0).map(lambda e: 10.0**e)),
        LABELS,
    ),
    TIES,
)


class TestAlgebraMatchesTheReference:
    @settings(max_examples=400, deadline=None)
    @given(stages=st.lists(STAGES, min_size=1, max_size=64))
    def test_bit_identical(self, stages):
        c = Cascade(tuple(stages))
        try:
            expected_w = reference_cascade_waste(c)
        except ValueError as exc:
            if " = 0.0 / 0.0 " in str(exc):
                return  # an ideal stage behind an underflowed gain: see the class above
            for fn in (cascade_waste, contribution_report):
                with pytest.raises(ValueError) as raised:
                    fn(c)
                assert str(raised.value) == str(exc)
            return
        total, rows = reference_report(c)
        assert cascade_waste(c) == expected_w
        rep = contribution_report(c)
        assert rep.total_waste == total
        assert [(t.label, t.term, t.share) for t in rep.terms] == rows

    @settings(max_examples=100, deadline=None)
    @given(stages=st.lists(STAGES, min_size=1, max_size=64))
    def test_cache_is_not_part_of_the_value(self, stages):
        c = Cascade(tuple(stages))
        twin = Cascade(tuple(stages))
        before = (repr(c), hash(c), pickle.dumps(c))
        try:
            cascade_waste(c)
        except ValueError:
            pass
        assert (repr(c), hash(c), pickle.dumps(c)) == before
        assert c == twin and twin == c
        assert dataclasses.replace(c) == twin
        loaded = pickle.loads(pickle.dumps(c))
        assert loaded == twin and vars(loaded) == vars(twin)
        shorter = dataclasses.replace(c, stages=c.stages[-1:])
        assert cascade_waste(shorter) == 1.0 + (stages[-1].waste - 1.0)
