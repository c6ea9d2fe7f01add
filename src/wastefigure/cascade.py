"""Waste-factor algebra for cascaded stages.

A device that consumes path power ``P_path`` to deliver signal power
``P_s`` at its output has waste factor ``W = P_path / P_s``. ``W = 1``
means every watt spent along the signal path comes out as signal;
larger values mean proportionally more power is burnt per watt
delivered. The waste figure is the same quantity in dB.

For a chain of devices the total waste factor is found by referring
each stage's excess consumption ``(W_k - 1)`` to the chain output
through the combined gain of everything between that stage and the
sink:

    W = 1 + sum_k (W_k - 1) / (G_{k+1} * G_{k+2} * ... * G_N)

Stages are stored source-to-sink: index 0 is nearest the source, the
last index drives the sink. A consequence of the sink-side weighting is
that wasteful stages buried behind lossy links dominate the total,
which is what the per-stage contribution report makes visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

from .units import FLOAT_MAX, in_range

__all__ = [
    "Stage",
    "Cascade",
    "StageTerm",
    "ContributionReport",
    "stage_waste_two",
    "cascade_waste",
    "compose_subsystems",
    "contribution_report",
]

_setattr = object.__setattr__  # how a frozen dataclass sets its own fields


def _require_gain(name: str, value: float) -> None:
    if not in_range(f"{name}: gain", value, 0.0, open_low=True):
        raise ValueError(f"{name}: gain must be positive and finite, got {value!r}")


def _require_waste(name: str, value: float) -> None:
    if not in_range(f"{name}: waste factor", value, 1.0):
        raise ValueError(f"{name}: waste factor must be >= 1 and finite, got {value!r}")


@dataclass(frozen=True, init=False)
class Stage:
    """One element of a cascade: linear power gain and waste factor.

    Active stages take any gain > 0 and waste >= 1. Attenuating
    elements (cables, antennas modeled as losses, the air interface)
    should be built with :meth:`passive`, which pins ``waste = 1/gain``.
    """

    gain: float
    waste: float
    label: str = ""

    def __init__(self, gain: float, waste: float, label: str = "") -> None:
        try:
            valid = 0.0 < gain <= FLOAT_MAX and 1.0 <= waste <= FLOAT_MAX
        except TypeError:  # a non-number: the checks below name the field
            valid = False
        if not valid:
            name = label or "stage"
            _require_gain(name, gain)
            _require_waste(name, waste)
        # written out rather than generated: the generated __init__ looks up
        # object.__setattr__ once per field and then calls a __post_init__
        _setattr(self, "gain", gain)
        _setattr(self, "waste", waste)
        _setattr(self, "label", label)

    @classmethod
    def passive(cls, gain: float, label: str = "") -> "Stage":
        """Stage that draws no supply power: waste is exactly 1/gain.

        A passive element cannot amplify, so gain must lie in (0, 1].
        """
        name = label or "passive stage"
        if not in_range(f"{name}: passive gain", gain, 0.0, 1.0, open_low=True):
            raise ValueError(f"{name}: passive gain must be in (0, 1], got {gain!r}")
        return cls(gain, 1.0 / gain, label)


@dataclass(frozen=True)
class Cascade:
    """Ordered chain of stages, source first, sink last. Never empty."""

    stages: tuple[Stage, ...]
    _cached = None  # ``_waste_and_terms()`` once computed; with no annotation it is not a field

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("cascade must contain at least one stage")
        for st in self.stages:
            if not isinstance(st, Stage):
                raise ValueError(f"cascade entries must be Stage, got {st!r}")

    def __len__(self) -> int:
        return len(self.stages)

    def __getstate__(self) -> dict:
        return {"stages": self.stages}  # the cached W and terms are not part of the value

    def _waste_and_terms(self) -> tuple[float, tuple[float, ...]]:
        """``(W, terms)``: each stage's term (W_k - 1) / prod(G_i, i > k), sink first,
        and W = 1 + their sum, added in that order. A term or a W of inf is a ValueError.

        An ideal stage (W_k = 1) adds 0 whatever the gain after it, even
        where that gain product has underflowed to 0. Computed on the first
        call and kept in ``_cached`` (``functools.cached_property`` takes a
        lock on each first read before Python 3.12: about 1 µs, a third of
        the loop on a 33-stage chain).
        """
        cached = self._cached
        if cached is not None:
            return cached
        total = 1.0
        terms = []
        after = 1.0  # the gain product after the current stage
        inf = math.inf
        for st in reversed(self.stages):
            excess = st.waste - 1.0
            term = excess / after if after > 0.0 else (inf if excess else 0.0)
            if term == inf:
                idx = len(self.stages) - 1 - len(terms)
                raise ValueError(
                    f"{st.label or f'stage {idx + 1}'}: term (W - 1) / (gain after it) = "
                    f"{excess!r} / {after!r} is outside the float range"
                )
            terms.append(term)
            total += term
            after *= st.gain
        if total == inf:
            raise ValueError(
                "cascade waste W = 1 + sum of stage terms is outside the float range "
                f"(each of the {len(terms)} terms is finite)"
            )
        cached = (total, tuple(terms))
        _setattr(self, "_cached", cached)
        return cached


def stage_waste_two(w1: float, w2: float, g2: float) -> float:
    """Waste factor of two cascaded devices.

    ``w1`` belongs to the source-side device, ``w2`` and ``g2`` to the
    sink-side device; the first device's excess is referred to the
    output through the second device's gain:

        W = w2 + (w1 - 1) / g2
    """
    _require_waste("w1", w1)
    _require_waste("w2", w2)
    _require_gain("g2", g2)
    return w2 + (w1 - 1.0) / g2


def cascade_waste(c: Cascade) -> float:
    """Total waste factor of a chain, evaluated in closed form.

    Accumulates sink-to-source so each stage's excess is divided by the
    product of all downstream gains exactly once.
    """
    return c._waste_and_terms()[0]


def compose_subsystems(ws1: float, ws2: float, gs2: float) -> float:
    """Waste factor of two subsystems joined source-to-sink.

    ``ws1`` is the source-side subsystem's waste factor; ``ws2`` and
    ``gs2`` are the sink-side subsystem's waste factor and total gain.
    Subsystems compose exactly like single devices, so this is
    ``stage_waste_two`` applied to the aggregates; an ideal source-side
    subsystem (ws1 = 1) leaves ws2 unchanged, which makes ws2 the lower
    bound of the composition.
    """
    return stage_waste_two(ws1, ws2, gs2)


@dataclass(frozen=True, init=False)
class StageTerm:
    """One stage's additive contribution to the cascade waste factor."""

    label: str
    term: float
    share: float

    def __init__(self, label: str, term: float, share: float) -> None:
        _setattr(self, "label", label)  # written out, as in Stage: a report builds one per stage
        _setattr(self, "term", term)
        _setattr(self, "share", share)


@dataclass(frozen=True)
class ContributionReport:
    """Per-stage breakdown of a cascade's waste factor.

    ``terms`` holds each stage's additive term ``(W_k - 1) / prod(G_i,
    i > k)`` sorted largest first (ties keep source-to-sink order), and
    its share of the total excess ``W - 1``. An all-ideal chain has
    total_waste 1 and all shares zero.
    """

    total_waste: float
    terms: tuple[StageTerm, ...] = field(default_factory=tuple)


def contribution_report(c: Cascade) -> ContributionReport:
    """Break a cascade's waste factor into per-stage additive terms."""
    total, raw = c._waste_and_terms()
    raw = raw[::-1]  # source-to-sink so the descending sort ties stay stable
    labels = [st.label or f"stage {idx}" for idx, st in enumerate(c.stages, 1)]
    excess = total - 1.0
    if excess > 0.0:
        terms = [StageTerm(label, t, t / excess) for label, t in zip(labels, raw)]
    else:
        terms = [StageTerm(label, 0.0, 0.0) for label in labels]
    terms.sort(key=attrgetter("term"), reverse=True)
    return ContributionReport(total, tuple(terms))
