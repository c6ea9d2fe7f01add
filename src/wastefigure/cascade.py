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


def _require_gain(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name}: gain must be positive and finite, got {value!r}")


def _require_waste(name: str, value: float) -> None:
    if not (value >= 1.0 and math.isfinite(value)):
        raise ValueError(f"{name}: waste factor must be >= 1 and finite, got {value!r}")


@dataclass(frozen=True)
class Stage:
    """One element of a cascade: linear power gain and waste factor.

    Active stages take any gain > 0 and waste >= 1. Attenuating
    elements (cables, antennas modeled as losses, the air interface)
    should be built with :meth:`passive`, which pins ``waste = 1/gain``.
    """

    gain: float
    waste: float
    label: str = ""

    def __post_init__(self) -> None:
        name = self.label or "stage"
        _require_gain(name, self.gain)
        _require_waste(name, self.waste)

    @classmethod
    def passive(cls, gain: float, label: str = "") -> "Stage":
        """Stage that draws no supply power: waste is exactly 1/gain.

        A passive element cannot amplify, so gain must lie in (0, 1].
        """
        name = label or "passive stage"
        if not (0.0 < gain <= 1.0):
            raise ValueError(
                f"{name}: passive gain must be in (0, 1], got {gain!r}"
            )
        return cls(gain=gain, waste=1.0 / gain, label=label)


@dataclass(frozen=True)
class Cascade:
    """Ordered chain of stages, source first, sink last. Never empty."""

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("cascade must contain at least one stage")
        for st in self.stages:
            if not isinstance(st, Stage):
                raise ValueError(f"cascade entries must be Stage, got {st!r}")

    def __len__(self) -> int:
        return len(self.stages)


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
    total = 1.0
    for term in _sink_to_source_terms(c):
        total += term
    return total


def _label(c: Cascade, idx: int) -> str:
    return c.stages[idx].label or f"stage {idx + 1}"


def _sink_to_source_terms(c: Cascade) -> list[float]:
    """Each stage's term (W_k - 1) / prod(G_i, i > k), sink first; inf is a ValueError."""
    terms = []
    downstream_gain = 1.0
    for st in reversed(c.stages):
        term = (st.waste - 1.0) / downstream_gain if downstream_gain > 0.0 else math.inf
        if term == math.inf:
            raise ValueError(
                f"{_label(c, len(c.stages) - 1 - len(terms))}: term (W - 1) / (gain after it) = "
                f"{st.waste - 1.0!r} / {downstream_gain!r} is outside the float range"
            )
        terms.append(term)
        downstream_gain *= st.gain
    return terms


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


@dataclass(frozen=True)
class StageTerm:
    """One stage's additive contribution to the cascade waste factor."""

    label: str
    term: float
    share: float


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
    raw = _sink_to_source_terms(c)
    raw.reverse()  # back to source-to-sink so the descending sort ties stay stable

    total = 1.0 + sum(raw)
    excess = total - 1.0
    if excess > 0.0:
        terms = [StageTerm(_label(c, idx), t, t / excess) for idx, t in enumerate(raw)]
    else:
        terms = [StageTerm(_label(c, idx), 0.0, 0.0) for idx in range(len(raw))]
    terms.sort(key=lambda st_: st_.term, reverse=True)
    return ContributionReport(total_waste=total, terms=tuple(terms))
