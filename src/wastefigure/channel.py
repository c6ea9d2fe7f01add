"""Propagation channel treated as a passive cascade element.

A channel that attenuates carries no supply power of its own, so its
waste factor is the reciprocal of its gain: the whole transmit power is
spent, the fraction ``G_ch`` arrives. Distance-driven channels follow
the power-law model ``G_ch = k / d**alpha``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cascade import Stage
from .units import finite_power, finite_ratio, in_range

__all__ = ["PathLossChannel", "channel_gain", "channel_waste"]


@dataclass(frozen=True)
class PathLossChannel:
    """Power-law attenuation: gain = k / distance**alpha.

    The model describes loss, never amplification, so parameter
    combinations giving gain > 1 (distance**alpha < k) are rejected.
    """

    k: float = 1.0
    alpha: float = 2.0
    distance: float = 1.0

    def __post_init__(self) -> None:
        for name in ("k", "alpha", "distance"):
            v = getattr(self, name)
            if not in_range(f"channel {name}", v, 0.0, open_low=True):
                raise ValueError(f"channel {name} must be positive and finite, got {v!r}")
        if self.gain() > 1.0:
            raise ValueError(
                "channel gain k/d**alpha exceeds 1; the model describes "
                f"attenuation only (k={self.k!r}, alpha={self.alpha!r}, "
                f"distance={self.distance!r})"
            )

    def gain(self) -> float:
        return self.k / finite_power("channel: distance**alpha", self.distance, self.alpha)

    def waste(self) -> float:
        return finite_ratio("channel waste 1/gain", 1.0, self.gain())

    def as_stage(self, label: str = "channel") -> Stage:
        """The channel as a passive stage, ready to drop into a cascade."""
        return Stage.passive(self.gain(), label=label)


def channel_gain(ch: PathLossChannel) -> float:
    """Linear channel gain, k / d**alpha."""
    return ch.gain()


def channel_waste(ch: PathLossChannel) -> float:
    """Waste factor of the channel alone: 1 / gain."""
    return ch.waste()
