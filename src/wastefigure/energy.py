"""Energy-per-bit and power-consumption figures built on waste factors.

The two complementary viewpoints:

* consumption factor, bits per joule: achievable rate divided by the
  minimum consumed power at a required SNR;
* minimum energy per bit for a system running at capacity C:

      E_b = P_np / C + ln(2) * N0 * W

  where ``P_np`` is non-path power (oscillators, control, cooling),
  ``N0`` the one-sided noise density at the receiver input and ``W``
  the end-to-end waste factor. With no non-path power and an ideal
  chain (W = 1) this lands on the unavoidable floor ``ln(2) * N0``,
  about -1.59 dB relative to N0.

For a complete transmitter-channel-receiver link the waste factor has
a closed form in the terminal figures and the channel gain, plus a
wide-coverage approximation ``W_tx / (G_rx * G_ch)`` valid when the
received fraction ``G_rx * G_ch`` is far below one. Routines that rely
on that regime emit :class:`ApproximationRegimeWarning` when it is
violated rather than failing, since the algebra still evaluates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .units import FLOAT_MAX, finite, finite_power, finite_ratio

__all__ = [
    "ApproximationRegimeWarning",
    "EnergyContext",
    "LinkTerminals",
    "SnrSpec",
    "snr_min",
    "min_consumed_power",
    "consumption_factor",
    "wideband_rate_limit",
    "energy_per_bit_min",
    "link_waste",
    "link_waste_approx",
    "energy_per_bit_link",
    "max_efficient_distance",
]

LN2 = math.log(2.0)

# G_rx * G_ch at or above this is outside the wide-coverage regime the
# hop/link approximations assume.
APPROX_REGIME_LIMIT = 0.1


class ApproximationRegimeWarning(UserWarning):
    """Raised when an approximate form is used outside G_rx*G_ch << 1."""


def _check_regime(product: float, where: str) -> None:
    if product >= APPROX_REGIME_LIMIT:
        warnings.warn(
            f"{where}: G_rx*G_ch = {product:.3g} is not << 1; the "
            "approximate waste form degrades in this regime",
            ApproximationRegimeWarning,
            stacklevel=3,
        )


def _require(name: str, value: float, *, minimum: float, exclusive: bool = False) -> None:
    # units.in_range's check written out: this runs once per field of every record
    try:
        if (minimum < value <= FLOAT_MAX) if exclusive else (minimum <= value <= FLOAT_MAX):
            return
    except TypeError:
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    bound = ">" if exclusive else ">="
    raise ValueError(f"{name} must be {bound} {minimum} and finite, got {value!r}")


@dataclass(frozen=True)
class EnergyContext:
    """Operating point for energy-per-bit figures.

    n0: one-sided noise power spectral density, W/Hz.
    capacity: data rate the system runs at, bit/s.
    p_np: non-path power consumption, W.
    """

    n0: float
    capacity: float
    p_np: float = 0.0

    def __post_init__(self) -> None:
        _require("n0", self.n0, minimum=0.0, exclusive=True)
        _require("capacity", self.capacity, minimum=0.0, exclusive=True)
        _require("p_np", self.p_np, minimum=0.0)


@dataclass(frozen=True)
class LinkTerminals:
    """Transmit and receive terminal figures of a point-to-point link."""

    w_tx: float
    w_rx: float
    g_rx: float

    def __post_init__(self) -> None:
        _require("w_tx", self.w_tx, minimum=1.0)
        _require("w_rx", self.w_rx, minimum=1.0)
        _require("g_rx", self.g_rx, minimum=0.0, exclusive=True)


@dataclass(frozen=True)
class SnrSpec:
    """Spectral-efficiency target with an SNR design margin (>= 1)."""

    spectral_efficiency: float
    margin: float = 1.0

    def __post_init__(self) -> None:
        _require("spectral_efficiency", self.spectral_efficiency, minimum=0.0)
        _require("margin", self.margin, minimum=1.0)

    def operating_snr(self) -> float:
        return finite("operating SNR margin*snr_min", self.margin * snr_min(self))


def snr_min(spec: SnrSpec) -> float:
    """Smallest SNR supporting the target spectral efficiency: 2**eta - 1."""
    try:
        return 2.0**spec.spectral_efficiency - 1.0
    except OverflowError:
        raise ValueError(f"snr_min: 2**{spec.spectral_efficiency!r} is outside the float range") from None


def _consumed_power(snr_min_: float, p_noise: float, w: float, p_np: float) -> float:
    """p_np + snr_min * p_noise * w of checked inputs; inf where the sum overflows."""
    _require("snr_min", snr_min_, minimum=0.0)
    _require("p_noise", p_noise, minimum=0.0, exclusive=True)
    _require("w", w, minimum=1.0)
    _require("p_np", p_np, minimum=0.0)
    return p_np + snr_min_ * p_noise * w


def min_consumed_power(snr_min_: float, p_noise: float, w: float, p_np: float = 0.0) -> float:
    """Minimum consumed power to close the link: p_np + snr_min * p_noise * w."""
    power = _consumed_power(snr_min_, p_noise, w, p_np)
    return finite("minimum consumed power p_np + snr_min*p_noise*w", power)


def consumption_factor(
    bandwidth: float,
    snr: float,
    p_np: float,
    p_noise: float,
    w: float,
    margin: float = 1.0,
) -> float:
    """Best-case bits per joule at the given operating point.

    Rate term is the capacity B*log2(1+SNR); power term is the minimum
    consumed power at the margin-reduced required SNR.
    """
    _require("bandwidth", bandwidth, minimum=0.0, exclusive=True)
    _require("snr", snr, minimum=0.0)
    _require("margin", margin, minimum=1.0)
    required = snr / margin
    if p_np == 0.0 and required == 0.0:
        raise ValueError(
            "consumption factor is undefined when both p_np and the "
            "required SNR are zero (no power is consumed)"
        )
    rate = bandwidth * math.log1p(snr) / LN2
    return finite_ratio("consumption factor", rate, _consumed_power(required, p_noise, w, p_np))


def wideband_rate_limit(p_s: float, n0: float) -> float:
    """Rate ceiling as bandwidth grows without bound: (p_s/n0) / ln2."""
    _require("p_s", p_s, minimum=0.0, exclusive=True)
    _require("n0", n0, minimum=0.0, exclusive=True)
    return finite_ratio("wideband rate limit (p_s/n0)/ln2", p_s / n0, LN2)


def energy_per_bit_min(ctx: EnergyContext, w: float) -> float:
    """Minimum consumed energy per bit at capacity: p_np/C + ln2*n0*w."""
    _require("w", w, minimum=1.0)
    return finite("energy per bit p_np/C + ln2*n0*w", ctx.p_np / ctx.capacity + LN2 * ctx.n0 * w)


def _received(t: LinkTerminals, g_ch: float) -> float:
    """The received fraction g_rx * g_ch, for a g_ch in (0, 1]."""
    if not 0.0 < g_ch <= 1.0:
        raise ValueError(f"g_ch must be in (0, 1] and finite, got {g_ch!r}")
    return t.g_rx * g_ch


def link_waste(t: LinkTerminals, g_ch: float) -> float:
    """Exact end-to-end waste factor of a TX -> channel -> RX link.

    Equivalent to cascading the three elements with the channel as a
    passive stage:

        W = (g_rx * g_ch * w_rx + w_tx - g_ch) / (g_rx * g_ch)
    """
    den = _received(t, g_ch)
    num = den * t.w_rx + t.w_tx - g_ch
    return finite_ratio("link waste (g_rx*g_ch*w_rx + w_tx - g_ch)/(g_rx*g_ch)", num, den)


def link_waste_approx(t: LinkTerminals, g_ch: float) -> float:
    """Wide-coverage approximation of the link waste: w_tx / (g_rx * g_ch)."""
    return finite_ratio("approximate link waste w_tx/(g_rx*g_ch)", t.w_tx, _received(t, g_ch))


def energy_per_bit_link(
    ctx: EnergyContext,
    t: LinkTerminals,
    g_ch: float,
    mode: str = "exact",
) -> float:
    """Minimum consumed energy per bit across a full link.

    mode "exact" uses the closed-form link waste; "approximate" uses
    w_tx/(g_rx*g_ch) and warns outside its G_rx*G_ch << 1 regime.
    """
    if mode == "exact":
        w = link_waste(t, g_ch)
    elif mode == "approximate":
        w = link_waste_approx(t, g_ch)
        _check_regime(t.g_rx * g_ch, "energy_per_bit_link")
    else:
        raise ValueError(f"mode must be 'exact' or 'approximate', got {mode!r}")
    e_b = ctx.p_np / ctx.capacity + LN2 * ctx.n0 * w
    return finite("link energy per bit p_np/C + ln2*n0*W", e_b)


def max_efficient_distance(
    ctx: EnergyContext,
    t: LinkTerminals,
    k: float,
    alpha: float,
) -> float | None:
    """Largest path-loss distance at which non-path power still dominates.

    Below the returned distance the fixed per-bit cost p_np/C exceeds
    the transmission term of the link energy; beyond it transmission
    waste takes over. Returns None when no such distance exists (the
    transmission term dominates at every distance, e.g. p_np = 0). A
    distance outside the float range is a ValueError.
    """
    _require("k", k, minimum=0.0, exclusive=True)
    _require("alpha", alpha, minimum=0.0, exclusive=True)
    n0c = ctx.n0 * ctx.capacity
    den = t.w_tx * LN2 * n0c
    scale = k / den if den else math.inf  # inf where N0*C is subnormal or underflowed
    if scale == math.inf and ctx.p_np == 0.0:  # without p_np, N0*C cancels from the base
        braced = k * (1.0 - t.g_rx * t.w_rx) / t.w_tx
    else:
        braced = scale * (ctx.p_np * t.g_rx + n0c * LN2 * (1.0 - t.g_rx * t.w_rx))
        if braced == math.inf and scale == math.inf and den:  # k / den overflowed, the base
            # may not: its sign is the braced sum's, its size the expanded sum's
            braced = abs(k * ctx.p_np * t.g_rx / den + k * (1.0 - t.g_rx * t.w_rx) / t.w_tx)
    if braced <= 0.0:
        return None
    return finite_power(
        "max efficient distance: (k / (w_tx ln2 N0 C) * (p_np g_rx + N0 C ln2 (1 - g_rx w_rx)))"
        "**(1/alpha)", braced, 1.0 / alpha
    )
