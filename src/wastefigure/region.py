"""Feasibility-region sweeps: where does assisted routing save energy.

Evaluates the two-hop rule ``d3**alpha > A*d1**alpha + B*d2**alpha + C``
of a relay or FWA scenario (``relay.Rule``, whose margin sign is its
verdict) over a grid: a point is advantageous iff ``Rule.lhs`` (C
included) exceeds ``Rule.rhs`` there. Two grid modes:

* ``normalized``: coordinates are (d1/d3, d2/d3) and the rule is divided
  by d3**alpha, so C enters as C / d3**alpha with the scenario's own d3;
  axes must be non-negative.
* ``planar``: coordinates are candidate relay positions in the plane,
  source at the origin, sink at (d3, 0) with the grid's d3; d1 and d2
  are Euclidean distances to the grid point.

Membership uses the strict inequality, so boundary points (where the
two routes tie) count as not advantageous.

For a fixed grid row x the rule's right-hand side never decreases as
|y| grows (both coefficients are positive, and d1 and d2 grow with
|y|) and its left-hand side is one constant per grid, so a row's
advantageous cells form one contiguous interval [lo, hi) around y = 0.
Sweeps find each row's two interval ends over all rows at once: each end
is seeded from the rule's root (closed form on normalized axes, six
vectorised Newton steps on y**2 in the plane), certified by the rule's
test at the seed and at the cell before it, and bisected only in the
rows where that check fails. Every end is thus decided by the same
elementwise expression as a full-grid evaluation, at O(nx) points
instead of nx * ny, so masks are unchanged; a poor seed only costs time.

A region is stored as the mask's x-major run-length encoding, the form
the JSON output writes. A sweep builds it from the row intervals in
O(nx), and its area fraction is sum(hi - lo) / (nx * ny); neither reads
a cell. The mask itself is decoded from the runs only when a caller
reads ``FeasibilityRegion.mask`` (the CSV writer, ``region_subset``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fwa import FwaScenario
from .relay import RelayScenario
from .units import FLOAT_MAX, in_range

__all__ = [
    "GridSpec",
    "FeasibilityRegion",
    "sweep_relay",
    "sweep_fwa",
    "region_subset",
    "write_region_csv",
    "region_json_doc",
    "write_region_json",
    "rle_decode",
]

_MODES = ("normalized", "planar")


@dataclass(frozen=True)
class GridSpec:
    """Sampling grid for a feasibility sweep."""

    mode: str = "normalized"
    x_range: tuple[float, float] = (0.0, 1.5)
    y_range: tuple[float, float] = (0.0, 1.5)
    nx: int = 201
    ny: int = 201
    d3: float = 1.0  # planar mode only; normalized mode scales C by the scenario's d3

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("x_range", "y_range"):
            rng = getattr(self, name)
            try:
                lo, hi = rng
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a (low, high) pair, got {rng!r}") from None
            if not (in_range(name, lo, -FLOAT_MAX) and in_range(name, hi, lo, open_low=True)):
                raise ValueError(f"{name} must satisfy low < high, got {rng!r}")
            lo, hi = float(lo), float(hi)
            object.__setattr__(self, name, (lo, hi))
            if self.mode == "normalized" and lo < 0.0:
                raise ValueError(
                    f"{name}: normalized coordinates are distance ratios and "
                    f"cannot be negative, got lower bound {lo!r}"
                )
        for name in ("nx", "ny"):
            n = getattr(self, name)
            if not isinstance(n, int) or isinstance(n, bool) or n < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {n!r}")
        if not in_range("d3", self.d3, 0.0, open_low=True):
            raise ValueError(f"d3 must be positive and finite, got {self.d3!r}")

    @classmethod
    def planar_around(cls, d3: float, nx: int = 201, ny: int = 201) -> "GridSpec":
        """Planar grid boxing the source-sink segment with 1.5x its span."""
        return cls(
            mode="planar",
            x_range=(-0.25 * d3, 1.25 * d3),
            y_range=(-0.75 * d3, 0.75 * d3),
            nx=nx,
            ny=ny,
            d3=d3,
        )

    def x_points(self) -> np.ndarray:
        return np.linspace(self.x_range[0], self.x_range[1], self.nx)

    def y_points(self) -> np.ndarray:
        return np.linspace(self.y_range[0], self.y_range[1], self.ny)


@dataclass(frozen=True, eq=False, init=False)
class FeasibilityRegion:
    """Advantageous set of a sweep: mask[i, j] is grid point (x_i, y_j).

    The region keeps only the mask's x-major run-length encoding; ``mask``
    is decoded from it on first read and is read-only. A region built from
    a mask of the grid's shape encodes that mask once.
    """

    spec: GridSpec
    area_fraction: float
    scenario: RelayScenario | FwaScenario
    _rle: tuple[int, list[int]] = field(repr=False)  # (first, runs), as rle_decode takes them

    def __init__(self, spec: GridSpec, mask, area_fraction: float, scenario) -> None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (spec.nx, spec.ny):
            raise ValueError(f"mask shape {mask.shape} does not match the {spec.nx}x{spec.ny} grid")
        self._fill(spec, area_fraction, scenario, _rle_encode(mask.ravel()))

    @classmethod
    def _from_rle(cls, spec: GridSpec, area_fraction: float, scenario, rle) -> "FeasibilityRegion":
        region = cls.__new__(cls)
        region._fill(spec, area_fraction, scenario, rle)
        return region

    def _fill(self, spec, area_fraction, scenario, rle) -> None:
        # the instance is frozen; its fields are set once, here
        self.__dict__.update(spec=spec, area_fraction=area_fraction, scenario=scenario, _rle=rle)

    @cached_property
    def mask(self) -> np.ndarray:
        """The (nx, ny) bool mask, decoded from the runs on first read."""
        mask = rle_decode(*self._rle, (self.spec.nx, self.spec.ny))
        mask.setflags(write=False)
        return mask


def _first_true(pred, nrows: int, start: int, stop: int) -> np.ndarray:
    """Per row, the first j in [start, stop) with pred true, else stop.

    ``pred(rows, js)`` evaluates the predicate at (rows[k], js[k]) and must
    be false-then-true along j in every row.
    """
    lo = np.full(nrows, start)
    hi = np.full(nrows, stop)
    while True:
        rows = np.flatnonzero(lo < hi)
        if rows.size == 0:
            return lo
        mid = (lo[rows] + hi[rows]) // 2
        t = pred(rows, mid)
        hi[rows[t]] = mid[t]
        lo[rows[~t]] = mid[~t] + 1


def _seeded_first_true(pred, seeds: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``_first_true(pred, seeds.size, start, stop)``, tried at the seeds first.

    As pred is false-then-true along each row, a seed s in [start, stop] is
    the answer iff pred holds at s (or s == stop) and fails at s - 1 (or
    s == start). Only the rows whose seed fails that check are bisected.
    """
    s = np.clip(seeds, start, stop)
    at, before = np.flatnonzero(s < stop), np.flatnonzero(s > start)
    t = pred(np.concatenate([at, before]), np.concatenate([s[at], s[before] - 1]))
    bad = np.concatenate([at[~t[: at.size]], before[t[at.size :]]])  # no row fails both; any order
    s[bad] = _first_true(lambda rows, js: pred(bad[rows], js), bad.size, start, stop)
    return s


def _boundary_y(rule, lhs: float, xs: np.ndarray, planar: bool, d3: float) -> np.ndarray:
    """Per row, an estimate of the |y| where the rule's two sides meet (0 if not finite).

    In the plane it is Newton on u = y**2 in a*(p+u)**h + b*(q+u)**h = lhs
    (p = x**2, q = (x-d3)**2, h = alpha/2), from the one-term bound above the root.
    """
    if not planar:
        y = ((lhs - rule.a * xs**rule.alpha) / rule.b) ** (1.0 / rule.alpha)
    else:
        # a numpy h: alpha/2 underflows to 0 for a subnormal alpha, and 1/h is then inf
        h, p, q = np.float64(rule.alpha) / 2.0, xs**2, (xs - d3) ** 2
        ra, rb = (np.float64(lhs) / np.array([rule.a, rule.b])) ** (1.0 / h)
        u = np.fmax(np.fmin(ra - p, rb - q), 0.0)
        for _ in range(6):  # fmax turns a nan step (0/0, inf/inf) into a restart at 0
            pu, qu = p + u, q + u
            pm, qm = pu ** (h - 1.0), qu ** (h - 1.0)
            f = rule.a * pm * pu + rule.b * qm * qu - lhs
            u = np.fmax(u - f / (h * (rule.a * pm + rule.b * qm)), 0.0)
        y = np.sqrt(u)
    return np.where(np.isfinite(y), y, 0.0)


def _intervals_rle(los: np.ndarray, his: np.ndarray, ny: int) -> tuple[int, list[int]]:
    """x-major run-length encoding of the mask whose row i is in on [los[i], his[i]).

    Each non-empty row flips the mask at i*ny + lo and i*ny + hi. A row
    ending at ny followed by a row starting at 0 meets it at the same
    index, and that pair of flips cancels: the run continues.
    """
    size = los.size * ny
    rows = np.flatnonzero(his > los)
    flips = (rows[:, None] * ny + np.stack([los[rows], his[rows]], axis=1)).ravel()
    joined = np.flatnonzero(flips[1:] == flips[:-1])
    flips = np.delete(flips, np.concatenate([joined, joined + 1]))
    first = int(flips.size > 0 and flips[0] == 0)
    inner = flips[(flips > 0) & (flips < size)]
    return first, np.diff(np.concatenate(([0], inner, [size]))).tolist()


def _sweep(spec: GridSpec, s: RelayScenario | FwaScenario) -> FeasibilityRegion:
    """The region of the rule: grid row i is advantageous on [los[i], his[i])."""
    rule = s._rule()
    planar = spec.mode == "planar"
    lhs = rule.lhs(spec.d3 if planar else s.d3, normalized=not planar)
    xs, ys = spec.x_points(), spec.y_points()

    def holds(rows: np.ndarray, js: np.ndarray) -> np.ndarray:
        d1, d2 = xs[rows], ys[js]
        if planar:
            d1, d2 = np.hypot(d1, d2), np.hypot(d1 - spec.d3, d2)
        return lhs > rule.rhs(d1, d2)

    # members are a prefix of the y >= 0 half and a suffix of the y < 0 half;
    # a right-hand side that overflows to inf exceeds the finite lhs, the exact
    # answer, and 0 * inf (a coefficient that underflowed to 0) is nan, which
    # compares false alike, so numpy's overflow and invalid warnings are silenced;
    # the seeds' own 0/0 and x/0 only make a poor seed, so divide is silenced too
    j0 = int(np.searchsorted(ys, 0.0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y_star = _boundary_y(rule, lhs, xs, planar, spec.d3)
        his = _seeded_first_true(
            lambda rows, js: ~holds(rows, js), np.searchsorted(ys, y_star), j0, spec.ny
        )
        los = _seeded_first_true(holds, np.searchsorted(ys, -y_star, side="right"), 0, j0)
    area = int((his - los).sum()) / (spec.nx * spec.ny)
    return FeasibilityRegion._from_rle(spec, area, s, _intervals_rle(los, his, spec.ny))


def sweep_relay(s: RelayScenario, spec: GridSpec, workers: int = 1) -> FeasibilityRegion:
    """Sweep the relay distance rule, non-path power term included.

    The scenario's stored d1/d2 are not used: each grid point implies
    its own geometry (normalized ratios, or planar positions with the
    grid's d3). In normalized mode the scenario's d3 scales the non-path
    power term, so the scenario's own point lands on its own verdict.
    Each grid row's advantageous cells are one interval, whose ends are
    seeded from the rule's root, certified by the rule's own test and
    bisected only where that fails. The region stores the runs of those intervals;
    its mask is decoded on demand. ``workers`` is accepted and ignored;
    it is kept only so that existing callers keep working.
    """
    return _sweep(spec, s)


def sweep_fwa(s: FwaScenario, spec: GridSpec, workers: int = 1) -> FeasibilityRegion:
    """Sweep the FWA distance rule; coefficients follow the traffic mix.

    Same rule and seed-certify-bisect kernel as ``sweep_relay``; ``workers`` is ignored.
    """
    return _sweep(spec, s)


def region_subset(inner: FeasibilityRegion, outer: FeasibilityRegion) -> bool:
    """True iff every advantageous point of ``inner`` is advantageous in ``outer``."""
    if inner.spec != outer.spec:
        raise ValueError("region subset is only defined on identical grids")
    return bool(np.all(outer.mask | ~inner.mask))


def write_region_csv(region: FeasibilityRegion, path) -> None:
    """Write the sweep as CSV rows x,y,advantageous (floats at full precision).

    Each ``,y,flag`` line tail is formatted once per sweep and each x once
    per row; a grid row is one join of its tails, streamed to the file.
    """
    ys = region.spec.y_points().tolist()
    tail0 = [f",{y:.17g},0\n" for y in ys]
    tail1 = [f",{y:.17g},1\n" for y in ys]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,advantageous\n")
        for x, row in zip(region.spec.x_points().tolist(), region.mask.tolist()):
            prefix = f"{x:.17g}"
            tails = [t1 if m else t0 for t0, t1, m in zip(tail0, tail1, row)]
            fh.write(prefix + prefix.join(tails))


def _rle_encode(flat: np.ndarray) -> tuple[int, list[int]]:
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    return int(flat[0]), np.diff(bounds).tolist()


def rle_decode(first: int, runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    """Rebuild a mask from its run-length encoding (x-major order)."""
    values = (first + np.arange(len(runs))) % 2
    flat = np.repeat(values.astype(bool), runs)
    return flat.reshape(shape)


def region_json_doc(region: FeasibilityRegion) -> dict:
    """Sweep as a JSON-ready mapping: grid, scenario echo, RLE mask, area."""
    first, runs = region._rle
    return {
        "grid": {
            "mode": region.spec.mode,
            "x_range": list(region.spec.x_range),
            "y_range": list(region.spec.y_range),
            "nx": region.spec.nx,
            "ny": region.spec.ny,
            "d3": region.spec.d3,
        },
        "scenario": region.scenario.to_config(),
        "area_fraction": region.area_fraction,
        "mask": {"order": "x-major", "first": first, "runs": list(runs)},
    }


def write_region_json(region: FeasibilityRegion, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(region_json_doc(region), fh, indent=2)
        fh.write("\n")
