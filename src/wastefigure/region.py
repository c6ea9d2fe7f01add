"""Feasibility-region sweeps: where does assisted routing save energy.

Evaluates the two-hop rule ``d3**alpha > A*d1**alpha + B*d2**alpha + C``
of a relay or FWA scenario (``relay.Rule``, whose margin sign is its
verdict) over a grid: a point is advantageous iff ``Rule.lhs`` (C
included) exceeds ``Rule.rhs`` there. Two grid modes:

* ``normalized``: coordinates are (d1/d3, d2/d3) and the rule is divided
  by d3**alpha, so C enters as C / d3**alpha with the scenario's own d3;
  axes must be non-negative.
* ``planar``: coordinates are candidate relay positions in the plane,
  source at the origin, sink at (d3, 0) with the scenario's own d3; d1
  and d2 are Euclidean distances to the grid point.

Membership uses the strict inequality, so boundary points (where the
two routes tie) count as not advantageous.

For a fixed grid row x the rule's right-hand side never decreases as
|y| grows (both coefficients are positive, and d1 and d2 grow with
|y|) and its left-hand side is one constant per grid, so a row's
advantageous cells form one contiguous interval [lo, hi) around y = 0.
Every row end is decided by the same expression as a full-grid
evaluation, at O(nx log ny) points instead of nx * ny. The mode picks
the kernel:

* normalized axes start at 0, so every row is [0, hi). The kernel runs
  on Python floats: ``b*y**alpha`` once per column, ``a*x**alpha`` once
  per row, each row end walked to from the previous row's with the
  rule's test, and the runs built from the row ends directly. Its cells
  use Python's ``**``, as ``Rule.margin`` does.
* planar rows straddle y = 0. The kernel is vectorised over all rows
  with numpy: six Newton steps on y**2 from the rule's one-term bound
  seed both ends, each seed is certified by the rule's test at the seed
  and at the cell before it, only the rows where that check fails are
  bisected (a poor seed only costs time), and the runs are built from
  the row intervals with array operations.

Both kernels and the CSV writer take the grid points from the same
float operations, i*step + lo with the last point hi: ``_linspace`` on
Python floats, bit for bit the ``np.linspace`` that ``GridSpec.x_points``/
``y_points`` return for the planar kernel.

A region is its grid, its scenario and the mask's x-major run-length
encoding, the form the JSON output writes. A sweep builds the runs from
the row ends in O(nx); the area fraction sums the runs of 1s. The CSV
writer walks the runs row by row and never reads a cell. The mask itself
is decoded only when a caller reads ``FeasibilityRegion.mask``.

numpy is imported only by the planar kernel, ``GridSpec.x_points``/
``y_points``, ``FeasibilityRegion.mask`` (and so ``region_subset``),
``FeasibilityRegion.from_mask`` and the run-length encode/decode helpers,
so a normalized sweep and its CSV and JSON files run without it.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .units import FLOAT_MAX, in_range

if TYPE_CHECKING:
    import numpy as np

    from .fwa import FwaScenario
    from .relay import RelayScenario

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
    d3: float = 1.0  # the d3 that planar_around boxed; sweeps use the scenario's d3, not this

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        for name in ("x_range", "y_range"):
            rng = getattr(self, name)
            try:
                lo, hi = rng
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a (low, high) pair, got {rng!r}") from None
            for end in (lo, hi):  # a bool is an int to Python, not a coordinate
                if isinstance(end, bool):
                    raise ValueError(f"{name} must be a number, got {end!r}")
            if not (in_range(name, lo, -FLOAT_MAX) and in_range(name, hi, lo, open_low=True)):
                raise ValueError(f"{name} must satisfy low < high, got {rng!r}")
            lo, hi = float(lo), float(hi)
            if hi - lo > FLOAT_MAX:  # np.linspace would space the points by inf
                raise ValueError(f"{name} must have a finite span high - low, got {rng!r}")
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
            if n > sys.maxsize:  # larger counts cannot size a list or an array
                raise ValueError(f"{name} must be at most sys.maxsize = {sys.maxsize}, got {n!r}")
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
        return _points(*self.x_range, self.nx)

    def y_points(self) -> np.ndarray:
        return _points(*self.y_range, self.ny)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi on Python floats: i*step + lo, the last one hi.

    These are ``np.linspace(lo, hi, n)``'s values, bit for bit; where the
    step underflows to 0, numpy divides i by n - 1 first, and so does this.
    """
    points = [hi] * n  # sized at once: a grid too large for memory fails here, not midway
    span = hi - lo
    step = span / (n - 1)
    if step:
        points[:-1] = [i * step + lo for i in range(n - 1)]
    else:
        points[:-1] = [i / (n - 1) * span + lo for i in range(n - 1)]
    return points


def _points(lo: float, hi: float, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)``; a count numpy cannot size is a MemoryError, as in ``_linspace``."""
    import numpy as np
    try:
        return np.linspace(lo, hi, n)
    except (ValueError, IndexError):  # finite bounds and n >= 2: only sizing the array fails
        raise MemoryError(f"{n} grid points do not fit in an array") from None


@dataclass(frozen=True, eq=False)
class FeasibilityRegion:
    """Advantageous set of a sweep: mask[i, j] is grid point (x_i, y_j).

    The region keeps only the mask's x-major run-length encoding ``rle``;
    the area fraction is summed from its runs and ``mask`` is decoded from
    them, each on first read, and the mask is read-only.
    """

    spec: GridSpec
    scenario: RelayScenario | FwaScenario
    rle: tuple[int, list[int]] = field(repr=False)  # (first, runs), as rle_decode takes them

    @classmethod
    def from_mask(cls, spec: GridSpec, mask, scenario) -> "FeasibilityRegion":
        """The region of a mask of the grid's shape, encoded once."""
        import numpy as np
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (spec.nx, spec.ny):
            raise ValueError(f"mask shape {mask.shape} does not match the {spec.nx}x{spec.ny} grid")
        return cls(spec, scenario, _rle_encode(mask.ravel()))

    @cached_property
    def area_fraction(self) -> float:
        first, runs = self.rle
        return sum(runs[1 - first :: 2]) / (self.spec.nx * self.spec.ny)

    @cached_property
    def mask(self) -> np.ndarray:
        """The (nx, ny) bool mask, decoded from the runs on first read."""
        mask = rle_decode(*self.rle, (self.spec.nx, self.spec.ny))
        mask.setflags(write=False)
        return mask


def _first_true(pred, nrows: int, start: int, stop: int) -> np.ndarray:
    """Per row, the first j in [start, stop) with pred true, else stop.

    ``pred(rows, js)`` evaluates the predicate at (rows[k], js[k]) and must
    be false-then-true along j in every row.
    """
    import numpy as np
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
    import numpy as np
    s = np.clip(seeds, start, stop)
    at, before = np.flatnonzero(s < stop), np.flatnonzero(s > start)
    t = pred(np.concatenate([at, before]), np.concatenate([s[at], s[before] - 1]))
    bad = np.concatenate([at[~t[: at.size]], before[t[at.size :]]])  # no row fails both; any order
    s[bad] = _first_true(lambda rows, js: pred(bad[rows], js), bad.size, start, stop)
    return s


def _boundary_y(rule, lhs: float, xs: np.ndarray, d3: float) -> np.ndarray:
    """Per row, an estimate of the |y| where the rule's two sides meet in the plane (0 if not finite).

    Newton on u = y**2 in a*(p+u)**h + b*(q+u)**h = lhs (p = x**2,
    q = (x-d3)**2, h = alpha/2), from the one-term bound above the root.
    """
    import numpy as np
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
    import numpy as np
    size = los.size * ny
    rows = np.flatnonzero(his > los)
    flips = (rows[:, None] * ny + np.stack([los[rows], his[rows]], axis=1)).ravel()
    joined = np.flatnonzero(flips[1:] == flips[:-1])
    flips = np.delete(flips, np.concatenate([joined, joined + 1]))
    first = int(flips.size > 0 and flips[0] == 0)
    inner = flips[(flips > 0) & (flips < size)]
    return first, np.diff(np.concatenate(([0], inner, [size]))).tolist()


def _planar_runs(spec: GridSpec, rule, lhs: float, d3: float) -> tuple[int, list[int]]:
    """Planar kernel, all rows at once, sink at (d3, 0): runs; row i is in on [los[i], his[i])."""
    import numpy as np
    xs, ys = spec.x_points(), spec.y_points()

    def holds(rows: np.ndarray, js: np.ndarray) -> np.ndarray:
        x, y = xs[rows], ys[js]
        return lhs > rule.rhs(np.hypot(x, y), np.hypot(x - d3, y))

    # members are a prefix of the y >= 0 half and a suffix of the y < 0 half;
    # a right-hand side that overflows to inf exceeds the finite lhs, the exact
    # answer, and 0 * inf (a coefficient that underflowed to 0) is nan, which
    # compares false alike, so numpy's overflow and invalid warnings are silenced;
    # the seeds' own 0/0 and x/0 only make a poor seed, so divide is silenced too
    j0 = int(np.searchsorted(ys, 0.0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y_star = _boundary_y(rule, lhs, xs, d3)
        his = _seeded_first_true(
            lambda rows, js: ~holds(rows, js), np.searchsorted(ys, y_star), j0, spec.ny
        )
        los = _seeded_first_true(holds, np.searchsorted(ys, -y_star, side="right"), 0, j0)
    return _intervals_rle(los, his, spec.ny)


def _normalized_runs(spec: GridSpec, rule, lhs: float) -> tuple[int, list[int]]:
    """Normalized kernel on Python floats: runs; row i is in on [0, his[i]).

    The axes start at 0, so a row's cells are a prefix: its end is the first
    column where the rule's own test lhs > a*x**alpha + b*y**alpha fails, as
    the test holds before the end and fails from it on. Each row walks from
    the previous row's end until the test holds at end - 1 and fails at end;
    the ends only fall as x grows, so a sweep takes about nx + ny tests. An
    overflow is inf, which fails the test, and 0 * inf (a coefficient that
    underflowed to 0) is nan, which fails it too.
    """
    ny = spec.ny
    by = [rule.b * rule.power(y) for y in _linspace(*spec.y_range, ny)]
    his, end = [], 0
    for ax in [rule.a * rule.power(x) for x in _linspace(*spec.x_range, spec.nx)]:
        while end and not lhs > ax + by[end - 1]:
            end -= 1
        while end < ny and lhs > ax + by[end]:
            end += 1
        his.append(end)
    return _prefix_rle(his, ny)


def _prefix_rle(his: list[int], ny: int) -> tuple[int, list[int]]:
    """x-major run-length encoding of the mask whose row i is in on [0, his[i])."""
    first = value = int(his[0] > 0)
    runs, n = [], 0  # n: length of the run of `value` being built
    for hi in his:
        if hi:
            if value:
                n += hi
            else:
                runs.append(n)
                n, value = hi, 1
        if hi < ny:
            if value:
                runs.append(n)
                n, value = ny - hi, 0
            else:
                n += ny - hi
    runs.append(n)
    return first, runs


def _sweep(spec: GridSpec, s: RelayScenario | FwaScenario) -> FeasibilityRegion:
    """The region of the scenario's rule on the grid; the grid's mode picks the kernel."""
    rule, planar = s._rule(), spec.mode == "planar"
    lhs = rule.lhs(s.d3, normalized=not planar)
    rle = _planar_runs(spec, rule, lhs, s.d3) if planar else _normalized_runs(spec, rule, lhs)
    return FeasibilityRegion(spec, s, rle)


def sweep_relay(s: RelayScenario, spec: GridSpec, workers: int = 1) -> FeasibilityRegion:
    """Sweep the relay distance rule, non-path power term included.

    The scenario's stored d1/d2 are not used: each grid point implies
    its own geometry (normalized ratios, or planar positions with the
    sink at the scenario's d3; the grid's d3 is not read). In normalized
    mode that d3 scales the non-path power term, so the scenario's own
    point lands on its own verdict.
    Each grid row's advantageous cells are one interval, whose ends are
    found with the rule's own test; normalized grids run on Python floats,
    planar grids on numpy. The region stores the runs of those intervals;
    its mask is decoded on demand. ``workers`` is accepted and ignored; it
    is kept only so that existing callers keep working.
    """
    return _sweep(spec, s)


def sweep_fwa(s: FwaScenario, spec: GridSpec, workers: int = 1) -> FeasibilityRegion:
    """Sweep the FWA distance rule; coefficients follow the traffic mix.

    Same rule and kernels as ``sweep_relay``; ``workers`` is ignored.
    """
    return _sweep(spec, s)


def region_subset(inner: FeasibilityRegion, outer: FeasibilityRegion) -> bool:
    """True iff every advantageous point of ``inner`` is advantageous in ``outer``."""
    if inner.spec != outer.spec:
        raise ValueError("region subset is only defined on identical grids")
    return not (inner.mask & ~outer.mask).any()


def write_region_csv(region: FeasibilityRegion, path) -> None:
    """Write the sweep as CSV rows x,y,advantageous (floats at full precision).

    Each ``,y,flag`` line tail is formatted once per sweep and each x once
    per row; a grid row joins the tails its runs pick, streamed to the file.
    A row may hold several runs, and a run may span several rows.
    """
    spec = region.spec
    ny = spec.ny
    ys = _linspace(*spec.y_range, ny)
    tails = tuple([f",{y:.17g},{m}\n" for y in ys] for m in (0, 1))
    first, runs = region.rle
    runs = iter(runs)
    value, left = 1 - first, 0  # the current run's value and its cells not yet written
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,advantageous\n")
        for x in _linspace(*spec.x_range, spec.nx):
            row, j = [], 0
            while j < ny:
                if not left:
                    value, left = 1 - value, next(runs)
                n = min(left, ny - j)
                row += tails[value][j : j + n]
                j, left = j + n, left - n
            prefix = f"{x:.17g}"
            fh.write(prefix + prefix.join(row))


def _rle_encode(flat: np.ndarray) -> tuple[int, list[int]]:
    import numpy as np
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    bounds = np.concatenate(([0], changes, [flat.size]))
    return int(flat[0]), np.diff(bounds).tolist()


def rle_decode(first: int, runs: list[int], shape: tuple[int, int]) -> np.ndarray:
    """Rebuild a mask from its run-length encoding (x-major order)."""
    import numpy as np
    values = (first + np.arange(len(runs))) % 2
    flat = np.repeat(values.astype(bool), runs)
    return flat.reshape(shape)


def region_json_doc(region: FeasibilityRegion) -> dict:
    """Sweep as a JSON-ready mapping: grid, scenario echo, RLE mask, area."""
    first, runs = region.rle
    return {
        "grid": {
            "mode": region.spec.mode,
            "x_range": list(region.spec.x_range),
            "y_range": list(region.spec.y_range),
            "nx": region.spec.nx,
            "ny": region.spec.ny,
            "d3": region.scenario.d3,
        },
        "scenario": region.scenario.to_config(),
        "area_fraction": region.area_fraction,
        "mask": {"order": "x-major", "first": first, "runs": list(runs)},
    }


def write_region_json(region: FeasibilityRegion, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(region_json_doc(region), fh, indent=2)
        fh.write("\n")
