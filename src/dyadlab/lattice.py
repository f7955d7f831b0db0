"""Midpoint-sampled functions on a uniform lattice over [-L, L)^d.

Conventions shared by every module in the package:

* The domain is the half-open box [-L, L)^d split into n = 2**m equal
  cells per axis, h = 2*L/n.  Cell k (per axis) is [-L + k*h, -L + (k+1)*h)
  and carries its midpoint -L + (k + 1/2)*h as sample point.  n is even,
  so no midpoint ever hits the origin and symbols singular at 0 (log|x|,
  negative powers of |x|) stay finite on the lattice.
* A sampled function is identified with the piecewise-constant function
  equal to the cell value on each cell.  Integrals, averages and norms
  are integrals of that piecewise-constant function, so quadrature
  identities (additivity, exactness on indicators) hold exactly rather
  than approximately.
* The integral over a box is a weighted sum of cell values: box_cells
  resolves the box to the cells it meets and their overlap volumes, so
  endpoint cells of a misaligned box contribute fractionally and the
  integral of the piecewise-constant function stays exact.  Boxes are
  half-open.  A box split into aligned halves recombines to the unsplit
  value at the 1e-12 relative level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Total cell count guard.  Dense per-cell state beyond this is unusable.
MAX_CELLS = 2**28
# Snap tolerance for box endpoints, in units of h.
_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class LatticeDomain:
    """Uniform lattice on [-L, L)^d with 2**m cells per axis."""

    d: int
    m: int
    L: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if not (2 <= self.m <= 14):
            raise ValueError(f"m must be in [2, 14], got {self.m}")
        if not (np.isfinite(self.L) and self.L > 0):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.n**self.d > MAX_CELLS:
            raise ValueError(f"cell count {self.n**self.d} exceeds {MAX_CELLS}")

    @property
    def n(self) -> int:
        return 2**self.m

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def width(self) -> float:
        return 2.0 * self.L

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def cell_volume(self) -> float:
        return self.h**self.d

    def axis_midpoints(self) -> np.ndarray:
        k = np.arange(self.n)
        return -self.L + (k + 0.5) * self.h

    def axis_grids(self) -> tuple[np.ndarray, ...]:
        """Midpoint coordinates, one array per axis, that broadcast to `shape`."""
        mids = self.axis_midpoints()
        return (mids,) if self.d == 1 else (mids[:, None], mids[None, :])

    def midpoints(self) -> tuple[np.ndarray, ...]:
        """Midpoint coordinate arrays, one per axis, each of shape `shape`."""
        return tuple(x * np.ones(self.shape) for x in self.axis_grids())

    def coarsen(self) -> "LatticeDomain":
        if self.m <= 2:
            raise ValueError("cannot coarsen below m = 2")
        return LatticeDomain(self.d, self.m - 1, self.L)

    def grid_coord(self, x: float, axis_tol: float = _ALIGN_TOL) -> float:
        """Map a coordinate to cell units in [0, n], snapping near-integers."""
        g = (x + self.L) / self.h
        r = round(g)
        if abs(g - r) <= axis_tol:
            g = float(r)
        if g < 0.0 or g > self.n:
            raise ValueError(f"coordinate {x} outside [-L, L]")
        return g

    def cell_span(self, box: "Box") -> tuple[tuple[int, int], ...]:
        """Integer cell ranges of a lattice-aligned box; rejects misaligned ones."""
        spans = []
        for ax in range(self.d):
            g0 = self.grid_coord(box.lo[ax])
            g1 = self.grid_coord(box.hi[ax])
            if g0 != int(g0) or g1 != int(g1):
                raise ValueError(f"box {box} is not lattice-aligned on axis {ax}")
            spans.append((int(g0), int(g1)))
        return tuple(spans)


@dataclass(frozen=True)
class Box:
    """Half-open axis-aligned box, one (lo, hi) pair per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo and hi must be non-empty and of equal length")
        for a, b in zip(self.lo, self.hi):
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError(f"need finite lo < hi per axis, got {self.lo}, {self.hi}")

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        out = 1.0
        for a, b in zip(self.lo, self.hi):
            out *= b - a
        return out

    @staticmethod
    def interval(lo: float, hi: float) -> "Box":
        return Box((lo,), (hi,))

    @staticmethod
    def from_cells(domain: LatticeDomain, spans: Sequence[tuple[int, int]]) -> "Box":
        lo = tuple(-domain.L + s[0] * domain.h for s in spans)
        hi = tuple(-domain.L + s[1] * domain.h for s in spans)
        return Box(lo, hi)


def box_cells(domain: LatticeDomain, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the cells the box [lo, hi) meets, with the volume of
    each cell's overlap with the box."""
    idx = np.zeros(1, dtype=np.int64)
    vol = np.ones(1)
    for ax in range(domain.d):
        g0 = domain.grid_coord(lo[ax])
        g1 = domain.grid_coord(hi[ax])
        k = np.arange(int(np.floor(g0)), min(int(np.ceil(g1)), domain.n))
        w = np.minimum(k + 1.0, g1) - np.maximum(k, g0)
        keep = w > 0.0
        idx = (idx[:, None] * domain.n + k[keep][None, :]).reshape(-1)
        vol = (vol[:, None] * (w[keep] * domain.h)[None, :]).reshape(-1)
    return idx, vol


class SampledFunction:
    """Cell values on a LatticeDomain."""

    def __init__(self, domain: LatticeDomain, values: np.ndarray):
        values = np.asarray(values)
        if values.shape != domain.shape:
            raise ValueError(f"values shape {values.shape} != domain shape {domain.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        dtype = np.complex128 if np.iscomplexobj(values) else np.float64
        self.domain = domain
        self.values = values.astype(dtype)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.values)

    def abs(self) -> "SampledFunction":
        return SampledFunction(self.domain, np.abs(self.values))


def indicator(domain: LatticeDomain, box: Box) -> SampledFunction:
    """Indicator of a lattice-aligned box as a sampled function."""
    spans = domain.cell_span(box)
    values = np.zeros(domain.shape)
    if domain.d == 1:
        values[spans[0][0] : spans[0][1]] = 1.0
    else:
        values[spans[0][0] : spans[0][1], spans[1][0] : spans[1][1]] = 1.0
    return SampledFunction(domain, values)


# -- symbol catalog ---------------------------------------------------------

_SYMBOL_KINDS = ("constant", "coordinate", "abs_power", "log_abs", "bump")


@dataclass(frozen=True)
class SymbolTerm:
    """One catalog term; a symbol is a finite sum of terms."""

    kind: str
    coefficient: complex = 1.0 + 0.0j
    exponent: float = 1.0
    axis: int = 0
    center: tuple[float, ...] = (0.0,)
    radius: float = 1.0

    def __post_init__(self):
        if self.kind not in _SYMBOL_KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")
        if self.kind == "bump" and self.radius <= 0:
            raise ValueError("bump radius must be positive")


def parse_symbol(spec) -> tuple[SymbolTerm, ...]:
    """Normalize a symbol spec (term, mapping of SymbolTerm fields, or a
    sequence of either) to terms.  Values are taken as typed, not cast: a
    complex coefficient, a float exponent and radius, an int axis, a tuple
    center."""
    if isinstance(spec, (SymbolTerm, dict)):
        spec = [spec]
    terms = []
    for item in spec:
        if not isinstance(item, SymbolTerm):
            unknown = set(item) - set(SymbolTerm.__dataclass_fields__)
            if unknown:
                raise ValueError(f"unknown symbol keys {sorted(unknown)}")
            item = SymbolTerm(**item)
        terms.append(item)
    if not terms:
        raise ValueError("empty symbol spec")
    return tuple(terms)


def _eval_term(domain: LatticeDomain, term: SymbolTerm) -> np.ndarray:
    axes = domain.axis_grids()
    if term.kind == "constant":
        return np.ones(domain.shape)
    if term.kind == "coordinate":
        if not (0 <= term.axis < domain.d):
            raise ValueError(f"axis {term.axis} out of range for d={domain.d}")
        return np.broadcast_to(axes[term.axis], domain.shape).copy()
    r = np.sqrt(sum(x**2 for x in axes))
    if term.kind == "abs_power":
        if term.exponent <= -domain.d / 2.0:
            raise ValueError(f"abs_power exponent must exceed -d/2, got {term.exponent}")
        return r**term.exponent
    if term.kind == "log_abs":
        return np.log(r)
    # bump: C-infinity, == 1 at the center, supported on |x - c| < radius
    center = term.center if len(term.center) == domain.d else term.center + (0.0,) * (domain.d - len(term.center))
    s2 = sum((x - c) ** 2 for x, c in zip(axes, center)) / term.radius**2
    out = np.zeros(domain.shape)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def sample_symbol(domain: LatticeDomain, spec) -> SampledFunction:
    """Sample a catalog symbol (finite complex combination of terms)."""
    terms = parse_symbol(spec)
    real = all(term.coefficient.imag == 0.0 for term in terms)  # then no complex temporaries
    total = sum((t.coefficient.real if real else t.coefficient) * _eval_term(domain, t)
                for t in terms)
    if not np.all(np.isfinite(total)):
        raise ValueError("symbol evaluates to a non-finite value at a midpoint")
    if not real and np.all(total.imag == 0.0):
        return SampledFunction(domain, total.real)
    return SampledFunction(domain, total)
