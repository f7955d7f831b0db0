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
* A region is a set of whole cells, named by flat indices in row-major
  order over `shape`; dyadic.DyadicCube.flat_cells gives a cube's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Total cell count guard.  Dense per-cell state beyond this is unusable.
MAX_CELLS = 2**28


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
        return np.ix_(*(self.axis_midpoints(),) * self.d)

    def midpoints(self) -> tuple[np.ndarray, ...]:
        """Midpoint coordinate arrays, one per axis, each of shape `shape`."""
        return tuple(x * np.ones(self.shape) for x in self.axis_grids())

    def coarsen(self) -> "LatticeDomain":
        if self.m <= 2:
            raise ValueError("cannot coarsen below m = 2")
        return LatticeDomain(self.d, self.m - 1, self.L)


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


# -- symbol catalog ---------------------------------------------------------

_SYMBOL_KINDS = ("constant", "coordinate", "abs_power", "log_abs", "bump")


@dataclass(frozen=True)
class SymbolTerm:
    """One catalog term; a symbol is a finite sum of terms."""

    kind: str
    coefficient: complex = 1.0 + 0.0j
    exponent: float = 1.0
    axis: int = 0
    center: tuple[float, ...] | None = None  # None: the origin
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
    center = (0.0,) * domain.d if term.center is None else term.center
    if len(center) != domain.d:
        raise ValueError(f"bump center needs d = {domain.d} entries, got {len(center)}")
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
