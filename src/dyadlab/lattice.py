"""Midpoint-sampled functions on a uniform lattice over [-L, L)^d.

Conventions shared by every module in the package:

* The domain is the half-open box [-L, L)^d, 1 <= d <= 3 (bounded here
  only), split into n = 2**m equal cells per axis, h = 2*L/n.  Cell k
  (per axis) is [-L + k*h, -L + (k+1)*h) and carries its midpoint
  -L + (k + 1/2)*h as sample point.  n is even, so no midpoint ever hits
  the origin and symbols singular at 0 (log|x|, negative powers of |x|)
  stay finite on the lattice.
* A sampled function is identified with the piecewise-constant function
  equal to the cell value on each cell.  Integrals, averages and norms
  are integrals of that piecewise-constant function, so quadrature
  identities (additivity, exactness on indicators) hold exactly rather
  than approximately.
* A region is a set of whole cells, named by flat indices in row-major
  order over `shape`; dyadic.DyadicCube.flat_cells gives a cube's.
* A catalog spec (a symbol term here, a weight in weights) is a mapping
  with a "kind", read through one table of kinds, keys and defaults: an
  unknown kind, or a key its kind does not take, is a ValueError.
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
        if not 1 <= self.d <= 3:
            raise ValueError(f"d must be in [1, 3], got {self.d}")
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


# -- catalogs ------------------------------------------------------------------

# Symbol terms: kind -> {key: default}.  A symbol is a finite sum of terms.
_TERM_KEYS = {
    "constant": {"coefficient": 1.0},
    "coordinate": {"coefficient": 1.0, "axis": 0},
    "abs_power": {"coefficient": 1.0, "exponent": 1.0},
    "log_abs": {"coefficient": 1.0},
    "bump": {"coefficient": 1.0, "center": None, "radius": 1.0},  # center None: the origin
}


def _catalog_spec(catalog: dict, spec, what: str) -> tuple[str, dict]:
    """(kind, every key of that kind) of a mapping `spec` read through
    `catalog` (kind -> {key: default}); an absent key reads its default."""
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in catalog:
        raise ValueError(f"unknown {what} kind {kind!r}")
    keys = catalog[kind]
    for key in spec:
        if key != "kind" and key not in keys:
            raise ValueError(f"{what} kind {kind!r} takes no key {key!r}; it takes {sorted(keys)}")
    return kind, {key: spec.get(key, default) for key, default in keys.items()}


def _eval_term(domain: LatticeDomain, kind: str, **values) -> np.ndarray:
    axes = domain.axis_grids()
    if kind == "constant":
        return np.ones(domain.shape)
    if kind == "coordinate":
        if not (0 <= values["axis"] < domain.d):
            raise ValueError(f"axis {values['axis']} out of range for d={domain.d}")
        return np.broadcast_to(axes[values["axis"]], domain.shape).copy()
    r = np.sqrt(sum(x**2 for x in axes))
    if kind == "abs_power":
        if values["exponent"] <= -domain.d / 2.0:
            raise ValueError(f"abs_power exponent must exceed -d/2, got {values['exponent']}")
        return r ** values["exponent"]
    if kind == "log_abs":
        return np.log(r)
    # bump: C-infinity, == 1 at the center, supported on |x - c| < radius
    center, radius = values["center"], values["radius"]
    if radius <= 0:
        raise ValueError("bump radius must be positive")
    center = (0.0,) * domain.d if center is None else center
    if len(center) != domain.d:
        raise ValueError(f"bump center needs d = {domain.d} entries, got {len(center)}")
    s2 = sum((x - c) ** 2 for x, c in zip(axes, center)) / radius**2
    out = np.zeros(domain.shape)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def sample_symbol(domain: LatticeDomain, spec) -> SampledFunction:
    """Sample a catalog symbol: one term, or a list of terms summed, each
    read through _TERM_KEYS.  Values are taken as typed, not cast: a real or
    complex coefficient, a float exponent and radius, an int axis, a
    sequence of d numbers as center."""
    terms = [_catalog_spec(_TERM_KEYS, term, "symbol")
             for term in ([spec] if isinstance(spec, dict) else spec)]
    if not terms:
        raise ValueError("empty symbol spec")
    real = all(v["coefficient"].imag == 0.0 for _, v in terms)  # then no complex temporaries
    total = sum((values["coefficient"].real if real else values["coefficient"])
                * _eval_term(domain, kind, **values) for kind, values in terms)
    if not np.all(np.isfinite(total)):
        raise ValueError("symbol evaluates to a non-finite value at a midpoint")
    if not real and np.all(total.imag == 0.0):
        return SampledFunction(domain, total.real)
    return SampledFunction(domain, total)
