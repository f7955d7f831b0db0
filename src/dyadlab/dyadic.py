"""The dyadic grid of the lattice domain and its cubes.

Generations run j = 0 (whole domain) through j = m (single cells); the
generation-j cube (j, index) is the block of 2^(m-j) cells per axis
whose axis-k side starts at -L + index[k] * ell, ell = width / 2^j.
Every experiment runs on this one grid.

A cube family is held as its per-generation tables: entry [index] of
the generation-j table belongs to cube (j, index), and no DyadicCube is
built per cube.  A whole-family functional returns a FamilyReport: one
value per canonical cube, position i belonging to row i of
canonical_keys ((generation, index) order).  family_cube maps a position to
its cube by arithmetic, so a report builds no key rows unless its
`cubes` are read.  Stopping-time families (sparse.SparseFamily) name
their cubes by key rows (generation, index...), in key order too; a
DyadicCube is built from a single row (key_cube) where one is needed.

Table helpers act on a square cell block, the trailing d axes of an
array (the domain, or one cube's cells); leading axes are a batch, each
row bitwise its own call.  Every whole-family table, and every subcube
table of a batch of stopping cubes, comes from one pyramid: each
generation's sums, built up from the cells (a cube adds its 2^d
children), coarse to fine in one family vector (canonical_keys order).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from dyadlab.lattice import LatticeDomain, SampledFunction


@dataclass(frozen=True)
class DyadicCube:
    """One named cube of the grid; it resolves to cells by cell_span or
    flat_cells, and a region handed to oscillation is its flat cells."""

    domain: LatticeDomain
    generation: int
    index: tuple[int, ...]

    @property
    def sidelength(self) -> float:
        return self.domain.width * 2.0 ** (-self.generation)

    def cell_span(self) -> tuple[tuple[int, int], ...]:
        """Per-axis half-open cell ranges."""
        cells = 2 ** (self.domain.m - self.generation)
        return tuple((k * cells, (k + 1) * cells) for k in self.index)

    def flat_cells(self) -> np.ndarray:
        """Flat cell indices, sorted."""
        ranges = np.ix_(*(np.arange(lo, hi, dtype=np.int64) for lo, hi in self.cell_span()))
        return np.ravel_multi_index(ranges, self.domain.shape).reshape(-1)

    def contains_cube(self, other: "DyadicCube") -> bool:
        if self.domain != other.domain or other.generation < self.generation:
            return False
        gap = other.generation - self.generation
        return all(ok // 2**gap == k for ok, k in zip(other.index, self.index))


def cube(domain: LatticeDomain, generation: int, index) -> DyadicCube:
    """The generation-j cube with the given per-axis index, validated."""
    if not (0 <= generation <= domain.m):
        raise ValueError(f"generation must be in [0, {domain.m}]")
    if len(index) != domain.d:
        raise ValueError("index must have one entry per axis")
    per_axis = 2**generation
    if not all(0 <= k < per_axis for k in index):
        raise ValueError(f"index {index} out of range for generation {generation}")
    return DyadicCube(domain, generation, tuple(int(k) for k in index))


def canonical_keys(domain: LatticeDomain) -> np.ndarray:
    """Key rows (generation, index...) in (generation, index) order: they
    line up with the raveled per-generation tables, coarse to fine."""
    rows = []
    for j in range(domain.m + 1):
        index = np.indices((2**j,) * domain.d).reshape(domain.d, -1).T
        rows.append(np.hstack([np.full((index.shape[0], 1), j), index]))
    return np.concatenate(rows)


def family_cube(domain: LatticeDomain, position: int) -> DyadicCube:
    """The cube of row `position` of canonical_keys(domain)."""
    per_cube = 2**domain.d
    for j in range(domain.m + 1):
        count = per_cube**j
        if position < count:
            return cube(domain, j, np.unravel_index(position, (2**j,) * domain.d))
        position -= count
    raise ValueError("position past the end of the canonical family")


@dataclass
class FamilyReport:
    """One value per canonical cube: values[i] belongs to row i of
    canonical_keys(domain)."""

    domain: LatticeDomain
    values: np.ndarray
    flags: set = field(default_factory=set)

    @property
    def supremum(self) -> float:
        return float(np.max(self.values))

    @property
    def argmax_cube(self) -> DyadicCube:
        return family_cube(self.domain, int(np.argmax(self.values)))

    @functools.cached_property
    def cubes(self) -> np.ndarray:
        """Key rows of the family, built on first read."""
        return canonical_keys(self.domain)


def key_cube(domain: LatticeDomain, key) -> DyadicCube:
    """The cube of one key row (generation, index...)."""
    generation, *index = (int(k) for k in key)
    return cube(domain, generation, index)


def _cube_distance_table(dom: LatticeDomain, generation: int) -> np.ndarray:
    """Euclidean distance from the origin to each closed generation-j cube:
    entry [index] belongs to cube (j, index)."""
    ell = dom.width * 2.0**-generation
    lo = -dom.L + np.arange(2**generation) * ell
    # A power of two near 1 / ell (capped for a subnormal ell): scaling by
    # it is exact, and the squares stay in range.
    scale = math.ldexp(1.0, min(-math.frexp(ell)[1], 1023))
    dist = np.maximum(np.maximum(lo, -(lo + ell)), 0.0) * scale
    return np.sqrt(sum(x**2 for x in np.ix_(*(dist,) * dom.d))) / scale


def _split(arr: np.ndarray, generation: int, d: int) -> np.ndarray:
    """View of a block with each axis split into (cube, cell) axes at
    generation j; a generation-j table gets c = 1 and broadcasts."""
    g = 2**generation
    return arr.reshape(arr.shape[: arr.ndim - d] + (g, arr.shape[-1] // g) * d)


def _generation_blocks(arr: np.ndarray, generation: int, d: int,
                       index: np.ndarray | None = None) -> np.ndarray:
    """Row [index] lists the cells of a block's subcube (j, index) in
    flat_cells order: a last-axis sum is bitwise a per-cube sum over
    flat_cells.
    Given `index` (the index columns of key rows), it returns only those
    cubes' rows, in that order, gathered before the reshape (which copies
    the whole block at d > 1)."""
    lead = arr.ndim - d  # batch axes, then the split view's cube axes, then its cell axes
    axes = (*range(lead), *range(lead, lead + 2 * d, 2), *range(lead + 1, lead + 2 * d, 2))
    grid = _split(arr, generation, d).transpose(axes)
    if index is not None:
        grid = grid[(..., *index.T) + (slice(None),) * d]
    return grid.reshape(grid.shape[: grid.ndim - d] + (-1,))


def _block_sums(arr: np.ndarray, generation: int, d: int) -> np.ndarray:
    """Table of a block's sums over its generation-j subcubes: large cubes
    reshape-sum their contiguous cell axes, small ones halve (each cube the
    strided sum of its 2^d children); at the cells, the block itself."""
    cells = arr.shape[-1] >> generation
    if cells >= 32:  # the faster of the two from here up (measured at d = 2, m = 9)
        sums = _split(arr, generation, d)
        for axis in range(-1, -d - 1, -1):
            sums = sums.sum(axis=axis)
        return sums
    for _ in range(cells.bit_length() - 1):
        for tail in range(d):
            rest = (slice(None),) * tail
            arr = arr[(..., slice(0, None, 2), *rest)] + arr[(..., slice(1, None, 2), *rest)]
    return arr


def _levels(vec: np.ndarray, d: int) -> list[np.ndarray]:
    """Views of a family vector's generation tables, coarse to fine."""
    levels, start = [], 0
    while start < vec.shape[-1]:
        g = 2 ** len(levels)
        levels.append(vec[..., start : start + g**d].reshape(vec.shape[:-1] + (g,) * d))
        start += g**d
    return levels


def _pyramid(arr: np.ndarray, d: int | None = None, means: bool = False) -> np.ndarray:
    """Family vector of a block's sums (or means) over all its dyadic
    subcubes (d: all axes by default).  A cube's sum does not depend on
    the block that holds it; a mean is the sum times 2^-d(m-j), exactly."""
    d = arr.ndim if d is None else d
    m = arr.shape[-1].bit_length() - 1
    vec = np.empty(arr.shape[: arr.ndim - d] + ((2 ** (d * m + d) - 1) // (2**d - 1),), arr.dtype)
    levels = _levels(vec, d)
    levels[m][...] = arr
    for j in range(m, 0, -1):
        levels[j - 1][...] = _block_sums(levels[j], j - 1, d)
        if means:  # the mean of 2^d child means, exactly
            levels[j - 1] *= 2.0**-d
    return vec


def dyadic_maximal(f: SampledFunction) -> SampledFunction:
    """Mf(x) = max over canonical dyadic cubes containing x of the average of |f|."""
    dom = f.domain
    means = _levels(_pyramid(np.abs(f.values), means=True), dom.d)
    out = means[dom.m].copy()
    for j in range(dom.m):
        cells = _split(out, j, dom.d)
        np.maximum(cells, _split(means[j], j, dom.d), out=cells)
    return SampledFunction(dom, out)
