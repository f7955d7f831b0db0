"""The dyadic grid of the lattice domain and its cubes.

Generations run j = 0 (whole domain) through j = m (single cells); the
generation-j cube (j, index) is the lattice-aligned box whose axis-k
side starts at -L + index[k] * ell, ell = width / 2^j.  Every
experiment runs on this one grid.

A cube family is held as its per-generation tables: entry [index] of
the generation-j table belongs to cube (j, index), and no DyadicCube is
built per cube.  A whole-family functional returns a FamilyReport: one
value per canonical cube, position i belonging to row i of
canonical_keys (enumerate_cubes order).  family_cube maps a position to
its cube by arithmetic, so a report builds no key rows unless its
`cubes` are read.  Stopping-time families (sparse.SparseFamily) name
their cubes by key rows (generation, index...); a DyadicCube is built
from a single row (key_cube) where one is needed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from dyadlab.lattice import Box, LatticeDomain, SampledFunction


@dataclass(frozen=True)
class DyadicCube:
    domain: LatticeDomain
    generation: int
    index: tuple[int, ...]

    @property
    def sidelength(self) -> float:
        return self.domain.width * 2.0 ** (-self.generation)

    @property
    def volume(self) -> float:
        return self.sidelength**self.domain.d

    def box(self) -> Box:
        dom, ell = self.domain, self.sidelength
        lo = tuple(-dom.L + k * ell for k in self.index)
        return Box(lo, tuple(min(a + ell, dom.L) for a in lo))

    def cell_span(self) -> tuple[tuple[int, int], ...]:
        """Per-axis half-open cell ranges."""
        cells = 2 ** (self.domain.m - self.generation)
        return tuple((k * cells, (k + 1) * cells) for k in self.index)

    def flat_cells(self) -> np.ndarray:
        """Flat cell indices, sorted."""
        span = self.cell_span()
        n = self.domain.n
        if self.domain.d == 1:
            return np.arange(span[0][0], span[0][1], dtype=np.int64)
        rows = np.arange(span[0][0], span[0][1], dtype=np.int64)
        cols = np.arange(span[1][0], span[1][1], dtype=np.int64)
        return (rows[:, None] * n + cols[None, :]).reshape(-1)

    def parent(self) -> "DyadicCube":
        if self.generation == 0:
            raise ValueError("generation-0 cube has no parent")
        return DyadicCube(self.domain, self.generation - 1, tuple(k // 2 for k in self.index))

    def children(self) -> list["DyadicCube"]:
        if self.generation >= self.domain.m:
            return []
        return [
            DyadicCube(self.domain, self.generation + 1,
                       tuple(2 * k + o for k, o in zip(self.index, offs)))
            for offs in itertools.product((0, 1), repeat=self.domain.d)
        ]

    def contains_cube(self, other: "DyadicCube") -> bool:
        if self.domain != other.domain or other.generation < self.generation:
            return False
        gap = other.generation - self.generation
        return all(ok // 2**gap == k for ok, k in zip(other.index, self.index))

    def dist_to_origin(self) -> float:
        """Euclidean distance from the origin to the closed cube."""
        box, sq = self.box(), 0.0
        for a, b in zip(box.lo, box.hi):
            if a > 0:
                sq += a * a
            elif b < 0:
                sq += b * b
        return float(np.sqrt(sq))


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


def enumerate_cubes(domain: LatticeDomain) -> list[DyadicCube]:
    """All cubes as objects, ordered by (generation, index)."""
    return [
        cube(domain, j, idx)
        for j in range(domain.m + 1)
        for idx in itertools.product(range(2**j), repeat=domain.d)
    ]


def canonical_keys(domain: LatticeDomain) -> np.ndarray:
    """Key rows (generation, index...) in enumerate_cubes order, so they
    line up with the raveled per-generation tables, coarse to fine."""
    rows = []
    for j in range(domain.m + 1):
        index = np.indices((2**j,) * domain.d).reshape(domain.d, -1).T
        rows.append(np.hstack([np.full((index.shape[0], 1), j), index]))
    return np.concatenate(rows)


def _family_vector(tables) -> np.ndarray:
    """Per-generation tables, coarse to fine, as one vector whose entries
    line up with the canonical_keys rows."""
    return np.concatenate([table.ravel() for table in tables])


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


def _generation_mean(arr: np.ndarray, generation: int, d: int | None = None) -> np.ndarray:
    """Table of the means of a square cell block over its generation-j
    subcubes: entry [index] is the mean over subcube (j, index), counted
    from the block's own corner.  The whole domain is one such block.
    The block is the trailing d axes of arr (all of them by default);
    leading axes are a batch, and each row is bitwise its own call."""
    d = arr.ndim if d is None else d
    g = 2**generation
    lead = arr.shape[: arr.ndim - d]
    cells = arr.shape[-1] // g
    if d == 1:
        return arr.reshape(lead + (g, cells)).mean(axis=-1)
    return arr.reshape(lead + (g, cells, g, cells)).mean(axis=(-3, -1))


def _generation_blocks(arr: np.ndarray, generation: int, d: int) -> np.ndarray:
    """Row [index] lists the cells of subcube (j, index) of a square cell
    block in flat_cells order: a last-axis sum is bitwise a per-cube sum
    over flat_cells (unlike _generation_mean, whose order is canonical).
    The block is the trailing d axes of arr; leading axes are a batch."""
    g = 2**generation
    lead = arr.shape[: arr.ndim - d]
    cells = arr.shape[-1] // g
    if d == 1:
        return arr.reshape(lead + (g, cells))
    grid = arr.reshape(lead + (g, cells, g, cells)).swapaxes(-3, -2)
    return grid.reshape(lead + (g, g, cells * cells))


def generation_averages(f: SampledFunction, generation: int, absolute: bool = False) -> np.ndarray:
    """Per-cube plain averages over canonical generation-j cubes (vectorized)."""
    dom = f.domain
    if not (0 <= generation <= dom.m):
        raise ValueError(f"generation must be in [0, {dom.m}]")
    return _generation_mean(np.abs(f.values) if absolute else f.values, generation)


def _broadcast_generation(dom: LatticeDomain, table: np.ndarray, generation: int) -> np.ndarray:
    """Spread a generation-j table (trailing d axes; leading axes a batch)
    over the cells of each cube."""
    cells = 2 ** (dom.m - generation)
    for axis in range(-dom.d, 0):
        table = np.repeat(table, cells, axis=axis)
    return table


def dyadic_maximal(f: SampledFunction) -> SampledFunction:
    """Mf(x) = max over canonical dyadic cubes containing x of the average of |f|."""
    dom = f.domain
    out = None
    for j in range(dom.m + 1):
        level = _broadcast_generation(dom, generation_averages(f, j, absolute=True), j)
        out = level if out is None else np.maximum(out, level)
    return SampledFunction(dom, out)
