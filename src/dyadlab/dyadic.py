"""Dyadic grids on the lattice domain: the canonical grid plus 3^d - 1
shifted companions.

Grid i carries a shift vector delta in {0, 1/3, 2/3}^d, in units of the
domain width.  Shifted cubes wrap modulo the domain (torus convention),
which keeps every generation a partition of the domain and every cube's
parent unique.  At each scale ell the three shifted boundary sets per
axis are offset by exactly ell/3 from one another, so any box with side
at most 2*ell/3 avoids the boundaries of at least one grid; that is what
makes a small enclosing cube from the family exist.

Generations run j = 0 (whole domain) through j = m (single cells).
Canonical-grid cubes are lattice-aligned boxes; shifted cubes generally
are not, and integrals over them are weighted sums over the cells and
overlap volumes that lattice.box_cells gives for each torus piece
(oscillation.region_cells).  Shifted grids serve enclosing_cube and
single-cube oscillation; every family report runs on the canonical grid.

A canonical cube family is held as its per-generation tables: entry
[index] of the generation-j table belongs to cube (j, index), and no
DyadicCube is built per cube.  Family reports and stopping-time families
(sparse.SparseFamily) name their cubes by key rows (grid_id, generation,
index...), one integer row per cube (canonical_keys gives them in
enumerate_cubes order); a DyadicCube is built from a single row
(key_cube) where one is needed, such as the argmax.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from dyadlab.lattice import Box, LatticeDomain, SampledFunction


class EnclosureError(ValueError):
    """No admissible enclosing cube exists for the requested box."""


@dataclass(frozen=True)
class DyadicGrid:
    """One dyadic system; grid_id 0 is the canonical (unshifted) grid."""

    domain: LatticeDomain
    grid_id: int
    shift: tuple[float, ...]  # in units of the domain width

    @property
    def is_canonical(self) -> bool:
        return all(s == 0.0 for s in self.shift)

    def sidelength(self, generation: int) -> float:
        return self.domain.width * 2.0 ** (-generation)

    def cube(self, generation: int, index: tuple[int, ...]) -> "DyadicCube":
        if not (0 <= generation <= self.domain.m):
            raise ValueError(f"generation must be in [0, {self.domain.m}]")
        if len(index) != self.domain.d:
            raise ValueError("index must have one entry per axis")
        per_axis = 2**generation
        if not all(0 <= k < per_axis for k in index):
            raise ValueError(f"index {index} out of range for generation {generation}")
        return DyadicCube(self, generation, tuple(int(k) for k in index))

    def cube_containing(self, point, generation: int) -> "DyadicCube":
        """The generation-j cube whose torus footprint contains the point."""
        dom = self.domain
        ell = self.sidelength(generation)
        index = []
        for ax in range(dom.d):
            y = (point[ax] + dom.L - self.shift[ax] * dom.width) % dom.width
            k = int(np.floor(y / ell))
            index.append(min(k, 2**generation - 1))
        return self.cube(generation, tuple(index))


@dataclass(frozen=True)
class DyadicCube:
    grid: DyadicGrid
    generation: int
    index: tuple[int, ...]

    @property
    def domain(self) -> LatticeDomain:
        return self.grid.domain

    @property
    def sidelength(self) -> float:
        return self.grid.sidelength(self.generation)

    @property
    def volume(self) -> float:
        return self.sidelength**self.domain.d

    def _axis_start(self, ax: int) -> float:
        # Unwrapped start in [0, width), torus coordinates from -L.
        dom = self.domain
        return (self.shifted_offset(ax) + self.index[ax] * self.sidelength) % dom.width

    def shifted_offset(self, ax: int) -> float:
        return self.grid.shift[ax] * self.domain.width

    def axis_pieces(self, ax: int) -> list[tuple[float, float]]:
        """Torus footprint on one axis as 1 or 2 half-open intervals."""
        dom = self.domain
        start = self._axis_start(ax)
        lo = -dom.L + start
        hi = lo + self.sidelength
        if hi <= dom.L + 1e-12 * dom.h:
            return [(lo, min(hi, dom.L))]
        return [(lo, dom.L), (-dom.L, hi - dom.width)]

    def pieces(self) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
        """Torus footprint as up to 2^d (lo, hi) boxes."""
        per_axis = [self.axis_pieces(ax) for ax in range(self.domain.d)]
        out = []
        for combo in itertools.product(*per_axis):
            lo = tuple(c[0] for c in combo)
            hi = tuple(c[1] for c in combo)
            out.append((lo, hi))
        return out

    @property
    def wraps(self) -> bool:
        return len(self.pieces()) > 1

    def box(self) -> Box:
        if self.wraps:
            raise ValueError("cube wraps around the domain boundary; no single box")
        (lo, hi), = self.pieces()
        return Box(lo, hi)

    def cell_span(self) -> tuple[tuple[int, int], ...]:
        """Cell ranges; only canonical cubes are lattice-aligned."""
        if not self.grid.is_canonical:
            raise ValueError("cell spans exist only on the canonical grid")
        cells = 2 ** (self.domain.m - self.generation)
        return tuple((k * cells, (k + 1) * cells) for k in self.index)

    def flat_cells(self) -> np.ndarray:
        """Flat cell indices (canonical grid only), sorted."""
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
        return self.grid.cube(self.generation - 1, tuple(k // 2 for k in self.index))

    def children(self) -> list["DyadicCube"]:
        if self.generation >= self.domain.m:
            return []
        out = []
        for offs in itertools.product((0, 1), repeat=self.domain.d):
            idx = tuple(2 * k + o for k, o in zip(self.index, offs))
            out.append(self.grid.cube(self.generation + 1, idx))
        return out

    def contains_cube(self, other: "DyadicCube") -> bool:
        if self.grid != other.grid or other.generation < self.generation:
            return False
        gap = other.generation - self.generation
        return all(ok // 2**gap == k for ok, k in zip(other.index, self.index))

    def contains_box(self, box: Box) -> bool:
        """Torus containment of an unwrapped box."""
        if box.d != self.domain.d:
            return False
        dom = self.domain
        for ax in range(dom.d):
            side = box.hi[ax] - box.lo[ax]
            y = (box.lo[ax] + dom.L - self.shifted_offset(ax)) % dom.width
            k_here = y / self.sidelength
            if not (self.index[ax] - 1e-12 <= k_here):
                return False
            if y + side > (self.index[ax] + 1) * self.sidelength + 1e-12 * dom.h:
                return False
            if int(np.floor(k_here + 1e-12)) != self.index[ax] and not np.isclose(
                y, self.index[ax] * self.sidelength, atol=1e-12 * dom.h
            ):
                return False
        return True

    def dist_to_origin(self) -> float:
        """Euclidean distance from the origin to the (closed) torus footprint."""
        best = np.inf
        for lo, hi in self.pieces():
            sq = 0.0
            for a, b in zip(lo, hi):
                if a > 0:
                    sq += a * a
                elif b < 0:
                    sq += b * b
            best = min(best, float(np.sqrt(sq)))
        return best


@lru_cache(maxsize=32)
def _grids_cached(domain: LatticeDomain) -> tuple[DyadicGrid, ...]:
    shifts = list(itertools.product((0.0, 1.0 / 3.0, 2.0 / 3.0), repeat=domain.d))
    return tuple(DyadicGrid(domain, i, s) for i, s in enumerate(shifts))


def grids(domain: LatticeDomain) -> tuple[DyadicGrid, ...]:
    """All 3^d adjacent dyadic grids; entry 0 is canonical."""
    return _grids_cached(domain)


def canonical_grid(domain: LatticeDomain) -> DyadicGrid:
    return grids(domain)[0]


def enumerate_cubes(grid: DyadicGrid) -> list[DyadicCube]:
    """All cubes of a grid as objects, ordered by (generation, index)."""
    return [
        grid.cube(j, idx)
        for j in range(grid.domain.m + 1)
        for idx in itertools.product(range(2**j), repeat=grid.domain.d)
    ]


def canonical_keys(domain: LatticeDomain) -> np.ndarray:
    """Key rows (0, generation, index...) of the canonical grid in
    enumerate_cubes order, so they line up with the raveled per-generation
    tables, coarse to fine."""
    rows = []
    for j in range(domain.m + 1):
        index = np.indices((2**j,) * domain.d).reshape(domain.d, -1).T
        head = np.broadcast_to(np.array([0, j]), (index.shape[0], 2))
        rows.append(np.hstack([head, index]))
    return np.concatenate(rows)


def _family_vector(tables) -> np.ndarray:
    """Per-generation tables, coarse to fine, as one vector whose entries
    line up with the canonical_keys rows."""
    return np.concatenate([table.ravel() for table in tables])


def key_cube(domain: LatticeDomain, key) -> DyadicCube:
    """The cube of one key row (grid_id, generation, index...)."""
    grid_id, generation, *index = (int(k) for k in key)
    return grids(domain)[grid_id].cube(generation, tuple(index))


def enclosing_cube(domain: LatticeDomain, box: Box) -> DyadicCube:
    """Smallest-id, then smallest-side cube of the 3^d family containing the
    box with sidelength at most 3x the box's longest side."""
    if box.d != domain.d:
        raise ValueError("box dimension does not match the domain")
    side = max(b - a for a, b in zip(box.lo, box.hi))
    if side > domain.width / 3.0 + 1e-12 * domain.h:
        raise EnclosureError(
            f"box side {side} exceeds a third of the domain width {domain.width}"
        )
    best = None
    for grid in grids(domain):
        # Finest admissible generation first; stop at the first hit per grid.
        for j in range(domain.m, -1, -1):
            ell = grid.sidelength(j)
            if ell < side:
                continue
            if ell > 3.0 * side * (1.0 + 1e-12):
                break
            cand = grid.cube_containing(box.lo, j)
            if cand.contains_box(box):
                key = (grid.grid_id, ell)
                if best is None or key < best[0]:
                    best = (key, cand)
                break
    if best is None:
        raise EnclosureError(f"no enclosing cube with side <= 3x{side} exists for {box}")
    return best[1]


def _generation_mean(arr: np.ndarray, generation: int) -> np.ndarray:
    """Table of the means of a square cell block over its generation-j
    subcubes: entry [index] is the mean over subcube (j, index), counted
    from the block's own corner.  The whole domain is one such block."""
    g = 2**generation
    cells = arr.shape[0] // g
    if arr.ndim == 1:
        return arr.reshape(g, cells).mean(axis=1)
    return arr.reshape(g, cells, g, cells).mean(axis=(1, 3))


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


def dyadic_maximal(f: SampledFunction, grid: DyadicGrid | None = None) -> SampledFunction:
    """Mf(x) = max over canonical dyadic cubes containing x of the average of |f|."""
    dom = f.domain
    if grid is not None and not grid.is_canonical:
        raise ValueError("the maximal function is only defined on the canonical grid")
    out = None
    for j in range(dom.m + 1):
        level = _broadcast_generation(dom, generation_averages(f, j, absolute=True), j)
        out = level if out is None else np.maximum(out, level)
    return SampledFunction(dom, out)
