"""Sparse cube families and sparse model operators.

A family holds `entries`, key rows (generation, index...) of cubes Q_i
in key order ((generation, index) order, as in dyadic.canonical_keys),
and its cores in compressed sparse row form: E_i, a subset of Q_i, is
the sorted flat cells cells[offsets[i]:offsets[i + 1]].  Gamma-sparsity
means the E's are pairwise disjoint and each keeps strictly more than a
gamma fraction of its cube, in integer cell counts.

The sparse star operator of a symbol b over a family is one Operator,
SparseStar, an apply/adjoint pair like the kernel operators, so the
norm solvers take it as they take a commutator.  It adds, coarse to
fine, a count table of the family's generation-j cubes times cube means
off dyadic._generation_blocks.  The stopping cubes over a cell are
nested, and key order lists them coarse to fine, so each cell sums its
entries in key order, as an entry loop does.  The checks
(augmentation_ratio, oscillation.jn_verify) read the family's own cubes
only (dyadic._generation_blocks given their key rows), times the same
count tables.

cz_augment runs the stopping-time recursion for a symbol b: from an
active cube Q with base = <|b - <b>_Q|>_Q, the children-maximal subcubes
P with <|b - <b>_Q|>_P > LAMBDA * base are selected and recursed, and
E_Q keeps the rest of Q.  Chebyshev gives sum |P| <= |Q| / LAMBDA, so
LAMBDA = 2 makes the output 1/2-sparse (strictly: selection uses a
strict threshold, and constant-on-Q symbols select nothing at all).

The recursion runs as one pass over the generations, coarse to fine.
Only a coarser stopping cube selects a cube, so when the pass reaches
generation j all of that generation's stopping cubes are known.  Each
is selected once, by its nearest coarser stopping cube, so they are
distinct cubes of one generation, hence pairwise disjoint, and one
lexsort puts them in key order.  They form one batch, as int key rows,
with no DyadicCube built: the batch gathers only its own cubes' rows,
of b and of the flat cell ids, through dyadic._generation_blocks, and
reads every subcube sum of |b - <b>_Q| off one dyadic._pyramid.  Its
hits join the stopping cubes of their own (finer) generations, and its
cores come out in entry order.  Each per-cell temporary of a batch
(gathered values, |b - <b>_Q|, its pyramid, cell ids) spans at most
twice the domain, and a batch's work is proportional to its cubes'
cells.

The pointwise domination constant.  For a cell x in Q0 let
Q0 = Q^0 ) Q^1 ) ... ) Q^K be the stopping cubes containing x.  Any
dyadic R with x in R, R inside Q^k but in no selected subcube of Q^k has
<|b - <b>_{Q^k}|>_R <= LAMBDA * base_k (else a selected maximal cube
would cover R, hence x).  Applying this to x's own cell bounds the last
jump by LAMBDA * base_K; for the chain jumps, the parent of Q^{k+1} was
not selected, so

    |<b>_{Q^{k+1}} - <b>_{Q^k}| <= <|b - <b>_{Q^k}|>_{Q^{k+1}}
                                <= 2^d * LAMBDA * base_k

(one averaging layer costs 2^d).  Telescoping,

    |b(x) - <b>_{Q0}| <= 2^d * LAMBDA * sum_{Q in S, Q owns x} base_Q,

so C_IMPL = 2^d * LAMBDA, asserted cell-by-cell in tests.  The 2^d is
genuinely paid at each selected-child hop; no grouping of the telescope
avoids it, so C_IMPL exceeds 2^d + LAMBDA + 1 at d = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dyadlab import dyadic
from dyadlab.dyadic import _generation_blocks, _levels, _pyramid, _split
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.operators import Operator
from dyadlab.weights import Weight

LAMBDA = 2.0


def cz_constant(d: int) -> float:
    """Pointwise domination constant of cz_augment (derivation above)."""
    return LAMBDA * 2**d


@dataclass(frozen=True, eq=False)
class SparseFamily:
    domain: LatticeDomain
    entries: np.ndarray  # int64 key rows (generation, index...)
    cells: np.ndarray    # int64 flat cells of the cores, E_i sorted at offsets[i]:offsets[i + 1]
    offsets: np.ndarray  # int64, len(entries) + 1 of them, from 0 to cells.size

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _counts(self) -> list:
        """(j, copies of each generation-j cube in the family), coarse to fine."""
        gens, tables = self.entries[:, 0], []
        for j in np.flatnonzero(np.bincount(gens)):
            count = np.zeros((2**j,) * self.domain.d, dtype=np.int64)
            np.add.at(count, tuple(self.entries[gens == j, 1:].T), 1)
            tables.append((int(j), count))
        return tables

    def cubes(self) -> list:
        """The entries' cubes as DyadicCube objects, in key order."""
        return [dyadic.key_cube(self.domain, key) for key in self.entries]


@dataclass
class SparseVerdict:
    ok: bool
    reason: str = ""
    worst_entry: int | None = None  # index of the first failing entry


def is_sparse(family: SparseFamily, gamma: float = 0.5) -> SparseVerdict:
    """Exact check: cores pairwise disjoint, each |E| > gamma |Q|.

    The verdict names the first entry whose core leaves its cube or is too
    thin; failing those, the first whose core meets an earlier one."""
    dom, size = family.domain, len(family)
    if not size:
        return SparseVerdict(True)
    sizes = np.diff(family.offsets)
    owner = np.repeat(np.arange(size), sizes)
    cells = family.cells
    shift = dom.m - family.entries[:, 0]
    cell_shift = shift[owner]
    escapes = np.zeros(cells.size, dtype=bool)
    for axis, coord in enumerate(np.unravel_index(cells, dom.shape)):
        escapes |= coord >> cell_shift != family.entries[owner, 1 + axis]
    leaves = np.bincount(owner[escapes], minlength=size) > 0
    thin = sizes <= gamma * 2 ** (dom.d * shift)  # strict, in integer cell counts
    bad = np.flatnonzero(leaves | thin)
    if bad.size:
        reason = "core leaves its cube" if leaves[bad[0]] else "core fraction at or below gamma"
        return SparseVerdict(False, reason, int(bad[0]))
    order = np.lexsort((owner, cells))
    cells, owner = cells[order], owner[order]
    shared = (cells[1:] == cells[:-1]) & (owner[1:] != owner[:-1])
    if shared.any():
        return SparseVerdict(False, "cores intersect", int(owner[1:][shared].min()))
    return SparseVerdict(True)


def cz_augment(b: SampledFunction, root: dyadic.DyadicCube) -> SparseFamily:
    """Stopping-time family for b below root; 1/2-sparse by construction.

    Runs one generation at a time, coarse to fine (module docstring): the
    generation's stopping cubes, in key order, gather their cell blocks
    into one batch, take each row's mean, |b - <b>_Q| and base, and read
    every subcube sum of |b - <b>_Q| off one pyramid.  A subcube P is
    selected when its mean, the sum times 2^-d(m - gen(P)), exceeds
    LAMBDA * base, its cube is active and no selected cube lies above
    it; E_Q keeps the cells under no selected cube.  The scale is a power
    of two, so the mean rounds as a division by the cell count does, even
    for subnormal sums.  The entries come out in key order."""
    if root.domain != b.domain:
        raise ValueError("domain mismatch")
    dom = b.domain
    m, d = dom.m, dom.d
    cell_ids = np.arange(b.values.size).reshape(dom.shape)
    stops = [[np.empty((0, d), dtype=np.int64)] for _ in range(m + 1)]  # index rows by generation
    stops[root.generation].append(np.array([root.index], dtype=np.int64))
    keys, kept, sizes = [], [], []
    for j in range(root.generation, m + 1):
        index = np.concatenate(stops[j])
        if not index.size:
            continue
        index = index[np.lexsort(index.T[::-1])]  # key order; all known, pairwise disjoint
        count, side = len(index), 2 ** (m - j)  # cubes, cells per axis of each
        flat = _generation_blocks(b.values, j, d, index)
        dev = np.abs(flat - flat.mean(axis=1, keepdims=True))
        base = dev.mean(axis=1)
        sums = _levels(_pyramid(dev.reshape((count,) + (side,) * d), d), d)
        row_shape = (count,) + (1,) * d
        active = (base > 0.0).reshape(row_shape)
        bound = (LAMBDA * base).reshape(row_shape)
        covered = np.zeros(row_shape, dtype=bool)  # subcubes under a selected cube
        for k in range(1, m - j + 1):
            for ax in range(1, d + 1):
                covered = covered.repeat(2, axis=ax)
            hit = (sums[k] * 2.0 ** (d * (j + k - m)) > bound) & active & ~covered
            row, *offset = np.nonzero(hit)
            stops[j + k].append(index[row] * 2**k + np.stack(offset, axis=1))
            covered |= hit
        row, cell = np.nonzero(~covered.reshape(count, -1))
        kept.append(_generation_blocks(cell_ids, j, d, index)[row, cell])
        sizes.append(np.bincount(row, minlength=count))
        keys.append(np.column_stack([np.full(count, j, dtype=np.int64), index]))
    offsets = np.concatenate(([0], np.cumsum(np.concatenate(sizes))))
    return SparseFamily(dom, np.concatenate(keys), np.concatenate(kept), offsets)


def augmentation_ratio(
    b: SampledFunction, root: dyadic.DyadicCube, family: SparseFamily
) -> float:
    """Worst cell ratio |b - <b>_root| / sum_Q <|b - <b>_Q|>_Q 1_Q.

    The denominator is SparseStar applied to the constant 1, count times
    base on the family's own cubes only; cz_augment keeps the
    ratio below cz_constant(d).  Cells where both sides vanish
    contribute 0; a nonzero numerator over an empty denominator yields
    inf, which is a genuine domination failure.
    """
    if root.domain != b.domain or family.domain != b.domain:
        raise ValueError("domain mismatch")
    dom = b.domain
    denom = np.zeros(dom.shape)
    for j, count in family._counts:
        index = np.argwhere(count)
        flat = _generation_blocks(b.values, j, dom.d, index)
        table = count.astype(float)  # 0.0 off the family: adding it is exact
        table[tuple(index.T)] *= np.abs(flat - flat.mean(axis=1, keepdims=True)).mean(axis=1)
        cells = _split(denom, j, dom.d)
        cells += _split(table, j, dom.d)
    b_flat = b.values.reshape(-1)
    root_cells = root.flat_cells()
    numer = np.abs(b_flat[root_cells] - b_flat[root_cells].mean())
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer / denom.reshape(-1)[root_cells]
    ratio[numer == 0.0] = 0.0
    return float(ratio.max()) if ratio.size else 0.0


# -- sparse model operators --------------------------------------------------


class SparseStar(Operator):
    """The sparse star operator of b over a family, as an Operator:

    apply:   f -> sum_Q <|b - <b>_Q| f>_Q 1_Q
    adjoint: f -> sum_Q |b - <b>_Q| <f>_Q 1_Q   (under the real pairing)

    The |b - <b>_Q| tables, one per generation j < m of the family, are
    built once, at construction; a one-cell cube (j = m) has
    |b - <b>_Q| = 0, so its terms would add zero.  Each call adds the
    generation tables coarse to fine, a whole batch at once, each row
    bitwise as it would alone; the result is complex unless every row is
    real."""

    def __init__(self, b: SampledFunction, family: SparseFamily):
        if b.domain != family.domain:
            raise ValueError("domain mismatch")
        dom = self.domain = b.domain
        self._tables = []  # (j, count, |b - <b>_Q| on the cells of each generation-j Q)
        for j, count in family._counts:
            if j == dom.m:
                continue
            b_mean = _generation_blocks(b.values, j, dom.d).mean(axis=-1)
            dev = np.abs(_split(b.values, j, dom.d) - _split(b_mean, j, dom.d))
            self._tables.append((j, count, dev.reshape(dom.shape)))

    def _apply(self, x):
        return self._run(x, adjoint=False)

    def _adjoint(self, x):
        return self._run(x, adjoint=True)

    def _run(self, x, adjoint):
        dom = self.domain
        values = x.reshape(x.shape[:-1] + dom.shape)
        is_complex = np.iscomplexobj(values)
        out = np.zeros(values.shape, dtype=complex if is_complex else float)
        for j, count, dev in self._tables if values.size else ():  # an empty batch has no blocks
            g = values if adjoint else dev * values
            mean = _generation_blocks(g, j, dom.d).mean(axis=-1)  # <g>_Q per generation-j cube
            cells, term = _split(out, j, dom.d), _split(count * mean, j, dom.d)
            cells += _split(dev, j, dom.d) * term if adjoint else term
        if is_complex and np.all(out.imag == 0.0):
            out = out.real
        return out.reshape(x.shape)


def split_family(family: SparseFamily, k: float) -> SparseFamily:
    """Drop entries with sidelength in [1/k, k] AND dist(Q, 0) <= k."""
    if k <= 0:
        raise ValueError("k must be positive")
    dom, gens = family.domain, family.entries[:, 0]
    keep = np.ones(len(family), dtype=bool)
    for j in np.flatnonzero(np.bincount(gens)).tolist():  # as sidelength and _cube_distance_table
        rows = np.flatnonzero(gens == j)
        dist = dyadic._cube_distance_table(dom, j)[tuple(family.entries[rows, 1:].T)]
        keep[rows] = ~((1.0 / k <= dom.width * 2.0 ** (-j) <= k) & (dist <= k))
    sizes = np.diff(family.offsets)
    offsets = np.concatenate(([0], np.cumsum(sizes[keep])))
    return SparseFamily(dom, family.entries[keep], family.cells[np.repeat(keep, sizes)], offsets)


# -- embedding checks ---------------------------------------------------------


def carleson_constant(
    f: SampledFunction, w: Weight, p: float, family: SparseFamily
) -> float:
    """Ratio (sum_Q <f>_Q^p w(Q))^{1/p} / ||f||_{L^p(w dx)}.

    Measure convention on both sides: w(Q) = int_Q w and the norm
    integrates |f|^p w dx."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    if w.domain != f.domain or family.domain != f.domain:
        raise ValueError("domain mismatch")
    dom = f.domain
    f_flat = f.values.reshape(-1)
    w_flat = w.values.reshape(-1)
    rhs = float(np.sum(np.abs(f_flat) ** p * w_flat) * dom.cell_volume) ** (1.0 / p)
    if rhs == 0.0:
        raise ValueError("f vanishes in L^p(w)")
    total = 0.0
    for j, count in family._counts:
        avg = np.abs(_generation_blocks(f.values, j, dom.d).mean(axis=-1))
        w_mass = _generation_blocks(w.values, j, dom.d).sum(axis=-1) * dom.cell_volume
        total += float(np.sum(count * avg**p * w_mass))
    return total ** (1.0 / p) / rhs


def almost_orthogonality_check(
    family: SparseFamily, pieces: list, w: Weight, p: float
) -> float:
    """Ratio ||sum f_Q||_{L^p(w dx)} / (sum ||f_Q||^p)^{1/p} for pieces
    supported on their cubes and constant on in-family subcubes."""
    if len(pieces) != len(family):
        raise ValueError("one piece per family entry")
    dom = w.domain
    w_flat = w.values.reshape(-1)
    cubes = family.cubes()
    cube_cells = [cube.flat_cells() for cube in cubes]
    flats = []
    for piece, cells in zip(pieces, cube_cells):
        vals = piece.values if isinstance(piece, SampledFunction) else np.asarray(piece)
        vals = vals.reshape(-1)
        outside = np.setdiff1d(np.arange(vals.size), cells)
        if outside.size and np.any(vals[outside] != 0.0):
            raise ValueError("piece supported outside its cube")
        flats.append(vals)
    for i, cube in enumerate(cubes):
        for j, other in enumerate(cubes):
            if i == j or not cube.contains_cube(other):
                continue
            sub = flats[i][cube_cells[j]]
            if np.ptp(sub.real) != 0.0 or np.ptp(sub.imag) != 0.0:
                raise ValueError("piece not constant on an in-family subcube")
    total = np.sum(flats, axis=0)
    lhs = float(np.sum(np.abs(total) ** p * w_flat) * dom.cell_volume) ** (1.0 / p)
    rhs_p = sum(
        float(np.sum(np.abs(v) ** p * w_flat) * dom.cell_volume) for v in flats
    )
    if rhs_p == 0.0:
        raise ValueError("all pieces vanish")
    return lhs / rhs_p ** (1.0 / p)
