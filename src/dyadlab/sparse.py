"""Sparse cube families and sparse model operators.

A family holds `entries`, key rows (grid_id, generation, index...) of
canonical cubes Q_i in selection order (as in dyadic.canonical_keys), and
`cores`, where cores[i] lists the sorted flat cells of E_i, a subset of
Q_i.  Gamma-sparsity means the E's are pairwise disjoint and each keeps
strictly more than a gamma fraction of its cube, in integer cell counts.

The model operators add, coarse to fine, a count table of the family's
generation-j cubes times cube means off dyadic._generation_blocks.  The
stopping cubes over a cell are nested and were selected coarse to fine,
so each cell sums its entries in selection order, as an entry loop does.

cz_augment runs the stopping-time recursion for a symbol b: from an
active cube Q with base = <|b - <b>_Q|>_Q, the children-maximal subcubes
P with <|b - <b>_Q|>_P > LAMBDA * base are selected and recursed, and
E_Q keeps the rest of Q.  Chebyshev gives sum |P| <= |Q| / LAMBDA, so
LAMBDA = 2 makes the output 1/2-sparse (strictly: selection uses a
strict threshold, and constant-on-Q symbols select nothing at all).

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

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from dyadlab import dyadic
from dyadlab.dyadic import _broadcast_generation, _generation_blocks, _generation_mean
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.weights import Weight

LAMBDA = 2.0


def cz_constant(d: int) -> float:
    """Pointwise domination constant of cz_augment (derivation above)."""
    return LAMBDA * 2**d


@dataclass(frozen=True, eq=False)
class SparseFamily:
    domain: LatticeDomain
    entries: np.ndarray  # int64 key rows (grid_id, generation, index...)
    cores: list          # cores[i]: sorted flat cell indices of E_i

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def _counts(self) -> list:
        """(j, copies of each generation-j cube in the family), coarse to fine."""
        gens, tables = self.entries[:, 1], []
        for j in np.flatnonzero(np.bincount(gens)):
            count = np.zeros((2**j,) * self.domain.d, dtype=np.int64)
            np.add.at(count, tuple(self.entries[gens == j, 2:].T), 1)
            tables.append((int(j), count))
        return tables

    def cubes(self) -> list:
        """The entries' cubes as DyadicCube objects, in selection order."""
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
    sizes = np.array([core.size for core in family.cores])
    owner = np.repeat(np.arange(size), sizes)
    cells = np.concatenate(family.cores).astype(np.int64)
    coords = np.stack([cells // dom.n, cells % dom.n], axis=1) if dom.d == 2 else cells[:, None]
    shift = dom.m - family.entries[:, 1]
    escapes = np.any(coords >> shift[owner, None] != family.entries[owner, 2:], axis=1)
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

    For each stopping cube Q the subcube means of |b - <b>_Q| are read off
    generation tables of Q's cell block, coarse to fine; a subcube is
    selected when its mean exceeds LAMBDA * base and no selected cube lies
    above it.  Selected cubes are queued in (generation, index) order."""
    if not root.grid.is_canonical:
        raise ValueError("cz_augment needs a canonical root cube")
    m, d = b.domain.m, b.domain.d
    keys, cores = [], []
    queue = deque([root])
    while queue:
        cube = queue.popleft()
        cells = cube.flat_cells()
        block = b.values[tuple(slice(lo, hi) for lo, hi in cube.cell_span())]
        flat = block.reshape(-1)
        dev = np.abs(flat - flat.mean())
        base = dev.mean()
        dev = dev.reshape(block.shape)
        core = cells
        if base > 0.0:
            covered = np.zeros((1,) * d, dtype=bool)  # subcubes under a selected cube
            for k in range(1, m - cube.generation + 1):
                for ax in range(d):
                    covered = covered.repeat(2, axis=ax)
                hit = (_generation_mean(dev, k) > LAMBDA * base) & ~covered
                corner = np.array(cube.index) * 2**k
                queue.extend(
                    cube.grid.cube(cube.generation + k, tuple(corner + offset))
                    for offset in np.argwhere(hit)
                )
                covered |= hit
            core = cells[~covered.reshape(-1)]
        keys.append((0, cube.generation, *cube.index))
        cores.append(core)
    return SparseFamily(b.domain, np.array(keys, dtype=np.int64), cores)


def augmentation_ratio(
    b: SampledFunction, root: dyadic.DyadicCube, family: SparseFamily
) -> float:
    """Worst cell ratio |b - <b>_root| / sum_Q <|b - <b>_Q|>_Q 1_Q.

    The denominator is sparse_apply("star") of the constant 1.  cz_augment
    guarantees this stays below cz_constant(d).  Cells where both sides
    vanish contribute 0; a nonzero numerator over an empty denominator
    yields inf, which is a genuine domination failure.
    """
    b_flat = b.values.reshape(-1)
    root_cells = root.flat_cells()
    numer = np.abs(b_flat[root_cells] - b_flat[root_cells].mean())
    ones = SampledFunction(b.domain, np.ones(b.domain.shape))
    denom = sparse_apply("star", ones, family, b=b).values.reshape(-1)[root_cells]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer / denom
    ratio[numer == 0.0] = 0.0
    return float(ratio.max()) if ratio.size else 0.0


# -- sparse model operators --------------------------------------------------


def sparse_apply(
    kind: str,
    f: SampledFunction,
    family: SparseFamily,
    b: SampledFunction | None = None,
    mu: Weight | None = None,
    lam: Weight | None = None,
    p: float | None = None,
    q: float | None = None,
) -> SampledFunction:
    """The sparse model operators, one generation table at a time.

    plain:      sum <f>_Q 1_Q
    star:       sum <|b - <b>_Q| f>_Q 1_Q
    adjoint:    sum |b - <b>_Q| <f>_Q 1_Q   (adjoint of star under the
                real pairing)
    fractional: sum mu^p(P)^{1/p} lam^{-q'}(P)^{1/q'} / |P| * <f>_P 1_P
    """
    return SampledFunction(f.domain, _table_apply(kind, f.values, family, b, mu, lam, p, q))


def _table_apply(kind, values, family, b=None, mu=None, lam=None, p=None, q=None) -> np.ndarray:
    """sparse_apply on cell values whose leading axes are a batch; each row
    is bitwise the single-row result.  Complex unless every row is real."""
    dom = family.domain
    out = np.zeros(values.shape, dtype=complex)
    if kind in ("star", "adjoint"):
        if b is None:
            raise ValueError(f"kind {kind!r} needs the symbol b")
    elif kind == "fractional":
        if mu is None or lam is None or p is None or q is None:
            raise ValueError("fractional kind needs mu, lam, p, q")
        if not 1.0 < p <= q:
            raise ValueError("need 1 < p <= q")
        q_prime = q / (q - 1.0)
        mu_p = mu.power(p).values
        lam_qp = lam.power(-q_prime).values
    elif kind != "plain":
        raise ValueError(f"unknown sparse operator kind {kind!r}")
    for j, count in family._counts:
        if kind in ("star", "adjoint"):
            b_mean = _generation_blocks(b.values, j, dom.d).mean(axis=-1)
            dev = np.abs(b.values - _broadcast_generation(dom, b_mean, j))
        g = dev * values if kind == "star" else values
        mean = _generation_blocks(g, j, dom.d).mean(axis=-1)  # <g>_Q per generation-j cube
        if kind == "fractional":  # scalar pow per cube: numpy's vector pow can round differently
            hit = count > 0
            mu_mass, lam_mass = (
                (_generation_blocks(w, j, dom.d).sum(axis=-1)[hit] * dom.cell_volume).tolist()
                for w in (mu_p, lam_qp)
            )
            vol = 2 ** (dom.d * (dom.m - j)) * dom.cell_volume
            coef = np.zeros(count.shape)
            coef[hit] = [a ** (1 / p) * c ** (1 / q_prime) / vol for a, c in zip(mu_mass, lam_mass)]
            mean = coef * mean
        term = _broadcast_generation(dom, count * mean, j)
        out += dev * term if kind == "adjoint" else term
    if np.all(out.imag == 0.0):
        out = out.real
    return out


def split_family(family: SparseFamily, k: float) -> SparseFamily:
    """Drop entries with sidelength in [1/k, k] AND dist(Q, 0) <= k."""
    if k <= 0:
        raise ValueError("k must be positive")
    keep = [not (1.0 / k <= c.sidelength <= k and c.dist_to_origin() <= k) for c in family.cubes()]
    cores = [core for core, kept in zip(family.cores, keep) if kept]
    return SparseFamily(family.domain, family.entries[np.array(keep, dtype=bool)], cores)


# -- embedding checks ---------------------------------------------------------


def carleson_constant(
    f: SampledFunction, w: Weight, p: float, family: SparseFamily
) -> float:
    """Ratio (sum_Q <f>_Q^p w(Q))^{1/p} / ||f||_{L^p(w dx)}.

    Measure convention on both sides: w(Q) = int_Q w and the norm
    integrates |f|^p w dx."""
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
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


# -- commutator domination search ---------------------------------------------


@dataclass
class DominationReport:
    constant: float          # max ratio |comm| / (star + adjoint form)
    uncovered_cells: int     # cells where comm lives but the forms vanish
    covered: bool
    argmax_cell: int = -1
    flags: set = field(default_factory=set)


def commutator_domination(
    comm: SampledFunction,
    b: SampledFunction,
    f: SampledFunction,
    families: list,
) -> DominationReport:
    """Falsifiable pointwise check |comm| <= C (A*_{b}|f| + A_{b}|f|)
    over the given families; reports the certified C or failure."""
    dom = comm.domain
    absf = SampledFunction(dom, np.abs(f.values))
    den = np.zeros(absf.values.size)
    for fam in families:
        den += np.abs(sparse_apply("star", absf, fam, b=b).values.reshape(-1))
        den += np.abs(sparse_apply("adjoint", absf, fam, b=b).values.reshape(-1))
    num = np.abs(comm.values.reshape(-1))
    tiny = 1e-14 * max(float(num.max()), 1e-300)
    live = den > 0.0
    uncovered = int(np.sum(~live & (num > tiny)))
    if np.any(live):
        ratios = num[live] / den[live]
        k = int(np.argmax(ratios))
        constant = float(ratios[k])
        argmax_cell = int(np.flatnonzero(live)[k])
    else:
        constant = np.inf if uncovered else 0.0
        argmax_cell = -1
    report = DominationReport(
        constant=constant,
        uncovered_cells=uncovered,
        covered=uncovered == 0,
        argmax_cell=argmax_cell,
    )
    if uncovered:
        report.flags.add("mass-outside-family-support")
    return report
