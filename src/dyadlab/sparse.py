"""Sparse cube families and sparse model operators.

A family is a list of (Q, E) entries where Q is a canonical dyadic cube
and E is an exact cell subset of Q (its "major" part).  Gamma-sparsity
means the E's are pairwise disjoint and each keeps strictly more than a
gamma fraction of its cube, checked in integer cell counts.

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

import numpy as np

from dyadlab import dyadic
from dyadlab.dyadic import _generation_mean
from dyadlab.lattice import SampledFunction
from dyadlab.weights import Weight

LAMBDA = 2.0


def cz_constant(d: int) -> float:
    """Pointwise domination constant of cz_augment (derivation above)."""
    return LAMBDA * 2**d


@dataclass(frozen=True)
class SparseEntry:
    cube: dyadic.DyadicCube
    core: np.ndarray  # sorted flat cell indices of E


@dataclass
class SparseFamily:
    entries: list
    gamma: float
    grid_id: tuple

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass
class SparseVerdict:
    ok: bool
    reason: str = ""
    worst_entry: SparseEntry | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_sparse(family: SparseFamily, gamma: float | None = None) -> SparseVerdict:
    """Exact check: cores pairwise disjoint, each |E| > gamma |Q|."""
    gamma = family.gamma if gamma is None else gamma
    for e in family.entries:
        cells = e.cube.flat_cells()
        if np.setdiff1d(e.core, cells).size:
            return SparseVerdict(False, "core leaves its cube", e)
        # strict integer inequality; exact for dyadic gamma
        if e.core.size <= gamma * cells.size:
            return SparseVerdict(False, "core fraction at or below gamma", e)
    if family.entries:
        allc = np.concatenate([e.core for e in family.entries])
        if np.unique(allc).size != allc.size:
            seen = set()
            for e in family.entries:
                s = set(e.core.tolist())
                if seen & s:
                    return SparseVerdict(False, "cores intersect", e)
                seen |= s
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
    entries = []
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
        entries.append(SparseEntry(cube, core))
    return SparseFamily(entries, gamma=0.5, grid_id=root.grid.grid_id)


def augmentation_ratio(
    b: SampledFunction, root: dyadic.DyadicCube, family: SparseFamily
) -> float:
    """Worst cell ratio |b - <b>_root| / sum_Q <|b - <b>_Q|>_Q 1_Q.

    cz_augment guarantees this stays below cz_constant(d).  Cells where
    both sides vanish contribute 0; a nonzero numerator over an empty
    denominator yields inf, which is a genuine domination failure.
    """
    b_flat = b.values.reshape(-1)
    root_cells = root.flat_cells()
    numer = np.zeros(b_flat.size)
    numer[root_cells] = np.abs(b_flat[root_cells] - b_flat[root_cells].mean())
    denom = np.zeros(b_flat.size)
    for entry in family.entries:
        cells = entry.cube.flat_cells()
        denom[cells] += _dev_on(b_flat, cells).mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer[root_cells] / denom[root_cells]
    ratio[numer[root_cells] == 0.0] = 0.0
    return float(ratio.max()) if ratio.size else 0.0


# -- sparse model operators --------------------------------------------------


def _dev_on(b_flat: np.ndarray, cells: np.ndarray) -> np.ndarray:
    return np.abs(b_flat[cells] - b_flat[cells].mean())


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
    """Cube-loop accumulation of the sparse model operators.

    plain:      sum <f>_Q 1_Q
    star:       sum <|b - <b>_Q| f>_Q 1_Q
    adjoint:    sum |b - <b>_Q| <f>_Q 1_Q   (adjoint of star under the
                real pairing)
    fractional: sum mu^p(P)^{1/p} lam^{-q'}(P)^{1/q'} / |P| * <f>_P 1_P
    """
    dom = f.domain
    f_flat = f.values.reshape(-1)
    out = np.zeros(f_flat.size, dtype=complex)
    if kind in ("star", "adjoint"):
        if b is None:
            raise ValueError(f"kind {kind!r} needs the symbol b")
        b_flat = b.values.reshape(-1)
    elif kind == "fractional":
        if mu is None or lam is None or p is None or q is None:
            raise ValueError("fractional kind needs mu, lam, p, q")
        if not 1.0 < p <= q:
            raise ValueError("need 1 < p <= q")
        q_prime = q / (q - 1.0)
        mu_p = mu.power(p).values.reshape(-1)
        lam_qp = lam.power(-q_prime).values.reshape(-1)
    elif kind != "plain":
        raise ValueError(f"unknown sparse operator kind {kind!r}")
    for entry in family.entries:
        cells = entry.cube.flat_cells()
        if kind == "plain":
            out[cells] += f_flat[cells].mean()
        elif kind == "star":
            out[cells] += (_dev_on(b_flat, cells) * f_flat[cells]).mean()
        elif kind == "adjoint":
            out[cells] += _dev_on(b_flat, cells) * f_flat[cells].mean()
        else:
            vol = cells.size * dom.cell_volume
            coef = (
                (mu_p[cells].sum() * dom.cell_volume) ** (1.0 / p)
                * (lam_qp[cells].sum() * dom.cell_volume) ** (1.0 / q_prime)
                / vol
            )
            out[cells] += coef * f_flat[cells].mean()
    if np.all(out.imag == 0.0):
        out = out.real
    return SampledFunction(dom, out.reshape(dom.shape))


def split_family(family: SparseFamily, k: float) -> SparseFamily:
    """Drop entries with sidelength in [1/k, k] AND dist(Q, 0) <= k."""
    if k <= 0:
        raise ValueError("k must be positive")
    kept = [
        e
        for e in family.entries
        if not (1.0 / k <= e.cube.sidelength <= k and e.cube.dist_to_origin() <= k)
    ]
    return SparseFamily(kept, gamma=family.gamma, grid_id=family.grid_id)


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
    for entry in family.entries:
        cells = entry.cube.flat_cells()
        avg = np.abs(f_flat[cells].mean())
        total += avg**p * float(w_flat[cells].sum()) * dom.cell_volume
    return total ** (1.0 / p) / rhs


def almost_orthogonality_check(
    family: SparseFamily, pieces: list, w: Weight, p: float
) -> float:
    """Ratio ||sum f_Q||_{L^p(w dx)} / (sum ||f_Q||^p)^{1/p} for pieces
    supported on their cubes and constant on in-family subcubes."""
    if len(pieces) != len(family.entries):
        raise ValueError("one piece per family entry")
    dom = w.domain
    w_flat = w.values.reshape(-1)
    cube_cells = [e.cube.flat_cells() for e in family.entries]
    flats = []
    for piece, cells, entry in zip(pieces, cube_cells, family.entries):
        vals = piece.values if isinstance(piece, SampledFunction) else np.asarray(piece)
        vals = vals.reshape(-1)
        outside = np.setdiff1d(np.arange(vals.size), cells)
        if outside.size and np.any(vals[outside] != 0.0):
            raise ValueError("piece supported outside its cube")
        flats.append(vals)
    for i, entry in enumerate(family.entries):
        for j, other in enumerate(family.entries):
            if i == j or not entry.cube.contains_cube(other.cube):
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
