"""Weighted mean-oscillation functionals over cell sets and cube families.

For a weight nu, an exponent alpha >= 0 and a region E, given as its
flat cell indices (a cube's are DyadicCube.flat_cells), the basic
functional is

    osc(b; E) = nu(E)^{-alpha/d} * (1/nu(E)) * integral_E |b - <b>_E|,

with <b>_E the plain (unweighted) average of b over E.  The r-th power
variant replaces the inner integral by an L^r mean against the measure
nu dx:

    osc_r(b; E) = nu(E)^{-alpha/d}
                  * ( (1/nu(E)) int_E (|b - <b>_E| / nu)^r dnu )^{1/r},

which reduces to osc at r = 1 and is nondecreasing in r by Jensen's
inequality, cube by cube.

Two norms over the canonical cube family, each a dyadic.FamilyReport
of per-cube values off the cube pyramid and one |b - <b>_Q| pass:

* bmo_norm, fractional: sup_Q osc_r(b; Q) with the nu-normalization above;
* two_weight_norm: sup_Q int_Q |b - <b>_Q| / (mu^p(Q)^{1/p} lam^{-q'}(Q)^{1/q'}).

When nu is the intermediate weight of (mu, lam) at exponents (p, q),
every cube's fractional value equals its two-weight value times the mass
ratio checked by weights.bloom_sandwich_report, so the two norms agree
up to [mu][lam] cube by cube; tests assert this both ways.

Vanishing-oscillation diagnostics discretize three failure modes:
small scales, large scales, and regions escaping to infinity, off one
bmo_norm report per symbol.  Profile curves are cumulative suprema over
shrinking cube families, so they are monotone in their parameter by
construction.  Witness searches take the report's cubes with osc >= c0
as key rows (generation, index...), each searcher in its own order, and
mark cells in one label array over the domain; a DyadicCube is built
only per accepted pair.  Witness extraction keeps a removal budget
theta = 1/8 per selected cube: later selections may eat at most theta
of an earlier cube's volume, which keeps |E| >= (1-theta)|Q| and,
verified numerically per pair, osc(b; E) >= c0/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dyadlab import dyadic, sparse
from dyadlab.dyadic import _cube_distance_table, _split
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.operators import NumericalError
from dyadlab.weights import ExponentSetup, Weight

_GEN_FLOOR_CELLS = 4  # profile curves stop at cubes of side 4h
PROFILE_RADII = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75)  # distance curve, in units of L
ESCAPE_RADIUS = 0.75  # far-away witnesses must reach this distance, in units of L


def _check_exponents(alpha: float, r: float) -> None:
    """ValueError unless alpha >= 0 and r >= 1, where osc_r is defined."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if r < 1.0:
        raise ValueError(f"r must be >= 1, got {r}")


def oscillation(
    b: SampledFunction,
    cells,
    nu: Weight | None = None,
    alpha: float = 0.0,
    r: float = 1.0,
) -> float:
    """osc_r(b; E) for the cell set E with the given flat indices; exact
    on the lattice.  The indices must be a nonempty, strictly increasing
    integer array inside [0, N)."""
    _check_exponents(alpha, r)
    dom = b.domain
    if nu is not None and nu.domain != dom:
        raise ValueError("nu must live on the domain of b")
    idx = np.asarray(cells)
    if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
        raise ValueError(f"cells must be a flat integer array, got {idx.dtype} "
                         f"of shape {idx.shape}")
    if idx.size == 0:
        raise ValueError("empty region")
    if np.any(idx[1:] <= idx[:-1]):
        raise ValueError("cells must be strictly increasing: sorted, without repeats")
    if idx[0] < 0 or idx[-1] >= dom.n**dom.d:
        raise ValueError(f"cells must lie in [0, {dom.n**dom.d}), got {idx[0]} .. {idx[-1]}")
    w = np.full(idx.size, dom.cell_volume)
    bv = b.values.reshape(-1)[idx]
    vol = float(w.sum())
    mean = np.sum(w * bv) / vol
    dev = np.abs(bv - mean)
    if nu is None:
        nu_cells = np.ones(idx.size)
    else:
        nu_cells = nu.values.reshape(-1)[idx]
    nu_mass = float(np.sum(w * nu_cells))
    if r == 1.0:
        inner = float(np.sum(w * dev)) / nu_mass
    else:
        inner = (float(np.sum(w * (dev / nu_cells) ** r * nu_cells)) / nu_mass) ** (1.0 / r)
    return nu_mass ** (-alpha / dom.d) * inner


# -- cube-family reports -----------------------------------------------------


def _deviation_sums(values: np.ndarray, nu_values, d: int, rs) -> list[np.ndarray]:
    """Family vectors, one per r in rs, of a block's sums over every dyadic
    subcube Q of |b - <b>_Q| (r = 1), else (|b - <b>_Q| / nu)^r nu.  Each
    generation's buffer is summed for r = 1, then raised in place, so one
    deviation pass serves both exponents; r = 1 comes first in rs.

    The first family is written into the buffer of the means pyramid:
    generation j's means are read before its sums overwrite them, and the
    finer generations are still means.  A complex b has complex means, so
    its first family gets a buffer of its own."""
    means = dyadic._pyramid(values, d, means=True)
    first = np.empty(means.shape[-1]) if np.iscomplexobj(means) else means
    sums = [first] + [np.empty(means.shape[-1]) for _ in rs[1:]]
    levels = [dyadic._levels(vec, d) for vec in sums]
    dev = np.empty(values.shape)
    diff = np.empty(values.shape, values.dtype) if np.iscomplexobj(values) else dev
    for j, mean in enumerate(dyadic._levels(means, d)):
        np.subtract(_split(values, j, d), _split(mean, j, d), out=_split(diff, j, d))
        np.absolute(diff, out=dev)
        for r, level in zip(rs, levels):
            if r != 1.0:
                dev /= nu_values
                dev **= r
                dev *= nu_values
            level[j][...] = dyadic._block_sums(dev, j, d)
    return sums


def _oscillation_families(
    values: np.ndarray, nu_values, dom: LatticeDomain, alpha: float, rs
) -> list[np.ndarray]:
    """osc_r over every dyadic subcube of a block of b (and of nu; None:
    unweighted), one family vector per r in rs, computed in place: each
    family starts as its deviation sums (the first in the means pyramid's
    buffer), and the nu-mass pyramid is built after that pass, so the
    means and the masses are never held at once."""
    nu_values = np.ones(values.shape) if nu_values is None else nu_values
    out = _deviation_sums(values, nu_values, dom.d, rs)
    mass = dyadic._pyramid(nu_values, dom.d)
    mass *= dom.cell_volume
    for r, vec in zip(rs, out):
        vec *= dom.cell_volume
        vec /= mass
        if r != 1.0:
            vec **= 1.0 / r
    mass **= -alpha / dom.d
    for vec in out:
        vec *= mass
    return out


def bmo_norm(
    b: SampledFunction,
    nu: Weight | None = None,
    alpha: float = 0.0,
    r: float = 1.0,
) -> dyadic.FamilyReport:
    """sup_Q osc_r(b; Q) over the canonical cubes; unweighted without nu."""
    _check_exponents(alpha, r)
    nu_values = None if nu is None else nu.values
    with np.errstate(over="ignore", invalid="ignore"):  # the check below names it
        (values,) = _oscillation_families(b.values, nu_values, b.domain, alpha, (r,))
    if not np.all(np.isfinite(values)):
        raise NumericalError(f"osc_{r:g} of a canonical cube leaves the floating-point range")
    return dyadic.FamilyReport(b.domain, values)


def two_weight_norm(
    b: SampledFunction, mu: Weight, lam: Weight, setup: ExponentSetup
) -> dyadic.FamilyReport:
    """sup_Q int_Q |b - <b>_Q| / (mu^p(Q)^{1/p} lam^{-q'}(Q)^{1/q'}) over
    the canonical cubes."""
    dom = b.domain
    (dev_sums,) = _deviation_sums(b.values, None, dom.d, (1.0,))
    mu_mass = dyadic._pyramid(mu.power(setup.p).values) * dom.cell_volume
    lam_mass = dyadic._pyramid(lam.power(-setup.q_prime).values) * dom.cell_volume
    return dyadic.FamilyReport(dom, dev_sums * dom.cell_volume / (
        mu_mass ** (1.0 / setup.p) * lam_mass ** (1.0 / setup.q_prime)))


# -- vanishing-oscillation profile and witnesses -----------------------------


@dataclass
class VMOProfile:
    scales: np.ndarray          # cube sides, coarse to fine
    per_scale_sup: np.ndarray   # sup over cubes of exactly that side
    small_scale: np.ndarray     # sup over side <= scales[j]
    large_scale: np.ndarray     # sup over side >= scales[j]
    radii: np.ndarray
    distance: np.ndarray        # sup over dist(Q, 0) >= radii[k]


def vmo_profile(report: dyadic.FamilyReport) -> VMOProfile:
    """Monotone oscillation envelopes in scale and in distance from 0, read
    off a bmo_norm report.

    Curves stop at cubes of side 4h; below that the per-cube means are
    supported on too few cells to say anything about the symbol."""
    dom, values = report.domain, report.values
    j_max = dom.m - int(math.log2(_GEN_FLOOR_CELLS))
    per_scale = np.array([np.max(table) for table in dyadic._levels(values, dom.d)[: j_max + 1]])
    small = np.maximum.accumulate(per_scale[::-1])[::-1]
    large = np.maximum.accumulate(per_scale)
    radii = dom.L * np.array(PROFILE_RADII)
    dist = np.concatenate([_cube_distance_table(dom, j).ravel() for j in range(j_max + 1)])
    distance = np.array([np.max(values[: dist.size][dist >= rad], initial=0.0) for rad in radii])
    scales = dom.width * 2.0 ** -np.arange(j_max + 1.0)
    return VMOProfile(scales, per_scale, small, large, radii, distance)


@dataclass
class WitnessFamily:
    mode: str
    threshold: float
    entries: list  # (DyadicCube, flat cell indices of E), one per accepted pair
    oscillations: list  # verified osc(b; E) per entry

    def __len__(self):
        return len(self.entries)


def _candidate_keys(report: dyadic.FamilyReport, c0: float) -> np.ndarray:
    """Key rows (generation, index...) of the report's cubes with value
    >= c0, in (generation, index) order."""
    hits = [np.argwhere(table >= c0) for table in dyadic._levels(report.values, report.domain.d)]
    return np.concatenate([np.column_stack([np.full(len(index), j), index])
                           for j, index in enumerate(hits)])


def _block(m: int, key) -> tuple:
    """The cells of cube (generation, index...) in a domain-shaped array,
    one slice per axis; raveled, a block of flat cell ids is sorted."""
    side = 1 << (m - key[0])
    return tuple(slice(k * side, (k + 1) * side) for k in key[1:])


def _witness_small(dom, keys, theta):
    """Greedy subsequence extraction with integer-exact removal budgets.

    A candidate nested inside an accepted cube A must (a) keep A's total
    removal within theta*|A| and (b) be at most (theta/4)*|A_min| for its
    nearest accepted ancestor.  The step rule caps each nested chain's
    removal at (theta/4)/(1 - theta/4) < theta, so budgets only bind when
    several disjoint chains share an ancestor.  All checks are exact cell
    counts.  Candidates come big first, so a candidate's accepted
    ancestors are the owner of its first cell (the finest accepted cube
    over it) and that owner's chain of nearest accepted ancestors.
    Yields one (key row, E, None) family per budget divisor: ceil(1/theta),
    then twice that."""
    ids = np.arange(dom.n**dom.d).reshape(dom.shape)
    inv_theta = math.ceil(1.0 / theta)
    for inv in (inv_theta, 2 * inv_theta):
        owner = np.full(dom.shape, -1)
        accepted = []  # [key row, cell block, cell count, removed cell count, nearest ancestor]
        for key in keys.tolist():
            block, size = _block(dom.m, key), 1 << (dom.d * (dom.m - key[0]))
            chain = [int(owner[block].flat[0])]
            while chain[-1] >= 0:
                chain.append(accepted[chain[-1]][4])
            ancestors = [accepted[a] for a in chain[:-1]]
            if ancestors and (4 * inv * size > ancestors[0][2]
                              or any(inv * (a[3] + size) > a[2] for a in ancestors)):
                continue
            for a in ancestors:
                a[3] += size
            accepted.append([key, block, size, 0, chain[0]])
            owner[block] = len(accepted) - 1
        yield [(key, ids[block].ravel()[owner[block].ravel() == i], None)
               for i, (key, block, *_) in enumerate(accepted)]


def _witness_far(dom, keys):
    """Disjoint cubes at distances increasing by at least L/8 per step,
    required to reach ESCAPE_RADIUS * L; E = Q throughout.  Candidates
    come nearest first, ties in (generation, index) order; yields the
    (key row, E, None) family if it escapes."""
    dist = np.concatenate([_cube_distance_table(dom, j)[tuple(keys[keys[:, 0] == j, 1:].T)]
                           for j in range(dom.m + 1)])  # keys come by generation
    ids, used = np.arange(dom.n**dom.d).reshape(dom.shape), np.zeros(dom.shape, dtype=bool)
    step = dom.L / 8.0
    picked, last = [], None
    for row in np.argsort(dist, kind="stable").tolist():
        key, dist_q = keys[row].tolist(), float(dist[row])
        block = _block(dom.m, key)
        if dist_q <= 0.0 or (last is not None and dist_q < last + step) or used[block].any():
            continue
        used[block] = True
        picked.append((key, ids[block].ravel(), None))
        last = dist_q
    if last is not None and last >= ESCAPE_RADIUS * dom.L:
        yield picked


def _witness_large(b, nu, alpha, r, c0, keys):
    """Nested escape to ever larger cubes: E strips off everything already
    used, oscillation re-verified on each strip before acceptance.
    Candidates come small first, in (generation, index) order; yields
    the (key row, E, osc(b; E)) family, osc None on the first cube, which
    is not stripped."""
    dom = b.domain
    ids, used = np.arange(dom.n**dom.d).reshape(dom.shape), np.zeros(dom.shape, dtype=bool)
    picked, last_gen = [], None
    for row in np.argsort(-keys[:, 0], kind="stable").tolist():
        key = keys[row].tolist()
        block = _block(dom.m, key)
        cells = ids[block].ravel()
        osc = None
        if last_gen is None:
            mask = cells
        elif key[0] >= last_gen:  # the volume must at least double
            continue
        else:
            mask = cells[~used[block].ravel()]
            if 2 * mask.size < cells.size:
                continue
            osc = oscillation(b, mask, nu=nu, alpha=alpha, r=r)
            if osc < c0 / 2.0:
                continue
        picked.append((key, mask, osc))
        used[block] = True
        last_gen = key[0]
    yield picked


def vmo_witness(
    b: SampledFunction,
    report: dyadic.FamilyReport,
    nu: Weight | None = None,
    alpha: float = 0.0,
    c0: float = 0.5,
    mode: str | None = None,
    r: float = 1.0,
    theta: float = 0.125,
    min_pairs: int = 2,
) -> WitnessFamily | None:
    """Disjoint (Q, E) pairs witnessing osc >= c0/2 in the requested
    failure mode, or None when no family of min_pairs exists.

    The candidates are the cubes Q with osc_r(b; Q) >= c0 in report,
    which must be bmo_norm(b, nu, alpha, r).  Each searcher yields
    families of (key row, E, osc(b; E) or None where it did not compute
    it); the first with min_pairs pairs whose E is nonempty with
    osc(b; E) >= c0/2 is kept.  Far-away families must
    reach ESCAPE_RADIUS * L: on a bounded domain a sequence that stalls
    at moderate distance says nothing about behaviour at infinity."""
    _check_exponents(alpha, r)
    if report.domain != b.domain:
        raise ValueError("report must live on the domain of b")
    if not c0 > 0.0:
        raise ValueError(f"c0 must be > 0, got {c0}")
    if not (0.0 < theta < 1.0 and math.isfinite(1.0 / theta)):
        raise ValueError(f"theta must lie in (0, 1) with a finite reciprocal, got {theta}")
    if min_pairs < 1:
        raise ValueError(f"min_pairs must be >= 1, got {min_pairs}")
    searchers = {
        "small-scale": lambda: _witness_small(b.domain, keys, theta),
        "far-away": lambda: _witness_far(b.domain, keys),
        "large-scale": lambda: _witness_large(b, nu, alpha, r, c0, keys),
    }
    if mode is not None and mode not in searchers:
        raise ValueError(f"unknown witness mode {mode!r}")
    keys = _candidate_keys(report, c0)
    for name in (mode,) if mode is not None else searchers:
        for picked in searchers[name]():
            entries, oscs = [], []
            for key, mask, val in picked:
                if mask.size == 0:
                    continue
                if val is None:
                    val = oscillation(b, mask, nu=nu, alpha=alpha, r=r)
                if val >= c0 / 2.0:
                    entries.append((dyadic.key_cube(b.domain, key), mask))
                    oscs.append(val)
            if len(entries) >= min_pairs:
                return WitnessFamily(name, c0, entries, oscs)
    return None


# -- power-bootstrap verification --------------------------------------------


@dataclass
class JNReport:
    r: float
    r_norm: float
    one_norm: float
    ratio: float              # r_norm / one_norm, >= 1 per cube by Jensen
    root_r_oscillation: float
    sparse_bound: float       # family-summed right-hand side
    sparse_ratio: float       # root_r_oscillation / sparse_bound
    family_size: int


def jn_verify(
    b: SampledFunction,
    w: Weight,
    p: float,
    r: float,
    alpha: float,
    root: dyadic.DyadicCube,
) -> JNReport:
    """Compare the r-oscillation norm with the r = 1 norm on the dyadic
    subcubes of a root cube, and the root's r-oscillation against the
    stopping-family bound

        ( w(Q0)^{-(1+alpha*r/d)} * sum_S osc_1(b;Q)^r w(Q)^{1+alpha*r/d} )^{1/r}.

    The sum reads the family's own cubes a generation at a time, as rows
    of cell values, not one oscillation() call per cube.  A mass power
    w(Q)^{1+alpha*r/d} (the root's among them), a bound, or an r-norm
    that leaves the floating-point range raises NumericalError naming it.
    """
    dom = b.domain
    p_prime = p / (p - 1.0)
    if not (1.0 <= r <= p_prime):
        raise ValueError(f"need 1 <= r <= p' = {p_prime}, got r={r}")
    if root.domain != dom or w.domain != dom:
        raise ValueError("domain mismatch")
    window = tuple(slice(*span) for span in root.cell_span())  # root's subtree
    one_norm, r_norm = (float(np.max(values)) for values in _oscillation_families(
        b.values[window], w.values[window], dom, alpha, (1.0, r)))
    family = sparse.cz_augment(b, root)
    exponent = 1.0 + alpha * r / dom.d
    total = 0.0
    for j, count in family._counts:  # osc_1 of the family's generation-j cubes
        index = np.argwhere(count)
        rows = dyadic._generation_blocks(b.values, j, dom.d, index)
        w_mass = dyadic._generation_blocks(w.values, j, dom.d, index).sum(axis=1) * dom.cell_volume
        dev = np.abs(rows - rows.mean(axis=1, keepdims=True)).sum(axis=1) * dom.cell_volume
        osc1 = w_mass ** (-alpha / dom.d) * (dev / w_mass)
        with np.errstate(over="ignore", under="ignore"):
            mass_power = w_mass**exponent
        if not np.all(np.isfinite(mass_power) & (mass_power > 0.0)):
            raise NumericalError(f"mass power w(Q)^{exponent:g} of a generation-{j} family cube "
                                 "leaves the floating-point range")
        total += float(np.sum(count[tuple(index.T)] * osc1**r * mass_power))
    root_cells = root.flat_cells()
    w_root = float(w.values.reshape(-1)[root_cells].sum()) * dom.cell_volume
    sparse_bound = (total / w_root**exponent) ** (1.0 / r)  # the root is a family cube
    if not math.isfinite(sparse_bound):
        raise NumericalError(f"family sum {total:g} over w(Q0)^{exponent:g} "
                             "leaves the floating-point range")
    root_r = oscillation(b, root_cells, nu=w, alpha=alpha, r=r)
    if one_norm > 0.0 and r_norm == 0.0:  # osc_r >= osc_1 cube by cube
        raise NumericalError(f"r-oscillation norm underflows to 0 (r = {r:g}, 1-norm {one_norm:g})")
    # degenerate symbols: 0 <= C * 0 holds, report neutral ratios
    if one_norm > 0.0:
        ratio = r_norm / one_norm
    else:
        ratio = 1.0 if r_norm == 0.0 else math.inf
    if sparse_bound > 0.0:
        sparse_ratio = root_r / sparse_bound
    else:
        sparse_ratio = 0.0 if root_r == 0.0 else math.inf
    return JNReport(
        r=r,
        r_norm=r_norm,
        one_norm=one_norm,
        ratio=ratio,
        root_r_oscillation=root_r,
        sparse_bound=sparse_bound,
        sparse_ratio=sparse_ratio,
        family_size=len(family),
    )
