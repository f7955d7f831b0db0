"""Weighted mean-oscillation functionals over cubes and cell sets.

For a weight nu, an exponent alpha >= 0 and a region E (a cube or any
cell set), the basic functional is

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
small scales, large scales, and regions escaping to infinity.  Profile
curves are cumulative suprema over shrinking cube families, so they are
monotone in their parameter by construction.  Witness extraction keeps a
removal budget theta = 1/8 per selected cube: later selections may eat
at most theta of an earlier cube's volume, which keeps |E| >= (1-theta)|Q|
and, verified numerically per pair, osc(b; E) >= c0/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dyadlab import dyadic, sparse
from dyadlab.dyadic import _cube_distance_table, _split
from dyadlab.lattice import Box, LatticeDomain, SampledFunction, box_cells
from dyadlab.weights import ExponentSetup, Weight

_GEN_FLOOR_CELLS = 4  # profile curves stop at cubes of side 4h
PROFILE_RADII = (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75)  # distance curve, in units of L
ESCAPE_RADIUS = 0.75  # far-away witnesses must reach this distance, in units of L


# -- region resolution -------------------------------------------------------


def region_cells(domain: LatticeDomain, region) -> tuple[np.ndarray, np.ndarray]:
    """Resolve a region to (flat cell indices, per-cell volume weights)."""
    if isinstance(region, dyadic.DyadicCube):
        if region.domain != domain:
            raise ValueError("domain mismatch")
        idx = region.flat_cells()
        return idx, np.full(idx.size, domain.cell_volume)
    if isinstance(region, Box):
        return box_cells(domain, region.lo, region.hi)
    arr = np.asarray(region)
    if arr.dtype == bool:
        idx = np.flatnonzero(arr.reshape(-1))
    else:
        idx = arr.reshape(-1).astype(np.int64)
    if idx.size == 0:
        raise ValueError("empty region")
    return idx, np.full(idx.size, domain.cell_volume)


def _check_exponents(alpha: float, r: float) -> None:
    """ValueError unless alpha >= 0 and r >= 1, where osc_r is defined."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if r < 1.0:
        raise ValueError(f"r must be >= 1, got {r}")


def oscillation(
    b: SampledFunction,
    region,
    nu: Weight | None = None,
    alpha: float = 0.0,
    r: float = 1.0,
) -> float:
    """osc_r(b; region) for a cube, box, or cell set; exact on the lattice."""
    _check_exponents(alpha, r)
    dom = b.domain
    if nu is not None and nu.domain != dom:
        raise ValueError("nu must live on the domain of b")
    idx, w = region_cells(dom, region)
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
    deviation pass serves both exponents; r = 1 comes first in rs."""
    means = dyadic._pyramid(values, d, means=True)
    sums = [np.empty(means.shape[-1]) for _ in rs]
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
    unweighted), one family vector per r in rs, computed in place."""
    nu_values = np.ones(values.shape) if nu_values is None else nu_values
    mass = dyadic._pyramid(nu_values, dom.d)
    mass *= dom.cell_volume
    out = _deviation_sums(values, nu_values, dom.d, rs)
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
    (values,) = _oscillation_families(b.values, nu_values, b.domain, alpha, (r,))
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


def vmo_profile(
    b: SampledFunction,
    nu: Weight | None = None,
    alpha: float = 0.0,
    r: float = 1.0,
) -> VMOProfile:
    """Monotone oscillation envelopes in scale and in distance from 0.

    Curves stop at cubes of side 4h; below that the per-cube means are
    supported on too few cells to say anything about the symbol."""
    dom = b.domain
    j_max = dom.m - int(math.log2(_GEN_FLOOR_CELLS))
    values = bmo_norm(b, nu, alpha, r).values
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
    entries: list  # (DyadicCube, flat cell indices of E)
    oscillations: list  # verified osc(b; E) per entry

    def __len__(self):
        return len(self.entries)


def _candidate_cubes(b, nu, alpha, r, c0):
    tables = dyadic._levels(bmo_norm(b, nu, alpha, r).values, b.domain.d)
    return [(dyadic.cube(b.domain, j, idx), float(table[tuple(idx)]))
            for j, table in enumerate(tables) for idx in np.argwhere(table >= c0)]


def _verify_entries(b, nu, alpha, r, c0, picked):
    entries, oscs = [], []
    for cube, mask in picked:
        if mask.size == 0:
            continue
        val = oscillation(b, mask, nu=nu, alpha=alpha, r=r)
        if val >= c0 / 2.0:
            entries.append((cube, mask))
            oscs.append(val)
    return entries, oscs


def _witness_small(b, nu, alpha, r, c0, cands, theta, min_pairs):
    """Greedy subsequence extraction with integer-exact removal budgets.

    A candidate nested inside an accepted cube A must (a) keep A's total
    removal within theta*|A| and (b) be at most (theta/4)*|A_min| for its
    nearest accepted ancestor.  The step rule caps each nested chain's
    removal at (theta/4)/(1 - theta/4) < theta, so budgets only bind when
    several disjoint chains share an ancestor.  All checks are exact cell
    counts."""
    # big first; deterministic tie-break by generation and index
    cands = sorted(cands, key=lambda t: (-t[0].volume, t[0].generation, t[0].index))
    inv_theta = math.ceil(1.0 / theta)
    for inv in (inv_theta, 2 * inv_theta):
        accepted = []  # [cube, cells, removed cell count]
        for cube, _val in cands:
            cells = cube.flat_cells()
            ancestors = [a for a in accepted if a[0].contains_cube(cube)]
            if ancestors:
                nearest = min(ancestors, key=lambda a: a[1].size)
                if 4 * inv * cells.size > nearest[1].size:
                    continue
                if any(inv * (a[2] + cells.size) > a[1].size for a in ancestors):
                    continue
                for a in ancestors:
                    a[2] += cells.size
            accepted.append([cube, cells, 0])
        picked = []
        for i, (cube, cells, _removed) in enumerate(accepted):
            later = [a[1] for a in accepted[i + 1 :]]
            if later:
                mask = np.setdiff1d(cells, np.concatenate(later))
            else:
                mask = cells
            picked.append((cube, mask))
        entries, oscs = _verify_entries(b, nu, alpha, r, c0, picked)
        if len(entries) >= min_pairs:
            return WitnessFamily("small-scale", c0, entries, oscs)
    return None


def _witness_far(b, nu, alpha, r, c0, cands, min_pairs):
    """Disjoint cubes at distances increasing by at least L/8 per step,
    required to reach ESCAPE_RADIUS * L; E = Q throughout."""
    cands = sorted(cands, key=lambda t: (t[0].dist_to_origin(), t[0].generation, t[0].index))
    step = b.domain.L / 8.0
    accepted = []
    used = np.empty(0, dtype=np.int64)
    last = None
    for cube, _val in cands:
        dist = cube.dist_to_origin()
        if dist <= 0.0:
            continue
        if last is not None and dist < last + step:
            continue
        cells = cube.flat_cells()
        if np.intersect1d(cells, used).size:
            continue
        accepted.append((cube, cells))
        used = np.concatenate([used, cells])
        last = dist
    if not accepted or accepted[-1][0].dist_to_origin() < ESCAPE_RADIUS * b.domain.L:
        return None
    entries, oscs = _verify_entries(b, nu, alpha, r, c0, accepted)
    if len(entries) >= min_pairs:
        return WitnessFamily("far-away", c0, entries, oscs)
    return None


def _witness_large(b, nu, alpha, r, c0, cands, min_pairs):
    """Nested escape to ever larger cubes: E strips off everything already
    used, oscillation re-verified on each strip before acceptance."""
    cands = sorted(cands, key=lambda t: (t[0].volume, t[0].generation, t[0].index))
    picked = []
    used = np.empty(0, dtype=np.int64)
    last_vol = None
    for cube, _val in cands:
        cells = cube.flat_cells()
        if last_vol is None:
            picked.append((cube, cells))
            used = cells
            last_vol = cube.volume
            continue
        if cube.volume < 2.0 * last_vol:
            continue
        mask = np.setdiff1d(cells, used)
        if 2 * mask.size < cells.size:
            continue
        if oscillation(b, mask, nu=nu, alpha=alpha, r=r) < c0 / 2.0:
            continue
        picked.append((cube, mask))
        used = np.union1d(used, cells)
        last_vol = cube.volume
    entries, oscs = _verify_entries(b, nu, alpha, r, c0, picked)
    if len(entries) >= min_pairs:
        return WitnessFamily("large-scale", c0, entries, oscs)
    return None


def vmo_witness(
    b: SampledFunction,
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

    Far-away families must reach ESCAPE_RADIUS * L: on a bounded domain
    a sequence that stalls at moderate distance says nothing about
    behaviour at infinity."""
    _check_exponents(alpha, r)
    if not (theta > 0.0 and math.isfinite(1.0 / theta)):
        raise ValueError(f"theta must be positive with a finite reciprocal, got {theta}")
    searchers = {
        "small-scale": lambda cands: _witness_small(b, nu, alpha, r, c0, cands, theta,
                                                    min_pairs),
        "far-away": lambda cands: _witness_far(b, nu, alpha, r, c0, cands, min_pairs),
        "large-scale": lambda cands: _witness_large(b, nu, alpha, r, c0, cands, min_pairs),
    }
    if mode is not None and mode not in searchers:
        raise ValueError(f"unknown witness mode {mode!r}")
    cands = _candidate_cubes(b, nu, alpha, r, c0)
    for name in (mode,) if mode is not None else searchers:
        found = searchers[name](cands)
        if found is not None:
            return found
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
    of cell values, not one oscillation() call per cube.
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
        rows = sparse._gather_blocks(b.values, j, index)
        w_mass = sparse._gather_blocks(w.values, j, index).sum(axis=1) * dom.cell_volume
        dev = np.abs(rows - rows.mean(axis=1, keepdims=True)).sum(axis=1) * dom.cell_volume
        osc1 = w_mass ** (-alpha / dom.d) * (dev / w_mass)
        total += float(np.sum(count[tuple(index.T)] * osc1**r * w_mass**exponent))
    w_root = float(w.values.reshape(-1)[root.flat_cells()].sum()) * dom.cell_volume
    sparse_bound = (total / w_root**exponent) ** (1.0 / r)
    root_r = oscillation(b, root, nu=w, alpha=alpha, r=r)
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
