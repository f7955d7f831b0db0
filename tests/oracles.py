"""Slow reference paths the tests compare the library against."""

import itertools
import math

import numpy as np

from dyadlab import dyadic, normest
from dyadlab import operators as ops
from dyadlab.lattice import SampledFunction
from dyadlab.oscillation import ESCAPE_RADIUS, WitnessFamily, bmo_norm, oscillation


def enumerate_cubes(domain):
    """All cubes as objects, ordered by (generation, index): the oracle of
    dyadic.canonical_keys."""
    return [
        dyadic.cube(domain, j, idx)
        for j in range(domain.m + 1)
        for idx in itertools.product(range(2**j), repeat=domain.d)
    ]


def generation_mean(arr, generation, d=None):
    """Table of a block's means over its generation-j subcubes (d: all axes
    by default), reduced directly from the cells: the oracle of the
    dyadic._pyramid levels."""
    d = arr.ndim if d is None else d
    return dyadic._split(arr, generation, d).mean(axis=tuple(range(1 - 2 * d, 0, 2)))


def core_arrays(family):
    """A sparse family's cores, one array each: core i is
    cells[offsets[i]:offsets[i + 1]]."""
    bounds = family.offsets.tolist()
    return [family.cells[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def volume(cube):
    """Lebesgue measure of the cube."""
    return cube.sidelength**cube.domain.d


def parent(cube):
    """The generation j - 1 cube that holds a generation-j cube."""
    if cube.generation == 0:
        raise ValueError("generation-0 cube has no parent")
    return dyadic.cube(cube.domain, cube.generation - 1, [k // 2 for k in cube.index])


def children(cube):
    """The 2^d generation j + 1 cubes of a generation-j cube, none at j = m."""
    if cube.generation >= cube.domain.m:
        return []
    return [dyadic.cube(cube.domain, cube.generation + 1,
                        [2 * k + o for k, o in zip(cube.index, offs)])
            for offs in itertools.product((0, 1), repeat=cube.domain.d)]


def indicator(cube):
    """1 on the cube's cells, 0 elsewhere."""
    values = np.zeros(cube.domain.n**cube.domain.d)
    values[cube.flat_cells()] = 1.0
    return SampledFunction(cube.domain, values.reshape(cube.domain.shape))


def dist_to_origin(cube):
    """Euclidean distance from the origin to the closed cube, from its
    corners: the oracle of dyadic._cube_distance_table."""
    dom, ell, sq = cube.domain, cube.sidelength, 0.0
    for k in cube.index:
        a = -dom.L + k * ell
        b = min(a + ell, dom.L)
        if a > 0:
            sq += a * a
        elif b < 0:
            sq += b * b
    return float(np.sqrt(sq))


def decompose(kernel, domain, eps):
    """Split T into a compactly windowed part and a residual, densely: the
    oracle of operators.split.

    With r = eps, R = 1/eps, S = 10 R, and chi = phi(R) evaluated at the
    midpoint positions, the compact part applies chi, the kernel windowed by
    the annulus [phi(S) - phi(r)](|x - y|), then chi again.  The residual
    collects the four complementary terms.  Because the annulus window is
    exactly 1 wherever both chi factors are nonzero and |x - y| <= S/2, the
    two parts sum back to the unwindowed matrix; that identity is checked
    entrywise and raises NumericalError when it breaks.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    r = eps
    base = ops.assemble(kernel, domain)
    a = base.matrix
    pts = ops._midpoint_table(domain)
    chi, outer_win = ops._split_windows(domain, eps)
    outer = 1.0 - chi

    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    inner_win = ops.phi(r).value(dist)
    mid_win = outer_win.value(dist) - inner_win

    core = chi[:, None] * a * chi[None, :]
    compact = core * mid_win
    residual = (
        core * inner_win
        + outer[:, None] * a * outer[None, :]
        + outer[:, None] * a * chi[None, :]
        + chi[:, None] * a * outer[None, :]
    )
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    gap = float(np.max(np.abs(compact + residual - a))) if a.size else 0.0
    if gap > 1e-12 * scale:
        raise ops.NumericalError(f"splitting identity broke: {gap:g}")
    return ops.OperatorMatrix(domain, compact), ops.OperatorMatrix(domain, residual)


# The object-based witness search: the oracle of oscillation.vmo_witness.
# Candidates are DyadicCube objects; ancestry is contains_cube, and used
# cells are tracked by set operations on sorted cell arrays.


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
    # big first; deterministic tie-break by generation and index
    cands = sorted(cands, key=lambda t: (-volume(t[0]), t[0].generation, t[0].index))
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
    cands = sorted(cands, key=lambda t: (dist_to_origin(t[0]), t[0].generation, t[0].index))
    step = b.domain.L / 8.0
    accepted = []
    used = np.empty(0, dtype=np.int64)
    last = None
    for cube, _val in cands:
        dist = dist_to_origin(cube)
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
    if not accepted or dist_to_origin(accepted[-1][0]) < ESCAPE_RADIUS * b.domain.L:
        return None
    entries, oscs = _verify_entries(b, nu, alpha, r, c0, accepted)
    if len(entries) >= min_pairs:
        return WitnessFamily("far-away", c0, entries, oscs)
    return None


def _witness_large(b, nu, alpha, r, c0, cands, min_pairs):
    cands = sorted(cands, key=lambda t: (volume(t[0]), t[0].generation, t[0].index))
    picked = []
    used = np.empty(0, dtype=np.int64)
    last_vol = None
    for cube, _val in cands:
        cells = cube.flat_cells()
        if last_vol is None:
            picked.append((cube, cells))
            used = cells
            last_vol = volume(cube)
            continue
        if volume(cube) < 2.0 * last_vol:
            continue
        mask = np.setdiff1d(cells, used)
        if 2 * mask.size < cells.size:
            continue
        if oscillation(b, mask, nu=nu, alpha=alpha, r=r) < c0 / 2.0:
            continue
        picked.append((cube, mask))
        used = np.union1d(used, cells)
        last_vol = volume(cube)
    entries, oscs = _verify_entries(b, nu, alpha, r, c0, picked)
    if len(entries) >= min_pairs:
        return WitnessFamily("large-scale", c0, entries, oscs)
    return None


def vmo_witness_objects(b, nu=None, alpha=0.0, c0=0.5, mode=None, r=1.0, theta=0.125,
                        min_pairs=2):
    """vmo_witness by the object-based searchers above."""
    searchers = {
        "small-scale": lambda cands: _witness_small(b, nu, alpha, r, c0, cands, theta,
                                                    min_pairs),
        "far-away": lambda cands: _witness_far(b, nu, alpha, r, c0, cands, min_pairs),
        "large-scale": lambda cands: _witness_large(b, nu, alpha, r, c0, cands, min_pairs),
    }
    cands = _candidate_cubes(b, nu, alpha, r, c0)
    for name in (mode,) if mode is not None else searchers:
        found = searchers[name](cands)
        if found is not None:
            return found
    return None


# The plain duality-map ascent (Boyd's p-norm power method), one restart at
# a time: the ascent normest.opnorm_estimate ran before Anderson mixing.


EXP_LIMIT = 900  # binary exponent a power of a vector's entries may reach unscaled


def times_pow2(flat, e):
    """flat * 2**e, exactly (two factors, each in the float range)."""
    half = e // 2
    return flat * math.ldexp(1.0, half) * math.ldexp(1.0, e - half)


def unit_scaled(flat, top, power):
    """`flat` scaled by the power of two that brings its largest modulus
    `top` into [0.5, 1) when top**power would pass 2**+-EXP_LIMIT, else
    `flat` itself."""
    e = math.frexp(top)[1]
    return times_pow2(flat, -e) if abs(e) * power > EXP_LIMIT else flat


def lp_norm(flat, p, wvals, vol):
    """|f|_{p,w} of one vector; a sum outside 2**+-EXP_LIMIT (or 0) is
    taken again from the terms scaled so that the largest is in [0.5, 1)."""
    mags = np.abs(flat) * wvals
    total = float(np.sum(mags**p) * vol)
    if 2.0**-EXP_LIMIT < total < 2.0**EXP_LIMIT:
        return total ** (1.0 / p)
    e = math.frexp(float(np.max(mags)))[1]
    return math.ldexp(float(np.sum(times_pow2(mags, -e) ** p) * vol) ** (1.0 / p), e)


def ascent_ratio(flat, image, p, q, muv, lamv, vol):
    """|image|_{q,lam} / |flat|_{p,mu}, 0 where flat vanishes."""
    den = lp_norm(flat, p, muv, vol)
    if den == 0.0:
        return 0.0
    return lp_norm(image, q, lamv, vol) / den


def start_vectors(op, budget, seed, weights=None):
    """The ascent's start vectors: `budget` draws in order from `seed`,
    after the informed start when `weights` = (mu, lam) is given: the top
    right singular vector of D_lam A D_mu^{-1} by GKL from the first draw,
    stopped at residual SEED_TOL * sigma, times D_mu^{-1}."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(budget):
        flat = rng.standard_normal(op.size)
        draws.append(flat + 1j * rng.standard_normal(op.size) if op.is_complex else flat)
    if weights is None:
        return draws
    inv_mu, lamv = 1.0 / weights[0].values.reshape(-1), weights[1].values.reshape(-1)
    _, right, _, _, _ = normest._gkl_top(lambda x: lamv * op.apply(inv_mu * x),
                                         lambda y: inv_mu * op.adjoint(lamv * y), draws[0],
                                         normest.SEED_TOL)
    return [right * inv_mu] + draws


def plain_ascent(op, p, mu, q, lam, budget, iterations, seed):
    """Best of `budget` plain ascents, each stepping until its ratio moves
    by at most 1e-13 (relative) or its image or gradient vanishes:
    (value, iterations used, witness cells or None)."""
    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    vol = op.domain.cell_volume
    lam_q = lamv**q
    mu_p = muv**p
    inv_p1 = 1.0 / (p - 1.0)
    best_val, best_flat, used = 0.0, None, 0
    for flat in start_vectors(op, budget, seed):
        image = op.apply(flat)
        prev = 0.0
        for _ in range(iterations):
            used += 1
            mag = np.abs(image)
            if not np.any(mag):
                break
            grad = op.adjoint(lam_q * mag ** (q - 2.0) * image)
            gm = np.abs(grad)
            if not np.any(gm):
                break
            flat = np.sign(grad) * (gm / mu_p) ** inv_p1
            flat = flat / lp_norm(flat, p, muv, vol)
            image = op.apply(flat)
            cur = ascent_ratio(flat, image, p, q, muv, lamv, vol)
            if abs(cur - prev) <= 1e-13 * cur:
                break
            prev = cur
        val = ascent_ratio(flat, image, p, q, muv, lamv, vol)
        if val > best_val:
            best_val, best_flat = val, flat
    return best_val, used, best_flat
