"""Weighted operator-norm estimation and commutator lower-bound probes.

Norms follow the multiplier convention throughout: |f|_{p,mu} is the
L^p norm of f*mu.  Operators are apply/adjoint pairs (operators.Operator),
so no solver here needs a matrix.  At p = q = 2 the weighted norm ratio
equals the top singular value of D_lam A D_mu^{-1} exactly; that path
computes it by Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan
1965) with full reorthogonalization, stopped when the Ritz residual
|M* u - sigma v| falls to GKL_TOL * sigma.  Every other exponent pair
runs a multi-start ascent on the norm ratio, Boyd's p-norm power method
(Higham 1992), whose fixed points are the stationary points of the
Lagrangian.  Restart 0 is informed, as Higham chose start vectors for
Boyd's iteration: it starts from the p = q = 2 witness of the same
operator and weights, the top right singular vector of D_lam A D_mu^{-1}
(by GKL from the first seeded draw) times D_mu^{-1}.  The random restarts
follow it.  The iterates are Anderson-mixed with memory 1 (Walker & Ni
2011): from the plain step g_k and its residual f_k = g_k - x_k, the next
iterate is g_k - gamma (g_k - g_{k-1}), gamma = <df, f_k> / <df, df> with
df = f_k - f_{k-1}, renormalized.  A mixed iterate is kept only when its
own ratio beats the previous one by more than the stop tolerance;
otherwise the row takes the plain step and forgets its history, so the
ratio never falls and only a plain step can stop a row.  The restarts
run as one batch through the operator: random restart i starts from the
i-th draw of the seeded generator, and a row leaves the batch once its
ratio settles or its image or gradient vanishes, so every restart ends
bitwise where it would alone.  The ascent is scale-safe: a row whose
image, gradient or norm sum would leave the float range is scaled by an
exact power of two first, and a row in range keeps its bits.  The
returned value is always a certified lower bound: a witness function
attaining it is part of the estimate and is re-checked on return, and a
drift raises NumericalError.

The separation probe pairs a cube Q with its shift by 3 sidelengths,
where the Hilbert/Riesz kernels are sign-definite: testing the
commutator against an indicator of the partner and a phase-modulated
indicator of Q turns the operator norm into an explicit lower bound
comparable to the mean oscillation of the symbol on Q.  The general
construction for arbitrary non-degenerate kernels is out of scope; a
kernel whose block between the two cubes changes sign (or was windowed
away) gets the probe refused rather than a bogus certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from dyadlab import dyadic, oscillation, sparse
from dyadlab.lattice import SampledFunction
from dyadlab.operators import (  # noqa: F401  (commutator_matrix: bench/tests imports it here)
    Commutator,
    KernelSpec,
    NumericalError,
    Operator,
    commutator_matrix,
    split,
)
from dyadlab.weights import ExponentSetup, Weight, bloom_weight

ASCENT_RESTARTS = 3  # random restarts after the informed one
ASCENT_ITERATIONS = 200
ASCENT_TOL = 1e-13  # relative move of the ratio that ends an ascent
GKL_TOL = 1e-14
GKL_MAX_STEPS = 256
WITNESS_TOL = 1e-10
PROBE_FLOOR = 0.05  # least pairing share of the oscillation mass a probe must reach
# binary exponent a power of a row's entries may reach unscaled: the
# margin to the float range leaves room for the weights and for a sum of
# up to 2^20 terms
_EXP_LIMIT = 900


class ProbeRefused(ValueError):
    """The explicit probe construction does not apply to this configuration."""


@dataclass
class NormEstimate:
    value: float
    # svd-exact (top singular value, GKL) | random-restart-ascent | probe
    method: str
    witness: Optional[SampledFunction]
    iterations: int
    zero_operator: bool = False
    residual: float = float("nan")  # GKL Ritz residual |M* u - sigma v|
    capped: int = 0  # ascent restarts still moving when `iterations` ran out


def _times_pow2(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2**e, exactly: two factors, each in the float range."""
    half = e // 2
    return a * math.ldexp(1.0, half) * math.ldexp(1.0, e - half)


def _unit_rows(batch: np.ndarray, top: np.ndarray, power: float) -> np.ndarray:
    """`batch` (2-d) with each row whose largest modulus `top`, raised to
    `power`, would pass 2**+-_EXP_LIMIT scaled into [0.5, 1) by a power of
    two; every other row keeps its bits, and an all-in-range batch is
    returned as it came."""
    exps = [math.frexp(t)[1] for t in top.tolist()]
    out = [i for i, e in enumerate(exps) if abs(e) * power > _EXP_LIMIT]
    if not out:
        return batch
    batch = batch.copy()
    for i in out:
        batch[i] = _times_pow2(batch[i], -exps[i])
    return batch


def _flat_norm(flat: np.ndarray, p: float, wvals: np.ndarray, cell_volume: float) -> np.ndarray:
    """|f|_{p,w} of each row of `flat` (leading axes are a batch).  The root
    is a scalar pow per row: numpy's vectorized pow can differ from C pow in
    the last bit, and a row must not depend on the batch it rides in.  A row
    whose sum is 0 or passes 2**+-_EXP_LIMIT is summed again with its terms
    scaled into [0.5, 1) by a power of two, and its root scaled back."""
    mags = np.abs(flat) * wvals
    with np.errstate(over="ignore"):  # an overflowing row is summed again below
        sums = np.sum(mags**p, axis=-1) * cell_volume
    roots = sums.reshape(-1).tolist()
    for i, total in enumerate(roots):
        if 2.0**-_EXP_LIMIT < total < 2.0**_EXP_LIMIT:
            roots[i] = total ** (1.0 / p)
        else:
            row = mags.reshape(-1, mags.shape[-1])[i]
            e = math.frexp(float(np.max(row)))[1]
            total = float(np.sum(_times_pow2(row, -e) ** p) * cell_volume)
            roots[i] = math.ldexp(total ** (1.0 / p), e)
    return np.reshape(roots, sums.shape)


def _image_ratio(flat, image, p, q, muv, lamv, vol) -> np.ndarray:
    """|image|_{q,lam} / |flat|_{p,mu} per row (0 where flat vanishes), with
    image = A flat already computed."""
    den = _flat_norm(flat, p, muv, vol)
    num = _flat_norm(image, q, lamv, vol)
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> = sum conj(a) b of each row (leading axes are a batch); a
    row's value does not depend on the batch it rides in."""
    return np.einsum("...i,...i->...", a.conj(), b)


def _anderson_mix(plain, resid, g_last, f_last, has_last, p, muv, vol):
    """Memory-1 Anderson iterate of each row, and which rows it mixed.

    A row with a last plain step g_last (residual f_last) mixes its plain
    step g (residual f) into g - gamma (g - g_last), renormalized, with
    gamma = <df, f> / <df, df> for df = f - f_last.  A row with no last
    step, or with df = 0, keeps g.
    """
    if not has_last.any():
        return plain, has_last
    df = resid - f_last
    den = _row_dot(df, df).real
    mixed = has_last & (den > 0.0)
    gamma = np.divide(_row_dot(df, resid), den, out=np.zeros(den.size, resid.dtype),
                      where=mixed)
    step = plain - gamma[:, None] * (plain - g_last)
    step = step / np.where(mixed, _flat_norm(step, p, muv, vol), 1.0)[:, None]
    return (step if mixed.all() else np.where(mixed[:, None], step, plain)), mixed


def _ratio(op: Operator, flat, p, q, muv, lamv, vol) -> float:
    return float(_image_ratio(flat, op.apply(flat), p, q, muv, lamv, vol))


def _gkl_top(apply, adjoint, start: np.ndarray):
    """Top singular value and right vector of the map `apply` (adjoint
    `adjoint`) by GKL.

    Upper bidiagonalization M V_k = U_k B_k, M* U_k = V_k B_k^T +
    beta_k v_{k+1} e_k^T with both bases fully reorthogonalized (two
    Gram-Schmidt passes).  The top Ritz triple (sigma, U_k p, V_k q) of B_k
    has M V_k q = sigma U_k p exactly and residual |M* U_k p - sigma V_k q|
    = beta_k |p_k|.  Returns (sigma, v, residual, steps, settled); a step
    that loses all new direction (alpha or beta 0) ends in an invariant
    pair.  `settled` is False when the residual stays above GKL_TOL * sigma
    after GKL_MAX_STEPS steps, and (sigma, v) are then the last Ritz pair.
    """
    n = start.size
    steps = min(GKL_MAX_STEPS, n)
    us = np.zeros((steps, n), dtype=start.dtype)
    vs = np.zeros((steps + 1, n), dtype=start.dtype)
    vs[0] = start / np.linalg.norm(start)
    alphas, betas = np.zeros(steps), np.zeros(steps)
    for k in range(steps):
        u = apply(vs[k])
        if k:
            u = u - betas[k - 1] * us[k - 1]
        u = _reorthogonalize(u, us[:k])
        alphas[k] = np.linalg.norm(u)
        if alphas[k] > 0.0:
            us[k] = u / alphas[k]
        v = adjoint(us[k]) - alphas[k] * vs[k]
        v = _reorthogonalize(v, vs[: k + 1])
        betas[k] = np.linalg.norm(v)
        if betas[k] > 0.0:
            vs[k + 1] = v / betas[k]
        b = np.diag(alphas[: k + 1]) + np.diag(betas[:k], 1)
        left, sing, right_h = np.linalg.svd(b)
        sigma = float(sing[0])
        residual = float(betas[k] * abs(left[k, 0]))
        settled = residual <= GKL_TOL * sigma or alphas[k] == 0.0 or betas[k] == 0.0
        if settled:
            break
    return sigma, right_h[0] @ vs[: k + 1], residual, k + 1, settled


def _reorthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    for _ in range(2):
        x = x - (basis.conj() @ x) @ basis
    return x


def opnorm_estimate(op: Operator, p: float, mu: Weight, q: float, lam: Weight,
                    budget: int = ASCENT_RESTARTS, iterations: int = ASCENT_ITERATIONS,
                    seed: int = 0, method: str = "auto") -> NormEstimate:
    """Lower-bound estimate of |A|_{L^p_mu -> L^q_lam} with attained witness.

    Exact (largest singular value of D_lam A D_mu^{-1}, by GKL from a
    start vector drawn from `seed`) at p = q = 2; otherwise the best of
    1 + `budget` duality-map ascents.  Restart 0 is informed: it starts
    from that GKL witness of the same operator and weights (right singular
    vector times D_mu^{-1}, GKL from the first draw; the last Ritz vector
    if GKL misses GKL_TOL).  Random restart i starts from the i-th vector
    drawn from `seed`, as it would without the informed start.  The ascents
    run as one (1 + budget, N) batch: each restart steps only while its
    ratio moves by more than ASCENT_TOL times itself and its image and
    gradient are nonzero, for at most `iterations` steps, and converged
    rows leave the batch.  Each step computes the plain duality step and
    mixes it with the row's previous plain step (memory-1 Anderson); the
    mixed iterate is applied, and a row whose ratio it does not raise by
    more than ASCENT_TOL times itself applies the plain step instead and
    clears its history.  Both tests are relative, so c*A takes the same
    steps as A; a row whose image, gradient or norm sums would leave the
    float range is first scaled by an exact power of two, so a tiny or
    huge A keeps its norm.  `iterations` counts row-steps, one per restart
    per step whether or not the mixed iterate was kept, and `capped` the
    restarts still moving when the step budget ran out; the first best
    restart supplies the witness.  method "svd" or "ascent" forces a path
    (svd only exists at p = q = 2); "auto" picks.  The operator is only
    applied, never formed.
    """
    if not (1.0 < p <= q < np.inf):
        raise ValueError(f"need 1 < p <= q < inf, got ({p}, {q})")
    if budget < 1:
        raise ValueError("budget must allow at least one restart")
    if mu.domain != op.domain or lam.domain != op.domain:
        raise ValueError("weights must live on the operator's domain")
    if method not in ("auto", "svd", "ascent"):
        raise ValueError(f"unknown method {method!r}")
    use_svd = p == 2.0 and q == 2.0 and method != "ascent"
    if method == "svd" and not use_svd:
        raise ValueError("the svd path exists only at p = q = 2")
    dom = op.domain
    muv = mu.values.reshape(-1)
    lamv = lam.values.reshape(-1)
    vol = dom.cell_volume

    if op.is_zero:
        return NormEstimate(0.0, "svd-exact" if use_svd else "random-restart-ascent",
                            None, 0, zero_operator=True)

    rng = np.random.default_rng(seed)
    size = op.size

    def start_vector():
        flat = rng.standard_normal(size)
        return flat + 1j * rng.standard_normal(size) if op.is_complex else flat

    inv_mu = 1.0 / muv

    def top_right(start):  # GKL on D_lam A D_mu^{-1}
        return _gkl_top(lambda x: lamv * op.apply(inv_mu * x),
                        lambda y: inv_mu * op.adjoint(lamv * y), start)

    if use_svd:
        value, right, residual, steps, settled = top_right(start_vector())
        if not settled:
            raise NumericalError(
                f"Lanczos bidiagonalization missed residual {GKL_TOL:g} * sigma "
                f"in {steps} steps (residual {residual:.3g}, sigma {value:.6g})")
        flat = right * inv_mu
        ratio = _ratio(op, flat, p, q, muv, lamv, vol)
        if abs(ratio - value) > WITNESS_TOL * max(value, 1e-300):
            raise NumericalError(f"witness ratio {ratio} drifted from sigma {value}")
        witness = SampledFunction(dom, flat.reshape(dom.shape))
        return NormEstimate(value, "svd-exact", witness, steps, residual=residual)

    lam_q = lamv**q
    mu_p = muv**p
    inv_p1 = 1.0 / (p - 1.0)
    draws = [start_vector() for _ in range(budget)]
    flats = np.stack([top_right(draws[0])[1] * inv_mu, *draws])
    images = op.apply(flats)
    # the rows still ascending: restart index, iterate x, its image and
    # ratio, and the row's last plain step g with its residual g - x
    rows, x, img, prev = np.arange(len(flats)), flats, images, np.zeros(len(flats))
    g_last = f_last = np.zeros_like(flats)
    has_last = np.zeros(len(flats), dtype=bool)

    def leave(stay):  # rows off `stay` leave the batch where they stand
        nonlocal rows, x, img, prev, g_last, f_last, has_last
        flats[rows[~stay]], images[rows[~stay]] = x[~stay], img[~stay]
        rows, x, img, prev, g_last, f_last, has_last = (
            a[stay] for a in (rows, x, img, prev, g_last, f_last, has_last))

    used = 0
    for _ in range(iterations):
        if not rows.size:
            break
        used += rows.size
        mag = np.abs(img)
        top = np.max(mag, axis=-1)
        live = top != 0.0  # a zero image or gradient stops its row
        if not live.all():
            leave(live)
            if not rows.size:  # no operator sees an empty batch
                break
            mag, top = mag[live], top[live]
        # the gradient scales like the q-th power of the image, and the
        # plain step like the 1/(p-1)-th power of the gradient
        src = _unit_rows(img, top, q)
        if src is not img:
            mag = np.abs(src)
        grad = op.adjoint(lam_q * mag ** (q - 2.0) * src)
        gm = np.abs(grad)
        top = np.max(gm, axis=-1)
        live = top != 0.0
        if not live.all():
            leave(live)
            if not rows.size:
                break
            grad, gm, top = grad[live], gm[live], top[live]
        plain = np.sign(grad) * (_unit_rows(gm, top, inv_p1) / mu_p) ** inv_p1
        plain = plain / _flat_norm(plain, p, muv, vol)[:, None]
        resid = plain - x
        x, mixed = _anderson_mix(plain, resid, g_last, f_last, has_last, p, muv, vol)
        g_last, f_last = plain, resid
        img = op.apply(x)
        cur = _image_ratio(x, img, p, q, muv, lamv, vol)
        # safeguard: a mixed iterate that does not raise its row's ratio by
        # more than the stop tolerance (or is nan) gives way to the plain
        # step, and the row's history is cleared; only a plain step can stop
        # a row, so a stalled mixing step never ends an ascent early
        rejected = mixed & ~(cur - prev > ASCENT_TOL * cur)
        back = np.flatnonzero(rejected)
        if back.size:
            x[back] = plain[back]
            img[back] = op.apply(plain[back])
            cur[back] = _image_ratio(plain[back], img[back], p, q, muv, lamv, vol)
        converged = np.abs(cur - prev) <= ASCENT_TOL * cur
        prev, has_last = cur, ~rejected
        if converged.any():
            leave(~converged)
    flats[rows], images[rows] = x, img  # rows still moving when the steps ran out
    vals = _image_ratio(flats, images, p, q, muv, lamv, vol)
    vals = np.where(vals > 0.0, vals, 0.0)  # a nan restart never wins
    best = int(np.argmax(vals))
    if vals[best] == 0.0:
        return NormEstimate(0.0, "random-restart-ascent", None, used, capped=rows.size)
    best_val, best_flat = float(vals[best]), flats[best]
    witness = SampledFunction(dom, best_flat.reshape(dom.shape))
    check = _ratio(op, best_flat, p, q, muv, lamv, vol)
    if abs(check - best_val) > WITNESS_TOL * max(best_val, 1e-300):
        raise NumericalError("ascent witness does not reproduce its value")
    return NormEstimate(best_val, "random-restart-ascent", witness, used, capped=rows.size)


# -- separation probe ----------------------------------------------------------


@dataclass
class ProbePair:
    cube: dyadic.DyadicCube
    partner: dyadic.DyadicCube
    g: SampledFunction  # indicator of the partner
    h: SampledFunction  # |h| <= 1_Q
    separation: float


@dataclass
class ProbeCertificate:
    certificate: float
    pair: ProbePair
    pairings: tuple
    oscillation_mass: float
    comparability: float  # pairing sum / oscillation mass (nan when mass = 0)


def _phase_conj(values: np.ndarray) -> np.ndarray:
    mag = np.abs(values)
    out = np.zeros_like(values)
    nz = mag > 0.0
    out[nz] = np.conj(values[nz]) / mag[nz]
    return out


def awf_lower_probe(b: SampledFunction, op: Operator, p: float, mu: Weight,
                    q: float, lam: Weight, cube: dyadic.DyadicCube) -> ProbeCertificate:
    """Certified lower bound for |[b, T]| from a separated cube pair.

    The partner cube is Q shifted by 3 sidelengths along every axis, so
    dist(Q, partner) = 2 ell (times sqrt(d) on the diagonal) and the kernel
    block between them must be single-signed — otherwise ProbeRefused.
    Tested functionals: [b,T] applied to the partner indicator against the
    phase of the result on Q, and applied to a phase-modulated partner
    indicator against 1_Q.  Their sum must reproduce at least
    PROBE_FLOOR * int_Q |b - <b>_Q|, or the probe is refused as inconclusive.
    """
    dom = op.domain
    if b.domain != dom:
        raise ValueError("symbol/operator domain mismatch")
    if cube.domain != dom:
        raise ValueError("domain mismatch")
    gen = cube.generation
    limit = 2**gen
    shifted_index = tuple(i + 3 for i in cube.index)
    if any(i >= limit for i in shifted_index):
        raise ProbeRefused(f"partner of {cube.index} at generation {gen} leaves the domain")
    partner = dyadic.cube(dom, gen, shifted_index)

    cells_q = cube.flat_cells()
    cells_s = partner.flat_cells()
    block = op.block(cells_q, cells_s)
    if not (np.all(block > 0.0) or np.all(block < 0.0)):
        raise ProbeRefused("kernel block between the cubes is not sign-definite")

    n_total = dom.n**dom.d
    bflat = b.values.reshape(-1)
    vol = dom.cell_volume

    g_vals = np.zeros(n_total)
    g_vals[cells_s] = 1.0
    g = SampledFunction(dom, g_vals.reshape(dom.shape))

    comm = Commutator(b, op)
    u1 = comm.apply(g_vals)
    h_vals = np.zeros(n_total, dtype=u1.dtype)
    h_vals[cells_q] = _phase_conj(u1[cells_q])
    h = SampledFunction(dom, h_vals.reshape(dom.shape))
    pairing1 = abs(np.sum(u1[cells_q] * h_vals[cells_q]) * vol)

    mod_vals = np.zeros(n_total, dtype=np.complex128 if b.is_complex else np.float64)
    dev_s = bflat[cells_s] - bflat[cells_s].mean()
    mod_vals[cells_s] = _phase_conj(dev_s) if np.any(dev_s) else 1.0
    u2 = comm.apply(mod_vals)
    pairing2 = abs(np.sum(u2[cells_q]) * vol)

    mass = float(np.sum(np.abs(bflat[cells_q] - bflat[cells_q].mean())) * vol)
    total = pairing1 + pairing2
    if mass > 0.0 and total < PROBE_FLOOR * mass:
        raise ProbeRefused(
            f"pairings {total:.3g} fall under {PROBE_FLOOR} * oscillation mass {mass:.3g}"
        )

    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    q_prime = q / (q - 1.0)
    inv_lam = 1.0 / lamv
    certs = []
    for pairing, inp, out_vals in ((pairing1, g_vals, h_vals), (pairing2, mod_vals, g_vals)):
        den = (_flat_norm(inp, p, muv, vol) * _flat_norm(out_vals, q_prime, inv_lam, vol))
        certs.append(pairing / den if den > 0.0 else 0.0)

    sep = float(np.sqrt(dom.d) * 2.0 * cube.sidelength)
    pair = ProbePair(cube, partner, g, h, sep)
    comparability = float(total / mass) if mass > 0.0 else float("nan")
    return ProbeCertificate(float(max(certs)), pair, (float(pairing1), float(pairing2)),
                            mass, comparability)


# -- sweeps and tails ----------------------------------------------------------


def _probe_cube_for(b: SampledFunction, generation: int = 3):
    """Canonical cube maximizing mean oscillation among those whose partner fits.

    The oscillations <|b - <b>_Q|>_Q of one generation come as a table
    of dyadic._generation_blocks rows (the resolver the stopping families
    gather through), so every entry is summed in the same order as a
    per-cube reduction over flat_cells.  Mirror cubes of a symmetric
    symbol can differ in the last bits; the first maximum in np.ndindex
    order wins.
    """
    dom = b.domain
    if not 0 <= generation <= dom.m:
        raise ValueError(f"generation must be in [0, {dom.m}]")
    g = 2**generation
    fit = g - 3  # the partner index i + 3 must stay below 2^generation
    if fit <= 0:
        return None
    blocks = dyadic._generation_blocks(b.values, generation, dom.d)
    table = np.mean(np.abs(blocks - blocks.mean(axis=-1, keepdims=True)), axis=-1)
    table = table[(slice(0, fit),) * dom.d]
    index = np.unravel_index(int(np.argmax(table)), table.shape)
    return dyadic.cube(dom, generation, index)


def _reported_norm(op: Operator, setup: ExponentSetup, mu: Weight, lam: Weight,
                   budget: int) -> NormEstimate:
    """opnorm_estimate of `op` as an experiment reports it: a zero estimate
    of an operator that does not vanish on a random vector lost its image
    to underflow (a ratio > 0 read 0), and raises NumericalError."""
    est = opnorm_estimate(op, setup.p, mu, setup.q, lam, budget=budget)
    if est.value == 0.0 and np.any(op.apply(np.random.default_rng(0).standard_normal(op.size))):
        raise NumericalError("norm ratio of a nonzero operator image underflows to 0")
    return est


def bmo_vs_norm_sweep(symbols, op: Operator, mu: Weight, lam: Weight,
                      setup: ExponentSetup, budget: int = ASCENT_RESTARTS,
                      probe_generation: int = 3) -> list:
    """One row per (id, symbol) pair: oscillation norm, commutator norm,
    probe, ratios.

    `op` is the kernel operator T (any backend); each commutator [b, T] is
    applied, never formed.  Ratio columns divide by zero as 0 (constant
    symbols produce all-zero rows); a refused probe shows up as nan rather
    than killing the sweep.  `capped` counts the ascent restarts that ran
    out of steps.
    """
    nu = bloom_weight(mu, lam, setup)
    rows = []
    for name, b in symbols:
        bmo = oscillation.bmo_norm(b, nu, setup.alpha).supremum
        est = _reported_norm(Commutator(b, op), setup, mu, lam, budget)
        cube = _probe_cube_for(b, probe_generation)
        try:
            if cube is None:
                raise ProbeRefused("no probe cube fits")
            probe = awf_lower_probe(b, op, setup.p, mu, setup.q, lam, cube).certificate
        except ProbeRefused:
            probe = float("nan")
        rows.append({
            "symbol": name,
            "bmo": bmo,
            "norm": est.value,
            "probe": probe,
            "norm_over_bmo": est.value / bmo if bmo > 0.0 else 0.0,
            "probe_over_norm": probe / est.value if est.value > 0.0 else 0.0,
            "capped": est.capped,
        })
    return rows


@dataclass
class CompactnessReport:
    eps_list: tuple
    tail_norms: tuple
    k_list: tuple
    sparse_tail_norms: tuple
    flags: set = field(default_factory=set)


def compactness_profile(b: SampledFunction, kernel: KernelSpec, setup: ExponentSetup,
                        eps_list: Sequence[float], mu: Weight, lam: Weight,
                        k_list: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
                        budget: int = ASCENT_RESTARTS) -> CompactnessReport:
    """Residual commutator norms along shrinking eps, plus sparse tails.

    For each eps the kernel is split and |[b, T_residual]| estimated; a
    vanishing sequence is the compactness signature, a floor is the
    obstruction.  The companion columns estimate the norm of the sparse
    star operator restricted to what survives splitting at threshold k.
    Flag "ascent-cap" means some estimate had restarts that ran out of steps.
    """
    dom = b.domain
    eps_list = tuple(float(e) for e in eps_list)
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValueError("eps-list must be strictly decreasing")
    if eps_list and eps_list[-1] < 4.0 * dom.h:
        raise ValueError(f"eps below resolution floor 4h = {4.0 * dom.h}")

    tails = []
    flags = set()
    for eps in eps_list:
        _, residual = split(kernel, dom, eps)
        est = _reported_norm(Commutator(b, residual), setup, mu, lam, budget)
        tails.append(est.value)
        if est.capped:
            flags.add("ascent-cap")

    root = dyadic.cube(dom, 0, (0,) * dom.d)
    family = sparse.cz_augment(b, root)
    sparse_tails, estimates = [], {}  # one estimate per distinct kept family
    for k in k_list:
        kept = sparse.split_family(family, float(k))
        if len(kept) == 0:
            sparse_tails.append(0.0)
            continue
        key = kept.entries.tobytes()
        if key not in estimates:
            estimates[key] = _reported_norm(sparse.SparseStar(b, kept), setup, mu, lam, budget)
        est = estimates[key]
        sparse_tails.append(est.value)
        if est.capped:
            flags.add("ascent-cap")
    if len(family) and not sparse_tails:
        flags.add("no-split-thresholds")
    return CompactnessReport(eps_list, tuple(tails), tuple(k_list), tuple(sparse_tails), flags)
