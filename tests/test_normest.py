"""Operator-norm estimation, separation probes, sweeps, compactness tails."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadlab import cli, dyadic, normest, sparse
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import ExponentSetup, make_weight

from oracles import (ascent_ratio, lp_norm, plain_ascent, start_vectors, unit_scaled,
                     volume)
from test_matrix_free import _weight


@pytest.fixture(scope="module")
def dom():
    return LatticeDomain(d=1, m=10, L=1.0)


@pytest.fixture(scope="module")
def unit(dom):
    return make_weight(dom, {"kind": "unit"})


@pytest.fixture(scope="module")
def hilbert_op(dom):
    return ops.assemble(ops.make_kernel("hilbert"), dom)


@pytest.fixture(scope="module")
def b_log(dom):
    return SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))


@pytest.fixture(scope="module")
def log_comm(b_log, hilbert_op):
    return ops.commutator_matrix(b_log, hilbert_op)


def plain_op(dom, matrix):
    return ops.OperatorMatrix(dom, matrix)


def norm_ratio(op, f, p, q, mu, lam):
    vol = op.domain.cell_volume
    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    flat = f.values.reshape(-1)
    num = float(np.sum((np.abs(op.matrix @ flat) * lamv) ** q) * vol) ** (1 / q)
    den = float(np.sum((np.abs(flat) * muv) ** p) * vol) ** (1 / p)
    return num / den


# -- opnorm_estimate ----------------------------------------------------------


def test_identity_norm(dom, unit):
    est = normest.opnorm_estimate(plain_op(dom, np.eye(dom.n)), 2.0, unit, 2.0, unit)
    assert est.method == "svd-exact"
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_diagonal_spike(dom, unit):
    m = np.eye(dom.n)
    m[5, 5] = 3.0
    est = normest.opnorm_estimate(plain_op(dom, m), 2.0, unit, 2.0, unit)
    assert est.value == pytest.approx(3.0, rel=1e-12)


def test_zero_operator_flag(dom, unit):
    est = normest.opnorm_estimate(plain_op(dom, np.zeros((dom.n, dom.n))),
                                  2.0, unit, 2.0, unit)
    assert est.zero_operator and est.value == 0.0 and est.witness is None


def test_constant_symbol_commutator_is_zero(dom, unit, hilbert_op):
    b = SampledFunction(dom, np.full(dom.n, 4.0))
    est = normest.opnorm_estimate(ops.commutator_matrix(b, hilbert_op),
                                  2.0, unit, 2.0, unit)
    assert est.zero_operator and est.value == 0.0


def test_estimate_guards(dom, unit):
    op = plain_op(dom, np.eye(dom.n))
    with pytest.raises(ValueError):
        normest.opnorm_estimate(op, 1.0, unit, 2.0, unit)
    with pytest.raises(ValueError):
        normest.opnorm_estimate(op, 3.0, unit, 2.0, unit)  # p > q
    with pytest.raises(ValueError):
        normest.opnorm_estimate(op, 2.0, unit, 2.0, unit, budget=0)
    other = make_weight(LatticeDomain(d=1, m=8, L=1.0), {"kind": "unit"})
    with pytest.raises(ValueError):
        normest.opnorm_estimate(op, 2.0, other, 2.0, unit)


def test_svd_homogeneity(dom, unit, log_comm):
    n1 = normest.opnorm_estimate(log_comm, 2.0, unit, 2.0, unit).value
    n5 = normest.opnorm_estimate(plain_op(dom, 5.0 * log_comm.matrix),
                                 2.0, unit, 2.0, unit).value
    assert n5 == pytest.approx(5.0 * n1, rel=1e-10)


def test_witness_reproduces_value(dom, unit, log_comm):
    est = normest.opnorm_estimate(log_comm, 2.0, unit, 2.0, unit)
    assert norm_ratio(log_comm, est.witness, 2.0, 2.0, unit, unit) == pytest.approx(
        est.value, rel=1e-10)
    asc = normest.opnorm_estimate(log_comm, 2.0, unit, 4.0, unit, budget=4)
    assert asc.method == "random-restart-ascent"
    assert norm_ratio(log_comm, asc.witness, 2.0, 4.0, unit, unit) == pytest.approx(
        asc.value, rel=1e-10)


@pytest.mark.parametrize("seed", range(20))
def test_ascent_matches_svd(seed):
    # the ascent alone, from random draws only: no start knows the weights
    dom64 = LatticeDomain(d=1, m=6, L=1.0)
    mu = make_weight(dom64, {"kind": "power", "beta": 0.5})
    lam = make_weight(dom64, {"kind": "unit"})
    m = plain_op(dom64, np.random.default_rng(seed).standard_normal((64, 64)))
    sv = normest.opnorm_estimate(m, 2.0, mu, 2.0, lam).value
    asc, _, _, _ = normest._ascent(m, start_vectors(m, normest.ASCENT_RESTARTS, 0), 2.0, 2.0,
                                   mu.values.reshape(-1), lam.values.reshape(-1),
                                   dom64.cell_volume, normest.ASCENT_ITERATIONS)
    assert asc <= sv * (1.0 + 1e-9)
    assert asc >= sv * 0.99


def test_ascent_budget_monotone(dom, unit, log_comm):
    e1 = normest.opnorm_estimate(log_comm, 2.0, unit, 4.0, unit, budget=1).value
    e8 = normest.opnorm_estimate(log_comm, 2.0, unit, 4.0, unit, budget=8).value
    assert e8 >= e1 - 1e-12


# -- separation probe ---------------------------------------------------------


def test_probe_log_certificate(dom, unit, b_log, hilbert_op):
    cube = dyadic.cube(dom, 3, (4,))  # [0, 1/4)
    cert = normest.awf_lower_probe(b_log, hilbert_op, 2.0, unit, 2.0, unit, cube)
    assert cert.certificate == pytest.approx(0.7327241811746044, rel=1e-9)
    norm = normest.opnorm_estimate(
        ops.commutator_matrix(b_log, hilbert_op), 2.0, unit, 2.0, unit).value
    assert 0.0 < cert.certificate <= norm
    assert cert.comparability >= 0.5


def test_probe_pair_geometry(dom, unit, b_log, hilbert_op):
    cube = dyadic.cube(dom, 3, (4,))
    cert = normest.awf_lower_probe(b_log, hilbert_op, 2.0, unit, 2.0, unit, cube)
    pair = cert.pair
    assert pair.partner.sidelength == pair.cube.sidelength
    assert pair.separation == pytest.approx(2.0 * pair.cube.sidelength)
    q_cells = pair.cube.flat_cells()
    s_cells = pair.partner.flat_cells()
    assert np.intersect1d(q_cells, s_cells).size == 0
    g_flat = pair.g.values.reshape(-1)
    assert np.all(g_flat[s_cells] == 1.0) and g_flat.sum() == s_cells.size
    h_flat = np.abs(pair.h.values.reshape(-1))
    assert np.all(h_flat <= 1.0 + 1e-12)
    outside = np.setdiff1d(np.arange(dom.n), q_cells)
    assert np.all(h_flat[outside] == 0.0)


def test_probe_constant_symbol(dom, unit, hilbert_op):
    cube = dyadic.cube(dom, 3, (4,))
    b = SampledFunction(dom, np.full(dom.n, 2.0))
    cert = normest.awf_lower_probe(b, hilbert_op, 2.0, unit, 2.0, unit, cube)
    assert cert.certificate == 0.0 and cert.oscillation_mass == 0.0


def test_probe_refusals(dom, unit, b_log):
    masked = ops.assemble(ops.make_kernel("hilbert"), dom,
                          window=lambda t: (t > 10.0).astype(float))
    cube = dyadic.cube(dom, 3, (4,))
    with pytest.raises(normest.ProbeRefused, match="sign-definite"):
        normest.awf_lower_probe(b_log, masked, 2.0, unit, 2.0, unit, cube)
    hilbert_op = ops.assemble(ops.make_kernel("hilbert"), dom)
    with pytest.raises(normest.ProbeRefused, match="leaves the domain"):
        normest.awf_lower_probe(b_log, hilbert_op, 2.0, unit, 2.0, unit,
                                dyadic.cube(dom, 2, (1,)))


@pytest.mark.parametrize("m", [6, 10])
def test_probe_rejects_a_cube_from_another_lattice(m):
    # An m = 6 cube names the wrong cells of an m = 8 lattice; an m = 10
    # one indexes past its end.
    dom8 = LatticeDomain(d=1, m=8, L=1.0)
    unit8 = make_weight(dom8, {"kind": "unit"})
    b = SampledFunction(dom8, np.log(np.abs(dom8.midpoints()[0])))
    op = ops.assemble(ops.make_kernel("hilbert"), dom8)
    cube = dyadic.cube(LatticeDomain(d=1, m=m, L=1.0), 3, (4,))
    with pytest.raises(ValueError, match="domain mismatch"):
        normest.awf_lower_probe(b, op, 2.0, unit8, 2.0, unit8, cube)


def test_probe_riesz_diagonal_shift():
    dom2 = LatticeDomain(d=2, m=4, L=1.0)
    unit2 = make_weight(dom2, {"kind": "unit"})
    op2 = ops.assemble(ops.make_kernel("riesz", {"j": 1}), dom2)
    mx, my = dom2.midpoints()
    b2 = SampledFunction(dom2, np.log(np.sqrt(mx**2 + my**2)))
    cube = dyadic.cube(dom2, 3, (0, 0))
    cert = normest.awf_lower_probe(b2, op2, 2.0, unit2, 2.0, unit2, cube)
    assert cert.pair.separation == pytest.approx(2.0 * np.sqrt(2.0) * cube.sidelength)
    norm = normest.opnorm_estimate(
        ops.commutator_matrix(b2, op2), 2.0, unit2, 2.0, unit2).value
    assert 0.0 < cert.certificate <= norm


# -- sweep --------------------------------------------------------------------


def test_sweep_rows_and_window(dom, unit, b_log, hilbert_op):
    mids = dom.midpoints()[0]
    bump = sample_symbol(dom, [{"kind": "bump", "center": (0.0,), "radius": 0.5}])
    family = [
        ("log", b_log),
        ("xbump", SampledFunction(dom, mids * bump.values)),
        ("holder", SampledFunction(dom, np.abs(mids) ** 0.25)),
    ]
    rows = normest.bmo_vs_norm_sweep(family, hilbert_op, unit, unit,
                                     ExponentSetup(p=2.0, q=2.0, d=1))
    assert [r["symbol"] for r in rows] == ["log", "xbump", "holder"]
    for row in rows:
        assert row["bmo"] > 0.0 and row["norm"] > 0.0
        assert 2.0 <= row["norm_over_bmo"] <= 20.0  # committed window, unit weights
        assert 0.0 < row["probe"] <= row["norm"]


def test_sweep_constant_symbol_all_zero(dom, unit, hilbert_op):
    rows = normest.bmo_vs_norm_sweep(
        [("const", SampledFunction(dom, np.full(dom.n, 3.0)))],
        hilbert_op, unit, unit, ExponentSetup(p=2.0, q=2.0, d=1))
    row = rows[0]
    assert row["bmo"] == 0.0 and row["norm"] == 0.0
    assert row["norm_over_bmo"] == 0.0 and row["probe_over_norm"] == 0.0


def test_sweep_scale_invariant_ratios(dom, unit, b_log, hilbert_op):
    setup = ExponentSetup(p=2.0, q=2.0, d=1)
    b5 = SampledFunction(dom, 5.0 * b_log.values)
    r1 = normest.bmo_vs_norm_sweep([("b", b_log)], hilbert_op, unit, unit, setup)[0]
    r5 = normest.bmo_vs_norm_sweep([("b5", b5)], hilbert_op, unit, unit, setup)[0]
    assert r5["bmo"] == pytest.approx(5.0 * r1["bmo"], rel=1e-9)
    assert r5["norm"] == pytest.approx(5.0 * r1["norm"], rel=1e-9)
    assert r5["norm_over_bmo"] == pytest.approx(r1["norm_over_bmo"], rel=1e-9)


@pytest.fixture(scope="module")
def capping():
    """d = 1, m = 6, (p, q) = (2, 3), unit weights: at budget 8 the default
    step cap stops the coordinate symbol's eps = 0.25 tail before it
    settles, and the plain ascent's |x|^0.5 restarts too."""
    dom6 = LatticeDomain(d=1, m=6, L=1.0)
    return dom6, make_weight(dom6, {"kind": "unit"}), ExponentSetup(p=2.0, q=3.0, d=1)


def test_sweep_rows_count_capped_restarts(capping, monkeypatch):
    dom6, unit6, setup = capping
    # two steps per restart: none of them settles
    monkeypatch.setattr(normest, "opnorm_estimate",
                        functools.partial(normest.opnorm_estimate, iterations=2))
    b = sample_symbol(dom6, [{"kind": "abs_power", "exponent": 0.5}])
    op = ops.Convolution(ops.make_kernel("hilbert"), dom6)
    [row] = normest.bmo_vs_norm_sweep([("half", b)], op, unit6, unit6, setup, budget=8)
    assert row["capped"] == 9  # the informed start and 8 random restarts


# -- compactness --------------------------------------------------------------


def dense_star(b, family):
    """Dense f -> sum_Q <|b - <b>_Q| f>_Q 1_Q over the family (oracle)."""
    dom = b.domain
    out = np.zeros((dom.n**dom.d,) * 2)
    flat = b.values.reshape(-1)
    for cube in family.cubes():
        cells = cube.flat_cells()
        dev = np.abs(flat[cells] - flat[cells].mean())
        out[np.ix_(cells, cells)] += dev[None, :] * (dom.cell_volume / volume(cube))
    return out


def test_sparse_tail_operator_matches_dense_star(dom, b_log):
    root = dyadic.cube(dom, 1, (1,))
    fam = sparse.cz_augment(b_log, root)
    mat = dense_star(b_log, fam)
    star = sparse.SparseStar(b_log, fam)
    rng = np.random.default_rng(6)
    f = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
    np.testing.assert_allclose(star.apply(f), mat @ f, atol=1e-12)
    np.testing.assert_allclose(star.adjoint(f), mat.T @ f, atol=1e-12)
    unit = make_weight(dom, {"kind": "unit"})
    est = normest.opnorm_estimate(star, 2.0, unit, 2.0, unit)
    assert est.value == pytest.approx(np.linalg.svd(mat, compute_uv=False)[0], rel=1e-10)


@pytest.fixture(scope="module")
def m8():
    dom = LatticeDomain(d=1, m=8, L=1.0)
    return dom, make_weight(dom, {"kind": "unit"}), ops.make_kernel("hilbert")


def test_compactness_dichotomy(m8):
    dom, unit8, kernel = m8
    setup = ExponentSetup(p=2.0, q=2.0, d=1)
    eps = [2**-1, 2**-2, 2**-3, 2**-4, 2**-5]
    smooth = sample_symbol(dom, [{"kind": "bump", "center": (0.0,), "radius": 0.5}])
    blog = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    rep_s, rep_l = normest.compactness_profile([("smooth", smooth), ("log", blog)], kernel,
                                               setup, eps, unit8, unit8)
    # committed fixtures: observed 0.123 and 0.436 at this resolution
    assert rep_s.tail_norms[-1] <= 0.25 * rep_s.tail_norms[0]
    assert rep_l.tail_norms[-1] >= 0.4 * rep_l.tail_norms[0]
    # sparse analog: the smooth tail empties outright, the log tail floors
    assert rep_s.sparse_tail_norms[-1] == 0.0
    assert rep_l.sparse_tail_norms[-1] >= 0.25 * rep_l.sparse_tail_norms[0]


def test_compactness_constant_symbol(m8):
    dom, unit8, kernel = m8
    [rep] = normest.compactness_profile(
        [("c", SampledFunction(dom, np.full(dom.n, 1.5)))], kernel,
        ExponentSetup(p=2.0, q=2.0, d=1), [0.5, 0.25], unit8, unit8)
    assert rep.tail_norms == (0.0, 0.0)
    assert all(v == 0.0 for v in rep.sparse_tail_norms)


def test_compactness_flags_capped_ascent(capping):
    dom6, unit6, setup = capping
    b = sample_symbol(dom6, [{"kind": "coordinate"}])
    [rep] = normest.compactness_profile([("x", b)], ops.make_kernel("hilbert"), setup,
                                        (0.5, 0.25), unit6, unit6, k_list=(1.0,), budget=8)
    assert rep.flags == {"ascent-cap"}


def test_compactness_eps_guards(m8):
    dom, unit8, kernel = m8
    b = SampledFunction(dom, dom.midpoints()[0].copy())
    setup = ExponentSetup(p=2.0, q=2.0, d=1)
    with pytest.raises(ValueError, match="decreasing"):
        normest.compactness_profile([("x", b)], kernel, setup, [0.25, 0.5], unit8, unit8)
    with pytest.raises(ValueError, match="resolution"):
        normest.compactness_profile([("x", b)], kernel, setup, [0.5, dom.h], unit8, unit8)


# -- batched ascent against the per-restart loop -------------------------------


def ascent_rows(op, p, mu, q, lam, budget, iterations, seed, informed=True):
    """The Anderson-mixed ascent as a loop over restarts, one row through
    the operator at a time (the informed start first unless `informed` is
    False): per restart (ratios, steps, witness cells), where `ratios` holds
    the start's ratio and then the ratio after each step.  Every stepped
    iterate is divided by its own p-norm, so a step's ratio is the image's
    q-norm alone."""
    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    vol = op.domain.cell_volume
    lam_q = lamv**q
    mu_p = muv**p
    inv_p1 = 1.0 / (p - 1.0)
    for flat in start_vectors(op, budget, seed, (mu, lam) if informed else None):
        image = op.apply(flat)
        ratios, steps = [ascent_ratio(flat, image, p, q, muv, lamv, vol)], 0
        prev, history = 0.0, None
        for _ in range(iterations):
            steps += 1
            top = float(np.max(np.abs(image)))
            if top == 0.0:
                break
            src = unit_scaled(image, top, q)
            grad = op.adjoint(lam_q * np.abs(src) ** (q - 2.0) * src)
            gm = np.abs(grad)
            top = float(np.max(gm))
            if top == 0.0:
                break
            plain = np.sign(grad) * (unit_scaled(gm, top, inv_p1) / mu_p) ** inv_p1
            plain = plain / lp_norm(plain, p, muv, vol)
            resid = plain - flat
            flat, mixed = plain, False
            if history is not None:
                f_prev, g_prev = history
                df = resid - f_prev
                den = np.einsum("i,i->", df.conj(), df).real
                if den > 0.0:
                    gamma = np.einsum("i,i->", df.conj(), resid) / den
                    x = plain - gamma * (plain - g_prev)
                    flat, mixed = x / lp_norm(x, p, muv, vol), True
            image = op.apply(flat)
            cur = lp_norm(image, q, lamv, vol)
            history = (resid, plain)
            if mixed and not cur - prev > 1e-13 * cur:
                flat, history = plain, None
                image = op.apply(flat)
                cur = lp_norm(image, q, lamv, vol)
            ratios.append(cur)
            if abs(cur - prev) <= 1e-13 * cur:
                break
            prev = cur
        yield ratios, steps, flat


def ascent_oracle(op, p, mu, q, lam, budget, iterations, seed, informed=True):
    """Best restart of ascent_rows by the full ratio of its last iterate,
    both norms taken: (value, iterations used, witness cells or None)."""
    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    best_val, best_flat, used = 0.0, None, 0
    for _, steps, flat in ascent_rows(op, p, mu, q, lam, budget, iterations, seed, informed):
        used += steps
        value = ascent_ratio(flat, op.apply(flat), p, q, muv, lamv, op.domain.cell_volume)
        if value > best_val:
            best_val, best_flat = value, flat
    return best_val, used, best_flat


class _Gated(ops.Operator):
    """Zero on rows whose first cell has real part <= 0, identity on the
    rest (nan rows included); the adjoint gates on the second cell the same
    way.  Not linear, but the ascent only applies it: random restarts leave
    the batch through the zero-image and the zero-gradient exits."""

    def __init__(self, domain):
        self.domain = domain

    def _apply(self, x):
        return np.where(x.real[..., :1] <= 0.0, 0.0, x)

    def _adjoint(self, x):
        return np.where(x.real[..., 1:2] <= 0.0, 0.0, x)


def ascent_operator(kind, d, complex_symbol):
    dom = LatticeDomain(d=d, m=6 if d == 1 else 3, L=1.0)
    kernel = ops.make_kernel("hilbert") if d == 1 else ops.make_kernel("riesz", {"j": 1})
    mids = dom.midpoints()
    values = np.log(np.sqrt(sum(x**2 for x in mids)))
    b = SampledFunction(dom, values + 1j * mids[0] if complex_symbol else values)
    if kind == "convolution":
        return ops.Commutator(b, ops.Convolution(kernel, dom))
    if kind == "split":  # chi = 1 on every cell at d = 1, not at d = 2
        return ops.Commutator(b, ops.split(kernel, dom, 0.5)[1])
    if kind == "dense":
        return ops.commutator_matrix(b, ops.assemble(kernel, dom))
    if kind == "sparse":
        root = dyadic.cube(dom, 0, (0,) * d)
        return sparse.SparseStar(b, sparse.cz_augment(b, root))
    return _Gated(dom)


@pytest.mark.parametrize("iterations", [0, 1, 200])
@pytest.mark.parametrize("budget", [1, 3, 8])
@pytest.mark.parametrize("d, complex_symbol", [(1, False), (1, True), (2, False), (2, True)])
@pytest.mark.parametrize("kind", ["convolution", "split", "dense", "sparse", "gated"])
@pytest.mark.parametrize("p, q", [(2.0, 3.0), (1.5, 1.75)])  # q < 2: 0 ** (q - 2) is inf
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the gated rows divide by zero
def test_batched_ascent_matches_per_restart_loop(p, q, kind, d, complex_symbol, budget,
                                                 iterations):
    op = ascent_operator(kind, d, complex_symbol)
    mu = make_weight(op.domain, {"kind": "power", "beta": 0.3})
    lam = make_weight(op.domain, {"kind": "logsmooth", "amplitude": 0.6, "seed": 1})
    est = normest.opnorm_estimate(op, p, mu, q, lam, budget=budget,
                                  iterations=iterations, seed=5)
    value, used, flat = ascent_oracle(op, p, mu, q, lam, budget, iterations, seed=5)
    assert est.method == "random-restart-ascent"
    assert (est.value, est.iterations) == (value, used)
    if flat is None:
        assert est.witness is None
    else:
        np.testing.assert_array_equal(est.witness.values.reshape(-1), flat)


@pytest.mark.parametrize("kind", ["convolution", "split", "sparse", "gated"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the gated rows divide by zero
def test_capped_counts_the_restarts_still_moving(kind, d):
    op = ascent_operator(kind, d, False)
    mu = make_weight(op.domain, {"kind": "power", "beta": 0.3})
    lam = make_weight(op.domain, {"kind": "logsmooth", "amplitude": 0.6, "seed": 1})
    runs = [normest.opnorm_estimate(op, 2.0, mu, 3.0, lam, budget=6, iterations=k, seed=5)
            for k in range(5)]
    # the restarts still moving after k steps are exactly those that take step k + 1
    assert [r.capped for r in runs[:-1]] == [
        b.iterations - a.iterations for a, b in zip(runs, runs[1:])]
    if kind != "gated":  # one step never converges: every restart is still moving
        assert runs[1].capped == 7  # the informed start and 6 random restarts


@pytest.mark.parametrize("d", [1, 2])
def test_ascent_ends_when_every_image_vanishes(d):
    # a constant symbol's star operator is zero on every row
    dom = LatticeDomain(d=d, m=6 if d == 1 else 3, L=1.0)
    b = SampledFunction(dom, np.full(dom.shape, 1.5))
    star = sparse.SparseStar(b, sparse.cz_augment(b, dyadic.cube(dom, 0, (0,) * d)))
    unit = make_weight(dom, {"kind": "unit"})
    est = normest.opnorm_estimate(star, 2.0, unit, 3.0, unit, budget=3)
    # one row-step each for the informed start and the 3 random restarts
    assert (est.value, est.iterations, est.capped, est.witness) == (0.0, 4, 0, None)


@pytest.mark.parametrize("c", [1.78e-148j, 1e150])
def test_ascent_keeps_the_norm_of_a_tiny_or_huge_operator(c):
    # at c = 1.78e-148 i every image's weighted q-norm underflows unscaled
    # (the estimate read 0.0 with no witness); at 1e150 the q-th powers overflow
    dom = LatticeDomain(d=1, m=4, L=1.0)
    unit = make_weight(dom, {"kind": "unit"})
    b = sample_symbol(dom, {"kind": "log_abs"})
    hilbert = ops.Convolution(ops.make_kernel("hilbert"), dom)
    est = normest.opnorm_estimate(ops.Commutator(SampledFunction(dom, c * b.values), hilbert),
                                  2.0, unit, 3.0, unit, budget=1)
    ref = normest.opnorm_estimate(ops.Commutator(b, hilbert), 2.0, unit, 3.0, unit, budget=1)
    assert est.witness is not None
    assert est.value == pytest.approx(abs(c) * ref.value, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_sparse_star_takes_an_empty_batch(d):
    # an empty (0, N) batch in, one out, as from the commutator
    dom = LatticeDomain(d=d, m=6 if d == 1 else 3, L=1.0)
    b = sample_symbol(dom, {"kind": "log_abs"})
    star = sparse.SparseStar(b, sparse.cz_augment(b, dyadic.cube(dom, 0, (0,) * d)))
    kernel = ops.make_kernel("hilbert") if d == 1 else ops.make_kernel("riesz", {"j": 1})
    comm = ops.Commutator(b, ops.Convolution(kernel, dom))
    empty = np.zeros((0, dom.n**d))
    for run, want in ((star.apply, comm.apply), (star.adjoint, comm.adjoint)):
        assert run(empty).shape == want(empty).shape == (0, dom.n**d)


def test_compactness_profile_estimates_each_kept_family_once(monkeypatch):
    # at d=1 m=6 the log family has 3 entries; k = 2 and k = 4 keep the same
    # 2 of them and k = 8 none, so two sparse-star ascents give all four tails
    dom = LatticeDomain(d=1, m=6, L=1.0)
    unit = make_weight(dom, {"kind": "unit"})
    b = sample_symbol(dom, {"kind": "log_abs"})
    family = sparse.cz_augment(b, dyadic.cube(dom, 0, (0,)))
    k_list = (1.0, 2.0, 4.0, 8.0)
    kept = [sparse.split_family(family, k) for k in k_list]
    fresh = tuple(normest.opnorm_estimate(sparse.SparseStar(b, f), 2.0, unit, 3.0, unit,
                                          budget=2).value if len(f) else 0.0 for f in kept)
    ops_run = []
    estimate = normest.opnorm_estimate
    monkeypatch.setattr(normest, "opnorm_estimate",
                        lambda op, *a, **kw: ops_run.append(op) or estimate(op, *a, **kw))
    [rep] = normest.compactness_profile([("log", b)], ops.make_kernel("hilbert"),
                                        ExponentSetup(2.0, 3.0, 1), (0.5,), unit, unit,
                                        k_list=k_list, budget=2)
    assert rep.sparse_tail_norms == fresh
    assert sum(isinstance(op, sparse.SparseStar) for op in ops_run) == 2


def test_capped_is_zero_when_every_restart_converges():
    op = ascent_operator("convolution", 1, False)
    mu = make_weight(op.domain, {"kind": "power", "beta": 0.3})
    lam = make_weight(op.domain, {"kind": "logsmooth", "amplitude": 0.6, "seed": 1})
    est = normest.opnorm_estimate(op, 2.0, mu, 3.0, lam)
    assert est.capped == 0
    rows = normest.ASCENT_RESTARTS + 1  # the informed start and the random restarts
    assert 0 < est.iterations < rows * normest.ASCENT_ITERATIONS
    capped = normest.opnorm_estimate(op, 2.0, mu, 3.0, lam, iterations=1)
    assert capped.capped == rows
    assert normest.opnorm_estimate(op, 2.0, mu, 2.0, lam).capped == 0  # the GKL path


# -- what the safeguarded ascent guarantees ------------------------------------


# a coefficient part is 0 or at least 1e-200: a symbol of subnormal values
# makes the commutator's own products inexact, whatever the ascent does
_PART = st.floats(-1.0, 1.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-200)


def _symbol(draw, dom):
    """A catalog symbol with real or complex coefficients, or seeded noise."""
    complex_symbol = draw(st.booleans())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 999)))
        values = rng.standard_normal(dom.shape)
        if complex_symbol:
            values = values + 1j * rng.standard_normal(dom.shape)
        return SampledFunction(dom, values)
    terms = []
    for kind in draw(st.lists(st.sampled_from(("log_abs", "abs_power", "coordinate", "bump")),
                              min_size=1, max_size=2)):
        term = {"kind": kind}
        if kind == "abs_power":
            term["exponent"] = draw(st.floats(0.1, 1.0))
        if kind == "bump":
            term["center"] = (draw(st.floats(-0.5, 0.5)),) + (0.0,) * (dom.d - 1)
            term["radius"] = draw(st.floats(0.2, 0.8))
        if complex_symbol:
            term["coefficient"] = complex(draw(_PART), draw(_PART))
        terms.append(term)
    return sample_symbol(dom, terms)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tiny symbols underflow the dual map
def test_informed_ascent_keeps_every_random_restart(data):
    # what the safeguarded ascent guarantees; ending above a differently
    # mixed run is not among it, since the ratio is not concave and two
    # paths can settle in different local maxima
    d = data.draw(st.sampled_from((1, 2)))
    dom = LatticeDomain(d=d, m=data.draw(st.integers(4, 7) if d == 1 else st.integers(3, 4)),
                        L=1.0)
    b = _symbol(data.draw, dom)
    kernel = (ops.make_kernel("hilbert") if d == 1
              else ops.make_kernel("riesz", {"j": data.draw(st.sampled_from((1, 2)))}))
    kind = data.draw(st.sampled_from(("convolution", "split", "sparse")))
    if kind == "convolution":
        op = ops.Commutator(b, ops.Convolution(kernel, dom))
    elif kind == "split":
        op = ops.Commutator(b, ops.split(kernel, dom, data.draw(st.floats(0.1, 0.9)))[1])
    else:
        op = sparse.SparseStar(b, sparse.cz_augment(b, dyadic.cube(dom, 0, (0,) * d)))
    mu, lam = _weight(data.draw, dom), _weight(data.draw, dom)
    q = data.draw(st.floats(2.0, 5.0, exclude_min=True))
    budget, seed = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 999))
    iterations = normest.ASCENT_ITERATIONS
    est = normest.opnorm_estimate(op, 2.0, mu, q, lam, budget=budget, seed=seed)
    # the random rows ride in the batch bitwise as they would alone, so the
    # informed start can only add to the best of them
    random_only, _, _ = ascent_oracle(op, 2.0, mu, q, lam, budget, iterations, seed,
                                      informed=False)
    assert est.value >= random_only
    if est.zero_operator:  # known zero: no row steps
        return
    rows = list(ascent_rows(op, 2.0, mu, q, lam, budget, iterations, seed))
    assert est.iterations == sum(steps for _, steps, _ in rows)
    for ratios, _, _ in rows:
        # on the stop rule's scale, a row's ratio never falls
        assert all(b >= a - normest.ASCENT_TOL * b for a, b in zip(ratios, ratios[1:]))
        assert est.value >= ratios[0] - normest.ASCENT_TOL * est.value


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_commutator_with_a_symbol_constant_along_its_stencil_is_zero(q):
    # a failing example of the property test above: the eps = 0.3125
    # residual of Riesz j = 2 at d=2 m=3 is nonzero only at the offsets
    # (0, +-1), along which x_0 is constant, so [x_0, T] is 0 exactly; the
    # ascent used to climb FFT round-off (images near 1e-16) for all 200
    # steps, and GKL raised NumericalError at q = 2
    dom = LatticeDomain(d=2, m=3, L=1.0)
    residual = ops.split(ops.make_kernel("riesz", {"j": 2}), dom, 0.3125)[1]
    unit = make_weight(dom, {"kind": "unit"})
    along = ops.Commutator(sample_symbol(dom, [{"kind": "coordinate", "axis": 0}]), residual)
    est = normest.opnorm_estimate(along, 2.0, unit, q, unit, budget=1, seed=0)
    assert (est.zero_operator, est.value, est.iterations) == (True, 0.0, 0)
    # x_1 changes along (0, +-1): that commutator is not zero
    across = ops.Commutator(sample_symbol(dom, [{"kind": "coordinate", "axis": 1}]), residual)
    assert not across.is_zero


def test_mixed_ascent_settles_where_the_plain_ascent_caps(capping):
    # the plain ascent takes all 8 * 200 steps here and caps every restart
    dom6, unit6, _ = capping
    b = sample_symbol(dom6, [{"kind": "abs_power", "exponent": 0.5}])
    op = ops.Commutator(b, ops.Convolution(ops.make_kernel("hilbert"), dom6))
    est = normest.opnorm_estimate(op, 2.0, unit6, 3.0, unit6, budget=8)
    assert est.capped == 0
    assert est.iterations <= 200
    value, used, _ = plain_ascent(op, 2.0, unit6, 3.0, unit6, 8, normest.ASCENT_ITERATIONS, 0)
    assert used == 8 * normest.ASCENT_ITERATIONS
    assert est.value >= value


# -- the informed start at the default budget ----------------------------------

_GRID_SYMBOLS = {"log": {"kind": "log_abs"}, "h25": {"kind": "abs_power", "exponent": 0.25},
                 "h5": {"kind": "abs_power", "exponent": 0.5}, "x": {"kind": "coordinate"},
                 "bump": {"kind": "bump", "radius": 0.3}}


def _grid_cases():
    """d/m/weights/symbol/operator/q: Hilbert d=1 m=8 and Riesz j=1 d=2 m=5,
    unit and bench weights, five symbols, the full commutator and its split
    residuals, q in {3, 4}.  At d=2 m=5 the eps = 1/32 residual is the zero
    operator, and the unit-weight eps = 1/2 cases take about half the
    grid's time (the x ones 2 s), so both are left out."""
    for d, m in ((1, 8), (2, 5)):
        for weights in ("unit", "bench"):
            for symbol in _GRID_SYMBOLS:
                for part in ("full", "e2", "e32") if d == 1 else ("full", "e2"):
                    if (d, weights, part) != (2, "unit", "e2"):
                        yield from (f"{d}/{m}/{weights}/{symbol}/{part}/{q}" for q in (3.0, 4.0))


@functools.cache
def _grid_lattice(d, m):
    dom = LatticeDomain(d=d, m=m, L=1.0)
    kernel = ops.make_kernel("hilbert") if d == 1 else ops.make_kernel("riesz", {"j": 1})
    weights = {"unit": (make_weight(dom, {"kind": "unit"}),) * 2,
               "bench": (make_weight(dom, {"kind": "power", "beta": 0.3}),
                         make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 3,
                                           "seed": 0}))}
    parts = {"full": ops.Convolution(kernel, dom), "e2": ops.split(kernel, dom, 0.5)[1],
             "e32": ops.split(kernel, dom, 1 / 32)[1]}
    symbols = {name: sample_symbol(dom, [term]) for name, term in _GRID_SYMBOLS.items()}
    return weights, parts, symbols


@pytest.mark.parametrize("case", list(_grid_cases()))
def test_default_budget_reaches_the_budget_8_value(case):
    # the informed start plus ASCENT_RESTARTS random restarts; random
    # restarts alone at budget 3 end 42% short on 1/8/bench/x/e32/4.0
    d, m, weights, symbol, part, q = case.split("/")
    weight_table, parts, symbols = _grid_lattice(int(d), int(m))
    (mu, lam), op = weight_table[weights], ops.Commutator(symbols[symbol], parts[part])
    est = normest.opnorm_estimate(op, 2.0, mu, float(q), lam)
    wide = normest.opnorm_estimate(op, 2.0, mu, float(q), lam, budget=8)
    assert est.value >= (1.0 - 1e-9) * wide.value


# -- fast paths against their slow forms ---------------------------------------


def _pow2_rows(draw, rows, scales):
    """Seeded real or complex rows, each scaled by a drawn power of two."""
    rng = np.random.default_rng(draw(st.integers(0, 999)))
    n = draw(st.integers(1, 64))
    flat = rng.standard_normal((rows, n))
    if draw(st.booleans()):
        flat = flat + 1j * rng.standard_normal((rows, n))
    exps = draw(st.lists(st.sampled_from(scales) | st.integers(-1000, 1000),
                         min_size=rows, max_size=rows))
    return np.stack([normest._times_pow2(row, e) for row, e in zip(flat, exps)]), rng


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_flat_norm_rows_are_the_power_formula_alone(data):
    # the in-place powers (at p = 2 a product) are bitwise mags**p, and a
    # row rides in a batch as it would alone, on the range path too
    # (|e| * p > 900, or an all-zero row)
    rows = data.draw(st.integers(1, 5))
    flat, rng = _pow2_rows(data.draw, rows, (0, 400, -400, 700, -700, 1000, -1000))
    if data.draw(st.booleans()):
        flat[data.draw(st.integers(0, rows - 1))] = 0.0
    wvals = rng.uniform(0.25, 4.0, flat.shape[1])
    vol = 2.0 ** -data.draw(st.integers(0, 10))
    p = data.draw(st.sampled_from((2.0, 3.0, 1.5)))
    batch = normest._flat_norm(flat, p, wvals, vol)
    for i, row in enumerate(flat):
        with np.errstate(over="ignore"):  # the oracle's first sum of a huge row overflows
            alone = lp_norm(row, p, wvals, vol)
        assert batch[i] == normest._flat_norm(row, p, wvals, vol) == alone


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_real_plain_step_at_p_2_is_the_sign_formula(data):
    # rows scaled by 2^+-950 take the range path of _unit_rows
    rows = data.draw(st.integers(1, 4))
    grad, rng = _pow2_rows(data.draw, rows, (0, 950, -950))
    grad = grad.real * (rng.random(grad.shape) < 0.8)  # some exact zeros
    grad[:, 0] = 1.0  # no row vanishes: a zero gradient stops its row first
    gm = np.abs(grad)
    top = np.max(gm, axis=-1)
    mu_p = rng.uniform(0.25, 4.0, grad.shape[1]) ** 2.0
    slow = np.sign(grad) * (normest._unit_rows(gm, top, 1.0) / mu_p) ** 1.0
    np.testing.assert_array_equal(normest._plain_step(grad, gm, top, mu_p, 2.0), slow)


def test_gkl_grows_its_bases_and_settles_on_the_dense_svd():
    # 40 singular values within 1% of the top keep GKL going for all 64
    # steps, past the 16 and 32 basis rows it holds before growing
    dom = LatticeDomain(d=1, m=6, L=1.0)
    sing = np.concatenate([1.0 - 1e-2 * np.linspace(0.0, 1.0, 40), np.linspace(0.5, 0.0, 24)])
    op = ops.OperatorMatrix(dom, np.diag(sing))
    start = np.random.default_rng(0).standard_normal(dom.n)
    sigma, _, _, steps, settled = normest._gkl_top(op.apply, op.adjoint, start)
    top = np.linalg.svd(op.matrix, compute_uv=False)[0]
    assert settled and steps > 32
    assert abs(sigma - top) <= 1e-13 * top


# -- work counters -------------------------------------------------------------


def test_dense_compactness_profile_work_stays_within_its_counts(tmp_path, monkeypatch):
    # a deterministic guard beside the timed benchmark: the compactness
    # profile of its dense workload (Hilbert d=1 m=10, p=2, q=3, its
    # weights at seed 0) may not take more weighted norms, commutator
    # applies or adjoints, or ascent row-steps than these
    bounds = {"flat_norm": 827, "apply": 315, "adjoint": 229, "row_steps": 653}
    counts = dict.fromkeys(bounds, 0)

    def counted(owner, name, key):
        inner = getattr(owner, name)

        def run(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, run)

    counted(normest, "_flat_norm", "flat_norm")
    counted(ops.Commutator, "_apply", "apply")
    counted(ops.Commutator, "_adjoint", "adjoint")
    estimate = normest.opnorm_estimate

    def stepped(*args, **kwargs):
        est = estimate(*args, **kwargs)
        counts["row_steps"] += est.iterations
        return est
    monkeypatch.setattr(normest, "opnorm_estimate", stepped)
    cfg = {
        "experiment": "compactness-profile",
        "domain": {"d": 1, "m": 10, "L": 1.0},
        "exponents": {"p": 2.0, "q": 3.0},
        "weights": {"mu": {"kind": "power", "beta": 0.3},
                    "lambda": {"kind": "logsmooth", "amplitude": 0.6, "modes": 3, "seed": 0}},
        "symbols": [{"id": "log", "terms": [{"kind": "log_abs"}]},
                    {"id": "holder", "terms": [{"kind": "abs_power", "exponent": 0.25}]}],
        "kernel": {"variant": "hilbert"},
    }
    assert cli.run(cfg, out_dir=tmp_path / "out") == 0
    assert all(0 < counts[key] <= bound for key, bound in bounds.items()), counts
