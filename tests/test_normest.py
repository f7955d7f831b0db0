"""Operator-norm estimation, separation probes, sweeps, compactness tails."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadlab import dyadic, normest, sparse
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import ExponentSetup, make_weight

from oracles import ascent_ratio, lp_norm, plain_ascent, start_vectors, volume
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
    with pytest.raises(ValueError):
        normest.opnorm_estimate(op, 2.0, unit, 3.0, unit, method="svd")
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
    dom64 = LatticeDomain(d=1, m=6, L=1.0)
    mu = make_weight(dom64, {"kind": "power", "beta": 0.5})
    lam = make_weight(dom64, {"kind": "unit"})
    m = plain_op(dom64, np.random.default_rng(seed).standard_normal((64, 64)))
    sv = normest.opnorm_estimate(m, 2.0, mu, 2.0, lam, method="svd").value
    asc = normest.opnorm_estimate(m, 2.0, mu, 2.0, lam, method="ascent").value
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
    assert row["capped"] == 8


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
    rep_s = normest.compactness_profile(smooth, kernel, setup, eps, unit8, unit8)
    rep_l = normest.compactness_profile(blog, kernel, setup, eps, unit8, unit8)
    # committed fixtures: observed 0.123 and 0.436 at this resolution
    assert rep_s.tail_norms[-1] <= 0.25 * rep_s.tail_norms[0]
    assert rep_l.tail_norms[-1] >= 0.4 * rep_l.tail_norms[0]
    # sparse analog: the smooth tail empties outright, the log tail floors
    assert rep_s.sparse_tail_norms[-1] == 0.0
    assert rep_l.sparse_tail_norms[-1] >= 0.25 * rep_l.sparse_tail_norms[0]


def test_compactness_constant_symbol(m8):
    dom, unit8, kernel = m8
    rep = normest.compactness_profile(
        SampledFunction(dom, np.full(dom.n, 1.5)), kernel,
        ExponentSetup(p=2.0, q=2.0, d=1), [0.5, 0.25], unit8, unit8)
    assert rep.tail_norms == (0.0, 0.0)
    assert all(v == 0.0 for v in rep.sparse_tail_norms)


def test_compactness_flags_capped_ascent(capping):
    dom6, unit6, setup = capping
    b = sample_symbol(dom6, [{"kind": "coordinate"}])
    rep = normest.compactness_profile(b, ops.make_kernel("hilbert"), setup, (0.5, 0.25),
                                      unit6, unit6, k_list=(1.0,), budget=8)
    assert rep.flags == {"ascent-cap"}


def test_compactness_eps_guards(m8):
    dom, unit8, kernel = m8
    b = SampledFunction(dom, dom.midpoints()[0].copy())
    setup = ExponentSetup(p=2.0, q=2.0, d=1)
    with pytest.raises(ValueError, match="decreasing"):
        normest.compactness_profile(b, kernel, setup, [0.25, 0.5], unit8, unit8)
    with pytest.raises(ValueError, match="resolution"):
        normest.compactness_profile(b, kernel, setup, [0.5, dom.h], unit8, unit8)


# -- batched ascent against the per-restart loop -------------------------------


def ascent_oracle(op, p, mu, q, lam, budget, iterations, seed):
    """The Anderson-mixed ascent as a loop over restarts, one row through
    the operator at a time: (value, iterations used, witness cells or None)."""
    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    vol = op.domain.cell_volume
    lam_q = lamv**q
    mu_p = muv**p
    inv_p1 = 1.0 / (p - 1.0)
    best_val, best_flat, used = 0.0, None, 0
    for flat in start_vectors(op, budget, seed):
        image = op.apply(flat)
        prev, history = 0.0, None
        for _ in range(iterations):
            used += 1
            mag = np.abs(image)
            if not np.any(mag):
                break
            grad = op.adjoint(lam_q * mag ** (q - 2.0) * image)
            gm = np.abs(grad)
            if not np.any(gm):
                break
            plain = np.sign(grad) * (gm / mu_p) ** inv_p1
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
            cur = ascent_ratio(flat, image, p, q, muv, lamv, vol)
            history = (resid, plain)
            if mixed and not cur - prev > 1e-13 * max(cur, 1.0):
                flat, history = plain, None
                image = op.apply(flat)
                cur = ascent_ratio(flat, image, p, q, muv, lamv, vol)
            if abs(cur - prev) <= 1e-13 * max(cur, 1.0):
                break
            prev = cur
        val = ascent_ratio(flat, image, p, q, muv, lamv, vol)
        if val > best_val:
            best_val, best_flat = val, flat
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
        assert runs[1].capped == 6


@pytest.mark.parametrize("d", [1, 2])
def test_ascent_ends_when_every_image_vanishes(d):
    # a constant symbol's star operator is zero on every row
    dom = LatticeDomain(d=d, m=6 if d == 1 else 3, L=1.0)
    b = SampledFunction(dom, np.full(dom.shape, 1.5))
    star = sparse.SparseStar(b, sparse.cz_augment(b, dyadic.cube(dom, 0, (0,) * d)))
    unit = make_weight(dom, {"kind": "unit"})
    est = normest.opnorm_estimate(star, 2.0, unit, 3.0, unit, budget=3)
    assert (est.value, est.iterations, est.capped, est.witness) == (0.0, 3, 0, None)


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
    rep = normest.compactness_profile(b, ops.make_kernel("hilbert"), ExponentSetup(2.0, 3.0, 1),
                                      (0.5,), unit, unit, k_list=k_list, budget=2)
    assert rep.sparse_tail_norms == fresh
    assert sum(isinstance(op, sparse.SparseStar) for op in ops_run) == 2


def test_capped_is_zero_when_every_restart_converges():
    op = ascent_operator("convolution", 1, False)
    mu = make_weight(op.domain, {"kind": "power", "beta": 0.3})
    lam = make_weight(op.domain, {"kind": "logsmooth", "amplitude": 0.6, "seed": 1})
    est = normest.opnorm_estimate(op, 2.0, mu, 3.0, lam)
    assert est.capped == 0
    assert 0 < est.iterations < normest.ASCENT_RESTARTS * normest.ASCENT_ITERATIONS
    capped = normest.opnorm_estimate(op, 2.0, mu, 3.0, lam, iterations=1)
    assert capped.capped == normest.ASCENT_RESTARTS
    assert normest.opnorm_estimate(op, 2.0, mu, 2.0, lam).capped == 0  # the GKL path


# -- the mixed ascent against the plain ascent ---------------------------------


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
            term["center"] = (draw(st.floats(-0.5, 0.5)),)
            term["radius"] = draw(st.floats(0.2, 0.8))
        if complex_symbol:
            term["coefficient"] = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
        terms.append(term)
    return sample_symbol(dom, terms)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # tiny symbols underflow the dual map
def test_mixed_ascent_never_ends_below_the_plain_ascent(data):
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
    est = normest.opnorm_estimate(op, 2.0, mu, q, lam, budget=budget, seed=seed)
    value, _, _ = plain_ascent(op, 2.0, mu, q, lam, budget, normest.ASCENT_ITERATIONS, seed)
    # on the stop rule's own scale: relative above 1, absolute below
    assert est.value >= value - 1e-12 * max(value, 1.0)


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
