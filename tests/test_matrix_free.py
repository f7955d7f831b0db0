"""Matrix-free operators and the Lanczos norm path against their dense oracles.

Each fast path is compared on random inputs with its dense reference:
Convolution with assemble, Commutator with commutator_matrix, split with
decompose, and the GKL top singular value with np.linalg.svd, for the
named kernels and for random odd and even custom kernels.
Tolerances are relative to a scale that bounds every output entry, so
cancellation in b Tf - T(bf) cannot hide behind a small entry.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyadlab import normest
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.weights import make_weight

SETTINGS = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def lattices(draw, max_m=(7, 4)):
    """(domain, kernel): Hilbert at d = 1 or a Riesz component at d = 2."""
    d = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(2, max_m[d - 1]))
    dom = LatticeDomain(d=d, m=m, L=draw(st.sampled_from((0.5, 1.0, 3.0))))
    if d == 1:
        return dom, ops.make_kernel("hilbert")
    return dom, ops.make_kernel("riesz", {"j": draw(st.sampled_from((1, 2)))})


@st.composite
def windows(draw, dom):
    kind = draw(st.sampled_from(("none", "bump", "annulus")))
    if kind == "none":
        return None
    width = dom.width * np.sqrt(dom.d)
    a = draw(st.floats(0.0, width))
    b = a + draw(st.floats(dom.h / 4, width))
    if kind == "bump":
        return ops.Bump(a, b).value
    return ops.annulus(a + dom.h / 8, b + dom.h / 8)


def cells(draw, dom, complex_values):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = rng.standard_normal(dom.n**dom.d)
    if complex_values:
        f = f + 1j * rng.standard_normal(f.size)
    return f


def bound(matrix, f):
    """Max over rows of sum_j |A_ij| |f_j|: no entry of A f exceeds it."""
    return max(float(np.max(np.abs(matrix) @ np.abs(f))), 1e-300)


@SETTINGS
@given(data=st.data())
def test_convolution_matches_dense_assembly(data):
    dom, kernel = data.draw(lattices())
    window = data.draw(windows(dom))
    dense = ops.assemble(kernel, dom, window=window).matrix
    conv = ops.Convolution(kernel, dom, window=window)
    f = cells(data.draw, dom, data.draw(st.booleans()))
    g = cells(data.draw, dom, data.draw(st.booleans()))
    assert np.max(np.abs(conv.apply(f) - dense @ f)) <= 1e-12 * bound(dense, f)
    adj = dense.conj().T
    assert np.max(np.abs(conv.adjoint(g) - adj @ g)) <= 1e-12 * bound(adj, g)
    scale = float(np.abs(g) @ np.abs(dense) @ np.abs(f))
    lhs = np.vdot(g, conv.apply(f))
    rhs = np.vdot(conv.adjoint(g), f)
    assert abs(lhs - rhs) <= 1e-12 * max(scale, 1e-300)
    rows = np.arange(0, dom.n**dom.d, 3)
    cols = np.arange(1, dom.n**dom.d, 2)
    np.testing.assert_allclose(conv.block(rows, cols), dense[np.ix_(rows, cols)],
                               rtol=1e-12, atol=1e-12 * float(np.max(np.abs(dense), initial=0.0)))
    batch = np.stack([f, g])
    np.testing.assert_array_equal(conv.apply(batch)[1], conv.apply(g))


@SETTINGS
@given(data=st.data())
def test_commutator_and_split_match_dense(data):
    dom, kernel = data.draw(lattices(max_m=(7, 3)))
    b = SampledFunction(dom, cells(data.draw, dom, data.draw(st.booleans()))
                        .reshape(dom.shape))
    f = cells(data.draw, dom, data.draw(st.booleans()))
    base = ops.assemble(kernel, dom)
    dense = ops.commutator_matrix(b, base).matrix
    comm = ops.Commutator(b, ops.Convolution(kernel, dom))
    # b Tf - T(bf) cancels against entries of size |b| |A| |f|
    scale = 2.0 * float(np.max(np.abs(b.values))) * bound(base.matrix, f)
    assert np.max(np.abs(comm.apply(f) - dense @ f)) <= 1e-12 * scale
    assert np.max(np.abs(comm.adjoint(f) - dense.conj().T @ f)) <= 1e-12 * scale

    eps = data.draw(st.floats(0.05, 0.95))
    for fast, slow in zip(ops.split(kernel, dom, eps), ops.decompose(kernel, dom, eps)):
        assert np.max(np.abs(fast.apply(f) - slow.matrix @ f)) <= 1e-12 * bound(base.matrix, f)
        adj = slow.matrix.T
        assert np.max(np.abs(fast.adjoint(f) - adj @ f)) <= 1e-12 * bound(base.matrix, f)


def _weight(draw, dom):
    kind = draw(st.sampled_from(("unit", "power", "logsmooth")))
    if kind == "power":
        return make_weight(dom, {"kind": "power", "beta": draw(st.floats(-0.4, 0.6))})
    if kind == "logsmooth":
        return make_weight(dom, {"kind": "logsmooth", "amplitude": 0.8,
                                 "seed": draw(st.integers(0, 99))})
    return make_weight(dom, {"kind": "unit"})


def assert_gkl_matches_svd(dom, kernel, mu, lam, b):
    comm = ops.Commutator(b, ops.Convolution(kernel, dom))
    est = normest.opnorm_estimate(comm, 2.0, mu, 2.0, lam)
    muv, lamv = mu.values.reshape(-1), lam.values.reshape(-1)
    dense = ops.commutator_matrix(b, ops.assemble(kernel, dom)).matrix
    sigma = np.linalg.svd(lamv[:, None] * dense / muv[None, :], compute_uv=False)[0]
    assert est.method == "svd-exact"
    assert est.value == pytest.approx(sigma, rel=1e-10)
    assert est.residual <= normest.GKL_TOL * est.value


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_gkl_matches_dense_svd(data):
    dom, kernel = data.draw(lattices(max_m=(9, 4)))
    b = SampledFunction(dom, cells(data.draw, dom, data.draw(st.booleans())).reshape(dom.shape))
    assert_gkl_matches_svd(dom, kernel, _weight(data.draw, dom), _weight(data.draw, dom), b)


def test_gkl_matches_dense_svd_at_largest_oracle_size():
    dom = LatticeDomain(d=1, m=11, L=1.0)  # N = 2^11
    mids = dom.midpoints()[0]
    assert_gkl_matches_svd(
        dom, ops.make_kernel("hilbert"),
        make_weight(dom, {"kind": "power", "beta": 0.3}),
        make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "seed": 4}),
        SampledFunction(dom, np.log(np.abs(mids)) + 1j * mids),
    )


@SETTINGS
@given(data=st.data())
def test_short_stencils_match_dense_assembly(data):
    # A Bump vanishing at b = (w + u) h leaves the stencil nonzero out to
    # offset w along an axis, so the circulant is sized from n + w.
    dom, kernel = data.draw(lattices())
    w = data.draw(st.sampled_from((0, 1, 2, 3)) | st.integers(0, dom.n - 1))
    w = min(w, dom.n - 1)
    b = (w + data.draw(st.floats(0.25, 0.75))) * dom.h
    window = ops.Bump(data.draw(st.floats(0.0, 0.9)) * b, b).value
    dense = ops.assemble(kernel, dom, window=window).matrix
    conv = ops.Convolution(kernel, dom, window=window)
    f = cells(data.draw, dom, data.draw(st.booleans()))
    assert np.max(np.abs(conv.apply(f) - dense @ f)) <= 1e-12 * bound(dense, f)
    adj = dense.conj().T
    assert np.max(np.abs(conv.adjoint(f) - adj @ f)) <= 1e-12 * bound(adj, f)
    assert conv._reach == w and conv.is_zero == (w == 0)
    assert dom.n + w <= conv._side <= 2 * dom.n


@pytest.mark.parametrize("d, m", [(1, 3), (1, 6), (2, 3)])
def test_full_support_convolution_keeps_side_2n(d, m):
    # at n = 8, n + w = 2n - 1 = 15 is itself 2,3,5-smooth
    dom = LatticeDomain(d=d, m=m, L=1.0)
    kernel = ops.make_kernel("hilbert") if d == 1 else ops.make_kernel("riesz", {"j": 1})
    conv = ops.Convolution(kernel, dom)
    assert conv._reach == dom.n - 1 and conv._side == 2 * dom.n


def test_chi_one_residual_circulant_shrinks_with_eps():
    dom = LatticeDomain(d=1, m=10, L=1.0)
    kernel = ops.make_kernel("hilbert")
    sides = [ops.split(kernel, dom, eps)[1]._side for eps in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
    assert sides == [1280, 1152, 1125, 1080, 1080]


@pytest.mark.parametrize("side", [8, 9, 12, 15, 16, 20])
def test_pruned_2d_transforms_match_the_full_pair_bitwise(side):
    dom = LatticeDomain(d=2, m=3, L=1.0)
    conv = ops.Convolution(ops.make_kernel("riesz", {"j": 1}), dom)
    rng = np.random.default_rng(side)
    spectrum = rng.standard_normal((side, side // 2 + 1)) + 1j * rng.standard_normal(
        (side, side // 2 + 1))
    x = rng.standard_normal((3, dom.n**2))
    s, axes = (side, side), (-2, -1)
    full = np.fft.irfftn(np.fft.rfftn(x.reshape(3, dom.n, dom.n), s=s, axes=axes) * spectrum,
                         s=s, axes=axes)[:, :dom.n, :dom.n]
    np.testing.assert_array_equal(conv._convolve(x, spectrum, side), full.reshape(3, -1))


def test_constant_symbol_commutator_is_structurally_zero():
    dom = LatticeDomain(d=2, m=3, L=1.0)
    conv = ops.Convolution(ops.make_kernel("riesz", {"j": 2}), dom)
    comm = ops.Commutator(SampledFunction(dom, np.full(dom.shape, 1.7)), conv)
    f = np.random.default_rng(3).standard_normal(dom.n**2)
    assert comm.is_zero
    assert not np.any(comm.apply(f)) and not np.any(comm.adjoint(f))
    unit = make_weight(dom, {"kind": "unit"})
    est = normest.opnorm_estimate(comm, 2.0, unit, 3.0, unit)
    assert est.zero_operator and est.value == 0.0


@pytest.mark.parametrize("d, eps, spectra", [
    (1, 0.5, 1), (1, 0.03125, 1),  # chi = 1 on every cell: the residual is T - W
    (1, 0.75, 2), (2, 0.5, 2),     # chi < 1 near the edge: f and chi f both go through
])
def test_split_residual_branches_match_decompose(d, eps, spectra):
    dom = LatticeDomain(d=d, m=7 if d == 1 else 4, L=1.0)
    kernel = ops.make_kernel("hilbert") if d == 1 else ops.make_kernel("riesz", {"j": 2})
    rng = np.random.default_rng(11)
    f = rng.standard_normal((2, dom.n**d)) + 1j * rng.standard_normal((2, dom.n**d))
    compact, residual = ops.split(kernel, dom, eps)
    if spectra == 1:  # T - W as one convolution in a circulant shorter than 2n
        assert isinstance(residual, ops.Convolution) and residual._side < 2 * dom.n
    else:
        assert isinstance(residual, ops.SplitPart) and len(residual._spectra) == 2
    base = ops.assemble(kernel, dom).matrix
    scale = max(bound(base, row) for row in f)
    for fast, slow in zip((compact, residual), ops.decompose(kernel, dom, eps)):
        for run, matrix in ((fast.apply, slow.matrix), (fast.adjoint, slow.matrix.T)):
            batch = run(f)
            assert np.max(np.abs(batch - f @ matrix.T)) <= 1e-12 * scale
            np.testing.assert_array_equal(batch[1], run(f[1]))


def test_split_reads_windows_off_a_wide_domain():
    # L = 8 puts most cells outside supp(chi), so the residual is more than T - W
    dom = LatticeDomain(d=1, m=7, L=8.0)
    kernel = ops.make_kernel("hilbert")
    f = np.random.default_rng(5).standard_normal(dom.n)
    compact, residual = ops.split(kernel, dom, 0.25)
    t_c, t_eps = ops.decompose(kernel, dom, 0.25)
    scale = float(np.abs(ops.assemble(kernel, dom).matrix).sum(axis=1).max())
    np.testing.assert_allclose(compact.apply(f), t_c.matrix @ f, atol=1e-12 * scale)
    np.testing.assert_allclose(residual.apply(f), t_eps.matrix @ f, atol=1e-12 * scale)


def test_split_needs_eps_in_unit_interval():
    dom = LatticeDomain(d=1, m=5, L=1.0)
    with pytest.raises(ValueError):
        ops.split(ops.make_kernel("hilbert"), dom, 1.0)


@st.composite
def offset_kernels(draw, dom):
    """A custom kernel s(z) (a + c cos(w |z|)) / |z|^d of the offset z:
    odd with s(z) = z_i / |z|, even with s(z) = 1 or, at d = 2,
    (z_1^2 - z_2^2) / |z|^2; |s| <= 1 gives the size constant |a| + |c|."""
    a, c, w = draw(st.floats(-2, 2)), draw(st.floats(-2, 2)), draw(st.floats(0, 20))
    shape = draw(st.sampled_from(("odd", "even", "even-quadrupole")))
    axis = draw(st.integers(0, dom.d - 1))

    def evaluator(z):
        r = np.sqrt(np.sum(z**2, axis=-1))
        if shape == "odd":
            s = z[..., axis] / r
        elif shape == "even" or dom.d == 1:
            s = 1.0
        else:
            s = (z[..., 0] ** 2 - z[..., 1] ** 2) / r**2
        return s * (a + c * np.cos(w * r)) / r**dom.d

    return ops.make_kernel("custom", {"evaluator": evaluator, "C": abs(a) + abs(c),
                                      "domain": dom})


@SETTINGS
@given(data=st.data())
def test_offset_kernels_run_on_convolution_and_split(data):
    dom, _ = data.draw(lattices(max_m=(7, 3)))
    kernel = data.draw(offset_kernels(dom))
    dense = ops.assemble(kernel, dom).matrix
    conv = ops.Convolution(kernel, dom)
    f = cells(data.draw, dom, data.draw(st.booleans()))
    scale = 1e-12 * bound(dense, f)
    assert np.max(np.abs(conv.apply(f) - dense @ f)) <= scale
    assert np.max(np.abs(conv.adjoint(f) - dense.T @ f)) <= scale
    eps = data.draw(st.floats(0.05, 0.95))
    for fast, slow in zip(ops.split(kernel, dom, eps), ops.decompose(kernel, dom, eps)):
        assert isinstance(fast, (ops.Convolution, ops.SplitPart))
        assert np.max(np.abs(fast.apply(f) - slow.matrix @ f)) <= scale
        assert np.max(np.abs(fast.adjoint(f) - slow.matrix.T @ f)) <= scale


_BROKEN_SPLIT = """
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain

# one window for every radius: phi(S) is not 1 across supp(chi)
ops.phi = lambda radius: ops.Bump(0.25, 0.5)
try:
    ops.split(ops.make_kernel("hilbert"), LatticeDomain(d=1, m=5, L=1.0), 0.5)
except ops.NumericalError as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_split_identity_check_survives_optimize_flag(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SPLIT], capture_output=True, text=True,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "splitting identity broke" in proc.stdout


def test_gkl_step_cap_raises_numerical_error(monkeypatch):
    dom = LatticeDomain(d=1, m=6, L=1.0)
    unit = make_weight(dom, {"kind": "unit"})
    comm = ops.Commutator(SampledFunction(dom, np.log(np.abs(dom.midpoints()[0]))),
                          ops.Convolution(ops.make_kernel("hilbert"), dom))
    monkeypatch.setattr(normest, "GKL_MAX_STEPS", 2)
    with pytest.raises(normest.NumericalError, match="Lanczos"):
        normest.opnorm_estimate(comm, 2.0, unit, 2.0, unit)
