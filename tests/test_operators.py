"""Kernels, dense assembly, commutators, windowed splittings, truncations."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction
from oracles import decompose


@pytest.fixture(scope="module")
def dom():
    return LatticeDomain(d=1, m=10, L=1.0)


@pytest.fixture(scope="module")
def hilbert():
    return ops.make_kernel("hilbert")


@pytest.fixture(scope="module")
def hilbert_op(hilbert, dom):
    return ops.assemble(hilbert, dom)


@pytest.fixture(scope="module")
def dom2():
    return LatticeDomain(d=2, m=4, L=1.0)


@pytest.fixture(scope="module")
def riesz1():
    return ops.make_kernel("riesz", {"j": 1})


# -- cutoff profile -----------------------------------------------------------


def test_bump_profile_endpoints_and_slope():
    bump = ops.Bump(0.5, 1.0)
    assert bump.value(0.5) == 1.0 and bump.value(0.2) == 1.0
    assert bump.value(1.0) == 0.0 and bump.value(3.0) == 0.0
    t = np.linspace(0.5, 1.0, 2001)
    v = bump.value(t)
    assert np.all((v >= 0.0) & (v <= 1.0))
    slopes = np.abs(np.diff(v)) / np.diff(t)
    assert slopes.max() <= np.pi / (2.0 * (bump.b - bump.a)) * (1.0 + 1e-3)  # Lipschitz bound
    with pytest.raises(ValueError):
        ops.Bump(1.0, 0.5)


def test_partition_of_unity_exact():
    t = np.linspace(0.0, 6.0, 4001)
    total = ops.phi(0.5).value(t) + ops.annulus(0.5, 4.0)(t) + (1.0 - ops.phi(4.0).value(t))
    np.testing.assert_array_equal(total, np.ones_like(t))


# -- kernel construction ------------------------------------------------------


def test_hilbert_point_value(hilbert):
    z = np.array([[2.0], [-2.0]])
    assert hilbert.evaluator(z).tolist() == [0.5, -0.5]


def test_riesz_point_value(riesz1):
    z = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert riesz1.evaluator(z).tolist() == [1.0, -1.0]


def test_kernel_variant_guards():
    with pytest.raises(ValueError):
        ops.make_kernel("riesz", {"j": 1, "d": 1})
    with pytest.raises(ValueError):
        ops.make_kernel("hilbert", {"d": 2})
    with pytest.raises(ValueError):
        ops.make_kernel("banach")
    with pytest.raises(ValueError):
        ops.make_kernel("riesz", {"j": 3})


def test_custom_size_bound_witness(dom):
    def loud(z):
        return 2.0 / z[..., 0]

    with pytest.raises(ValueError, match="size bound violated"):
        ops.make_kernel("custom", {"evaluator": loud, "C": 1.0, "domain": dom})
    spec = ops.make_kernel("custom", {"evaluator": loud, "C": 2.0, "domain": dom})
    assert spec.size_constant == 2.0


# -- assembly -----------------------------------------------------------------


def test_assemble_antisymmetric_zero_diagonal(hilbert_op):
    a = hilbert_op.matrix
    assert np.array_equal(a, -a.T)
    assert np.all(np.diag(a) == 0.0)


def test_assemble_memory_guard(hilbert):
    with pytest.raises(ValueError, match="entries"):
        ops.assemble(hilbert, LatticeDomain(d=1, m=14, L=1.0))


def test_constant_input_center_cells(hilbert_op, dom):
    # symmetric cancellation leaves one uncancelled cell: |Af| = h/L there
    af = hilbert_op.apply(SampledFunction(dom, np.ones(dom.n))).values
    mid = dom.n // 2
    assert abs(af[mid - 1]) == pytest.approx(dom.h / dom.L, rel=1e-6)
    assert abs(af[mid]) == pytest.approx(dom.h / dom.L, rel=1e-6)
    assert max(abs(af[mid - 1]), abs(af[mid])) <= 2.0 * dom.h / dom.L


def test_far_annulus_zero_matrix(hilbert, dom):
    # annulus support starts at r/2, so r = 2 * diameter kills every pair
    far = ops.assemble(hilbert, dom, window=ops.annulus(4.0, 8.0))
    assert np.all(far.matrix == 0.0)


def test_window_monotone_in_outer_radius(hilbert, dom):
    small = ops.assemble(hilbert, dom, window=ops.annulus(0.25, 0.5))
    large = ops.assemble(hilbert, dom, window=ops.annulus(0.25, 1.0))
    assert np.all(np.abs(large.matrix) >= np.abs(small.matrix) - 1e-15)


def test_hilbert_log_quadrature():
    dom4 = LatticeDomain(d=1, m=11, L=4.0)
    op = ops.assemble(ops.make_kernel("hilbert"), dom4)
    mids = dom4.midpoints()[0]
    out = op.apply(SampledFunction(dom4, (np.abs(mids) < 1.0).astype(float))).values
    probe = int(np.argmin(np.abs(mids - 2.0)))
    assert out[probe] == pytest.approx(np.log(3.0), rel=0.02)


def test_custom_matches_named_assembly(hilbert_op, dom):
    twin = ops.make_kernel("custom", {"evaluator": lambda z: 1.0 / z[..., 0],
                                      "C": 1.0, "domain": dom})
    assert np.array_equal(ops.assemble(twin, dom).matrix, hilbert_op.matrix)
    assert np.array_equal(ops.Convolution(twin, dom).stencil,
                          ops.Convolution(ops.make_kernel("hilbert"), dom).stencil)


def test_apply_domain_mismatch(hilbert_op):
    other = LatticeDomain(d=1, m=8, L=1.0)
    with pytest.raises(ValueError):
        hilbert_op.apply(SampledFunction(other, np.ones(other.n)))


def test_quadratic_form_purely_imaginary(hilbert_op, dom):
    rng = np.random.default_rng(5)
    scale = np.abs(hilbert_op.matrix).sum()
    fr = rng.standard_normal(dom.n)
    assert abs(fr @ (hilbert_op.matrix @ fr)) <= 1e-10 * scale
    fc = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
    q = np.conj(fc) @ (hilbert_op.matrix @ fc)
    assert abs(q.real) <= 1e-10 * scale


def test_riesz_assembly_antisymmetric(riesz1, dom2):
    op = ops.assemble(riesz1, dom2)
    assert np.array_equal(op.matrix, -op.matrix.T)
    g = np.random.default_rng(11).standard_normal(dom2.shape)
    q = g.reshape(-1) @ (op.matrix @ g.reshape(-1))
    assert abs(q) <= 1e-10 * np.abs(op.matrix).sum()


# -- commutators --------------------------------------------------------------


def test_commutator_scalar_symbol_vanishes(hilbert_op, dom):
    b = SampledFunction(dom, np.full(dom.n, 3.0))
    f = SampledFunction(dom, np.random.default_rng(2).standard_normal(dom.n))
    out = ops.Commutator(b, hilbert_op).apply(f)
    assert np.max(np.abs(out.values)) <= 1e-12 * np.max(np.abs(hilbert_op.apply(f).values))


def test_commutator_real_in_real_out(hilbert_op, dom):
    mids = dom.midpoints()[0]
    b = SampledFunction(dom, np.log(np.abs(mids)))
    f = SampledFunction(dom, np.cos(mids))
    assert not ops.Commutator(b, hilbert_op).apply(f).is_complex


def test_coordinate_commutator_is_integration(hilbert_op, dom):
    # (b(x) - b(y)) K(x, y) == 1 for b = x, so [b, T]f + h f == integral of f
    b = SampledFunction(dom, dom.midpoints()[0].copy())
    for seed in range(5):
        f = SampledFunction(dom, np.random.default_rng(100 + seed).standard_normal(dom.n))
        comm = ops.Commutator(b, hilbert_op).apply(f).values
        total = f.values.sum() * dom.h
        np.testing.assert_allclose(comm + dom.h * f.values, total, atol=1e-12)


def test_commutator_linear_in_symbol(hilbert_op, dom):
    rng = np.random.default_rng(8)
    b1 = SampledFunction(dom, rng.standard_normal(dom.n))
    b2 = SampledFunction(dom, rng.standard_normal(dom.n))
    both = SampledFunction(dom, b1.values + b2.values)
    f = SampledFunction(dom, rng.standard_normal(dom.n))
    lhs = ops.Commutator(both, hilbert_op).apply(f).values
    rhs = (ops.Commutator(b1, hilbert_op).apply(f).values
           + ops.Commutator(b2, hilbert_op).apply(f).values)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(lhs).max()))


# -- compact/residual splitting -----------------------------------------------


@pytest.mark.parametrize("eps", [0.125, 0.25, 0.5])
def test_decompose_reassembles(hilbert, dom, eps):
    t_c, t_eps = decompose(hilbert, dom, eps)
    base = ops.assemble(hilbert, dom)
    gap = np.max(np.abs(t_c.matrix + t_eps.matrix - base.matrix))
    assert gap <= 1e-12 * max(1.0, np.abs(base.matrix).max())


def test_decompose_riesz(riesz1, dom2):
    t_c, t_eps = decompose(riesz1, dom2, 0.25)
    base = ops.assemble(riesz1, dom2)
    np.testing.assert_allclose(t_c.matrix + t_eps.matrix, base.matrix, atol=1e-12)


def test_decompose_eps_guard(hilbert, dom):
    with pytest.raises(ValueError):
        decompose(hilbert, dom, 0.0)
    with pytest.raises(ValueError):
        decompose(hilbert, dom, 1.0)


_BROKEN_SPLIT = """
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain
from oracles import decompose

# one window for every radius: phi(S) - phi(r) vanishes, nothing telescopes
ops.phi = lambda radius: ops.Bump(0.25, 0.5)
try:
    decompose(ops.make_kernel("hilbert"), LatticeDomain(d=1, m=5, L=1.0), 0.5)
except ArithmeticError as exc:
    print(exc)
    raise SystemExit(0)
raise SystemExit(1)
"""


def test_decompose_identity_check_survives_optimize_flag(child_env):
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_SPLIT], capture_output=True, text=True,
        env=child_env, cwd=Path(__file__).parent,  # where oracles.py is
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "splitting identity broke" in proc.stdout


def test_decompose_window_collapses_on_tiny_domain(hilbert):
    tiny = LatticeDomain(d=1, m=6, L=0.05)
    t_c, t_eps = decompose(hilbert, tiny, 0.5)
    assert np.all(t_c.matrix == 0.0)
    np.testing.assert_array_equal(t_eps.matrix, ops.assemble(hilbert, tiny).matrix)


def test_decompose_compact_supports():
    # eps = 1/4 on a wide domain: compact part dies inside |x-y| <= eps/2
    # and outside |x| >= 1/eps
    dom8 = LatticeDomain(d=1, m=8, L=8.0)
    t_c, _ = decompose(ops.make_kernel("hilbert"), dom8, 0.25)
    mids = dom8.midpoints()[0]
    dist = np.abs(mids[:, None] - mids[None, :])
    assert np.all(t_c.matrix[dist <= 0.125] == 0.0)
    outside = np.abs(mids) >= 4.0
    assert np.all(t_c.matrix[outside, :] == 0.0)
    assert np.all(t_c.matrix[:, outside] == 0.0)


# -- truncation comparison ----------------------------------------------------


def test_truncation_needs_resolved_annulus(hilbert, dom):
    f = SampledFunction(dom, np.ones(dom.n))
    with pytest.raises(ValueError, match="unresolved"):
        ops.truncation_comparison(hilbert, dom.h, f)


def test_truncation_zero_input(hilbert, dom):
    rep = ops.truncation_comparison(hilbert, 0.125, SampledFunction(dom, np.zeros(dom.n)))
    assert rep.ok and np.all(rep.gap == 0.0) and rep.worst_ratio == 0.0


def test_truncation_constant_input(hilbert, dom):
    rep = ops.truncation_comparison(hilbert, 0.125, SampledFunction(dom, np.ones(dom.n)))
    assert rep.c_cmp == 4.0  # C = 1 kernel, 4^d at d = 1
    assert rep.ok and rep.worst_ratio <= 1.0


def test_truncation_indicator_cell_by_cell(hilbert, dom):
    mids = dom.midpoints()[0]
    f = SampledFunction(dom, ((mids >= 0.25) & (mids < 0.5)).astype(float))
    rep = ops.truncation_comparison(hilbert, 0.125, f)
    assert np.all(rep.gap <= rep.c_cmp * rep.box_maximal + 1e-12)
    assert rep.ok


@pytest.mark.parametrize("seed", range(10))
def test_truncation_random_inputs(hilbert, dom, seed):
    f = SampledFunction(dom, np.random.default_rng(200 + seed).standard_normal(dom.n))
    rep = ops.truncation_comparison(hilbert, 4 * dom.h, f)
    assert rep.ok
