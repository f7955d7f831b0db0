"""Exact relations of the lattice: a transformed input whose outputs follow
from the original's, checked without a reference value."""

import functools

import numpy as np
import pytest

from dyadlab import normest, oscillation
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import ExponentSetup, as_weight, bloom_weight, make_weight


@pytest.fixture(scope="module")
def scaled():
    """norm / |c| and bmo / |c| of c * b against Hilbert at d=1 m=10, p=2
    and the bench weights, as a function of c, q and the symbol b: "holder"
    is |x|^0.25 + bump, "log" is log|x|."""
    dom = LatticeDomain(d=1, m=10, L=1.0)
    mu = make_weight(dom, {"kind": "power", "beta": 0.3})
    lam = make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 3, "seed": 0})
    symbols = {"holder": [{"kind": "abs_power", "exponent": 0.25},
                          {"kind": "bump", "center": [0.2], "radius": 0.3}],
               "log": [{"kind": "log_abs"}]}
    hilbert = ops.Convolution(ops.make_kernel("hilbert"), dom)

    @functools.cache
    def measure(c, q=3.0, symbol="holder"):
        setup = ExponentSetup(2.0, q, 1)
        cb = SampledFunction(dom, c * sample_symbol(dom, symbols[symbol]).values)
        norm = normest.opnorm_estimate(ops.Commutator(cb, hilbert), setup.p, mu, setup.q, lam,
                                       budget=8).value
        bmo = oscillation.bmo_norm(cb, bloom_weight(mu, lam, setup), setup.alpha).supremum
        return norm / abs(c), bmo / abs(c)

    return measure


@pytest.mark.parametrize("c", [1e-170, 1e-150, 1e-12, 1e-6, 2.0, 1e6, 1e160])
def test_scaling_the_symbol_scales_norm_and_bmo_by_its_modulus(scaled, c):
    # the ascent's stop and accept rules are relative, so they take the
    # same steps at every scale, and a row is scaled by a power of two where
    # its q-th powers would leave the float range, as they do at c = 1e-150
    want_norm, want_bmo = scaled(1.0)
    norm, bmo = scaled(c)
    assert norm == pytest.approx(want_norm, rel=1e-12, abs=0.0)
    assert bmo == pytest.approx(want_bmo, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("symbol, q, c", [
    *(("holder", 2.0, c) for c in (1e-170, 1e-150, 1e-12, 2.0, 1e6, 1e160)),
    *(("log", q, c) for q in (2.0, 3.0) for c in (1e-170, 1e160)),
])
def test_scaling_the_symbol_scales_the_gkl_norm_by_its_modulus(scaled, symbol, q, c):
    # GKL computes the norm at p = q = 2 and seeds the ascent at q = 3; it
    # scales the operator by a power of two where its squares would leave
    # the float range
    want_norm, want_bmo = scaled(1.0, q, symbol)
    norm, bmo = scaled(c, q, symbol)
    assert norm == pytest.approx(want_norm, rel=1e-12, abs=0.0)
    assert bmo == pytest.approx(want_bmo, rel=1e-12, abs=0.0)


def _permuted_norms(d, m, axes):
    """Top singular values of [b, R_j] (p = q = 2, the bench weights) for
    j = 1..d, of b, mu and lambda as sampled and with their axes permuted
    by `axes` (np.transpose)."""
    dom = LatticeDomain(d=d, m=m, L=1.0)
    b = sample_symbol(dom, [{"kind": "log_abs"},
                            {"kind": "bump", "center": [0.3, -0.2, 0.1][:d], "radius": 0.6},
                            {"kind": "coordinate", "coefficient": 0.4}])
    mu = make_weight(dom, {"kind": "power", "beta": 0.3})
    lam = make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 3, "seed": 0})
    kernels = [ops.Convolution(ops.make_kernel("riesz", {"j": j, "d": d}), dom)
               for j in range(1, d + 1)]

    def norms(b, mu, lam):
        return [normest.opnorm_estimate(ops.Commutator(b, t), 2.0, mu, 2.0, lam).value
                for t in kernels]

    def permute(values):
        return SampledFunction(dom, np.transpose(values, axes))

    return norms(b, mu, lam), norms(permute(b.values), as_weight(permute(mu.values)),
                                    as_weight(permute(lam.values)))


@pytest.mark.parametrize("d, m, axes, shift", [(2, 5, (1, 0), 1), (3, 4, (2, 0, 1), 1)])
def test_permuting_the_axes_permutes_the_riesz_components(d, m, axes, shift):
    # with b, mu and lambda read through an axis permutation, [b, R_j] is
    # conjugate to [b', R_j'] by that permutation: transposing swaps j = 1
    # and 2 at d = 2, and the cyclic permutation maps j to j + 1 at d = 3
    plain, permuted = _permuted_norms(d, m, axes)
    for j in range(d):
        assert permuted[(j + shift) % d] == pytest.approx(plain[j], rel=1e-13, abs=0.0)
