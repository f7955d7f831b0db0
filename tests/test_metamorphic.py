"""Exact relations of the lattice: a transformed input whose outputs follow
from the original's, checked without a reference value."""

import functools

import pytest

from dyadlab import normest, oscillation
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import ExponentSetup, bloom_weight, make_weight


@pytest.fixture(scope="module")
def scaled():
    """norm / |c| and bmo / |c| of c * (|x|^0.25 + bump) against Hilbert at
    d=1 m=10, p=2, q=3 and the bench weights, as a function of c."""
    dom = LatticeDomain(d=1, m=10, L=1.0)
    setup = ExponentSetup(2.0, 3.0, 1)
    mu = make_weight(dom, {"kind": "power", "beta": 0.3})
    lam = make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 3, "seed": 0})
    nu = bloom_weight(mu, lam, setup)
    b = sample_symbol(dom, [{"kind": "abs_power", "exponent": 0.25},
                            {"kind": "bump", "center": [0.2], "radius": 0.3}])
    hilbert = ops.Convolution(ops.make_kernel("hilbert"), dom)

    @functools.cache
    def measure(c):
        cb = SampledFunction(dom, c * b.values)
        norm = normest.opnorm_estimate(ops.Commutator(cb, hilbert), setup.p, mu, setup.q, lam,
                                       budget=8).value
        bmo = oscillation.bmo_norm(cb, nu, setup.alpha).supremum
        return norm / abs(c), bmo / abs(c)

    return measure


@pytest.mark.parametrize("c", [1e-150, 1e-12, 1e-6, 2.0, 1e6])
def test_scaling_the_symbol_scales_norm_and_bmo_by_its_modulus(scaled, c):
    # the ascent's stop and accept rules are relative, so they take the
    # same steps at every scale, and a row is scaled by a power of two where
    # its q-th powers would leave the float range, as they do at c = 1e-150
    want_norm, want_bmo = scaled(1.0)
    norm, bmo = scaled(c)
    assert norm == pytest.approx(want_norm, rel=1e-12, abs=0.0)
    assert bmo == pytest.approx(want_bmo, rel=1e-12, abs=0.0)
