"""The dyadlab names the benchmark harness under bench/ imports.

The tier-1 suite does not run bench/tests, so a rename in src/ would
only show once the benchmark runs.  These checks keep in place the
functions bench/ calls and the norm-path labels bench/tracer.py keys on.
"""

import pytest

from dyadlab import cli, lattice, normest, operators, weights


@pytest.mark.parametrize("module, name", [
    (cli, "run"),
    (cli, "apq_characteristic"),
    (operators, "assemble"),
    (operators, "make_kernel"),
    (normest, "commutator_matrix"),
    (lattice, "LatticeDomain"),
    (lattice, "sample_symbol"),
    (weights, "make_weight"),
])
def test_bench_imports_resolve(module, name):
    assert callable(getattr(module, name))


def test_norm_estimates_carry_the_labels_the_tracer_reads():
    dom = lattice.LatticeDomain(d=1, m=4, L=1.0)
    unit = weights.make_weight(dom, {"kind": "unit"})
    b = lattice.sample_symbol(dom, [{"kind": "log_abs"}])
    kernel = operators.make_kernel("hilbert")
    comm = operators.Commutator(b, operators.Convolution(kernel, dom))
    assert normest.opnorm_estimate(comm, 2.0, unit, 2.0, unit).method == "svd-exact"
    ascent = normest.opnorm_estimate(comm, 2.0, unit, 3.0, unit, budget=2)
    assert ascent.method == "random-restart-ascent"
    dense = normest.commutator_matrix(b, operators.assemble(kernel, dom))
    assert normest.opnorm_estimate(dense, 2.0, unit, 2.0, unit).method == "svd-exact"
