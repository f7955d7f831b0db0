"""Canonical cube families read off per-generation tables agree with a
per-cube oracle over enumerate_cubes: oscillation() per cube, and cell
sums over flat_cells for the two-weight and A_{p,q} values."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import dyadic, oscillation as osc
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.weights import ExponentSetup, _family_averages, apq_characteristic, make_weight
from oracles import enumerate_cubes

REL = 1e-11


def cube_cells(f, cube):
    """(cell volumes, cell values) of f on one cube."""
    idx = cube.flat_cells()
    return np.full(idx.size, f.domain.cell_volume), f.values.reshape(-1)[idx]


def two_weight_value(b, cube, mu, lam, setup):
    """int_Q |b - <b>_Q| / (mu^p(Q)^{1/p} lam^{-q'}(Q)^{1/q'}) on one cube."""
    w, bv = cube_cells(b, cube)
    mean = np.sum(w * bv) / w.sum()
    dev_int = float(np.sum(w * np.abs(bv - mean)))
    mu_mass = float(np.sum(w * cube_cells(mu.power(setup.p), cube)[1]))
    lam_mass = float(np.sum(w * cube_cells(lam.power(-setup.q_prime), cube)[1]))
    return dev_int / (mu_mass ** (1.0 / setup.p) * lam_mass ** (1.0 / setup.q_prime))


def apq_value(sigma, omega, p, q, cube):
    """<sigma^q>_Q^{1/q} <omega^{-p'}>_Q^{1/p'} from the cube's cell means."""
    p_prime = p / (p - 1.0)
    a = np.mean(cube_cells(sigma.power(q), cube)[1])
    b = np.mean(cube_cells(omega.power(-p_prime), cube)[1])
    return a ** (1.0 / q) * b ** (1.0 / p_prime)


def close(got, want, rel=REL):
    """Relative agreement; near-zero cubes (single cells, where the object
    path leaves rounding residue) are measured against the family's scale."""
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want)))
    np.testing.assert_allclose(got, want, rtol=rel, atol=rel * scale)


def spread(dom, table, j):
    """A generation-j table on the cells of each cube."""
    for axis in range(dom.d):
        table = np.repeat(table, 2 ** (dom.m - j), axis=axis)
    return table


def fractional_reference(dom, b, nu, alpha, r):
    """osc_r per cube off per-generation dyadic._generation_mean tables."""
    tables = []
    for j in range(dom.m + 1):
        vol = (dom.width * 2.0**-j) ** dom.d
        dev = np.abs(b - spread(dom, dyadic._generation_mean(b, j), j))
        nu_mass = dyadic._generation_mean(nu, j) * vol
        integral = dyadic._generation_mean((dev / nu) ** r * nu, j) * vol
        tables.append(nu_mass ** (-alpha / dom.d) * (integral / nu_mass) ** (1.0 / r))
    return np.concatenate([table.ravel() for table in tables])


def two_weight_reference(dom, b, mu_p, lam_q, setup):
    """Two-weight value per cube off per-generation dyadic._generation_mean tables."""
    tables = []
    for j in range(dom.m + 1):
        vol = (dom.width * 2.0**-j) ** dom.d
        dev = np.abs(b - spread(dom, dyadic._generation_mean(b, j), j))
        mass = (dyadic._generation_mean(mu_p, j) * vol) ** (1.0 / setup.p) * (
            dyadic._generation_mean(lam_q, j) * vol) ** (1.0 / setup.q_prime)
        tables.append(dyadic._generation_mean(dev, j) * vol / mass)
    return np.concatenate([table.ravel() for table in tables])


@st.composite
def cases(draw, m_min=2):
    d = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(m_min, 5))
    dom = LatticeDomain(d, m, 1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = rng.standard_normal(dom.shape)
    if draw(st.booleans()):
        values = values + 1j * rng.standard_normal(dom.shape)
    b = SampledFunction(dom, values)

    def logsmooth():
        amplitude = draw(st.floats(0.0, 1.5))
        return make_weight(dom, {"kind": "logsmooth", "amplitude": amplitude,
                                 "modes": 3, "seed": draw(st.integers(0, 999))})

    mu, lam = logsmooth(), logsmooth()
    p = draw(st.sampled_from((1.5, 2.0)))
    setup = ExponentSetup(p, draw(st.sampled_from((p, 3.0, 4.0))), d)
    r = draw(st.sampled_from((1.0, 2.0)))
    alpha = draw(st.floats(0.0, 2.0))
    return dom, b, mu, lam, setup, r, alpha


@settings(max_examples=12, deadline=None)
@given(cases())
def test_canonical_tables_match_object_path(case):
    dom, b, mu, lam, setup, r, alpha = case
    cubes = enumerate_cubes(dom)

    keys = dyadic.canonical_keys(dom)
    assert keys.tolist() == [[c.generation, *c.index] for c in cubes]
    assert [dyadic.key_cube(dom, key) for key in keys] == cubes

    assert [dyadic.family_cube(dom, i) for i in range(len(cubes))] == cubes

    frac = osc.bmo_norm(b, nu=mu, alpha=alpha, r=r)
    assert "cubes" not in vars(frac)  # key rows are built only when read
    close(frac.values, [osc.oscillation(b, c.flat_cells(), nu=mu, alpha=alpha, r=r) for c in cubes])
    assert np.array_equal(frac.cubes, keys)

    two = osc.two_weight_norm(b, mu, lam, setup)
    close(two.values, [two_weight_value(b, c, mu, lam, setup) for c in cubes])
    assert dyadic.key_cube(dom, two.cubes[np.argmax(two.values)]) == two.argmax_cube

    apq = apq_characteristic(mu, lam, setup.p, setup.q)
    close(apq.values, [apq_value(mu, lam, setup.p, setup.q, c) for c in cubes])
    assert np.array_equal(apq.cubes, keys)

    for rep in (frac, two, apq):
        assert rep.argmax_cube == cubes[int(np.argmax(rep.values))]


@settings(max_examples=12, deadline=None)
@given(cases(m_min=3), st.data())  # jn_verify coarsens the weight once
def test_jn_subtree_norms_match_per_cube_oscillation(case, data):
    dom, b, mu, _lam, _setup, r, alpha = case
    gen = data.draw(st.integers(0, dom.m - 1))
    root = dyadic.cube(dom, gen, tuple(data.draw(st.integers(0, 2**gen - 1)) for _ in range(dom.d)))
    rep = osc.jn_verify(b, mu, 2.0, r, alpha, root)
    subtree = [c for c in enumerate_cubes(dom) if root.contains_cube(c)]
    for rr, got in ((r, rep.r_norm), (1.0, rep.one_norm)):
        want = max(osc.oscillation(b, c.flat_cells(), nu=mu, alpha=alpha, r=rr) for c in subtree)
        close(got, want)


@settings(max_examples=12, deadline=None)
@given(cases())
def test_pyramid_families_match_generation_means(case):
    dom, b, mu, lam, setup, r, alpha = case
    for nu in (mu, None):
        nu_values = np.ones(dom.shape) if nu is None else nu.values
        close(osc.bmo_norm(b, nu, alpha, r).values,
              fractional_reference(dom, b.values, nu_values, alpha, r), rel=1e-13)
    mu_p, lam_q = mu.power(setup.p).values, lam.power(-setup.q_prime).values
    close(osc.two_weight_norm(b, mu, lam, setup).values,
          two_weight_reference(dom, b.values, mu_p, lam_q, setup), rel=1e-13)
    close(_family_averages(mu.function()),
          np.concatenate([dyadic._generation_mean(mu.values, j).ravel()
                          for j in range(dom.m + 1)]), rel=1e-13)
