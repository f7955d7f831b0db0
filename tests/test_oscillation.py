"""Oscillation functionals, norms, profiles, witnesses, and the
r-power comparison."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import dyadic, oscillation as osc
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import ExponentSetup, bloom_weight, make_weight
from oracles import vmo_witness_objects, volume

TWO_OVER_E = 2.0 / math.e


@pytest.fixture(scope="module")
def dom():
    return LatticeDomain(d=1, m=10, L=1.0)


@pytest.fixture(scope="module")
def logx(dom):
    return SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))


def test_constant_symbol_is_null(dom):
    b = SampledFunction(dom, np.full(dom.n, 2.5))
    w = make_weight(dom, {"kind": "power", "beta": 0.5})
    Q = dyadic.cube(dom, 3, (5,))
    for r in (1.0, 2.0):
        assert osc.oscillation(b, Q.flat_cells(), nu=w, alpha=0.2, r=r) == 0.0


def test_coordinate_symbol_quarter(dom):
    # midpoint sampling integrates |x - 1/2| exactly on [0,1)
    b = SampledFunction(dom, dom.midpoints()[0].copy())
    Q = dyadic.cube(dom, 1, (1,))
    assert osc.oscillation(b, Q.flat_cells()) == pytest.approx(0.25, abs=1e-14)


@pytest.mark.parametrize("t,gen", [(1.0, 1), (0.5, 2), (0.25, 3)])
def test_log_anchor_scale_invariant(dom, logx, t, gen):
    Q = dyadic.cube(dom, gen, (2 ** (gen - 1),))
    value = osc.oscillation(logx, Q.flat_cells())
    assert abs(value - TWO_OVER_E) / TWO_OVER_E < 0.02


def test_unit_weight_reduces_to_length_normalization(logx, dom):
    alpha = 0.3
    Q = dyadic.cube(dom, 2, (3,))
    plain = osc.oscillation(logx, Q.flat_cells(), alpha=0.0)
    scaled = osc.oscillation(logx, Q.flat_cells(), alpha=alpha)
    assert scaled == pytest.approx(Q.sidelength**-alpha * plain, rel=1e-12)


def test_r_monotonicity(dom, logx):
    w = make_weight(logx.domain, {"kind": "power", "beta": 0.5})
    Q = dyadic.cube(dom, 1, (1,))
    values = [osc.oscillation(logx, Q.flat_cells(), nu=w, alpha=0.1, r=r)
              for r in (1.0, 1.5, 2.0, 3.0)]
    for lo, hi in zip(values, values[1:]):
        assert hi >= lo * (1.0 - 1e-12)


def test_rejects_bad_parameters(dom, logx):
    Q = dyadic.cube(dom, 1, (1,))
    with pytest.raises(ValueError):
        osc.oscillation(logx, Q.flat_cells(), alpha=-0.1)
    with pytest.raises(ValueError):
        osc.oscillation(logx, Q.flat_cells(), r=0.5)
    with pytest.raises(ValueError, match="empty region"):
        osc.oscillation(logx, np.array([], dtype=np.int64))


def test_bmo_norm_rejects_negative_alpha_on_every_family_path():
    dom = LatticeDomain(d=1, m=5, L=1.0)
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        osc.bmo_norm(b, alpha=-1.0)


@pytest.mark.parametrize("m", [6, 10])
def test_cube_from_another_lattice_is_refused(m):
    # An m = 6 cube names the wrong cells of an m = 8 lattice; an m = 10
    # one indexes past its end.  jn_verify is the one functional here that
    # takes a cube.
    dom8 = LatticeDomain(d=1, m=8, L=1.0)
    b = SampledFunction(dom8, np.log(np.abs(dom8.midpoints()[0])))
    cube = dyadic.cube(LatticeDomain(d=1, m=m, L=1.0), 3, (4,))
    with pytest.raises(ValueError, match="domain mismatch"):
        osc.jn_verify(b, make_weight(dom8, {"kind": "unit"}), p=2.0, r=2.0, alpha=0.0,
                      root=cube)


@pytest.mark.parametrize("cells, message", [
    ([-1, 0], "must lie in"),           # would read cell 15
    ([0.7, 1.9], "integer"),            # would truncate to cells 0 and 1
    ([0, 0, 1], "strictly increasing"),  # would count cell 0 twice
    ([16], "must lie in"),              # would raise IndexError
])
def test_cell_sets_off_the_lattice_are_refused(cells, message):
    dom = LatticeDomain(d=1, m=4, L=1.0)
    x = SampledFunction(dom, dom.midpoints()[0].copy())
    with pytest.raises(ValueError, match=message):
        osc.oscillation(x, cells)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-5, 5, allow_nan=False),
    im=st.floats(-5, 5, allow_nan=False),
    t=st.floats(-3, 3, allow_nan=False),
)
def test_shift_invariance_and_scaling(re, im, t):
    dom = LatticeDomain(d=1, m=6, L=1.0)
    rng = np.random.default_rng(11)
    b = SampledFunction(dom, rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n))
    Q = dyadic.cube(dom, 1, (1,))
    base = osc.oscillation(b, Q.flat_cells())
    shifted = SampledFunction(dom, b.values + complex(re, im))
    assert osc.oscillation(shifted, Q.flat_cells()) == pytest.approx(base, rel=1e-12, abs=1e-12)
    scaled = SampledFunction(dom, t * b.values)
    assert osc.oscillation(scaled, Q.flat_cells()) == pytest.approx(abs(t) * base, rel=1e-12,
                                                                   abs=1e-12)


# -- norms --------------------------------------------------------------------


def test_bmo_norm_constant_zero(dom):
    b = SampledFunction(dom, np.ones(dom.n))
    mu = make_weight(dom, {"kind": "unit"})
    lam = make_weight(dom, {"kind": "power", "beta": 0.5})
    setup = ExponentSetup(2.0, 2.0, 1)
    frac = osc.bmo_norm(b, bloom_weight(mu, lam, setup), setup.alpha)
    tw = osc.two_weight_norm(b, mu, lam, setup)
    assert frac.supremum == 0.0
    assert tw.supremum == 0.0


@pytest.mark.parametrize(
    "p,q,mu_spec,lam_spec",
    [
        (2.0, 2.0, {"kind": "power", "beta": 0.5}, {"kind": "unit"}),
        (2.0, 4.0, {"kind": "power", "beta": 0.5}, {"kind": "power", "beta": -0.25}),
        (3.0, 3.0, {"kind": "logsmooth", "amplitude": 0.8, "modes": 3, "seed": 5}, {"kind": "unit"}),
    ],
)
def test_per_cube_norm_sandwich(dom, logx, p, q, mu_spec, lam_spec):
    """two-weight <= fractional <= [mu][lam] * two-weight, cube by cube."""
    from dyadlab.weights import apq_characteristic

    setup = ExponentSetup(p, q, 1)
    mu = make_weight(dom, mu_spec)
    lam = make_weight(dom, lam_spec)
    nu = bloom_weight(mu, lam, setup)
    frac = osc.bmo_norm(b=logx, nu=nu, alpha=setup.alpha)
    tw = osc.two_weight_norm(logx, mu, lam, setup)
    cmu = apq_characteristic(mu, mu, p, p).supremum
    clam = apq_characteristic(lam, lam, q, q).supremum
    assert len(frac.values) == len(tw.values)
    assert np.all(tw.values <= frac.values * (1.0 + 1e-9))
    assert np.all(frac.values <= cmu * clam * tw.values * (1.0 + 1e-9))


def test_norm_triangle_inequality(dom, logx):
    b2 = SampledFunction(dom, np.cos(4.0 * dom.midpoints()[0]))
    combo = SampledFunction(dom, logx.values + 1j * b2.values)
    n1 = osc.bmo_norm(logx).supremum
    n2 = osc.bmo_norm(b2).supremum
    nc = osc.bmo_norm(combo).supremum
    assert nc <= n1 + n2 + 1e-12


# -- profiles -----------------------------------------------------------------


def test_profile_monotone_and_null_for_constant(dom):
    b = SampledFunction(dom, np.full(dom.n, 3.0))
    prof = osc.vmo_profile(osc.bmo_norm(b))
    assert np.all(prof.per_scale_sup == 0.0)
    assert np.all(prof.distance == 0.0)
    logx = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    prof_log = osc.vmo_profile(osc.bmo_norm(logx))
    assert np.all(np.diff(prof_log.small_scale) <= 1e-15)
    assert np.all(np.diff(prof_log.large_scale) >= -1e-15)
    assert np.all(np.diff(prof_log.distance) <= 1e-15)


def test_smooth_profile_obeys_lipschitz_oracle(dom):
    bump = sample_symbol(dom, {"kind": "bump", "center": [0.0], "radius": 0.75})
    lip = np.max(np.abs(np.diff(bump.values))) / dom.h
    prof = osc.vmo_profile(osc.bmo_norm(bump))
    assert np.all(prof.per_scale_sup <= lip * prof.scales / 2.0 + 1e-12)
    # small scales genuinely vanish
    assert prof.small_scale[-1] < 0.01


def test_log_profile_floor(dom, logx):
    prof = osc.vmo_profile(osc.bmo_norm(logx))
    # cubes [0, 2^-j) keep the 2/e oscillation; >= 64-cell scales within 2%
    fine = dom.m - 6
    assert np.all(prof.small_scale[: fine + 1] >= TWO_OVER_E * 0.98)
    # 4-cell quadrature floor of the same closed form
    assert np.all(prof.small_scale >= 0.6)


# -- witnesses ----------------------------------------------------------------


@pytest.fixture(scope="module")
def dom12():
    return LatticeDomain(d=1, m=12, L=1.0)


@pytest.fixture(scope="module")
def log12(dom12):
    return SampledFunction(dom12, np.log(np.abs(dom12.midpoints()[0])))


def test_small_scale_witness_for_log(log12):
    fam = osc.vmo_witness(log12, osc.bmo_norm(log12), c0=0.5, mode="small-scale")
    assert fam is not None and fam.mode == "small-scale"
    assert len(fam) >= 5
    assert all(v >= 0.25 for v in fam.oscillations)
    allcells = np.concatenate([mask for _, mask in fam.entries])
    assert np.unique(allcells).size == allcells.size  # E pairwise disjoint
    for cube, mask in fam.entries:
        ncells = cube.flat_cells().size
        assert 8 * (ncells - mask.size) <= ncells  # |E| >= (1 - theta)|Q|


@pytest.mark.parametrize("theta", [0.3, 0.4, 0.7])
def test_small_scale_witness_keeps_budget_that_is_not_a_unit_fraction(theta):
    # 1/theta is not an integer here: the integer budget must round down.
    num, den = Fraction(str(theta)).as_integer_ratio()
    dom = LatticeDomain(d=1, m=7, L=1.0)
    for seed in range(4):
        for scale in (1.0, 4.0):
            rng = np.random.default_rng(seed)
            b = SampledFunction(dom, np.cumsum(rng.standard_normal(dom.n)) / scale)
            fam = osc.vmo_witness(b, osc.bmo_norm(b), c0=0.3, mode="small-scale",
                                  theta=theta, min_pairs=1)
            assert fam is not None
            for cube, mask in fam.entries:
                ncells = cube.flat_cells().size
                assert den * (ncells - mask.size) <= num * ncells  # |E| >= (1 - theta)|Q|


def test_witness_modes_for_smooth_symbol(dom12):
    bump = sample_symbol(dom12, {"kind": "bump", "center": [0.0], "radius": 0.75})
    report = osc.bmo_norm(bump)
    assert osc.vmo_witness(bump, report, c0=0.1, mode="small-scale") is None
    assert osc.vmo_witness(bump, report, c0=0.1, mode="far-away") is None


def test_default_witness_search_builds_candidates_once(dom12, monkeypatch):
    # small-scale and far-away find nothing, so all three searchers run
    bump = sample_symbol(dom12, {"kind": "bump", "center": [0.0], "radius": 0.75})
    calls = []
    build = osc._candidate_keys
    monkeypatch.setattr(osc, "_candidate_keys", lambda *a: calls.append(a) or build(*a))
    osc.vmo_witness(bump, osc.bmo_norm(bump), c0=0.1)
    assert len(calls) == 1


def test_witness_none_for_constant(dom12):
    b = SampledFunction(dom12, np.zeros(dom12.n))
    assert osc.vmo_witness(b, osc.bmo_norm(b), c0=0.1) is None


def test_far_away_witness_for_boundary_comb(dom12):
    mids = dom12.midpoints()[0]
    vals = np.where(np.abs(mids) > 0.4, np.sign(np.sin(2**9 * np.pi * mids)), 0.0)
    comb = SampledFunction(dom12, vals)
    fam = osc.vmo_witness(comb, osc.bmo_norm(comb), c0=0.5, mode="far-away")
    assert fam is not None and fam.mode == "far-away"
    dists = [float(dyadic._cube_distance_table(dom12, cube.generation)[cube.index])
             for cube, _ in fam.entries]
    assert dists == sorted(dists)
    assert dists[-1] >= 0.75 * dom12.L
    allcells = np.concatenate([mask for _, mask in fam.entries])
    assert np.unique(allcells).size == allcells.size


def test_large_scale_witness_for_log(log12):
    fam = osc.vmo_witness(log12, osc.bmo_norm(log12), c0=0.5, mode="large-scale")
    assert fam is not None and len(fam) >= 2
    vols = [volume(cube) for cube, _ in fam.entries]
    assert vols == sorted(vols)
    allcells = np.concatenate([mask for _, mask in fam.entries])
    assert np.unique(allcells).size == allcells.size
    assert all(v >= 0.25 for v in fam.oscillations)


def test_witness_rejects_thresholds_that_cannot_fail():
    # c0 <= 0 makes osc(b; E) >= c0/2 hold for any pair, theta >= 1 makes
    # |E| >= (1 - theta)|Q| vacuous and min_pairs = 0 accepts no pairs: on
    # the zero symbol each would return a family of oscillation 0.
    dom = LatticeDomain(d=1, m=8, L=1.0)
    b = SampledFunction(dom, np.zeros(dom.n))
    report = osc.bmo_norm(b)
    for c0 in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="c0"):
            osc.vmo_witness(b, report, c0=c0)
    for theta in (0.0, -0.5, 1.0, 2.0, math.nan, 5e-324):
        with pytest.raises(ValueError, match="theta"):
            osc.vmo_witness(b, report, c0=0.1, theta=theta)
    with pytest.raises(ValueError, match="min_pairs"):  # an empty family
        osc.vmo_witness(b, report, c0=0.1, min_pairs=0)


def test_witness_rejects_report_from_another_domain(log12):
    other = LatticeDomain(d=1, m=11, L=1.0)
    report = osc.bmo_norm(SampledFunction(other, np.log(np.abs(other.midpoints()[0]))))
    with pytest.raises(ValueError, match="domain"):
        osc.vmo_witness(log12, report)


def _witness_symbol(dom, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "log":
        return sample_symbol(dom, {"kind": "log_abs"})
    if kind == "holder":
        return sample_symbol(dom, {"kind": "abs_power", "exponent": 0.25})
    noise = rng.standard_normal(dom.shape)
    if kind == "walk":
        for axis in range(dom.d):
            noise = np.cumsum(noise, axis=axis)
        return SampledFunction(dom, noise / dom.n ** (dom.d / 2.0))
    if kind == "complex":
        return SampledFunction(dom, noise + 1j * rng.standard_normal(dom.shape))
    return SampledFunction(dom, noise)


def assert_same_witness(got, want):
    if want is None:
        assert got is None
        return
    assert got is not None and got.mode == want.mode and got.threshold == want.threshold
    assert [cube for cube, _ in got.entries] == [cube for cube, _ in want.entries]
    for (_, mask), (_, want_mask) in zip(got.entries, want.entries):
        assert mask.dtype == want_mask.dtype and np.array_equal(mask, want_mask)
    assert got.oscillations == want.oscillations


def test_large_scale_search_evaluates_each_strip_once(monkeypatch):
    # the searcher hands its osc(b; E) on: at d=1 m=12 with the bench weights
    # the 11 pairs take 12 oscillation calls, not 22
    dom = LatticeDomain(d=1, m=12, L=1.0)
    setup = ExponentSetup(2.0, 4.0, 1)
    nu = bloom_weight(make_weight(dom, {"kind": "power", "beta": 0.3}),
                      make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 3,
                                        "seed": 0}), setup)
    b = sample_symbol(dom, {"kind": "log_abs"})
    report = osc.bmo_norm(b, nu, setup.alpha)
    want = vmo_witness_objects(b, nu, setup.alpha, mode="large-scale")
    masks = []
    evaluate = osc.oscillation
    monkeypatch.setattr(osc, "oscillation",
                        lambda b, mask, **kw: masks.append(mask.tobytes()) or evaluate(b, mask, **kw))
    got = osc.vmo_witness(b, report, nu, setup.alpha, mode="large-scale")
    assert_same_witness(got, want)
    assert len(got) == 11 and len(masks) == len(set(masks)) == 12


@settings(max_examples=200, deadline=None)
@given(
    lattice=st.sampled_from([(1, 5), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5)]),
    kind=st.sampled_from(["log", "holder", "noise", "walk", "complex"]),
    seed=st.integers(0, 2**16),
    weight=st.sampled_from([{"kind": "unit"}, {"kind": "power", "beta": 0.3}]),
    alpha=st.sampled_from([0.0, 0.5]),
    r=st.sampled_from([1.0, 2.0]),
    frac=st.floats(0.05, 1.0),
    theta=st.floats(0.01, 0.99),
    mode=st.sampled_from([None, "small-scale", "far-away", "large-scale"]),
    min_pairs=st.integers(1, 3),
)
def test_key_row_witness_search_matches_object_oracle(
    lattice, kind, seed, weight, alpha, r, frac, theta, mode, min_pairs
):
    d, m = lattice
    dom = LatticeDomain(d=d, m=m, L=1.0)
    b = _witness_symbol(dom, kind, seed)
    nu = make_weight(dom, weight)
    report = osc.bmo_norm(b, nu, alpha, r)
    c0 = frac * report.supremum
    got = osc.vmo_witness(b, report, nu, alpha, c0=c0, mode=mode, r=r, theta=theta,
                          min_pairs=min_pairs)
    want = vmo_witness_objects(b, nu, alpha, c0=c0, mode=mode, r=r, theta=theta,
                               min_pairs=min_pairs)
    assert_same_witness(got, want)


@pytest.mark.parametrize("d,m", [(1, 10), (2, 6)])
@pytest.mark.parametrize("mode", [None, "small-scale", "far-away", "large-scale"])
def test_key_row_witness_search_matches_object_oracle_deep(d, m, mode):
    dom = LatticeDomain(d=d, m=m, L=1.0)
    nu = make_weight(dom, {"kind": "power", "beta": 0.3})
    comb = np.sign(np.sin(2 ** (m - 2) * np.pi * dom.midpoints()[0]))
    for b in (sample_symbol(dom, {"kind": "log_abs"}), _witness_symbol(dom, "walk", 7),
              SampledFunction(dom, np.where(np.abs(dom.midpoints()[0]) > 0.4, comb, 0.0))):
        for c0 in (0.3, 0.5):
            report = osc.bmo_norm(b, nu, 0.25)
            got = osc.vmo_witness(b, report, nu, 0.25, c0=c0, mode=mode)
            assert_same_witness(got, vmo_witness_objects(b, nu, 0.25, c0=c0, mode=mode))


# -- power comparison ---------------------------------------------------------


def test_jn_constant_trivial(dom):
    b = SampledFunction(dom, np.ones(dom.n))
    w = make_weight(dom, {"kind": "unit"})
    rep = osc.jn_verify(b, w, p=2.0, r=2.0, alpha=0.0, root=dyadic.cube(dom, 1, (1,)))
    assert rep.r_norm == 0.0 and rep.one_norm == 0.0
    assert rep.ratio == 1.0
    assert rep.sparse_ratio == 0.0


def test_jn_log_lebesgue_fixture(dom, logx):
    rep = osc.jn_verify(logx, make_weight(dom, {"kind": "unit"}), p=2.0, r=2.0,
                        alpha=0.0, root=dyadic.cube(dom, 1, (1,)))
    assert rep.ratio >= 1.0 - 1e-9
    assert rep.ratio == pytest.approx(1.3538715943472384, rel=1e-12)
    assert rep.sparse_ratio == pytest.approx(1.2699572405735884, rel=1e-12)


def test_jn_weighted_endpoint(dom, logx):
    w = make_weight(dom, {"kind": "power", "beta": 0.5})
    rep = osc.jn_verify(logx, w, p=2.0, r=2.0, alpha=0.0,
                        root=dyadic.cube(dom, 1, (1,)))
    assert rep.ratio >= 1.0 - 1e-9
    assert rep.sparse_ratio <= 4.0  # C_impl = 2^d * LAMBDA


def test_jn_rejects_r_beyond_dual_exponent(dom, logx):
    w = make_weight(dom, {"kind": "unit"})
    with pytest.raises(ValueError):
        osc.jn_verify(logx, w, p=2.0, r=2.5, alpha=0.0,
                      root=dyadic.cube(dom, 1, (1,)))


def test_jn_rejects_root_or_weight_off_the_symbol_domain(dom, logx):
    other = LatticeDomain(d=1, m=dom.m - 1, L=1.0)
    w = make_weight(dom, {"kind": "unit"})
    foreign_root = dyadic.cube(other, 1, (1,))
    with pytest.raises(ValueError, match="domain mismatch"):
        osc.jn_verify(logx, w, p=2.0, r=2.0, alpha=0.0, root=foreign_root)
    with pytest.raises(ValueError, match="domain mismatch"):
        osc.jn_verify(logx, make_weight(other, {"kind": "unit"}), p=2.0, r=2.0,
                      alpha=0.0, root=dyadic.cube(dom, 1, (1,)))


def test_jn_random_symbols_hold_bounds():
    dom = LatticeDomain(d=1, m=8, L=1.0)
    root = dyadic.cube(dom, 1, (1,))
    w = make_weight(dom, {"kind": "power", "beta": 0.5})
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        b = SampledFunction(dom, np.cumsum(rng.standard_normal(dom.n)) / 16.0)
        rep = osc.jn_verify(b, w, p=2.0, r=1.5, alpha=0.1, root=root)
        assert rep.ratio >= 1.0 - 1e-9
        assert rep.sparse_ratio <= 4.0
