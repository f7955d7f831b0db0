"""End-to-end acceptance gate: eleven numbered checks binding every module.

Each test exercises one headline guarantee at its committed tolerance
and prints a single PASS/FAIL line (visible under pytest -s / -v).
Thresholds marked "committed" are frozen from deterministic runs of this
suite's own constructions; the direction of each inequality is the claim.
"""

import time

import numpy as np
import pytest

from dyadlab import dyadic, normest, oscillation, sparse
from dyadlab import operators as ops
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import (
    ExponentSetup,
    apq_characteristic,
    bloom_sandwich_report,
    bloom_weight,
    make_weight,
)
from oracles import core_arrays, indicator, parent, volume


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    line = f"acceptance {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dom10():
    return LatticeDomain(d=1, m=10, L=1.0)


@pytest.fixture(scope="module")
def unit10(dom10):
    return make_weight(dom10, {"kind": "unit"})


def weight_pairs(dom, n):
    """Deterministic catalog: alternating power and log-smooth pairs."""
    rng = np.random.default_rng(42)
    pairs = []
    for k in range(n):
        if k % 2 == 0:
            mu = make_weight(dom, {"kind": "power", "beta": float(rng.uniform(-0.45, 0.45))})
            lam = make_weight(dom, {"kind": "power", "beta": float(rng.uniform(-0.45, 0.45))})
        else:
            mu = make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 4,
                                   "seed": 100 + k})
            lam = make_weight(dom, {"kind": "logsmooth", "amplitude": 0.6, "modes": 3,
                                    "seed": 200 + k})
        pairs.append((mu, lam))
    return pairs


def symbol_family(dom):
    mids = dom.midpoints()[0]
    bump_wide = sample_symbol(dom, {"kind": "bump", "center": (0.0,), "radius": 0.5})
    bump_off = sample_symbol(dom, {"kind": "bump", "center": (0.375,), "radius": 0.25})
    return [
        ("log", SampledFunction(dom, np.log(np.abs(mids)))),
        ("bump_wide", bump_wide),
        ("bump_off", bump_off),
        ("holder", SampledFunction(dom, np.abs(mids) ** 0.25)),
        ("xbump", SampledFunction(dom, mids * bump_wide.values)),
    ]


def test_c01_bloom_sandwich_every_cube(dom10):
    setup = ExponentSetup(2.0, 2.0, 1)
    start = time.monotonic()
    lo, hi = 1.0, 0.0
    ok = True
    for mu, lam in weight_pairs(dom10, 20):
        rep = bloom_sandwich_report(mu, lam, setup)
        lo = min(lo, rep.min_ratio)
        hi = max(hi, rep.max_ratio / rep.upper)
        ok = ok and rep.holds(1e-9)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 10.0
    _verdict(1, "bloom sandwich on every cube", ok,
             f"min ratio {lo:.3g}, max/upper {hi:.3g}, {elapsed:.2f}s")


def test_c02_intermediate_membership_and_index_identity(dom10):
    ok = True
    for mu, lam in weight_pairs(dom10, 20):
        rep = bloom_sandwich_report(mu, lam, ExponentSetup(2.0, 2.0, 1))
        ok = ok and rep.intermediate_characteristic <= rep.intermediate_bound * (1 + 1e-9)
    setup24 = ExponentSetup(2.0, 4.0, 1)
    ok = ok and abs(setup24.s - 1.6) <= 1e-12
    mu, lam = weight_pairs(dom10, 2)[1]
    rep24 = bloom_sandwich_report(mu, lam, setup24)
    ok = ok and rep24.s == setup24.s
    ok = ok and rep24.intermediate_characteristic <= rep24.intermediate_bound * (1 + 1e-9)
    # 50-point exponent grid: the two routes to s must coincide.
    worst = 0.0
    for p in np.linspace(1.05, 5.0, 10):
        for dq in np.linspace(0.0, 3.0, 5):
            st = ExponentSetup(float(p), float(p + dq), 1)
            worst = max(worst, abs(st.s - 2.0 / (1.0 + st.alpha_frac)))
    ok = ok and worst <= 1e-12
    _verdict(2, "intermediate-weight membership + index identity", ok,
             f"s(2,4) = {setup24.s}, grid deviation {worst:.2e}")


def test_c03_bmo_equivalence_per_cube(dom10):
    mids = dom10.midpoints()[0]
    symbols = [
        SampledFunction(dom10, np.log(np.abs(mids))),
        SampledFunction(dom10, mids.copy()),
        SampledFunction(dom10, np.abs(mids) ** 0.25),
    ]
    pairs = weight_pairs(dom10, 5)
    setups = [ExponentSetup(2.0, 2.0, 1)] * 3 + [ExponentSetup(2.0, 4.0, 1)] * 2
    ok = True
    worst = 0.0
    for (mu, lam), st in zip(pairs, setups):
        upper = (apq_characteristic(mu, mu, st.p, st.p).supremum
                 * apq_characteristic(lam, lam, st.q, st.q).supremum)
        for b in symbols:
            tw = oscillation.two_weight_norm(b, mu, lam, st).values
            fr = oscillation.bmo_norm(b, bloom_weight(mu, lam, st), st.alpha).values
            ok = ok and bool(np.all(tw <= fr * (1 + 1e-9)))
            ok = ok and bool(np.all(fr <= upper * tw * (1 + 1e-9)))
            with np.errstate(invalid="ignore", divide="ignore"):
                worst = max(worst, float(np.max(np.where(tw > 0, fr / tw, 1.0) / upper)))
    _verdict(3, "per-cube BMO equivalence", ok,
             f"15 (pair, symbol) combinations; max quotient/upper {worst:.3g}")


def test_c04_cz_augmentation(dom10):
    root = dyadic.cube(dom10, 0, (0,))
    bound = sparse.cz_constant(1)
    mids = dom10.midpoints()[0]
    ok = True
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(5000 + seed)
        kind = seed % 3
        if kind == 0:
            vals = rng.standard_normal(dom10.n)
        elif kind == 1:
            vals = np.log(np.abs(mids - rng.uniform(-0.5, 0.5)))
        else:
            vals = np.cumsum(rng.standard_normal(dom10.n)) / 32.0
        b = SampledFunction(dom10, vals)
        fam = sparse.cz_augment(b, root)
        ratio = sparse.augmentation_ratio(b, root, fam)
        worst = max(worst, ratio)
        ok = ok and sparse.is_sparse(fam).ok and ratio <= bound
    # Hand-run check: a half indicator never selects, one entry, ratio 1.
    unit_root = dyadic.cube(dom10, 1, (1,))
    half = indicator(dyadic.cube(dom10, 2, (2,)))  # [0, 1/2)
    fam = sparse.cz_augment(half, unit_root)
    ok = ok and len(fam.entries) == 1
    ok = ok and np.array_equal(core_arrays(fam)[0], unit_root.flat_cells())
    ok = ok and sparse.augmentation_ratio(half, unit_root, fam) == pytest.approx(1.0)
    _verdict(4, "CZ augmentation sparse + dominating", ok,
             f"50 seeds at m=10, worst ratio {worst:.3g} vs C = {bound:g}")


def test_c05_john_nirenberg(dom10, unit10):
    root = dyadic.cube(dom10, 1, (1,))
    mids = dom10.midpoints()[0]
    half = make_weight(dom10, {"kind": "power", "beta": 0.5})
    rng = np.random.default_rng(42)
    blog = SampledFunction(dom10, np.log(np.abs(mids)))
    brand = SampledFunction(dom10, np.cumsum(rng.standard_normal(dom10.n)) / 16.0)
    bound = sparse.cz_constant(1)
    ok = True
    for w in (unit10, half):
        for r in (1.0, 2.0):
            for b in (blog, brand):
                rep = oscillation.jn_verify(b, w, 2.0, r, 0.0, root)
                ok = ok and rep.ratio >= 1.0 - 1e-9
                ok = ok and rep.sparse_ratio <= bound * (1 + 1e-9)
                if r == 1.0:
                    ok = ok and rep.ratio == pytest.approx(1.0, rel=1e-12)
    # Stopping-family Carleson and near-orthogonality constants, 50 seeds.
    carleson_worst = ortho_worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        f = SampledFunction(dom10, np.abs(rng.standard_normal(dom10.n)))
        b = SampledFunction(dom10, np.cumsum(rng.standard_normal(dom10.n)) / 16.0)
        fam = sparse.cz_augment(b, root)
        carleson_worst = max(carleson_worst, sparse.carleson_constant(f, unit10, 2.0, fam))
        pieces = []
        cubes = fam.cubes()
        for cube in cubes:
            v = np.zeros(dom10.n)
            v[cube.flat_cells()] = rng.standard_normal()
            subs = [o for o in cubes if cube.contains_cube(o) and o is not cube]
            if subs:
                v[np.unique(np.concatenate([o.flat_cells() for o in subs]))] = (
                    rng.standard_normal()
                )
            pieces.append(v)
        ortho_worst = max(ortho_worst, sparse.almost_orthogonality_check(fam, pieces, half, 2.0))
    ok = ok and carleson_worst <= 2.0 and ortho_worst <= 2.0  # committed bounds
    _verdict(5, "John-Nirenberg r-monotonicity + stopping bounds", ok,
             f"carleson {carleson_worst:.3g}, orthogonality {ortho_worst:.3g}, cap 2.0")


def test_c06_oscillation_anchors(dom10):
    mids = dom10.midpoints()[0]
    x = SampledFunction(dom10, mids.copy())
    exact = oscillation.oscillation(x, dyadic.cube(dom10, 1, (1,)).flat_cells())  # [0, 1)
    ok = exact == 0.25
    blog = SampledFunction(dom10, np.log(np.abs(mids)))
    target = 2.0 / np.e
    worst = 0.0
    for gen in (1, 2, 3):  # [0, t) for t = 1, 1/2, 1/4
        anchor = dyadic.cube(dom10, gen, (2 ** (gen - 1),))
        val = oscillation.oscillation(blog, anchor.flat_cells())
        worst = max(worst, abs(val - target) / target)
    ok = ok and worst <= 0.02
    _verdict(6, "oscillation anchors", ok,
             f"O(x) = {exact} exactly, log anchor off by {worst:.3%} (cap 2%)")


def test_c07_norm_equivalence_window(dom10, unit10):
    window = (2.0, 20.0)  # committed; observed ratios 4.61 .. 8.93
    assert window[1] / window[0] <= 50.0
    setup = ExponentSetup(2.0, 2.0, 1)
    start = time.monotonic()
    ok = True
    seen = []
    for m in (8, 9, 10):
        dom = dom10 if m == 10 else LatticeDomain(d=1, m=m, L=1.0)
        unit = unit10 if m == 10 else make_weight(dom, {"kind": "unit"})
        op = ops.Convolution(ops.make_kernel("hilbert"), dom)
        for row in normest.bmo_vs_norm_sweep(symbol_family(dom), op, unit, unit, setup):
            seen.append(row["norm_over_bmo"])
            ok = ok and window[0] <= row["norm_over_bmo"] <= window[1]
            ok = ok and np.isfinite(row["probe"])
            ok = ok and row["probe"] <= row["norm"] * (1 + 1e-9)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _verdict(7, "norm-equivalence window stable in m", ok,
             f"ratios {min(seen):.3g} .. {max(seen):.3g} inside {window}, {elapsed:.1f}s")


def test_c08_fractional_norms(unit10):
    setup = ExponentSetup(2.0, 4.0, 1)
    bmos, norms = [], []
    for m in (8, 9, 10):
        dom = LatticeDomain(d=1, m=m, L=1.0)
        unit = make_weight(dom, {"kind": "unit"})
        b = SampledFunction(dom, np.abs(dom.midpoints()[0]) ** 0.25)
        bmos.append(oscillation.bmo_norm(b, bloom_weight(unit, unit, setup),
                                         setup.alpha).supremum)
        comm = ops.Commutator(b, ops.Convolution(ops.make_kernel("hilbert"), dom))
        norms.append(normest.opnorm_estimate(comm, 2.0, unit, 4.0, unit).value)
    ok = max(bmos) <= 1.05 * min(bmos)
    ok = ok and norms[0] <= norms[1] * (1 + 1e-9) and norms[1] <= norms[2] * (1 + 1e-9)
    _verdict(8, "fractional oscillation stable + ascent monotone", ok,
             f"bmo spread {max(bmos)/min(bmos)-1:.3%}, norms {['%.4f' % v for v in norms]}")


def test_c09_compactness_dichotomy(dom10, unit10):
    setup = ExponentSetup(2.0, 2.0, 1)
    kern = ops.make_kernel("hilbert")
    eps_list = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    mids = dom10.midpoints()[0]
    smooth = sample_symbol(dom10, {"kind": "bump", "center": (0.0,), "radius": 0.75})
    blog = SampledFunction(dom10, np.log(np.abs(mids)))
    rep_s = normest.compactness_profile(smooth, kern, setup, eps_list, unit10, unit10)
    rep_l = normest.compactness_profile(blog, kern, setup, eps_list, unit10, unit10)
    # Committed fixtures (m=10): smooth tail ratio 0.114, log 0.641;
    # sparse analogs 0.0 and 0.477.  Direction is the claim.
    ok = rep_s.tail_norms[-1] <= 0.25 * rep_s.tail_norms[0]
    ok = ok and rep_l.tail_norms[-1] >= 0.5 * rep_l.tail_norms[0]
    ok = ok and rep_s.sparse_tail_norms[-1] <= 0.25 * rep_s.sparse_tail_norms[0]
    ok = ok and rep_l.sparse_tail_norms[-1] >= 0.25 * rep_l.sparse_tail_norms[0]
    _verdict(9, "compactness dichotomy", ok,
             f"smooth tail x{rep_s.tail_norms[-1]/rep_s.tail_norms[0]:.3f} vs "
             f"log x{rep_l.tail_norms[-1]/rep_l.tail_norms[0]:.3f}")


def test_c10_maximal_domination():
    ok = True
    worst = 0.0
    for d, m, count in ((1, 10, 20), (2, 6, 5)):
        dom = LatticeDomain(d=d, m=m, L=1.0)
        c_m = 2.0**d / (2.0**d - 1.0)
        rng = np.random.default_rng(7)
        for _ in range(count):
            gen = int(rng.integers(1, m + 1))
            idx = tuple(int(v) for v in rng.integers(0, 2**gen, size=d))
            r_cube = dyadic.cube(dom, gen, idx)
            lhs = np.zeros(dom.n**d)
            q = r_cube
            while True:
                lhs[q.flat_cells()] += volume(r_cube) / volume(q)
                if q.generation == 0:
                    break
                q = parent(q)
            mf = dyadic.dyadic_maximal(indicator(r_cube)).values.reshape(-1)
            ok = ok and bool(np.all(lhs <= c_m * mf))  # cell-exact, no slack
            worst = max(worst, float(np.max(lhs / np.maximum(c_m * mf, 1e-300))))
    _verdict(10, "ancestor-sum vs maximal function", ok,
             f"C_M = 2^d/(2^d-1), worst lhs/(C_M M) = {worst:.6f}")


def test_c11_decomposition_and_truncation(dom10):
    dom2 = LatticeDomain(d=2, m=5, L=1.0)
    kernels = [
        (ops.make_kernel("hilbert"), dom10),
        (ops.make_kernel("custom", {
            "evaluator": lambda z: 0.5 / z[..., 0], "C": 0.5, "domain": dom10}), dom10),
        (ops.make_kernel("custom", {
            "evaluator": lambda z: np.sign(z[..., 0]) / np.abs(z[..., 0]),
            "C": 1.0, "domain": dom10}), dom10),
        (ops.make_kernel("riesz", {"j": 1}), dom2),
        (ops.make_kernel("riesz", {"j": 2}), dom2),
    ]
    ok = True
    worst_gap = 0.0
    for kernel, dom in kernels:
        base = ops.assemble(kernel, dom).matrix
        scale = max(1.0, float(np.max(np.abs(base))))
        basis = np.eye(dom.n**dom.d)
        for eps in (0.125, 0.25, 0.5):
            # row i of part.apply(basis) is column i of the part
            t_c, t_eps = (part.apply(basis).T for part in ops.split(kernel, dom, eps))
            gap = float(np.max(np.abs(t_c + t_eps - base)))
            worst_gap = max(worst_gap, gap / scale)
            ok = ok and gap <= 1e-12 * scale
    hilbert = kernels[0][0]
    for seed in range(20):
        rng = np.random.default_rng(8000 + seed)
        f = SampledFunction(dom10, rng.standard_normal(dom10.n))
        rep = ops.truncation_comparison(hilbert, 4.0 * dom10.h, f)
        ok = ok and rep.ok and rep.worst_ratio <= 1.0 + 1e-12
    _verdict(11, "decomposition identity + truncation gap", ok,
             f"15 splits, worst relative gap {worst_gap:.2e}; 20 truncations")
