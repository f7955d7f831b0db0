"""Sparse families: construction, verification, model operators,
splitting, and the embedding ratios."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import dyadic, normest, sparse
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.weights import make_weight


@pytest.fixture(scope="module")
def dom():
    return LatticeDomain(d=1, m=10, L=1.0)


@pytest.fixture(scope="module")
def grid(dom):
    return dyadic.canonical_grid(dom)


@pytest.fixture(scope="module")
def unit_root(grid):
    return grid.cube_containing((0.5,), 1)  # [0, 1)


def family(dom, cubes, cores=None):
    """A hand-made family; each core defaults to its whole cube."""
    keys = [(cube.grid.grid_id, cube.generation, *cube.index) for cube in cubes]
    if cores is None:
        cores = [cube.flat_cells() for cube in cubes]
    return sparse.SparseFamily(dom, np.array(keys, dtype=np.int64).reshape(-1, 2 + dom.d), list(cores))


def domination_ratio(b, root, family):
    """max over cells of |b - <b>_root| / sum_Q <|b - <b>_Q|>_Q 1_Q."""
    flat = b.values.reshape(-1)
    cells = root.flat_cells()
    lhs = np.abs(flat[cells] - flat[cells].mean())
    rhs = np.zeros(flat.size)
    for cube in family.cubes():
        c = cube.flat_cells()
        rhs[c] += np.abs(flat[c] - flat[c].mean()).mean()
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(lhs > 0.0, lhs / rhs[cells], 0.0)
    return float(np.max(ratios)) if ratios.size else 0.0


# -- verdicts -----------------------------------------------------------------


def test_disjoint_full_cores_are_sparse(dom, grid):
    cubes = [grid.cube(3, (k,)) for k in (0, 2, 5)]
    fam = family(dom, cubes)
    assert sparse.is_sparse(fam, gamma=0.9).ok


def test_nested_full_cores_violate(dom, grid):
    big = grid.cube(2, (1,))
    small = big.children()[0]
    fam = family(dom, [big, small])
    verdict = sparse.is_sparse(fam)
    assert not verdict.ok
    assert "intersect" in verdict.reason


def test_thin_core_violates(dom, grid):
    cube = grid.cube(3, (1,))
    cells = cube.flat_cells()
    fam = family(dom, [cube], [cells[: cells.size // 2]])
    verdict = sparse.is_sparse(fam)
    assert not verdict.ok and verdict.worst_entry == 0


def test_core_escaping_cube_violates(dom, grid):
    cube = grid.cube(3, (1,))
    other = grid.cube(3, (2,))
    fam = family(dom, [cube], [other.flat_cells()])
    assert not sparse.is_sparse(fam).ok


# -- cz_augment ---------------------------------------------------------------


def test_half_indicator_gives_single_entry(dom, unit_root):
    mids = dom.midpoints()[0]
    b = SampledFunction(dom, ((mids >= 0) & (mids < 0.5)).astype(float))
    fam = sparse.cz_augment(b, unit_root)
    assert len(fam) == 1
    assert fam.cubes() == [unit_root]
    assert fam.cores[0].size == unit_root.flat_cells().size
    # <|b - 1/2|> == 1/2 at every scale: domination constant exactly 1
    assert domination_ratio(b, unit_root, fam) == pytest.approx(1.0, abs=1e-15)


def test_constant_symbol_single_entry(dom, unit_root):
    b = SampledFunction(dom, np.full(dom.n, 7.0))
    fam = sparse.cz_augment(b, unit_root)
    assert len(fam) == 1
    assert sparse.is_sparse(fam).ok


def test_log_family_multi_generation():
    dom = LatticeDomain(d=1, m=12, L=1.0)
    grid = dyadic.canonical_grid(dom)
    root = grid.cube_containing((0.5,), 1)
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, root)
    assert len(set(fam.entries[:, 1])) >= 3
    assert sparse.is_sparse(fam).ok
    assert domination_ratio(b, root, fam) <= sparse.cz_constant(1)
    # selection is strictly sub-half at every node, in integer cells
    for cube, core in zip(fam.cubes(), fam.cores):
        ncells = cube.flat_cells().size
        assert 2 * (ncells - core.size) <= ncells


def test_cz_rejects_shifted_root(dom):
    b = SampledFunction(dom, dom.midpoints()[0].copy())
    shifted = dyadic.grids(dom)[1].cube(2, (1,))
    with pytest.raises(ValueError):
        sparse.cz_augment(b, shifted)


@pytest.mark.parametrize("seed", range(10))
def test_cz_random_symbols_sparse_and_dominating(dom, unit_root, seed):
    rng = np.random.default_rng(1000 + seed)
    mids = dom.midpoints()[0]
    kind = seed % 3
    if kind == 0:
        vals = rng.standard_normal(dom.n)
    elif kind == 1:
        vals = np.log(np.abs(mids - rng.uniform(-0.5, 0.5)))
    else:
        vals = np.cumsum(rng.standard_normal(dom.n)) / 32.0
    b = SampledFunction(dom, vals)
    fam = sparse.cz_augment(b, unit_root)
    assert sparse.is_sparse(fam).ok
    assert domination_ratio(b, unit_root, fam) <= sparse.cz_constant(1)


def test_cz_two_dimensional_domination():
    dom = LatticeDomain(d=2, m=4, L=1.0)
    root = dyadic.canonical_grid(dom).cube(0, (0, 0))
    mx, my = dom.midpoints()
    b = SampledFunction(dom, np.log(np.sqrt(mx**2 + my**2)))
    fam = sparse.cz_augment(b, root)
    assert sparse.is_sparse(fam).ok
    assert domination_ratio(b, root, fam) <= sparse.cz_constant(2)


def cz_augment_oracle(b, root):
    """Reference stopping-time family: the DyadicCube.children() stack walk
    cz_augment had before it read subcube means off generation tables.
    Returns (cube, core) pairs in queue order."""
    m = b.domain.m
    b_flat = b.values.reshape(-1)
    dev = np.empty(b_flat.size)
    entries = []
    queue = deque([root])
    while queue:
        cube = queue.popleft()
        cells = cube.flat_cells()
        dev[cells] = np.abs(b_flat[cells] - b_flat[cells].mean())
        base = dev[cells].mean()
        selected = []
        if base > 0.0 and cube.generation < m:
            stack = list(cube.children())
            while stack:
                child = stack.pop()
                if dev[child.flat_cells()].mean() > sparse.LAMBDA * base:
                    selected.append(child)
                elif child.generation < m:
                    stack.extend(child.children())
        if selected:
            removed = np.concatenate([p.flat_cells() for p in selected])
            core = np.setdiff1d(cells, removed)
            selected.sort(key=lambda c: (c.generation, c.index))
            queue.extend(selected)
        else:
            core = cells
        entries.append((cube, core))
    return entries


@st.composite
def cz_cases(draw):
    d = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(2, 6))
    dom = LatticeDomain(d=d, m=m, L=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("real", "complex", "piecewise", "constant", "log")))
    if kind == "real":
        values = rng.standard_normal(dom.shape)
    elif kind == "log":
        # a log singularity at a random point stops at many nested scales
        centre = rng.uniform(-1.0, 1.0, size=d)
        values = np.log(np.sqrt(sum((x - c) ** 2 for x, c in zip(dom.midpoints(), centre))))
    elif kind == "complex":
        values = rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape)
    elif kind == "piecewise":
        # Small-integer levels on the cubes of one generation keep every
        # mean exact, so exact ties at LAMBDA * base occur and both
        # summation orders must break them the same way.
        j = draw(st.integers(0, m))
        levels = rng.integers(-3, 4, size=(2**j,) * d).astype(float)
        values = dyadic._broadcast_generation(dom, levels, j)
    else:
        values = np.full(dom.shape, draw(st.floats(-10.0, 10.0)))
    g = draw(st.integers(0, m))
    index = tuple(draw(st.integers(0, 2**g - 1)) for _ in range(d))
    return SampledFunction(dom, values), dyadic.canonical_grid(dom).cube(g, index)


@settings(max_examples=80, deadline=None)
@given(case=cz_cases())
def test_cz_matches_children_walk_oracle(case):
    b, root = case
    fam = sparse.cz_augment(b, root)
    want = cz_augment_oracle(b, root)
    assert fam.cubes() == [cube for cube, _ in want]
    for got, (_, core) in zip(fam.cores, want):
        assert got.dtype == core.dtype
        np.testing.assert_array_equal(got, core)


def test_augmentation_ratio_matches_local_oracle(dom, unit_root):
    mids = dom.midpoints()[0]
    for vals in (np.log(np.abs(mids)), np.cumsum(np.sin(7.0 * mids))):
        b = SampledFunction(dom, vals)
        fam = sparse.cz_augment(b, unit_root)
        lib = sparse.augmentation_ratio(b, unit_root, fam)
        assert lib == pytest.approx(domination_ratio(b, unit_root, fam), rel=1e-12)


# -- model operators ----------------------------------------------------------


def test_plain_single_cube(dom, grid):
    cube = grid.cube(2, (1,))
    fam = family(dom, [cube])
    rng = np.random.default_rng(3)
    f = SampledFunction(dom, rng.standard_normal(dom.n))
    out = sparse.sparse_apply("plain", f, fam)
    cells = cube.flat_cells()
    expect = np.zeros(dom.n)
    expect[cells] = f.values[cells].mean()
    np.testing.assert_allclose(out.values, expect, atol=1e-15)


def test_star_with_constant_symbol_vanishes(dom, grid):
    fam = family(dom, [grid.cube(1, (1,))])
    b = SampledFunction(dom, np.full(dom.n, 4.0))
    f = SampledFunction(dom, np.sin(dom.midpoints()[0]))
    out = sparse.sparse_apply("star", f, fam, b=b)
    assert np.all(out.values == 0.0)


def test_star_adjoint_duality(dom, unit_root):
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, unit_root)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = SampledFunction(dom, rng.standard_normal(dom.n))
        g = SampledFunction(dom, rng.standard_normal(dom.n))
        lhs = np.sum(sparse.sparse_apply("adjoint", f, fam, b=b).values * g.values)
        rhs = np.sum(f.values * sparse.sparse_apply("star", g, fam, b=b).values)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_plain_is_monotone(dom, unit_root):
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, unit_root)
    rng = np.random.default_rng(17)
    f = SampledFunction(dom, rng.standard_normal(dom.n))
    g = SampledFunction(dom, f.values + rng.uniform(0.0, 1.0, dom.n))
    Af = sparse.sparse_apply("plain", f, fam)
    Ag = sparse.sparse_apply("plain", g, fam)
    assert np.all(Af.values <= Ag.values + 1e-15)


def test_fractional_single_cube_formula(dom, grid):
    cube = grid.cube(2, (1,))
    fam = family(dom, [cube])
    mu = make_weight(dom, {"kind": "power", "beta": 0.5})
    lam = make_weight(dom, {"kind": "unit"})
    p, q = 2.0, 4.0
    f = SampledFunction(dom, np.ones(dom.n))
    out = sparse.sparse_apply("fractional", f, fam, mu=mu, lam=lam, p=p, q=q)
    cells = cube.flat_cells()
    mu_mass = (mu.power(p).values[cells].sum()) * dom.cell_volume
    lam_mass = (lam.power(-q / (q - 1)).values[cells].sum()) * dom.cell_volume
    coef = mu_mass ** (1 / p) * lam_mass ** (1 - 1 / q) / (cells.size * dom.cell_volume)
    assert out.values[cells[0]] == pytest.approx(coef, rel=1e-12)
    assert np.all(out.values[: cells[0]] == 0.0)


def test_apply_rejects_bad_kind(dom, grid):
    fam = family(dom, [grid.cube(1, (1,))])
    f = SampledFunction(dom, np.ones(dom.n))
    with pytest.raises(ValueError):
        sparse.sparse_apply("star", f, fam)  # missing b
    with pytest.raises(ValueError):
        sparse.sparse_apply("nonsense", f, fam)


# -- table path vs the per-entry loops ------------------------------------------


def sparse_apply_oracle(kind, f, dom, pairs, b=None, mu=None, lam=None, p=None, q=None):
    """The per-entry loop sparse_apply ran before it read generation tables:
    each (cube, core) pair adds its term to the cube's cells in turn."""
    f_flat = f.values.reshape(-1)
    out = np.zeros(f_flat.size, dtype=complex)
    if kind in ("star", "adjoint"):
        b_flat = b.values.reshape(-1)
    if kind == "fractional":
        q_prime = q / (q - 1.0)
        mu_p = mu.power(p).values.reshape(-1)
        lam_qp = lam.power(-q_prime).values.reshape(-1)
    for cube, _ in pairs:
        cells = cube.flat_cells()
        if kind in ("star", "adjoint"):
            dev = np.abs(b_flat[cells] - b_flat[cells].mean())
        if kind == "plain":
            out[cells] += f_flat[cells].mean()
        elif kind == "star":
            out[cells] += (dev * f_flat[cells]).mean()
        elif kind == "adjoint":
            out[cells] += dev * f_flat[cells].mean()
        else:
            vol = cells.size * dom.cell_volume
            coef = (
                (mu_p[cells].sum() * dom.cell_volume) ** (1.0 / p)
                * (lam_qp[cells].sum() * dom.cell_volume) ** (1.0 / q_prime)
                / vol
            )
            out[cells] += coef * f_flat[cells].mean()
    if np.all(out.imag == 0.0):
        out = out.real
    return out.reshape(dom.shape)


def augmentation_ratio_oracle(b, root, pairs):
    b_flat = b.values.reshape(-1)
    root_cells = root.flat_cells()
    numer = np.zeros(b_flat.size)
    numer[root_cells] = np.abs(b_flat[root_cells] - b_flat[root_cells].mean())
    denom = np.zeros(b_flat.size)
    for cube, _ in pairs:
        cells = cube.flat_cells()
        denom[cells] += np.abs(b_flat[cells] - b_flat[cells].mean()).mean()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer[root_cells] / denom[root_cells]
    ratio[numer[root_cells] == 0.0] = 0.0
    return float(ratio.max()) if ratio.size else 0.0


def is_sparse_oracle(pairs, gamma):
    """(ok, reason, index of the first failing entry) of the per-entry check."""
    for i, (cube, core) in enumerate(pairs):
        cells = cube.flat_cells()
        if np.setdiff1d(core, cells).size:
            return False, "core leaves its cube", i
        if core.size <= gamma * cells.size:
            return False, "core fraction at or below gamma", i
    seen = set()
    for i, (_, core) in enumerate(pairs):
        if seen & set(core.tolist()):
            return False, "cores intersect", i
        seen |= set(core.tolist())
    return True, "", None


def assert_apply_matches(fam, pairs, b, rng, exact):
    dom = b.domain
    f = SampledFunction(dom, rng.standard_normal(dom.shape) + 1j * rng.standard_normal(dom.shape))
    real_f = SampledFunction(dom, f.values.real.copy())
    mu = make_weight(dom, {"kind": "power", "beta": 0.3})
    lam = make_weight(dom, {"kind": "power", "beta": -0.2})
    for g in (f, real_f):
        for kind in ("plain", "star", "adjoint", "fractional"):
            extra = {"mu": mu, "lam": lam, "p": 2.0, "q": 3.0} if kind == "fractional" else {}
            got = sparse.sparse_apply(kind, g, fam, b=b, **extra).values
            want = sparse_apply_oracle(kind, g, dom, pairs, b=b, **extra)
            assert got.dtype == want.dtype
            if exact:
                np.testing.assert_array_equal(got, want)
            else:
                scale = max(1.0, float(np.max(np.abs(want))))
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(case=cz_cases(), seed=st.integers(0, 2**32 - 1), k=st.sampled_from((0.25, 1.0, 2.0, 1e9)))
def test_cz_family_tables_match_entry_loops(case, seed, k):
    b, root = case
    fam = sparse.cz_augment(b, root)
    pairs = list(zip(fam.cubes(), fam.cores))
    rng = np.random.default_rng(seed)
    assert_apply_matches(fam, pairs, b, rng, exact=True)
    assert sparse.augmentation_ratio(b, root, fam) == augmentation_ratio_oracle(b, root, pairs)
    verdict = sparse.is_sparse(fam)
    assert (verdict.ok, verdict.reason, verdict.worst_entry) == is_sparse_oracle(pairs, 0.5)
    kept = sparse.split_family(fam, k)
    if k == 1e9:
        assert len(kept) == 0  # every lattice sidelength lies in [1/k, k]
    kept_pairs = list(zip(kept.cubes(), kept.cores))
    assert_apply_matches(kept, kept_pairs, b, rng, exact=True)
    assert sparse.augmentation_ratio(b, root, kept) == augmentation_ratio_oracle(b, root, kept_pairs)
    assert sparse.is_sparse(kept).ok


@settings(max_examples=40, deadline=None)
@given(case=cz_cases(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4))
def test_batched_tables_match_single_rows(case, seed, rows):
    b, root = case
    dom, fam = b.domain, sparse.cz_augment(b, root)
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((rows,) + dom.shape) + 1j * rng.standard_normal((rows,) + dom.shape)
    batch[0] = batch[0].real  # a real row riding in a complex batch
    mu = make_weight(dom, {"kind": "power", "beta": 0.3})
    lam = make_weight(dom, {"kind": "power", "beta": -0.2})
    for values in (batch, batch.real.copy()):
        for kind in ("plain", "star", "adjoint", "fractional"):
            extra = {"mu": mu, "lam": lam, "p": 2.0, "q": 3.0} if kind == "fractional" else {}
            got = sparse._table_apply(kind, values, fam, b=b, **extra)
            assert got.shape == values.shape
            for row, out in zip(values, got):
                one = sparse.sparse_apply(kind, SampledFunction(dom, row), fam, b=b, **extra)
                np.testing.assert_array_equal(out, one.values)
    star = normest._SparseStar(b, fam)
    flat = batch.reshape(rows, -1)
    for run, kind in ((star.apply, "star"), (star.adjoint, "adjoint")):
        for row, out in zip(batch, run(flat)):
            one = sparse.sparse_apply(kind, SampledFunction(dom, row), fam, b=b)
            np.testing.assert_array_equal(out, one.values.reshape(-1))


@st.composite
def hand_made_families(draw):
    """Random cubes, repeats allowed, with whole, majority, thin, escaping
    or empty cores."""
    d = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(2, 5))
    dom = LatticeDomain(d=d, m=m, L=1.0)
    grid = dyadic.canonical_grid(dom)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        if pairs and draw(st.booleans()):
            cube = pairs[draw(st.integers(0, len(pairs) - 1))][0]  # a repeated cube
        else:
            g = draw(st.integers(0, m))
            cube = grid.cube(g, tuple(draw(st.integers(0, 2**g - 1)) for _ in range(d)))
        cells = cube.flat_cells()
        kind = draw(st.sampled_from(("whole", "majority", "thin", "escape", "empty")))
        if kind == "whole":
            core = cells
        elif kind == "majority":
            core = np.sort(rng.choice(cells, cells.size // 2 + 1, replace=False))
        elif kind == "thin":
            core = np.sort(rng.choice(cells, cells.size // 2, replace=False))
        elif kind == "escape":
            core = np.unique(np.append(cells[1:], rng.integers(0, dom.n**d)))
        else:
            core = np.empty(0, dtype=np.int64)
        pairs.append((cube, core))
    return dom, pairs, draw(st.sampled_from((0.25, 0.5, 0.75)))


@settings(max_examples=150, deadline=None)
@given(case=hand_made_families(), seed=st.integers(0, 2**32 - 1))
def test_hand_made_family_verdicts_match_entry_loop(case, seed):
    dom, pairs, gamma = case
    fam = family(dom, [cube for cube, _ in pairs], [core for _, core in pairs])
    verdict = sparse.is_sparse(fam, gamma)
    assert (verdict.ok, verdict.reason, verdict.worst_entry) == is_sparse_oracle(pairs, gamma)
    # repeated or unordered cubes sum each cell in another order: equal to rounding
    rng = np.random.default_rng(seed)
    b = SampledFunction(dom, rng.standard_normal(dom.shape))
    assert_apply_matches(fam, pairs, b, rng, exact=False)


# -- splitting ----------------------------------------------------------------


def nested_origin_family(dom):
    grid = dyadic.canonical_grid(dom)
    cubes = []
    for gen in (1, 2, 3, 4):  # [0,1), [0,1/2), [0,1/4), [0,1/8)
        cubes.append(grid.cube_containing((2.0**-gen / 2.0,), gen))
    return family(dom, cubes, [np.empty(0, dtype=np.int64)] * len(cubes))


def test_split_window(dom):
    fam = nested_origin_family(dom)
    kept = sparse.split_family(fam, 2.0)
    sides = sorted(cube.sidelength for cube in kept.cubes())
    assert sides == [0.125, 0.25]


def test_split_huge_k_empties(dom, unit_root):
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, unit_root)
    # window [1/k, k] swallows every lattice sidelength once 1/k < h
    assert len(sparse.split_family(fam, 2.0 / dom.h)) == 0


def test_split_k_one(dom):
    fam = nested_origin_family(dom)
    kept = sparse.split_family(fam, 1.0)
    sides = sorted(cube.sidelength for cube in kept.cubes())
    assert sides == [0.125, 0.25, 0.5]  # only the side-1 cube is removed


def test_split_removed_sets_nest_beyond_width(dom, unit_root):
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, unit_root)
    width = dom.width
    # a cz family holds each cube once, so key rows name its entries
    kept_small = {tuple(key) for key in sparse.split_family(fam, width).entries}
    kept_big = {tuple(key) for key in sparse.split_family(fam, 2.0 * width).entries}
    # a wider window removes more: what it keeps, the narrower one keeps too
    assert kept_big <= kept_small


# -- embedding ratios ---------------------------------------------------------


def test_carleson_single_cube_unity(dom, unit_root):
    fam = family(dom, [unit_root])
    mids = dom.midpoints()[0]
    f = SampledFunction(dom, ((mids >= 0) & (mids < 1)).astype(float))
    w = make_weight(dom, {"kind": "unit"})
    assert sparse.carleson_constant(f, w, 2.0, fam) == pytest.approx(1.0, rel=1e-12)


def test_carleson_off_support_zero(dom, grid):
    fam = family(dom, [grid.cube(1, (1,))])
    mids = dom.midpoints()[0]
    f = SampledFunction(dom, (mids < 0).astype(float))
    w = make_weight(dom, {"kind": "unit"})
    assert sparse.carleson_constant(f, w, 2.0, fam) == 0.0
    with pytest.raises(ValueError):
        sparse.carleson_constant(SampledFunction(dom, np.zeros(dom.n)), w, 2.0, fam)


def test_carleson_random_bounded():
    dom = LatticeDomain(d=1, m=8, L=1.0)
    root = dyadic.canonical_grid(dom).cube_containing((0.5,), 1)
    w = make_weight(dom, {"kind": "unit"})
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        f = SampledFunction(dom, np.abs(rng.standard_normal(dom.n)))
        b = SampledFunction(dom, np.cumsum(rng.standard_normal(dom.n)) / 16.0)
        fam = sparse.cz_augment(b, root)
        worst = max(worst, sparse.carleson_constant(f, w, 2.0, fam))
    assert worst <= 2.0  # committed bound; observed max 0.735


def test_almost_orthogonality_disjoint_exact(dom, grid):
    cubes = [grid.cube(3, (k,)) for k in (0, 2, 5)]
    fam = family(dom, cubes)
    rng = np.random.default_rng(9)
    pieces = []
    for c in cubes:
        v = np.zeros(dom.n)
        v[c.flat_cells()] = rng.standard_normal()
        pieces.append(v)
    w = make_weight(dom, {"kind": "power", "beta": 0.5})
    assert sparse.almost_orthogonality_check(fam, pieces, w, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_almost_orthogonality_preconditions(dom, grid):
    big = grid.cube(2, (1,))
    small = big.children()[1]
    fam = family(dom, [big, small],
                 [np.setdiff1d(big.flat_cells(), small.flat_cells()), small.flat_cells()])
    # support violation
    bad = [np.ones(dom.n), np.zeros(dom.n)]
    with pytest.raises(ValueError):
        sparse.almost_orthogonality_check(fam, bad, make_weight(dom, {"kind": "unit"}), 2.0)
    # constancy violation: vary inside the in-family subcube
    v0 = np.zeros(dom.n)
    v0[big.flat_cells()] = 1.0
    v0[small.flat_cells()[0]] = 2.0
    v1 = np.zeros(dom.n)
    v1[small.flat_cells()] = 1.0
    with pytest.raises(ValueError):
        sparse.almost_orthogonality_check(fam, [v0, v1], make_weight(dom, {"kind": "unit"}), 2.0)


def test_almost_orthogonality_nested_bounded():
    dom = LatticeDomain(d=1, m=8, L=1.0)
    root = dyadic.canonical_grid(dom).cube_containing((0.5,), 1)
    w = make_weight(dom, {"kind": "power", "beta": 0.5})
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        b = SampledFunction(dom, np.cumsum(rng.standard_normal(dom.n)) / 16.0)
        fam = sparse.cz_augment(b, root)
        pieces = []
        cubes = fam.cubes()
        for cube in cubes:
            v = np.zeros(dom.n)
            v[cube.flat_cells()] = rng.standard_normal()
            subs = [o for o in cubes if cube.contains_cube(o) and o is not cube]
            if subs:
                v[np.unique(np.concatenate([o.flat_cells() for o in subs]))] = (
                    rng.standard_normal()
                )
            pieces.append(v)
        worst = max(worst, sparse.almost_orthogonality_check(fam, pieces, w, 2.0))
    assert worst <= 2.0  # committed bound; observed max 1.212


# -- domination search --------------------------------------------------------


def test_commutator_domination_certifies_model(dom, unit_root):
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, unit_root)
    rng = np.random.default_rng(21)
    f = SampledFunction(dom, rng.standard_normal(dom.n))
    absf = SampledFunction(dom, np.abs(f.values))
    model = sparse.sparse_apply("star", absf, fam, b=b)
    report = sparse.commutator_domination(model, b, f, [fam])
    assert report.covered
    assert report.constant <= 1.0 + 1e-12


def test_commutator_domination_flags_uncovered(dom, grid):
    cube = grid.cube(2, (1,))
    fam = family(dom, [cube])
    b = SampledFunction(dom, dom.midpoints()[0].copy())
    f = SampledFunction(dom, np.ones(dom.n))
    comm = SampledFunction(dom, np.ones(dom.n))  # mass everywhere
    report = sparse.commutator_domination(comm, b, f, [fam])
    assert not report.covered
    assert "mass-outside-family-support" in report.flags
