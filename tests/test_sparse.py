"""Sparse families: construction, verification, model operators,
splitting, and the embedding ratios."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import cli, dyadic, sparse
from dyadlab import oscillation as osc
from dyadlab.lattice import LatticeDomain, SampledFunction, sample_symbol
from dyadlab.weights import make_weight
from oracles import children, core_arrays, dist_to_origin, enumerate_cubes


@pytest.fixture(scope="module")
def dom():
    return LatticeDomain(d=1, m=10, L=1.0)


@pytest.fixture(scope="module")
def unit_root(dom):
    return dyadic.cube(dom, 1, (1,))  # [0, 1)


def family(dom, cubes, cores=None):
    """A hand-made family; each core defaults to its whole cube."""
    keys = [(cube.generation, *cube.index) for cube in cubes]
    if cores is None:
        cores = [cube.flat_cells() for cube in cubes]
    cells = np.concatenate([np.empty(0, dtype=np.int64)] + list(cores)).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum([len(core) for core in cores], dtype=np.int64)))
    return sparse.SparseFamily(dom, np.array(keys, dtype=np.int64).reshape(-1, 1 + dom.d), cells, offsets)


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


def test_disjoint_full_cores_are_sparse(dom):
    cubes = [dyadic.cube(dom, 3, (k,)) for k in (0, 2, 5)]
    fam = family(dom, cubes)
    assert sparse.is_sparse(fam, gamma=0.9).ok


def test_nested_full_cores_violate(dom):
    big = dyadic.cube(dom, 2, (1,))
    small = children(big)[0]
    fam = family(dom, [big, small])
    verdict = sparse.is_sparse(fam)
    assert not verdict.ok
    assert "intersect" in verdict.reason


def test_thin_core_violates(dom):
    cube = dyadic.cube(dom, 3, (1,))
    cells = cube.flat_cells()
    fam = family(dom, [cube], [cells[: cells.size // 2]])
    verdict = sparse.is_sparse(fam)
    assert not verdict.ok and verdict.worst_entry == 0


def test_core_escaping_cube_violates(dom):
    cube = dyadic.cube(dom, 3, (1,))
    other = dyadic.cube(dom, 3, (2,))
    fam = family(dom, [cube], [other.flat_cells()])
    assert not sparse.is_sparse(fam).ok


# -- cz_augment ---------------------------------------------------------------


def test_half_indicator_gives_single_entry(dom, unit_root):
    mids = dom.midpoints()[0]
    b = SampledFunction(dom, ((mids >= 0) & (mids < 0.5)).astype(float))
    fam = sparse.cz_augment(b, unit_root)
    assert len(fam) == 1
    assert fam.cubes() == [unit_root]
    assert core_arrays(fam)[0].size == unit_root.flat_cells().size
    # <|b - 1/2|> == 1/2 at every scale: domination constant exactly 1
    assert domination_ratio(b, unit_root, fam) == pytest.approx(1.0, abs=1e-15)


def test_constant_symbol_single_entry(dom, unit_root):
    b = SampledFunction(dom, np.full(dom.n, 7.0))
    fam = sparse.cz_augment(b, unit_root)
    assert len(fam) == 1
    assert sparse.is_sparse(fam).ok


def test_log_family_multi_generation():
    dom = LatticeDomain(d=1, m=12, L=1.0)
    root = dyadic.cube(dom, 1, (1,))
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, root)
    assert len(set(fam.entries[:, 0])) >= 3
    assert sparse.is_sparse(fam).ok
    assert domination_ratio(b, root, fam) <= sparse.cz_constant(1)
    # selection is strictly sub-half at every node, in integer cells
    for cube, core in zip(fam.cubes(), core_arrays(fam)):
        ncells = cube.flat_cells().size
        assert 2 * (ncells - core.size) <= ncells


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
    root = dyadic.cube(dom, 0, (0, 0))
    mx, my = dom.midpoints()
    b = SampledFunction(dom, np.log(np.sqrt(mx**2 + my**2)))
    fam = sparse.cz_augment(b, root)
    assert sparse.is_sparse(fam).ok
    assert domination_ratio(b, root, fam) <= sparse.cz_constant(2)


def cz_augment_oracle(b, root):
    """Reference stopping-time family: the oracles.children stack walk
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
            stack = children(cube)
            while stack:
                child = stack.pop()
                if dev[child.flat_cells()].mean() > sparse.LAMBDA * base:
                    selected.append(child)
                elif child.generation < m:
                    stack.extend(children(child))
        if selected:
            removed = np.concatenate([p.flat_cells() for p in selected])
            core = np.setdiff1d(cells, removed)
            selected.sort(key=lambda c: (c.generation, c.index))
            queue.extend(selected)
        else:
            core = cells
        entries.append((cube, core))
    return entries


def cz_augment_lists(b, root):
    """cz_augment as it ran with one array per core: (entries, cores), each
    batch's cores cut apart by np.split and placed at their wave position."""
    dom = b.domain
    m, d = dom.m, dom.d
    strides = dom.n ** np.arange(d - 1, -1, -1)
    gens = np.array([root.generation], dtype=np.int64)
    index = np.array([root.index], dtype=np.int64)
    keys, all_cores = [], []
    while gens.size:
        wave_cores = [None] * gens.size
        parents, child_gens, child_index = [], [], []
        for j in np.flatnonzero(np.bincount(gens)).tolist():
            pos = np.flatnonzero(gens == j)
            side = 2 ** (m - j)
            blocks = b.values.reshape((2**j, side) * d)
            if d == 2:
                blocks = blocks.swapaxes(1, 2)
            flat = blocks[tuple(index[pos].T)].reshape(pos.size, -1)
            dev = np.abs(flat - flat.mean(axis=1, keepdims=True))
            base = dev.mean(axis=1)
            dev = dev.reshape((pos.size,) + (side,) * d)
            row_shape = (pos.size,) + (1,) * d
            active = (base > 0.0).reshape(row_shape)
            bound = (sparse.LAMBDA * base).reshape(row_shape)
            covered = np.zeros(row_shape, dtype=bool)
            for k in range(1, m - j + 1):
                for ax in range(1, d + 1):
                    covered = covered.repeat(2, axis=ax)
                hit = (dyadic._generation_mean(dev, k, d) > bound) & active & ~covered
                row, *offset = np.nonzero(hit)
                parents.append(pos[row])
                child_gens.append(np.full(row.size, j + k, dtype=np.int64))
                child_index.append(index[pos[row]] * 2**k + np.stack(offset, axis=1))
                covered |= hit
            keep = ~covered.reshape(pos.size, -1)
            local = sum(np.ix_(*(np.arange(side) * s for s in strides))).reshape(-1)
            corner = index[pos] * side @ strides
            kept = (corner[:, None] + local)[keep]
            for p, core in zip(pos.tolist(), np.split(kept, np.cumsum(keep.sum(axis=1))[:-1])):
                wave_cores[p] = core
        keys.append(np.column_stack([gens, index]))
        all_cores.extend(wave_cores)
        if not parents:
            break
        order = np.argsort(np.concatenate(parents), kind="stable")
        gens = np.concatenate(child_gens)[order]
        index = np.concatenate(child_index)[order]
    return np.concatenate(keys), all_cores


def is_sparse_lists(dom, entries, cores, gamma):
    """is_sparse as it ran on a list of cores: key rows gathered per cell,
    the escape test over all axes at once, overlaps by one lexsort."""
    size = len(entries)
    if not size:
        return True, "", None
    sizes = np.array([core.size for core in cores])
    owner = np.repeat(np.arange(size), sizes)
    cells = np.concatenate(cores).astype(np.int64)
    coords = np.stack([cells // dom.n, cells % dom.n], axis=1) if dom.d == 2 else cells[:, None]
    shift = dom.m - entries[:, 0]
    escapes = np.any(coords >> shift[owner, None] != entries[owner, 1:], axis=1)
    leaves = np.bincount(owner[escapes], minlength=size) > 0
    thin = sizes <= gamma * 2 ** (dom.d * shift)
    bad = np.flatnonzero(leaves | thin)
    if bad.size:
        reason = "core leaves its cube" if leaves[bad[0]] else "core fraction at or below gamma"
        return False, reason, int(bad[0])
    order = np.lexsort((owner, cells))
    cells, owner = cells[order], owner[order]
    shared = (cells[1:] == cells[:-1]) & (owner[1:] != owner[:-1])
    if shared.any():
        return False, "cores intersect", int(owner[1:][shared].min())
    return True, "", None


def broadcast_generation(dom, table, j):
    """Spread a generation-j table over the cells of each cube."""
    for axis in range(dom.d):
        table = np.repeat(table, 2 ** (dom.m - j), axis=axis)
    return table


def multiscale_values(dom, rng):
    """Random levels at every generation with heavy-tailed amplitudes: one
    wave holds stopping cubes of several generations, and a cube's selected
    subcubes lie several generations down."""
    return sum(
        broadcast_generation(dom, rng.standard_normal((2**j,) * dom.d), j)
        * rng.exponential() ** 3
        for j in range(dom.m + 1)
    )


@st.composite
def cz_cases(draw):
    d = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(2, 6))
    dom = LatticeDomain(d=d, m=m, L=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("real", "complex", "piecewise", "constant", "log", "multiscale")))
    if kind == "real":
        values = rng.standard_normal(dom.shape)
    elif kind == "multiscale":
        values = multiscale_values(dom, rng)
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
        values = broadcast_generation(dom, levels, j)
    else:
        values = np.full(dom.shape, draw(st.floats(-10.0, 10.0)))
    g = draw(st.integers(0, m))
    index = tuple(draw(st.integers(0, 2**g - 1)) for _ in range(d))
    return SampledFunction(dom, values), dyadic.cube(dom, g, index)


def fixed_cz_cases():
    """Deterministic cz_augment inputs beyond cz_cases, with the root at
    generation 0: deeper families, multiscale symbols whose waves must be
    reordered into queue order, and a base that underflows to 0."""
    cases = {}
    dom = LatticeDomain(d=2, m=7, L=1.0)
    for seed in range(1000, 1004):  # about 1.7k entries each
        cases[f"deep-2d-{seed}"] = cli._random_symbol(dom, seed)
    # the family compactness-profile splits
    dom = LatticeDomain(d=1, m=10, L=1.0)
    cases["log-1d"] = sample_symbol(dom, {"kind": "log_abs"})
    # several of these seeds queue a wave whose parents differ in generation
    # or select at more than one depth
    for d, m, seeds in ((1, 10, range(20)), (2, 6, range(10))):
        dom = LatticeDomain(d=d, m=m, L=1.0)
        for seed in seeds:
            values = multiscale_values(dom, np.random.default_rng(seed))
            cases[f"multiscale-{d}d-{seed}"] = SampledFunction(dom, values)
    # base = 5e-324 / 4 rounds to 0 while the cell's own mean stays 5e-324
    dom = LatticeDomain(d=1, m=2, L=1.0)
    cases["underflow"] = SampledFunction(dom, np.array([5e-324, 0.0, 0.0, 0.0]))
    return [pytest.param(b, id=name) for name, b in cases.items()]


def assert_matches_walk_oracle(b, root):
    fam = sparse.cz_augment(b, root)
    want = cz_augment_oracle(b, root)
    assert fam.entries.dtype == np.int64
    assert fam.cubes() == [cube for cube, _ in want]
    for got, (_, core) in zip(core_arrays(fam), want):
        assert got.dtype == core.dtype
        np.testing.assert_array_equal(got, core)
    # the flat family against the list-of-cores implementation
    entries, cores = cz_augment_lists(b, root)
    np.testing.assert_array_equal(fam.entries, entries)
    assert fam.cells.dtype == fam.offsets.dtype == np.int64
    assert fam.offsets.size == len(entries) + 1 and fam.offsets[0] == 0
    assert fam.offsets[-1] == fam.cells.size
    for got, core in zip(core_arrays(fam), cores, strict=True):
        np.testing.assert_array_equal(got, core)
    verdict = sparse.is_sparse(fam)
    assert (verdict.ok, verdict.reason, verdict.worst_entry) == is_sparse_lists(
        b.domain, entries, cores, 0.5)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=cz_cases())
def test_cz_matches_children_walk_oracle(case):
    assert_matches_walk_oracle(*case)


@pytest.mark.parametrize("b", fixed_cz_cases())
def test_cz_matches_children_walk_oracle_fixed(b):
    root = dyadic.cube(b.domain, 0, (0,) * b.domain.d)
    assert_matches_walk_oracle(b, root)


def test_cz_rejects_root_off_the_symbol_domain():
    small, large = LatticeDomain(d=1, m=5, L=1.0), LatticeDomain(d=1, m=6, L=1.0)
    rng = np.random.default_rng(5)
    for b_dom, root_dom in ((small, large), (large, small)):
        b = SampledFunction(b_dom, rng.standard_normal(b_dom.shape))
        root = dyadic.cube(root_dom, 1, (1,))
        with pytest.raises(ValueError, match="domain mismatch"):
            sparse.cz_augment(b, root)


def test_augmentation_ratio_rejects_foreign_root_or_family():
    small, large = LatticeDomain(d=1, m=5, L=1.0), LatticeDomain(d=1, m=6, L=1.0)
    b = SampledFunction(small, np.random.default_rng(6).standard_normal(small.shape))
    root = dyadic.cube(small, 1, (1,))
    fam = sparse.cz_augment(b, root)
    foreign_root = dyadic.cube(large, 1, (1,))
    with pytest.raises(ValueError, match="domain mismatch"):
        sparse.augmentation_ratio(b, foreign_root, fam)
    b_large = SampledFunction(large, np.random.default_rng(7).standard_normal(large.shape))
    foreign_fam = sparse.cz_augment(b_large, foreign_root)
    with pytest.raises(ValueError, match="domain mismatch"):
        sparse.augmentation_ratio(b, root, foreign_fam)


def test_augmentation_ratio_matches_local_oracle(dom, unit_root):
    mids = dom.midpoints()[0]
    for vals in (np.log(np.abs(mids)), np.cumsum(np.sin(7.0 * mids))):
        b = SampledFunction(dom, vals)
        fam = sparse.cz_augment(b, unit_root)
        lib = sparse.augmentation_ratio(b, unit_root, fam)
        assert lib == pytest.approx(domination_ratio(b, unit_root, fam), rel=1e-12)


# -- model operators ----------------------------------------------------------


def test_star_with_constant_symbol_vanishes(dom):
    fam = family(dom, [dyadic.cube(dom, 1, (1,))])
    b = SampledFunction(dom, np.full(dom.n, 4.0))
    f = SampledFunction(dom, np.sin(dom.midpoints()[0]))
    out = sparse.SparseStar(b, fam).apply(f)
    assert np.all(out.values == 0.0)


def test_star_adjoint_duality(dom, unit_root):
    b = SampledFunction(dom, np.log(np.abs(dom.midpoints()[0])))
    fam = sparse.cz_augment(b, unit_root)
    star = sparse.SparseStar(b, fam)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        f = SampledFunction(dom, rng.standard_normal(dom.n))
        g = SampledFunction(dom, rng.standard_normal(dom.n))
        lhs = np.sum(star.adjoint(f).values * g.values)
        rhs = np.sum(f.values * star.apply(g).values)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


# -- table path vs the per-entry loops ------------------------------------------


def sparse_star_oracle(kind, f, dom, pairs, b):
    """The per-entry loop of the star operator ("star") and its adjoint
    before they read generation tables: each (cube, core) pair adds its
    term to the cube's cells in turn."""
    f_flat = f.values.reshape(-1)
    b_flat = b.values.reshape(-1)
    out = np.zeros(f_flat.size, dtype=complex)
    for cube, _ in pairs:
        cells = cube.flat_cells()
        dev = np.abs(b_flat[cells] - b_flat[cells].mean())
        if kind == "star":
            out[cells] += (dev * f_flat[cells]).mean()
        else:
            out[cells] += dev * f_flat[cells].mean()
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


def augmentation_ratio_star_route(b, root, fam):
    """augmentation_ratio with its denominator from SparseStar applied to 1."""
    b_flat = b.values.reshape(-1)
    root_cells = root.flat_cells()
    numer = np.abs(b_flat[root_cells] - b_flat[root_cells].mean())
    ones = SampledFunction(b.domain, np.ones(b.domain.shape))
    denom = sparse.SparseStar(b, fam).apply(ones).values.reshape(-1)[root_cells]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = numer / denom
    ratio[numer == 0.0] = 0.0
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
    star = sparse.SparseStar(b, fam)
    for g in (f, real_f):
        for kind, run in (("star", star.apply), ("adjoint", star.adjoint)):
            got = run(g).values
            want = sparse_star_oracle(kind, g, dom, pairs, b=b)
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
    pairs = list(zip(fam.cubes(), core_arrays(fam)))
    rng = np.random.default_rng(seed)
    assert_apply_matches(fam, pairs, b, rng, exact=True)
    assert sparse.augmentation_ratio(b, root, fam) == augmentation_ratio_oracle(b, root, pairs)
    assert sparse.augmentation_ratio(b, root, fam) == augmentation_ratio_star_route(b, root, fam)
    verdict = sparse.is_sparse(fam)
    assert (verdict.ok, verdict.reason, verdict.worst_entry) == is_sparse_oracle(pairs, 0.5)
    kept = sparse.split_family(fam, k)
    if k == 1e9:
        assert len(kept) == 0  # every lattice sidelength lies in [1/k, k]
    kept_pairs = list(zip(kept.cubes(), core_arrays(kept)))
    assert_apply_matches(kept, kept_pairs, b, rng, exact=True)
    assert sparse.augmentation_ratio(b, root, kept) == augmentation_ratio_oracle(b, root, kept_pairs)
    assert sparse.augmentation_ratio(b, root, kept) == augmentation_ratio_star_route(b, root, kept)
    assert sparse.is_sparse(kept).ok


@settings(max_examples=40, deadline=None)
@given(case=cz_cases(), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4))
def test_batched_tables_match_single_rows(case, seed, rows):
    b, root = case
    dom, fam = b.domain, sparse.cz_augment(b, root)
    rng = np.random.default_rng(seed)
    batch = rng.standard_normal((rows,) + dom.shape) + 1j * rng.standard_normal((rows,) + dom.shape)
    batch[0] = batch[0].real  # a real row riding in a complex batch
    star = sparse.SparseStar(b, fam)
    for values in (batch, batch.real.copy()):
        flat = values.reshape(rows, -1)
        for run in (star.apply, star.adjoint):
            got = run(flat)
            assert got.shape == flat.shape
            for row, out in zip(values, got):
                one = run(SampledFunction(dom, row))
                np.testing.assert_array_equal(out, one.values.reshape(-1))


@st.composite
def hand_made_families(draw):
    """Random cubes, repeats allowed, with whole, majority, thin, escaping
    or empty cores."""
    d = draw(st.sampled_from((1, 2)))
    m = draw(st.integers(2, 5))
    dom = LatticeDomain(d=d, m=m, L=1.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        if pairs and draw(st.booleans()):
            cube = pairs[draw(st.integers(0, len(pairs) - 1))][0]  # a repeated cube
        else:
            g = draw(st.integers(0, m))
            cube = dyadic.cube(dom, g, tuple(draw(st.integers(0, 2**g - 1)) for _ in range(d)))
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
    assert (verdict.ok, verdict.reason, verdict.worst_entry) == is_sparse_lists(
        dom, fam.entries, [core for _, core in pairs], gamma)
    # repeated or unordered cubes sum each cell in another order: equal to rounding
    rng = np.random.default_rng(seed)
    b = SampledFunction(dom, rng.standard_normal(dom.shape))
    assert_apply_matches(fam, pairs, b, rng, exact=False)
    g = int(rng.integers(0, dom.m + 1))
    root = dyadic.cube(dom, g, tuple(rng.integers(0, 2**g, size=dom.d)))
    assert sparse.augmentation_ratio(b, root, fam) == augmentation_ratio_star_route(b, root, fam)


def test_hand_made_verdicts_escape_thin_intersect():
    dom = LatticeDomain(d=2, m=3, L=1.0)
    big, other = dyadic.cube(dom, 1, (0, 1)), dyadic.cube(dom, 1, (1, 0))
    small = children(big)[3]
    cells = big.flat_cells()
    cases = {
        "core leaves its cube": [(big, np.sort(np.append(cells[1:], other.flat_cells()[0])))],
        "core fraction at or below gamma": [(other, other.flat_cells()), (big, cells[:8])],
        "cores intersect": [(other, other.flat_cells()), (big, cells), (small, small.flat_cells())],
    }
    for reason, pairs in cases.items():
        fam = family(dom, [cube for cube, _ in pairs], [core for _, core in pairs])
        verdict = sparse.is_sparse(fam)
        want = is_sparse_lists(dom, fam.entries, [core for _, core in pairs], 0.5)
        assert (verdict.ok, verdict.reason, verdict.worst_entry) == want
        assert verdict.reason == reason and verdict.worst_entry == len(pairs) - 1


def jn_sparse_bound_loop(b, w, r, alpha, root):
    """jn_verify's sparse bound by one oscillation() call per family cube,
    and the same bound with 2|b| in place of |b - <b>_Q|, an upper bound
    that sets the scale of the rounding."""
    dom = b.domain
    exponent = 1.0 + alpha * r / dom.d
    b_flat, w_flat = b.values.reshape(-1), w.values.reshape(-1)
    total = scale = 0.0
    for cube in sparse.cz_augment(b, root).cubes():
        cells = cube.flat_cells()
        w_mass = float(w_flat[cells].sum()) * dom.cell_volume
        total += osc.oscillation(b, cells, nu=w, alpha=alpha, r=1.0) ** r * w_mass**exponent
        magnitude = 2.0 * float(np.abs(b_flat[cells]).sum()) * dom.cell_volume / w_mass
        scale += (w_mass ** (-alpha / dom.d) * magnitude) ** r * w_mass**exponent
    w_root = float(w_flat[root.flat_cells()].sum()) * dom.cell_volume
    return (total / w_root**exponent) ** (1.0 / r), (scale / w_root**exponent) ** (1.0 / r)


@settings(max_examples=60, deadline=None)
@given(case=cz_cases(), r=st.sampled_from((1.0, 2.0)), alpha=st.sampled_from((0.0, 0.5)))
def test_jn_sparse_bound_matches_cube_loop(case, r, alpha):
    b, root = case
    w = make_weight(b.domain, {"kind": "power", "beta": 0.3})
    rep = osc.jn_verify(b, w, 2.0, r, alpha, root)
    want, scale = jn_sparse_bound_loop(b, w, r, alpha, root)
    assert abs(rep.sparse_bound - want) <= 1e-12 * max(want, 1e-3 * scale)


# -- splitting ----------------------------------------------------------------


def nested_origin_family(dom):
    cubes = []
    for gen in (1, 2, 3, 4):  # [0,1), [0,1/2), [0,1/4), [0,1/8)
        cubes.append(dyadic.cube(dom, gen, (2 ** (gen - 1),)))
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


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
def test_split_matches_cube_objects(d, k):
    # L = 2 puts cube corners at distance exactly k from the origin
    wide = LatticeDomain(d=d, m=4, L=2.0)
    cubes = enumerate_cubes(wide)
    kept = sparse.split_family(family(wide, cubes), k)
    want = [c for c in cubes if not (1.0 / k <= c.sidelength <= k and dist_to_origin(c) <= k)]
    assert [dyadic.key_cube(wide, key) for key in kept.entries] == want
    assert all(np.array_equal(core, c.flat_cells()) for core, c in zip(core_arrays(kept), want))


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


def test_carleson_off_support_zero(dom):
    fam = family(dom, [dyadic.cube(dom, 1, (1,))])
    mids = dom.midpoints()[0]
    f = SampledFunction(dom, (mids < 0).astype(float))
    w = make_weight(dom, {"kind": "unit"})
    assert sparse.carleson_constant(f, w, 2.0, fam) == 0.0
    with pytest.raises(ValueError):
        sparse.carleson_constant(SampledFunction(dom, np.zeros(dom.n)), w, 2.0, fam)


def test_carleson_random_bounded():
    dom = LatticeDomain(d=1, m=8, L=1.0)
    root = dyadic.cube(dom, 1, (1,))
    w = make_weight(dom, {"kind": "unit"})
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(3000 + seed)
        f = SampledFunction(dom, np.abs(rng.standard_normal(dom.n)))
        b = SampledFunction(dom, np.cumsum(rng.standard_normal(dom.n)) / 16.0)
        fam = sparse.cz_augment(b, root)
        worst = max(worst, sparse.carleson_constant(f, w, 2.0, fam))
    assert worst <= 2.0  # committed bound; observed max 0.735


def test_lattice_mismatch_is_refused():
    small, big = LatticeDomain(d=1, m=5, L=1.0), LatticeDomain(d=1, m=6, L=1.0)
    b = {dom: SampledFunction(dom, np.log(np.abs(dom.midpoints()[0]))) for dom in (small, big)}
    f = {dom: SampledFunction(dom, np.abs(dom.midpoints()[0]) + 1.0) for dom in (small, big)}
    w = {dom: make_weight(dom, {"kind": "unit"}) for dom in (small, big)}
    fam = sparse.cz_augment(b[small], dyadic.cube(small, 1, (1,)))
    for args in ((f[big], w[big]), (f[small], w[big]), (f[big], w[small])):
        with pytest.raises(ValueError, match="domain mismatch"):
            sparse.carleson_constant(*args, 2.0, fam)
    star = sparse.SparseStar(b[small], fam)
    for run in (star.apply, star.adjoint):
        with pytest.raises(ValueError, match="domain mismatch"):
            run(f[big])
    with pytest.raises(ValueError, match="domain mismatch"):
        sparse.SparseStar(b[big], fam)


def test_almost_orthogonality_disjoint_exact(dom):
    cubes = [dyadic.cube(dom, 3, (k,)) for k in (0, 2, 5)]
    fam = family(dom, cubes)
    rng = np.random.default_rng(9)
    pieces = []
    for c in cubes:
        v = np.zeros(dom.n)
        v[c.flat_cells()] = rng.standard_normal()
        pieces.append(v)
    w = make_weight(dom, {"kind": "power", "beta": 0.5})
    assert sparse.almost_orthogonality_check(fam, pieces, w, 2.0) == pytest.approx(1.0, rel=1e-12)


def test_almost_orthogonality_preconditions(dom):
    big = dyadic.cube(dom, 2, (1,))
    small = children(big)[1]
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
    root = dyadic.cube(dom, 1, (1,))
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
