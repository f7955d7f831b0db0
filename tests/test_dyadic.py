import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab import dyadic
from dyadlab.dyadic import _generation_mean, dyadic_maximal
from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.oscillation import _cube_distance_table
from oracles import children, dist_to_origin, enumerate_cubes, indicator, parent, volume


def random_function(domain, seed):
    rng = np.random.default_rng(seed)
    return SampledFunction(domain, rng.standard_normal(domain.shape))


def integral(f, cube):
    """Integral of f over a cube: its cell values times the cell volume."""
    idx = cube.flat_cells()
    return np.sum(np.full(idx.size, f.domain.cell_volume) * f.values.reshape(-1)[idx])


def whole_domain(dom):
    return dyadic.cube(dom, 0, (0,) * dom.d)


class TestGridGeometry:
    def test_generation_partitions_domain(self):
        dom = LatticeDomain(1, 5, 1.0)
        f = random_function(dom, 3)
        total = integral(f, whole_domain(dom))
        for j in (0, 2, 4):
            parts = sum(integral(f, dyadic.cube(dom, j, (k,))) for k in range(2**j))
            assert parts == pytest.approx(total, rel=1e-11, abs=1e-13)

    def test_generation_partitions_domain_2d(self):
        dom = LatticeDomain(2, 3, 1.0)
        f = random_function(dom, 8)
        total = integral(f, whole_domain(dom))
        j = 2
        parts = sum(
            integral(f, dyadic.cube(dom, j, idx))
            for idx in itertools.product(range(2**j), repeat=2)
        )
        assert parts == pytest.approx(total, rel=1e-10, abs=1e-12)

    def test_children_partition_parent(self):
        dom = LatticeDomain(1, 6, 2.0)
        f = random_function(dom, 5)
        cube = dyadic.cube(dom, 2, (1,))
        whole = integral(f, cube)
        parts = sum(integral(f, ch) for ch in children(cube))
        assert parts == pytest.approx(whole, rel=1e-11, abs=1e-13)
        for ch in children(cube):
            assert parent(ch) == cube
            assert cube.contains_cube(ch)

    def test_dist_to_origin(self):
        dom = LatticeDomain(1, 4, 1.0)
        ell = dyadic.cube(dom, 3, (0,)).sidelength
        mid = 2**2  # cube [0, ell)
        table = _cube_distance_table(dom, 3)
        assert table[mid] == 0.0
        assert table[mid + 1] == pytest.approx(ell)
        assert table[mid - 1] == 0.0
        assert table[mid - 2] == pytest.approx(ell)
        assert [table[k] for k in range(2**3)] == [
            dist_to_origin(dyadic.cube(dom, 3, (k,))) for k in range(2**3)]

    @pytest.mark.parametrize("d,m,L", [(1, 6, 1.0), (2, 4, 1.0), (1, 5, 2.5), (2, 3, 0.75)])
    def test_dist_to_origin_matches_distance_table_bitwise(self, d, m, L):
        # vmo_profile, the far-away witness order and split_family read the
        # table; it must give the closed-box distance's float for every cube.
        dom = LatticeDomain(d, m, L)
        for cube in enumerate_cubes(dom):
            want = dist_to_origin(cube)
            assert _cube_distance_table(dom, cube.generation)[cube.index] == want


class TestEnumerate:
    def test_counts_1d(self):
        dom = LatticeDomain(1, 5, 1.0)
        cubes = enumerate_cubes(dom)
        assert len(cubes) == 2 ** (dom.m + 1) - 1
        gens = [c.generation for c in cubes]
        assert gens == sorted(gens)


class TestMaximal:
    def brute_force(self, f):
        dom = f.domain
        out = np.zeros(dom.shape)
        for j in range(dom.m + 1):
            avg = _generation_mean(np.abs(f.values), j)
            cells = 2 ** (dom.m - j)
            if dom.d == 1:
                out = np.maximum(out, np.repeat(avg, cells))
            else:
                out = np.maximum(out, np.kron(avg, np.ones((cells, cells))))
        return out

    def test_matches_brute_force(self):
        for d, m in ((1, 6), (2, 3)):
            dom = LatticeDomain(d, m, 1.0)
            f = random_function(dom, 13 + d)
            got = dyadic_maximal(f)
            assert np.allclose(got.values, self.brute_force(f), rtol=1e-13)

    def test_dominates_pointwise(self):
        dom = LatticeDomain(1, 7, 1.0)
        f = random_function(dom, 17)
        mf = dyadic_maximal(f)
        assert np.all(mf.values >= np.abs(f.values) - 1e-14)

    def test_indicator_value_on_cube(self):
        dom = LatticeDomain(1, 6, 1.0)
        cube = dyadic.cube(dom, 3, (2,))
        f = indicator(cube)
        mf = dyadic_maximal(f)
        cells = cube.flat_cells()
        assert np.allclose(mf.values[cells], 1.0)

    def test_ancestor_weight_sum_domination(self):
        # sum over ancestors Q of R of (|R|/|Q|) 1_Q <= C_M * M(1_R), with
        # C_M = 1/(1 - 2^-d) from the geometric series of ancestor volumes.
        for d, m in ((1, 6), (2, 3)):
            dom = LatticeDomain(d, m, 1.0)
            rng = np.random.default_rng(100 + d)
            cm = 1.0 / (1.0 - 2.0**-d)
            for _ in range(12):
                j = int(rng.integers(1, dom.m + 1))
                idx = tuple(int(rng.integers(0, 2**j)) for _ in range(d))
                r_cube = dyadic.cube(dom, j, idx)
                lhs = np.zeros(dom.shape)
                cube = r_cube
                while True:
                    flat = np.zeros(dom.n**d)
                    flat[cube.flat_cells()] = volume(r_cube) / volume(cube)
                    lhs += flat.reshape(dom.shape)
                    if cube.generation == 0:
                        break
                    cube = parent(cube)
                m_ind = dyadic_maximal(indicator(r_cube))
                assert np.all(lhs <= cm * m_ind.values + 1e-12)


class TestAverages:
    def test_generation_mean_matches_cube_average(self):
        dom = LatticeDomain(2, 3, 1.0)
        f = random_function(dom, 23)
        for j in (0, 1, 3):
            table = _generation_mean(f.values, j)
            for idx in itertools.product(range(2**j), repeat=2):
                cube = dyadic.cube(dom, j, idx)
                average = integral(f, cube) / volume(cube)
                assert average == pytest.approx(table[idx], rel=1e-11)

    @pytest.mark.parametrize("d,m", [(1, 5), (2, 4)])
    def test_batched_generation_mean_rows_match_single_blocks(self, d, m):
        rng = np.random.default_rng(31 + d)
        batch = rng.standard_normal((2, 3) + (2**m,) * d)
        for j in range(m + 1):
            got = _generation_mean(batch, j, d)
            assert got.shape == (2, 3) + (2**j,) * d
            for lead in itertools.product(range(2), range(3)):
                np.testing.assert_array_equal(got[lead], _generation_mean(batch[lead], j))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from((1, 2)),
    m=st.integers(0, 6),
    lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    kind=st.sampled_from(("real", "complex", "integer")),
    seed=st.integers(0, 2**32 - 1),
)
def test_pyramid_matches_generation_means(d, m, lead, kind, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (2**m,) * d
    if kind == "integer":  # every partial sum is exact
        arr = rng.integers(-1000, 1000, size=shape).astype(float)
    else:
        arr = rng.standard_normal(shape)
        if kind == "complex":
            arr = arr + 1j * rng.standard_normal(shape)
    sums = dyadic._pyramid(arr, d)
    means = dyadic._pyramid(arr, d, means=True)
    levels = dyadic._levels(sums, d)
    assert sums.shape == lead + ((2 ** (d * (m + 1)) - 1) // (2**d - 1),)
    assert len(levels) == m + 1
    for j, (level, mean) in enumerate(zip(levels, dyadic._levels(means, d))):
        cells = 2 ** (d * (m - j))
        want = _generation_mean(arr, j, d) * cells
        for got in (level, dyadic._block_sums(arr, j, d)):
            if kind == "integer":
                np.testing.assert_array_equal(got, want)
            else:
                scale = _generation_mean(np.abs(arr), j, d) * cells
                assert np.all(np.abs(got - want) <= 1e-13 * scale)
        np.testing.assert_array_equal(mean, level / cells)  # an exact scale
    for row in itertools.product(*map(range, lead)):
        np.testing.assert_array_equal(sums[row], dyadic._pyramid(arr[row], d))
