import itertools

import numpy as np
import pytest

from dyadlab.dyadic import (
    EnclosureError,
    _generation_mean,
    dyadic_maximal,
    enclosing_cube,
    enumerate_cubes,
    generation_averages,
    grids,
)
from dyadlab.lattice import Box, LatticeDomain, SampledFunction, indicator
from dyadlab.oscillation import region_cells


def random_function(domain, seed):
    rng = np.random.default_rng(seed)
    return SampledFunction(domain, rng.standard_normal(domain.shape))


def integral(f, region):
    """Integral of f over a cube or box through its cells and overlap volumes."""
    idx, w = region_cells(f.domain, region)
    return np.sum(w * f.values.reshape(-1)[idx])


def whole_domain(dom):
    return Box((-dom.L,) * dom.d, (dom.L,) * dom.d)


class TestGridGeometry:
    def test_grid_count_and_shifts(self):
        dom1 = LatticeDomain(1, 5, 1.0)
        gs = grids(dom1)
        assert len(gs) == 3
        assert gs[0].is_canonical
        assert [g.shift for g in gs] == [(0.0,), (1 / 3,), (2 / 3,)]
        dom2 = LatticeDomain(2, 4, 1.0)
        assert len(grids(dom2)) == 9

    def test_generation_partitions_domain(self):
        dom = LatticeDomain(1, 5, 1.0)
        f = random_function(dom, 3)
        total = integral(f, whole_domain(dom))
        for grid in grids(dom):
            for j in (0, 2, 4):
                parts = sum(integral(f, grid.cube(j, (k,))) for k in range(2**j))
                assert parts == pytest.approx(total, rel=1e-11, abs=1e-13)

    def test_generation_partitions_domain_2d(self):
        dom = LatticeDomain(2, 3, 1.0)
        f = random_function(dom, 8)
        total = integral(f, whole_domain(dom))
        for grid in (grids(dom)[0], grids(dom)[4], grids(dom)[8]):
            j = 2
            parts = sum(
                integral(f, grid.cube(j, idx))
                for idx in itertools.product(range(2**j), repeat=2)
            )
            assert parts == pytest.approx(total, rel=1e-10, abs=1e-12)

    def test_children_partition_parent(self):
        dom = LatticeDomain(1, 6, 2.0)
        f = random_function(dom, 5)
        for grid in grids(dom):
            cube = grid.cube(2, (1,))
            whole = integral(f, cube)
            parts = sum(integral(f, ch) for ch in cube.children())
            assert parts == pytest.approx(whole, rel=1e-11, abs=1e-13)
            for ch in cube.children():
                assert ch.parent() == cube
                assert cube.contains_cube(ch)

    def test_boundary_offsets_are_thirds(self):
        # At every scale the three grids' boundary sets differ by ell/3.
        dom = LatticeDomain(1, 6, 1.0)
        for j in range(dom.m + 1):
            ell = dom.width * 2.0**-j
            starts = []
            for grid in grids(dom):
                cube = grid.cube(j, (0,))
                starts.append(cube.axis_pieces(0)[0][0])
            offs = sorted(((s + dom.L) % ell) / ell for s in starts)
            assert np.allclose(offs, [0.0, 1 / 3, 2 / 3], atol=1e-12)

    def test_shifted_cube_mass_oracle(self):
        dom = LatticeDomain(1, 6, 1.0)
        f = random_function(dom, 11)
        edges = -dom.L + dom.h * np.arange(dom.n + 1)
        for grid in grids(dom)[1:]:
            for cube in (grid.cube(3, (0,)), grid.cube(3, (7,)), grid.cube(1, (1,))):
                direct = 0.0
                for lo, hi in cube.pieces():
                    lens = np.clip(
                        np.minimum(edges[1:], hi[0]) - np.maximum(edges[:-1], lo[0]), 0.0, None
                    )
                    direct += np.sum(f.values * lens)
                assert integral(f, cube) == pytest.approx(direct, rel=1e-11, abs=1e-13)

    def test_wrap_footprint(self):
        dom = LatticeDomain(1, 4, 1.0)
        grid = grids(dom)[1]  # shift 1/3 of width
        wrapped = [c for c in (grid.cube(2, (k,)) for k in range(4)) if c.wraps]
        assert len(wrapped) == 1
        pieces = wrapped[0].pieces()
        assert len(pieces) == 2
        total = sum(hi[0] - lo[0] for lo, hi in pieces)
        assert total == pytest.approx(wrapped[0].sidelength)

    def test_dist_to_origin(self):
        dom = LatticeDomain(1, 4, 1.0)
        grid = grids(dom)[0]
        ell = grid.sidelength(3)
        mid = 2**2  # cube [0, ell)
        assert grid.cube(3, (mid,)).dist_to_origin() == 0.0
        assert grid.cube(3, (mid + 1,)).dist_to_origin() == pytest.approx(ell)
        assert grid.cube(3, (mid - 1,)).dist_to_origin() == 0.0
        assert grid.cube(3, (mid - 2,)).dist_to_origin() == pytest.approx(ell)


class TestEnumerate:
    def test_counts_1d(self):
        dom = LatticeDomain(1, 5, 1.0)
        cubes = enumerate_cubes(grids(dom)[0])
        assert len(cubes) == 2 ** (dom.m + 1) - 1
        gens = [c.generation for c in cubes]
        assert gens == sorted(gens)


class TestEnclosure:
    def brute_force(self, dom, box):
        side = max(b - a for a, b in zip(box.lo, box.hi))
        best = None
        for grid in grids(dom):
            for j in range(dom.m + 1):
                ell = grid.sidelength(j)
                if ell > 3.0 * side * (1 + 1e-12):
                    continue
                for idx in itertools.product(range(2**j), repeat=dom.d):
                    cube = grid.cube(j, idx)
                    if cube.contains_box(box):
                        key = (grid.grid_id, ell)
                        if best is None or key < best[0]:
                            best = (key, cube)
        return None if best is None else best[1]

    def test_canonical_cube_encloses_itself(self):
        dom = LatticeDomain(1, 5, 1.0)
        grid = grids(dom)[0]
        cube = grid.cube(3, (5,))
        got = enclosing_cube(dom, cube.box())
        assert got == cube

    def test_straddling_box_gets_side_2u(self):
        # Box straddling one canonical boundary still has a 2u enclosure.
        dom = LatticeDomain(1, 6, 1.0)
        u = 4 * dom.h
        box = Box.interval(0.9 * u, 1.9 * u)
        got = enclosing_cube(dom, box)
        assert got.contains_box(box)
        assert got.sidelength == pytest.approx(2 * u)

    def test_matches_brute_force_1d(self):
        dom = LatticeDomain(1, 5, 1.0)
        rng = np.random.default_rng(2)
        for _ in range(120):
            a = rng.uniform(-dom.L, dom.L - 4 * dom.h)
            side = rng.uniform(dom.h, min(dom.width / 3, dom.L - a))
            box = Box.interval(a, a + side)
            want = self.brute_force(dom, box)
            got = enclosing_cube(dom, box)
            assert want is not None
            assert got == want
            assert got.sidelength <= 3 * side * (1 + 1e-12)

    def test_matches_brute_force_2d(self):
        dom = LatticeDomain(2, 4, 1.0)
        rng = np.random.default_rng(4)
        for _ in range(40):
            lo = rng.uniform(-dom.L, dom.L - 4 * dom.h, size=2)
            side = rng.uniform(dom.h, min(dom.width / 3, float(dom.L - lo.max())))
            box = Box(tuple(lo), tuple(lo + side))
            want = self.brute_force(dom, box)
            got = enclosing_cube(dom, box)
            assert want is not None
            assert got == want

    def test_too_large_box_rejected(self):
        dom = LatticeDomain(1, 5, 1.0)
        with pytest.raises(EnclosureError):
            enclosing_cube(dom, Box.interval(-0.9, 0.9))


class TestMaximal:
    def brute_force(self, f):
        dom = f.domain
        grid = grids(dom)[0]
        out = np.zeros(dom.shape)
        for j in range(dom.m + 1):
            avg = generation_averages(f, j, absolute=True)
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
        grid = grids(dom)[0]
        cube = grid.cube(3, (2,))
        f = indicator(dom, cube.box())
        mf = dyadic_maximal(f)
        cells = cube.flat_cells()
        assert np.allclose(mf.values[cells], 1.0)

    def test_ancestor_weight_sum_domination(self):
        # sum over ancestors Q of R of (|R|/|Q|) 1_Q <= C_M * M(1_R), with
        # C_M = 1/(1 - 2^-d) from the geometric series of ancestor volumes.
        for d, m in ((1, 6), (2, 3)):
            dom = LatticeDomain(d, m, 1.0)
            grid = grids(dom)[0]
            rng = np.random.default_rng(100 + d)
            cm = 1.0 / (1.0 - 2.0**-d)
            for _ in range(12):
                j = int(rng.integers(1, dom.m + 1))
                idx = tuple(int(rng.integers(0, 2**j)) for _ in range(d))
                r_cube = grid.cube(j, idx)
                lhs = np.zeros(dom.shape)
                cube = r_cube
                while True:
                    flat = np.zeros(dom.n**d)
                    flat[cube.flat_cells()] = r_cube.volume / cube.volume
                    lhs += flat.reshape(dom.shape)
                    if cube.generation == 0:
                        break
                    cube = cube.parent()
                m_ind = dyadic_maximal(indicator(dom, r_cube.box()))
                assert np.all(lhs <= cm * m_ind.values + 1e-12)


class TestAverages:
    def test_generation_averages_match_cube_average(self):
        dom = LatticeDomain(2, 3, 1.0)
        f = random_function(dom, 23)
        grid = grids(dom)[0]
        for j in (0, 1, 3):
            table = generation_averages(f, j)
            for idx in itertools.product(range(2**j), repeat=2):
                cube = grid.cube(j, idx)
                average = integral(f, cube) / cube.volume
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
