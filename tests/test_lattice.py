import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadlab.lattice import (
    Box,
    LatticeDomain,
    SampledFunction,
    box_cells,
    indicator,
    parse_symbol,
    sample_symbol,
)


def random_function(domain, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(domain.shape)
    if complex_values:
        values = values + 1j * rng.standard_normal(domain.shape)
    return SampledFunction(domain, values)


def integral(f, box):
    """Exact integral of the piecewise-constant f over a box: cell values
    times the overlap volumes box_cells gives."""
    idx, w = box_cells(f.domain, box.lo, box.hi)
    return np.sum(w * f.values.reshape(-1)[idx])


def average(f, box):
    return integral(f, box) / box.volume


def random_aligned_box(domain, rng):
    spans = []
    for _ in range(domain.d):
        a, b = sorted(rng.choice(domain.n + 1, size=2, replace=False))
        spans.append((int(a), int(b)))
    return Box.from_cells(domain, spans)


class TestDomain:
    def test_midpoints_avoid_origin(self):
        for d in (1, 2):
            for m in (2, 5, 8):
                dom = LatticeDomain(d, m, 1.0)
                mids = dom.axis_midpoints()
                assert np.min(np.abs(mids)) >= dom.h / 2 - 1e-15
                # midpoints are odd multiples of h/2
                ratio = mids / (dom.h / 2)
                assert np.allclose(ratio, np.round(ratio))
                assert np.all(np.abs(np.round(ratio)) % 2 == 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeDomain(3, 5, 1.0)
        with pytest.raises(ValueError):
            LatticeDomain(1, 1, 1.0)
        with pytest.raises(ValueError):
            LatticeDomain(1, 15, 1.0)
        with pytest.raises(ValueError):
            LatticeDomain(1, 5, -2.0)
        with pytest.raises(ValueError):
            LatticeDomain(2, 15, 1.0)

    def test_cell_span_rejects_misaligned(self):
        dom = LatticeDomain(1, 4, 1.0)
        with pytest.raises(ValueError):
            dom.cell_span(Box.interval(0.0, 0.3 * dom.h + 0.0))


class TestPrefixQueries:
    def test_matches_direct_summation_1d(self):
        dom = LatticeDomain(1, 8, 2.0)
        f = random_function(dom, 7, complex_values=True)
        rng = np.random.default_rng(11)
        for _ in range(400):
            box = random_aligned_box(dom, rng)
            (a, b), = dom.cell_span(box)
            direct = f.values[a:b].sum() * dom.h
            assert abs(integral(f, box) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_matches_direct_summation_2d(self):
        dom = LatticeDomain(2, 5, 1.5)
        f = random_function(dom, 3)
        rng = np.random.default_rng(13)
        for _ in range(200):
            box = random_aligned_box(dom, rng)
            (a0, b0), (a1, b1) = dom.cell_span(box)
            direct = f.values[a0:b0, a1:b1].sum() * dom.h**2
            assert abs(integral(f, box) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_split_additivity(self):
        dom = LatticeDomain(1, 10, 1.0)
        f = random_function(dom, 23)
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, c = sorted(rng.choice(dom.n + 1, size=2, replace=False))
            if c - a < 2:
                continue
            b = rng.integers(a + 1, c)
            whole = integral(f, Box.from_cells(dom, [(a, c)]))
            parts = integral(f, Box.from_cells(dom, [(a, b)])) + integral(
                f, Box.from_cells(dom, [(b, c)])
            )
            assert abs(whole - parts) <= 1e-12 * max(1.0, abs(whole))

    def test_fractional_interval_exact_1d(self):
        dom = LatticeDomain(1, 6, 1.0)
        f = random_function(dom, 2)
        rng = np.random.default_rng(17)
        edges = -dom.L + dom.h * np.arange(dom.n + 1)
        for _ in range(300):
            a, b = np.sort(rng.uniform(-dom.L, dom.L, size=2))
            # oracle: piecewise-constant overlap sums
            lo_len = np.clip(np.minimum(edges[1:], b) - np.maximum(edges[:-1], a), 0.0, None)
            direct = np.sum(f.values * lo_len)
            got = integral(f, Box.interval(a, b))
            assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_fractional_interval_exact_2d(self):
        dom = LatticeDomain(2, 4, 1.0)
        f = random_function(dom, 29)
        rng = np.random.default_rng(31)
        edges = -dom.L + dom.h * np.arange(dom.n + 1)
        for _ in range(150):
            a = rng.uniform(-dom.L, dom.L, size=2)
            b = rng.uniform(-dom.L, dom.L, size=2)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            len0 = np.clip(np.minimum(edges[1:], hi[0]) - np.maximum(edges[:-1], lo[0]), 0.0, None)
            len1 = np.clip(np.minimum(edges[1:], hi[1]) - np.maximum(edges[:-1], lo[1]), 0.0, None)
            direct = np.einsum("ij,i,j->", f.values, len0, len1)
            got = integral(f, Box(tuple(lo), tuple(hi)))
            assert abs(got - direct) <= 1e-11 * max(1.0, abs(direct))


class TestAverages:
    def test_linear_function_quadrature(self):
        # f(x) = x over [0, 1): midpoint-exact average 1/2 and mean deviation 1/4
        dom = LatticeDomain(1, 6, 2.0)
        f = SampledFunction(dom, dom.axis_midpoints())
        box = Box.interval(0.0, 1.0)
        assert average(f, box) == pytest.approx(0.5, abs=1e-14)
        dev = SampledFunction(dom, np.abs(f.values - 0.5))
        assert average(dev, box) == pytest.approx(0.25, abs=1e-14)

    def test_indicator_mass(self):
        dom = LatticeDomain(1, 6, 2.0)
        ind = indicator(dom, Box.interval(0.0, 1.0))
        assert integral(ind, Box.interval(-dom.L, dom.L)) == pytest.approx(1.0, abs=1e-14)
        assert average(ind, Box.interval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-50.0, 50.0), st.integers(0, 1000))
    def test_constant_shift_invariance(self, c, seed):
        dom = LatticeDomain(1, 5, 1.0)
        f = random_function(dom, seed)
        g = SampledFunction(dom, f.values + c)
        box = Box.interval(-1.0, 0.25)
        assert abs(average(g, box) - (average(f, box) + c)) <= 1e-12 * max(1.0, abs(c))


class TestSymbols:
    def test_log_abs_finite_everywhere(self):
        for d in (1, 2):
            dom = LatticeDomain(d, 5, 1.0)
            b = sample_symbol(dom, {"kind": "log_abs"})
            assert np.all(np.isfinite(b.values))

    def test_abs_power_gate(self):
        dom = LatticeDomain(1, 5, 1.0)
        sample_symbol(dom, {"kind": "abs_power", "exponent": -0.49})
        with pytest.raises(ValueError):
            sample_symbol(dom, {"kind": "abs_power", "exponent": -0.5})
        dom2 = LatticeDomain(2, 4, 1.0)
        with pytest.raises(ValueError):
            sample_symbol(dom2, {"kind": "abs_power", "exponent": -1.0})

    def test_bump_support_and_peak(self):
        dom = LatticeDomain(1, 8, 1.0)
        b = sample_symbol(dom, {"kind": "bump", "center": [0.25], "radius": 0.25})
        x = dom.axis_midpoints()
        outside = np.abs(x - 0.25) >= 0.25
        assert np.all(b.values[outside] == 0.0)
        assert b.values.max() == pytest.approx(1.0, abs=1e-3)

    def test_complex_combination(self):
        dom = LatticeDomain(1, 5, 1.0)
        spec = [
            {"kind": "coordinate", "coefficient": 1.0},
            {"kind": "coordinate", "coefficient": 1j},
        ]
        b = sample_symbol(dom, spec)
        assert b.is_complex
        x = dom.axis_midpoints()
        assert np.allclose(b.values, x + 1j * x)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            parse_symbol({"kind": "sawtooth"})
        with pytest.raises(ValueError):
            parse_symbol([{"kind": "log_abs", "frequency": 3}])
