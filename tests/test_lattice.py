import numpy as np
import pytest

from dyadlab.lattice import LatticeDomain, sample_symbol


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
        LatticeDomain(3, 5, 1.0)  # 1 <= d <= 3
        for d in (0, 4):
            with pytest.raises(ValueError, match="d must be in"):
                LatticeDomain(d, 5, 1.0)
        with pytest.raises(ValueError):
            LatticeDomain(1, 1, 1.0)
        with pytest.raises(ValueError):
            LatticeDomain(1, 15, 1.0)
        with pytest.raises(ValueError):
            LatticeDomain(1, 5, -2.0)
        with pytest.raises(ValueError):
            LatticeDomain(2, 15, 1.0)


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

    def test_bump_center_has_exactly_d_entries(self):
        dom = LatticeDomain(2, 4, 1.0)
        origin = sample_symbol(dom, {"kind": "bump", "radius": 0.5})
        explicit = sample_symbol(dom, {"kind": "bump", "center": [0.0, 0.0], "radius": 0.5})
        assert origin.values.tobytes() == explicit.values.tobytes()
        for center in ([0.1], (0.1,), [0.1, 0.2, 0.3], []):
            with pytest.raises(ValueError, match="bump center needs d = 2 entries"):
                sample_symbol(dom, {"kind": "bump", "center": center, "radius": 0.5})

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
        dom = LatticeDomain(1, 5, 1.0)
        with pytest.raises(ValueError):
            sample_symbol(dom, {"kind": "sawtooth"})
        with pytest.raises(ValueError):
            sample_symbol(dom, [{"kind": "log_abs", "frequency": 3}])

    @pytest.mark.parametrize("term, key", [
        ({"kind": "log_abs", "exponent": 2.0}, "exponent"),  # log_abs has no exponent
        ({"kind": "constant", "radius": 0.5}, "radius"),
    ])
    def test_key_outside_its_kind_rejected(self, term, key):
        dom = LatticeDomain(1, 5, 1.0)
        with pytest.raises(ValueError, match=f"kind '{term['kind']}' takes no key '{key}'"):
            sample_symbol(dom, term)
