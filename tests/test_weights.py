import itertools
import math
import re

import numpy as np
import pytest

from dyadlab.lattice import LatticeDomain, SampledFunction
from dyadlab.weights import (
    ExponentSetup,
    Weight,
    apq_characteristic,
    as_weight,
    bloom_sandwich_report,
    bloom_weight,
    make_weight,
    membership_surrogate,
)

# Regression fixture: sup of the (2,2) characteristic of |x|^(1/2) on
# [-1,1) at m=10 over canonical cubes.  The underlying power sits on the
# integrability boundary, so the value crawls upward with m (about 4% per
# level); only the fixed-resolution value is pinned.
ABS_SQRT_CHAR_M10 = 2.0250721974792087


class TestExponentSetup:
    def test_s_identity_on_grid(self):
        # s = 1 + 1/t must agree with 2/(1 + alpha/d) across exponent pairs
        ps = np.linspace(1.1, 4.0, 8)
        checked = 0
        for p in ps:
            for q in np.linspace(p, 5.0, 7):
                setup = ExponentSetup(float(p), float(q), 1)
                assert abs(setup.s - 2.0 / (1.0 + setup.alpha_frac)) <= 1e-12
                checked += 1
        assert checked >= 50

    def test_alpha_zero_iff_equal(self):
        assert ExponentSetup(2.0, 2.0, 1).alpha == 0.0
        assert ExponentSetup(2.0, 4.0, 1).alpha == pytest.approx(0.25)
        assert ExponentSetup(2.0, 4.0, 2).alpha == pytest.approx(0.5)

    def test_bloom_exponent_identity(self):
        setup = ExponentSetup(2.0, 4.0, 1)
        assert setup.bloom_exponent == pytest.approx(
            1.0 / (1.0 / setup.p + 1.0 / setup.q_prime), rel=1e-14
        )

    def test_q_below_p_rejected(self):
        with pytest.raises(ValueError):
            ExponentSetup(3.0, 2.0, 1)
        with pytest.raises(ValueError):
            ExponentSetup(1.0, 2.0, 1)

    def test_s_16_at_2_4(self):
        assert ExponentSetup(2.0, 4.0, 1).s == pytest.approx(1.6, abs=1e-14)


class TestCharacteristic:
    def test_unit_weight_is_one_exactly(self):
        dom = LatticeDomain(1, 6, 1.0)
        w = make_weight(dom, {"kind": "unit"})
        rep = apq_characteristic(w, w, 2.0, 3.0)
        assert np.all(rep.values == 1.0)
        assert rep.supremum == 1.0

    def test_brute_force_oracle(self):
        dom = LatticeDomain(1, 4, 1.0)
        rng = np.random.default_rng(7)
        w1 = as_weight(SampledFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
        w2 = as_weight(SampledFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
        p, q = 2.0, 3.0
        pp = p / (p - 1)
        best = 0.0
        for j in range(dom.m + 1):
            cells = 2 ** (dom.m - j)
            for k in range(2**j):
                sl = slice(k * cells, (k + 1) * cells)
                a = np.mean(w1.values[sl] ** q) ** (1 / q)
                b = np.mean(w2.values[sl] ** (-pp)) ** (1 / pp)
                best = max(best, a * b)
        rep = apq_characteristic(w1, w2, p, q)
        assert rep.supremum == pytest.approx(best, rel=1e-12)

    def test_duality_swap_invariance(self):
        dom = LatticeDomain(1, 5, 1.0)
        rng = np.random.default_rng(3)
        sig = as_weight(SampledFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
        om = as_weight(SampledFunction(dom, rng.uniform(0.5, 2.0, dom.shape)))
        p, q = 2.5, 3.5
        pp, qp = p / (p - 1), q / (q - 1)
        inv_sig = as_weight(SampledFunction(dom, 1.0 / om.values))
        inv_om = as_weight(SampledFunction(dom, 1.0 / sig.values))
        a = apq_characteristic(sig, om, p, q).supremum
        b = apq_characteristic(inv_sig, inv_om, qp, pp).supremum
        assert a == pytest.approx(b, rel=1e-12)

    def test_abs_sqrt_fixture(self):
        dom = LatticeDomain(1, 10, 1.0)
        w = make_weight(dom, {"kind": "power", "beta": 0.5})
        rep = apq_characteristic(w, w, 2.0, 2.0)
        assert rep.supremum == pytest.approx(ABS_SQRT_CHAR_M10, rel=1e-12)

    def test_ap_identity(self):
        dom = LatticeDomain(1, 5, 1.0)
        w = make_weight(dom, {"kind": "logsmooth", "seed": 11})
        p = 2.0
        # [w]_{A_p} = apq(w^{1/p}, w^{1/p}, p, p)^p
        root = Weight(dom, w.log_values / p)
        sup = apq_characteristic(root, root, p, p).supremum ** p
        # classical A_2 form: <w> <w^{-1}> per cube
        best = 0.0
        for j in range(dom.m + 1):
            cells = 2 ** (dom.m - j)
            for k in range(2**j):
                sl = slice(k * cells, (k + 1) * cells)
                best = max(best, np.mean(w.values[sl]) * np.mean(1.0 / w.values[sl]))
        assert sup == pytest.approx(best, rel=1e-12)

    def test_overflow_flag(self):
        dom = LatticeDomain(1, 6, 1.0)
        w = make_weight(dom, {"kind": "power", "beta": -110.0})
        rep = apq_characteristic(w, w, 2.0, 2.0)
        assert "overflow" in rep.flags


class TestBloom:
    def test_power_weight_closed_form(self):
        dom = LatticeDomain(1, 6, 1.0)
        setup = ExponentSetup(2.0, 4.0, 1)
        mu = make_weight(dom, {"kind": "power", "beta": 0.3})
        lam = make_weight(dom, {"kind": "power", "beta": -0.2})
        nu = bloom_weight(mu, lam, setup)
        r = np.abs(dom.axis_midpoints())
        want = r ** (0.5 * setup.bloom_exponent)
        assert np.allclose(nu.values, want, rtol=1e-12)

    def test_equal_weights_give_unit_nu(self):
        dom = LatticeDomain(1, 5, 1.0)
        setup = ExponentSetup(2.0, 2.0, 1)
        mu = make_weight(dom, {"kind": "logsmooth", "seed": 2})
        nu = bloom_weight(mu, mu, setup)
        assert np.allclose(nu.values, 1.0, atol=1e-14)

    @pytest.mark.parametrize(
        "mu_spec,lam_spec,p,q",
        [
            ({"kind": "power", "beta": 0.3}, {"kind": "power", "beta": -0.25}, 2.0, 2.0),
            ({"kind": "logsmooth", "seed": 4}, {"kind": "logsmooth", "seed": 9}, 2.0, 2.0),
            ({"kind": "power", "beta": 0.2}, {"kind": "logsmooth", "seed": 1}, 2.0, 4.0),
            ({"kind": "unit"}, {"kind": "power", "beta": 0.4}, 2.5, 3.0),
        ],
    )
    def test_sandwich_holds(self, mu_spec, lam_spec, p, q):
        dom = LatticeDomain(1, 8, 1.0)
        setup = ExponentSetup(p, q, 1)
        mu = make_weight(dom, mu_spec)
        lam = make_weight(dom, lam_spec)
        rep = bloom_sandwich_report(mu, lam, setup)
        assert rep.holds(1e-9)
        assert rep.min_ratio >= 1.0 - 1e-9
        assert rep.max_ratio <= rep.upper * (1.0 + 1e-9)
        assert rep.intermediate_characteristic <= rep.intermediate_bound * (1.0 + 1e-9)

    def test_sandwich_2d(self):
        dom = LatticeDomain(2, 4, 1.0)
        setup = ExponentSetup(2.0, 4.0, 2)
        mu = make_weight(dom, {"kind": "power", "beta": 0.5})
        lam = make_weight(dom, {"kind": "logsmooth", "seed": 6})
        rep = bloom_sandwich_report(mu, lam, setup)
        assert rep.holds(1e-9)

    def test_sandwich_characteristics_are_the_apq_suprema(self):
        # They are read off the membership surrogates.
        dom = LatticeDomain(2, 4, 1.0)
        setup = ExponentSetup(2.0, 3.0, 2)
        mu = make_weight(dom, {"kind": "power", "beta": 0.4})
        lam = make_weight(dom, {"kind": "logsmooth", "seed": 3})
        rep = bloom_sandwich_report(mu, lam, setup)
        assert rep.mu_characteristic == apq_characteristic(mu, mu, 2.0, 2.0).supremum
        assert rep.lam_characteristic == apq_characteristic(lam, lam, 3.0, 3.0).supremum
        assert rep.mu_characteristic == rep.membership["mu"]["characteristic"]

    def test_setup_dimension_mismatch(self):
        dom = LatticeDomain(1, 4, 1.0)
        mu = make_weight(dom, {"kind": "unit"})
        with pytest.raises(ValueError):
            bloom_weight(mu, mu, ExponentSetup(2.0, 2.0, 2))


class TestMembership:
    def test_unit_stable(self):
        dom = LatticeDomain(1, 6, 1.0)
        res = membership_surrogate(make_weight(dom, {"kind": "unit"}), 2.0)
        assert res["ok"]
        assert res["drift"] == 0.0

    def test_strong_negative_power_flags(self):
        dom = LatticeDomain(1, 6, 1.0)
        res = membership_surrogate(make_weight(dom, {"kind": "power", "beta": -2.0}), 2.0)
        assert not res["ok"]
        assert res["drift"] > 0.10

    def test_sandwich_reports_membership_failure(self):
        dom = LatticeDomain(1, 6, 1.0)
        setup = ExponentSetup(2.0, 2.0, 1)
        mu = make_weight(dom, {"kind": "power", "beta": -2.0})
        lam = make_weight(dom, {"kind": "unit"})
        rep = bloom_sandwich_report(mu, lam, setup)
        assert "membership-surrogate-failed" in rep.flags


class TestWeightType:
    def test_rejects_nonpositive(self):
        dom = LatticeDomain(1, 4, 1.0)
        vals = np.ones(dom.shape)
        vals[3] = 0.0
        with pytest.raises(ValueError):
            as_weight(SampledFunction(dom, vals))

    def test_compares_by_identity(self):
        dom = LatticeDomain(1, 4, 1.0)
        w = make_weight(dom, {"kind": "unit"})
        assert w == w
        assert w != make_weight(dom, {"kind": "unit"})
        assert len({w, make_weight(dom, {"kind": "unit"})}) == 2

    def test_coarsen_resamples_spec(self):
        dom = LatticeDomain(1, 6, 1.0)
        w = make_weight(dom, {"kind": "power", "beta": 0.3})
        coarse = w.coarsen()
        assert coarse.domain.m == 5
        want = np.abs(coarse.domain.axis_midpoints()) ** 0.3
        assert np.allclose(coarse.values, want, rtol=1e-12)

    def test_coarsen_block_averages_raw(self):
        dom = LatticeDomain(1, 4, 1.0)
        rng = np.random.default_rng(0)
        w = as_weight(SampledFunction(dom, rng.uniform(1.0, 2.0, dom.shape)))
        coarse = w.coarsen()
        assert np.allclose(coarse.values, w.values.reshape(-1, 2).mean(axis=1))

    @pytest.mark.parametrize("spec", [
        {"kind": "unit"}, {"kind": "power", "beta": -0.7},
        {"kind": "logsmooth", "amplitude": 3.0, "modes": 5, "seed": 4},
    ])
    def test_values_are_exp_of_the_logs_on_first_read(self, spec):
        dom = LatticeDomain(2, 5, 1.0)
        w = make_weight(dom, spec)
        assert "values" not in vars(w)
        first = w.values
        assert first.tobytes() == np.exp(w.log_values).tobytes()
        assert w.values is first

    def test_as_weight_keeps_the_values_it_was_given(self):
        dom = LatticeDomain(1, 8, 1.0)
        rng = np.random.default_rng(3)
        f = SampledFunction(dom, rng.uniform(1e5, 1e6, dom.shape))
        w = as_weight(f)
        assert w.values.tobytes() == f.values.tobytes()
        assert not np.array_equal(np.exp(w.log_values), f.values)  # exp(log(v)) drifts

    @pytest.mark.parametrize("spec, tag", [
        ({"kind": "power", "beta": 200.0}, "power[200]"),  # underflows to 0 near the origin
        ({"kind": "power", "beta": -200.0}, "power[-200]"),  # overflows there
        ({"kind": "power", "beta": math.nan}, "power[nan]"),
    ])
    def test_make_weight_refuses_values_outside_the_float_range(self, spec, tag):
        dom = LatticeDomain(2, 7, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"weight {tag} leaves")):
            make_weight(dom, spec)

    @pytest.mark.parametrize("amplitude", [1e308, -1e308, math.inf])
    def test_logsmooth_amplitude_whose_draw_width_overflows_is_refused(self, amplitude):
        dom = LatticeDomain(1, 4, 1.0)
        with pytest.raises(ValueError, match=re.escape("weight logsmooth[2] amplitude")):
            make_weight(dom, {"kind": "logsmooth", "amplitude": amplitude, "seed": 2})

    def test_unknown_key_rejected_not_defaulted(self):
        # a misspelt beta would otherwise read beta = 0, the unit weight
        dom = LatticeDomain(1, 5, 1.0)
        with pytest.raises(ValueError, match="kind 'power' takes no key 'bta'"):
            make_weight(dom, {"kind": "power", "bta": 0.3})
