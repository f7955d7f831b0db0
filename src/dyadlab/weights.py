"""Positive weights on the lattice and their Muckenhoupt-type bookkeeping.

Exponent conventions, for 1 < p <= q < infinity:

* alpha/d = 1/p - 1/q, so alpha = 0 exactly when p = q.
* The joint characteristic is
      [sigma, tau]_{A_{p,q}} = sup_Q <sigma^q>_Q^{1/q} <tau^{-p'}>_Q^{1/p'},
  with plain (unweighted) cube averages and Q over the canonical dyadic
  cubes, read off the cube pyramid (dyadic) and returned as a
  dyadic.FamilyReport; [w]_{A_p} is recovered as
  apq(w^{1/p}, w^{1/p}, p, p)^p.
* Given mu in A_{p,p} and lambda in A_{q,q}, the intermediate weight is
      nu = (mu/lambda)^{1/(1 + alpha/d)},
  and for every cube the two-sided bound
      1 <= <mu^p>_Q^{1/p} <lambda^{-q'}>_Q^{1/q'} / <nu>_Q^{1 + alpha/d}
        <= [mu]_{A_{p,p}} [lambda]_{A_{q,q}}
  holds (Jensen and Hoelder on the left, the two characteristics on the
  right).  Both steps are inequalities between weighted means of the cell
  values, so they hold verbatim for lattice averages; the sandwich report
  checks them cube by cube, its ratios in FamilyReport order.
* With s = 2/(1 + alpha/d), nu^{1/s} = (mu/lambda)^{1/2} and
  [nu^{1/s}]_{A_{s,s}} <= ([mu]_{A_{p,p}} [lambda]_{A_{q,q}})^{1/2}.

Catalog weights are specs read through _WEIGHT_KEYS, as lattice reads
symbol terms.  Weights are stored as their logarithms, and all powers
are formed in log space; a weight's values are computed on first read
(exp of the logs) and kept, and a run that only takes powers never
forms them.  Powered values above 1e300 are clipped and flagged rather
than raised, so near-divergent reports stay readable.

Membership in A_{p,p} has no finite-resolution criterion, so the
surrogate used throughout is: the characteristic is finite at the
working resolution and moves by at most 10% when the lattice is
coarsened one level.  Reports carry a flag, never an error, when the
surrogate fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from dyadlab import dyadic
from dyadlab.lattice import LatticeDomain, SampledFunction, _catalog_spec

_CLIP = 1e300
_LOG_CLIP = math.log(_CLIP)

# the weight catalog: kind -> {key: default}, read as lattice reads symbol terms
_WEIGHT_KEYS = {"unit": {}, "power": {"beta": 0.0},
                "logsmooth": {"amplitude": 0.5, "modes": 3, "seed": 0}}

MEMBERSHIP_DRIFT = 0.10  # relative drift the surrogate allows under one coarsening


@dataclass(frozen=True)
class ExponentSetup:
    """Integrability exponents (p, q) in dimension d, with 1 < p <= q."""

    p: float
    q: float
    d: int

    def __post_init__(self):
        if not (1.0 < self.p <= self.q < math.inf):
            raise ValueError(f"need 1 < p <= q < inf, got p={self.p}, q={self.q}")

    @property
    def p_prime(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_prime(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def alpha(self) -> float:
        return self.d * (1.0 / self.p - 1.0 / self.q)

    @property
    def alpha_frac(self) -> float:
        """alpha/d = 1/p - 1/q."""
        return 1.0 / self.p - 1.0 / self.q

    @property
    def bloom_exponent(self) -> float:
        """Exponent of mu/lambda in the intermediate weight: 1/(1 + alpha/d)."""
        return 1.0 / (1.0 + self.alpha_frac)

    @property
    def t(self) -> float:
        return (1.0 / self.p + 1.0 - 1.0 / self.q) / (1.0 / self.q + 1.0 - 1.0 / self.p)

    @property
    def s(self) -> float:
        """Intermediate integrability index 1 + 1/t = 2/(1 + alpha/d)."""
        return 1.0 + 1.0 / self.t


@dataclass(frozen=True, eq=False)
class Weight:
    """Positive cell weight, held as its logarithms; powers are taken in
    log space, and `values` is computed on first read.  Weights compare
    by identity: their fields are arrays."""

    domain: LatticeDomain
    log_values: np.ndarray
    spec: tuple | None = None

    @functools.cached_property
    def values(self) -> np.ndarray:
        """exp(log_values), computed on first read and kept."""
        return np.exp(self.log_values)

    def function(self) -> SampledFunction:
        return SampledFunction(self.domain, self.values)

    def power(self, exponent: float) -> SampledFunction:
        """w^exponent, clipped at 1e300; pair with power_overflows."""
        logs = exponent * self.log_values
        return SampledFunction(self.domain, np.exp(np.minimum(logs, _LOG_CLIP)))

    def power_overflows(self, exponent: float) -> bool:
        return bool(np.max(exponent * self.log_values) > _LOG_CLIP)

    def coarsen(self) -> "Weight":
        """Weight at one level coarser; resamples analytic specs, else
        block-averages the cell values."""
        coarse = self.domain.coarsen()
        if self.spec is not None:
            return make_weight(coarse, dict(self.spec))
        cv = dyadic._block_sums(self.values, coarse.m, coarse.d) * 2.0**-coarse.d
        return as_weight(SampledFunction(coarse, cv))


def as_weight(f: SampledFunction) -> Weight:
    values = np.real(f.values)
    if np.iscomplexobj(f.values) and np.any(f.values.imag != 0.0):
        raise ValueError("weights must be real")
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("weights must be strictly positive and finite")
    w = Weight(f.domain, np.log(values).astype(np.float64))
    w.__dict__["values"] = values.astype(np.float64)  # as given, not exp(log(values))
    return w


def make_weight(domain: LatticeDomain, spec: dict) -> Weight:
    """Catalog weights, the spec read through _WEIGHT_KEYS: unit, |x|^beta, or
    a seeded log-smooth sample of at most 2^m modes (one per cell per axis).
    Values are taken as typed (float beta, amplitude; int modes, seed)."""
    kind, values = _catalog_spec(_WEIGHT_KEYS, spec, "weight")
    axes = domain.axis_grids()
    if kind == "unit":
        logw = np.zeros(domain.shape)
        tag = "unit"
    elif kind == "power":
        beta = values["beta"]
        r = np.sqrt(sum(x**2 for x in axes))
        logw = beta * np.log(r)
        tag = f"power[{beta:g}]"
    else:
        amplitude, modes, seed = values["amplitude"], values["modes"], values["seed"]
        if not 0 <= modes <= domain.n:  # each mode costs a pass over the cells
            raise ValueError(f"logsmooth modes must be in [0, 2^m] = [0, {domain.n}] "
                             f"at m = {domain.m}, got {modes}")
        tag = f"logsmooth[{seed}]"
        if not math.isfinite(2.0 * amplitude):  # the width of the uniform draws below
            raise ValueError(f"weight {tag} amplitude {amplitude!r}: 2 * amplitude is not finite")
        rng = np.random.default_rng(seed)
        logw = np.zeros(domain.shape)
        for k in range(1, modes + 1):
            a = rng.uniform(-amplitude, amplitude) / k
            phase = rng.uniform(0.0, 2.0 * np.pi)
            # a unit direction from d - 1 hyperspherical angles: c -> (c cos, c sin)
            direction = [1.0]
            for angle in rng.uniform(0.0, 2.0 * np.pi, size=domain.d - 1):
                direction[-1:] = [direction[-1] * np.cos(angle), direction[-1] * np.sin(angle)]
            proj = sum(x * u for x, u in zip(axes, direction))
            logw = logw + a * np.cos(np.pi * k * proj / domain.L + phase)
    # exp is monotone, so the two ends bound every value (a NaN log reaches
    # both through min and max); values are computed on first read
    with np.errstate(over="ignore"):  # the check below names the weight
        ends = np.exp([np.min(logw), np.max(logw)])
    if not (np.all(np.isfinite(ends)) and np.all(ends > 0.0)):
        raise ValueError(f"weight {tag} leaves the floating-point range")
    return Weight(domain, logw, spec=tuple(sorted({"kind": kind, **values}.items())))


def _family_averages(f: SampledFunction) -> np.ndarray:
    """Plain averages of f over every canonical cube, in family order."""
    return dyadic._pyramid(np.real(f.values), means=True)


def apq_characteristic(
    sigma: Weight,
    tau: Weight,
    p: float,
    q: float,
) -> dyadic.FamilyReport:
    """[sigma, tau]_{A_{p,q}} over the canonical cubes, with per-cube values."""
    return _apq_tables(sigma, tau, p, q)[0]


def _apq_tables(sigma: Weight, tau: Weight, p: float, q: float):
    """apq_characteristic and its family vectors <sigma^q> and <tau^{-p'}>."""
    if not (1.0 < p < math.inf and 1.0 < q < math.inf):
        raise ValueError(f"need 1 < p, q < inf, got p={p}, q={q}")
    if sigma.domain != tau.domain:
        raise ValueError("sigma and tau must share a domain")
    p_prime = p / (p - 1.0)
    flags = set()
    if sigma.power_overflows(q) or tau.power_overflows(-p_prime):
        flags.add("overflow")
    a = _family_averages(sigma.power(q))
    b = _family_averages(tau.power(-p_prime))
    values = a ** (1.0 / q) * b ** (1.0 / p_prime)
    if not np.all(np.isfinite(values)):
        flags.add("overflow")
        values = np.nan_to_num(values, posinf=_CLIP)
    return dyadic.FamilyReport(sigma.domain, values, flags), a, b


def bloom_weight(mu: Weight, lam: Weight, setup: ExponentSetup) -> Weight:
    """nu = (mu/lambda)^{1/(1 + alpha/d)}."""
    if mu.domain != lam.domain:
        raise ValueError("mu and lambda must share a domain")
    if mu.domain.d != setup.d:
        raise ValueError("setup dimension does not match the weights")
    e = setup.bloom_exponent
    return Weight(mu.domain, e * (mu.log_values - lam.log_values))


def membership_surrogate(w: Weight, p: float) -> dict:
    """Finite characteristic, stable within MEMBERSHIP_DRIFT under one coarsening;
    "overflow" is set when a characteristic was clipped at 1e300."""
    return _membership(w, p)[0]


def _membership(w: Weight, p: float):
    """membership_surrogate and the fine family vectors <w^p>, <w^{-p'}>."""
    fine, w_p, w_pp = _apq_tables(w, w, p, p)
    coarse_w = w.coarsen()
    coarse = apq_characteristic(coarse_w, coarse_w, p, p)
    drift = abs(fine.supremum - coarse.supremum) / max(fine.supremum, coarse.supremum)
    overflow = "overflow" in fine.flags | coarse.flags
    ok = math.isfinite(fine.supremum) and not overflow and drift <= MEMBERSHIP_DRIFT
    return dict(characteristic=fine.supremum, coarse_characteristic=coarse.supremum,
                drift=drift, overflow=overflow, ok=ok), w_p, w_pp


@dataclass
class SandwichReport:
    ratios: np.ndarray  # one per canonical cube, in dyadic.FamilyReport order
    lower: float
    upper: float
    mu_characteristic: float
    lam_characteristic: float
    s: float
    intermediate_characteristic: float
    intermediate_bound: float
    membership: dict
    flags: set = field(default_factory=set)

    @property
    def min_ratio(self) -> float:
        return float(np.min(self.ratios))

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    def holds(self, rel_tol: float = 1e-9) -> bool:
        sandwich = self.min_ratio >= self.lower * (1.0 - rel_tol) and self.max_ratio <= (
            self.upper * (1.0 + rel_tol)
        )
        intermediate = self.intermediate_characteristic <= self.intermediate_bound * (1.0 + rel_tol)
        return bool(sandwich and intermediate)


def bloom_sandwich_report(
    mu: Weight,
    lam: Weight,
    setup: ExponentSetup,
) -> SandwichReport:
    """Cube-by-cube two-sided bound on the mass ratio
    <mu^p>^{1/p} <lambda^{-q'}>^{1/q'} / <nu>^{1 + alpha/d} over the
    canonical cubes, plus the intermediate-weight characteristic bound at
    s = 2/(1 + alpha/d).  [mu] and [lambda] are the characteristics the
    membership surrogates compute."""
    nu = bloom_weight(mu, lam, setup)  # checks the domains and the dimension
    flags = set()
    p, q = setup.p, setup.q
    if mu.power_overflows(p) or lam.power_overflows(-setup.q_prime):
        flags.add("overflow")
    # <mu^p> and <lambda^{-q'}> are the fine families of the memberships
    mu_member, mu_p, _ = _membership(mu, p)
    lam_member, _, lam_qp = _membership(lam, q)
    nu_avg = _family_averages(nu.function())
    ratios = mu_p ** (1.0 / p) * lam_qp ** (1.0 / setup.q_prime) / nu_avg ** (
        1.0 + setup.alpha_frac
    )
    membership = {"mu": mu_member, "lam": lam_member}
    mu_char = membership["mu"]["characteristic"]
    lam_char = membership["lam"]["characteristic"]
    nu_root = Weight(mu.domain, (mu.log_values - lam.log_values) / 2.0)
    s = setup.s
    inter = apq_characteristic(nu_root, nu_root, s, s).supremum
    if not membership["mu"]["ok"] or not membership["lam"]["ok"]:
        flags.add("membership-surrogate-failed")
    return SandwichReport(
        ratios=ratios,
        lower=1.0,
        upper=mu_char * lam_char,
        mu_characteristic=mu_char,
        lam_characteristic=lam_char,
        s=s,
        intermediate_characteristic=inter,
        intermediate_bound=math.sqrt(mu_char * lam_char),
        membership=membership,
        flags=flags,
    )
