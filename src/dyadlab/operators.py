"""Discretized singular integral operators and their commutators.

A kernel K(x, y) is realized as a dense matrix A[i, j] = K(x_i, x_j) *
window(x_i - x_j) * h^d over the lattice midpoints, with zero diagonal.
For antisymmetric kernels the zero diagonal is the principal value: the
p.v. integral over a cell centered at x vanishes by symmetry.  For
general kernels it is a declared O(h) bias.

Smooth cutoffs use a single C^1 profile: value 1 inside radius a, 0
outside radius b, and cos^2(pi (t - a) / (2 (b - a))) on the ramp, whose
Lipschitz constant is pi / (2 (b - a)).  phi(r) denotes the radial
cutoff with a = r/2, b = r, so products of the form

    1 = phi(r) + [phi(S) - phi(r)] + [1 - phi(S)]

telescope exactly; the compact/residual splitting below and the
truncation comparison both ride on this.

Truncation comparison constant: the hard cutoff at radius r and the
smooth cutoff phi(r) differ only on the annulus r/2 <= |x - y| < r,
where |K| <= C (r/2)^{-d}.  The annulus sits inside the centered box of
halfwidth r, so the gap is at most C 2^d r^{-d} * (2r)^d * (box average
of |f|) = C 4^d * M_box f.  The bound is exact cell arithmetic, so it
is asserted cell-by-cell, not just in the sup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from dyadlab.lattice import LatticeDomain, SampledFunction

# Dense assembly guard: n^(2d) matrix entries.
MAX_MATRIX_ENTRIES = 2**26

_SIZE_SAMPLE_PAIRS = 10_000


@dataclass(frozen=True)
class Bump:
    """Radial C^1 cutoff: 1 on [0, a], 0 on [b, inf), cos^2 ramp between."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"need 0 <= a < b, got a={self.a}, b={self.b}")

    @property
    def lipschitz(self) -> float:
        return np.pi / (2.0 * (self.b - self.a))

    def value(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        ramp = np.cos(np.pi * (t - self.a) / (2.0 * (self.b - self.a))) ** 2
        out = np.where(t <= self.a, 1.0, np.where(t >= self.b, 0.0, ramp))
        return out if out.ndim else float(out)


def phi(radius: float) -> Bump:
    """Cutoff equal to 1 inside half the radius and vanishing beyond it."""
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    return Bump(radius / 2.0, radius)


def annulus(r: float, s: float) -> Callable:
    """Window phi(s) - phi(r): supported on r/2 < |t| < s, 1 on r <= |t| <= s/2."""
    if not (0.0 < r < s):
        raise ValueError("need 0 < r < s")
    inner, outer = phi(r), phi(s)
    return lambda t: outer.value(t) - inner.value(t)


# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    variant: str
    d: int
    evaluator: Callable  # (x, y) arrays of shape (..., d) -> values (...)
    size_constant: float
    antisymmetric: bool
    nondegenerate: bool
    omega: Optional[Callable] = None  # modulus t in (0, 1] -> omega(t)
    dini: float = float("nan")

    def __call__(self, x, y):
        return self.evaluator(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


def _hilbert_eval(x, y):
    diff = x[..., 0] - y[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / diff


def _riesz_eval(axis):
    def evaluate(x, y):
        diff = x - y
        dist = np.sqrt(np.sum(diff**2, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            return diff[..., axis] / dist**3
    return evaluate


def dini_surrogate(omega: Callable) -> float:
    """int_0^1 omega(t) dt/t, log-substituted trapezoid (t = e^{-s}, s <= 36)."""
    s = np.linspace(0.0, 36.0, 4097)
    t = np.exp(-s)
    return float(np.trapezoid(np.asarray(omega(t), dtype=float), s))


def _sample_size_bound(evaluator, c, d, domain, rng):
    pts = rng.uniform(-domain.L, domain.L, size=(2, _SIZE_SAMPLE_PAIRS, d))
    x, y = pts[0], pts[1]
    dist = np.sqrt(np.sum((x - y) ** 2, axis=-1))
    keep = dist > 1e-9
    x, y, dist = x[keep], y[keep], dist[keep]
    vals = np.abs(np.asarray(evaluator(x, y), dtype=float))
    bound = c * dist ** (-d)
    bad = vals > bound * (1.0 + 1e-9)
    if np.any(bad):
        k = int(np.argmax(vals[bad] / bound[bad]))
        wx, wy = x[bad][k], y[bad][k]
        raise ValueError(
            f"size bound violated: |K({tuple(wx)}, {tuple(wy)})| = {vals[bad][k]:.6g} "
            f"> {bound[bad][k]:.6g} = C |x-y|^-d with C = {c}"
        )


def make_kernel(variant: str, params: Optional[dict] = None) -> KernelSpec:
    """Build a KernelSpec.

    variant "hilbert" (d=1, K = 1/(x-y)) and "riesz" (d=2, component j of
    (x-y)/|x-y|^3, params {"j": 1 or 2}) carry exact size constants and are
    tagged non-degenerate.  variant "custom" takes params {"evaluator", "C",
    "domain", optional "omega", "antisymmetric", "d"}; the size bound
    |K| <= C |x-y|^{-d} is spot-checked on random pairs and a violation
    raises with the witness pair.  Providing "domain" for the named variants
    runs the same check on them.
    """
    params = dict(params or {})
    domain = params.pop("domain", None)
    rng = np.random.default_rng(7)

    if variant == "hilbert":
        d = params.pop("d", 1)
        if d != 1:
            raise ValueError("hilbert kernel is one-dimensional")
        omega = params.pop("omega", lambda t: 2.0 * np.asarray(t, dtype=float))
        spec = KernelSpec("hilbert", 1, _hilbert_eval, 1.0, True, True,
                          omega, dini_surrogate(omega))
    elif variant == "riesz":
        d = params.pop("d", 2)
        if d != 2:
            raise ValueError("riesz kernels live at d=2 here (d=1 has hilbert)")
        j = params.pop("j")
        if j not in (1, 2):
            raise ValueError("riesz component j must be 1 or 2")
        # Crude mean-value modulus; descriptor only, not a tight constant.
        omega = params.pop("omega", lambda t: 32.0 * np.asarray(t, dtype=float))
        spec = KernelSpec(f"riesz_{j}", 2, _riesz_eval(j - 1), 1.0, True, True,
                          omega, dini_surrogate(omega))
    elif variant == "custom":
        if domain is None:
            raise ValueError("custom kernels need a domain for the size-bound check")
        evaluator = params.pop("evaluator")
        c = float(params.pop("C"))
        d = params.pop("d", domain.d)
        omega = params.pop("omega", None)
        antisym = bool(params.pop("antisymmetric", False))
        _sample_size_bound(evaluator, c, d, domain, rng)
        dini = dini_surrogate(omega) if omega is not None else float("nan")
        spec = KernelSpec("custom", d, evaluator, c, antisym, False, omega, dini)
    else:
        raise ValueError(f"unknown kernel variant {variant!r}")

    if params:
        raise ValueError(f"unused kernel params: {sorted(params)}")
    if domain is not None and variant != "custom":
        if domain.d != spec.d:
            raise ValueError(f"{variant} kernel needs d={spec.d}, domain has d={domain.d}")
        _sample_size_bound(spec.evaluator, spec.size_constant, spec.d, domain, rng)
    return spec


def nondegeneracy_probe(kernel: KernelSpec, y, r: float,
                        domain: Optional[LatticeDomain] = None,
                        c_min: float = 0.01):
    """Find x with |x - y| >= r and c = |K(x, y)| r^d as large as possible.

    Named variants return the exact extremizer x = y + r e_1 (c = 1) when it
    stays inside the domain (always, if no domain is given).  Otherwise the
    lattice midpoints are searched.  Raises if nothing achieves c >= c_min.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (kernel.d,):
        raise ValueError(f"y must have {kernel.d} coordinates")
    if kernel.nondegenerate:
        x = y.copy()
        x[0] += r
        if domain is None or np.all(np.abs(x) <= domain.L):
            c = float(np.abs(kernel(x[None, :], y[None, :]))[0]) * r**kernel.d
            return tuple(x), c
    if domain is None:
        raise ValueError("custom kernels need a domain to search")
    if domain.d != kernel.d:
        raise ValueError("domain dimension mismatch")
    pts = np.stack([m.reshape(-1) for m in domain.midpoints()], axis=-1)
    dist = np.sqrt(np.sum((pts - y[None, :]) ** 2, axis=-1))
    far = dist >= r
    if not np.any(far):
        raise ValueError(f"no lattice point at distance >= {r} from {tuple(y)}")
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.abs(np.asarray(kernel(pts[far], y[None, :]), dtype=float))
    vals = np.where(np.isfinite(vals), vals, 0.0)
    k = int(np.argmax(vals))
    c = float(vals[k]) * r**kernel.d
    if c < c_min:
        raise ValueError(
            f"kernel degenerate near y={tuple(y)}, r={r}: best c = {c:.3g} < {c_min}"
        )
    return tuple(pts[far][k]), c


# -- assembly ------------------------------------------------------------------


@dataclass
class OperatorMatrix:
    """Dense realization of a kernel; immutable after assembly."""

    domain: LatticeDomain
    matrix: np.ndarray
    kernel: KernelSpec
    window: Optional[str] = None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def apply(self, f: SampledFunction) -> SampledFunction:
        if f.domain != self.domain:
            raise ValueError("domain mismatch")
        out = self.matrix @ f.values.reshape(-1)
        return SampledFunction(self.domain, out.reshape(self.domain.shape))


def _midpoint_table(domain: LatticeDomain) -> np.ndarray:
    return np.stack([m.reshape(-1) for m in domain.midpoints()], axis=-1)


def _window_factor(window, dist):
    if isinstance(window, Bump):
        return window.value(dist)
    if isinstance(window, tuple):
        return annulus(*window)(dist)
    return window(dist)


def _window_label(window):
    if window is None:
        return None
    if isinstance(window, Bump):
        return f"bump({window.a:g},{window.b:g})"
    if isinstance(window, tuple):
        return f"annulus({window[0]:g},{window[1]:g})"
    return getattr(window, "__name__", "callable")


def assemble(kernel: KernelSpec, domain: LatticeDomain, window=None) -> OperatorMatrix:
    """Dense matrix K(x_i, x_j) window(|x_i - x_j|) h^d, zero diagonal.

    window: None, a Bump, an (r, s) annulus pair, or a callable on distances.
    """
    if domain.d != kernel.d:
        raise ValueError(f"kernel is d={kernel.d}, domain is d={domain.d}")
    size = domain.n**domain.d
    if size * size > MAX_MATRIX_ENTRIES:
        raise ValueError(
            f"dense assembly needs {size * size} entries > {MAX_MATRIX_ENTRIES}"
        )
    pts = _midpoint_table(domain)
    a = np.empty((size, size))
    block = max(1, 2**22 // size)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        x = pts[lo:hi, None, :]
        y = pts[None, :, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(kernel.evaluator(x, y), dtype=float)
            if window is not None:
                dist = np.sqrt(np.sum((x - y) ** 2, axis=-1))
                vals = vals * _window_factor(window, dist)
        vals[~np.isfinite(vals)] = 0.0
        a[lo:hi] = vals
    np.fill_diagonal(a, 0.0)
    a *= domain.cell_volume
    return OperatorMatrix(domain, a, kernel, _window_label(window))


def commutator_apply(b: SampledFunction, op: OperatorMatrix,
                     f: SampledFunction) -> SampledFunction:
    """[b, T] f = b (Tf) - T(bf); complex b and f supported."""
    if b.domain != op.domain or f.domain != op.domain:
        raise ValueError("domain mismatch")
    tf = op.apply(f)
    bf = SampledFunction(op.domain, b.values * f.values)
    return SampledFunction(op.domain, b.values * tf.values - op.apply(bf).values)


def commutator_matrix(b: SampledFunction, op: OperatorMatrix) -> OperatorMatrix:
    """[b, T] as a dense matrix: entrywise (b(x_i) - b(x_j)) A[i, j]."""
    if b.domain != op.domain:
        raise ValueError("domain mismatch")
    bv = b.values.reshape(-1)
    return OperatorMatrix(op.domain, op.matrix * (bv[:, None] - bv[None, :]),
                          op.kernel, "commutator")


# -- compact/residual splitting ------------------------------------------------


def decompose(kernel: KernelSpec, domain: LatticeDomain, eps: float):
    """Split T into a compactly windowed part and a residual.

    With r = eps, R = 1/eps, S = 10 R, and chi = phi(R) evaluated at the
    midpoint positions, the compact part applies chi, the kernel windowed by
    the annulus [phi(S) - phi(r)](|x - y|), then chi again.  The residual
    collects the four complementary terms.  Because the annulus window is
    exactly 1 wherever both chi factors are nonzero and |x - y| <= S/2, the
    two parts sum back to the unwindowed matrix; that identity is checked
    entrywise and raises ArithmeticError when it breaks.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    r, big_r = eps, 1.0 / eps
    base = assemble(kernel, domain)
    a = base.matrix
    pts = _midpoint_table(domain)
    chi = phi(big_r).value(np.sqrt(np.sum(pts**2, axis=-1)))
    outer = 1.0 - chi

    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    inner_win = phi(r).value(dist)
    mid_win = phi(10.0 * big_r).value(dist) - inner_win

    core = chi[:, None] * a * chi[None, :]
    compact = core * mid_win
    residual = (
        core * inner_win
        + outer[:, None] * a * outer[None, :]
        + outer[:, None] * a * chi[None, :]
        + chi[:, None] * a * outer[None, :]
    )
    scale = max(1.0, float(np.max(np.abs(a)))) if a.size else 1.0
    gap = float(np.max(np.abs(compact + residual - a))) if a.size else 0.0
    if gap > 1e-12 * scale:
        raise ArithmeticError(f"splitting identity broke: {gap:g}")
    t_c = OperatorMatrix(domain, compact, kernel, f"compact(eps={eps:g})")
    t_eps = OperatorMatrix(domain, residual, kernel, f"residual(eps={eps:g})")
    return t_c, t_eps


# -- truncation comparison -----------------------------------------------------


@dataclass
class TruncationReport:
    r: float
    c_cmp: float
    gap: np.ndarray
    box_maximal: np.ndarray
    worst_ratio: float
    ok: bool


def _box_maximal(f: SampledFunction, r: float) -> np.ndarray:
    """(2r)^{-d} * sum of |f| h^d over midpoints within sup-distance < r."""
    dom = f.domain
    g = r / dom.h
    w = int(np.ceil(g - 1e-9)) - 1  # per-axis offsets with |j - i| h < r
    av = np.abs(f.values)
    out = av
    for axis in range(dom.d):
        c = np.cumsum(out, axis=axis)
        c = np.concatenate([np.zeros_like(np.take(c, [0], axis=axis)), c], axis=axis)
        n = av.shape[axis]
        idx_hi = np.minimum(np.arange(n) + w + 1, n)
        idx_lo = np.maximum(np.arange(n) - w, 0)
        out = np.take(c, idx_hi, axis=axis) - np.take(c, idx_lo, axis=axis)
    return out * dom.cell_volume / (2.0 * r) ** dom.d


def truncation_comparison(kernel: KernelSpec, r: float,
                          f: SampledFunction) -> TruncationReport:
    """Hard cutoff at radius r vs the smooth cutoff 1 - phi(r).

    The two windowed operators differ only across the annulus
    r/2 <= |x - y| < r, so the pointwise gap is bounded by
    C 4^d * (centered-box average of |f| at halfwidth r); the report checks
    that cell by cell.  Dyadic maximal functions do not work here: a point
    near a dyadic boundary has all its ancestors nearly disjoint from the
    r-ball on one side.
    """
    dom = f.domain
    if r < 2.0 * dom.h:
        raise ValueError(f"annulus unresolved: r = {r} < 2h = {2 * dom.h}")
    smooth = phi(r)
    hard = assemble(kernel, dom, window=lambda t: (t >= r).astype(float))
    soft = assemble(kernel, dom, window=lambda t: 1.0 - smooth.value(t))
    gap = np.abs(hard.apply(f).values - soft.apply(f).values)
    box = _box_maximal(f, r)
    c_cmp = kernel.size_constant * 4.0**dom.d
    bound = c_cmp * box
    scale = float(np.max(bound)) if bound.size else 0.0
    ok = bool(np.all(gap <= bound + 1e-12 * max(1.0, scale)))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(gap > 0.0, gap / bound, 0.0)
    worst = float(np.max(ratios)) if ratios.size else 0.0
    return TruncationReport(r, c_cmp, gap, box, worst, ok)
