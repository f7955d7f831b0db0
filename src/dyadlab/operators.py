"""Discretized singular integral operators and their commutators.

An operator is a linear map on the cells of one lattice domain, given as
an apply/adjoint pair on flat cell arrays (Operator).  A kernel is a
function K(z) of the offset z = x - y, and it acts as
sum_j K(x_i - x_j) window(|x_i - x_j|) h^d f_j over the lattice
midpoints, with the j = i term left out.  For odd kernels the dropped
diagonal is the principal value: the p.v. integral over a cell centered
at x vanishes by symmetry.  For general kernels it is a declared O(h)
bias.

Convolution is the one runtime backend.  It stores the stencil
K(o h) window(|o h|) h^d over the offsets o in (-n, n)^d and applies it
through one FFT pair on a circulant embedding (Chan & Ng, SIAM Review
1996), in O(N log N) time and O(N) memory.  The circulant is sized to
the stencil's support: side 2n per axis at full support, less when a
window cuts the stencil off, as it does for the eps-split residual.
Commutators [b, T] f = b Tf - T(bf) and the compact/residual split are
composites over it, so no N x N array is ever formed.  OperatorMatrix,
the dense matrix A[i, j] (assemble, commutator_matrix), is the reference
backend the fast paths are tested against; nothing else builds one.

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

_SIZE_SAMPLE_PAIRS = 10_000


@dataclass(frozen=True)
class Bump:
    """Radial C^1 cutoff: 1 on [0, a], 0 on [b, inf), cos^2 ramp between."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b):
            raise ValueError(f"need 0 <= a < b, got a={self.a}, b={self.b}")

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
    evaluator: Callable  # offsets z = x - y of shape (..., d) -> values K(z) (...)
    size_constant: float


def _hilbert_eval(z):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / z[..., 0]


def _riesz_eval(axis):
    def evaluate(z):
        dist = np.sqrt(np.sum(z**2, axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            return z[..., axis] / dist**3
    return evaluate


def _sample_size_bound(evaluator, c, d, domain, rng):
    """Check |K(z)| <= C |z|^-d at the offsets z = x - y of random pairs."""
    pts = rng.uniform(-domain.L, domain.L, size=(2, _SIZE_SAMPLE_PAIRS, d))
    z = pts[0] - pts[1]
    dist = np.sqrt(np.sum(z**2, axis=-1))
    keep = dist > 1e-9
    z, dist = z[keep], dist[keep]
    vals = np.abs(np.asarray(evaluator(z), dtype=float))
    bound = c * dist ** (-d)
    bad = vals > bound * (1.0 + 1e-9)
    if np.any(bad):
        k = int(np.argmax(vals[bad] / bound[bad]))
        raise ValueError(
            f"size bound violated: |K({tuple(z[bad][k])})| = {vals[bad][k]:.6g} "
            f"> {bound[bad][k]:.6g} = C |z|^-d with C = {c}"
        )


def make_kernel(variant: str, params: Optional[dict] = None) -> KernelSpec:
    """Build a KernelSpec.

    variant "hilbert" (d=1, K(z) = 1/z) and "riesz" (d=2, component j of
    z/|z|^3, params {"j": 1 or 2}) carry exact size constants.  variant
    "custom" takes params {"evaluator", "C", "domain", optional "d"}, the
    evaluator a function of the offset z = x - y; the size bound
    |K(z)| <= C |z|^{-d} is spot-checked on random pairs and a violation
    raises with the witness pair.  Providing "domain" for the named
    variants runs the same check on them.  Params are taken as typed, not
    cast.
    """
    params = dict(params or {})
    domain = params.pop("domain", None)
    rng = np.random.default_rng(7)

    if variant == "hilbert":
        d = params.pop("d", 1)
        if d != 1:
            raise ValueError("hilbert kernel is one-dimensional")
        spec = KernelSpec("hilbert", 1, _hilbert_eval, 1.0)
    elif variant == "riesz":
        d = params.pop("d", 2)
        if d != 2:
            raise ValueError("riesz kernels live at d=2 here (d=1 has hilbert)")
        j = params.pop("j")
        if j not in (1, 2):
            raise ValueError("riesz component j must be 1 or 2")
        spec = KernelSpec(f"riesz_{j}", 2, _riesz_eval(j - 1), 1.0)
    elif variant == "custom":
        if domain is None:
            raise ValueError("custom kernels need a domain for the size-bound check")
        evaluator = params.pop("evaluator")
        c = params.pop("C")
        d = params.pop("d", domain.d)
        _sample_size_bound(evaluator, c, d, domain, rng)
        spec = KernelSpec("custom", d, evaluator, c)
    else:
        raise ValueError(f"unknown kernel variant {variant!r}")

    if params:
        raise ValueError(f"unused kernel params: {sorted(params)}")
    if domain is not None and variant != "custom":
        if domain.d != spec.d:
            raise ValueError(f"{variant} kernel needs d={spec.d}, domain has d={domain.d}")
        _sample_size_bound(spec.evaluator, spec.size_constant, spec.d, domain, rng)
    return spec


# -- operators -----------------------------------------------------------------


class NumericalError(ArithmeticError):
    """A numerical check failed: a solver missed its tolerance, a witness
    drifted from its value, or an exact identity broke.  Never a config
    problem."""


class Operator:
    """A linear map on the cells of `domain`, as an apply/adjoint pair.

    `apply` and `adjoint` take flat cell arrays, batched along any leading
    axes, or a SampledFunction on the operator's domain, which comes back
    as one.  Each row of a batch comes out bitwise as it would alone, so a
    batched solver reproduces its one-row-at-a-time form.  The adjoint is
    taken under the pairing sum_i f_i conj(g_i).  `is_zero` marks an
    operator that is zero by construction, so a caller never has to read
    a zero off round-off.  Backends implement `_apply` and `_adjoint` on
    (..., N) arrays; the kernel backends also give `block(rows, cols)`,
    the entries between two cell sets.
    """

    domain: LatticeDomain
    is_complex: bool = False
    is_zero: bool = False

    @property
    def size(self) -> int:
        return self.domain.n**self.domain.d

    def apply(self, f):
        return self._lift(f, self._apply)

    def adjoint(self, g):
        return self._lift(g, self._adjoint)

    def _lift(self, f, fn):
        if isinstance(f, SampledFunction):
            if f.domain != self.domain:
                raise ValueError("domain mismatch")
            out = fn(f.values.reshape(-1))
            return SampledFunction(self.domain, out.reshape(self.domain.shape))
        f = np.asarray(f)
        if f.shape[-1:] != (self.size,):
            raise ValueError(f"need flat arrays of {self.size} cells, got shape {f.shape}")
        return fn(f)


def _midpoint_table(domain: LatticeDomain) -> np.ndarray:
    return np.stack([m.reshape(-1) for m in domain.midpoints()], axis=-1)


def _smooth_length(k: int) -> int:
    """Smallest 2^a 3^b 5^c >= k, a length the FFT factors into short passes."""
    best, p5 = 2 * k, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < k:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


class Convolution(Operator):
    """FFT backend for a kernel and a radial window.

    `stencil[o + n - 1]` is K(o h) window(|o h|) h^d for the offsets o
    in (-n, n)^d, with 0 at o = 0.  With w the largest |o_i| at which it
    is nonzero, it sits in a circulant of side M per axis: the smallest
    2,3,5-smooth length >= n + w, but 2n when w = n - 1, so a full
    stencil keeps its power-of-two circulant.  M >= n + w is exactly
    what keeps the wrapped stencil off the n kept outputs, so the cropped
    circular convolution of the zero-padded input is the lattice sum
    exactly: one FFT pair per call, the adjoint through the conjugate
    spectrum (the stencil is real).  The transforms skip zero rows on every
    axis but the last: the last-axis rfft runs on the n input rows, and
    each other axis keeps its n output rows after its inverse.  Complex
    inputs go through as their real and imaginary parts in the same batch.

    window: None, or a callable on distances such as annulus(r, s).
    """

    def __init__(self, kernel: KernelSpec, domain: LatticeDomain, window=None):
        if domain.d != kernel.d:
            raise ValueError(f"kernel is d={kernel.d}, domain is d={domain.d}")
        n, d = domain.n, domain.d
        axis = np.arange(1 - n, n) * domain.h
        z = np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(kernel.evaluator(z), dtype=float)
            if window is not None:
                vals = vals * window(np.sqrt(np.sum(z**2, axis=-1)))
        vals[~np.isfinite(vals)] = 0.0
        vals[(n - 1,) * d] = 0.0
        self._embed(domain, vals * domain.cell_volume)

    @classmethod
    def _from_stencil(cls, domain: LatticeDomain, stencil: np.ndarray) -> "Convolution":
        """The convolution with a given stencil, laid out as `stencil` above."""
        conv = cls.__new__(cls)
        conv._embed(domain, stencil)
        return conv

    def _embed(self, domain, stencil):
        n, d = domain.n, domain.d
        self.domain, self.stencil = domain, stencil
        support = np.argwhere(stencil)
        self.is_zero = not support.size
        self._reach = int(np.max(np.abs(support - (n - 1)), initial=0))
        self._side = 2 * n if self._reach == n - 1 else _smooth_length(n + self._reach)
        self._spectrum = self._spectrum_at(self._side)
        self._conj_spectrum = self._spectrum.conj()

    def _spectrum_at(self, side: int) -> np.ndarray:
        """rfftn of the stencil in a circulant of `side` >= n + w per axis."""
        n, d, w = self.domain.n, self.domain.d, self._reach
        axes = tuple(range(-d, 0))
        core = self.stencil[(slice(n - 1 - w, n + w),) * d]
        embedded = np.roll(np.pad(core, [(0, side - 2 * w - 1)] * d), (-w,) * d, axis=axes)
        return np.fft.rfftn(embedded, axes=axes)

    def _apply(self, x):
        return self._convolve(x, self._spectrum, self._side)

    def _adjoint(self, x):
        return self._convolve(x, self._conj_spectrum, self._side)

    def _convolve(self, x, spectrum, side):
        """Convolve each (..., N) row of x through the side-`side` circulant
        whose rfftn is `spectrum`; it may carry leading axes of its own,
        which broadcast against the trailing leading axes of x."""
        if np.iscomplexobj(x):
            parts = self._convolve(np.stack([x.real, x.imag]), spectrum, side)
            return parts[0] + 1j * parts[1]
        n, d = self.domain.n, self.domain.d
        freq = np.fft.rfft(x.reshape(x.shape[:-1] + self.domain.shape), side)
        for axis in range(-2, -d - 1, -1):
            freq = np.fft.fft(freq, side, axis=axis)
        freq = freq * spectrum
        for axis in range(-d, -1):  # each inverse keeps the n output rows of its axis
            freq = np.fft.ifft(freq, axis=axis)[(..., slice(0, n)) + (slice(None),) * (-1 - axis)]
        return np.fft.irfft(freq, side)[..., :n].reshape(x.shape)

    def block(self, rows, cols) -> np.ndarray:
        """Entries T[rows[i], cols[j]], read off the stencil."""
        r = np.unravel_index(rows, self.domain.shape)
        c = np.unravel_index(cols, self.domain.shape)
        shift = self.domain.n - 1
        return self.stencil[tuple(ri[:, None] - ci[None, :] + shift for ri, ci in zip(r, c))]


class Commutator(Operator):
    """[b, T] f = b Tf - T(bf), with adjoint T*(conj(b) g) - conj(b) T*g.

    The two products of one call pass through T as one batch.  A constant
    b, or a T that is zero by construction, makes the commutator zero by
    construction: it returns exact zeros, not the round-off of b Tf - T(bf).
    """

    def __init__(self, b: SampledFunction, base: Operator):
        if b.domain != base.domain:
            raise ValueError("domain mismatch")
        self.domain, self._base = base.domain, base
        self._b = b.values.reshape(-1)
        self._b_conj = np.conj(self._b)
        self.is_complex = base.is_complex or np.iscomplexobj(self._b)
        self.is_zero = base.is_zero or bool(np.all(self._b == self._b[0]))

    def _apply(self, x):
        if self.is_zero:
            return np.zeros(x.shape, np.result_type(x, self._b))
        t = self._base._apply(np.stack([x, self._b * x]))
        return self._b * t[0] - t[1]

    def _adjoint(self, x):
        if self.is_zero:
            return np.zeros(x.shape, np.result_type(x, self._b))
        t = self._base._adjoint(np.stack([x, self._b_conj * x]))
        return t[1] - self._b_conj * t[0]


# -- compact/residual splitting ------------------------------------------------


class SplitPart(Operator):
    """One side of the eps-split: compact chi W(chi f) when `base` is None,
    else the residual Tf - chi W(chi f), with W the annulus-windowed T.
    The residual sends f and chi f through one FFT pair, with the spectra
    of T and W in circulants of one side, the larger of their two.  (When
    chi is 1 on every cell, split returns the residual as one Convolution
    instead.)"""

    def __init__(self, chi: np.ndarray, windowed: Convolution, base: Optional[Convolution]):
        self.domain = windowed.domain
        self._chi, self._windowed = chi, windowed
        self.is_zero = base is None and (windowed.is_zero or not np.any(chi))
        if base is None:
            self._side, self._spectra = windowed._side, windowed._spectrum[None]
        else:
            side = self._side = max(base._side, windowed._side)
            self._spectra = np.stack([base._spectrum_at(side), windowed._spectrum_at(side)])
        self._conj_spectra = self._spectra.conj()

    def _apply(self, x):
        return self._run(x, self._spectra)

    def _adjoint(self, x):
        return self._run(x, self._conj_spectra)

    def _run(self, x, spectra):
        chi, side, conv = self._chi, self._side, self._windowed._convolve
        if len(spectra) == 1:
            return chi * conv(chi * x, spectra[0], side)
        lead = (1,) * (x.ndim - 1)
        both = conv(np.stack([x, chi * x]), spectra.reshape((2,) + lead + spectra.shape[1:]),
                    side)
        return both[0] - chi * both[1]


def _split_windows(domain: LatticeDomain, eps: float):
    """chi = phi(1/eps) at the midpoints and the outer window phi(10/eps)."""
    big_r = 1.0 / eps
    chi = phi(big_r).value(np.sqrt(np.sum(_midpoint_table(domain) ** 2, axis=-1)))
    return chi, phi(10.0 * big_r)


def split(kernel: KernelSpec, domain: LatticeDomain, eps: float):
    """The eps-split of T as two operators (compact, residual) summing to T.

    The compact part is chi T_W(chi f), with T_W the kernel windowed by
    the annulus phi(S) - phi(eps), S = 10/eps; the residual is
    Tf - chi T_W(chi f).  That residual equals the four complementary
    terms (chi T chi windowed by phi(eps), and the three with a factor
    1 - chi) exactly when the outer window phi(S) is 1 at every offset two
    cells of supp(chi) can have.  This is checked on the window over the
    bounding box of those offsets, and a failure raises NumericalError.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("need 0 < eps < 1")
    chi, outer = _split_windows(domain, eps)
    support = np.argwhere(chi.reshape(domain.shape) > 0.0)
    if support.size:
        reach = support.max(axis=0) - support.min(axis=0)
        offsets = np.meshgrid(*(np.arange(-k, k + 1) * domain.h for k in reach),
                              indexing="ij")
        window = outer.value(np.sqrt(sum(o**2 for o in offsets)))
        if not np.all(window == 1.0):
            raise NumericalError(
                f"splitting identity broke: outer window {float(np.min(window)):g} "
                f"< 1 across supp(chi)"
            )
    windowed = Convolution(kernel, domain, window=annulus(eps, 10.0 / eps))
    base = Convolution(kernel, domain)
    compact = SplitPart(chi, windowed, None)
    if np.all(chi == 1.0):
        # The residual is T - W, whose stencil vanishes beyond |o h| >= eps.
        return compact, Convolution._from_stencil(domain, base.stencil - windowed.stencil)
    return compact, SplitPart(chi, windowed, base)


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
    hard = Convolution(kernel, dom, window=lambda t: (t >= r).astype(float))
    soft = Convolution(kernel, dom, window=lambda t: 1.0 - smooth.value(t))
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


# -- dense reference backend ---------------------------------------------------
# The fast paths are tested against these; nothing in the package builds them.

# Dense assembly guard: n^(2d) matrix entries.
MAX_MATRIX_ENTRIES = 2**26


@dataclass
class OperatorMatrix(Operator):
    """Dense reference backend: the N x N matrix; immutable after assembly.
    A batch goes through as stacked matrix-vector products, which round as
    a lone row does (one matrix-matrix product would not)."""

    domain: LatticeDomain
    matrix: np.ndarray

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    def _apply(self, x):
        return np.matmul(self.matrix, x[..., None])[..., 0]

    def _adjoint(self, x):
        m = self.matrix.conj() if self.is_complex else self.matrix
        return np.matmul(m.T, x[..., None])[..., 0]

    def block(self, rows, cols) -> np.ndarray:
        """Entries A[rows[i], cols[j]]."""
        return self.matrix[np.ix_(rows, cols)]


def assemble(kernel: KernelSpec, domain: LatticeDomain, window=None) -> OperatorMatrix:
    """Dense matrix K(x_i - x_j) window(|x_i - x_j|) h^d, zero diagonal.

    window: None, or a callable on distances such as annulus(r, s).
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
            z = x - y
            vals = np.asarray(kernel.evaluator(z), dtype=float)
            if window is not None:
                vals = vals * window(np.sqrt(np.sum(z**2, axis=-1)))
        vals[~np.isfinite(vals)] = 0.0
        a[lo:hi] = vals
    np.fill_diagonal(a, 0.0)
    a *= domain.cell_volume
    return OperatorMatrix(domain, a)


def commutator_matrix(b: SampledFunction, op: OperatorMatrix) -> OperatorMatrix:
    """[b, T] as a dense matrix: entrywise (b(x_i) - b(x_j)) A[i, j]."""
    if b.domain != op.domain:
        raise ValueError("domain mismatch")
    bv = b.values.reshape(-1)
    return OperatorMatrix(op.domain, op.matrix * (bv[:, None] - bv[None, :]))
