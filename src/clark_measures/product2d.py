"""Clark measures of product functions Psi(z) = phi(z_1) psi(z_2).

The measure integrates f by an outer quadrature in one coordinate and, at
each node, the 1D Clark measure of the other factor at the rotated level
beta = alpha conj(outer factor boundary value).  Three evaluation paths:

* both factors Blaschke-type: batched companion-matrix fibers,
* exactly one atomic-singular factor: that factor is always taken as the
  fiber (its closed-form atom family is uniformly accurate), the Blaschke
  factor as the smooth outer coordinate,
* both atomic-singular: the outer circle is unrolled to the real line via
  x = c cot(theta/2), where the fiber atoms become translated Lorentzians;
  folding the line back to [0, 2pi) gives a smooth periodic integrand with
  closed-form wrapped-kernel truncation corrections and a Richardson step
  in the layer count.

The fiber geometry depends only on (P, alpha, grid, K), so each path builds
it once, as a fiber object.  A Blaschke fiber caches its companion-matrix
roots and weights.  A singular fiber keeps only per-level data: its levels,
the shifts 2 pi k and the truncation remainders (for the full and the half
window).  Its atoms and Lorentzian weights are formed from them one chunk
of rows at a time, in buffers made once per fiber, so no (2K+1) x N array
is held.  An integrand f_1(z_1) f_2(z_2) then costs one pass over the fiber
per factor, of f on that factor alone, and one weighted sum over the outer
nodes.  On a singular fiber the Poisson kernel and the monomials w^-m have
closed-form real passes (poisson_profile, moment_profiles); any other f
takes the generic pass, which the tests keep as their oracle.
product_clark_integrate builds a fiber per call; verify.product_integrator
and verify.product_fourier_rp_check build one and reuse it for every
point, every Fourier entry and the mass check.

Closed-form branch families are provided for the two classical examples
(exp x exp and Blaschke-pair x exp) and cross-checked against the generic
solver in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clark1d import (
    DEFAULT_TRUNCATION,
    UnsupportedFunctionError,
    _singular_tail_bound,
    clark_measure1d,
)
from .inner1d import (
    InnerFunction1D,
    Unimodular,
    _blaschke_phase,
    boundary_value,
    boundary_values_array,
    eval_inner,
)
from .torus_core import (
    TWO_PI,
    ClarkMeasure2D,
    CurveComponent,
    DiscreteMeasure1D,
    Graph,
    IntegralResult,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    max_undefined_nodes,
    pairwise_sum,
    poisson_kernel,
)

__all__ = [
    "ProductInner",
    "BranchFamily",
    "SkipNode",
    "BranchCollisionError",
    "product_map",
    "fiber_measure",
    "product_clark_integrate",
    "product_branch_family",
    "product_branch_measure",
    "expexp_branches",
    "blaschke_exp_branches",
    "branch_curves",
]

PRODUCT_TRUNCATION = 1000
_GENERAL_PATH_MAX_LAYERS = 128
# fiber entries evaluated per chunk of rows: bounds the per-point temporaries
_CHUNK_ELEMENTS = 1 << 16


class SkipNode(Exception):
    """Raised at outer nodes where the outer factor's boundary value is 0."""


class BranchCollisionError(ValueError):
    """Two closed-form branches collide (vanishing discriminant)."""


def _supported_factor(psi: InnerFunction1D) -> str:
    if psi.is_blaschke_type and psi.degree >= 1:
        return "blaschke"
    if psi.degree == 0 and len(psi.singular_atoms) == 1:
        return "singular"
    raise UnsupportedFunctionError(
        "factor must be Blaschke-type of degree >= 1 or a single singular atom"
    )


@dataclass(frozen=True)
class ProductInner:
    """Product inner function phi(z_1) psi(z_2) with discrete fiber measures."""

    phi: InnerFunction1D
    psi: InnerFunction1D

    def __post_init__(self):
        _supported_factor(self.psi)

    def kinds(self):
        return _supported_factor(self.phi), _supported_factor(self.psi)

    def to_json_dict(self) -> dict:
        return {"phi": self.phi.to_json_dict(), "psi": self.psi.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProductInner":
        if not isinstance(data, dict):
            raise ValueError("product spec must be a JSON object")
        if set(data) != {"phi", "psi"}:
            raise ValueError("product spec must have exactly the keys 'phi' and 'psi'")
        return cls(
            phi=InnerFunction1D.from_json_dict(data["phi"]),
            psi=InnerFunction1D.from_json_dict(data["psi"]),
        )


@dataclass(frozen=True)
class BranchFamily:
    """Closed-form or solver-backed branch parameterization of the level set.

    branches holds (g, W) pairs of vectorized rules of the outer coordinate;
    index_range is the (k_min, k_max) window for Z-indexed families.
    """

    kind: str
    branches: tuple
    index_range: tuple = None
    tail_bound: float = 0.0


def product_map(P: ProductInner):
    """The evaluable rule (z_1, z_2) -> phi(z_1) psi(z_2)."""

    def rule(z) -> complex:
        z1, z2 = z
        return eval_inner(P.phi, z1) * eval_inner(P.psi, z2)

    return rule


def fiber_measure(
    P: ProductInner,
    zeta1: TorusPoint,
    alpha: UnimodularConstant,
    K: int = None,
) -> DiscreteMeasure1D:
    """1D Clark measure of psi at the level alpha conj(phi*(zeta1))."""
    bv = boundary_value(P.phi, zeta1)
    if not isinstance(bv, Unimodular):
        raise SkipNode(f"phi* vanishes at angle {zeta1.theta!r}")
    beta = UnimodularConstant.from_complex(alpha.alpha * bv.value.conjugate())
    return clark_measure1d(P.psi, beta, DEFAULT_TRUNCATION if K is None else K)


# ---------------------------------------------------------------------------
# closed-form branch families


def expexp_branches(nu: float, k: int):
    """Level-set branch of exp(-(1+z1)/(1-z1)) exp(-(1+z2)/(1-z2)) at e^{i nu}.

    Returns (g, W): z_2 = g(zeta) solves psi*(z_2) = e^{i nu} conj(phi*(zeta))
    on the k-th sheet, and W is the fiber weight 1/|psi'(g)|.  Both rules are
    vectorized over unimodular arrays and satisfy g(1) = 1, W(1) = 0.
    """
    s = float(nu) + TWO_PI * int(k)

    def g(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        a = s * (zeta - 1.0)
        return (a + 2j) / (a + 2j * zeta)

    def W(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        a = s * (zeta - 1.0)
        return 2.0 * np.abs(zeta - 1.0) ** 2 / np.abs(a + 2j * zeta) ** 2

    return g, W


def _blaschke_pair_roots(beta, lam: complex):
    """Roots of z^2 - (lam + beta conj(lam)) z + beta = 0, vectorized."""
    beta = np.asarray(beta, dtype=complex)
    b = lam + beta * np.conj(lam)
    disc = b * b - 4.0 * beta
    bad = np.abs(disc) <= 1e-12
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise BranchCollisionError(f"discriminant vanishes at sample index {idx}")
    root = np.sqrt(disc)
    return 0.5 * (b + root), 0.5 * (b - root)


def _blaschke_pair_weight(g, lam: complex):
    # 1/|psi'| for psi(z) = z (lam - z)/(1 - conj(lam) z)
    g = np.asarray(g, dtype=complex)
    return np.abs(1.0 - np.conj(lam) * g) ** 2 / np.abs(
        np.conj(lam) * g * g - 2.0 * g + lam
    )


def blaschke_exp_branches(lam, nu: float):
    """Two level-set branches of exp(-(1+z1)/(1-z1)) * [z2 (lam-z2)/(1-conj(lam) z2)].

    Solving psi*(z_2) = beta(zeta) with beta = e^{i x}, x = nu + cot(theta/2),
    is a quadratic.  Its two roots lie on the sheets k = (L(arg z_2) - x)/(2 pi)
    of the closed-form phase lift L of psi*, which gains 4 pi per turn, so
    k mod 2 labels each root at its own point, and each branch is the
    analytic continuation of one sheet along (0, 2 pi).  Rules return NaN at
    zeta = 1 (the level set's accumulation line).
    """
    lam = lam.value if hasattr(lam, "value") else complex(lam)
    if abs(lam) >= 1:
        raise ValueError("Blaschke parameter must lie inside the disc")
    nu = float(nu)
    psi = InnerFunction1D(monomial_power=1, blaschke_zeros=(lam,))

    def _sheets(zeta):
        zeta = np.asarray(zeta, dtype=complex)
        roots = np.full((2,) + zeta.shape, np.nan + 0j)
        ok = np.abs(zeta - 1.0) >= 1e-12
        x = nu + 1.0 / np.tan(0.5 * np.angle(zeta[ok]))
        pair = np.stack(_blaschke_pair_roots(np.exp(1j * x), lam))
        odd = np.round((_blaschke_phase(psi, np.angle(pair[0])) - x) / TWO_PI) % 2 == 1
        roots[:, ok] = np.where(odd, pair[::-1], pair)
        return roots

    def _branch(which):
        def g(zeta):
            return _sheets(zeta)[which]

        def W(zeta):
            with np.errstate(invalid="ignore"):
                return _blaschke_pair_weight(_sheets(zeta)[which], lam)

        return g, W

    return _branch(0), _branch(1)


def branch_curves(
    P: ProductInner,
    alpha: UnimodularConstant,
    thetas: np.ndarray,
    K: int = 20,
):
    """Sampled level-set branches for plotting: (label, z2 values, weights).

    Where product_branch_family has a closed form, its branches are
    sampled; otherwise each node's fiber atoms are sorted by angle and
    stitched by index.
    """
    thetas = np.asarray(thetas, dtype=float)
    try:
        family = product_branch_family(P, alpha, K)
    except UnsupportedFunctionError:
        pass
    else:
        zeta = np.exp(1j * thetas)
        return [(f"branch{b}", g(zeta), W(zeta)) for b, (g, W) in enumerate(family.branches)]
    n_branches = None
    values, weights = [], []
    for theta in thetas:
        try:
            mu = fiber_measure(P, TorusPoint(float(theta)), alpha, K=K)
        except SkipNode:
            values.append(None)
            weights.append(None)
            continue
        atoms = sorted(mu.atoms, key=lambda zw: zw[0].theta)
        values.append(np.array([z.value for z, _ in atoms]))
        weights.append(np.array([w for _, w in atoms]))
        n_branches = len(atoms) if n_branches is None else n_branches
    curves = []
    for b in range(n_branches or 0):
        zs = np.array([np.nan + 0j if v is None or len(v) <= b else v[b] for v in values])
        ws = np.array([np.nan if w is None or len(w) <= b else w[b] for w in weights])
        curves.append((f"branch{b}", zs, ws))
    return curves


def product_branch_family(
    P: ProductInner,
    alpha: UnimodularConstant,
    K: int = 50,
) -> BranchFamily:
    """Closed-form branch family of the level set, where one is known."""
    kinds = P.kinds()
    if kinds == ("singular", "singular") and _is_standard_exp(P.phi) and _is_standard_exp(P.psi):
        branches = tuple(expexp_branches(alpha.nu, k) for k in range(-K, K + 1))
        return BranchFamily(kind="exp_exp", branches=branches, index_range=(-K, K))
    if kinds == ("singular", "blaschke") and _is_standard_exp(P.phi) and _is_blaschke_pair(P.psi):
        lam = P.psi.blaschke_zeros[0].value
        return BranchFamily(
            kind="blaschke_exp", branches=tuple(blaschke_exp_branches(lam, alpha.nu))
        )
    raise UnsupportedFunctionError("no closed-form branch family for this product")


def product_branch_measure(
    P: ProductInner,
    alpha: UnimodularConstant,
    K: int = 50,
) -> ClarkMeasure2D:
    """The branch family as a graph-component measure.

    For the Z-indexed exp x exp family the mass of branch k is
    4/((nu + 2 pi k)^2 + 4), the c = 2 Lorentzian family, so the dropped
    branches carry the same closed-form tail bound as a truncated atom list.
    """
    family = product_branch_family(P, alpha, K)
    curves = tuple(CurveComponent(Graph(g), W) for g, W in family.branches)
    tail = 0.0
    if family.index_range is not None:
        K = family.index_range[1]
        if K < 2:
            raise ValueError("Z-indexed branch family needs K >= 2")
        tail = _singular_tail_bound(2.0, K)
    return ClarkMeasure2D(curves=curves, tail_bound=tail)


def _is_standard_exp(phi: InnerFunction1D) -> bool:
    return (
        phi.degree == 0
        and len(phi.singular_atoms) == 1
        and phi.singular_atoms[0][0].theta == 0.0
        and abs(phi.singular_atoms[0][1] - 1.0) < 1e-15
        and abs(phi.unimodular_factor.nu) < 1e-15
    )


def _is_blaschke_pair(psi: InnerFunction1D) -> bool:
    return (
        psi.is_blaschke_type
        and psi.monomial_power == 1
        and len(psi.blaschke_zeros) == 1
        and abs(psi.unimodular_factor.nu) < 1e-15
    )


# ---------------------------------------------------------------------------
# integration paths


def _exp_params(phi: InnerFunction1D):
    xi, c = phi.singular_atoms[0]
    return phi.unimodular_factor.nu, c, xi


def _lorentz(c: float, u: np.ndarray) -> np.ndarray:
    return 2.0 * c / (c * c + u * u)


def _wrapped_lorentz(c: float, s: np.ndarray) -> np.ndarray:
    # sum_m 2c/(c^2 + (s+2 pi m)^2) = sinh(c)/(cosh(c) - cos(s))
    return math.sinh(c) / (math.cosh(c) - np.cos(s))


def _exp_point(xi_value: complex, c: float, y: np.ndarray) -> np.ndarray:
    # xi e^{i Delta} with cot(Delta/2) = y/c
    return xi_value * (y + 1j * c) / (y - 1j * c)


def _blaschke_fiber_atoms(psi: InnerFunction1D, beta: np.ndarray):
    """Fiber atoms of a Blaschke-type psi at levels beta, batched over nodes.

    Solves e^{ia} z^k prod(a_j - z) = beta prod(1 - conj(a_j) z) per node via
    companion-matrix eigenvalues.  Returns (roots, weights) of shape (n, N).
    """
    n = psi.degree
    p1 = np.array([psi.unimodular_factor.alpha])
    for a in psi.blaschke_zeros:
        p1 = np.polymul(p1, np.array([-1.0, a.value]))
    p1 = np.concatenate([p1, np.zeros(psi.monomial_power, dtype=complex)])
    p2 = np.array([1.0 + 0j])
    for a in psi.blaschke_zeros:
        p2 = np.polymul(p2, np.array([-a.value.conjugate(), 1.0]))
    size = n + 1
    c1 = np.zeros(size, dtype=complex)
    c2 = np.zeros(size, dtype=complex)
    c1[size - len(p1):] = p1
    c2[size - len(p2):] = p2
    coeffs = c1[None, :] - beta[:, None] * c2[None, :]
    monic = coeffs[:, 1:] / coeffs[:, :1]
    companion = np.zeros((len(beta), n, n), dtype=complex)
    if n > 1:
        idx = np.arange(n - 1)
        companion[:, idx + 1, idx] = 1.0
    companion[:, :, -1] = -monic[:, ::-1]
    roots = np.linalg.eigvals(companion).T
    slope = np.full(roots.shape, float(psi.monomial_power))
    for a in psi.blaschke_zeros:
        aj = a.value
        slope += (1.0 - abs(aj) ** 2) / np.abs(roots - aj) ** 2
    return roots, 1.0 / slope


def _row_chunks(K: int, n: int):
    """Row slices of the window |k| <= K over n levels, flagged when inside
    the half window |k| <= K // 2.

    A chunk holds at most _CHUNK_ELEMENTS entries and never straddles an
    edge of the half window, so one pass gives both window sums.
    """
    step = max(1, _CHUNK_ELEMENTS // n)
    edges = (0, K - K // 2, K + K // 2 + 1, 2 * K + 1)
    return [
        (slice(a, min(a + step, hi)), lo == edges[1])
        for lo, hi in zip(edges, edges[1:])
        for a in range(lo, hi, step)
    ]


class _LorentzFiber:
    """Atoms of a single-atom singular factor at a row of levels, |k| <= K.

    At level angle base_j the atoms sit at eta_kj = xi (y + ic)/(y - ic) with
    weights lor_kj = 2c/(c^2 + y^2), y = base_j + 2 pi k.  The omitted weight
    wrapped(base_j) - sum_k lor_kj, for the full and for the half window, is
    put at xi, where the omitted atoms accumulate.  Only per-level data is
    kept: base, the shifts 2 pi k and the two remainders.  Each pass forms y
    one chunk of rows at a time in buffers made once per fiber, so no
    (2K+1) x N array is held and the closed-form passes (poisson_sums,
    moment_sums) allocate nothing chunk-sized; sums() is the generic pass.
    Since every pass writes those buffers, one fiber serves one thread.
    """

    def __init__(self, base: np.ndarray, c: float, xi: complex, K: int):
        self.base, self.c, self.xi = base, c, xi
        self.shifts = TWO_PI * np.arange(-K, K + 1)
        self.chunks = _row_chunks(K, len(base))
        shape = (max(rows.stop - rows.start for rows, _ in self.chunks), len(base))
        self._y = np.empty(shape)
        self._sigma = np.empty(shape, dtype=complex)
        self._term = np.empty(shape, dtype=complex)
        wrapped = _wrapped_lorentz(c, base)
        full, half = self._window_sums(lambda rows: _lorentz(c, self._levels(rows, base)))
        self.rem_full = wrapped - full
        self.rem_half = wrapped - half

    def _levels(self, rows, base):
        y = self._y[: rows.stop - rows.start]
        return np.add(base, self.shifts[rows, None], out=y)

    def _window_sums(self, term):
        inside = outside = 0.0
        for rows, is_inside in self.chunks:
            part = pairwise_sum(term(rows), axis=0)
            if is_inside:
                inside = inside + part
            else:
                outside = outside + part
        return inside + outside, inside

    def _stream(self, terms, base, count, dtype):
        """Full- and half-window sums of the count blocks terms(y) yields per
        chunk of levels y = base + 2 pi k, each block summed over its rows."""
        inside = np.zeros((count, len(base)), dtype=dtype)
        outside = np.zeros_like(inside)
        part = np.empty(len(base), dtype=dtype)
        for rows, is_inside in self.chunks:
            acc = inside if is_inside else outside
            for j, block in enumerate(terms(self._levels(rows, base))):
                np.add.reduce(block, axis=0, out=part)
                acc[j] += part
        return inside + outside, inside

    def sums(self, f):
        """Full- and half-window sums sum_k lor_k f(eta_k) + rem f(xi) per level.

        f maps a block of fiber points to values, and it is evaluated one
        chunk of rows at a time.  A level where f is not finite at some atom
        gets a non-finite sum.
        """
        c, xi = self.c, self.xi

        def term(rows):
            y = self._levels(rows, self.base)
            return _lorentz(c, y) * f(_exp_point(xi, c, y))

        with np.errstate(all="ignore"):
            corner = f(np.full((1, len(self.base)), xi))[0]
            full, half = self._window_sums(term)
            return full + self.rem_full * corner, half + self.rem_half * corner

    def poisson_sums(self, z: complex):
        """sums(P_z) in closed form: lor P_z(eta) = 2q/((y - p)^2 + q^2).

        |(xi - z) y + ic(xi + z)|^2 = |xi - z|^2 ((y - p)^2 + q^2) with
        p - iq = -ic(xi + z)/(xi - z), so q = c (1 - |z|^2)/|xi - z|^2 > 0
        and each term is one shifted Lorentzian in y, formed in place with
        no complex eta and no cancellation.
        """
        xi = self.xi
        d2 = abs(xi - z) ** 2
        p = 2.0 * self.c * (z * xi.conjugate()).imag / d2
        q = self.c * (1.0 - abs(z) ** 2) / d2

        def terms(u):
            np.square(u, out=u)
            np.add(u, q * q, out=u)
            yield np.divide(2.0 * q, u, out=u)

        full, half = self._stream(terms, self.base - p, 1, float)
        corner = poisson_kernel(z, xi)
        return full[0] + self.rem_full * corner, half[0] + self.rem_half * corner

    def moment_sums(self, kmax: int):
        """{m: sums(lambda w: w ** -m)} for m = +-1..+-kmax, in one pass.

        sigma = eta conj(xi) = (1 - c lor) + i y lor, so the profile of w^m
        is xi^m (sum_k lor sigma^m + rem): per chunk the term lor is
        multiplied by sigma kmax times and each power summed.  lor and rem
        are real, so the profile of w^-m is its conjugate.
        """
        c, sigma, term = self.c, self._sigma, self._term

        def terms(y):
            s, t = sigma[: len(y)], term[: len(y)]
            lor = t.real
            np.square(y, out=lor)
            np.add(lor, c * c, out=lor)
            np.divide(2.0 * c, lor, out=lor)
            t.imag[...] = 0.0
            np.multiply(lor, -c, out=s.real)
            np.add(s.real, 1.0, out=s.real)
            np.multiply(y, lor, out=s.imag)
            for _ in range(kmax):
                yield np.multiply(t, s, out=t)

        full, half = self._stream(terms, self.base, kmax, complex)
        profiles = {}
        for m in range(1, kmax + 1):
            corner = self.xi ** m
            profiles[-m] = (corner * (full[m - 1] + self.rem_full),
                            corner * (half[m - 1] + self.rem_half))
            profiles[m] = tuple(np.conj(v) for v in profiles[-m])
        return profiles


class _FiberProfiles:
    """Per-point profiles of a fiber quadrature: closed form on a Lorentzian
    side, the generic profile(axis, f) on any other.  A subclass names its
    Lorentzian side of an axis, or None, by _lorentz_side(axis)."""

    def poisson_profile(self, axis, z: complex):
        """profile(axis, P_z)."""
        side = self._lorentz_side(axis)
        if side is None:
            return self.profile(axis, lambda w: poisson_kernel(z, w))
        return side.poisson_sums(z)

    def moment_profiles(self, axis, kmax: int):
        """{m: profile(axis, lambda w: w ** -m)} for m = +-1..+-kmax."""
        side = self._lorentz_side(axis)
        if side is None:
            return {m: self.profile(axis, lambda w, m=m: w ** (-m))
                    for m in range(-kmax, kmax + 1) if m}
        return side.moment_sums(kmax)


class _OuterFiber(_FiberProfiles):
    """Outer quadrature on the grid of the Blaschke factor, with the fibers
    of the other factor at the levels beta = alpha conj(outer boundary value).

    With one singular factor, that factor supplies the fibers, as a
    _LorentzFiber; otherwise psi does, through its companion-matrix roots
    and weights, which are cached.  fiber_sums(f) gives the full and
    half-window fiber sums of f per node, half None for the untruncated
    Blaschke fibers.
    """

    def __init__(self, P: ProductInner, alpha: UnimodularConstant, grid: QuadratureGrid, K: int):
        kinds = P.kinds()
        self.fiber_axis = 0 if kinds == ("singular", "blaschke") else 1
        outer, inner = (P.psi, P.phi) if self.fiber_axis == 0 else (P.phi, P.psi)
        thetas = grid.thetas()
        self.zeta = np.exp(1j * thetas)
        beta = alpha.alpha * np.conj(boundary_values_array(outer, thetas))
        self.lorentz = None
        if "singular" in kinds:
            a, c, xi = _exp_params(inner)
            self.lorentz = _LorentzFiber(a - np.angle(beta), c, xi.value, K)
            self.fiber_sums = self.lorentz.sums
        else:
            roots, weights = _blaschke_fiber_atoms(inner, beta)
            self.fiber_sums = lambda f: (pairwise_sum(f(roots) * weights, axis=0), None)

    def _lorentz_side(self, axis):
        return self.lorentz if axis == self.fiber_axis else None

    def profile(self, axis, f):
        if axis == self.fiber_axis:
            return self.fiber_sums(f)
        with np.errstate(all="ignore"):
            return f(self.zeta)

    def combine(self, p0, p1) -> IntegralResult:
        outer, (full, half) = (p1, p0) if self.fiber_axis == 0 else (p0, p1)
        with np.errstate(all="ignore"):
            return self._outer_sum(outer * full, None if half is None else outer * half)

    def integrate(self, f) -> IntegralResult:
        """Integrate a general f(z_1, z_2), evaluated on the fibers of each node."""
        z = self.zeta[None, :]
        g = (lambda w: f(w, z)) if self.fiber_axis == 0 else (lambda w: f(z, w))
        with np.errstate(all="ignore"):
            return self._outer_sum(*self.fiber_sums(g))

    def _outer_sum(self, full, half) -> IntegralResult:
        if half is None:
            node_sums = full
        else:
            # per-node Richardson step in the truncation order (residual ~ 1/K^2)
            node_sums = full + (full - half) / 3.0
        n = len(node_sums)
        allowance = max_undefined_nodes(n)
        good = np.isfinite(node_sums)
        n_bad = n - int(good.sum())
        if n_bad > allowance:
            raise UnsupportedFunctionError(
                f"{n_bad} skipped outer nodes exceed the allowance {allowance}"
            )
        dropped_bound = 0.0
        if half is not None:
            dropped_bound = float(np.mean(np.abs(full - half)[good])) / 3.0
        clean = np.where(good, node_sums, 0.0)
        value = complex(pairwise_sum(clean) / max(int(good.sum()), 1))
        half_grid = complex(pairwise_sum(clean[::2]) / max(int(good[::2].sum()), 1))
        return IntegralResult(value=value, error_bound=abs(value - half_grid) + dropped_bound)


def _folded_mean(full, half) -> IntegralResult:
    """Richardson-extrapolated mean of the full- and half-window sums over the
    folded s grid; the bound adds its grid-halving change and the step."""
    n_s = len(full)
    i_full = complex(pairwise_sum(full) / n_s)
    i_half = complex(pairwise_sum(half) / n_s)
    value = i_full + (i_full - i_half) / 3.0
    evens = complex(pairwise_sum(full[::2]) / (n_s // 2))
    evens_r = evens + (evens - complex(pairwise_sum(half[::2]) / (n_s // 2))) / 3.0
    error = abs(value - evens_r) + abs(i_full - i_half) / 3.0
    return IntegralResult(value=value, error_bound=error)


class _ExpExpFiber(_FiberProfiles):
    """Both factors single-atom singular.

    The outer circle is unrolled to the line and folded back onto the s
    grid; the integral is the mean over s of the product of two Lorentzian
    profiles, of f_1 at levels s and of f_2 at levels d0 - s.
    """

    def __init__(self, P, alpha, grid, K):
        self.problem = (P, alpha, grid, K)

    @cached_property
    def sides(self):
        # built on first use: a general integrand takes the nested path
        P, alpha, grid, K = self.problem
        a1, c1, xi1 = _exp_params(P.phi)
        a2, c2, xi2 = _exp_params(P.psi)
        n_s = max(1024, grid.n_nodes // 4)
        s = TWO_PI * np.arange(n_s) / n_s
        d0 = (a2 + a1 - alpha.nu) % TWO_PI
        return _LorentzFiber(s, c1, xi1.value, K), _LorentzFiber(d0 - s, c2, xi2.value, K)

    def _lorentz_side(self, axis):
        return self.sides[axis]

    def profile(self, axis, f):
        return self.sides[axis].sums(f)

    def combine(self, q, p) -> IntegralResult:
        (q_full, q_half), (p_full, p_half) = q, p
        return _folded_mean(q_full * p_full, q_half * p_half)

    def integrate(self, f) -> IntegralResult:
        """A general f(z_1, z_2) takes the nested layer sum instead."""
        P, alpha, grid, K = self.problem
        return _integrate_expexp_general(P, alpha, f, grid, K)


def _product_fiber(P: ProductInner, alpha: UnimodularConstant, grid: QuadratureGrid, K: int):
    """The fiber quadrature of P at alpha on grid, truncated at |k| <= K.

    fiber.profile(axis, f) is the part of the integral of f_1(z_1) f_2(z_2)
    that depends on f_axis alone, and fiber.combine(p0, p1) joins the two
    profiles into an IntegralResult, so a caller with many integrands of
    one factor computes that factor's profile once.  fiber.integrate(f)
    takes a general f(z_1, z_2).
    """
    if not isinstance(K, int) or K < 1:
        raise ValueError("truncation order K must be an integer >= 1")
    if P.kinds() == ("singular", "singular"):
        return _ExpExpFiber(P, alpha, grid, K)
    return _OuterFiber(P, alpha, grid, K)


def _integrate_expexp_general(P, alpha, f, grid, K):
    a1, c1, xi1 = _exp_params(P.phi)
    a2, c2, xi2 = _exp_params(P.psi)
    layers = min(K, _GENERAL_PATH_MAX_LAYERS)
    n_s = min(grid.n_nodes, 1024)
    s = TWO_PI * np.arange(n_s) / n_s
    d0 = (a2 + a1 - alpha.nu) % TWO_PI
    u0 = d0 - s
    ls = np.arange(-layers, layers + 1)
    y = u0[None, :] + TWO_PI * ls[:, None]
    lor2 = _lorentz(c2, y)
    eta = _exp_point(xi2.value, c2, y)
    w2 = _wrapped_lorentz(c2, u0)
    r2 = w2 - lor2.sum(axis=0)
    half_mask = np.abs(ls) <= layers // 2

    def fiber_sums(z1_row):
        # sum over fiber layers at fixed outer points z1_row (s-indexed)
        with np.errstate(all="ignore"):
            fv = np.asarray(f(np.broadcast_to(z1_row, eta.shape), eta), dtype=complex)
            corner = np.asarray(f(z1_row, np.full(n_s, xi2.value)), dtype=complex)
        full = (lor2 * fv).sum(axis=0) + r2 * corner
        half = (lor2[half_mask] * fv[half_mask]).sum(axis=0) \
            + (w2 - lor2[half_mask].sum(axis=0)) * corner
        return full, half

    total_full = np.zeros(n_s, dtype=complex)
    total_half = np.zeros(n_s, dtype=complex)
    kern1_full = np.zeros(n_s)
    kern1_half = np.zeros(n_s)
    for mval in range(-layers, layers + 1):
        x = s + TWO_PI * mval
        lor1 = _lorentz(c1, x)
        z1_row = _exp_point(xi1.value, c1, x)
        full, half = fiber_sums(z1_row)
        total_full += lor1 * full
        kern1_full += lor1
        if abs(mval) <= layers // 2:
            total_half += lor1 * half
            kern1_half += lor1
    w1 = _wrapped_lorentz(c1, s)
    corner_full, corner_half = fiber_sums(np.full(n_s, xi1.value))
    total_full += (w1 - kern1_full) * corner_full
    total_half += (w1 - kern1_half) * corner_half
    return _folded_mean(total_full, total_half)


def product_clark_integrate(
    P: ProductInner,
    alpha: UnimodularConstant,
    f,
    grid: QuadratureGrid,
    K: int = PRODUCT_TRUNCATION,
    f_split=None,
) -> IntegralResult:
    """Integrate f over the Clark measure of phi(z_1) psi(z_2).

    f(z_1, z_2) must accept broadcastable complex arrays.  When f factors as
    f(z_1, z_2) = f_split[0](z_1) * f_split[1](z_2), passing the pair lets
    each fiber sum run over one factor alone, and it selects the fast
    separable path for two singular factors (f is then unused).  Each call
    builds the fiber geometry afresh; verify.product_integrator builds it
    once for many points.
    """
    fiber = _product_fiber(P, alpha, grid, K)
    if f_split is not None:
        return fiber.combine(fiber.profile(0, f_split[0]), fiber.profile(1, f_split[1]))
    return fiber.integrate(f)
