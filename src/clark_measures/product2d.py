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
window).  Its generic pass forms the atoms and Lorentzian weights one chunk
of rows at a time, in a buffer made once per fiber, so no (2K+1) x N array
is held.  An integrand f_1(z_1) f_2(z_2) then costs one pass over the fiber
per factor, of f on that factor alone, and one weighted sum over the outer
nodes.  On a singular fiber the Poisson kernel and the monomials w^-m have
closed-form passes (poisson_profile, moment_profiles); any other f takes
the generic pass, which the tests keep as their oracle.

A closed-form pass sums the same window |k| <= K by a near/far split.  Each
term is a rational function of the level with its poles at distance |a_k|
from the centre of the level range.  The near rows, those with |a_k| under
eight half-widths of the range, are summed directly.  The far rows' sum is
analytic over the range, so it is one Taylor expansion about its centre.
Its coefficients are power sums of the a_k, and its order M is the least
that makes every far ratio (half-width/|a_k|)^M at most 2^-64.  A point then
costs O((near rows + M) N + K M) instead of O(K N).  The expansion's proven
remainder travels with the sums, and combine adds it to the reported bound.
Summing over all k in closed form instead would be the fiber factor's
Herglotz identity, the very identity the Poisson check tests, so it stays a
test oracle.

Every outer or folded node mean goes through torus_core.periodic_means: a
node whose sum is undefined (f not finite on its fiber) counts as 0, and
more such nodes than it allows raise QuadratureError.

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
    _one_minus_abs2,
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
    pairwise_sum,
    periodic_means,
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
# a closed-form fiber pass expands the rows whose poles lie at least this
# many half-widths of the level range from its centre
_NEAR_WIDTHS = 8.0


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
        slope += _one_minus_abs2(aj) / np.abs(roots - aj) ** 2
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


def _horner(coef, x):
    """sum_n coef[i, n] x^n at every x, for each row i of coef."""
    out = np.empty((len(coef), len(x)), dtype=coef.dtype)
    out[...] = coef[:, -1:]
    for n in range(coef.shape[1] - 2, -1, -1):
        out *= x
        out += coef[:, n : n + 1]
    return out


def _far_series(a, far, half, R: float, M: int, orders: int):
    """Power sums and remainder bounds of the Taylor expansion about x = 0 of
    the far rows' sums sum_k (x + a_k)^-p, p = 1 .. orders.

    Over the rows k with far[k], and for |x| <= R < |a_k|,

        sum_k (x + a_k)^-p = sum_n (-1)^n C(p+n-1, n) S_{p+n} x^n,

    S_r = sum_k a_k^-r, and the terms from n = M on add up to at most
    C(p+M-1, M) sum_k (R/|a_k|)^M / (|a_k| - R)^p, since
    sum_{n>=M} C(p+n-1, n) r^n <= C(p+M-1, M) r^M (1 - r)^-p.  Returns the
    S_r for r = 1 .. M + orders - 1, a row over all far rows and a row over
    those in the slice half, and the bounds for p = 1 .. orders.  Each sum
    runs the powers of one vector, so no orders x rows table is made.
    """
    inv = np.where(far, 1.0 / a, 0.0)
    sums = np.empty((2, M + orders - 1), dtype=complex)
    power = inv.copy()
    for r in range(sums.shape[1]):
        sums[0, r] = power.sum()
        sums[1, r] = power[half].sum()
        power *= inv
    dist = np.abs(a)
    gap = np.divide(1.0, dist - R, out=np.zeros_like(dist), where=far)
    tail = np.where(far, R / dist, 0.0) ** M * gap
    bounds = np.empty(orders)
    for p in range(1, orders + 1):
        bounds[p - 1] = math.comb(p + M - 1, M) * tail.sum()
        tail *= gap
    return sums, bounds


def _series_coef(sums, p: int, M: int):
    """Coefficients of x^n, n < M, in sum_k (x + a_k)^-p from the power sums
    S_r = sums[..., r - 1] of _far_series."""
    signed = [(-1) ** n * math.comb(p - 1 + n, n) for n in range(M)]
    return np.array(signed, dtype=float) * sums[..., p - 1 : p - 1 + M]


class _LorentzFiber:
    """Atoms of a single-atom singular factor at a row of levels, |k| <= K.

    At level angle base_j the atoms sit at eta_kj = xi (y + ic)/(y - ic) with
    weights lor_kj = 2c/(c^2 + y^2), y = base_j + 2 pi k.  The omitted weight
    wrapped(base_j) - sum_k lor_kj, for the full and for the half window, is
    put at xi, where the omitted atoms accumulate.  Only per-level data is
    kept: base, the shifts 2 pi k and the two remainders.  The generic pass
    sums() forms y one chunk of rows at a time in a buffer made once per
    fiber, so no (2K+1) x N array is held.

    The closed-form passes (poisson_sums, moment_sums) sum the same truncated
    window, split in two by _far_field.  The few near rows, whose poles lie
    close to the level range, are summed directly.  The far rows' sum is
    analytic in the level, so it is one Taylor expansion about the centre of
    the level range, with coefficients from power sums over the window, and
    its proven remainder is returned with the sums.  This is not the all-k
    closed form of the fiber (its Herglotz identity, which the tests keep as
    an oracle): the window and its remainders are those of sums().
    Since every pass writes the buffer, one fiber serves one thread.
    """

    def __init__(self, base: np.ndarray, c: float, xi: complex, K: int):
        self.base, self.c, self.xi = base, c, xi
        self.shifts = TWO_PI * np.arange(-K, K + 1)
        self.chunks = _row_chunks(K, len(base))
        shape = (max(rows.stop - rows.start for rows, _ in self.chunks), len(base))
        self._y = np.empty(shape)
        wrapped = _wrapped_lorentz(c, base)

        def lor(rows):
            # _lorentz(c, y) in place, so a build allocates nothing chunk-sized
            y = self._levels(rows, base)
            np.multiply(y, y, out=y)
            np.add(c * c, y, out=y)
            return np.divide(2.0 * c, y, out=y)

        full, half = self._window_sums(lor)
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

    def _far_field(self, levels, im, reach, orders):
        """Near/far split of the window for terms in powers of 1/(y - i im).

        With u_c the centre and R the half-width of the range of levels,
        x = levels - u_c and a_k = u_c + 2 pi k - i im, so y - i im is
        x + a_k.  A row is near when |a_k| < max(8R, R + reach).  On the far
        rows R/|a_k| <= 1/8, and M is the least order with (R/|a_k|)^M <=
        2^-64 on all of them; _far_series expands them to that order.
        Returns x, the near rows as (rows, is_inside) chunks, M, and the power
        sums and remainder bounds of _far_series.
        """
        lo, hi = float(np.min(levels)), float(np.max(levels))
        centre, R = 0.5 * (lo + hi), 0.5 * (hi - lo)
        a = centre + self.shifts - 1j * im
        dist = np.abs(a)
        far = dist >= max(_NEAR_WIDTHS * R, R + reach)
        near = np.flatnonzero(~far)
        rows = slice(near[0], near[-1] + 1) if near.size else slice(0, 0)
        chunks = [(slice(max(r.start, rows.start), min(r.stop, rows.stop)), inside)
                  for r, inside in self.chunks if r.start < rows.stop and rows.start < r.stop]
        worst = R / float(dist[far].min()) if far.any() else 0.0
        M = 1 if worst == 0.0 else math.ceil(64 * math.log(2) / -math.log(worst))
        K = len(a) // 2
        sums, bounds = _far_series(a, far, slice(K - K // 2, K + K // 2 + 1), R, M, orders)
        return levels - centre, chunks, M, sums, bounds

    def poisson_sums(self, z: complex):
        """sums(P_z) in closed form, with the bound of its far-field remainder.

        lor P_z(eta) = 2q/((y - p)^2 + q^2): |(xi - z) y + ic(xi + z)|^2 =
        |xi - z|^2 ((y - p)^2 + q^2) with p - iq = -ic(xi + z)/(xi - z), so
        q = c (1 - |z|^2)/|xi - z|^2 > 0 and each term is one shifted
        Lorentzian in u = y - p, 2 Im 1/(u - iq).  Near rows are formed in
        place with no complex eta and no cancellation; the far rows' sum is
        2 Im of the expansion of sum_far 1/(x + a_k) (_far_field), a real
        polynomial in x.  Returns (full, half, bound), bound on the
        expansion's remainder at every level of either window.
        """
        xi = self.xi
        d2 = abs(xi - z) ** 2
        p = 2.0 * self.c * (z * xi.conjugate()).imag / d2
        q = self.c * (1.0 - abs(z) ** 2) / d2
        u = self.base - p
        x, chunks, M, sums, bounds = self._far_field(u, q, 0.0, 1)
        inside, outside, part = np.zeros(len(u)), np.zeros(len(u)), np.empty(len(u))
        for rows, is_inside in chunks:
            y = self._levels(rows, u)
            np.square(y, out=y)
            np.add(y, q * q, out=y)
            np.divide(2.0 * q, y, out=y)
            acc = inside if is_inside else outside
            acc += np.add.reduce(y, axis=0, out=part)
        far = _horner(2.0 * _series_coef(sums, 1, M).imag, x)
        corner = poisson_kernel(z, xi)
        full = inside + outside + far[0] + self.rem_full * corner
        half = inside + far[1] + self.rem_half * corner
        return full, half, 2.0 * bounds[0]

    def moment_sums(self, kmax: int):
        """{m: sums(lambda w: w ** -m)} for m = +-1..+-kmax, in one pass, each
        with the bound of its far-field remainder.

        sigma = eta conj(xi) = (1 - c lor) + i y lor, so the profile of w^m
        is xi^m (sum_k lor sigma^m + rem).  A near row's term lor is
        multiplied by sigma kmax times and each power summed.  With
        t = y - ic, lor sigma^m = 2c (t + 2ic)^(m-1) / t^(m+1), so the far
        rows' sum is 2c sum_j C(m-1, j) (2ic)^j sum_far t^-(j+2), each from
        the expansion of _far_field.  Near rows reach out to R + 2c kmax, so
        on the far rows 2c/(|a_k| - R) <= 1/kmax and the binomial terms add
        up to at most e times the size of their sum.  lor and rem are real,
        so the profile of w^-m is its conjugate.  Each profile is
        (full, half, bound).
        """
        c = self.c
        x, chunks, M, sums, series_bounds = self._far_field(self.base, c, 2.0 * c * kmax, kmax + 1)
        coef = np.zeros((kmax, 2, M), dtype=complex)
        bounds = np.zeros(kmax)
        for m in range(1, kmax + 1):
            for j in range(m):
                weight = 2.0 * c * math.comb(m - 1, j) * (2.0 * c) ** j
                coef[m - 1] += weight * 1j ** j * _series_coef(sums, j + 2, M)
                bounds[m - 1] += weight * series_bounds[j + 1]
        total = _horner(coef.reshape(2 * kmax, M), x).reshape(kmax, 2, len(x))
        self._add_near_moments(total, chunks)
        profiles = {}
        for m in range(1, kmax + 1):
            full, half = total[m - 1]
            full += self.rem_full
            half += self.rem_half
            total[m - 1] *= self.xi ** m
            profiles[-m] = (full, half, bounds[m - 1])
            profiles[m] = (np.conj(full), np.conj(half), bounds[m - 1])
        return profiles

    def _add_near_moments(self, total, chunks):
        """Add lor sigma^m of each near row to total[m - 1], m = 1..kmax: to
        its full-window row, and to its half-window row inside that window.
        Rows are formed one at a time in three level vectors."""
        c, base = self.c, self.base
        y, sigma, term = np.empty(len(base)), np.empty(len(base), complex), np.empty(len(base), complex)
        lor = term.real
        for rows, is_inside in chunks:
            for k in range(rows.start, rows.stop):
                np.add(base, self.shifts[k], out=y)
                np.square(y, out=lor)
                np.add(lor, c * c, out=lor)
                np.divide(2.0 * c, lor, out=lor)
                term.imag[...] = 0.0
                np.multiply(lor, -c, out=sigma.real)
                np.add(sigma.real, 1.0, out=sigma.real)
                np.multiply(y, lor, out=sigma.imag)
                for sums in total:
                    term *= sigma
                    sums[0] += term
                    if is_inside:
                        sums[1] += term


class _FiberProfiles:
    """Per-point profiles of a fiber quadrature: closed form on a Lorentzian
    side, the generic profile(axis, f) on any other.  A closed-form fiber
    profile is (full, half, bound), bound on its far-field remainder, which
    combine adds to the reported error.  A subclass names its Lorentzian
    side of an axis, or None, by _lorentz_side(axis)."""

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
        outer, fiber = (p1, p0) if self.fiber_axis == 0 else (p0, p1)
        full, half, bound = _fiber_parts(fiber)
        with np.errstate(all="ignore"):
            res = self._outer_sum(outer * full, None if half is None else outer * half)
        return _widened(res, bound * _peak(outer))

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
        value, half_grid = map(complex, periodic_means(node_sums))
        step = 0.0
        if half is not None:
            step = float(np.mean(np.abs(full - half)[np.isfinite(node_sums)])) / 3.0
        return IntegralResult(value=value, error_bound=abs(value - half_grid) + step)


def _fiber_parts(profile):
    """(full, half, bound) of a fiber profile: a closed-form pass carries the
    bound of its far-field remainder, a generic one has none."""
    return profile if len(profile) == 3 else (*profile, 0.0)


def _peak(*arrays) -> float:
    return max(float(np.max(np.abs(a), where=np.isfinite(a), initial=0.0)) for a in arrays)


def _widened(res: IntegralResult, moved: float) -> IntegralResult:
    """res with its bound raised for window sums that are each off by at most
    moved: the Richardson mean (4 I_full - I_half)/3 is then off by 5/3 of it."""
    if not moved:
        return res
    return IntegralResult(value=res.value, error_bound=res.error_bound + 5.0 * moved / 3.0)


def _folded_mean(full, half) -> IntegralResult:
    """Richardson-extrapolated mean of the full- and half-window sums over the
    folded s grid; the bound adds its grid-halving change and the step."""
    i_full, evens = map(complex, periodic_means(full))
    i_half, evens_half = map(complex, periodic_means(half))
    value = i_full + (i_full - i_half) / 3.0
    evens_r = evens + (evens - evens_half) / 3.0
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
        (q_full, q_half, q_bound), (p_full, p_half, p_bound) = map(_fiber_parts, (q, p))
        res = _folded_mean(q_full * p_full, q_half * p_half)
        return _widened(res, q_bound * _peak(p_full, p_half) + p_bound * _peak(q_full, q_half)
                        + q_bound * p_bound)

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
