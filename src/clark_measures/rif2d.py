"""Clark measures of bidegree-(n,1) rational inner functions on the bidisc.

phi(z) = (z_2 q1(z_1) + q2(z_1)) / (p1(z_1) + z_2 p2(z_1)) where q1, q2 are
the degree-n reflections of p1, p2 and the denominator has no zeros on the
open bidisc.  Solving phi* = alpha on the torus gives a single graph branch
zeta -> conj(B_alpha(zeta)) weighted by W_alpha; at exceptional alpha
(nontangential values of phi at denominator singularities on the torus) the
measure also carries vertical Lebesgue lines.

At a torus singularity (tau, gamma), phi(tau, .) is the constant
alpha_tau = q1(tau)/p2(tau), the exceptional value (Bickel-Cima-Sola, Clark
measures for rational inner functions).  At that level B_alpha's numerator
and denominator have a simple root at tau, the resultant a double one, and
the line z_1 = tau has constant |p2(tau)|^2/|A|, A = (q1' p2 - q1 p2')(tau):
B_alpha and W_alpha are evaluated with (zeta - tau) divided out, and no limit
is taken numerically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npp

from .torus_core import (
    ClarkMeasure2D,
    CurveComponent,
    Graph,
    LineComponent,
    TorusPoint,
    UnimodularConstant,
    circle_distance,
)

__all__ = [
    "Poly1",
    "RIF_n1",
    "LevelRational",
    "RIFError",
    "reflect",
    "rif_map",
    "b_alpha",
    "w_alpha",
    "w_alpha_values",
    "singularities",
    "exceptional_values",
    "line_constant",
    "rif_clark_measure",
    "rif_boundary_value",
]

_STABILITY_ANGLES = 4096
_STABILITY_FLOOR = 1e-10
_ATORAL_FLOOR = 1e-10
_TORUS_TOL = 1e-8
_LEVEL_TOL = 1e-8
_EXCEPTIONAL_SNAP = 1e-6


class RIFError(ValueError):
    """Invalid rational inner data: unstable, non-atoral, or ill-posed."""


@dataclass(frozen=True)
class Poly1:
    """Univariate polynomial with ascending complex coefficients."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0j,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0j,)

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coefficients) - 1

    def __call__(self, z):
        scalar = np.isscalar(z) or isinstance(z, complex)
        out = npp.polyval(np.asarray(z, dtype=complex), np.array(self.coefficients))
        return complex(out) if scalar else out

    def derivative(self) -> "Poly1":
        return Poly1(tuple(npp.polyder(np.array(self.coefficients))))

    def scale(self, factor: complex) -> "Poly1":
        return Poly1(tuple(factor * c for c in self.coefficients))


def _root_candidates(q: Poly1) -> np.ndarray:
    """Roots of q with negligible leading coefficients dropped first.

    A leading coefficient many orders below the largest one only carries
    far-away roots but overflows the companion matrix; trimming moves torus
    roots by less than the 1e-8 residual filters downstream.
    """
    coeffs = np.array(q.coefficients)
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        return np.array([], dtype=complex)
    keep = len(coeffs)
    while keep > 1 and abs(coeffs[keep - 1]) <= 1e-14 * scale:
        keep -= 1
    if keep < 2:
        return np.array([], dtype=complex)
    return npp.polyroots(coeffs[:keep])


def _poly_sub(a: Poly1, b: Poly1) -> Poly1:
    return Poly1(tuple(npp.polysub(np.array(a.coefficients), np.array(b.coefficients))))


def _poly_mul(a: Poly1, b: Poly1) -> Poly1:
    return Poly1(tuple(npp.polymul(np.array(a.coefficients), np.array(b.coefficients))))


def _divide_out(q: Poly1, tau: complex) -> Poly1:
    """The quotient of q by (z - tau), remainder dropped."""
    return Poly1(tuple(npp.polydiv(np.array(q.coefficients), np.array([-tau, 1.0]))[0]))


def reflect(q: Poly1, n: int) -> Poly1:
    """Degree-n reflection z^n conj(q)(1/conj(z)): conjugate-reversed coefficients."""
    if q.degree > n:
        raise ValueError(f"cannot reflect degree {q.degree} at degree {n}")
    if q.is_zero:
        return Poly1((0j,))
    padded = list(q.coefficients) + [0j] * (n - q.degree)
    return Poly1(tuple(c.conjugate() for c in reversed(padded)))


@dataclass(frozen=True)
class RIF_n1:
    """Stable, atoral denominator data p(z) = p1(z_1) + z_2 p2(z_1) of z_1-degree n."""

    p1: Poly1
    p2: Poly1
    n: int

    def __post_init__(self):
        p1 = self.p1 if isinstance(self.p1, Poly1) else Poly1(tuple(self.p1))
        p2 = self.p2 if isinstance(self.p2, Poly1) else Poly1(tuple(self.p2))
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "p2", p2)
        n = int(self.n)
        object.__setattr__(self, "n", n)
        if n < 1:
            raise RIFError("bidegree (n,1) needs n >= 1")
        if max(p1.degree, p2.degree) > n:
            raise RIFError(
                f"z_1-degree max(deg p1, deg p2) = {max(p1.degree, p2.degree)} exceeds n = {n}"
            )
        if p1.is_zero:
            raise RIFError("p1 must be nonzero (p(0,0) = p1(0) = 0 is unstable)")
        # Stability: p is linear in z_2, so p has a zero in the open bidisc
        # iff p1 has one in the open disc, or |p2| > |p1| somewhere on the
        # circle (max modulus applied to p2/p1).  The circle comparison is a
        # degree-n trig polynomial, so dense samples certify its sign.
        if p1.degree >= 1:
            roots = npp.polyroots(np.array(p1.coefficients))
            if np.any(np.abs(roots) < 1.0 - 1e-10):
                raise RIFError("p1 vanishes inside the disc (unstable)")
        angles = 2.0 * math.pi * np.arange(_STABILITY_ANGLES) / _STABILITY_ANGLES
        circle = np.exp(1j * angles)
        deficit = np.abs(p2(circle)) ** 2 - np.abs(p1(circle)) ** 2
        scale = max(float(np.max(np.abs(p1(circle)) ** 2)), 1.0)
        if float(np.max(deficit)) > _STABILITY_FLOOR * scale:
            raise RIFError("|p2| exceeds |p1| on the circle (unstable)")
        resultant = _poly_sub(
            _poly_mul(p1, reflect(p1, n)), _poly_mul(p2, reflect(p2, n))
        )
        if float(np.max(np.abs(np.array(resultant.coefficients)))) <= _ATORAL_FLOOR:
            raise RIFError("p and its reflection share a factor (non-atoral)")
        object.__setattr__(self, "_p1t", reflect(p1, n))
        object.__setattr__(self, "_p2t", reflect(p2, n))
        object.__setattr__(self, "_resultant", resultant)

    @cached_property
    def _singularities(self) -> tuple:
        """singularities(self), found once; no radial limit is taken."""
        return _torus_singularities(self)

    @cached_property
    def _singular_limits(self) -> tuple:
        """(tau, gamma, alpha_tau) per torus singularity: phi(tau, .) is the
        constant alpha_tau = q1(tau)/p2(tau), its nontangential value there."""
        return tuple((tau, gamma, self._p1t(tau.value) / self.p2(tau.value))
                     for tau, gamma in self._singularities)

    @property
    def p1_reflected(self) -> Poly1:
        return self._p1t

    @property
    def p2_reflected(self) -> Poly1:
        return self._p2t

    def denominator(self, z1, z2):
        return self.p1(z1) + np.asarray(z2) * self.p2(z1)

    def numerator(self, z1, z2):
        return np.asarray(z2) * self._p1t(z1) + self._p2t(z1)

    def to_json_dict(self) -> dict:
        return {
            "p1": [[c.real, c.imag] for c in self.p1.coefficients],
            "p2": [[c.real, c.imag] for c in self.p2.coefficients],
            "n": self.n,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RIF_n1":
        if not isinstance(data, dict):
            raise ValueError("rational inner data must be an object")
        unknown = set(data) - {"p1", "p2", "n"}
        if unknown:
            raise ValueError(f"unknown keys: {sorted(unknown)}")
        if "p1" not in data or "p2" not in data or "n" not in data:
            raise ValueError("rational inner data needs p1, p2, and n")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError("n must be an integer")

        def poly(key):
            seq = data[key]
            if not isinstance(seq, list):
                raise ValueError(f"{key} must be a list of [re, im] pairs")
            coeffs = []
            for pair in seq:
                if (
                    not isinstance(pair, list)
                    or len(pair) != 2
                    or not all(
                        isinstance(v, (int, float)) and not isinstance(v, bool)
                        for v in pair
                    )
                ):
                    raise ValueError(f"{key} entries must be [re, im] number pairs")
                coeffs.append(complex(pair[0], pair[1]))
            return Poly1(tuple(coeffs) if coeffs else (0j,))

        return cls(p1=poly("p1"), p2=poly("p2"), n=n)


def _horner(coefficients: tuple, z: complex) -> complex:
    """The polynomial with ascending coefficients at the scalar z, by Horner's rule."""
    value = 0j
    for c in reversed(coefficients):
        value = value * z + c
    return value


def rif_map(R: RIF_n1):
    """The evaluable rule z -> phi(z) on the open bidisc.

    A point is one scalar Horner pass over each of p1, p2 and their
    reflections, in Python complex arithmetic; it agrees with the Poly1
    form of R.numerator / R.denominator to rounding.
    """
    p1, p2, q1, q2 = (p.coefficients for p in (R.p1, R.p2, R.p1_reflected, R.p2_reflected))

    def rule(z) -> complex:
        z1, z2 = (complex(c) for c in z)
        if not (abs(z1) < 1 and abs(z2) < 1):
            raise ValueError("rif_map evaluates interior points only")
        num = z2 * _horner(q1, z1) + _horner(q2, z1)
        return num / (_horner(p1, z1) + z2 * _horner(p2, z1))

    return rule


@dataclass(frozen=True)
class LevelRational:
    """The one-variable rational function B whose conjugate graphs the level set.

    shared_torus_roots holds the points tau where numerator and denominator
    share a simple root on the circle (alpha an exceptional value); B is
    evaluated with (zeta - tau) divided out of both, so it is defined there.
    """

    num: Poly1
    den: Poly1
    shared_torus_roots: tuple

    @cached_property
    def _reduced(self) -> tuple:
        num, den = self.num, self.den
        for tau in self.shared_torus_roots:
            num, den = _divide_out(num, tau.value), _divide_out(den, tau.value)
        return num, den

    def __call__(self, z):
        scalar = np.isscalar(z) or isinstance(z, complex)
        z_arr = np.asarray(z, dtype=complex)
        num, den = self._reduced
        with np.errstate(all="ignore"):
            out = num(z_arr) / den(z_arr)
        return complex(out[()]) if scalar else out

    @property
    def degenerate(self) -> bool:
        return bool(self.shared_torus_roots)

    def curve_rule(self):
        """zeta -> conj(B(zeta)), the second coordinate of the level curve."""

        def rule(zeta):
            return np.conj(self(zeta))

        return rule


def _level_singularities(R: RIF_n1, alpha: UnimodularConstant) -> tuple:
    """The tau of each torus singularity whose alpha_tau is within 1e-8 of alpha."""
    return tuple(tau for tau, _, value in R._singular_limits
                 if circle_distance(cmath.phase(value), alpha.nu) < _LEVEL_TOL)


def b_alpha(R: RIF_n1, alpha: UnimodularConstant) -> LevelRational:
    """B_alpha = D/E, D = q1 - alpha p2 and E = alpha p1 - q2, q = reflected p.

    D and E vanish together on the circle only at the singular points tau
    whose alpha_tau = q1(tau)/p2(tau) is alpha, each a simple root of both
    (D'(tau) = A/p2(tau), A != 0); those are the shared torus roots.
    """
    num = _poly_sub(R.p1_reflected, R.p2.scale(alpha.alpha))
    den = _poly_sub(R.p1.scale(alpha.alpha), R.p2_reflected)
    return LevelRational(num=num, den=den, shared_torus_roots=_level_singularities(R, alpha))


def _weight_correlations(R: RIF_n1, alpha: UnimodularConstant):
    """Laurent coefficients a_{-n}..a_n of W_alpha's numerator and denominator.

    On the circle the resultant p1 q1 - p2 q2 is zeta^n (|p1|^2 - |p2|^2), so
    the numerator's a_m is its coefficient of z^(n+m).  The denominator
    |D|^2, D = q1 - alpha p2 the numerator of B_alpha, is D's autocorrelation.
    """
    res = np.array(R._resultant.coefficients)
    v = np.array(_poly_sub(R.p1_reflected, R.p2.scale(alpha.alpha)).coefficients)
    v = np.pad(v, (0, R.n + 1 - len(v)))
    return np.pad(res, (0, 2 * R.n + 1 - len(res))), np.correlate(v, v, "full")


def w_alpha(R: RIF_n1, alpha: UnimodularConstant, zeta: TorusPoint) -> float:
    """W_alpha at one torus point: w_alpha_values at zeta alone."""
    return float(w_alpha_values(R, alpha, np.array([zeta.value]))[0])


def w_alpha_values(R: RIF_n1, alpha: UnimodularConstant, zeta) -> np.ndarray:
    """W_alpha = (|p1|^2 - |p2|^2)/|D|^2, D = q1 - alpha p2, at unimodular
    points zeta.

    Values are taken in value form, from the polynomial values of p1, p2
    and D at each point, which keeps W's relative accuracy where |p1| is
    small against its coefficients.  At an exceptional level, D has a
    simple and the resultant Res = zeta^n (|p1|^2 - |p2|^2) a double root at
    each of its k singular points tau; with D = prod(zeta - tau) D_1,
    Res = prod(zeta - tau)^2 Res_1 and (zeta - tau)^2/|zeta - tau|^2 =
    -zeta tau on the circle, W = Re(conj(zeta)^(n-k) prod(-tau) Res_1)/|D_1|^2,
    finite at tau.
    """
    zeta = np.asarray(zeta, dtype=complex)
    d = _poly_sub(R.p1_reflected, R.p2.scale(alpha.alpha))
    taus = _level_singularities(R, alpha)
    if taus:
        res = R._resultant
        for tau in taus:
            res = _divide_out(_divide_out(res, tau.value), tau.value)
            d = _divide_out(d, tau.value)
        turn = math.prod(-tau.value for tau in taus) * np.conj(zeta) ** (R.n - len(taus))
        num = (turn * res(zeta)).real
    else:
        num = np.abs(R.p1(zeta)) ** 2 - np.abs(R.p2(zeta)) ** 2
    with np.errstate(all="ignore"):
        return np.maximum(num / np.abs(d(zeta)) ** 2, 0.0)


def _refined_cluster_root(resultant: Poly1, cluster: np.ndarray) -> complex:
    """Newton-refine a multiplicity-m cluster on the (m-1)-th derivative."""
    poly = resultant
    for _ in range(len(cluster) - 1):
        poly = poly.derivative()
    dpoly = poly.derivative()
    z = complex(np.mean(cluster))
    for _ in range(100):
        val, slope = poly(z), dpoly(z)
        if abs(slope) == 0.0:
            break
        step = val / slope
        z -= step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


def _torus_singularities(R: RIF_n1) -> tuple:
    """singularities(R), computed: roots of the z_2-resultant are clustered
    (np.roots scatters a multiplicity-m torus root by ~eps^(1/m)), each
    cluster Newton-refined on the matching derivative, then held to the 1e-8
    torus filter."""
    res = R._resultant
    if res.degree < 1:
        return ()
    roots = _root_candidates(res)
    near = [r for r in roots if abs(abs(r) - 1.0) <= 1e-3]
    clusters = []
    for r in sorted(near, key=lambda w: np.angle(w)):
        if clusters and abs(r - clusters[-1][-1]) < 1e-2:
            clusters[-1].append(r)
        else:
            clusters.append([r])
    if len(clusters) > 1 and abs(clusters[0][0] - clusters[-1][-1]) < 1e-2:
        clusters[0].extend(clusters.pop())
    found = []
    for cluster in clusters:
        z1 = _refined_cluster_root(res, np.array(cluster))
        if abs(abs(z1) - 1.0) > _TORUS_TOL:
            continue
        tau = TorusPoint.from_complex(z1, tol=_TORUS_TOL)
        p2_val = R.p2(tau.value)
        if abs(p2_val) < 1e-12:
            continue
        z2 = -R.p1(tau.value) / p2_val
        if abs(abs(z2) - 1.0) > _TORUS_TOL:
            continue
        gamma = TorusPoint.from_complex(z2, tol=_TORUS_TOL)
        if abs(R.denominator(tau.value, gamma.value)) > _TORUS_TOL or abs(
            R.numerator(tau.value, gamma.value)
        ) > _TORUS_TOL:
            continue
        if not any(tau.close_to(t, 1e-8) and gamma.close_to(g, 1e-8) for t, g in found):
            found.append((tau, gamma))
    return tuple(found)


def singularities(R: RIF_n1):
    """Common torus zeros of p and its reflection, as (tau, gamma) pairs.

    They are found once per R and cached on it, with no radial limit taken,
    so this works wherever the clustering does.
    """
    return R._singularities


def _boundary_values(R: RIF_n1, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """phi* at the torus points (z1, z2) of two equal-shaped arrays.

    The quotient of the numerator and denominator arrays, except at nodes
    where |den| <= 1e-10 scale: there a node within 1e-8 of a singular point
    (tau, gamma) takes its nontangential value alpha_tau = q1(tau)/p2(tau),
    in closed form, and any other such node is NaN.
    """
    scale = max(float(np.max(np.abs(np.array(p.coefficients)))) for p in (R.p1, R.p2))
    den = R.denominator(z1, z2)
    with np.errstate(all="ignore"):
        values = R.numerator(z1, z2) / den
    for j in np.flatnonzero(np.abs(den) <= 1e-10 * scale):
        values[j] = next((value for tau, gamma, value in R._singular_limits
                          if max(abs(z1[j] - tau.value), abs(z2[j] - gamma.value)) <= _TORUS_TOL),
                         np.nan)
    return values


def rif_boundary_value(R: RIF_n1, zeta) -> complex:
    """phi*(zeta) on the torus; alpha_tau at a singular point (tau, gamma)."""
    z1, z2 = (np.array([t.value if isinstance(t, TorusPoint) else complex(t)]) for t in zeta)
    value = complex(_boundary_values(R, z1, z2)[0])
    if not cmath.isfinite(value):
        raise RIFError(f"phi* is undefined at {zeta}")
    return value


def _distinct_levels(limits):
    values = []
    for _, _, limit in limits:
        alpha = UnimodularConstant.from_complex(limit, tol=1e-6)
        if not any(circle_distance(alpha.nu, v.nu) < 1e-8 for v in values):
            values.append(alpha)
    return tuple(values)


def exceptional_values(R: RIF_n1):
    """Nontangential values of phi at its torus singularities, deduplicated;
    the limits are taken once per R and cached on it."""
    return _distinct_levels(R._singular_limits)


def _snap_exceptional(R: RIF_n1, alpha: UnimodularConstant):
    """(level, exceptional): alpha, or the exceptional value within 1e-6 of it."""
    for value in exceptional_values(R):
        if circle_distance(alpha.nu, value.nu) <= _EXCEPTIONAL_SNAP:
            return value, True
    return alpha, False


def line_constant(R: RIF_n1, tau: TorusPoint) -> float:
    """1/|dphi/dz_1(tau, .)| = |p2(tau)|^2/|A|, A = q1'(tau) p2(tau) - q1(tau) p2'(tau).

    Along the line, dphi/dz_1(tau, z_2) = (z_2 A + B)/(p2(tau)^2 (z_2 - gamma))
    with B = q2'(tau) p2(tau) - q1(tau) p1'(tau).  The resultant's double root
    at tau gives B = -gamma A, so the modulus is z_2-independent; |A| = |B|
    is checked to 1e-8 relative.
    """
    t = tau.value
    p2, q1 = R.p2(t), R.p1_reflected(t)
    a = R.p1_reflected.derivative()(t) * p2 - q1 * R.p2.derivative()(t)
    b = R.p2_reflected.derivative()(t) * p2 - q1 * R.p1.derivative()(t)
    if abs(abs(a) - abs(b)) > 1e-8 * max(1.0, abs(a)):
        raise RIFError(f"line slope is not constant along z_1 = {t}")
    if a == 0:
        raise RIFError("vanishing line slope")
    return abs(p2) ** 2 / abs(a)


def _gamma(k: int) -> float:
    """gamma_k = k u/(1 - k u), u = 2^-53 the unit roundoff (Higham, Accuracy
    and Stability of Numerical Algorithms, ch. 3)."""
    return k * 2.0 ** -53 / (1.0 - k * 2.0 ** -53)


def _deflated(coefficients: np.ndarray, bounds: np.ndarray, tau: complex) -> tuple:
    """The quotient of a polynomial by (z - tau), |tau| = 1, remainder dropped,
    with bounds on its coefficients' errors.

    Synthetic division q_(k-1) = c_k + tau q_k: an error e_k in q_k and b_k
    in c_k give one of at most |tau| e_k + b_k + gamma_3 (|tau| |q_k| +
    |q_(k-1)|) in q_(k-1), the complex product and sum each rounding once
    (see verify._horner).  The bounds hold against the exact quotient when
    tau is an exact root.
    """
    quotient, errors = [], []
    q, e, t = 0j, 0.0, abs(tau)
    for c, b in zip(coefficients[:0:-1], bounds[:0:-1]):
        nxt = q * tau + c
        e = t * e + b + _gamma(3) * (t * abs(q) + abs(nxt))
        q = nxt
        quotient.append(q)
        errors.append(e)
    return np.array(quotient[::-1], dtype=complex), np.array(errors[::-1])


@dataclass(frozen=True, eq=False)
class _LevelGraph:
    """The graph component of rif_clark_measure at one level alpha: g and
    weight are its methods, so a component carries its level.

    level_polynomials are D = q1 - alpha p2, E = alpha p1 - q2 and the
    resultant Res = p1 q1 - p2 q2 as ascending coefficient tuples, each with
    (zeta - tau) divided out once (twice for Res) at every singular point
    tau of the level, and a tuple of bounds on each coefficient's error
    against the exact polynomial of p1, p2 and alpha.  On the circle
    W_alpha = alpha Res/(D E) and B_alpha = D/E (see verify.measure_integrator).
    """

    R: RIF_n1
    alpha: UnimodularConstant
    level: LevelRational

    def g(self, zeta):
        return np.conj(self.level(zeta))

    def weight(self, zeta):
        return w_alpha_values(self.R, self.alpha, zeta)

    @cached_property
    def level_polynomials(self) -> tuple:
        """((D, bounds), (E, bounds), (Res, bounds)), deflated at the level's taus.

        A coefficient of D or E is one complex product and one difference,
        within gamma_4 of the sum of the moduli of its two terms; one of Res
        sums at most n + 1 products per convolution, within gamma_(n+5) of
        the sum of the moduli of its terms whatever the summation order.
        """
        R, a, n = self.R, self.alpha.alpha, self.R.n
        p1, p2, q1, q2 = (np.pad(np.array(p.coefficients), (0, n + 1 - len(p.coefficients)))
                          for p in (R.p1, R.p2, R.p1_reflected, R.p2_reflected))
        res = np.array(R._resultant.coefficients)
        moduli = (np.convolve(np.abs(p1), np.abs(q1)) + np.convolve(np.abs(p2), np.abs(q2)))
        polys = [(q1 - a * p2, _gamma(4) * (np.abs(q1) + np.abs(p2))),
                 (a * p1 - q2, _gamma(4) * (np.abs(p1) + np.abs(q2))),
                 (np.pad(res, (0, 2 * n + 1 - len(res))), _gamma(n + 5) * moduli)]
        for tau in self.level.shared_torus_roots:
            for j, times in enumerate((1, 1, 2)):
                for _ in range(times):
                    polys[j] = _deflated(*polys[j], tau.value)
        return tuple((tuple(c.tolist()), tuple(b.tolist())) for c, b in polys)


def rif_clark_measure(R: RIF_n1, alpha: UnimodularConstant) -> ClarkMeasure2D:
    """Graph component with weight W_alpha; plus Lebesgue lines when alpha is
    (within 1e-6 of) an exceptional value.  tail_bound is 0: nothing truncated.
    The singularity analysis is R's cached one.  The graph's rule and weight
    are the methods of one _LevelGraph, which carries the level polynomials
    that measure_integrator sums residues over."""
    snapped, _ = _snap_exceptional(R, alpha)
    graph = _LevelGraph(R, snapped, b_alpha(R, snapped))
    curve = CurveComponent(kind=Graph(graph.g), weight=graph.weight)
    lines = tuple(LineComponent(tau=tau, constant=line_constant(R, tau))
                  for tau in graph.level.shared_torus_roots)
    return ClarkMeasure2D(curves=(curve,), lines=lines, tail_bound=0.0)
