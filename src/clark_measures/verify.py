"""Identity and structure checks for computed Clark measures.

Every measure the package produces is tested against the defining property:
its Poisson integral must reproduce (1-|Phi(z)|^2)/|alpha-Phi(z)|^2 on the
polydisc.  Structural side conditions are checked alongside: finite total
mass, support inside the alpha level set, and vanishing mixed-sign Fourier
coefficients.

The Poisson integrals are evaluated independently of the construction paths.
Embedded measures, in any dimension, live on the subtori
{zeta_1 ... zeta_d = eta} and are integrated in closed form by the Poisson
kernel semigroup P_a * P_b = P_ab: the subtorus through eta contributes
exactly P_{z1 ... zd}(eta).  A line {zeta_1 = tau} with constant c
contributes c P_{z1}(tau), exactly, since P_{z2} has mean 1 on the circle.
The level graph of a rational inner function is a residue sum with a proven
error bound and no grid (see measure_integrator); any other graph runs the
node quadrature of integrate_measure2d, with its bits, in real arithmetic
over rows sampled once per measure and grid.  The generic quadrature
integrators (integrate_measure2d, integrate_embed_nd) are the independent
oracle the tests pin the closed forms against.

The support check maps all of its samples at once, through the array form
of a boundary map (embedding_boundary_map, product_boundary_map,
rif_boundary_map); calling a map on one point is the one-point case.

A VerificationReport holds four kinds of section, each a frozen dataclass.
Its JSON form is written from the dataclass fields (complex values as
[re, im] pairs, tuples as lists) and read back through one decoder per
field name (_FIELD_VALUES; a field not listed there is a float).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial import polynomial as npp

from .embed import EmbeddedClarkND
from .inner1d import InnerFunction1D, boundary_values_array
from .product2d import PRODUCT_TRUNCATION, ProductInner, _product_fiber
from .rif2d import RIF_n1, _boundary_values, _gamma, _LevelGraph
from .torus_core import (
    TWO_PI,
    ClarkMeasure2D,
    IntegralResult,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    _canonical_angles,
    _poisson_into,
    _zero_undefined,
    pairwise_sum,
    periodic_means,
    poisson_kernel,
)

__all__ = [
    "DEFAULT_SEED",
    "EMBED_BASE_REL",
    "PRODUCT_BASE_REL",
    "RIF_BASE_REL",
    "SUPPORT_TOL",
    "FOURIER_BASE_TOL",
    "IdentityResidual",
    "MassCheck",
    "FourierEntry",
    "SupportSample",
    "VerificationReport",
    "herglotz_rhs",
    "sample_test_points",
    "measure_integrator",
    "embed_integrator",
    "product_integrator",
    "poisson_identity_check",
    "total_mass_check",
    "support_inclusion_check",
    "fourier_rp_check",
    "product_fourier_rp_check",
    "embedding_boundary_map",
    "product_boundary_map",
    "rif_boundary_map",
]

DEFAULT_SEED = 1729
DEFAULT_GRID_N = 4096

# per-module relative tolerances for the identity check
EMBED_BASE_REL = 1e-6
PRODUCT_BASE_REL = 1e-5
RIF_BASE_REL = 1e-8

SUPPORT_TOL = 1e-8
FOURIER_BASE_TOL = 1e-8


def _as_alpha(alpha) -> UnimodularConstant:
    if isinstance(alpha, UnimodularConstant):
        return alpha
    return UnimodularConstant.from_complex(complex(alpha))


def _poisson_sup(z: complex) -> float:
    return (1.0 + abs(z)) / (1.0 - abs(z))


def herglotz_rhs(phi, alpha, z) -> float:
    """(1-|Phi(z)|^2)/|alpha-Phi(z)|^2 for an interior point z."""
    value = complex(phi(z))
    if not abs(value) < 1.0:
        raise ValueError(f"Phi(z) = {value} is not interior")
    a = _as_alpha(alpha).alpha
    return (1.0 - abs(value) ** 2) / abs(a - value) ** 2


def sample_test_points(d: int, count: int = 100, seed: int = DEFAULT_SEED):
    """Reproducible interior test points: radii uniform in [0, 0.95], angles
    uniform, per coordinate."""
    rng = np.random.default_rng(seed)
    radii = rng.uniform(0.0, 0.95, size=(count, d))
    angles = rng.uniform(0.0, TWO_PI, size=(count, d))
    points = radii * np.exp(1j * angles)
    return tuple(tuple(complex(c) for c in row) for row in points)


# ---------------------------------------------------------------------------
# report sections


@dataclass(frozen=True)
class IdentityResidual:
    """One test point of the Poisson identity."""

    z: tuple
    lhs: float
    rhs: float
    relative_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.relative_error <= self.tolerance


@dataclass(frozen=True)
class MassCheck:
    computed: float
    expected: float
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


@dataclass(frozen=True)
class FourierEntry:
    k: tuple
    modulus: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.modulus <= self.tolerance


@dataclass(frozen=True)
class SupportSample:
    """A sampled support point and its level-set deviation |Phi*(s) - alpha|.

    deviation is None when the boundary value is undefined at the sample; the
    sample then passes only through the exemption list."""

    point: tuple
    deviation: float
    exempt: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        if self.exempt:
            return True
        return self.deviation is not None and self.deviation <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    identity_residuals: tuple = ()
    mass: MassCheck = None
    fourier: tuple = ()
    support: tuple = ()
    tolerances: dict = field(default_factory=dict)
    seed: int = None

    @property
    def passed(self) -> bool:
        sections = list(self.identity_residuals) + list(self.fourier) + list(self.support)
        if self.mass is not None:
            sections.append(self.mass)
        return all(item.passed for item in sections)

    def to_json_dict(self) -> dict:
        return {
            "identity_residuals": [_section_json(r) for r in self.identity_residuals],
            "mass": None if self.mass is None else _section_json(self.mass),
            "fourier": [_section_json(e) for e in self.fourier],
            "support": [_section_json(s) for s in self.support],
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "passed": self.passed,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "VerificationReport":
        if not isinstance(data, dict):
            raise ValueError("report must be a JSON object")
        keys = {"identity_residuals", "mass", "fourier", "support",
                "tolerances", "seed", "passed"}
        if set(data) - keys:
            raise ValueError(f"unknown report fields: {sorted(set(data) - keys)}")
        for key, kind, name in (("identity_residuals", (list, tuple), "array"),
                                ("fourier", (list, tuple), "array"),
                                ("support", (list, tuple), "array"),
                                ("tolerances", dict, "object")):
            if key in data and not isinstance(data[key], kind):
                raise ValueError(f"report field {key!r} must be a JSON {name}")
        mass = data.get("mass")
        report = cls(
            identity_residuals=tuple(_section(IdentityResidual, r)
                                     for r in data.get("identity_residuals", ())),
            mass=None if mass is None else _section(MassCheck, mass),
            fourier=tuple(_section(FourierEntry, e) for e in data.get("fourier", ())),
            support=tuple(_section(SupportSample, s) for s in data.get("support", ())),
            tolerances=dict(data.get("tolerances", {})),
            seed=data.get("seed"),
        )
        if "passed" in data and bool(data["passed"]) != report.passed:
            raise ValueError("stored pass flag disagrees with recorded residuals")
        return report


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(v) for v in value]
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return int(value) if isinstance(value, np.integer) else value


def _section_json(item) -> dict:
    """A report section as a JSON object: complex values as [re, im] pairs,
    tuples as lists."""
    return {f.name: _json_value(getattr(item, f.name)) for f in fields(item)}


def _complex_tuple(pairs) -> tuple:
    return tuple(complex(float(re), float(im)) for re, im in pairs)


# JSON decoders of the section fields that are not floats
_FIELD_VALUES = {
    "z": _complex_tuple,
    "point": _complex_tuple,
    "k": lambda v: tuple(int(c) for c in v),
    "deviation": lambda v: None if v is None else float(v),
    "exempt": bool,
}


def _section(cls, data):
    """The report section cls from its JSON object; a missing or malformed
    field raises ValueError naming the section type."""
    try:
        return cls(**{f.name: _FIELD_VALUES.get(f.name, float)(data[f.name])
                      for f in fields(cls)})
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {cls.__name__}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Poisson integrators


def _interior_point(z, d: int) -> tuple:
    """z as a d-tuple of complex coordinates, each strictly inside the disc."""
    z = tuple(complex(c) for c in z)
    if len(z) != d:
        raise ValueError(f"expected {d} coordinates, got {len(z)}")
    if not all(abs(c) < 1.0 for c in z):
        raise ValueError(f"point {z} is not inside the open polydisc")
    return z


def _antidiagonal_poisson(etas, weights):
    """w -> Poisson integral sum_k w_k P_w(eta_k) of weighted subtori at w = z1 ... zd.

    On the subtorus {zeta_1 ... zeta_d = eta} the integrand
    P_{z1}(zeta_1) ... P_{zd}(zeta_d) is a (d-1)-fold circular convolution of
    Poisson kernels, and P_a * P_b = P_ab, so the subtorus through eta
    contributes exactly P_{z1 ... zd}(eta); for d = 2 it is the antidiagonal.
    The value is exact up to rounding; no quadrature is involved.  The real
    and imaginary parts of the etas are stored once, and a call runs
    weights * poisson_kernel(w, etas) in real arithmetic in buffers made
    once (torus_core._poisson_into), since atom-sized temporaries made glibc
    trim and regrow the heap at every point on some runs.  The zero tail is
    pairwise_sum's padding.
    """
    n = len(etas)
    x, y, tmp = np.ascontiguousarray(etas.real), np.ascontiguousarray(etas.imag), np.empty(n)
    padded = np.zeros(1 << (n - 1).bit_length() if n else 0)
    kernel = padded[:n]

    def at(w: complex) -> float:
        _poisson_into(x, y, w, kernel, tmp)
        np.multiply(weights, kernel, out=kernel)
        return float(pairwise_sum(padded))

    return at


def _graph_poisson(mu: ClarkMeasure2D, grid: QuadratureGrid, which):
    """(z1, z2) -> (value, grid-halving estimate) of the Poisson integral of
    the graphs mu.graphs[j], j in which.

    The node quadrature of integrate_measure2d over those graphs,
    with its bits and its component indices in mu.curves, in real
    arithmetic over rows made once: the grid's real and imaginary parts
    (shared by every integrator on grid), each graph's second coordinate as
    real and imaginary rows and its weight W (from the graph's samples on
    grid, which fourier_rp_check shares), and three scratch rows.  A
    point puts P_{z1} in one scratch row and, per graph, P_{z2} in another,
    multiplies that in place by P_{z1} and W and takes its periodic_means;
    only the sums of periodic_means allocate.  The caller adds the tail
    term, so no sup of the integrand is taken.
    """
    x, y = grid._circle_rows
    nodes = mu._graph_nodes(grid)
    rows = [(len(mu.thetas) + j, np.ascontiguousarray(nodes[j][0].real),
             np.ascontiguousarray(nodes[j][0].imag), nodes[j][1]) for j in which]
    kernel1, kernel2, tmp = np.empty((3, grid.n_nodes))

    def at(z1: complex, z2: complex) -> tuple:
        means, estimates = [], []
        with np.errstate(all="ignore"):
            _poisson_into(x, y, z1, kernel1, tmp)
            for idx, u, v, weight in rows:
                _poisson_into(u, v, z2, kernel2, tmp)
                np.multiply(kernel1, kernel2, out=kernel2)
                np.multiply(kernel2, weight, out=kernel2)
                mean, half = periodic_means(kernel2, component_index=idx)
                means.append(mean)
                estimates.append(abs(mean - half))
        return float(pairwise_sum(np.array(means))), float(pairwise_sum(np.array(estimates)))

    return at


# ---------------------------------------------------------------------------
# residue sums over the level graphs of rational inner functions

_U = 2.0 ** -53
_G1, _G3, _G4 = _gamma(1), _gamma(3), _gamma(4)
_NO_BALL = (complex(math.nan, math.nan), math.inf)


def _level_graph(comp):
    """The _LevelGraph whose rule and weight comp carries, else None: a
    component whose g or weight was replaced is not a level graph."""
    graph = getattr(comp.kind.g, "__self__", None)
    if isinstance(graph, _LevelGraph) and comp.kind.g == graph.g and comp.weight == graph.weight:
        return graph
    return None


def _horner(c, bounds, w, a) -> tuple:
    """Balls (value, error bound) of P(w) and P[a, w], and the coefficients
    of Q = P[., w] with their bounds, for the polynomial P whose ascending
    coefficients are within bounds of c.  P[w, w] = P'(w).

    One Horner pass runs two streams: the synthetic division of P by
    (zeta - w), whose partial results are the coefficients of Q and which
    ends at P(w), and Horner's rule for Q at a.  A stream step y = x y' + t
    rounds as fl(fl(x y') + t) = (x y' (1 + eps) + t)(1 + delta) with
    |delta| <= u and, for the complex product, |eps| <= sqrt(2) gamma_2 <=
    gamma_3 (Higham, Accuracy and Stability of Numerical Algorithms, Lemma
    3.5), gamma_k = k u/(1 - k u).  So with e' the error of y' and b that
    of t, the step's error is at most |x| e' + b + gamma_3 (|x| |y'| + |y|),
    |y| and |y'| as computed: the running error bound of Higham's Algorithm
    5.1, in complex arithmetic.
    """
    tw, ta, g3 = abs(w), abs(a), _G3
    y, ey = c[-1], bounds[-1]
    ay = abs(y)
    v, av, ev = 0j, 0.0, 0.0
    q, eq = [], []
    for k in range(len(c) - 2, -1, -1):
        q.append(y)
        eq.append(ey)
        v = v * a + y
        n = abs(v)
        ev, av = ta * ev + ey + g3 * (ta * av + n), n
        y = y * w + c[k]
        n = abs(y)
        ey, ay = tw * ey + bounds[k] + g3 * (tw * ay + n), n
    return (y, ey), (v, ev), q[::-1], eq[::-1]


def _jet(c, bounds, w, a) -> tuple:
    """Balls of P(w), P'(w), P[a, w] and P[a, w, w]: _horner on P, then on
    Q = P[., w], whose value at w is P'(w) and whose P[a, w] is P[a, w, w]."""
    value, slope, q, eq = _horner(c, bounds, w, a)
    derivative, curvature, _, _ = _horner(q, eq, w, a)
    return value, derivative, slope, curvature


def _taylor(majorant) -> tuple:
    """(M'(1), M''(1)/2, M'''(1)/6) for the polynomial M with nonnegative
    ascending coefficients."""
    return tuple(sum(math.comb(k, j) * c for k, c in enumerate(majorant)) for j in (1, 2, 3))


def _bsum(a, b, sign: float = 1.0) -> tuple:
    """The ball a + sign b, sign = +-1; the sum rounds by at most u |a + b|,
    at most gamma_1 times the computed sum."""
    s = a[0] + sign * b[0]
    return s, a[1] + b[1] + _G1 * abs(s)


def _bmul(a, b) -> tuple:
    """The ball a b: |x y - a b| <= |a| r_b + r_a |b| + r_a r_b, and the
    product rounds by at most sqrt(2) gamma_2 |a b| <= 3u |fl(a b)|."""
    p = a[0] * b[0]
    return p, abs(a[0]) * b[1] + a[1] * abs(b[0]) + a[1] * b[1] + 3.0 * _U * abs(p)


def _bdiv(a, b) -> tuple:
    """The ball a/b, or a NaN centre with an infinite radius where the ball
    b may hold 0.  1/b is conj(b)/(re^2 + im^2): the sum of squares is
    within gamma_2 and each part within gamma_3, so fl(1/b) is within
    gamma_4 |fl(1/b)| of 1/b; |1/x - 1/b| <= r/(|b| (|b| - r)), |b| - r
    bounded below with slack for the rounding of |b|, within one ulp."""
    c, r = b
    m = abs(c)
    low = m * (1.0 - 8.0 * _U) - r
    s = c.real * c.real + c.imag * c.imag
    if not (low > 0.0 and s > 0.0):
        return _NO_BALL
    inverse = complex(c.real / s, -c.imag / s)
    return _bmul(a, (inverse, r / (m * low) + _G4 * abs(inverse)))


def _one_minus_square(z: complex) -> tuple:
    """The ball 1 - |z|^2: re^2 + im^2 is within gamma_2 of |z|^2 and the
    difference rounds once."""
    s = z.real * z.real + z.imag * z.imag
    d = 1.0 - s
    return complex(d), _G3 * s + _G1 * abs(d)


def _roots(h):
    """The roots of the polynomial with ascending coefficients h, degree >= 1:
    in closed form to degree 2, else as companion eigenvalues; None when the
    leading coefficient is 0."""
    if not h[-1]:
        return None
    if len(h) == 2:
        return [-h[0] / h[1]]
    if len(h) == 3:
        b, disc = h[1], cmath.sqrt(h[1] * h[1] - 4.0 * h[2] * h[0])
        q = -0.5 * (b + disc if abs(b + disc) >= abs(b - disc) else b - disc)
        return [q / h[2], h[0] / q] if q else [0j, 0j]
    return [complex(r) for r in npp.polyroots(h)]


def _wider(ball, radius: float) -> tuple:
    """The ball with its radius grown by radius."""
    return ball[0], ball[1] + radius


def _finish(ball, inflate: float) -> tuple:
    """(real part, bound) of a ball; a bound that is not finite is inf."""
    bound = ball[1] * inflate
    return ball[0].real, bound if math.isfinite(bound) else math.inf


def _contour_sum(z1: complex, c: tuple, polys, slopes) -> tuple:
    """The ball (1/2 pi i) times the integral of F over |zeta| = s, by the
    N-node trapezoid rule, for F = c Res/((zeta - z1)(1 - conj(z1) zeta) G H)
    with polys = (G, H, Res) as (coefficients, bounds) and slopes their
    majorants' slopes at 1; _NO_BALL where it cannot be certified.

    Every root of H lies within a = 2 max_k (|h_k|/|h_m|)^(1/(m-k))
    (Fujiwara's bound, with the coefficient bounds), and G has none in the
    disc, so F is analytic on max(a, |z1|) < |zeta| < 1 and the circle
    |zeta| = s there encloses every pole of F inside the disc.  Its Laurent
    coefficients obey Cauchy's estimate |c_n| <= M(r)/r^n on any circle
    |zeta| = r of that annulus, M(r) a bound of |F| there, so the rule's
    error is at most M(r1) r1 q1^N/(1 - q1^N) + M(r2) r2 q2^N/(1 - q2^N),
    q1 = r1/s, q2 = s/r2.  On |zeta| = r, |Res| is at most its majorant at
    r, |G| at least |G(0)| less the rest of its majorant, and
    |H| >= |h_m| (r - a)^m.  The nodes are rounded, so each is taken as a
    ball of radius 32u s, over which a polynomial moves by at most its
    majorant's slope times the radius.
    """
    (g, eg), (h, eh), (res, eres) = polys
    m, t1 = len(h) - 1, abs(z1)
    lead = abs(h[-1]) - eh[-1]
    if not lead > 0.0:
        return _NO_BALL
    a = max([2.0 * ((abs(h[k]) + eh[k]) / lead) ** (1.0 / (m - k)) for k in range(m)]
            + [t1, 2.0 ** -40])

    def majorant(coefficients, bounds, r, start=0):
        return sum((abs(x) + b) * r ** k
                   for k, (x, b) in enumerate(zip(coefficients, bounds)) if k >= start)

    def g_floor(r):
        return abs(g[0]) - eg[0] - majorant(g, eg, r, 1)

    r2 = 0.9
    while not (r2 > 2.0 * a and g_floor(r2) > 0.0):
        r2 /= 2.0
        if not r2 > 2.0 * a:
            return _NO_BALL
    s = r2 / 2.0 if r2 > 8.0 * a else math.sqrt(a * r2)
    r1 = math.sqrt(a * s)
    q = max(r1 / s, s / r2)
    n = 8
    while q ** n > 2.0 ** -64:
        n *= 2
        if n > 4096:
            return _NO_BALL
    g_low = g_floor(r2)
    c_up = abs(c[0]) + c[1]
    error = sum(c_up * majorant(res, eres, r) / ((r - t1) * (1.0 - t1 * r) * g_low
                                                 * lead * (r - a) ** m) * r * w / (1.0 - w)
                for r, w in ((r1, (r1 / s) ** n), (r2, (s / r2) ** n)))
    zc1, delta, total = z1.conjugate(), 32.0 * _U * s, (0j, 0.0)
    for j in range(n):
        zeta = s * complex(math.cos(2.0 * math.pi * j / n), math.sin(2.0 * math.pi * j / n))
        G, H, R = (_wider(_horner(*p, zeta, zeta)[0], delta * slope)
                   for p, slope in zip(polys, slopes))
        lin = _bsum((1 + 0j, 0.0), _bmul((zc1, 0.0), (zeta, delta)), -1.0)
        den = _bmul(_bmul(_bmul(_bsum((zeta, delta), (z1, 0.0), -1.0), lin), G), H)
        total = _bsum(total, _bmul(_bdiv(_bmul(c, R), den), (zeta, delta)))
    # the radius sums n nonnegative terms in turn
    return total[0] / n, (total[1] / n + error) * (1.0 + _gamma(4 * n))


def _residue_poisson(graph: _LevelGraph):
    """z1, z2 -> (value, proven error bound) of a level graph's Poisson
    integral as a residue sum; see measure_integrator.

    The coefficients of G = E - z2 D are e_k - z2 d_k, each one step of
    the kind _horner bounds, so within (b_e + gamma_4 |e|) + |z2| (b_d +
    gamma_4 |d|) of the exact ones, b the coefficient bounds of the level
    polynomials; likewise H.  Every point and disc lies in the closed unit
    disc, so the moduli of a polynomial's derivatives there are at most
    those of its majorant at 1, made once per level.  The radii are built
    from nonnegative terms by chains of fewer than K/2 = 64 (m + 4)
    operations, each within 2u (one ulp for a modulus), so scaling them by
    1 + gamma_K covers their own rounding.
    """
    (d, ed), (e, ee), res = graph.level_polynomials
    md, me = [abs(c) for c in d], [abs(c) for c in e]
    ad = [b + _G4 * c for b, c in zip(ed, md)]
    ae = [b + _G4 * c for b, c in zip(ee, me)]
    td, te, tr = (_taylor([abs(c) + b for c, b in zip(*p)]) for p in ((d, ed), (e, ee), res))
    m, alpha = len(d) - 1, graph.alpha.alpha
    inflate = 1.0 + _gamma(128 * (m + 4))

    def at(z1: complex, z2: complex) -> tuple:
        zc1, zc2, t2 = z1.conjugate(), z2.conjugate(), abs(z2)
        g = ([a - z2 * b for a, b in zip(e, d)], [a + t2 * b for a, b in zip(ae, ad)])
        h = ([a - zc2 * b for a, b in zip(d, e)], [a + t2 * b for a, b in zip(ad, ae)])
        b1 = _one_minus_square(z1)
        c = _bmul((alpha, 0.0), _bmul(b1, _one_minus_square(z2)))
        Ga = _horner(*g, z1, z1)[0]
        if not m:
            den = _bmul(_bmul(b1, Ga), _horner(*h, z1, z1)[0])
            return _finish(_bdiv(_bmul(c, _horner(*res, z1, z1)[0]), den), inflate)
        # the majorants' slopes of G and H, from those of D and E
        g1, g2 = te[0] + t2 * td[0], te[1] + t2 * td[1]
        h1, h2, h3 = td[0] + t2 * te[0], td[1] + t2 * te[1], td[2] + t2 * te[2]
        roots = _roots(h[0])
        if roots is None:
            return _finish(_contour_sum(z1, c, (g, h, res), (g1, h1, tr[0])), inflate)
        near = min(range(m), key=lambda j: abs(roots[j] - z1))
        jets = [_jet(*h, w, z1) if j == near else _horner(*h, w, w) for j, w in enumerate(roots)]
        radii = []
        for w, (Hw, Hp, *_) in zip(roots, jets):
            low = abs(Hp[0]) * (1.0 - 8.0 * _U) - Hp[1]
            rho = m * (abs(Hw[0]) + Hw[1]) / low * inflate if low > 0.0 else math.inf
            radii.append(rho if abs(w) + rho <= 1.0 else math.inf)
        if math.inf in radii or any(
                abs(roots[i] - roots[j]) * (1.0 - 8.0 * _U) <= radii[i] + radii[j]
                for i in range(m) for j in range(i)):
            return _finish(_contour_sum(z1, c, (g, h, res), (g1, h1, tr[0])), inflate)
        total = (0j, 0.0)
        for j, (w, rho, jet) in enumerate(zip(roots, radii, jets)):
            Hp = _wider(jet[1], 2.0 * rho * h2)
            lin = _bsum((1 + 0j, 0.0), _bmul((zc1, 0.0), (w, rho)), -1.0)
            (Gw, Gq, *_), (Rw, Rq, *_) = _horner(*g, w, z1), _horner(*res, w, z1)
            Gw, Rw = _wider(Gw, rho * g1), _wider(Rw, rho * tr[0])
            if j != near:
                den = _bmul(_bmul(_bmul(_bsum((w, rho), (z1, 0.0), -1.0), lin), Gw), Hp)
                total = _bsum(total, _bdiv(_bmul(c, Rw), den))
                continue
            # the pair z1, w: phi[z1, w] = (N[z1, w] M(w) - N(w) M[z1, w])/(M(z1) M(w))
            # with N = c Res and M = (1 - conj(z1) zeta) G H[zeta, w]
            Gq, Rq = _wider(Gq, rho * g2), _wider(Rq, rho * tr[1])
            Hq, Hs = _wider(jet[2], rho * h2), _wider(jet[3], 2.0 * rho * h3)
            Aa, Aw = _bmul(b1, Ga), _bmul(lin, Gw)
            Aq = _bsum(_bmul((-zc1, 0.0), Gw), _bmul(b1, Gq))
            Ma, Mw = _bmul(Aa, Hq), _bmul(Aw, Hp)
            Mq = _bsum(_bmul(Aq, Hp), _bmul(Aa, Hs))
            num = _bsum(_bmul(Rq, Mw), _bmul(Rw, Mq), -1.0)
            total = _bsum(total, _bmul(c, _bdiv(num, _bmul(Ma, Mw))))
        return _finish(total, inflate)

    return at


def measure_integrator(mu: ClarkMeasure2D, grid: QuadratureGrid = None):
    """z -> Poisson integral of mu with an error bound.

    Antidiagonal components are integrated in closed form by the kernel
    semigroup at w = z1 z2 (see _antidiagonal_poisson).  A line {zeta_1 =
    tau} carrying c times Lebesgue measure contributes c P_{z1}(tau) exactly,
    since the mean of P_{z2} over the circle is 1; its bound is the rounding
    of that closed form.  The tail term is tail_bound times the sup of the
    integrand over the omitted mass: sup P_{z1 z2} when mu holds only
    antidiagonals, sup P_{z1} sup P_{z2} otherwise.  A point off the open
    bidisc raises ValueError.  The path of each graph is picked here, once.

    A graph built by rif_clark_measure, whose rule and weight are still
    those of its level (see rif2d._LevelGraph), is integrated as a residue
    sum, with no grid.  With D, E and Res its level polynomials,
    G = E - z2 D and H = D - conj(z2) E, on the circle
    P_{z2}(conj B_alpha) W_alpha = alpha (1 - |z2|^2) Res/(G H) and
    P_{z1}(zeta) = (1 - |z1|^2) zeta/((zeta - z1)(1 - conj(z1) zeta)), so
    the integral over dm = dzeta/(2 pi i zeta) is the sum of the residues
    of F = alpha (1-|z1|^2)(1-|z2|^2) Res/((zeta - z1)(1 - conj(z1) zeta) G H)
    inside the disc.  On the circle |E| = |D| and |z2| < 1, so by Rouche's
    theorem G has E's zeros in the disc, none, and H has D's, all m of
    them: the poles are z1 and the m roots of H.  A root r of H is found in
    closed form (degree <= 2) or from the companion matrix, and its residue
    is Res(r)/((r - z1)(1 - conj(z1) r) G(r) H'(r)) times the constant.
    The root nearest z1 is paired with it (the coinciding-pole rule): their
    two residues, which grow with opposite signs as r nears z1, are
    replaced by the divided difference phi[z1, r] of phi = F (zeta - z1)
    (zeta - r), from divided differences of the polynomials by synthetic
    division, which do not cancel (at alpha = -1 the example's H at z = 0
    is 4 zeta + 1e-16, its root 3e-17 from z1 = 0).  The cost of a point
    does not depend on grid.

    The bound is proven.  Each polynomial value, derivative and divided
    difference carries the running error bound of its Horner pass (see
    _jet), which includes the bounds on its coefficients' errors.  The true
    roots are placed by the inclusion |r* - r| <= rho = m |H(r)|/|H'(r)|: a
    degree-m H has a zero that close to any r, since |H'/H| <= sum
    1/|r - r_j|, and when the m discs are pairwise disjoint each holds
    exactly one.  Over a disc inside the unit disc, a polynomial whose
    coefficient moduli are at most those of M moves by at most rho M'(1),
    its derivative by rho M''(1), and its divided differences P[z1, .] and
    P[z1, ., .] by rho M''(1)/2 and rho M'''(1)/3.  Every quantity is then
    a ball (centre, radius) holding its exact value at the true root,
    carried through the residue formulas by ball arithmetic that adds its
    own rounding (_bsum, _bmul, _bdiv); the radii, built from nonnegative
    terms, are scaled by 1 + gamma_K at the end to cover their own
    rounding.  Where the discs overlap or a ball of H' holds 0 (roots that
    cluster, as for a p symmetric in z1 at z = 0), the sum is taken instead
    by the trapezoid rule on a circle enclosing every pole, with a proven
    truncation bound (see _contour_sum); where that cannot be certified
    either, or a denominator's ball holds 0, the bound is inf.

    Any other graph (a product branch, a graph built by hand, a level graph
    whose rule or weight was replaced) runs the node quadrature of
    integrate_measure2d over real rows made once here from mu's samples on
    grid (see _graph_poisson), and adds its grid-halving estimate.
    """
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    antidiagonal = _antidiagonal_poisson(mu._etas, mu.weights)
    levels = [_level_graph(comp) for comp in mu.graphs]
    residue_sums = [_residue_poisson(level) for level in levels if level is not None]
    on_grid = [j for j, level in enumerate(levels) if level is None]
    graph_poisson = _graph_poisson(mu, grid, on_grid) if on_grid else None
    taus = np.array([line.tau.value for line in mu.lines], dtype=complex)
    constants = np.array([line.constant for line in mu.lines], dtype=float)
    # a line term rounds within gamma_6 |z1|^2/(1 - |z1|^2) + gamma_8 of
    # itself (1 - |z1|^2 from a rounded |z1|, then a quotient of rounded
    # squares), their sum within gamma_(number of lines), and adding it to
    # the value once more
    line_rounding = _gamma(8 + len(taus))

    def integrate(z) -> IntegralResult:
        z1, z2 = _interior_point(z, 2)
        value = antidiagonal(z1 * z2) if len(mu.thetas) else 0.0
        error = 0.0
        if mu.tail_bound:
            if not (mu.graphs or mu.lines):
                error += mu.tail_bound * _poisson_sup(z1 * z2)
            else:
                error += mu.tail_bound * _poisson_sup(z1) * _poisson_sup(z2)
        if graph_poisson:
            graph_value, graph_error = graph_poisson(z1, z2)
            value += graph_value
            error += graph_error
        for residue_sum in residue_sums:
            graph_value, graph_error = residue_sum(z1, z2)
            value += graph_value
            error += graph_error + _G1 * abs(value)  # the sum rounds once
        if len(taus):
            lines = float(pairwise_sum(constants * poisson_kernel(z1, taus)))
            value += lines
            square = abs(z1) ** 2
            error += (lines * (_gamma(6) * square / (1.0 - square) + line_rounding)
                      + _G1 * abs(value))
        return IntegralResult(value, error)

    return integrate


def embed_integrator(em: EmbeddedClarkND, grid: QuadratureGrid = None):
    """Poisson integrator for an embedded measure, in closed form.

    The Clark measure of phi(z1 ... zd) puts the weight of each atom eta of
    the one-variable measure on the subtorus {zeta_1 ... zeta_d = eta}, so
    the integral is sum_k w_k P_w(eta_k) at w = z1 ... zd in every
    dimension (see _antidiagonal_poisson).  The error bound is the tail
    term tail_bound * sup P_w = tail_bound * (1+|w|)/(1-|w|), a proven bound
    on the contribution of the omitted atoms.  grid is unused, since no
    quadrature is involved; it is accepted so that every integrator takes
    the same arguments.  A point with the wrong number of coordinates or off
    the open polydisc raises ValueError.
    """
    base = em.base
    d = em.dimension
    antidiagonal = _antidiagonal_poisson(np.exp(1j * base.thetas), base.weights)

    def integrate(z) -> IntegralResult:
        w = math.prod(_interior_point(z, d))
        value = antidiagonal(w)
        return IntegralResult(value, base.tail_bound * _poisson_sup(w))

    return integrate


def product_integrator(P: ProductInner, alpha, grid: QuadratureGrid = None,
                       K: int = PRODUCT_TRUNCATION):
    """Poisson integrator running through the product fiber quadrature.

    The fiber of (P, alpha, grid, K) is built here, once, and serves every
    point and the mass check (the point 0).  It has one side per coordinate:
    the grid nodes of a Blaschke outer factor, the companion-matrix roots and
    weights of a Blaschke fiber, or the levels and truncation remainders of a
    Lorentzian (singular) factor.  Per point the integrand
    P_{z1}(zeta_1) P_{z2}(zeta_2) is split by factor: one Poisson profile per
    side, then the one combine, a node-wise product and one Richardson mean.
    On a Lorentzian side the profile is real and closed form,
    lor P_z(eta) = 2q/((y - p)^2 + q^2) over the level coordinate y, summed
    over the same window |k| <= K as the generic pass: directly on the few
    rows whose poles lie near the level range, and by one Taylor expansion
    about its centre on the rest, whose proven remainder is added to the
    point's error bound.  The build sums the window behind the truncation
    remainders the same way, as that pass at z = 0, and their proven error
    joins every point's bound.  The sum over all k in closed form would be
    the fiber factor's own Herglotz identity, which would make this check
    circular, so it is not used.  A point's result does not depend on which
    points were evaluated before it.
    """
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    return _fiber_integrator(_product_fiber(P, _as_alpha(alpha), grid, K))


def _fiber_integrator(fiber):
    """z -> the Poisson integral of a built product fiber at z."""

    def integrate(z) -> IntegralResult:
        z1, z2 = _interior_point(z, 2)
        return fiber.combine(fiber.poisson_profile(0, z1), fiber.poisson_profile(1, z2))

    return integrate


def _default_integrator(mu, grid):
    if isinstance(mu, EmbeddedClarkND):
        return embed_integrator(mu, grid), mu.dimension
    if isinstance(mu, ClarkMeasure2D):
        return measure_integrator(mu, grid), 2
    raise TypeError(f"no default integrator for {type(mu).__name__}")


# ---------------------------------------------------------------------------
# checks


def poisson_identity_check(mu, phi, alpha, test_points, grid: QuadratureGrid = None,
                           base_rel: float = EMBED_BASE_REL, integrate=None,
                           seed: int = None) -> VerificationReport:
    """Per-point residuals of the Poisson identity against herglotz_rhs.

    Each point passes when its relative error is within base_rel plus the
    integrator's reported error bound scaled by the right-hand side.
    """
    alpha = _as_alpha(alpha)
    if integrate is None:
        integrate, _ = _default_integrator(mu, grid)
    residuals = []
    for z in test_points:
        rhs = herglotz_rhs(phi, alpha, z)
        res = integrate(z)
        lhs = float(np.real(res.value))
        residuals.append(
            IdentityResidual(
                z=tuple(complex(c) for c in z),
                lhs=lhs,
                rhs=rhs,
                relative_error=abs(lhs - rhs) / rhs,
                tolerance=base_rel + res.error_bound / rhs,
            )
        )
    return VerificationReport(
        identity_residuals=tuple(residuals),
        tolerances={"identity_base_rel": base_rel},
        seed=seed,
    )


def total_mass_check(mu, phi, alpha, grid: QuadratureGrid = None,
                     base_abs: float = 1e-8, integrate=None,
                     dimension: int = None) -> MassCheck:
    """Total mass against the Herglotz quotient at the origin.

    The Poisson kernel is 1 at z = 0, so the mass is the identity integrand
    there and this check equals the z = 0 identity residual exactly.
    """
    alpha = _as_alpha(alpha)
    if integrate is None:
        integrate, inferred = _default_integrator(mu, grid)
        dimension = dimension if dimension is not None else inferred
    elif dimension is None:
        dimension = 2
    origin = (0j,) * dimension
    expected = herglotz_rhs(phi, alpha, origin)
    res = integrate(origin)
    computed = float(np.real(res.value))
    return MassCheck(
        computed=computed,
        expected=expected,
        error=abs(computed - expected),
        tolerance=base_abs + res.error_bound,
    )


def support_inclusion_check(mu: ClarkMeasure2D, boundary_map, alpha, exemptions=()):
    """16 samples of every positive-weight component checked against the
    level set: |Phi*(s) - alpha| <= SUPPORT_TOL, unless s is within
    SUPPORT_TOL of a declared singular/accumulation point.

    boundary_map has an array form, boundary_map.array(z1, z2), mapping
    coordinate arrays to Phi* there, NaN where the nontangential value does
    not exist, and raising ValueError for a point more than 1e-6 off the
    circle (the maps of this module are such).  Every component's samples
    are stacked and mapped in one call, and the exemptions tested as arrays.
    """
    alpha_value = _as_alpha(alpha).alpha
    zeta = np.exp(1j * np.mod(0.37 + TWO_PI * np.arange(16) / 16, TWO_PI))
    antidiagonals = mu._etas[mu.weights > 0, None] * np.conj(zeta)
    firsts, seconds = [np.tile(zeta, len(antidiagonals))], [antidiagonals.ravel()]
    for comp in mu.graphs:
        z2 = comp.second_coordinate(zeta)
        defined = np.isfinite(z2)
        firsts.append(zeta[defined])
        seconds.append(z2[defined])
    for line in mu.lines:
        firsts.append(np.full(len(zeta), line.tau.value))
        seconds.append(zeta)
    z1, z2 = np.concatenate(firsts), np.concatenate(seconds)
    if not len(z1):
        return ()
    deviation = np.abs(boundary_map.array(z1, z2) - alpha_value)
    exempt = np.zeros(len(z1), dtype=bool)
    for pair in exemptions:
        e1, e2 = (p.value if isinstance(p, TorusPoint) else complex(p) for p in pair)
        exempt |= np.maximum(np.abs(z1 - e1), np.abs(z2 - e2)) <= SUPPORT_TOL
    return tuple(
        SupportSample(point=(s1, s2), deviation=dev if math.isfinite(dev) else None,
                      exempt=ex, tolerance=SUPPORT_TOL)
        for s1, s2, dev, ex in zip(z1.tolist(), z2.tolist(), deviation.tolist(), exempt.tolist())
    )


def _graph_fourier_means(g, w, kmax: int, component_index: int) -> tuple:
    """(full, half): the node and even-node means of w zeta^(-k1) g^(-k2)
    over the grid zeta_j = e^{2 pi i j/N}, as (2 kmax, 2 kmax + 1) arrays
    indexed [k2 - 1 or kmax - k2 - 1 (k2 < 0), k1 + kmax], |k1|, |k2| <= kmax.

    The rows w g^(-k2) are running products of w with 1/g (k2 > 0) and g
    (k2 < 0), stacked and put under the undefined-node rule once.  The sum
    of a row against zeta^(-k1) is its discrete Fourier transform at
    k1 mod N, so one np.fft.fft of the stack gives every k1.  The even
    nodes' sum is (F[k] + F[k + N/2])/2 of the same transform for even N;
    for odd N the odd nodes are zeroed and the stack transformed again.
    """
    n = len(g)
    stack = np.empty((2 * kmax, n), dtype=complex)
    with np.errstate(all="ignore"):
        for first, step in ((0, 1.0 / g), (kmax, g)):
            np.multiply(w, step, out=stack[first])
            for row in range(first + 1, first + kmax):
                np.multiply(stack[row - 1], step, out=stack[row])
    stack = _zero_undefined(stack, component_index)
    columns = np.arange(-kmax, kmax + 1) % n
    transform = np.fft.fft(stack, axis=-1)
    full = transform[:, columns] / n
    if n % 2 == 0:
        half = (transform[:, columns] + transform[:, (columns + n // 2) % n]) / n
    else:
        stack[:, 1::2] = 0.0
        half = np.fft.fft(stack, axis=-1)[:, columns] / ((n + 1) // 2)
    return full, half


def fourier_rp_check(mu: ClarkMeasure2D, kmax: int, grid: QuadratureGrid = None):
    """Mixed-sign Fourier coefficients of the measure.

    For a Clark measure of an inner function all of them vanish; each entry's
    tolerance is FOURIER_BASE_TOL plus the measure's tail bound plus the
    grid-halving estimate of its own quadrature, |full - half|: the change
    of the entry's node mean on the grid when only the even nodes are kept.
    An antidiagonal or a line contributes a weight times a grid moment
    mean(zeta^m) and its even-node mean, each taken only for the m it uses.
    A graph's node means over every (k1, k2) come from one discrete Fourier
    transform of its rows w g^(-k2) (see _graph_fourier_means), on the
    graph's samples shared with measure_integrator.  A graph node where g
    or the weight is undefined counts as 0, by the one undefined-node rule
    of torus_core.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    etas, weights = mu._etas, mu.weights
    graph_means = [_graph_fourier_means(g, w, kmax, idx)
                   for idx, (g, w) in enumerate(mu._graph_nodes(grid), start=len(etas))]
    zeta = grid.points() if len(etas) or mu.lines else None

    @functools.cache
    def moment(m):
        """mean(zeta^m) over the grid and over its even nodes."""
        return complex(np.mean(zeta ** m)), complex(np.mean(zeta[::2] ** m))

    # antidiagonal moments sum_j w_j eta_j^(-k2) depend on k2 alone: running
    # products w eta^k and w conj(eta)^k, each reduced by np.sum's pairwise
    # sum, since a BLAS dot's result depends on its thread count
    eta_moments = {}
    up, down, conj_etas = weights.astype(complex), weights.astype(complex), np.conj(etas)
    for k in range(1, kmax + 1):
        up *= etas
        down *= conj_etas
        eta_moments[-k], eta_moments[k] = complex(np.sum(up)), complex(np.sum(down))

    pairs = [
        (k1, k2)
        for k1 in range(-kmax, kmax + 1)
        for k2 in range(-kmax, kmax + 1)
        if k1 * k2 < 0
    ]
    entries = []
    for k1, k2 in pairs:
        val = val_half = 0j
        if len(etas):
            a = eta_moments[k2]
            full, half = moment(k2 - k1)
            val, val_half = a * full, a * half
        row = k2 - 1 if k2 > 0 else kmax - k2 - 1
        for full, half in graph_means:
            val += complex(full[row, k1 + kmax])
            val_half += complex(half[row, k1 + kmax])
        for line in mu.lines:
            contrib = line.constant * line.tau.value ** (-k1)
            full, half = moment(-k2)
            val += contrib * full
            val_half += contrib * half
        entries.append(
            FourierEntry(
                k=(k1, k2),
                modulus=float(abs(val)),
                tolerance=FOURIER_BASE_TOL + mu.tail_bound + float(abs(val - val_half)),
            )
        )
    return tuple(entries)


def product_fourier_rp_check(P: ProductInner, alpha, kmax: int,
                             grid: QuadratureGrid = None, K: int = PRODUCT_TRUNCATION):
    """Mixed-sign Fourier coefficients of a product measure.

    Branch graphs of a singular fiber oscillate without bound near the
    fiber atom, so sampling the curve components on a grid cannot converge
    there.  Each coefficient is instead integrated by the product path,
    whose substitution flattens the fiber oscillation; its tolerance is
    FOURIER_BASE_TOL plus the integrator's reported bound.  The fiber is
    built once per call, as in product_integrator, and each side's profiles
    of the monomials w^{-m}, |m| <= kmax, once (on a Lorentzian side in one
    closed-form pass, split into near and far rows, its bound carrying the
    truncation remainders' error), so every entry (k1, k2) is one combine of
    the profiles of z_1^{-k1} and z_2^{-k2}.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    return _fiber_fourier_entries(_product_fiber(P, _as_alpha(alpha), grid, K), kmax)


def _fiber_fourier_entries(fiber, kmax: int) -> tuple:
    """The mixed-sign Fourier entries, |k1|, |k2| <= kmax, of a built product fiber."""
    exponents = [m for m in range(-kmax, kmax + 1) if m]
    profiles = [fiber.moment_profiles(axis, kmax) for axis in (0, 1)]
    entries = []
    for k1 in exponents:
        for k2 in exponents:
            if k1 * k2 > 0:
                continue
            res = fiber.combine(profiles[0][k1], profiles[1][k2])
            entries.append(
                FourierEntry(
                    k=(k1, k2),
                    modulus=float(abs(res.value)),
                    tolerance=FOURIER_BASE_TOL + res.error_bound,
                )
            )
    return tuple(entries)


# ---------------------------------------------------------------------------
# boundary maps for the support check


class _BoundaryMap:
    """Phi* on the torus in array form, with its one-point case as a call.

    array(z1, z2, ...) maps equal-shaped coordinate arrays to the values of
    Phi*, NaN where the nontangential value does not exist; a coordinate
    more than 1e-6 off the circle raises ValueError.  rule(point) is the
    one-point case: the value, or None where it is undefined.
    """

    def __init__(self, array):
        self.array = array

    def __call__(self, point):
        coords = (np.array([c.value if isinstance(c, TorusPoint) else complex(c)]) for c in point)
        value = complex(self.array(*coords)[0])
        return value if cmath.isfinite(value) else None


def _circle_angles(z: np.ndarray) -> np.ndarray:
    """Angles in [0, 2pi) of points on the circle, reduced as
    TorusPoint.from_complex(w, tol=1e-6) reduces them (near a singular atom
    the boundary phase is steep enough to tell), and as there, a point more
    than 1e-6 off the circle raises ValueError."""
    off = np.abs(np.abs(z) - 1.0) > 1e-6
    if off.any():
        w = complex(z[off][0])
        raise ValueError(f"not a unimodular value: |{w}| = {abs(w)}")
    return _canonical_angles(np.angle(z))


def embedding_boundary_map(phi: InnerFunction1D, d: int = 2):
    """(s_1, ..., s_d) -> phi*(s_1 ... s_d), NaN (one point: None) where undefined."""
    return _BoundaryMap(
        lambda *coords: boundary_values_array(phi, _circle_angles(math.prod(coords))))


def product_boundary_map(P: ProductInner):
    """(s_1, s_2) -> phi*(s_1) psi*(s_2), NaN (one point: None) where undefined."""
    return _BoundaryMap(lambda z1, z2: boundary_values_array(P.phi, _circle_angles(z1))
                        * boundary_values_array(P.psi, _circle_angles(z2)))


def rif_boundary_map(R: RIF_n1):
    """(s_1, s_2) -> phi*(s_1, s_2), alpha_tau at a singular point (tau,
    gamma), NaN (one point: None) where phi* is undefined."""

    def array(z1, z2):
        for z in (z1, z2):
            _circle_angles(z)
        return _boundary_values(R, z1, z2)

    return _BoundaryMap(array)
