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
exactly P_{z1 ... zd}(eta).  Graph and line components run the one node
loop of integrate_measure2d over nodes sampled once per integrator.  The
generic quadrature integrators (integrate_measure2d, integrate_embed_nd)
are the independent oracle the tests pin the closed form against.

A VerificationReport holds four kinds of section, each a frozen dataclass.
Its JSON form is written from the dataclass fields (complex values as
[re, im] pairs, tuples as lists) and read back through one decoder per
field name (_FIELD_VALUES; a field not listed there is a float).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .embed import EmbeddedClarkND
from .inner1d import InnerFunction1D, Unimodular, boundary_value
from .product2d import PRODUCT_TRUNCATION, ProductInner, _product_fiber
from .rif2d import RIF_n1, RIFError, rif_boundary_value
from .torus_core import (
    TWO_PI,
    Antidiagonal,
    ClarkMeasure2D,
    IntegralResult,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    _component_nodes,
    _integrate_nodes,
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
    The value is exact up to rounding; no quadrature is involved.  A call
    runs weights * poisson_kernel(w, etas) in place in buffers made once,
    since atom-sized temporaries made glibc trim and regrow the heap at
    every point on some runs.  The zero tail is pairwise_sum's padding.
    """
    n = len(etas)
    diff = np.empty_like(etas)
    padded = np.zeros(1 << (n - 1).bit_length() if n else 0)
    kernel = padded[:n]

    def at(w: complex) -> float:
        np.subtract(etas, w, out=diff)
        np.abs(diff, out=kernel)
        np.square(kernel, out=kernel)
        np.divide(1.0 - abs(w) ** 2, kernel, out=kernel)
        np.multiply(weights, kernel, out=kernel)
        return float(pairwise_sum(padded))

    return at


def measure_integrator(mu: ClarkMeasure2D, grid: QuadratureGrid = None):
    """z -> Poisson integral of mu with an error bound.

    Antidiagonal components are integrated in closed form by the kernel
    semigroup at w = z1 z2 (see _antidiagonal_poisson).  Graph and line
    components run one node loop, the generic quadrature of
    integrate_measure2d, over nodes and weights sampled on grid once here,
    so a point costs one kernel pass per coordinate.  The tail term is
    tail_bound times the sup of the integrand over the omitted mass:
    sup P_{z1 z2} when mu holds only antidiagonals, sup P_{z1} sup P_{z2}
    otherwise.  A point off the open bidisc raises ValueError.
    """
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    etas, weights, graphs = mu._antidiagonal_block
    antidiagonal = _antidiagonal_poisson(etas, weights)
    nodes = tuple(_component_nodes(graphs, mu.lines, grid.points()))

    def integrate(z) -> IntegralResult:
        z1, z2 = _interior_point(z, 2)
        value = antidiagonal(z1 * z2) if len(etas) else 0.0
        error = 0.0
        if mu.tail_bound:
            if not nodes:
                error += mu.tail_bound * _poisson_sup(z1 * z2)
            else:
                error += mu.tail_bound * _poisson_sup(z1) * _poisson_sup(z2)
        if nodes:
            def f(w1, w2):
                return poisson_kernel(z1, w1) * poisson_kernel(z2, w2)

            res = _integrate_nodes(nodes, f, 0.0)
            value += float(np.real(res.value))
            error += res.error_bound
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
    antidiagonal = _antidiagonal_poisson(base.points_array(), base.weights_array())

    def integrate(z) -> IntegralResult:
        w = math.prod(_interior_point(z, d))
        value = antidiagonal(w)
        return IntegralResult(value, base.tail_bound * _poisson_sup(w))

    return integrate


def product_integrator(P: ProductInner, alpha, grid: QuadratureGrid = None,
                       K: int = PRODUCT_TRUNCATION):
    """Poisson integrator running through the product fiber quadrature.

    The fiber geometry of (P, alpha, grid, K) is built here, once, and
    serves every point and the mass check (the point 0): the levels and
    truncation remainders of a singular fiber factor, or the
    companion-matrix roots and weights of a Blaschke one.  Per point the
    integrand P_{z1}(zeta_1) P_{z2}(zeta_2) is split by factor: one pass of
    the fiber coordinate's kernel over its atoms (for exp x exp, of each
    factor's kernel over its Lorentzian profile), then one weighted sum over
    the outer nodes.  On a singular fiber that pass is real and closed form,
    lor P_z(eta) = 2q/((y - p)^2 + q^2) over the level coordinate y, summed
    over the same window |k| <= K as the generic pass: directly on the few
    rows whose poles lie near the level range, and by one Taylor expansion
    about its centre on the rest, whose proven remainder is added to the
    point's error bound.  The sum over all k in closed form would be the
    fiber factor's own Herglotz identity, which would make this check
    circular, so it is not used.  A point's result does not depend on which
    points were evaluated before it.
    """
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    fiber = _product_fiber(P, _as_alpha(alpha), grid, K)

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

    boundary_map maps a torus point pair to Phi* there, or None where the
    nontangential value does not exist.
    """
    alpha_value = _as_alpha(alpha).alpha
    zeta = np.exp(1j * np.mod(0.37 + TWO_PI * np.arange(16) / 16, TWO_PI))
    exempt_points = [
        tuple(p.value if isinstance(p, TorusPoint) else complex(p) for p in pair)
        for pair in exemptions
    ]

    def is_exempt(point):
        return any(
            max(abs(point[0] - e[0]), abs(point[1] - e[1])) <= SUPPORT_TOL
            for e in exempt_points
        )

    def record(point):
        value = boundary_map(point)
        deviation = None if value is None else float(abs(complex(value) - alpha_value))
        samples.append(
            SupportSample(point=point, deviation=deviation,
                          exempt=is_exempt(point), tolerance=SUPPORT_TOL)
        )

    samples = []
    for comp in mu.curves:
        if isinstance(comp.kind, Antidiagonal) and comp.weight == 0.0:
            continue
        for z1, z2 in zip(zeta, comp.second_coordinate(zeta)):
            if np.isfinite(z2.real) and np.isfinite(z2.imag):
                record((complex(z1), complex(z2)))
    for line in mu.lines:
        for z2 in zeta:
            record((line.tau.value, complex(z2)))
    return tuple(samples)


def fourier_rp_check(mu: ClarkMeasure2D, kmax: int, grid: QuadratureGrid = None):
    """Mixed-sign Fourier coefficients of the measure.

    For a Clark measure of an inner function all of them vanish; each entry's
    tolerance is FOURIER_BASE_TOL plus the measure's tail bound plus the
    grid-halving estimate of its own quadrature.  A graph node where g or
    the weight is undefined counts as 0, by torus_core.periodic_means.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    zeta = grid.points()
    etas, weights, graphs = mu._antidiagonal_block
    graph_data = [(g, w) for _, _, g, w in _component_nodes(graphs, (), zeta)]

    moments = {m: complex(np.mean(zeta ** m)) for m in range(-2 * kmax, 2 * kmax + 1)}
    moments_half = {m: complex(np.mean(zeta[::2] ** m)) for m in moments}
    # antidiagonal moments depend on k2 alone: one pass over the atoms each,
    # into one buffer rather than an atom-sized temporary per k2
    eta_moments = {}
    if len(etas):
        power = np.empty_like(etas)
        eta_moments = {k2: complex(weights @ np.power(etas, -k2, out=power))
                       for k2 in range(-kmax, kmax + 1) if k2}

    pairs = [
        (k1, k2)
        for k1 in range(-kmax, kmax + 1)
        for k2 in range(-kmax, kmax + 1)
        if k1 * k2 < 0
    ]
    entries = []
    for k1, k2 in pairs:
        val = 0j
        val_half = 0j
        if len(etas):
            a = eta_moments[k2]
            val += a * moments[k2 - k1]
            val_half += a * moments_half[k2 - k1]
        for g, w in graph_data:
            with np.errstate(all="ignore"):
                full, half = periodic_means(w * zeta ** (-k1) * g ** (-k2))
            val += complex(full)
            val_half += complex(half)
        for line in mu.lines:
            contrib = line.constant * line.tau.value ** (-k1)
            val += contrib * moments[-k2]
            val_half += contrib * moments_half[-k2]
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
    FOURIER_BASE_TOL plus the integrator's reported bound.  The fiber
    geometry is built once per call, and the profiles of the monomials
    w^{-m}, |m| <= kmax, of each factor once (on a singular fiber in one
    closed-form pass, split into near and far rows as in
    product_integrator), so every entry (k1, k2) is one outer sum over the
    profiles of z_1^{-k1} and z_2^{-k2}.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    alpha = _as_alpha(alpha)
    grid = grid if grid is not None else QuadratureGrid(DEFAULT_GRID_N)
    fiber = _product_fiber(P, alpha, grid, K)
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


def embedding_boundary_map(phi: InnerFunction1D, d: int = 2):
    """(s_1, ..., s_d) -> phi*(s_1 ... s_d), None where undefined."""

    def rule(point):
        w = 1.0 + 0.0j
        for c in point:
            w *= complex(c)
        bv = boundary_value(phi, TorusPoint.from_complex(w, tol=1e-6))
        return bv.value if isinstance(bv, Unimodular) else None

    return rule


def product_boundary_map(P: ProductInner):
    def rule(point):
        z1, z2 = point
        b1 = boundary_value(P.phi, TorusPoint.from_complex(complex(z1), tol=1e-6))
        b2 = boundary_value(P.psi, TorusPoint.from_complex(complex(z2), tol=1e-6))
        if isinstance(b1, Unimodular) and isinstance(b2, Unimodular):
            return b1.value * b2.value
        return None

    return rule


def rif_boundary_map(R: RIF_n1):
    def rule(point):
        try:
            return rif_boundary_value(R, point)
        except RIFError:
            return None

    return rule
