"""One-variable inner functions in factored form.

An inner function here is a unimodular constant times a monomial, a finite
Blaschke product, and a singular part with finitely many point masses:

    phi(z) = e^{ia} z^k prod_j (a_j - z)/(1 - conj(a_j) z)
             * exp(-sum_j c_j (xi_j + z)/(xi_j - z)).

The module evaluates phi and phi' inside the disc, takes boundary values on
the circle (exact unimodular phase away from singular atoms, Zero at them),
and computes angular derivative moduli both by radial extrapolation and by
the boundary closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .torus_core import (
    ANGLE_TOL,
    DiskPoint,
    TorusPoint,
    UnimodularConstant,
    circle_distance,
)

__all__ = [
    "BoundaryValue",
    "Unimodular",
    "Zero",
    "Undefined",
    "ZERO",
    "UNDEFINED",
    "InnerFunction1D",
    "eval_inner",
    "boundary_value",
    "boundary_values_array",
    "derivative",
    "angular_derivative_modulus",
    "boundary_derivative_modulus",
]

_UNIMODULAR_TOL = 1e-10
_DIVERGENCE_THRESHOLD = 1e12


class BoundaryValue:
    """Radial boundary limit of an inner function at a circle point."""

    __slots__ = ()


@dataclass(frozen=True)
class Unimodular(BoundaryValue):
    value: complex

    def __post_init__(self):
        if abs(abs(self.value) - 1.0) > _UNIMODULAR_TOL:
            raise ValueError(f"boundary value {self.value} is not unimodular")


class Zero(BoundaryValue):
    __slots__ = ()

    def __repr__(self):
        return "Zero"


class Undefined(BoundaryValue):
    __slots__ = ()

    def __repr__(self):
        return "Undefined"


ZERO = Zero()
UNDEFINED = Undefined()


@dataclass(frozen=True)
class InnerFunction1D:
    """Factored inner function on the unit disc.

    Fields:
        unimodular_factor: constant e^{ia}.
        monomial_power: power k of the central monomial factor.
        blaschke_zeros: zeros a_j of the raw factors (a_j - z)/(1 - conj(a_j) z).
        singular_atoms: (location, mass) pairs of the singular part.
    """

    unimodular_factor: UnimodularConstant = field(default_factory=UnimodularConstant.one)
    monomial_power: int = 0
    blaschke_zeros: tuple = ()
    singular_atoms: tuple = ()

    def __post_init__(self):
        if not isinstance(self.monomial_power, int) or self.monomial_power < 0:
            raise ValueError("monomial_power must be a nonnegative integer")
        zeros = tuple(a if isinstance(a, DiskPoint) else DiskPoint(a) for a in self.blaschke_zeros)
        object.__setattr__(self, "blaschke_zeros", zeros)
        atoms = []
        for xi, mass in self.singular_atoms:
            if not isinstance(xi, TorusPoint):
                xi = TorusPoint(xi)
            mass = float(mass)
            if not (mass > 0 and math.isfinite(mass)):
                raise ValueError("singular atom masses must be finite and positive")
            atoms.append((xi, mass))
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if circle_distance(atoms[i][0].theta, atoms[j][0].theta) <= ANGLE_TOL:
                    raise ValueError("singular atom locations must be pairwise distinct")
        object.__setattr__(self, "singular_atoms", tuple(atoms))

    @property
    def degree(self) -> int:
        """Total Blaschke-type degree k + number of zeros."""
        return self.monomial_power + len(self.blaschke_zeros)

    @property
    def has_singular_part(self) -> bool:
        return len(self.singular_atoms) > 0

    @property
    def is_blaschke_type(self) -> bool:
        return not self.has_singular_part

    def to_json_dict(self) -> dict:
        return {
            "unimodular": self.unimodular_factor.nu,
            "monomial": self.monomial_power,
            "blaschke_zeros": [[a.value.real, a.value.imag] for a in self.blaschke_zeros],
            "singular_atoms": [
                {"angle": xi.theta, "mass": mass} for xi, mass in self.singular_atoms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "InnerFunction1D":
        if not isinstance(data, dict):
            raise ValueError("function spec must be a JSON object")
        known = {"unimodular", "monomial", "blaschke_zeros", "singular_atoms"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown function spec keys: {sorted(unknown)}")
        nu = data.get("unimodular", 0.0)
        if isinstance(nu, bool) or not isinstance(nu, (int, float)):
            raise ValueError("'unimodular' must be a real angle")
        k = data.get("monomial", 0)
        if isinstance(k, bool) or not isinstance(k, int) or k < 0:
            raise ValueError("'monomial' must be a nonnegative integer")
        zeros_raw = data.get("blaschke_zeros", [])
        if not isinstance(zeros_raw, list):
            raise ValueError("'blaschke_zeros' must be a list of [re, im] pairs")
        zeros = []
        for entry in zeros_raw:
            if (not isinstance(entry, list) or len(entry) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)):
                raise ValueError("'blaschke_zeros' entries must be [re, im] pairs")
            zeros.append(DiskPoint(complex(entry[0], entry[1])))
        atoms_raw = data.get("singular_atoms", [])
        if not isinstance(atoms_raw, list):
            raise ValueError("'singular_atoms' must be a list of objects")
        atoms = []
        for entry in atoms_raw:
            if (not isinstance(entry, dict) or set(entry) != {"angle", "mass"}
                    or any(isinstance(entry[key], bool) or not isinstance(entry[key], (int, float))
                           for key in ("angle", "mass"))):
                raise ValueError("'singular_atoms' entries must be {angle, mass} objects")
            atoms.append((TorusPoint(float(entry["angle"])), float(entry["mass"])))
        return cls(
            unimodular_factor=UnimodularConstant.from_nu(float(nu)),
            monomial_power=k,
            blaschke_zeros=tuple(zeros),
            singular_atoms=tuple(atoms),
        )


def _as_interior(z) -> complex:
    if isinstance(z, DiskPoint):
        return z.value
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"point {z} is not inside the unit disc")
    return z


def eval_inner(phi: InnerFunction1D, z) -> complex:
    """Evaluate phi at an interior point."""
    w = _as_interior(z)
    value = complex(phi.unimodular_factor.alpha)
    if phi.monomial_power:
        value *= w ** phi.monomial_power
    for a in phi.blaschke_zeros:
        aj = a.value
        value *= (aj - w) / (1.0 - aj.conjugate() * w)
    if phi.singular_atoms:
        s = 0.0j
        for xi, mass in phi.singular_atoms:
            x = xi.value
            s += mass * (x + w) / (x - w)
        value *= cmath.exp(-s)
    return value


def derivative(phi: InnerFunction1D, z) -> complex:
    """Analytic derivative phi'(z) at an interior point.

    Accumulates (value, derivative) pairs over the factors so zeros of phi
    need no special casing.
    """
    w = _as_interior(z)
    value = complex(phi.unimodular_factor.alpha)
    deriv = 0.0j
    k = phi.monomial_power
    if k:
        fv = w ** k
        fd = k * w ** (k - 1)
        value, deriv = value * fv, deriv * fv + value * fd
    for a in phi.blaschke_zeros:
        aj = a.value
        denom = 1.0 - aj.conjugate() * w
        fv = (aj - w) / denom
        fd = (abs(aj) ** 2 - 1.0) / denom ** 2
        value, deriv = value * fv, deriv * fv + value * fd
    if phi.singular_atoms:
        s = 0.0j
        s_prime = 0.0j
        for xi, mass in phi.singular_atoms:
            x = xi.value
            s += mass * (x + w) / (x - w)
            s_prime += 2.0 * mass * x / (x - w) ** 2
        fv = cmath.exp(-s)
        fd = -fv * s_prime
        value, deriv = value * fv, deriv * fv + value * fd
    return deriv


def _near_singular_atoms(phi: InnerFunction1D, thetas: np.ndarray) -> np.ndarray:
    """Mask of the angles within ANGLE_TOL of a singular atom."""
    near = np.zeros(thetas.shape, dtype=bool)
    for xi, _ in phi.singular_atoms:
        delta = thetas - xi.theta
        near |= np.abs((delta + math.pi) % (2.0 * math.pi) - math.pi) <= ANGLE_TOL
    return near


def boundary_value(phi: InnerFunction1D, zeta: TorusPoint) -> BoundaryValue:
    """Radial boundary limit at a circle point: boundary_values_array at one
    angle, Unimodular away from singular atoms and ZERO at them.
    """
    if not isinstance(zeta, TorusPoint):
        zeta = TorusPoint(zeta)
    value = complex(boundary_values_array(phi, zeta.theta))
    return ZERO if cmath.isnan(value) else Unimodular(value)


def boundary_values_array(phi: InnerFunction1D, thetas: np.ndarray) -> np.ndarray:
    """Radial boundary limits at angles theta, in closed form; NaN at
    singular atom locations, where the radial limit is 0.

    Away from the atoms the limit is unimodular: exp(-c (xi+zeta)/(xi-zeta))
    restricted to the circle is the pure phase exp(-i c cot((theta-theta_xi)/2)).
    """
    thetas = np.asarray(thetas, dtype=float)
    z = np.exp(1j * thetas)
    values = np.full(thetas.shape, phi.unimodular_factor.alpha, dtype=complex)
    if phi.monomial_power:
        values = values * z ** phi.monomial_power
    for a in phi.blaschke_zeros:
        aj = a.value
        values = values * (aj - z) / (1.0 - aj.conjugate() * z)
    if phi.singular_atoms:
        phase = np.zeros(thetas.shape, dtype=float)
        for xi, mass in phi.singular_atoms:
            with np.errstate(divide="ignore", invalid="ignore"):
                phase += mass / np.tan(0.5 * (thetas - xi.theta))
        with np.errstate(invalid="ignore"):
            values = values * np.exp(-1j * phase)
        values = np.where(_near_singular_atoms(phi, thetas), np.nan + 0j, values)
    return values


def _blaschke_phase(phi: InnerFunction1D, thetas) -> np.ndarray:
    """Continuous phase of a Blaschke-type phi* at angles theta, in closed form.

    On the circle each factor (a - z)/(1 - conj(a) z) is -z conj(w)/w with
    w = 1 - conj(a) z, and Re w > 0, so its phase pi + theta - 2 Arg w is
    continuous.  With a = rho e^{i t_a} and t = theta - t_a,
    w = (1 - rho) + 2 rho sin^2(t/2) - i rho sin t, free of cancellation
    for zeros near the circle.  1 - rho is (1 - |a|^2)/(1 + rho) from the
    correctly rounded 1 - |a|^2, since 1.0 - rho from the rounded rho is
    off by eps/(1 - rho) relative.  The lift nu + k theta + sum_j (pi +
    theta - 2 Arg w_j) is strictly increasing, with slope |phi'|, and gains
    2 pi degree per turn.
    """
    thetas = np.asarray(thetas, dtype=float)
    zeros = np.array([a.value for a in phi.blaschke_zeros], dtype=complex)
    rho = np.abs(zeros)
    gap = np.array([_one_minus_abs2(a) for a in zeros]) / (1.0 + rho)
    t = thetas[..., None] - np.angle(zeros)
    half = np.sin(0.5 * t)
    arg_w = np.arctan2(-rho * np.sin(t), gap + 2.0 * rho * half * half)
    return (phi.unimodular_factor.nu + phi.degree * thetas
            + len(zeros) * math.pi - 2.0 * arg_w.sum(axis=-1))


def _one_minus_abs2(a: complex) -> float:
    """1 - |a|^2, correctly rounded.

    Veltkamp's split writes each part of a as hi + lo with at most 26 bits
    each, so the squares are exact sums of float products, and math.fsum
    adds them with one rounding.  The naive form is off by up to
    2 eps/(1 - |a|^2) relative, which a zero near the circle makes large.
    """
    parts = [1.0]
    for v in (a.real, a.imag):
        hi = v * 134217729.0  # 2^27 + 1
        hi -= hi - v
        lo = v - hi
        parts += [-hi * hi, -2.0 * hi * lo, -lo * lo]
    return math.fsum(parts)


def _boundary_derivative_moduli(phi: InnerFunction1D, thetas) -> np.ndarray:
    """|phi'| on the circle at angles theta, in closed form:

        |phi'(zeta)| = k + sum_j (1-|a_j|^2)/|zeta-a_j|^2 + sum_j 2 c_j/|xi_j-zeta|^2.

    +inf at singular atoms.
    """
    thetas = np.asarray(thetas, dtype=float)
    z = np.exp(1j * thetas)
    total = np.full(thetas.shape, float(phi.monomial_power))
    # moduli by np.hypot, whose bits are those of abs() of a Python complex
    for a in phi.blaschke_zeros:
        d = z - a.value
        total += _one_minus_abs2(a.value) / np.hypot(d.real, d.imag) ** 2
    with np.errstate(divide="ignore"):
        for xi, mass in phi.singular_atoms:
            d = xi.value - z
            total += 2.0 * mass / np.hypot(d.real, d.imag) ** 2
    return np.where(_near_singular_atoms(phi, thetas), math.inf, total)


def boundary_derivative_modulus(phi: InnerFunction1D, zeta: TorusPoint) -> float:
    """|phi'| on the circle in closed form: _boundary_derivative_moduli at one
    angle, +inf at singular atoms."""
    if not isinstance(zeta, TorusPoint):
        zeta = TorusPoint(zeta)
    return float(_boundary_derivative_moduli(phi, zeta.theta))


def angular_derivative_modulus(phi: InnerFunction1D, zeta: TorusPoint) -> float:
    """|phi'(zeta)| as a radial limit with first-order Richardson extrapolation.

    Requires a unimodular boundary value; returns +inf when the radial
    sequence diverges past 1e12.
    """
    if not isinstance(zeta, TorusPoint):
        zeta = TorusPoint(zeta)
    bv = boundary_value(phi, zeta)
    if not isinstance(bv, Unimodular):
        raise ValueError("angular derivative requires a unimodular boundary value")
    z = zeta.value
    moduli = []
    for m in range(4, 25):
        r = 1.0 - 2.0 ** (-m)
        a_m = abs(derivative(phi, r * z))
        if not math.isfinite(a_m) or a_m > _DIVERGENCE_THRESHOLD:
            return math.inf
        moduli.append(a_m)
    return 2.0 * moduli[-1] - moduli[-2]
