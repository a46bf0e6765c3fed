"""One-variable Clark measures.

For alpha on the unit circle, the Clark measure sigma_alpha of an inner
function phi is the positive measure with Poisson integral
(1-|phi(z)|^2)/|alpha-phi(z)|^2.  Two families are computed exactly:

* finite Blaschke products times monomials: exactly n atoms found by a
  certified phase lift (every prescan interval is subdivided until a rigorous
  bound on the phase increment permits principal-branch accumulation),
* single-atom singular functions exp(-c (xi+z)/(xi-z)): countably many atoms
  in closed form, truncated at |k| <= K with an analytic tail bound.

Weights are reciprocals of the boundary derivative modulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .inner1d import (
    InnerFunction1D,
    Unimodular,
    boundary_derivative_modulus,
    boundary_value,
)
from .torus_core import (
    TWO_PI,
    DiscreteMeasure1D,
    TorusPoint,
    UnimodularConstant,
    canonical_angle,
    circle_distance,
)

__all__ = [
    "UnsupportedFunctionError",
    "DegenerateDerivativeError",
    "LevelPoints",
    "clark_blaschke",
    "clark_atomic_singular",
    "clark_measure1d",
    "level_points",
    "DEFAULT_TRUNCATION",
]

DEFAULT_TRUNCATION = 10_000
_DEGENERACY_FLOOR = 1e-14
_BISECTION_TOL = 1e-13


class UnsupportedFunctionError(ValueError):
    """Function is outside the computable classes."""


class DegenerateDerivativeError(ValueError):
    """Boundary derivative too small for a reliable atom weight."""


@dataclass(frozen=True)
class LevelPoints:
    """Unimodular solutions of phi* = alpha plus accumulation points.

    Accumulation points belong to the closed level set but carry no mass.
    """

    points: tuple
    accumulation: tuple = ()


def _unimodular_boundary(phi: InnerFunction1D, theta: float) -> complex:
    bv = boundary_value(phi, TorusPoint(theta))
    if not isinstance(bv, Unimodular):
        raise UnsupportedFunctionError("boundary value is not unimodular on the scan grid")
    return bv.value


def _blaschke_phase_sup(phi: InnerFunction1D, lo: float, hi: float) -> float:
    """Upper bound for psi'(theta) = |phi'(e^{i theta})| on [lo, hi]."""
    total = float(phi.monomial_power)
    for a in phi.blaschke_zeros:
        rho = abs(a.value)
        if rho == 0.0:
            total += 1.0
            continue
        phi_a = cmath.phase(a.value)
        # the factor (1-rho^2)/|zeta-a|^2 peaks at the angle of a
        lo_d = circle_distance(lo, phi_a)
        hi_d = circle_distance(hi, phi_a)
        inside = canonical_angle(phi_a - lo) <= (hi - lo)
        d = 0.0 if inside else min(lo_d, hi_d)
        total += (1.0 - rho * rho) / (1.0 + rho * rho - 2.0 * rho * math.cos(d))
    return total


def _certified_lift(phi: InnerFunction1D):
    """Break [0, 2pi] into intervals with phase increment provably <= pi/2.

    Returns (thetas, psi) where psi[i] is the continuous phase lift of
    arg phi*(e^{i theta_i}), psi[0] in (-pi, pi].
    """
    n = phi.degree
    stack = [(i * TWO_PI / (16 * n), (i + 1) * TWO_PI / (16 * n)) for i in range(16 * n)]
    stack.reverse()
    edges = [0.0]
    while stack:
        lo, hi = stack.pop()
        depth_ok = hi - lo > TWO_PI * 2.0 ** -40
        if depth_ok and (hi - lo) * _blaschke_phase_sup(phi, lo, hi) > 0.5 * math.pi:
            mid = 0.5 * (lo + hi)
            stack.append((mid, hi))
            stack.append((lo, mid))
        else:
            edges.append(hi)
    thetas = np.array(edges)
    values = np.array([_unimodular_boundary(phi, t) for t in thetas])
    increments = np.angle(values[1:] * np.conj(values[:-1]))
    psi = np.empty(len(thetas))
    psi[0] = cmath.phase(values[0])
    psi[1:] = psi[0] + np.cumsum(increments)
    if abs(psi[-1] - psi[0] - TWO_PI * n) > 1e-9:
        raise UnsupportedFunctionError(
            f"phase lift winds {psi[-1] - psi[0]:.6f}, expected {TWO_PI * n:.6f}"
        )
    return thetas, psi, values


def _atom_weight(phi: InnerFunction1D, zeta: TorusPoint) -> float:
    modulus = boundary_derivative_modulus(phi, zeta)
    if not modulus > _DEGENERACY_FLOOR:
        raise DegenerateDerivativeError(
            f"boundary derivative {modulus:.3e} at angle {zeta.theta:.6f} is degenerate"
        )
    return 1.0 / modulus


def clark_blaschke(phi: InnerFunction1D, alpha: UnimodularConstant) -> DiscreteMeasure1D:
    """Clark measure of a degree-n Blaschke-type inner function: n atoms.

    The boundary phase is strictly increasing and winds by 2 pi n, so each
    level alpha is hit exactly n times; each hit is bisected to 1e-13 in
    angle and polished with two Newton steps.
    """
    if phi.has_singular_part:
        raise UnsupportedFunctionError("function has a singular part")
    n = phi.degree
    if n < 1:
        raise UnsupportedFunctionError("constant functions have no Clark measure atoms")
    thetas, psi, values = _certified_lift(phi)
    base = psi[0]
    nu = alpha.nu
    k_min = math.ceil((base - nu) / TWO_PI - 1e-12)
    atoms = []
    for m in range(n):
        target = nu + TWO_PI * (k_min + m)
        idx = int(np.searchsorted(psi, target, side="left"))
        idx = min(max(idx, 1), len(psi) - 1)
        lo, hi = thetas[idx - 1], thetas[idx]
        anchor_value, anchor_psi = values[idx - 1], psi[idx - 1]

        def local_psi(theta):
            v = _unimodular_boundary(phi, theta)
            return anchor_psi + math.atan2(
                (v * anchor_value.conjugate()).imag, (v * anchor_value.conjugate()).real
            )

        f_lo = anchor_psi - target
        f_hi = local_psi(hi) - target
        if f_lo > 0 and f_lo < 1e-9:
            root = lo
        elif f_hi < 0 and f_hi > -1e-9:
            root = hi
        else:
            a, b = lo, hi
            while b - a > _BISECTION_TOL:
                mid = 0.5 * (a + b)
                if local_psi(mid) - target <= 0:
                    a = mid
                else:
                    b = mid
            root = 0.5 * (a + b)
        for _ in range(2):
            slope = boundary_derivative_modulus(phi, TorusPoint(root))
            step = (local_psi(root) - target) / slope
            if abs(step) < 0.5 * (hi - lo):
                root -= step
        zeta = TorusPoint(root)
        atoms.append((zeta, _atom_weight(phi, zeta)))
    atoms.sort(key=lambda aw: aw[0].theta)
    return DiscreteMeasure1D(atoms=tuple(atoms), tail_bound=0.0, generator_id="blaschke")


def _singular_tail_bound(c: float, K: int) -> float:
    # integral comparison of sum_{|k|>K} 2c/(c^2+(nu+2 pi k)^2) with nu in [0, 2 pi)
    positive = 1.0 / K
    negative = 1.0 / (K - 1) if K >= 2 else math.pi ** 2 / 6.0
    return (c / (2.0 * math.pi ** 2)) * (positive + negative)


def clark_atomic_singular(
    c: float,
    xi: TorusPoint,
    alpha: UnimodularConstant,
    K: int = DEFAULT_TRUNCATION,
) -> DiscreteMeasure1D:
    """Clark measure of exp(-c (xi+z)/(xi-z)), truncated to |k| <= K.

    On the circle the function is the phase exp(-i c cot((theta-theta_xi)/2)),
    so the level-alpha set is cot((theta-theta_xi)/2) = -(nu+2 pi k)/c, giving

        eta_k = xi (s_k - i c)/(s_k + i c),  s_k = nu + 2 pi k,

    with weights 1/|phi'(eta_k)| = 2c/(c^2 + s_k^2) and an analytic bound on
    the dropped |k| > K mass.
    """
    c = float(c)
    if not c > 0:
        raise ValueError("atom mass c must be positive")
    if not isinstance(xi, TorusPoint):
        xi = TorusPoint(xi)
    if not isinstance(K, int) or K < 1:
        raise ValueError("truncation order K must be an integer >= 1")
    k = np.arange(-K, K + 1)
    s = alpha.nu + TWO_PI * k
    eta = xi.value * (s - 1j * c) / (s + 1j * c)
    weights = 2.0 * c / (c * c + s * s)
    atoms = tuple(
        (TorusPoint(float(np.angle(e))), float(w)) for e, w in sorted(
            zip(eta, weights), key=lambda ew: canonical_angle(float(np.angle(ew[0])))
        )
    )
    return DiscreteMeasure1D(
        atoms=atoms,
        tail_bound=_singular_tail_bound(c, K),
        generator_id="atomic_singular",
    )


def _singular_parameters(phi: InnerFunction1D):
    """(c, xi, folded prefactor) for a pure single-atom singular function."""
    if phi.degree != 0 or len(phi.singular_atoms) != 1:
        raise UnsupportedFunctionError(
            "supported classes: Blaschke-type, or a single singular atom with no other factors"
        )
    xi, c = phi.singular_atoms[0]
    return c, xi


def clark_measure1d(
    phi: InnerFunction1D,
    alpha: UnimodularConstant,
    K: int = DEFAULT_TRUNCATION,
) -> DiscreteMeasure1D:
    """Dispatch to the Blaschke or atomic-singular computation."""
    if phi.is_blaschke_type:
        return clark_blaschke(phi, alpha)
    c, xi = _singular_parameters(phi)
    # fold the constant prefactor into the level: e^{ia} E(z) = alpha
    folded = UnimodularConstant.from_nu(alpha.nu - phi.unimodular_factor.nu)
    return clark_atomic_singular(c, xi, folded, K)


def level_points(
    phi: InnerFunction1D,
    alpha: UnimodularConstant,
    K: int = DEFAULT_TRUNCATION,
) -> LevelPoints:
    """Atoms of the Clark measure plus zero-mass accumulation points."""
    mu = clark_measure1d(phi, alpha, K)
    points = tuple(zeta for zeta, _ in mu.atoms)
    accumulation = ()
    if phi.has_singular_part:
        accumulation = tuple(xi for xi, _ in phi.singular_atoms)
    return LevelPoints(points=points, accumulation=accumulation)
