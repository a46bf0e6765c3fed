"""One-variable Clark measures.

For alpha on the unit circle, the Clark measure sigma_alpha of an inner
function phi is the positive measure with Poisson integral
(1-|phi(z)|^2)/|alpha-phi(z)|^2.  Two families are computed exactly:

* finite Blaschke products times monomials: exactly n atoms, bisected on
  the closed-form phase lift of phi* (strictly increasing, 2 pi n per turn),
* single-atom singular functions exp(-c (xi+z)/(xi-z)): countably many atoms
  in closed form, truncated at |k| <= K with an analytic tail bound.

Weights are reciprocals of the boundary derivative modulus.  Each measure
is built as two array columns, the atoms' angles and weights
(torus_core.DiscreteMeasure1D), with no per-atom objects.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .inner1d import (
    InnerFunction1D,
    _blaschke_phase,
    _boundary_derivative_moduli,
)
from .torus_core import (
    TWO_PI,
    DiscreteMeasure1D,
    TorusPoint,
    UnimodularConstant,
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
# 16^15 = 2^60 parts of 2 pi: brackets end at adjacent floats
_SECTIONS = 16
_SECTION_STEPS = 15
# resolution of an atom: its angle to 1e-9, its weight to a relative 1e-8
_ANGLE_TOL = 1e-9
_WEIGHT_RTOL = 1e-8
_EPS = sys.float_info.epsilon


class UnsupportedFunctionError(ValueError):
    """Function is outside the computable classes."""


class DegenerateDerivativeError(ValueError):
    """An atom's angle or weight cannot be resolved in float64."""


@dataclass(frozen=True)
class LevelPoints:
    """Unimodular solutions of phi* = alpha plus accumulation points.

    Accumulation points belong to the closed level set but carry no mass.
    """

    points: tuple
    accumulation: tuple = ()


def clark_blaschke(phi: InnerFunction1D, alpha: UnimodularConstant) -> DiscreteMeasure1D:
    """Clark measure of a degree-n Blaschke-type inner function: n atoms.

    The closed-form phase lift of phi* is strictly increasing and winds by
    2 pi n, so each of the n levels nu + 2 pi k it crosses on [0, 2 pi) is
    hit exactly once; all n brackets are sectioned together down to the
    spacing of floats.  An atom that float64 cannot resolve raises
    DegenerateDerivativeError: its weight 1/|phi'| changes by more than a
    relative 1e-8 across its final bracket, or the lift's rounding error
    over |phi'| exceeds 1e-9 in angle (both happen for zeros too close to
    the circle).
    """
    if phi.has_singular_part:
        raise UnsupportedFunctionError("function has a singular part")
    n = phi.degree
    if n < 1:
        raise UnsupportedFunctionError("constant functions have no Clark measure atoms")
    base = float(_blaschke_phase(phi, 0.0))
    k_min = math.ceil((base - alpha.nu) / TWO_PI)
    targets = alpha.nu + TWO_PI * (k_min + np.arange(n))
    # cut all n brackets at once into _SECTIONS parts; keep the crossing
    # one, so phase(lo) <= target < phase(hi) throughout
    lo, hi = np.zeros(n), np.full(n, TWO_PI)
    rows = np.arange(n)
    for _ in range(_SECTION_STEPS):
        nodes = np.linspace(lo, hi, _SECTIONS + 1, axis=1)
        below = np.sum(_blaschke_phase(phi, nodes[:, 1:-1]) <= targets[:, None], axis=1)
        lo, hi = nodes[rows, below], nodes[rows, below + 1]
    # rounding of the lift, a few ulps of each of its n + 3 terms; divided
    # by the slope |phi'| = 1/weight it bounds the error of an atom's angle
    phase_error = 2 * (n + 3) * _EPS * (np.abs(targets) + math.pi)
    # |phi'| >= k + sum_j (1 - |a_j|)/(1 + |a_j|) > 0, so the weights are finite
    weights, w_hi = 1.0 / _boundary_derivative_moduli(phi, np.stack([lo, hi]))
    unresolved = ((phase_error * weights > _ANGLE_TOL)
                  | (np.abs(w_hi - weights) > _WEIGHT_RTOL * weights))
    if unresolved.any():
        j = int(np.argmax(unresolved))
        raise DegenerateDerivativeError(
            f"atom at angle {lo[j]:.6f} with weight {weights[j]:.3e} is not resolved in float64"
        )
    return DiscreteMeasure1D(lo, weights, tail_bound=0.0, generator_id="blaschke")


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
    return DiscreteMeasure1D(
        np.angle(eta),
        weights,
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
    points = tuple(map(TorusPoint, clark_measure1d(phi, alpha, K).thetas.tolist()))
    accumulation = ()
    if phi.has_singular_part:
        accumulation = tuple(xi for xi, _ in phi.singular_atoms)
    return LevelPoints(points=points, accumulation=accumulation)
