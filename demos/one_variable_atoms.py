"""Atoms of one-variable Clark measures, and two ways to check them.

Three inner functions of increasing character:

* z^3            -- the measure is n equally weighted roots of alpha,
* a Blaschke     -- finitely many atoms, weights 1/|phi'|,
* the atomic exp -- infinitely many atoms marching into the boundary atom.

For each one the script prints the atoms, then confirms the weights two
independent ways: against the radial-limit angular derivative and against
the total-mass identity sum(w) = (1 - |phi(0)|^2)/|alpha - phi(0)|^2.
"""

import math

import numpy as np

from clark_measures import (
    DiskPoint,
    InnerFunction1D,
    TorusPoint,
    UnimodularConstant,
    angular_derivative_modulus,
    clark_measure1d,
    eval_inner,
)

ALPHA = UnimodularConstant.from_nu(math.pi / 3)


def describe(name: str, phi: InnerFunction1D, K: int = 40) -> None:
    mu = clark_measure1d(phi, ALPHA, K=K)
    phi0 = eval_inner(phi, 0.0)
    expected_mass = (1.0 - abs(phi0) ** 2) / abs(ALPHA.alpha - phi0) ** 2
    listed = mu.total_listed_mass
    print(f"{name}: {len(mu.atoms)} atoms, tail bound {mu.tail_bound:.3e}")
    for eta, w in mu.atoms[:6]:
        oracle = 1.0 / angular_derivative_modulus(phi, eta)
        print(
            f"  theta = {eta.theta:8.5f}  weight = {w:.12f}"
            f"  |w - 1/|phi'|| = {abs(w - oracle):.2e}"
        )
    if len(mu.atoms) > 6:
        print(f"  ... {len(mu.atoms) - 6} more")
    gap = expected_mass - listed
    print(
        f"  mass: listed {listed:.12f}, Poisson value {expected_mass:.12f},"
        f" gap {gap:.3e} (within tail: {0.0 <= gap <= mu.tail_bound + 1e-12})"
    )
    print()


describe("monomial z^3", InnerFunction1D(monomial_power=3))
describe(
    "Blaschke with zeros 0.5i and -0.3",
    InnerFunction1D(blaschke_zeros=(DiskPoint(0.5j), DiskPoint(-0.3))),
)
describe(
    "atomic singular exp(-(1+z)/(1-z))",
    InnerFunction1D(singular_atoms=((TorusPoint(0.0), 1.0),)),
)

# The exp family at alpha = 1 is fully explicit: atoms (2 pi k - i)/(2 pi k + i)
# with weights 2/(1 + 4 pi^2 k^2).
mu = clark_measure1d(
    InnerFunction1D(singular_atoms=((TorusPoint(0.0), 1.0),)),
    UnimodularConstant.one(),
    K=40,
)
worst = 0.0
for eta, w in mu.atoms:
    s = (1j * (1.0 + eta.value) / (1.0 - eta.value)).real
    k = round(s / (2.0 * math.pi))
    s = 2.0 * math.pi * k
    worst = max(
        worst,
        abs(eta.value - (s - 1j) / (s + 1j)),
        abs(w - 2.0 / (1.0 + s * s)),
    )
print(f"exp family vs closed form at alpha = 1: worst deviation {worst:.2e}")
