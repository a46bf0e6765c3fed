"""Multiplicative embeddings Phi(z) = phi(z_1 z_2 ... z_d).

The Clark measure of the embedding is carried by antidiagonal families: one
antidiagonal {(z, eta conj(z))} (d = 2) or its d-variate analogue per atom
eta of the one-variable Clark measure, each with the constant density given
by the atom weight.  Integration iterates periodic quadrature over the first
d-1 coordinates with the last coordinate bound to eta conj(z_1 ... z_{d-1}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clark1d import DEFAULT_TRUNCATION, clark_measure1d
from .inner1d import InnerFunction1D, eval_inner
from .torus_core import (
    Antidiagonal,
    ClarkMeasure2D,
    CurveComponent,
    DiscreteMeasure1D,
    IntegralResult,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    integrate_measure2d,
    pairwise_sum,
    periodic_means,
)

__all__ = [
    "EmbeddedClarkND",
    "embedding_map",
    "embed_level_set",
    "embed_clark2d",
    "embed_clark_nd",
    "integrate_embed_nd",
]

_MAX_DIMENSION = 4
_OUTER_DIVISOR = 8


@dataclass(frozen=True)
class EmbeddedClarkND:
    """Clark measure of phi(z_1 ... z_d), stored as its 1D base measure."""

    base: DiscreteMeasure1D
    dimension: int

    def __post_init__(self):
        if not isinstance(self.base, DiscreteMeasure1D):
            raise TypeError("base must be a DiscreteMeasure1D")
        if not isinstance(self.dimension, int) or self.dimension < 2:
            raise ValueError("embedding dimension must be an integer >= 2")


def embedding_map(phi: InnerFunction1D, d: int):
    """The evaluable rule z -> phi(z_1 ... z_d) on the polydisc."""
    if d < 2:
        raise ValueError("embedding dimension must be >= 2")

    def rule(z) -> complex:
        z = tuple(z)
        if len(z) != d:
            raise ValueError(f"expected {d} coordinates, got {len(z)}")
        w = 1.0 + 0.0j
        for zj in z:
            w *= complex(zj)
        return eval_inner(phi, w)

    return rule


def embed_level_set(
    phi: InnerFunction1D,
    alpha: UnimodularConstant,
    K: int = DEFAULT_TRUNCATION,
):
    """Antidiagonal components of the level set, one per level point.

    Accumulation points contribute zero-weight antidiagonals: they belong to
    the closed level set but carry no mass.
    """
    mu = clark_measure1d(phi, alpha, K)
    components = [CurveComponent(Antidiagonal(zeta), w) for zeta, w in mu.atoms]
    if phi.has_singular_part:
        components.extend(
            CurveComponent(Antidiagonal(xi), 0.0) for xi, _ in phi.singular_atoms
        )
    return tuple(components)


def _measure2d_from_base(base: DiscreteMeasure1D) -> ClarkMeasure2D:
    curves = tuple(CurveComponent(Antidiagonal(zeta), w) for zeta, w in base.atoms)
    return ClarkMeasure2D(curves=curves, tail_bound=base.tail_bound)


def embed_clark2d(
    phi: InnerFunction1D,
    alpha: UnimodularConstant,
    K: int = DEFAULT_TRUNCATION,
) -> ClarkMeasure2D:
    """Bidisc Clark measure of phi(z_1 z_2): positive-weight antidiagonals."""
    return _measure2d_from_base(clark_measure1d(phi, alpha, K))


def embed_clark_nd(
    phi: InnerFunction1D,
    alpha: UnimodularConstant,
    d: int,
    K: int = DEFAULT_TRUNCATION,
) -> EmbeddedClarkND:
    return EmbeddedClarkND(base=clark_measure1d(phi, alpha, K), dimension=d)


def _iterated_value(em: EmbeddedClarkND, f, inner_thetas, outer_thetas) -> tuple:
    """Nested quadrature value, its value on the halved grids, and sup|f|
    over evaluated nodes.

    Coordinates z_1..z_{d-2} run over the outer grid, z_{d-1} over the inner
    grid, and z_d = eta conj(z_1 ... z_{d-1}) per atom.  The halved grids
    are the even nodes of both, so one pass gives both values.
    """
    d = em.dimension
    eta = em.base.points_array()[:, None]
    weights = em.base.weights_array()[:, None]
    inner = np.exp(1j * inner_thetas)[None, :]
    n_inner = inner.shape[1]
    outer_axes = d - 2
    sup_f = 0.0

    mesh = np.meshgrid(*([np.exp(1j * outer_thetas)] * outer_axes), indexing="ij")
    prefixes = np.stack([m.ravel() for m in mesh], axis=1)

    node_means = np.empty((2, len(prefixes)), dtype=complex)
    for i, prefix in enumerate(prefixes):
        lead = 1.0 + 0.0j
        for c in prefix:
            lead *= c
        last = eta * np.conj(lead * inner)
        args = [np.broadcast_to(c, (len(em.base.atoms), n_inner)) for c in prefix]
        args.append(np.broadcast_to(inner, (len(em.base.atoms), n_inner)))
        args.append(last)
        with np.errstate(all="ignore"):
            values = np.asarray(f(*args), dtype=complex)
            # a node where f is undefined at any atom gets an undefined sum
            atom_sums = pairwise_sum(values * weights, axis=0)
        finite = np.isfinite(values)
        if finite.any():
            sup_f = max(sup_f, float(np.max(np.abs(values[finite]))))
        node_means[:, i] = periodic_means(atom_sums)
    full = node_means[0]
    evens = node_means[1].reshape(mesh[0].shape)[(slice(None, None, 2),) * outer_axes].ravel()
    return (complex(pairwise_sum(full) / len(full)),
            complex(pairwise_sum(evens) / len(evens)), sup_f)


def integrate_embed_nd(em: EmbeddedClarkND, f, grid: QuadratureGrid) -> IntegralResult:
    """Integrate f over the embedded Clark measure.

    d = 2 delegates to the bidisc path.  For d >= 3 the outer coordinates use
    a grid of N/8 nodes each; the error bound combines a halved-grid
    difference with the truncation tail times sup|f|.  An inner node where f
    is undefined at some atom counts as 0, by torus_core.periodic_means.
    """
    d = em.dimension
    if d > _MAX_DIMENSION:
        raise ValueError(f"dimension {d} exceeds the supported maximum {_MAX_DIMENSION}")
    if d == 2:
        return integrate_measure2d(_measure2d_from_base(em.base), f, grid)
    inner_thetas = grid.thetas()
    n_outer = max(grid.n_nodes // _OUTER_DIVISOR, 16)
    outer_thetas = 2.0 * np.pi * np.arange(n_outer) / n_outer
    value, value_half, sup_f = _iterated_value(em, f, inner_thetas, outer_thetas)
    error = abs(value - value_half) + em.base.tail_bound * sup_f
    return IntegralResult(value=value, error_bound=error)
