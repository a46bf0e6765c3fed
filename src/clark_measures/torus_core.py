"""Points on the circle and torus, Poisson kernels, periodic quadrature,
and the measure containers shared by every other module.

Angles are radians in [0, 2pi) throughout; the normalized measure
m = dtheta/2pi is used everywhere, so a quadrature is just a node mean.
A one-variable measure is stored as columns, an angle array and a weight
array; its TorusPoint atoms are derived from them on demand.  A
two-variable measure stores its antidiagonal family the same way, and its
CurveComponent view of the family is derived on demand too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "QuadratureError",
    "TorusPoint",
    "DiskPoint",
    "UnimodularConstant",
    "QuadratureGrid",
    "IntegralResult",
    "DiscreteMeasure1D",
    "Antidiagonal",
    "Graph",
    "CurveComponent",
    "LineComponent",
    "ClarkMeasure2D",
    "poisson_kernel",
    "poisson_kernel_nd",
    "periodic_quadrature",
    "integrate_measure2d",
]

TWO_PI = 2.0 * math.pi

# Canonical point-equality tolerance on the circle, in radians.
ANGLE_TOL = 1e-12


class TorusCoreError(ValueError):
    """Base class for errors raised by this package."""


class QuadratureError(TorusCoreError):
    """Too many undefined nodes, or an ill-formed quadrature request."""

    def __init__(self, message, undefined_angles=None, component_index=None):
        super().__init__(message)
        self.undefined_angles = tuple(undefined_angles or ())
        self.component_index = component_index


def canonical_angle(theta: float) -> float:
    """Reduce an angle into [0, 2pi); a NaN or infinite angle raises ValueError."""
    t = float(theta)
    if not math.isfinite(t):
        raise ValueError(f"angle must be finite, got {t}")
    t = math.fmod(t, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod rounding can land exactly on 2pi
        t = 0.0
    return t


def _canonical_angles(t: np.ndarray) -> np.ndarray:
    """canonical_angle of each entry of a float array: np.mod rounds a tiny
    negative angle up to 2pi itself, which is taken as 0."""
    t = np.mod(t, TWO_PI)
    t[t == TWO_PI] = 0.0
    return t


def circle_distance(a: float, b: float) -> float:
    """Shortest angular distance between two angles."""
    d = abs(canonical_angle(a) - canonical_angle(b))
    return min(d, TWO_PI - d)


def angles_close(a: float, b: float, tol: float = ANGLE_TOL) -> bool:
    return circle_distance(a, b) <= tol


@dataclass(frozen=True)
class TorusPoint:
    """A point e^{i theta} on the unit circle, stored by its angle."""

    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", canonical_angle(self.theta))

    @property
    def value(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta))

    @classmethod
    def from_complex(cls, w: complex, tol: float = 1e-9) -> "TorusPoint":
        w = complex(w)
        if abs(abs(w) - 1.0) > tol:
            raise ValueError(f"not a unimodular value: |{w}| = {abs(w)}")
        return cls(math.atan2(w.imag, w.real))

    def close_to(self, other: "TorusPoint", tol: float = ANGLE_TOL) -> bool:
        return angles_close(self.theta, other.theta, tol)


@dataclass(frozen=True)
class DiskPoint:
    """A point strictly inside the unit disc."""

    value: complex

    def __post_init__(self):
        v = complex(self.value)
        object.__setattr__(self, "value", v)
        if not abs(v) < 1.0:
            raise ValueError(f"point not inside the open disc: |{v}| = {abs(v)}")


@dataclass(frozen=True)
class UnimodularConstant:
    """alpha = e^{i nu} with nu in [0, 2pi); construct via from_nu/from_complex."""

    alpha: complex
    nu: float

    def __post_init__(self):
        if abs(abs(self.alpha) - 1.0) > 1e-14:
            raise ValueError(f"not unimodular: |alpha| = {abs(self.alpha)}")

    @classmethod
    def from_nu(cls, nu: float) -> "UnimodularConstant":
        t = canonical_angle(nu)
        return cls(alpha=complex(math.cos(t), math.sin(t)), nu=t)

    @classmethod
    def from_complex(cls, alpha: complex, tol: float = 1e-9) -> "UnimodularConstant":
        a = complex(alpha)
        if abs(abs(a) - 1.0) > tol:
            raise ValueError(f"not a unimodular value: |{a}| = {abs(a)}")
        return cls.from_nu(math.atan2(a.imag, a.real))

    @classmethod
    def one(cls) -> "UnimodularConstant":
        return cls.from_nu(0.0)


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform periodic grid theta_j = 2pi j / N under m = dtheta/2pi."""

    n_nodes: int = 4096

    def __post_init__(self):
        if int(self.n_nodes) < 2:
            raise ValueError("grid needs at least 2 nodes")
        object.__setattr__(self, "n_nodes", int(self.n_nodes))

    def thetas(self) -> np.ndarray:
        return np.arange(self.n_nodes) * (TWO_PI / self.n_nodes)

    def points(self) -> np.ndarray:
        return np.exp(1j * self.thetas())

    @cached_property
    def _circle_rows(self) -> tuple:
        """The real and imaginary parts of points() as read-only float rows,
        made once per grid and shared by the integrators built on it."""
        zeta = self.points()
        rows = np.ascontiguousarray(zeta.real), np.ascontiguousarray(zeta.imag)
        for row in rows:
            row.flags.writeable = False
        return rows


@dataclass(frozen=True)
class IntegralResult:
    """A computed integral together with its reported error bound."""

    value: complex
    error_bound: float

    def __complex__(self):
        return complex(self.value)


def pairwise_sum(values, axis: int = -1):
    """Sum along an axis with a fixed pairwise tree.

    The tree shape depends only on the axis length, so results are
    bit-identical across runs and evaluation schedules.  The axis is padded
    once with zeros to a power of two; x + 0 is exact, so this is the same
    tree as pairing an odd level's last entry with a zero.
    """
    a = np.asarray(values)
    if a.ndim == 0:
        return a[()]
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape[:-1], dtype=a.dtype)[()] if a.ndim > 1 else a.dtype.type(0)
    size = 1 << (n - 1).bit_length()
    if size != n:
        pad = np.zeros(a.shape[:-1] + (size - n,), dtype=a.dtype)
        a = np.concatenate([a, pad], axis=-1)
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
    out = a[..., 0]
    return out[()] if out.ndim == 0 else out


def _zero_undefined(values: np.ndarray, component_index=None) -> np.ndarray:
    """The one rule for undefined nodes on a periodic grid, applied to each
    row of values along its last axis of N nodes.

    A NaN or infinite node counts as 0.  Undefined values only occur on
    measure-zero sets (boundary singularities), so max(1, N // 1000) such
    nodes are allowed in a row; more raise QuadratureError with the nodes'
    angles and component_index.  The zeros are written into values itself
    when it is writable, so a caller that needs its undefined nodes
    afterwards must find them first; the zeroed array is returned.
    """
    bad = ~np.isfinite(values)
    if not bad.any():
        return values
    n = values.shape[-1]
    rows = bad.reshape(-1, n)
    counts = np.count_nonzero(rows, axis=1)
    worst = int(np.argmax(counts))
    n_bad, allowance = int(counts[worst]), max(1, n // 1000)
    if n_bad > allowance:
        angles = TWO_PI * np.flatnonzero(rows[worst])[:32] / n
        raise QuadratureError(
            f"{n_bad} undefined nodes exceed the allowance {allowance}",
            undefined_angles=angles.tolist(), component_index=component_index)
    if not values.flags.writeable:
        values = values.copy()
    values[bad] = 0.0
    return values


def periodic_means(values, component_index=None):
    """Node mean and even-node (half-grid) mean over the last axis.

    An undefined node counts as 0 in both means, under the one rule of
    _zero_undefined (which writes the zeros into values when it is a
    writable array); the means still divide by the full node counts N and
    ceil(N/2).
    """
    v = _zero_undefined(np.asarray(values), component_index)
    n = v.shape[-1]
    return pairwise_sum(v, axis=-1) / n, pairwise_sum(v[..., 0::2], axis=-1) / ((n + 1) // 2)


def periodic_quadrature(f, grid: QuadratureGrid) -> complex:
    """(1/N) sum_j f(e^{i theta_j}): the periodic trapezoid rule under m.

    `f` must be vectorized over a complex numpy array of unimodular points
    and signal undefined nodes with NaN (numpy propagates NaN naturally).
    An undefined node counts as 0 under the periodic_means allowance.
    """
    with np.errstate(all="ignore"):
        vals = np.array(f(grid.points()))  # a copy: periodic_means zeroes undefined nodes
    if vals.shape != (grid.n_nodes,):
        vals = np.broadcast_to(vals, (grid.n_nodes,)).astype(complex)
    return complex(periodic_means(vals)[0])


def _as_complex(z) -> complex:
    if isinstance(z, DiskPoint):
        return z.value
    return complex(z)


def _poisson_into(x, y, z: complex, out, tmp):
    """P_z at the circle points x + iy, written into out and returned.

    With z = a + ib this is (1-|z|^2)/((x-a)^2 + (y-b)^2), computed in
    place: out and tmp are float arrays of x's shape, tmp a scratch row.
    poisson_kernel runs the same operations, so both give the same bits.
    """
    np.subtract(x, z.real, out=out)
    np.square(out, out=out)
    np.subtract(y, z.imag, out=tmp)
    np.square(tmp, out=tmp)
    np.add(out, tmp, out=out)
    return np.divide(1.0 - abs(z) ** 2, out, out=out)


def poisson_kernel(z, zeta):
    """P_z(zeta) = (1-|z|^2)/|zeta-z|^2 for z in the disc, zeta on the circle.

    With zeta = x + iy and z = a + ib the denominator is computed in real
    arithmetic as (x-a)^2 + (y-b)^2 (see _poisson_into).  `zeta` may be a
    TorusPoint, a complex scalar, or a numpy array; an array gives an array.
    """
    zv = _as_complex(z)
    if not abs(zv) < 1.0:
        raise ValueError(f"Poisson kernel needs |z| < 1, got |z| = {abs(zv)}")
    if isinstance(zeta, TorusPoint):
        zeta = zeta.value
    w = np.asarray(zeta, dtype=complex) if isinstance(zeta, np.ndarray) else np.array(complex(zeta))
    out = _poisson_into(w.real, w.imag, zv, np.empty(w.shape), np.empty(w.shape))
    return out if out.ndim else float(out)


def poisson_kernel_nd(z: Sequence, zeta: Sequence):
    """Product of one-variable Poisson kernels over matching coordinates."""
    if len(z) != len(zeta):
        raise ValueError(f"dimension mismatch: {len(z)} vs {len(zeta)}")
    if len(z) < 1:
        raise ValueError("need at least one coordinate")
    out = None
    for zj, wj in zip(z, zeta):
        factor = poisson_kernel(zj, wj)
        out = factor if out is None else out * factor
    return out


@dataclass(frozen=True, eq=False)
class DiscreteMeasure1D:
    """Atomic measure on the circle as two read-only float columns, the
    atoms' angles (canonical and increasing) and weights, plus a tail bound
    for the total weight of omitted atoms of an infinite family.

    The constructor canonicalises and sorts the columns, and requires finite
    angles, positive finite weights and atoms pairwise distinct on the
    circle, across 2pi too.
    """

    thetas: np.ndarray
    weights: np.ndarray
    tail_bound: float = 0.0
    generator_id: Optional[str] = None

    def __post_init__(self):
        thetas, weights = np.asarray(self.thetas, float), np.asarray(self.weights, float)
        if thetas.ndim != 1 or thetas.shape != weights.shape:
            raise ValueError("thetas and weights must be 1D columns of equal length")
        if not np.isfinite(thetas).all():
            raise ValueError("atom angles must be finite")
        if not ((weights > 0) & np.isfinite(weights)).all():
            raise ValueError("atom weights must be positive and finite")
        if self.tail_bound < 0 or not math.isfinite(self.tail_bound):
            raise ValueError("tail_bound must be finite and nonnegative")
        thetas = _canonical_angles(thetas)
        order = np.argsort(thetas, kind="stable")
        thetas, weights = thetas[order], weights[order]
        if len(thetas) > 1 and np.diff(thetas, append=thetas[0] + TWO_PI).min() <= ANGLE_TOL:
            raise ValueError("atoms must be pairwise distinct on the circle")
        for name, column in (("thetas", thetas), ("weights", weights)):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @cached_property
    def atoms(self) -> tuple:
        """(TorusPoint, weight) pairs in angle order, derived from the columns."""
        return tuple(zip(map(TorusPoint, self.thetas.tolist()), self.weights.tolist()))

    @property
    def total_listed_mass(self) -> float:
        return float(pairwise_sum(self.weights))


@dataclass(frozen=True)
class Antidiagonal:
    """The curve zeta -> (zeta, eta conj(zeta)) through eta."""

    eta: TorusPoint


@dataclass(frozen=True)
class Graph:
    """The curve zeta -> (zeta, g(zeta)) for a unimodular-valued rule g.

    `g` must be vectorized over complex arrays and may return NaN where
    it is undefined (measure-zero sets only).
    """

    g: Callable


@dataclass(frozen=True)
class CurveComponent:
    """A weighted curve on the torus: antidiagonal (constant weight) or graph
    (weight is a nonnegative rule of the first coordinate)."""

    kind: Union[Antidiagonal, Graph]
    weight: Union[float, Callable]

    def __post_init__(self):
        if isinstance(self.kind, Antidiagonal):
            w = float(self.weight)
            if w < 0 or not math.isfinite(w):
                raise ValueError("antidiagonal weight must be a finite constant >= 0")
            object.__setattr__(self, "weight", w)
        elif isinstance(self.kind, Graph):
            if not callable(self.weight):
                raise ValueError("graph components need a weight rule")
        else:
            raise TypeError("kind must be Antidiagonal or Graph")

    def second_coordinate(self, zeta: np.ndarray) -> np.ndarray:
        if isinstance(self.kind, Antidiagonal):
            return self.kind.eta.value * np.conj(zeta)
        with np.errstate(all="ignore"):
            return np.asarray(self.kind.g(zeta), dtype=complex)

    def weight_values(self, zeta: np.ndarray):
        """The weight at zeta; a constant weight is the scalar itself."""
        if isinstance(self.kind, Antidiagonal):
            return self.weight
        with np.errstate(all="ignore"):
            return np.asarray(self.weight(zeta), dtype=float)


@dataclass(frozen=True)
class LineComponent:
    """The vertical line {zeta_1 = tau} carrying c * (Lebesgue in zeta_2)."""

    tau: TorusPoint
    constant: float

    def __post_init__(self):
        if not (self.constant > 0 and math.isfinite(self.constant)):
            raise ValueError("line constant must be positive and finite")


@dataclass(frozen=True, eq=False, init=False)
class ClarkMeasure2D:
    """Antidiagonals, graphs and vertical lines; atoms are unrepresentable.

    The antidiagonals are read-only float columns, kept in the order given:
    the etas' canonical angles and their weights, finite and >= 0.  curves=
    moves the antidiagonals among its CurveComponents into the columns,
    after those given; any other curve or line raises TypeError."""

    thetas: np.ndarray
    weights: np.ndarray
    graphs: tuple
    lines: tuple
    tail_bound: float

    def __init__(self, curves=(), lines=(), tail_bound: float = 0.0, *, thetas=(), weights=()):
        curves, lines = tuple(curves), tuple(lines)
        if not all(isinstance(comp, CurveComponent) for comp in curves):
            raise TypeError("curves must be CurveComponents")
        if not all(isinstance(line, LineComponent) for line in lines):
            raise TypeError("lines must be LineComponents")
        antidiagonals = [comp for comp in curves if isinstance(comp.kind, Antidiagonal)]
        # np.concatenate raises ValueError for a column that is not 1D
        thetas = np.concatenate([thetas, [c.kind.eta.theta for c in antidiagonals]], dtype=float)
        weights = np.concatenate([weights, [c.weight for c in antidiagonals]], dtype=float)
        if thetas.shape != weights.shape:
            raise ValueError("thetas and weights must be 1D columns of equal length")
        if not (np.isfinite(thetas).all() and ((weights >= 0) & np.isfinite(weights)).all()):
            raise ValueError("antidiagonal angles must be finite, their weights finite and >= 0")
        if tail_bound < 0 or not math.isfinite(tail_bound):
            raise ValueError("tail_bound must be finite and nonnegative")
        thetas = _canonical_angles(thetas)
        thetas.flags.writeable = weights.flags.writeable = False
        graphs = tuple(comp for comp in curves if not isinstance(comp.kind, Antidiagonal))
        # frozen: the fields are written to the instance dict directly
        vars(self).update(thetas=thetas, weights=weights, graphs=graphs, lines=lines,
                          tail_bound=tail_bound)

    @cached_property
    def curves(self) -> tuple:
        """The antidiagonals as CurveComponents in column order, then the graphs."""
        antidiagonals = (CurveComponent(Antidiagonal(TorusPoint(t)), w)
                         for t, w in zip(self.thetas.tolist(), self.weights.tolist()))
        return (*antidiagonals, *self.graphs)

    @cached_property
    def _etas(self) -> np.ndarray:
        """The etas e^{i theta} as a read-only complex column, made once."""
        etas = np.exp(1j * self.thetas)
        etas.flags.writeable = False
        return etas

    def _graph_nodes(self, grid: QuadratureGrid) -> tuple:
        """(g, w) per graph: its second coordinate and weight sampled at
        grid.points(), as read-only arrays made once per node count, so the
        identity integrator and the Fourier check on one grid sample each
        graph once between them."""
        cache = vars(self).setdefault("_graph_samples", {})
        if grid.n_nodes not in cache:
            samples = tuple((g, w) for _, _, g, w in
                            _component_nodes(self.graphs, (), grid.points()))
            for g, w in samples:
                g.flags.writeable = w.flags.writeable = False
            cache[grid.n_nodes] = samples
        return cache[grid.n_nodes]


def _component_nodes(curves, lines, zeta: np.ndarray):
    """(index, z1, z2, weight) per curve, then per line, sampled at zeta.

    A curve's nodes are (zeta, second coordinate) and a line's are
    (tau, zeta).  weight is an array for a graph and a scalar for a
    constant-weight curve or a line; lines are indexed after the curves.
    """
    for idx, comp in enumerate(curves):
        yield idx, zeta, comp.second_coordinate(zeta), comp.weight_values(zeta)
    for j, line in enumerate(lines):
        yield (len(curves) + j, np.full(len(zeta), line.tau.value, dtype=complex),
               zeta, line.constant)


def _integrate_nodes(nodes, f, tail_bound: float) -> IntegralResult:
    """Sum over components of the node mean of f * weight.

    A scalar weight scales the component's mean, an array weight each node.
    The bound is the grid-halving estimate summed over components plus
    tail_bound * (sup of |f| over all evaluated nodes).
    """
    values, estimates = [], []
    sup_f = 0.0
    for idx, z1, z2, weight in nodes:
        with np.errstate(all="ignore"):
            fv = np.asarray(f(z1, z2), dtype=complex)
        finite = np.isfinite(fv)
        if finite.any():
            sup_f = max(sup_f, float(np.max(np.abs(np.where(finite, fv, 0.0)))))
        if np.ndim(weight):
            fv, weight = fv * weight, 1.0
        mean, half = periodic_means(fv, component_index=idx)
        values.append(weight * complex(mean))
        estimates.append(weight * float(np.abs(mean - half)))
    total = complex(pairwise_sum(np.array(values, dtype=complex))) if values else 0j
    quad_est = float(pairwise_sum(np.array(estimates, dtype=float))) if estimates else 0.0
    return IntegralResult(value=total, error_bound=quad_est + tail_bound * sup_f)


def integrate_measure2d(mu: ClarkMeasure2D, f, grid: QuadratureGrid) -> IntegralResult:
    """Integrate f over a 2D measure: one node loop over curves and lines.

    `f(z1, z2)` must accept equal-shaped complex arrays.  Each component is
    sampled on grid as it is reached, so one component's nodes are held at
    a time.  A node where f or the weight is undefined counts as 0 under the
    periodic_means allowance.  The reported bound is the grid-halving
    estimate summed over components plus tail_bound * (sup of |f| over all
    evaluated nodes).
    """
    return _integrate_nodes(_component_nodes(mu.curves, mu.lines, grid.points()),
                            f, mu.tail_bound)
