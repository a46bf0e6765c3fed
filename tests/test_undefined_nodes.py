"""One rule for undefined grid nodes, in every periodic grid mean.

A NaN or infinite node counts as 0 in the node mean, which still divides by
the full node count; more than max(1, N // 1000) such nodes raise
QuadratureError, a ValueError.
"""

import numpy as np
import pytest

from clark_measures import (
    ClarkMeasure2D,
    CurveComponent,
    Graph,
    InnerFunction1D,
    QuadratureError,
    QuadratureGrid,
    UnimodularConstant,
    embed_clark_nd,
    fourier_rp_check,
    integrate_embed_nd,
    integrate_measure2d,
    periodic_quadrature,
)
from clark_measures.product2d import ProductInner, product_clark_integrate
from clark_measures.torus_core import TWO_PI
from clark_measures.verify import measure_integrator

EXP = InnerFunction1D(singular_atoms=((0.0, 1.0),))
BPAIR = InnerFunction1D(monomial_power=1, blaschke_zeros=(0.5j,))
ONE = UnimodularConstant.one()
GRID = QuadratureGrid(256)


def at_one(w, bad):
    """1 everywhere, bad at w == 1."""
    return np.where(np.asarray(w) == 1.0, bad, 1.0 + 0j)


def periodic_case():
    return [periodic_quadrature(lambda z, b=b: at_one(z, b), GRID) for b in (np.nan, 0.0)]


def measure2d_case():
    mu = ClarkMeasure2D(curves=(CurveComponent(Graph(np.conj), lambda z: np.ones(z.shape)),))
    return [integrate_measure2d(mu, lambda z1, z2, b=b: at_one(z1, b), GRID) for b in (np.nan, 0.0)]


def fourier_case():
    # the diagonal graph g(zeta) = zeta, undefined at zeta = 1, against the
    # same graph with weight 0 there
    undefined = Graph(lambda z: at_one(z, np.nan) * z)
    zeroed = np.vectorize(lambda z: 0.0 if z == 1.0 else 1.0, otypes=[float])
    checks = [
        fourier_rp_check(ClarkMeasure2D(curves=(CurveComponent(kind, weight),)), 1, GRID)
        for kind, weight in ((undefined, lambda z: np.ones(z.shape)), (Graph(lambda z: z), zeroed))
    ]
    entry = {e.k: e for e in checks[0]}[(1, -1)]
    n = GRID.n_nodes
    assert entry.modulus == pytest.approx((n - 1) / n, rel=1e-14)
    return checks


def product_case(P, outer):
    def integrand(bad):
        return lambda w1, w2: at_one(np.broadcast_arrays(w1, w2)[outer], bad)

    return [product_clark_integrate(P, ONE, integrand(b), GRID, K=20).value for b in (np.nan, 0.0)]


def embed_case():
    em = embed_clark_nd(EXP, ONE, 3, K=20)

    def integrand(bad):
        return lambda z1, z2, z3: np.where((z1 == 1.0) & (z2 == 1.0), bad, 1.0 + 0j)

    return [integrate_embed_nd(em, integrand(b), GRID) for b in (np.nan, 0.0)]


@pytest.mark.parametrize("case", [
    periodic_case,
    measure2d_case,
    fourier_case,
    lambda: product_case(ProductInner(BPAIR, EXP), 0),  # Lorentzian fiber
    lambda: product_case(ProductInner(BPAIR, BPAIR), 0),  # Blaschke fiber
    embed_case,
], ids=["periodic_quadrature", "integrate_measure2d", "fourier_rp_check",
        "product_lorentz_fiber", "product_blaschke_fiber", "integrate_embed_nd"])
def test_one_undefined_node_counts_as_zero(case):
    undefined, zeroed = case()
    assert undefined == zeroed


@pytest.mark.parametrize("undefined_axis, K", [(0, 200), (1, 200), (None, 64)],
                         ids=["first_factor", "second_factor", "general"])
def test_expexp_undefined_at_the_fiber_corner_raises(undefined_axis, K):
    # f is undefined at w == 1, the fiber corner xi, which every level's
    # fiber sum holds, so all 1024 folded nodes are undefined
    one = lambda w: np.ones_like(np.asarray(w, dtype=complex))  # noqa: E731
    bad = lambda w: at_one(w, np.nan)  # noqa: E731
    if undefined_axis is None:
        f, split = (lambda w1, w2: at_one(np.broadcast_arrays(w1, w2)[1], np.nan)), None
    else:
        f, split = None, (bad, one) if undefined_axis == 0 else (one, bad)
    with pytest.raises(QuadratureError, match="1024 undefined nodes exceed the allowance 1"):
        product_clark_integrate(ProductInner(EXP, EXP), ONE, f, QuadratureGrid(4096),
                                K=K, f_split=split)


def test_quadrature_error_is_a_value_error():
    assert issubclass(QuadratureError, ValueError)
    mu, _ = graph_undefined_at(np.array([3, 100]))
    integrate = measure_integrator(mu, QuadratureGrid(256))
    with pytest.raises(ValueError, match="2 undefined nodes exceed the allowance 1"):
        integrate((0.3 + 0.2j, 0.1 - 0.4j))


def graph_undefined_at(nodes):
    """The measure of graphs conj and the diagonal, the diagonal undefined
    at nodes, and the same with the diagonal's weight 0 there instead."""
    def g(z):
        out = np.array(z, dtype=complex)
        out[nodes] = np.nan
        return out

    def zeroed(z):
        out = np.ones(z.shape)
        out[nodes] = 0.0
        return out

    ones = lambda z: np.ones(z.shape)  # noqa: E731
    conj = CurveComponent(Graph(np.conj), ones)
    return (ClarkMeasure2D(curves=(conj, CurveComponent(Graph(g), ones))),
            ClarkMeasure2D(curves=(conj, CurveComponent(Graph(lambda z: z), zeroed))))


def test_fourier_check_allows_a_graph_its_allowance():
    # N = 4096 allows 4 undefined nodes per graph; every row of the graph's
    # transform stack is undefined at the same nodes
    grid = QuadratureGrid(4096)
    undefined, zeroed = graph_undefined_at(np.arange(4) * 700 + 3)
    assert fourier_rp_check(undefined, 2, grid) == fourier_rp_check(zeroed, 2, grid)


def test_fourier_check_raises_past_the_allowance():
    grid = QuadratureGrid(4096)
    nodes = np.arange(5) * 700 + 3
    mu, _ = graph_undefined_at(nodes)
    with pytest.raises(QuadratureError, match="5 undefined nodes exceed the allowance 4") as err:
        fourier_rp_check(mu, 2, grid)
    assert err.value.component_index == 1
    assert err.value.undefined_angles == tuple(TWO_PI * nodes / grid.n_nodes)
