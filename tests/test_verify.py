"""Tests for the verification oracle suite."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

from clark_measures import (
    ClarkMeasure2D,
    CurveComponent,
    Graph,
    InnerFunction1D,
    Poly1,
    QuadratureGrid,
    RIF_n1,
    TorusPoint,
    UnimodularConstant,
    embed_clark2d,
    embed_clark_nd,
    embedding_map,
    integrate_embed_nd,
    integrate_measure2d,
    product_map,
    rif_clark_measure,
    rif_map,
)
from clark_measures.product2d import (
    ProductInner,
    product_branch_measure,
    product_clark_integrate,
)
from clark_measures import cli, rif2d, verify
from clark_measures.inner1d import Unimodular, boundary_value
from clark_measures.rif2d import singularities
from clark_measures.torus_core import (
    TWO_PI,
    Antidiagonal,
    LineComponent,
    QuadratureError,
    _component_nodes,
    pairwise_sum,
    periodic_means,
    poisson_kernel,
)
from clark_measures.verify import (
    EMBED_BASE_REL,
    FOURIER_BASE_TOL,
    PRODUCT_BASE_REL,
    RIF_BASE_REL,
    FourierEntry,
    IdentityResidual,
    MassCheck,
    SupportSample,
    VerificationReport,
    embed_integrator,
    embedding_boundary_map,
    fourier_rp_check,
    herglotz_rhs,
    measure_integrator,
    poisson_identity_check,
    product_boundary_map,
    product_fourier_rp_check,
    product_integrator,
    rif_boundary_map,
    sample_test_points,
    support_inclusion_check,
    total_mass_check,
)
from test_rif2d import radial_limit

EXP = InnerFunction1D(singular_atoms=((0.0, 1.0),))
IDENT = InnerFunction1D(monomial_power=1)
SQUARE = InnerFunction1D(monomial_power=2)
GRID = QuadratureGrid(4096)


def example_rif() -> RIF_n1:
    return RIF_n1(p1=Poly1((4, -3, 1)), p2=Poly1((-1, -1)), n=2)


def poisson_f(z1, z2):
    def f(w1, w2):
        return (
            (1.0 - abs(z1) ** 2)
            / np.abs(w1 - z1) ** 2
            * (1.0 - abs(z2) ** 2)
            / np.abs(w2 - z2) ** 2
        )

    return f


class TestHerglotzRhs:
    def test_monomial_origin(self):
        phi = lambda z: z[0] * z[1]  # noqa: E731
        for nu in (0.0, 1.0, math.pi):
            assert herglotz_rhs(phi, UnimodularConstant.from_nu(nu), (0j, 0j)) == 1.0

    def test_monomial_half(self):
        phi = lambda z: z[0] * z[1]  # noqa: E731
        value = herglotz_rhs(phi, UnimodularConstant.from_nu(0.0), (0.5, 0.5))
        assert value == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_rejects_non_interior(self):
        for value in (1.0 + 0j, complex(math.nan, 0.0), complex(0.0, math.inf)):
            with pytest.raises(ValueError):
                herglotz_rhs(lambda z: value, UnimodularConstant.from_nu(0.0), (0j, 0j))

    def test_two_sided_against_measure(self):
        # the quotient at an interior point equals the measure integral
        alpha = UnimodularConstant.from_nu(0.0)
        mu = embed_clark2d(EXP, alpha, K=400)
        z = (0.4, 0.3j)
        rhs = herglotz_rhs(embedding_map(EXP, 2), alpha, z)
        res = measure_integrator(mu, GRID)(z)
        assert abs(res.value - rhs) <= 1e-6 * rhs + res.error_bound
        # a coarse truncation makes the omitted mass dominate, so the tail
        # term itself must cover the whole error, up to rounding
        for alpha in (UnimodularConstant.from_nu(0.0), UnimodularConstant.from_nu(0.7)):
            cases = (
                (2, measure_integrator(embed_clark2d(EXP, alpha, K=50), GRID)),
                (3, embed_integrator(embed_clark_nd(EXP, alpha, 3, K=50), GRID)),
            )
            for d, integrate in cases:
                phi = embedding_map(EXP, d)
                for z in sample_test_points(d, 100):
                    rhs = herglotz_rhs(phi, alpha, z)
                    res = integrate(z)
                    assert abs(res.value - rhs) <= res.error_bound + 1e-12 * rhs


class TestSamplePoints:
    def test_reproducible(self):
        assert sample_test_points(2, 10, seed=5) == sample_test_points(2, 10, seed=5)
        assert sample_test_points(2, 10, seed=5) != sample_test_points(2, 10, seed=6)

    def test_shape_and_radius(self):
        pts = sample_test_points(3, 50)
        assert len(pts) == 50
        assert all(len(z) == 3 for z in pts)
        assert max(abs(c) for z in pts for c in z) <= 0.95


class TestIntegrators:
    def test_antidiagonal_fast_path_matches_generic(self):
        alpha = UnimodularConstant.from_nu(0.7)
        mu = embed_clark2d(EXP, alpha, K=25)
        em = embed_clark_nd(EXP, alpha, 2, K=25)
        fast = embed_integrator(em, GRID)
        via_measure = measure_integrator(mu, GRID)
        rng = np.random.default_rng(2)
        for _ in range(5):
            z = tuple(
                rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                for _ in range(2)
            )
            generic = integrate_measure2d(mu, poisson_f(*z), GRID)
            assert abs(fast(z).value - generic.value.real) <= 1e-10
            assert abs(via_measure(z).value - generic.value.real) <= 1e-10

    def test_in_place_antidiagonal_sum_is_the_kernel_sum(self):
        # the integrators reuse buffers; each point must still give the
        # bits of the plain expression, whatever points came before
        alpha = UnimodularConstant.from_nu(0.7)
        for K in (0, 1, 25, 600):
            mu = embed_clark2d(EXP, alpha, K=K) if K else embed_clark2d(IDENT, alpha)
            etas = np.array([c.kind.eta.value for c in mu.curves])
            weights = np.array([c.weight for c in mu.curves])
            integrate = measure_integrator(mu, GRID)
            for z1, z2 in sample_test_points(2, 20):
                expected = float(pairwise_sum(weights * poisson_kernel(z1 * z2, etas)))
                assert integrate((z1, z2)).value == expected

    def test_cached_nodes_match_generic_quadrature(self):
        # every point must give the same bits whatever points came before.
        # The product branch graph runs the node quadrature, sampled once,
        # with the bits of integrate_measure2d on the same measure.  A RIF
        # level graph is a residue sum, with a line in closed form at pi: it
        # agrees with integrate_measure2d at N = 32768 within that oracle's
        # error bound and rounding.
        points = [(0j, 0j), *sample_test_points(2, 8)]
        fine = QuadratureGrid(32768)

        def kernels(z1, z2):
            return lambda w1, w2: poisson_kernel(z1, w1) * poisson_kernel(z2, w2)

        def run(mu, grid, compare):
            integrate = measure_integrator(mu, grid)
            forwards = [integrate(z) for z in points]
            backwards = [integrate(z) for z in reversed(points)][::-1]
            fresh = [measure_integrator(mu, grid)(z) for z in points]
            for z, *results in zip(points, forwards, backwards, fresh):
                assert results[1:] == results[:-1]
                res = results[0]
                if compare == "values":
                    assert res.value == integrate_measure2d(mu, kernels(*z), grid).value.real
                else:
                    oracle = integrate_measure2d(mu, kernels(*z), fine)
                    assert abs(res.value - oracle.value.real) <= (
                        oracle.error_bound + 1e-13 * abs(oracle.value))

        for nu in (0.0, math.pi):  # pi is exceptional: the measure has a line
            mu = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(nu))
            assert len(mu.lines) == (1 if nu else 0)
            run(mu, GRID, "oracle")
        # the branch measure's tail term differs by design; values still agree
        mu = product_branch_measure(ProductInner(EXP, EXP), UnimodularConstant.one(), K=8)
        assert mu.tail_bound > 0
        run(mu, GRID, "values")

    def test_nd_fast_path_matches_nested(self):
        alpha = UnimodularConstant.from_nu(0.7)
        em = embed_clark_nd(EXP, alpha, 3, K=25)
        fast = embed_integrator(em, GRID)
        z = (0.3 + 0.4j, -0.5 + 0.2j, 0.1 - 0.6j)

        def f(w1, w2, w3):
            out = np.ones(np.broadcast(w1, w2, w3).shape)
            for zi, w in zip(z, (w1, w2, w3)):
                out = out * (1 - abs(zi) ** 2) / np.abs(w - zi) ** 2
            return out

        nested = integrate_embed_nd(em, f, QuadratureGrid(512))
        assert abs(fast(z).value - nested.value.real) <= 1e-10

    def test_nd_fast_path_matches_kernel_semigroup(self):
        # integration over {zeta_1 zeta_2 zeta_3 = eta} reproduces the
        # one-variable kernel at the product point
        alpha = UnimodularConstant.from_nu(1.3)
        em = embed_clark_nd(EXP, alpha, 3, K=25)
        fast = embed_integrator(em, GRID)
        z = (0.5, 0.2j, -0.3 + 0.1j)
        w = z[0] * z[1] * z[2]
        closed = sum(
            wk * (1 - abs(w) ** 2) / abs(p.value - w) ** 2 for p, wk in em.base.atoms
        )
        assert abs(fast(z).value - closed) <= 1e-10

    def test_rejects_wrong_arity(self):
        em = embed_clark_nd(EXP, UnimodularConstant.from_nu(0.0), 3, K=5)
        with pytest.raises(ValueError):
            embed_integrator(em, GRID)((0.1, 0.2))

    def test_rejects_points_off_the_polydisc(self):
        alpha = UnimodularConstant.from_nu(0.0)
        cases = (
            (embed_integrator(embed_clark_nd(EXP, alpha, 2, K=50), GRID), (1.0, 0.5)),
            (embed_integrator(embed_clark_nd(EXP, alpha, 3, K=50), GRID), (1.0, 0.5, 0.5)),
            (measure_integrator(embed_clark2d(EXP, alpha, K=50), GRID), (0.5, -1.0j)),
            (product_integrator(ProductInner(EXP, EXP), alpha, GRID, K=50), (0.5, 1.5)),
        )
        for integrate, z in cases:
            with pytest.raises(ValueError):
                integrate(z)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                     complex(math.inf, 0.0), complex(0.0, -math.inf)])
    def test_rejects_non_finite_points(self, bad, monkeypatch):
        alpha = UnimodularConstant.from_nu(0.0)

        class NoFiber:
            def poisson_profile(self, axis, z):
                raise AssertionError("fiber work before the point was checked")

        monkeypatch.setattr(verify, "_product_fiber", lambda *args: NoFiber())
        cases = (
            (embed_integrator(embed_clark_nd(EXP, alpha, 3, K=50), GRID), (0.1, bad, 0.5)),
            (measure_integrator(embed_clark2d(EXP, alpha, K=50), GRID), (bad, 0.5j)),
            (measure_integrator(rif_clark_measure(example_rif(), alpha), GRID), (0.5, bad)),
            (product_integrator(ProductInner(EXP, EXP), alpha, GRID, K=50), (bad, 0.5)),
            (product_integrator(ProductInner(EXP, EXP), alpha, GRID, K=50), (0.5, bad)),
        )
        for integrate, z in cases:
            with pytest.raises(ValueError, match="open polydisc"):
                integrate(z)

    def test_product_integrator_is_a_function_of_the_point(self):
        # the fiber is built once per integrator; no point may see another's
        BPAIR = InnerFunction1D(monomial_power=1, blaschke_zeros=(0.5j,))
        psi = InnerFunction1D(monomial_power=2, blaschke_zeros=(0.3 - 0.2j,))
        points = [(0j, 0j), *sample_test_points(2, 6)]
        for P, alpha in ((ProductInner(BPAIR, EXP), 0.7), (ProductInner(EXP, BPAIR), 0.7),
                         (ProductInner(EXP, EXP), 0.0), (ProductInner(BPAIR, psi), 2.1)):
            alpha = UnimodularConstant.from_nu(alpha)
            integrate = product_integrator(P, alpha, GRID, K=60)
            forwards = [integrate(z) for z in points]
            backwards = [integrate(z) for z in reversed(points)][::-1]
            fresh = [product_integrator(P, alpha, GRID, K=60)(z) for z in points]
            assert forwards == backwards == fresh
            # the generic split path, with the kernel on every atom, is the oracle
            for (z1, z2), res in zip(points, forwards):
                oracle = product_clark_integrate(
                    P, alpha, None, GRID, K=60,
                    f_split=(lambda w, a=z1: poisson_kernel(a, w),
                             lambda w, a=z2: poisson_kernel(a, w)),
                )
                scale = 1e-14 * abs(oracle.value)
                assert abs(res.value - oracle.value) <= scale
                assert abs(res.error_bound - oracle.error_bound) <= scale

    def test_product_fourier_entries_match_single_integrals(self):
        BPAIR = InnerFunction1D(monomial_power=1, blaschke_zeros=(0.5j,))
        for P, alpha in ((ProductInner(EXP, BPAIR), UnimodularConstant.from_nu(math.pi / 4)),
                         (ProductInner(EXP, EXP), UnimodularConstant.one())):
            entries = product_fourier_rp_check(P, alpha, 2, GRID, K=60)
            assert len(entries) == 8
            assert {e.k for e in entries} == {(k1, k2) for k1 in (-2, -1, 1, 2)
                                              for k2 in (-2, -1, 1, 2) if k1 * k2 < 0}
            for e in entries:
                k1, k2 = e.k
                res = product_clark_integrate(
                    P, alpha, None, GRID, K=60,
                    f_split=(lambda w: w ** (-k1), lambda w: w ** (-k2)),
                )
                assert abs(e.modulus - abs(res.value)) <= 1e-15
                assert abs(e.tolerance - (FOURIER_BASE_TOL + res.error_bound)) <= 1e-15

    def test_product_integrator_runs_fiber_path(self):
        P = ProductInner(EXP, EXP)
        alpha = UnimodularConstant.from_nu(0.9)
        integrate = product_integrator(P, alpha, GRID, K=300)
        z = (0.3 + 0.2j, -0.1 + 0.5j)
        rhs = herglotz_rhs(product_map(P), alpha, z)
        res = integrate(z)
        assert abs(res.value - rhs) / rhs <= PRODUCT_BASE_REL + res.error_bound / rhs


    @pytest.mark.parametrize("n", [4096, 32768])
    def test_closed_form_line_matches_node_quadrature(self, n):
        # a line carries c times Lebesgue measure, so it adds c P_{z1}(tau)
        # exactly, and the graph is a residue sum whatever the grid; the node
        # quadrature of integrate_measure2d at N = 32768 is the oracle
        mu = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(math.pi))
        assert len(mu.lines) == 1
        integrate = measure_integrator(mu, QuadratureGrid(n))
        fine = QuadratureGrid(32768)
        for z1, z2 in sample_test_points(2, 20):
            res = integrate((z1, z2))
            oracle = integrate_measure2d(
                mu, lambda w1, w2: poisson_kernel(z1, w1) * poisson_kernel(z2, w2), fine)
            assert abs(res.value - oracle.value.real) <= (
                oracle.error_bound + 1e-13 * abs(oracle.value))


class TestPoissonIdentity:
    def test_monomial_embedding_tight(self):
        alpha = UnimodularConstant.from_nu(0.7)
        em = embed_clark_nd(IDENT, alpha, 2, K=1)
        report = poisson_identity_check(
            em, embedding_map(IDENT, 2), alpha, sample_test_points(2, 100), GRID
        )
        assert report.passed
        assert max(r.relative_error for r in report.identity_residuals) <= 1e-10

    def test_rif_identity_tight(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi / 2)
        mu = rif_clark_measure(R, alpha)
        report = poisson_identity_check(
            mu, rif_map(R), alpha, sample_test_points(2, 20), GRID,
            base_rel=RIF_BASE_REL,
        )
        assert report.passed

    def test_negative_control_dropped_line(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        crippled = ClarkMeasure2D(curves=mu.curves, lines=(), tail_bound=0.0)
        points = sample_test_points(2, 10)
        good = poisson_identity_check(mu, rif_map(R), alpha, points, GRID,
                                      base_rel=RIF_BASE_REL)
        bad = poisson_identity_check(crippled, rif_map(R), alpha, points, GRID,
                                     base_rel=RIF_BASE_REL)
        assert good.passed
        assert not bad.passed
        assert max(r.relative_error for r in bad.identity_residuals) > 0.1

    @pytest.mark.parametrize("change", ["weight times 4", "graph B for conj B"])
    def test_negative_control_replaced_graph(self, change):
        # a level graph whose weight or rule is replaced is no longer summed
        # by residues; its node quadrature must then fail the identity
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi / 4)
        graph = rif_clark_measure(R, alpha).graphs[0]
        if change == "weight times 4":
            replaced = CurveComponent(graph.kind, lambda zeta: 4.0 * graph.weight(zeta))
        else:
            replaced = CurveComponent(Graph(lambda zeta: np.conj(graph.kind.g(zeta))),
                                      graph.weight)
        assert verify._level_graph(replaced) is None
        report = poisson_identity_check(ClarkMeasure2D(curves=(replaced,)), rif_map(R), alpha,
                                        sample_test_points(2, 20), GRID, base_rel=RIF_BASE_REL)
        assert not report.passed
        assert max(r.relative_error for r in report.identity_residuals) > 0.1

    def test_rif_residuals_at_the_default_grid(self):
        # criterion 05(d)'s points and levels: the residue sum meets 1e-11
        # relative whatever the grid, where the node quadrature needed
        # N = 32768 to meet 1e-8
        R = example_rif()
        points = [(0j, 0j), *sample_test_points(2, 100)]
        for nu in (0.0, math.pi / 4, math.pi / 2, math.pi):
            alpha = UnimodularConstant.from_nu(nu)
            mu = rif_clark_measure(R, alpha)
            report = poisson_identity_check(mu, rif_map(R), alpha, points, GRID,
                                            base_rel=RIF_BASE_REL)
            assert report.passed
            assert max(r.relative_error for r in report.identity_residuals) <= 1e-11
            assert max(r.tolerance for r in report.identity_residuals) <= 2 * RIF_BASE_REL

    def test_zero_point_residual_equals_mass_error(self):
        alpha = UnimodularConstant.from_nu(0.4)
        em = embed_clark_nd(EXP, alpha, 2, K=50)
        integrate = embed_integrator(em, GRID)
        phi = embedding_map(EXP, 2)
        report = poisson_identity_check(em, phi, alpha, ((0j, 0j),), GRID,
                                        integrate=integrate)
        mass = total_mass_check(em, phi, alpha, integrate=integrate, dimension=2)
        r = report.identity_residuals[0]
        assert abs(r.lhs - r.rhs) == mass.error


class TestTotalMass:
    def test_probability_when_phi_vanishes_at_zero(self):
        alpha = UnimodularConstant.from_nu(1.1)
        em = embed_clark_nd(IDENT, alpha, 2, K=1)
        mass = total_mass_check(em, embedding_map(IDENT, 2), alpha)
        assert mass.expected == 1.0
        assert mass.passed

    def test_exponential_mass_closed_form(self):
        alpha = UnimodularConstant.from_nu(0.0)
        em = embed_clark_nd(EXP, alpha, 2, K=2000)
        mass = total_mass_check(em, embedding_map(EXP, 2), alpha)
        expected = (1 - math.exp(-2)) / (1 - math.exp(-1)) ** 2
        assert mass.expected == pytest.approx(expected, rel=1e-14)
        assert mass.error <= mass.tolerance

    def test_rif_mass(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        mass = total_mass_check(mu, rif_map(R), alpha, GRID)
        assert mass.expected == pytest.approx(1.0)
        assert mass.passed


class TestSupportInclusion:
    def test_square_embedding(self):
        alpha = UnimodularConstant.from_nu(0.0)
        mu = embed_clark2d(SQUARE, alpha, K=2)
        samples = support_inclusion_check(
            mu, embedding_boundary_map(SQUARE, 2), alpha
        )
        assert len(samples) == 2 * 16
        assert all(s.passed for s in samples)
        assert max(s.deviation for s in samples) <= 1e-12

    def test_rif_line_samples(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        samples = support_inclusion_check(mu, rif_boundary_map(R), alpha)
        assert any(s.point[0] == 1.0 + 0j for s in samples)
        assert all(s.passed for s in samples)

    def test_product_branch_samples(self):
        P = ProductInner(EXP, EXP)
        alpha = UnimodularConstant.from_nu(1.2)
        mu = product_branch_measure(P, alpha, K=10)
        samples = support_inclusion_check(
            mu, product_boundary_map(P), alpha,
            exemptions=(((1 + 0j), (1 + 0j)),),
        )
        assert all(s.passed for s in samples)
        assert len(samples) == len(mu.curves) * 16

    def test_wrong_alpha_fails(self):
        alpha = UnimodularConstant.from_nu(0.0)
        mu = embed_clark2d(SQUARE, alpha, K=2)
        samples = support_inclusion_check(
            mu, embedding_boundary_map(SQUARE, 2), UnimodularConstant.from_nu(2.0)
        )
        assert not any(s.passed for s in samples)

    def test_zero_weight_components_skipped(self):
        from clark_measures import Antidiagonal

        mu = ClarkMeasure2D(
            curves=(
                CurveComponent(Antidiagonal(TorusPoint(0.0)), 1.0),
                CurveComponent(Antidiagonal(TorusPoint(1.0)), 0.0),
            )
        )
        samples = support_inclusion_check(
            mu, embedding_boundary_map(IDENT, 2), UnimodularConstant.from_nu(0.0)
        )
        assert len(samples) == 16


def _pointwise_boundary_value(kind, data, point):
    """Phi* at one torus point by the scalar boundary values, or None."""
    if kind == "rif":
        z1, z2 = point
        scale = max(max(abs(c) for c in p.coefficients) for p in (data.p1, data.p2))
        den = data.denominator(z1, z2)
        if abs(den) > 1e-10 * scale:
            return complex(data.numerator(z1, z2) / den)
        try:
            return radial_limit(data, z1, z2)
        except rif2d.RIFError:
            return None
    if kind == "embed":
        factors = [(data, math.prod(point))]
    else:
        factors = [(data.phi, point[0]), (data.psi, point[1])]
    value = 1.0 + 0j
    for phi, w in factors:
        bv = boundary_value(phi, TorusPoint.from_complex(w, tol=1e-6))
        if not isinstance(bv, Unimodular):
            return None
        value *= bv.value
    return value


class TestBoundaryMaps:
    BLASCHKE_PAIR = InnerFunction1D(monomial_power=1, blaschke_zeros=(0.5j,))

    def cases(self):
        # embedding atoms stop at K = 10: further out the boundary phase is
        # so steep that one rounding of z1 z2 moves phi* by 1e-12
        R = example_rif()
        ee, be = ProductInner(EXP, EXP), ProductInner(EXP, self.BLASCHKE_PAIR)
        one = UnimodularConstant.one()
        quarter = UnimodularConstant.from_nu(0.785398)
        pi = UnimodularConstant.from_nu(math.pi)
        return [
            ("product", ee, product_boundary_map(ee), product_branch_measure(ee, one, K=50),
             one, [(1 + 0j, 1 + 0j)]),
            ("product", be, product_boundary_map(be), product_branch_measure(be, quarter, K=50),
             quarter, []),
            ("rif", R, rif_boundary_map(R), rif_clark_measure(R, one), one, singularities(R)),
            ("rif", R, rif_boundary_map(R), rif_clark_measure(R, pi), pi, singularities(R)),
            ("embed", EXP, embedding_boundary_map(EXP, 2), embed_clark2d(EXP, one, K=10),
             one, []),
        ]

    def test_array_form_is_the_pointwise_value_at_every_support_sample(self):
        for kind, data, bmap, mu, alpha, exempt in self.cases():
            samples = support_inclusion_check(mu, bmap, alpha, exemptions=exempt)
            assert samples and all(s.passed for s in samples)
            z1, z2 = (np.array(c) for c in zip(*(s.point for s in samples)))
            values = bmap.array(z1, z2)
            for s, value in zip(samples, values.tolist()):
                expected = _pointwise_boundary_value(kind, data, s.point)
                assert bmap(s.point) == (value if cmath.isfinite(value) else None)
                if expected is None:
                    assert s.deviation is None and not cmath.isfinite(value)
                    continue
                assert abs(s.deviation - abs(expected - alpha.alpha)) <= 1e-12

    def test_samples_off_the_circle_raise(self):
        # a graph 1.1 zeta off the circle
        bent = ClarkMeasure2D(curves=(
            CurveComponent(Graph(lambda z: 1.1 * z), lambda z: np.ones(z.shape)),))
        for _, _, bmap, _, alpha, _ in self.cases():
            with pytest.raises(ValueError):
                support_inclusion_check(bent, bmap, alpha)
            with pytest.raises(ValueError):
                bmap((1.0 + 0j, 1.1 + 0j))


def grid_fourier_oracle(mu: ClarkMeasure2D, kmax: int, grid: QuadratureGrid):
    """fourier_rp_check by one grid pass per entry and graph: the node and
    even-node means of w zeta^(-k1) g^(-k2) by periodic_means, with every
    grid moment mean(zeta^m), |m| <= 2 kmax, taken up front."""
    zeta = grid.points()
    etas, weights = mu._etas, mu.weights
    graph_data = [(g, w) for _, _, g, w in _component_nodes(mu.graphs, (), zeta)]
    moments = {m: complex(np.mean(zeta ** m)) for m in range(-2 * kmax, 2 * kmax + 1)}
    moments_half = {m: complex(np.mean(zeta[::2] ** m)) for m in moments}
    eta_moments = {}
    up, down, conj_etas = weights.astype(complex), weights.astype(complex), np.conj(etas)
    for k in range(1, kmax + 1):
        up *= etas
        down *= conj_etas
        eta_moments[-k], eta_moments[k] = complex(np.sum(up)), complex(np.sum(down))
    entries = []
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            if k1 * k2 >= 0:
                continue
            a = eta_moments[k2]
            val, val_half = a * moments[k2 - k1], a * moments_half[k2 - k1]
            for idx, (g, w) in enumerate(graph_data, start=len(etas)):
                with np.errstate(all="ignore"):
                    full, half = periodic_means(w * zeta ** (-k1) * g ** (-k2),
                                                component_index=idx)
                val += complex(full)
                val_half += complex(half)
            for line in mu.lines:
                contrib = line.constant * line.tau.value ** (-k1)
                val += contrib * moments[-k2]
                val_half += contrib * moments_half[-k2]
            entries.append(FourierEntry(
                k=(k1, k2), modulus=float(abs(val)),
                tolerance=FOURIER_BASE_TOL + mu.tail_bound + float(abs(val - val_half))))
    return tuple(entries)


ORACLE_GRIDS = [QuadratureGrid(n) for n in (4096, 256, 255)]


class TestFourierRP:
    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"N{g.n_nodes}")
    def test_graph_free_measures_match_the_grid_oracle_bit_for_bit(self, grid):
        lines = ClarkMeasure2D(lines=(LineComponent(TorusPoint(0.3), 0.25),
                                      LineComponent(TorusPoint(2.0), 0.5)))
        for mu in (embed_clark2d(EXP, UnimodularConstant.from_nu(0.4), K=200), lines):
            assert fourier_rp_check(mu, 8, grid) == grid_fourier_oracle(mu, 8, grid)

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"N{g.n_nodes}")
    def test_graph_measures_match_the_grid_oracle(self, grid):
        # the transform sums in another order than the grid pass, so the
        # entries agree to rounding, not bit for bit
        measures = [rif_clark_measure(example_rif(), UnimodularConstant.from_nu(nu))
                    for nu in (0.0, math.pi / 4, math.pi / 2, math.pi)]
        measures.append(product_branch_measure(ProductInner(EXP, EXP),
                                               UnimodularConstant.from_nu(0.3), K=40))
        for mu in measures:
            got, want = fourier_rp_check(mu, 8, grid), grid_fourier_oracle(mu, 8, grid)
            assert [e.k for e in got] == [e.k for e in want]
            for e, o in zip(got, want):
                assert abs(e.modulus - o.modulus) <= 1e-15
                assert abs(e.tolerance - o.tolerance) <= 1e-15

    @pytest.mark.parametrize("nu", [0.0, math.pi / 4, math.pi / 2, math.pi])
    def test_entries_do_not_depend_on_kmax(self, nu):
        mu = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(nu))
        wide = {e.k: e for e in fourier_rp_check(mu, 8, GRID)}
        narrow = fourier_rp_check(mu, 3, GRID)
        assert len(narrow) == 18
        assert all(e == wide[e.k] for e in narrow)

    def test_monomial_embedding_orthogonality(self):
        alpha = UnimodularConstant.from_nu(0.9)
        mu = embed_clark2d(IDENT, alpha, K=1)
        entries = fourier_rp_check(mu, kmax=2, grid=GRID)
        assert len(entries) == 8
        assert all(e.passed for e in entries)
        assert max(e.modulus for e in entries) <= 1e-12

    def test_rif_measure(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        entries = fourier_rp_check(mu, kmax=8, grid=GRID)
        assert all(e.passed for e in entries)

    def test_product_branch_measure(self):
        P = ProductInner(EXP, EXP)
        alpha = UnimodularConstant.from_nu(0.3)
        mu = product_branch_measure(P, alpha, K=40)
        entries = fourier_rp_check(mu, kmax=3, grid=GRID)
        assert all(e.passed for e in entries)

    def test_diagonal_negative_control(self):
        diagonal = ClarkMeasure2D(
            curves=(
                CurveComponent(
                    Graph(lambda z: z), lambda z: np.ones(np.shape(z), dtype=float)
                ),
            )
        )
        entries = fourier_rp_check(diagonal, kmax=2, grid=GRID)
        worst = {e.k: e for e in entries}
        assert worst[(1, -1)].modulus >= 0.5
        assert not worst[(1, -1)].passed

    def test_rejects_bad_kmax(self):
        with pytest.raises(ValueError):
            fourier_rp_check(ClarkMeasure2D(), 0)


class TestReport:
    def make_report(self):
        return VerificationReport(
            identity_residuals=(
                IdentityResidual(z=(0.1 + 0.2j, 0j), lhs=1.0, rhs=1.0,
                                 relative_error=0.0, tolerance=1e-6),
            ),
            mass=MassCheck(computed=1.0, expected=1.0, error=0.0, tolerance=1e-8),
            fourier=(FourierEntry(k=(1, -1), modulus=0.0, tolerance=1e-8),),
            support=(SupportSample(point=(1 + 0j, 1 + 0j), deviation=0.0,
                                   exempt=False, tolerance=1e-8),),
            tolerances={"identity_base_rel": 1e-6},
            seed=1729,
        )

    def test_passed_reflects_sections(self):
        report = self.make_report()
        assert report.passed
        failing = VerificationReport(
            identity_residuals=(
                IdentityResidual(z=(0j, 0j), lhs=2.0, rhs=1.0,
                                 relative_error=1.0, tolerance=1e-6),
            )
        )
        assert not failing.passed

    def test_json_round_trip(self):
        report = self.make_report()
        data = json.loads(json.dumps(report.to_json_dict()))
        assert VerificationReport.from_json_dict(data) == report

    def test_undefined_deviation_round_trips(self):
        report = VerificationReport(
            support=(SupportSample(point=(1 + 0j, 1 + 0j), deviation=None,
                                   exempt=True, tolerance=1e-8),)
        )
        data = json.loads(json.dumps(report.to_json_dict()))
        assert VerificationReport.from_json_dict(data) == report

    def test_rejects_unknown_fields(self):
        data = self.make_report().to_json_dict()
        data["extra"] = 1
        with pytest.raises(ValueError):
            VerificationReport.from_json_dict(data)

    @pytest.mark.parametrize("section, entry, cls", [
        ("fourier", 0, "FourierEntry"),
        ("identity_residuals", 0, "IdentityResidual"),
        ("support", 0, "SupportSample"),
        ("mass", None, "MassCheck"),
    ])
    def test_malformed_section_names_its_type(self, section, entry, cls):
        data = json.loads(json.dumps(self.make_report().to_json_dict()))
        item = data[section] if entry is None else data[section][entry]
        del item["tolerance"]
        with pytest.raises(ValueError, match=cls):
            VerificationReport.from_json_dict(data)

    @pytest.mark.parametrize("bad", [None, [1, 2], {"k": "ab", "modulus": 0.0,
                                                    "tolerance": 1e-8}])
    def test_malformed_fourier_entry_is_value_error(self, bad):
        data = self.make_report().to_json_dict()
        data["fourier"] = [bad]
        with pytest.raises(ValueError, match="FourierEntry"):
            VerificationReport.from_json_dict(data)

    @pytest.mark.parametrize("key", ["fourier", "identity_residuals", "support", "tolerances"])
    def test_malformed_top_level_names_its_key(self, key):
        data = self.make_report().to_json_dict()
        data[key] = 5
        with pytest.raises(ValueError, match=key):
            VerificationReport.from_json_dict(data)

    def test_json_text(self):
        report = VerificationReport(
            identity_residuals=(
                IdentityResidual(z=(np.complex128(0.1 + 0.2j), -0.3j), lhs=np.float64(1.25),
                                 rhs=1.0, relative_error=np.float64(0.25), tolerance=1e-6),
            ),
            mass=MassCheck(computed=np.float64(2.0), expected=2.0, error=0.0, tolerance=1e-8),
            fourier=(FourierEntry(k=(np.int64(2), -1), modulus=np.float64(3e-9),
                                  tolerance=1e-8),),
            support=(
                SupportSample(point=(1 + 0j, -1 + 0j), deviation=None, exempt=True,
                              tolerance=1e-8),
                SupportSample(point=(0.6 + 0.8j, 1j), deviation=np.float64(5e-9),
                              exempt=False, tolerance=1e-8),
            ),
            tolerances={"identity_base_rel": 1e-6},
            seed=1729,
        )
        assert json.dumps(report.to_json_dict(), sort_keys=True) == (
            '{"fourier": [{"k": [2, -1], "modulus": 3e-09, "tolerance": 1e-08}], '
            '"identity_residuals": [{"lhs": 1.25, "relative_error": 0.25, "rhs": 1.0, '
            '"tolerance": 1e-06, "z": [[0.1, 0.2], [-0.0, -0.3]]}], '
            '"mass": {"computed": 2.0, "error": 0.0, "expected": 2.0, "tolerance": 1e-08}, '
            '"passed": false, "seed": 1729, '
            '"support": [{"deviation": null, "exempt": true, "point": [[1.0, 0.0], [-1.0, 0.0]], '
            '"tolerance": 1e-08}, {"deviation": 5e-09, "exempt": false, '
            '"point": [[0.6, 0.8], [0.0, 1.0]], "tolerance": 1e-08}], '
            '"tolerances": {"identity_base_rel": 1e-06}}'
        )

    def test_rejects_inconsistent_flag(self):
        data = self.make_report().to_json_dict()
        data["passed"] = False
        with pytest.raises(ValueError):
            VerificationReport.from_json_dict(data)


class TestAntidiagonalColumns:
    """The checks read a measure's antidiagonal columns, not its curves view."""

    @staticmethod
    def column_and_object_forms():
        etas, weights = [0.3, 2.5, 5.9, 0.0], [0.25, 0.0, 0.5, 0.125]
        graph = CurveComponent(Graph(lambda z: np.conj(z) ** 2), lambda z: np.abs(z - 1) ** 2 / 4)
        objects = tuple(CurveComponent(Antidiagonal(TorusPoint(t)), w)
                        for t, w in zip(etas, weights))
        return (ClarkMeasure2D(curves=(graph,), thetas=etas, weights=weights, tail_bound=1e-3),
                ClarkMeasure2D(curves=objects + (graph,), tail_bound=1e-3))

    def test_columns_and_objects_give_the_same_bits(self):
        columns, objects = self.column_and_object_forms()
        grid = QuadratureGrid(256)
        alpha = UnimodularConstant.from_nu(0.3)
        boundary_map = embedding_boundary_map(IDENT, 2)
        a, b = measure_integrator(columns, grid), measure_integrator(objects, grid)
        for z in sample_test_points(2, 10):
            assert a(z) == b(z)
        assert fourier_rp_check(columns, 3, grid) == fourier_rp_check(objects, 3, grid)
        samples = support_inclusion_check(columns, boundary_map, alpha)
        assert len(samples) == 3 * 16 + 16
        assert samples == support_inclusion_check(objects, boundary_map, alpha)

        def raw(comp):
            return comp.cid, comp.nodes.tobytes(), *(
                None if c is None else np.asarray(c).tobytes() for c in comp[2:])

        thetas = TWO_PI * np.arange(64) / 64
        got = [raw(c) for c in cli._measure_components(columns, thetas)]
        assert got == [raw(c) for c in cli._measure_components(objects, thetas)]
        assert [cid for cid, *_ in got] == [f"curve{i}" for i in range(5)]

    def test_component_index_is_the_index_in_curves(self):
        # paths that sample the graph report its index in mu.curves, which
        # lists the antidiagonals first
        undefined = CurveComponent(Graph(lambda z: np.full(z.shape, np.nan, complex)),
                                   lambda z: np.ones(z.shape))
        mu = ClarkMeasure2D(curves=(CurveComponent(Antidiagonal(TorusPoint(0.5)), 1.0),
                                    undefined))
        grid = QuadratureGrid(256)
        z = (0.1 + 0.2j, -0.3j)
        with pytest.raises(QuadratureError) as generic:
            integrate_measure2d(mu, poisson_f(*z), grid)
        with pytest.raises(QuadratureError) as closed_form:
            measure_integrator(mu, grid)(z)
        with pytest.raises(QuadratureError) as fourier:
            fourier_rp_check(mu, 1, grid)
        assert [e.value.component_index for e in (generic, closed_form, fourier)] == [1, 1, 1]

    def test_the_verify_path_never_builds_the_curves_view(self):
        alpha = UnimodularConstant.one()
        mu = embed_clark2d(EXP, alpha, K=10000)
        rule = embedding_map(EXP, 2)
        integrate = measure_integrator(mu, GRID)
        integrate((0.3 + 0.1j, -0.2j))
        total_mass_check(mu, rule, alpha, integrate=integrate)
        fourier_rp_check(mu, 2, GRID)
        samples = support_inclusion_check(mu, embedding_boundary_map(EXP, 2), alpha)
        assert len(samples) == 16 * 20001
        assert "curves" not in mu.__dict__


class TestGraphPassAllocation:
    @pytest.mark.parametrize("nu", [0.0, math.pi])
    def test_a_point_allocates_at_most_one_float_row(self, nu):
        # the graph rows are made once per integrator; after a warm-up a
        # point allocates only the tree sums of periodic_means, under N
        # floats.  The RIF graph's weight is replaced, so that it runs the
        # node quadrature rather than its residue sum.
        n = 32768
        level = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(nu))
        graph = level.graphs[0]
        copied = CurveComponent(graph.kind, lambda zeta: graph.weight(zeta))
        mu = ClarkMeasure2D(curves=(copied,), lines=level.lines)
        assert verify._level_graph(graph) is not None and verify._level_graph(copied) is None
        integrate = measure_integrator(mu, QuadratureGrid(n))
        z = (0.3 + 0.4j, -0.5 + 0.1j)
        integrate(z)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            integrate(z)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n
        assert n in vars(mu)["_graph_samples"]
