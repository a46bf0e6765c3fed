import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clark_measures.torus_core import (
    Antidiagonal,
    ClarkMeasure2D,
    CurveComponent,
    DiskPoint,
    Graph,
    LineComponent,
    DiscreteMeasure1D,
    QuadratureError,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    canonical_angle,
    circle_distance,
    integrate_measure2d,
    pairwise_sum,
    periodic_means,
    periodic_quadrature,
    poisson_kernel,
    poisson_kernel_nd,
)

TWO_PI = 2.0 * math.pi


class TestPoints:
    def test_torus_point_canonicalizes(self):
        assert TorusPoint(TWO_PI + 0.5).theta == pytest.approx(0.5, abs=1e-15)
        assert TorusPoint(-0.25).theta == pytest.approx(TWO_PI - 0.25, abs=1e-15)
        assert TorusPoint(TWO_PI).theta == 0.0

    def test_torus_point_value(self):
        p = TorusPoint(math.pi / 2)
        assert p.value == pytest.approx(1j, abs=1e-15)

    def test_close_to_wraps(self):
        assert TorusPoint(1e-15).close_to(TorusPoint(TWO_PI - 1e-15))
        assert not TorusPoint(0.0).close_to(TorusPoint(1e-6))

    def test_circle_distance(self):
        assert circle_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-14)

    def test_disk_point_rejects_boundary(self):
        with pytest.raises(ValueError):
            DiskPoint(1.0 + 0j)
        with pytest.raises(ValueError):
            DiskPoint(1.2j)
        assert DiskPoint(0.3 + 0.4j).value == 0.3 + 0.4j

    def test_unimodular_constant(self):
        u = UnimodularConstant.from_nu(3 * math.pi)
        assert u.nu == pytest.approx(math.pi)
        assert abs(abs(u.alpha) - 1) <= 1e-15
        v = UnimodularConstant.from_complex(-1j)
        assert v.nu == pytest.approx(3 * math.pi / 2)
        with pytest.raises(ValueError):
            UnimodularConstant.from_complex(0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_are_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            canonical_angle(bad)
        with pytest.raises(ValueError, match="finite"):
            TorusPoint(bad)
        with pytest.raises(ValueError, match="finite"):
            UnimodularConstant.from_nu(bad)


class TestPoissonKernel:
    def test_at_origin_is_one(self):
        for theta in (0.0, 1.0, 4.5):
            assert poisson_kernel(0, TorusPoint(theta)) == pytest.approx(1.0, abs=1e-15)

    def test_half_at_angle_zero(self):
        assert poisson_kernel(0.5, TorusPoint(0.0)) == pytest.approx(3.0, abs=1e-14)

    def test_half_at_angle_pi(self):
        assert poisson_kernel(0.5, TorusPoint(math.pi)) == pytest.approx(1 / 3, abs=1e-14)

    def test_rejects_exterior(self):
        with pytest.raises(ValueError):
            poisson_kernel(1.0, TorusPoint(0.0))

    def test_nd_products(self):
        assert poisson_kernel_nd([0, 0], [TorusPoint(1.0), TorusPoint(2.0)]) == pytest.approx(1.0)
        assert poisson_kernel_nd([0.5, 0], [TorusPoint(0.0), TorusPoint(2.0)]) == pytest.approx(3.0)
        assert poisson_kernel_nd([0.5, 0.5], [TorusPoint(0.0), TorusPoint(0.0)]) == pytest.approx(9.0)

    def test_nd_rejects_mismatch(self):
        with pytest.raises(ValueError):
            poisson_kernel_nd([0.5], [TorusPoint(0.0), TorusPoint(1.0)])
        with pytest.raises(ValueError):
            poisson_kernel_nd([], [])

    def test_vectorized_positive(self):
        zeta = QuadratureGrid(128).points()
        vals = poisson_kernel(0.7j, zeta)
        assert vals.shape == (128,)
        assert np.all(vals > 0)


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=1001)
        assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-15)

    def test_repeatable(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        assert pairwise_sum(x) == pairwise_sum(x.copy())

    def test_empty(self):
        assert pairwise_sum(np.array([])) == 0.0

    def test_axis(self):
        a = np.arange(12.0).reshape(3, 4)
        assert np.allclose(pairwise_sum(a, axis=-1), a.sum(axis=-1))

    @staticmethod
    def padded_per_level(values, axis=-1):
        # reference tree: pair an odd level's last entry with a zero
        a = np.moveaxis(np.asarray(values), axis, -1)
        while a.shape[-1] > 1:
            if a.shape[-1] % 2:
                pad = np.zeros(a.shape[:-1] + (1,), dtype=a.dtype)
                a = np.concatenate([a, pad], axis=-1)
            a = a[..., 0::2] + a[..., 1::2]
        return a[..., 0]

    def test_same_tree_as_padding_per_level(self):
        rng = np.random.default_rng(3)
        for n in [*range(1, 300), 2001, 4097, 20001]:
            x = rng.normal(size=(3, n)) * 10.0 ** rng.integers(-8, 8, size=(3, n))
            z = x + 1j * rng.normal(size=(3, n))
            for a in (x, z):
                assert np.array_equal(pairwise_sum(a, axis=-1), self.padded_per_level(a))
                assert np.array_equal(pairwise_sum(a.T, axis=0), self.padded_per_level(a.T, 0))
                assert pairwise_sum(a[0]) == self.padded_per_level(a[0])


class TestPeriodicQuadrature:
    def test_constant(self):
        grid = QuadratureGrid(256)
        assert periodic_quadrature(lambda z: np.ones_like(z), grid) == 1.0

    def test_cosine_vanishes(self):
        grid = QuadratureGrid(4)
        val = periodic_quadrature(lambda z: z.real, grid)
        assert abs(val) <= 1e-15

    def test_poisson_mean(self):
        grid = QuadratureGrid(4096)
        val = periodic_quadrature(lambda z: poisson_kernel(0.5, z), grid)
        assert val == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=-20, max_value=20),
           st.floats(min_value=-1, max_value=1),
           st.floats(min_value=-1, max_value=1))
    def test_exact_for_trig_polynomials(self, m, re, im):
        # modes |m| < N/2 integrate to exactly their zeroth coefficient
        grid = QuadratureGrid(64)
        c = complex(re, im)
        val = periodic_quadrature(lambda z: c * z ** m, grid)
        expected = c if m == 0 else 0.0
        assert abs(val - expected) <= 1e-14

    def test_single_undefined_node_allowed(self):
        grid = QuadratureGrid(256)

        def f(z):
            out = np.ones_like(z)
            out[0] = np.nan
            return out

        val = periodic_quadrature(f, grid)
        assert val == pytest.approx(255 / 256, abs=1e-15)

    def test_many_undefined_nodes_fail(self):
        grid = QuadratureGrid(256)

        def f(z):
            out = np.ones_like(z)
            out[:10] = np.nan
            return out

        with pytest.raises(QuadratureError) as err:
            periodic_quadrature(f, grid)
        assert len(err.value.undefined_angles) > 0


class TestDiscreteMeasure1D:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            DiscreteMeasure1D([0.0], [0.0])
        with pytest.raises(ValueError):
            DiscreteMeasure1D([0.0, 1.0], [1.0, -0.5])

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError):
            DiscreteMeasure1D([1.0, 1.0 + 1e-14], [1.0, 1.0])

    def test_rejects_duplicates_across_the_wrap(self):
        with pytest.raises(ValueError):
            DiscreteMeasure1D([0.0, TWO_PI - 1e-14], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValueError):
            DiscreteMeasure1D([0.5, bad], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError):
            DiscreteMeasure1D([0.5, 1.5], [1.0, bad])

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            DiscreteMeasure1D([0.5, 1.5], [1.0])

    def test_arrays(self):
        mu = DiscreteMeasure1D([0.0, math.pi], [0.5, 0.25])
        assert mu.total_listed_mass == pytest.approx(0.75)
        assert np.allclose(np.exp(1j * mu.thetas), [1.0, -1.0])
        assert mu.weights.tolist() == [0.5, 0.25]

    def test_sorts_unsorted_input(self):
        mu = DiscreteMeasure1D([3.0, -1.0, 0.5, 7.0], [0.1, 0.2, 0.3, 0.4])
        want = sorted(zip([3.0, TWO_PI - 1.0, 0.5, 7.0 - TWO_PI], [0.1, 0.2, 0.3, 0.4]))
        assert mu.thetas.tolist() == [t for t, _ in want]
        assert mu.weights.tolist() == [w for _, w in want]

    def test_columns_are_read_only_copies(self):
        thetas, weights = np.array([0.25, 1.0]), np.array([1.0, 2.0])
        mu = DiscreteMeasure1D(thetas, weights)
        for column in (mu.thetas, mu.weights):
            with pytest.raises(ValueError):
                column[0] = 0.5
        thetas[0] = weights[0] = 3.0
        assert mu.thetas.tolist() == [0.25, 1.0] and mu.weights.tolist() == [1.0, 2.0]

    def test_atoms_are_the_pairs_of_the_columns(self):
        mu = DiscreteMeasure1D([2.0, -0.5, 0.0], [0.5, 0.25, 1.0])
        assert mu.atoms == tuple(zip(map(TorusPoint, mu.thetas.tolist()), mu.weights.tolist()))
        assert [p.theta for p, _ in mu.atoms] == mu.thetas.tolist()
        assert mu.atoms is mu.atoms

    def test_empty_measure(self):
        mu = DiscreteMeasure1D([], [])
        assert mu.atoms == () and mu.total_listed_mass == 0.0

    def test_angles_match_canonical_angle_bit_for_bit(self):
        # np.mod(-1e-17, 2 pi) rounds to 2 pi itself, which is taken as 0
        raw = [-1e-17, -0.25, 3 * TWO_PI + 0.5, 1.0, -TWO_PI - 2.0]
        mu = DiscreteMeasure1D(raw, np.ones(len(raw)))
        want = np.array(sorted(canonical_angle(t) for t in raw))
        assert mu.thetas.tobytes() == want.tobytes()
        assert mu.thetas[0] == 0.0 and mu.thetas.max() < TWO_PI


class TestClarkMeasure2DColumns:
    """The antidiagonal family of a 2D measure as angle and weight columns."""

    @staticmethod
    def graph():
        return CurveComponent(Graph(np.conj), lambda z: np.ones(z.shape))

    @pytest.mark.parametrize("thetas, weights", [
        ([0.5, math.nan], [1.0, 1.0]),
        ([math.inf], [1.0]),
        ([0.5], [-1e-300]),
        ([0.5], [math.nan]),
        ([0.5], [math.inf]),
        ([0.5, 1.0], [1.0]),
        ([[0.5]], [[1.0]]),
    ])
    def test_rejects_bad_columns(self, thetas, weights):
        with pytest.raises(ValueError):
            ClarkMeasure2D(thetas=thetas, weights=weights)

    def test_zero_weight_is_accepted(self):
        mu = ClarkMeasure2D(thetas=[1.0], weights=[0.0])
        assert mu.weights.tolist() == [0.0] and mu.curves[0].weight == 0.0

    def test_given_order_is_kept_and_columns_are_read_only(self):
        raw = np.array([0.0, math.pi, math.pi / 2, -0.25])
        weights = np.array([0.4, 0.6, 1.5, 0.1])
        mu = ClarkMeasure2D(thetas=raw, weights=weights)
        assert mu.thetas.tolist() == [canonical_angle(t) for t in raw.tolist()]
        assert mu.weights.tolist() == weights.tolist()
        for column in (mu.thetas, mu.weights):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 1.0
        weights[0] = 9.0  # the measure holds its own copy
        assert mu.weights[0] == 0.4

    def test_curves_are_derived_from_the_columns(self):
        given = (CurveComponent(Antidiagonal(TorusPoint(2.0)), 0.5), self.graph(),
                 CurveComponent(Antidiagonal(TorusPoint(-1.0)), 0.0))
        mu = ClarkMeasure2D(curves=given, thetas=[0.25], weights=[0.75])
        assert "curves" not in mu.__dict__
        assert mu.thetas.tolist() == [0.25, 2.0, TWO_PI - 1.0]
        assert mu.weights.tolist() == [0.75, 0.5, 0.0]
        assert mu.graphs == (given[1],)
        # the antidiagonals in column order, then the graphs
        curves = mu.curves
        assert [c.kind.eta.theta for c in curves[:3]] == mu.thetas.tolist()
        assert [c.weight for c in curves[:3]] == mu.weights.tolist()
        assert all(isinstance(c.kind, Antidiagonal) for c in curves[:3])
        assert curves[3] is given[1] and len(curves) == 4
        assert mu.curves is curves

    def test_rebuilt_from_its_curves_it_has_the_same_columns(self):
        mu = ClarkMeasure2D(thetas=[3.0, 0.1], weights=[0.2, 0.3], tail_bound=0.5)
        again = ClarkMeasure2D(curves=mu.curves, tail_bound=mu.tail_bound)
        assert again.thetas.tobytes() == mu.thetas.tobytes()
        assert again.weights.tobytes() == mu.weights.tobytes()

    def test_compares_by_identity(self):
        a, b = (ClarkMeasure2D(thetas=[1.0], weights=[1.0]) for _ in range(2))
        assert a == a and a != b

    def test_rejects_misplaced_components(self):
        line = LineComponent(TorusPoint(0.0), 0.5)
        with pytest.raises(TypeError):
            ClarkMeasure2D(curves=(line,))
        with pytest.raises(TypeError):
            ClarkMeasure2D(lines=(self.graph(),))
        with pytest.raises(TypeError):
            ClarkMeasure2D(curves=(Antidiagonal(TorusPoint(0.0)),))


class TestIntegrateMeasure2D:
    def test_unit_antidiagonal_constant(self):
        mu = ClarkMeasure2D(curves=(CurveComponent(Antidiagonal(TorusPoint(0.0)), 1.0),))
        res = integrate_measure2d(mu, lambda z1, z2: np.ones_like(z1), QuadratureGrid(256))
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_line_with_poisson_kernel(self):
        mu = ClarkMeasure2D(lines=(LineComponent(TorusPoint(0.0), 0.5),))

        def f(z1, z2):
            return poisson_kernel(0.0, z1) * poisson_kernel(0.3, z2)

        res = integrate_measure2d(mu, f, QuadratureGrid(4096))
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_mass_of_mixed_measure(self):
        mu = ClarkMeasure2D(
            curves=(CurveComponent(Antidiagonal(TorusPoint(1.0)), 0.25),
                    CurveComponent(Graph(lambda z: np.conj(z)),
                                   lambda z: np.abs(z - 1) ** 2)),
            lines=(LineComponent(TorusPoint(0.0), 0.5),),
        )
        res = integrate_measure2d(mu, lambda z1, z2: np.ones_like(z1), QuadratureGrid(512))
        # graph weight |zeta-1|^2 integrates to 2 under normalized measure
        assert res.value == pytest.approx(0.25 + 2.0 + 0.5, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2))
    def test_linearity(self, a, b):
        mu = ClarkMeasure2D(
            curves=(CurveComponent(Antidiagonal(TorusPoint(0.7)), 0.4),),
            lines=(LineComponent(TorusPoint(2.0), 0.3),),
        )
        grid = QuadratureGrid(128)

        def f(z1, z2):
            return z1 * np.conj(z2)

        def g(z1, z2):
            return np.abs(z2 - 0.5) ** 2

        lhs = integrate_measure2d(mu, lambda x, y: a * f(x, y) + b * g(x, y), grid).value
        rhs = a * integrate_measure2d(mu, f, grid).value + b * integrate_measure2d(mu, g, grid).value
        assert abs(lhs - rhs) <= 1e-12 * (abs(a) + abs(b) + 1)

    def test_repeated_runs_bit_identical(self):
        mu = ClarkMeasure2D(
            curves=(CurveComponent(Antidiagonal(TorusPoint(0.3)), 0.9),),
        )
        grid = QuadratureGrid(512)

        def f(z1, z2):
            return poisson_kernel(0.4 + 0.2j, z1) * poisson_kernel(-0.1j, z2)

        r1 = integrate_measure2d(mu, f, grid)
        r2 = integrate_measure2d(mu, f, grid)
        assert r1.value == r2.value and r1.error_bound == r2.error_bound

    def test_tail_bound_enters_error(self):
        mu = ClarkMeasure2D(
            curves=(CurveComponent(Antidiagonal(TorusPoint(0.0)), 1.0),),
            tail_bound=0.01,
        )
        res = integrate_measure2d(mu, lambda z1, z2: 3 * np.ones_like(z1), QuadratureGrid(64))
        assert res.error_bound >= 0.01 * 3

    def test_undefined_graph_nodes_tolerated(self):
        def g(z):
            out = np.conj(z).astype(complex)
            out[np.abs(z - 1) < 1e-9] = np.nan
            return out

        mu = ClarkMeasure2D(curves=(CurveComponent(Graph(g), lambda z: np.ones(z.shape)),))
        res = integrate_measure2d(mu, lambda z1, z2: np.ones_like(z2), QuadratureGrid(256))
        assert res.value == pytest.approx(1.0, abs=1e-14)


def test_canonical_angle_edge_cases():
    assert canonical_angle(0.0) == 0.0
    assert canonical_angle(-1e-18) == 0.0 or canonical_angle(-1e-18) < TWO_PI
    assert 0.0 <= canonical_angle(1e9) < TWO_PI


class TestRealArithmeticKernel:
    def test_matches_the_complex_modulus_form(self):
        # poisson_kernel takes (x-a)^2 + (y-b)^2 in real arithmetic; the
        # complex form (1-|z|^2)/abs(zeta-z)**2 agrees to a few roundings
        rng = np.random.default_rng(20)
        n = 10_000
        z = rng.uniform(0.0, 0.99, n) * np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        zeta = np.exp(1j * rng.uniform(0.0, TWO_PI, n))
        for a, w in zip(z.tolist(), zeta.tolist()):
            real_form = poisson_kernel(a, w)
            complex_form = (1.0 - abs(a) ** 2) / abs(w - a) ** 2
            assert abs(real_form - complex_form) <= 4 * np.finfo(float).eps * complex_form

    def test_scalar_and_array_forms_share_bits(self):
        zeta = QuadratureGrid(64).points()
        values = poisson_kernel(0.3 - 0.6j, zeta)
        assert all(poisson_kernel(0.3 - 0.6j, complex(w)) == v for w, v in zip(zeta, values))


class TestPeriodicMeansInPlace:
    def test_zeroes_undefined_nodes_in_the_callers_array(self):
        v = np.ones(2048)
        v[4] = np.nan
        full, half = periodic_means(v)
        assert v[4] == 0.0
        assert full == 2047 / 2048 and half == 1023 / 1024

    def test_read_only_input_is_left_alone(self):
        v = np.ones(2048)
        v[5] = np.inf
        v.flags.writeable = False
        assert periodic_means(v)[0] == 2047 / 2048
        assert np.isinf(v[5])

    def test_quadrature_leaves_the_integrands_array_alone(self):
        held = np.ones(256, dtype=complex)
        held[3] = np.nan
        assert periodic_quadrature(lambda z: held, QuadratureGrid(256)) == 255 / 256
        assert np.isnan(held[3])
