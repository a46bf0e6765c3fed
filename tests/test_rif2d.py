"""Tests for bidegree-(n,1) rational inner function Clark measures."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clark_measures import (
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    integrate_measure2d,
)
from clark_measures.rif2d import (
    LevelRational,
    Poly1,
    RIF_n1,
    RIFError,
    b_alpha,
    exceptional_values,
    line_constant,
    reflect,
    rif_boundary_value,
    rif_clark_measure,
    rif_map,
    singularities,
    w_alpha,
    w_alpha_values,
)
from clark_measures import rif2d
from clark_measures.rif2d import _radial_limit, _weight_correlations
from clark_measures.verify import sample_test_points

GRID = QuadratureGrid(4096)


def example_rif() -> RIF_n1:
    return RIF_n1(p1=Poly1((4, -3, 1)), p2=Poly1((-1, -1)), n=2)


def monomial_rif() -> RIF_n1:
    return RIF_n1(p1=Poly1((1,)), p2=Poly1((0,)), n=1)


def poisson_pair(z1, z2):
    def f(w1, w2):
        return (
            (1.0 - abs(z1) ** 2)
            / np.abs(w1 - z1) ** 2
            * (1.0 - abs(z2) ** 2)
            / np.abs(w2 - z2) ** 2
        )

    return f


class TestPoly1:
    def test_trims_trailing_zeros(self):
        p = Poly1((1, 2, 0, 0))
        assert p.coefficients == (1 + 0j, 2 + 0j)
        assert p.degree == 1

    def test_zero_polynomial(self):
        assert Poly1((0, 0)).is_zero
        assert Poly1((0,)).degree == -1

    def test_evaluate_scalar_and_array(self):
        p = Poly1((1, 0, 2))
        assert p(2.0) == pytest.approx(9.0)
        assert np.allclose(p(np.array([0, 1j])), [1, -1])

    def test_derivative(self):
        assert Poly1((5, 1, 3)).derivative().coefficients == (1 + 0j, 6 + 0j)


class TestReflect:
    def test_constant(self):
        assert reflect(Poly1((1,)), 0).coefficients == (1 + 0j,)

    def test_degree_one(self):
        assert reflect(Poly1((2, -1)), 1).coefficients == (-1 + 0j, 2 + 0j)

    def test_worked_pair(self):
        assert reflect(Poly1((4, -3, 1)), 2).coefficients == (1 + 0j, -3 + 0j, 4 + 0j)
        assert reflect(Poly1((-1, -1)), 2).coefficients == (0j, -1 + 0j, -1 + 0j)

    def test_rejects_high_degree(self):
        with pytest.raises(ValueError):
            reflect(Poly1((1, 2, 3)), 1)

    @given(
        st.lists(
            st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 3),
    )
    def test_involution(self, coeffs, extra):
        q = Poly1(tuple(coeffs))
        n = q.degree + extra if q.degree >= 0 else extra
        assert reflect(reflect(q, n), n) == q


class TestConstruction:
    def test_worked_example_reflections(self):
        R = example_rif()
        assert R.p1_reflected == Poly1((1, -3, 4))
        assert R.p2_reflected == Poly1((0, -1, -1))

    def test_resultant_closed_form(self):
        R = example_rif()
        # p1 p1~ - p2 p2~ = 4(1-z)^4
        assert np.allclose(R._resultant.coefficients, (4, -16, 24, -16, 4))

    def test_rejects_unstable(self):
        with pytest.raises(RIFError):
            RIF_n1(p1=Poly1((1, -2)), p2=Poly1((0,)), n=1)

    def test_rejects_non_atoral(self):
        with pytest.raises(RIFError):
            RIF_n1(p1=Poly1((2, 1)), p2=Poly1((1, 2)), n=1)

    def test_rejects_degree_overflow(self):
        with pytest.raises(RIFError):
            RIF_n1(p1=Poly1((4, -3, 1)), p2=Poly1((-1, -1)), n=1)

    def test_rejects_zero_p1(self):
        with pytest.raises(RIFError):
            RIF_n1(p1=Poly1((0,)), p2=Poly1((1, 1)), n=1)

    def test_json_round_trip(self):
        R = example_rif()
        data = R.to_json_dict()
        assert data == {
            "p1": [[4.0, 0.0], [-3.0, 0.0], [1.0, 0.0]],
            "p2": [[-1.0, 0.0], [-1.0, 0.0]],
            "n": 2,
        }
        assert RIF_n1.from_json_dict(data) == R

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {"p1": [[1, 0]], "n": 1},
            {"p1": [[1, 0]], "p2": [[0, 0]], "n": True},
            {"p1": [[1, 0]], "p2": [[0, 0]], "n": 1, "extra": 0},
            {"p1": [[1, 0], [2]], "p2": [[0, 0]], "n": 1},
            {"p1": "bad", "p2": [[0, 0]], "n": 1},
        ],
    )
    def test_json_rejects_malformed(self, data):
        with pytest.raises(ValueError):
            RIF_n1.from_json_dict(data)


class TestLevelRational:
    def test_displayed_general_alpha(self):
        alpha = UnimodularConstant.from_nu(1.1)
        B = b_alpha(example_rif(), alpha)
        a = alpha.alpha
        assert np.allclose(B.num.coefficients, (1 + a, -3 + a, 4))
        assert np.allclose(B.den.coefficients, (4 * a, 1 - 3 * a, 1 + a))
        assert not B.degenerate

    def test_unimodular_on_torus(self):
        B = b_alpha(example_rif(), UnimodularConstant.from_nu(math.pi / 2))
        values = B(GRID.points())
        assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-10

    def test_monomial_case(self):
        alpha = UnimodularConstant.from_nu(0.8)
        B = b_alpha(monomial_rif(), alpha)
        zs = np.exp(1j * np.linspace(0.1, 6.0, 9))
        assert np.allclose(B.curve_rule()(zs), alpha.alpha * np.conj(zs), atol=1e-14)

    def test_exceptional_alpha_flagged_and_reduces(self):
        B = b_alpha(example_rif(), UnimodularConstant.from_nu(math.pi))
        assert B.degenerate
        assert B.shared_torus_roots[0].theta == pytest.approx(0.0, abs=1e-9)
        zs = np.exp(1j * np.linspace(0.3, 6.0, 9))
        assert np.allclose(B.curve_rule()(zs), np.conj(zs), atol=1e-12)
        # (zeta - 1) divided out of both: B = zeta at alpha = -1, 1 at zeta = 1
        assert abs(B(np.array([1.0 + 0j]))[0] - 1.0) <= 4 * np.finfo(float).eps


class TestWeight:
    def test_displayed_general_alpha(self):
        alpha = UnimodularConstant.from_nu(math.pi / 2)
        zs = np.exp(1j * np.linspace(0.05, 6.2, 33))
        values = w_alpha_values(example_rif(), alpha, zs)
        den = np.abs(4 * zs**2 - 3 * zs + 1 + alpha.alpha + alpha.alpha * zs) ** 2
        assert np.allclose(values, 4 * np.abs(zs - 1.0) ** 4 / den, rtol=1e-12)

    def test_exceptional_closed_form_including_limit_node(self):
        alpha = UnimodularConstant.from_nu(math.pi)
        thetas = GRID.thetas()
        values = w_alpha_values(example_rif(), alpha, np.exp(1j * thetas))
        expected = np.abs(np.exp(1j * thetas) - 1.0) ** 2 / 4.0
        assert np.max(np.abs(values - expected)) < 1e-10
        assert w_alpha(example_rif(), alpha, TorusPoint(0.0)) == 0.0

    def test_scalar_matches_vectorized(self):
        alpha = UnimodularConstant.from_nu(0.4)
        R = example_rif()
        for theta in (0.3, 2.0, 5.5):
            scalar = w_alpha(R, alpha, TorusPoint(theta))
            vector = w_alpha_values(R, alpha, np.array([np.exp(1j * theta)]))[0]
            assert scalar == pytest.approx(vector, rel=1e-12)

    def test_nonnegative_on_grid(self):
        for nu in (0.0, 1.0, math.pi, 5.0):
            values = w_alpha_values(
                example_rif(), UnimodularConstant.from_nu(nu), GRID.points()
            )
            assert np.all(values >= 0.0)

    def test_quadrature_converges_under_doubling(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(2.0)
        coarse = np.mean(w_alpha_values(R, alpha, QuadratureGrid(4096).points()))
        fine = np.mean(w_alpha_values(R, alpha, QuadratureGrid(8192).points()))
        assert abs(fine - coarse) / abs(fine) <= 1e-8


@st.composite
def stable_rifs(draw):
    """A stable atoral RIF_n1, n = 1..4, with any deg p1, deg p2 <= n.

    p1 has roots of modulus >= 1.2; p2 is scaled so that max |p2| is at most
    0.9 min |p1| on a fine circle grid.
    """
    n = draw(st.integers(1, 4))
    d1, d2 = draw(st.integers(0, n)), draw(st.integers(0, n))
    roots = [
        r * complex(math.cos(t), math.sin(t))
        for r, t in draw(
            st.lists(
                st.tuples(st.floats(1.2, 4.0), st.floats(0.0, 2 * math.pi)),
                min_size=d1,
                max_size=d1,
            )
        )
    ]
    lead = draw(st.floats(0.2, 5.0)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    c1 = lead * np.polynomial.polynomial.polyfromroots(roots) if d1 else np.array([lead])
    c2 = np.array(
        draw(
            st.lists(
                st.complex_numbers(
                    max_magnitude=1.0, allow_nan=False, allow_infinity=False, allow_subnormal=False
                ),
                min_size=d2 + 1,
                max_size=d2 + 1,
            )
        )
    )
    circle = QuadratureGrid(8192).points()
    p2_max = float(np.max(np.abs(np.polynomial.polynomial.polyval(circle, c2))))
    if p2_max > 0.0:
        p1_min = float(np.min(np.abs(np.polynomial.polynomial.polyval(circle, c1))))
        c2 = c2 / p2_max * (draw(st.floats(0.0, 0.9)) * p1_min)
    try:
        return RIF_n1(p1=Poly1(tuple(c1)), p2=Poly1(tuple(c2)), n=n)
    except RIFError:
        assume(False)


class TestRandomWeights:
    POINTS = np.exp(1j * np.random.default_rng(11).uniform(0.0, 2 * math.pi, 257))

    @settings(max_examples=200, deadline=None)
    @given(R=stable_rifs(), nu=st.floats(0.0, 2 * math.pi))
    def test_weights_match_the_direct_ratio(self, R, nu):
        alpha = UnimodularConstant.from_nu(nu)
        z = self.POINTS
        p1, p2 = R.p1(z), R.p2(z)
        num = np.abs(p1) ** 2 - np.abs(p2) ** 2
        den = np.abs(R.p1_reflected(z) - alpha.alpha * p2) ** 2
        direct = num / den
        values = w_alpha_values(R, alpha, z)
        # Horner's forward error on each coefficient sum: the resultant form
        # loses accuracy where |p1| is small against its coefficients.
        num_corr, den_corr = _weight_correlations(R, alpha)
        horner = 8 * (2 * R.n + 1) * np.finfo(float).eps
        rounding = horner * (np.abs(num_corr).sum() + direct * np.abs(den_corr).sum()) / den
        assert np.all(np.abs(values - direct) <= 1e-11 * direct + rounding)
        point = TorusPoint(nu)
        one = w_alpha_values(R, alpha, np.array([point.value]))[0]
        assert w_alpha(R, alpha, point) == one

    @settings(max_examples=200, deadline=None)
    @given(R=stable_rifs(), nu=st.floats(0.0, 2 * math.pi))
    def test_numerator_is_the_resultant(self, R, nu):
        num_corr, den_corr = _weight_correlations(R, UnimodularConstant.from_nu(nu))
        res = np.array(R._resultant.coefficients)
        width = 2 * R.n + 1
        assert len(num_corr) == len(den_corr) == width
        assert np.array_equal(num_corr, np.pad(res, (0, width - len(res))))
        # the Laurent coefficients of |p1|^2 - |p2|^2, m = -n..n
        laurent = np.zeros(width, dtype=complex)
        for q, sign in ((R.p1, 1.0), (R.p2, -1.0)):
            c = np.array(q.coefficients)
            pad = width // 2 - (len(c) - 1)
            laurent[pad:width - pad] += sign * np.correlate(c, c, "full")
        scale = np.abs(R.p1.coefficients).sum() ** 2
        assert np.max(np.abs(num_corr - laurent)) <= 1e-14 * scale


class TestSingularities:
    def test_worked_example(self):
        found = singularities(example_rif())
        assert len(found) == 1
        tau, gamma = found[0]
        assert tau.theta == pytest.approx(0.0, abs=1e-10)
        assert gamma.theta == pytest.approx(0.0, abs=1e-10)

    def test_residuals(self):
        R = example_rif()
        for tau, gamma in singularities(R):
            assert abs(R.denominator(tau.value, gamma.value)) <= 1e-8
            assert abs(R.numerator(tau.value, gamma.value)) <= 1e-8

    def test_monomial_has_none(self):
        assert singularities(monomial_rif()) == ()

    def test_rotated_example(self):
        R = RIF_n1(p1=Poly1((4, 3, 1)), p2=Poly1((-1, 1)), n=2)
        found = singularities(R)
        assert len(found) == 1
        tau, gamma = found[0]
        assert tau.theta == pytest.approx(math.pi, abs=1e-10)
        assert gamma.theta == pytest.approx(0.0, abs=1e-10)


class TestSingularityCache:
    def test_one_clustering_per_rif(self, monkeypatch):
        calls = []
        clustering = rif2d._torus_singularities

        def counted(R):
            calls.append(R)
            return clustering(R)

        monkeypatch.setattr(rif2d, "_torus_singularities", counted)
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        assert rif2d._snap_exceptional(R, alpha)[1]
        assert len(singularities(R)) == len(exceptional_values(R)) == len(mu.lines) == 1
        assert line_constant(R, mu.lines[0].tau) == mu.lines[0].constant
        assert calls == [R]

    def test_singularities_take_no_radial_limit(self, monkeypatch):
        def no_limit(*args):
            raise AssertionError("radial limit taken")

        monkeypatch.setattr(rif2d, "_radial_limit", no_limit)
        assert len(singularities(example_rif())) == 1


def rotated_rif(p1, p2, n, theta) -> RIF_n1:
    """p_k(e^{-i theta} z): the singular points turn by theta."""
    turn = np.exp(-1j * theta) ** np.arange(n + 1)
    return RIF_n1(p1=Poly1(tuple(turn[:len(p1)] * p1)), p2=Poly1(tuple(turn[:len(p2)] * p2)), n=n)


def singular_rifs() -> dict:
    """RIFs with torus singularities: the example, turned, with two singular
    points at +-1, and times a z_1 factor (z - r), |r| > 1, turned."""
    p1, p2 = np.array([4, -3, 1], dtype=complex), np.array([-1, -1], dtype=complex)
    r = 1.5 * np.exp(0.7j)
    return {
        "example": example_rif(),
        "rotated": rotated_rif(p1, p2, 2, 2.0),
        "two_singular": RIF_n1(p1=Poly1((4, 0, -3, 0, 1)), p2=Poly1((-1, 0, -1)), n=4),
        "factor_rotated": rotated_rif(np.polynomial.polynomial.polymul(p1, (-r, 1)),
                                      np.polynomial.polynomial.polymul(p2, (-r, 1)), 3, 2.0),
    }


SINGULAR_RIFS = singular_rifs()


class TestSingularFamily:
    """The exceptional level in closed form, against numerical oracles."""

    @pytest.mark.parametrize("name", SINGULAR_RIFS)
    def test_exceptional_value_is_the_radial_limit(self, name):
        R = SINGULAR_RIFS[name]
        assert R._singular_limits
        for tau, gamma, value in R._singular_limits:
            assert abs(value - _radial_limit(R, tau.value, gamma.value)) <= 1e-9

    def test_example_value_is_minus_one(self):
        ((_, _, value),) = example_rif()._singular_limits
        assert abs(value - (-1.0)) <= 4 * np.finfo(float).eps
        (level,) = exceptional_values(example_rif())
        assert abs(level.alpha - (-1.0)) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("name", SINGULAR_RIFS)
    def test_line_constant_is_the_inverse_slope(self, name):
        R = SINGULAR_RIFS[name]
        derivatives = [p.derivative() for p in (R.p1, R.p2, R.p1_reflected, R.p2_reflected)]
        for tau, gamma in singularities(R):
            constant = line_constant(R, tau)
            t = tau.value
            for z2 in np.exp(1j * (0.37 + 2 * math.pi * np.arange(16) / 16)):
                assert abs(z2 - gamma.value) > 1e-3
                num = z2 * R.p1_reflected(t) + R.p2_reflected(t)
                den = R.p1(t) + z2 * R.p2(t)
                num_der = z2 * derivatives[2](t) + derivatives[3](t)
                den_der = derivatives[0](t) + z2 * derivatives[1](t)
                slope = abs((num_der * den - num * den_der) / den**2)
                assert abs(constant * slope - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", SINGULAR_RIFS)
    def test_graph_and_weight_at_the_exceptional_level(self, name):
        R = SINGULAR_RIFS[name]
        z = GRID.points()
        for alpha in exceptional_values(R):
            mu = rif_clark_measure(R, alpha)
            assert mu.lines
            g = mu.curves[0].second_coordinate(z)
            w = mu.curves[0].weight_values(z)
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(w))
            far = np.ones(len(z), dtype=bool)
            for line in mu.lines:
                far &= np.abs(z - line.tau.value) >= 0.05
            p1, p2 = R.p1(z[far]), R.p2(z[far])
            direct = (np.abs(p1) ** 2 - np.abs(p2) ** 2) / np.abs(
                R.p1_reflected(z[far]) - alpha.alpha * p2) ** 2
            assert np.max(np.abs(w[far] - direct)) <= 1e-12 * max(1.0, float(np.max(direct)))
            # graph and lines carry the total mass (1 - |phi(0)|^2)/|alpha - phi(0)|^2
            ones = lambda a, b: np.ones(np.broadcast(a, b).shape)  # noqa: E731
            v0 = rif_map(R)((0.0, 0.0))
            mass = (1 - abs(v0) ** 2) / abs(alpha.alpha - v0) ** 2
            assert abs(integrate_measure2d(mu, ones, GRID).value - mass) <= 1e-12


class TestExceptional:
    def test_worked_example(self):
        values = exceptional_values(example_rif())
        assert len(values) == 1
        assert abs(values[0].alpha - (-1.0)) < 1e-9

    def test_monomial_has_none(self):
        assert exceptional_values(monomial_rif()) == ()

    def test_line_constant(self):
        assert line_constant(example_rif(), TorusPoint(0.0)) == pytest.approx(
            0.5, rel=1e-10
        )

    def test_boundary_value_at_singularity(self):
        value = rif_boundary_value(example_rif(), (TorusPoint(0.0), TorusPoint(0.0)))
        assert abs(value - (-1.0)) < 1e-9

    def test_boundary_value_off_singularity(self):
        assert rif_boundary_value(
            monomial_rif(), (TorusPoint(math.pi / 2), TorusPoint(math.pi / 2))
        ) == pytest.approx(-1.0)

    def test_boundary_value_on_level_curve(self):
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi / 4)
        B = b_alpha(R, alpha)
        rng = np.random.default_rng(23)
        for theta in rng.uniform(0.05, 2 * math.pi - 0.05, size=12):
            zeta = TorusPoint(float(theta))
            z2 = TorusPoint.from_complex(complex(B.curve_rule()(zeta.value)))
            assert abs(rif_boundary_value(R, (zeta, z2)) - alpha.alpha) < 1e-9


class TestClarkMeasure:
    def test_generic_alpha_has_no_lines(self):
        mu = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(math.pi / 2))
        assert len(mu.curves) == 1
        assert mu.lines == ()
        assert mu.tail_bound == 0.0

    def test_exceptional_alpha_carries_line(self):
        mu = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(math.pi))
        assert len(mu.lines) == 1
        assert mu.lines[0].tau.theta == pytest.approx(0.0, abs=1e-10)
        assert mu.lines[0].constant == pytest.approx(0.5, rel=1e-10)

    def test_near_exceptional_alpha_snaps(self):
        mu = rif_clark_measure(example_rif(), UnimodularConstant.from_nu(3.141593))
        assert len(mu.lines) == 1

    def test_mass_identity(self):
        R = example_rif()
        ones = lambda a, b: np.ones(np.broadcast(a, b).shape)  # noqa: E731
        for nu in (0.3, math.pi / 2, math.pi):
            mu = rif_clark_measure(R, UnimodularConstant.from_nu(nu))
            res = integrate_measure2d(mu, ones, GRID)
            # phi(0,0) = 0, so every Clark measure has total mass 1
            assert abs(res.value - 1.0) <= 1e-8

    def test_poisson_identity(self):
        R = example_rif()
        phi = rif_map(R)
        rng = np.random.default_rng(3)
        for nu in (math.pi / 2, math.pi):
            alpha = UnimodularConstant.from_nu(nu)
            mu = rif_clark_measure(R, alpha)
            for _ in range(5):
                z1 = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                z2 = rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * math.pi))
                v = phi((z1, z2))
                rhs = (1 - abs(v) ** 2) / abs(alpha.alpha - v) ** 2
                res = integrate_measure2d(mu, poisson_pair(z1, z2), GRID)
                assert abs(res.value - rhs) / rhs <= 1e-8

    def test_dropping_line_breaks_identity(self):
        from clark_measures.torus_core import ClarkMeasure2D

        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        crippled = ClarkMeasure2D(curves=mu.curves, lines=(), tail_bound=0.0)
        z1, z2 = 0.3 + 0.1j, 0.2 - 0.4j
        v = rif_map(R)((z1, z2))
        rhs = (1 - abs(v) ** 2) / abs(alpha.alpha - v) ** 2
        res = integrate_measure2d(crippled, poisson_pair(z1, z2), GRID)
        assert abs(res.value - rhs) / rhs > 1e-3

    def test_level_curve_points_satisfy_level_equation(self):
        # both families of support points lie in the alpha level set
        R = example_rif()
        alpha = UnimodularConstant.from_nu(math.pi)
        mu = rif_clark_measure(R, alpha)
        comp = mu.curves[0]
        thetas = 0.05 + (2 * math.pi - 0.1) * np.arange(64) / 64
        zetas = np.exp(1j * thetas)
        z2 = comp.second_coordinate(zetas)
        for zeta, w in zip(zetas, z2):
            resid = R.numerator(zeta, w) - alpha.alpha * R.denominator(zeta, w)
            assert abs(resid) <= 1e-8
        for line in mu.lines:
            for w in np.exp(1j * np.linspace(0.1, 6.1, 16)):
                resid = R.numerator(line.tau.value, w) - alpha.alpha * R.denominator(
                    line.tau.value, w
                )
                assert abs(resid) <= 1e-8

    @settings(max_examples=15, deadline=None)
    @given(
        coeffs=st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=4,
        ),
        nu=st.floats(0.0, 6.2),
    )
    def test_mass_identity_property(self, coeffs, nu):
        p2 = Poly1(tuple(coeffs))
        if p2.degree < 1:
            p2 = Poly1(tuple(coeffs) + (0.5 + 0.5j,))
        bound = float(sum(abs(c) for c in p2.coefficients))
        R = RIF_n1(p1=Poly1((bound + 1.5,)), p2=p2, n=p2.degree)
        alpha = UnimodularConstant.from_nu(nu)
        mu = rif_clark_measure(R, alpha)
        ones = lambda a, b: np.ones(np.broadcast(a, b).shape)  # noqa: E731
        res = integrate_measure2d(mu, ones, GRID)
        v0 = rif_map(R)((0.0, 0.0))
        rhs = (1 - abs(v0) ** 2) / abs(alpha.alpha - v0) ** 2
        assert res.value.real == pytest.approx(rhs, rel=1e-8)


class TestValueFormWeight:
    @staticmethod
    def horner(coefficients, z):
        value = mpmath.mpc(0)
        for c in reversed(coefficients):
            value = value * z + mpmath.mpc(c.real, c.imag)
        return value

    def test_ill_conditioned_weight_against_a_40_digit_oracle(self):
        # every root of p1 = (z - 1.2)^4 sits at 1.2, so |p1|^2 - |p2|^2 is
        # 5e-7 near z = 1 against coefficients of order 10: the value form
        # keeps W's relative accuracy there
        R = RIF_n1(p1=Poly1((2.0736, -6.912, 8.64, -4.8, 1.0)), p2=Poly1((0.00144,)), n=4)
        zeta = np.exp(2j * np.pi * np.arange(0, 2001, 7) / 2001)
        for nu in (0.0, 1.0, 2.5):
            alpha = UnimodularConstant.from_nu(nu)
            values = w_alpha_values(R, alpha, zeta)
            with mpmath.workdps(40):
                a = mpmath.mpc(alpha.alpha.real, alpha.alpha.imag)
                for w, value in zip(zeta, values):
                    z = mpmath.mpc(w.real, w.imag)
                    p1 = self.horner(R.p1.coefficients, z)
                    p2 = self.horner(R.p2.coefficients, z)
                    d = self.horner(R.p1_reflected.coefficients, z) - a * p2
                    exact = (abs(p1) ** 2 - abs(p2) ** 2) / abs(d) ** 2
                    assert abs(value - exact) <= 1e-11 * exact


class TestScalarRifMap:
    def test_matches_the_polynomial_form(self):
        R = example_rif()
        rule = rif_map(R)
        for z1, z2 in sample_test_points(2, 4096, 1):
            expected = complex(R.numerator(z1, z2) / R.denominator(z1, z2))
            assert abs(rule((z1, z2)) - expected) <= 4e-15 * abs(expected)

    def test_rejects_points_off_the_bidisc(self):
        with pytest.raises(ValueError):
            rif_map(example_rif())((0.5, 1.0))
