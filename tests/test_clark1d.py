import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clark_measures.clark1d import (
    DegenerateDerivativeError,
    UnsupportedFunctionError,
    clark_atomic_singular,
    clark_blaschke,
    clark_measure1d,
    level_points,
)
from clark_measures.inner1d import (
    InnerFunction1D,
    Unimodular,
    angular_derivative_modulus,
    boundary_derivative_modulus,
    boundary_value,
    eval_inner,
)
from clark_measures.torus_core import (
    DiskPoint,
    TorusPoint,
    UnimodularConstant,
    canonical_angle,
    circle_distance,
)

TWO_PI = 2.0 * math.pi

IDENTITY = InnerFunction1D(monomial_power=1)
SQUARE = InnerFunction1D(monomial_power=2)
BLASCHKE_MONO = InnerFunction1D(monomial_power=1, blaschke_zeros=(DiskPoint(0.5j),))
DEGREE5 = InnerFunction1D(
    unimodular_factor=UnimodularConstant.from_nu(1.1),
    monomial_power=2,
    blaschke_zeros=(DiskPoint(0.3 + 0.2j), DiskPoint(-0.6j), DiskPoint(0.55)),
)
EXP_ATOM = InnerFunction1D(singular_atoms=((TorusPoint(0.0), 1.0),))


def level_roots_oracle(phi, alpha):
    """Solve phi* = alpha as a polynomial root problem (independent path).

    The coefficients and roots are formed in 60-digit arithmetic from the
    same float inputs: near a double root (a zero close to the circle) the
    roots of the float64 polynomial move by up to about sqrt(eps), far more
    than the atoms' 1e-9 tolerance.
    """
    with mpmath.workdps(60):
        p1 = [mpmath.mpc(phi.unimodular_factor.alpha)]
        p2 = [mpmath.mpc(alpha.alpha)]
        for a in phi.blaschke_zeros:
            p1 = poly_mul(p1, [-1, mpmath.mpc(a.value)])
            p2 = poly_mul(p2, [-mpmath.mpc(a.value.conjugate()), 1])
        p1 = p1 + [0] * phi.monomial_power
        p2 = [0] * (len(p1) - len(p2)) + p2
        roots = mpmath.polyroots([u - v for u, v in zip(p1, p2)], maxsteps=500, extraprec=500)
        angles = [float(mpmath.arg(r)) % TWO_PI for r in roots if abs(abs(r) - 1) < 1e-6]
    return np.sort(angles)


def poly_mul(a, b):
    """Product of two coefficient lists, highest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


class Draws:
    """Stands in for st.data() in an explicit example: draw() replays values,
    from the start again once a run has drawn them all."""

    def __init__(self, *values):
        self.values = values
        self.replay = itertools.cycle(values)

    def draw(self, strategy, label=None):
        return next(self.replay)

    def __repr__(self):
        return f"Draws{self.values!r}"


def herglotz_rhs_origin(phi, alpha):
    v = eval_inner(phi, 0.0)
    return (1.0 - abs(v) ** 2) / abs(alpha.alpha - v) ** 2


class TestClarkBlaschke:
    def test_identity_single_atom(self):
        for nu in (0.0, 0.9, 4.4):
            mu = clark_blaschke(IDENTITY, UnimodularConstant.from_nu(nu))
            assert len(mu.atoms) == 1
            zeta, w = mu.atoms[0]
            assert circle_distance(zeta.theta, nu) <= 1e-12
            assert w == pytest.approx(1.0, abs=1e-12)
            assert mu.tail_bound == 0.0

    def test_square_at_one(self):
        mu = clark_blaschke(SQUARE, UnimodularConstant.one())
        angles = sorted(z.theta for z, _ in mu.atoms)
        assert angles == pytest.approx([0.0, math.pi], abs=1e-12)
        for _, w in mu.atoms:
            assert w == pytest.approx(0.5, abs=1e-12)

    def test_mass_identity_with_interior_zero(self):
        mu = clark_blaschke(BLASCHKE_MONO, UnimodularConstant.one())
        assert len(mu.atoms) == 2
        assert mu.total_listed_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.0, 0.7, 2.5, 5.9])
    def test_degree5_against_polynomial_roots(self, nu):
        alpha = UnimodularConstant.from_nu(nu)
        mu = clark_blaschke(DEGREE5, alpha)
        oracle = level_roots_oracle(DEGREE5, alpha)
        assert len(mu.atoms) == 5 == len(oracle)
        for zeta, _ in mu.atoms:
            assert min(circle_distance(zeta.theta, t) for t in oracle) < 1e-9

    @pytest.mark.parametrize("nu", [0.0, 2.5])
    def test_degree5_mass_identity(self, nu):
        alpha = UnimodularConstant.from_nu(nu)
        mu = clark_blaschke(DEGREE5, alpha)
        assert mu.total_listed_mass == pytest.approx(herglotz_rhs_origin(DEGREE5, alpha), rel=1e-12)

    def test_atom_correctness_and_weight_oracle(self):
        alpha = UnimodularConstant.from_nu(1.3)
        mu = clark_blaschke(DEGREE5, alpha)
        for zeta, w in mu.atoms:
            bv = boundary_value(DEGREE5, zeta)
            assert isinstance(bv, Unimodular)
            assert abs(bv.value - alpha.alpha) <= 1e-9
            assert w == pytest.approx(1.0 / angular_derivative_modulus(DEGREE5, zeta), rel=1e-8)

    def test_mutual_singularity_of_atom_sets(self):
        mu = clark_blaschke(DEGREE5, UnimodularConstant.one())
        nu_other = clark_blaschke(DEGREE5, UnimodularConstant.from_nu(0.5))
        for z1, _ in mu.atoms:
            for z2, _ in nu_other.atoms:
                assert circle_distance(z1.theta, z2.theta) > 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9))
    def test_cube_roots_property(self, nu):
        cube = InnerFunction1D(monomial_power=3)
        mu = clark_blaschke(cube, UnimodularConstant.from_nu(nu))
        expected = sorted((nu + TWO_PI * m) / 3 % TWO_PI for m in range(3))
        angles = sorted(z.theta for z, _ in mu.atoms)
        for got, want in zip(angles, expected):
            assert circle_distance(got, want) <= 1e-11
        for _, w in mu.atoms:
            assert w == pytest.approx(1.0 / 3.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        degree=st.integers(min_value=1, max_value=6),
        exponent=st.floats(min_value=1.0, max_value=15.0),
    )
    # a near double root: e^{i nu} z^4 (a - z)/(1 - conj(a) z), a = (1 - 1e-14) e^{i nu},
    # at alpha = e^{i nu}; the draws are m, the angle of a, nu and alpha's angle
    @example(data=Draws(4, 5.960464477539063e-08, 5.960464477539063e-08, 5.960464477539063e-08),
             degree=5, exponent=14.0)
    # zeros 1e-11 from the circle, where 1 - |a| taken from the rounded |a|
    # moved the atom by 4.6e-9 (first) and the mass by 2.5e-8 relative (second)
    @example(data=Draws(0, 1.8897297922126566e-08, 0.0, 0.0), degree=1, exponent=11.0)
    @example(data=Draws(1, 1e-09, 0.0, 0.0), degree=2, exponent=11.0)
    def test_zeros_near_the_circle(self, data, degree, exponent):
        # one zero at distance 10^-exponent from the circle: either every
        # atom is right, or the call says it cannot resolve them
        angle = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)
        m = data.draw(st.integers(min_value=0, max_value=degree - 1))
        near = (1.0 - 10.0 ** -exponent) * cmath.exp(1j * data.draw(angle))
        others = tuple(
            data.draw(st.floats(min_value=0.0, max_value=0.85)) * cmath.exp(1j * data.draw(angle))
            for _ in range(degree - m - 1)
        )
        phi = InnerFunction1D(
            unimodular_factor=UnimodularConstant.from_nu(data.draw(angle)),
            monomial_power=m,
            blaschke_zeros=(near,) + others,
        )
        alpha = UnimodularConstant.from_nu(data.draw(angle))
        try:
            mu = clark_blaschke(phi, alpha)
        except DegenerateDerivativeError:
            return
        oracle = level_roots_oracle(phi, alpha)
        assert len(mu.atoms) == degree == len(oracle)
        for zeta, _ in mu.atoms:
            assert min(circle_distance(zeta.theta, t) for t in oracle) <= 1e-9
        # weights are resolved to a relative 1e-8; the mass 1 - |phi(0)|^2
        # over |alpha - phi(0)|^2 >= (1 - |phi(0)|)^2 loses the rounding of
        # |phi(0)|, a product of degree + 1 factors, times the condition
        # number 1/(1 - |phi(0)|^2) of each
        phi0 = abs(eval_inner(phi, 0.0))
        rel = 1e-8 + 8 * (degree + 1) * np.finfo(float).eps / (1.0 - phi0 * phi0)
        assert mu.total_listed_mass == pytest.approx(herglotz_rhs_origin(phi, alpha), rel=rel)

    def test_rejects_constant_and_singular(self):
        with pytest.raises(UnsupportedFunctionError):
            clark_blaschke(InnerFunction1D(), UnimodularConstant.one())
        with pytest.raises(UnsupportedFunctionError):
            clark_blaschke(EXP_ATOM, UnimodularConstant.one())


class TestClarkAtomicSingular:
    def test_standard_instance_locations(self):
        mu = clark_atomic_singular(1.0, TorusPoint(0.0), UnimodularConstant.one(), K=5)
        assert len(mu.atoms) == 11
        for k in range(-5, 6):
            eta = (TWO_PI * k - 1j) / (TWO_PI * k + 1j)
            target = cmath.phase(eta) % TWO_PI
            assert min(circle_distance(z.theta, target) for z, _ in mu.atoms) <= 1e-12

    def test_standard_instance_weights(self):
        mu = clark_atomic_singular(1.0, TorusPoint(0.0), UnimodularConstant.one(), K=5)
        for zeta, w in mu.atoms:
            # invert eta = (s-i)/(s+i): s = i(1+eta)/(1-eta) real
            eta = zeta.value
            s = (1j * (1.0 + eta) / (1.0 - eta)).real
            assert w == pytest.approx(2.0 / (1.0 + s * s), rel=1e-12)

    @pytest.mark.parametrize("c,theta_xi,nu", [(1.0, 0.0, 0.0), (2.0, 0.0, math.pi / 4),
                                               (0.7, 2.0, math.pi), (2.5, 5.5, 4.0)])
    def test_atoms_in_angle_order_with_their_weights(self, c, theta_xi, nu):
        alpha = UnimodularConstant.from_nu(nu)
        mu = clark_atomic_singular(c, TorusPoint(theta_xi), alpha, K=50)
        expected = []
        for k in range(-50, 51):
            s = alpha.nu + TWO_PI * k
            eta = cmath.exp(1j * theta_xi) * (s - 1j * c) / (s + 1j * c)
            expected.append((cmath.phase(eta) % TWO_PI, 2.0 * c / (c * c + s * s)))
        expected.sort()
        thetas = [p.theta for p, _ in mu.atoms]
        assert thetas == sorted(thetas)
        assert thetas == pytest.approx([t for t, _ in expected], abs=1e-12)
        assert [w for _, w in mu.atoms] == pytest.approx([w for _, w in expected], rel=1e-12)

    def test_center_atom_is_minus_one_with_weight_two(self):
        mu = clark_atomic_singular(1.0, TorusPoint(0.0), UnimodularConstant.one(), K=1)
        center = min(mu.atoms, key=lambda zw: circle_distance(zw[0].theta, math.pi))
        assert circle_distance(center[0].theta, math.pi) <= 1e-14
        assert center[1] == pytest.approx(2.0, rel=1e-14)

    def test_weights_match_radial_derivative_oracle(self):
        mu = clark_atomic_singular(1.0, TorusPoint(0.0), UnimodularConstant.one(), K=2)
        for zeta, w in mu.atoms:
            assert w == pytest.approx(1.0 / angular_derivative_modulus(EXP_ATOM, zeta), rel=1e-8)

    def test_mass_bracket_standard(self):
        alpha = UnimodularConstant.one()
        rhs = (1.0 - math.exp(-2.0)) / abs(1.0 - math.exp(-1.0)) ** 2
        mu = clark_atomic_singular(1.0, TorusPoint(0.0), alpha, K=10_000)
        partial = mu.total_listed_mass
        assert partial <= rhs + 1e-12
        assert partial + mu.tail_bound >= rhs - 1e-9

    @pytest.mark.parametrize("c,theta_xi,nu", [(0.7, 2.0, 0.9), (2.5, 5.5, 3.1), (1.0, 0.0, 1e-3)])
    def test_general_parameters(self, c, theta_xi, nu):
        alpha = UnimodularConstant.from_nu(nu)
        phi = InnerFunction1D(singular_atoms=((TorusPoint(theta_xi), c),))
        mu = clark_atomic_singular(c, TorusPoint(theta_xi), alpha, K=400)
        for zeta, w in mu.atoms:
            bv = boundary_value(phi, zeta)
            assert isinstance(bv, Unimodular)
            # residual scales with the phase condition number |phi'(eta)| = 1/w
            assert abs(bv.value - alpha.alpha) <= 1e-9 + 1e-14 / w
            if 1.0 / w < 1e4:
                assert abs(bv.value - alpha.alpha) <= 1e-9
        rhs = (1.0 - math.exp(-2.0 * c)) / abs(alpha.alpha - math.exp(-c)) ** 2
        assert mu.total_listed_mass <= rhs + 1e-12
        assert mu.total_listed_mass + mu.tail_bound >= rhs - 1e-12

    def test_tail_bound_shrinks(self):
        alpha = UnimodularConstant.one()
        tails = [clark_atomic_singular(1.0, TorusPoint(0.0), alpha, K=K).tail_bound
                 for K in (10, 100, 1000)]
        assert tails[0] > tails[1] > tails[2] > 0

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            clark_atomic_singular(1.0, TorusPoint(0.0), UnimodularConstant.one(), K=0)
        with pytest.raises(ValueError):
            clark_atomic_singular(-1.0, TorusPoint(0.0), UnimodularConstant.one(), K=5)


class TestColumns:
    """The angle column is canonical_angle of each raw atom angle, bit for bit."""

    @pytest.mark.parametrize("c,theta_xi,nu,K", [
        (1.0, 0.0, 0.0, 10_000), (0.7, 2.0, math.pi, 50), (2.5, 5.5, 4.0, 300),
        # the atom k = K lands at a raw angle of -4.1e-16, which np.mod
        # rounds to 2 pi itself; canonical_angle takes it as 0
        (1.0, 0.031828301398905794, 0.0, 10),
    ])
    def test_exp_family_angles(self, c, theta_xi, nu, K):
        alpha = UnimodularConstant.from_nu(nu)
        mu = clark_atomic_singular(c, TorusPoint(theta_xi), alpha, K=K)
        s = alpha.nu + TWO_PI * np.arange(-K, K + 1)
        raw = np.angle(TorusPoint(theta_xi).value * (s - 1j * c) / (s + 1j * c))
        want = sorted(zip(map(canonical_angle, raw.tolist()), (2.0 * c / (c * c + s * s)).tolist()))
        assert mu.thetas.tobytes() == np.array([t for t, _ in want]).tobytes()
        assert mu.weights.tobytes() == np.array([w for _, w in want]).tobytes()
        if theta_xi == 0.031828301398905794:
            assert -4.4e-16 < raw[-1] < 0.0 and np.mod(raw[-1], TWO_PI) == TWO_PI
            assert mu.thetas[0] == 0.0

    @pytest.mark.parametrize("phi", [BLASCHKE_MONO, DEGREE5], ids=["bmono", "degree5"])
    @pytest.mark.parametrize("nu", [0.0, 1.3, 5.9])
    def test_blaschke_columns(self, phi, nu):
        mu = clark_blaschke(phi, UnimodularConstant.from_nu(nu))
        thetas = mu.thetas.tolist()
        assert thetas == sorted(thetas) == [canonical_angle(t) for t in thetas]
        assert 0.0 <= thetas[0] and thetas[-1] < TWO_PI
        assert mu.weights.tolist() == [
            1.0 / boundary_derivative_modulus(phi, TorusPoint(t)) for t in thetas]
        assert mu.atoms == tuple(zip(map(TorusPoint, thetas), mu.weights.tolist()))


class TestDispatchAndLevelPoints:
    def test_dispatch_blaschke(self):
        mu = clark_measure1d(SQUARE, UnimodularConstant.one())
        assert mu.generator_id == "blaschke"

    def test_dispatch_singular_folds_prefactor(self):
        phi = InnerFunction1D(
            unimodular_factor=UnimodularConstant.from_nu(0.8),
            singular_atoms=((TorusPoint(1.5), 0.6),),
        )
        alpha = UnimodularConstant.from_nu(2.2)
        mu = clark_measure1d(phi, alpha, K=50)
        assert mu.generator_id == "atomic_singular"
        for zeta, _ in mu.atoms:
            bv = boundary_value(phi, zeta)
            assert abs(bv.value - alpha.alpha) <= 1e-9

    def test_dispatch_rejects_mixed(self):
        mixed = InnerFunction1D(monomial_power=1, singular_atoms=((TorusPoint(0.0), 1.0),))
        with pytest.raises(UnsupportedFunctionError):
            clark_measure1d(mixed, UnimodularConstant.one())
        twoatoms = InnerFunction1D(
            singular_atoms=((TorusPoint(0.0), 1.0), (TorusPoint(3.0), 1.0)),
        )
        with pytest.raises(UnsupportedFunctionError):
            clark_measure1d(twoatoms, UnimodularConstant.one())

    def test_level_points_identity(self):
        lp = level_points(IDENTITY, UnimodularConstant.one())
        assert len(lp.points) == 1 and lp.points[0].theta == pytest.approx(0.0, abs=1e-12)
        assert lp.accumulation == ()

    def test_level_points_square_at_minus_one(self):
        lp = level_points(SQUARE, UnimodularConstant.from_complex(-1.0))
        angles = sorted(p.theta for p in lp.points)
        assert angles == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=1e-12)

    def test_level_points_singular_accumulation(self):
        lp = level_points(EXP_ATOM, UnimodularConstant.one(), K=20)
        assert len(lp.points) == 41
        assert len(lp.accumulation) == 1
        assert lp.accumulation[0].theta == 0.0
