import cmath
import math

import mpmath
import numpy as np
import pytest

from clark_measures.inner1d import (
    InnerFunction1D,
    _blaschke_phase,
    Unimodular,
    Zero,
    angular_derivative_modulus,
    boundary_derivative_modulus,
    boundary_value,
    boundary_values_array,
    derivative,
    eval_inner,
)
from clark_measures.torus_core import DiskPoint, TorusPoint, UnimodularConstant
from test_acceptance import _random_blaschke

TWO_PI = 2.0 * math.pi

IDENTITY = InnerFunction1D(monomial_power=1)
SQUARE = InnerFunction1D(monomial_power=2)
EXP_ATOM = InnerFunction1D(singular_atoms=((TorusPoint(0.0), 1.0),))
BLASCHKE_MONO = InnerFunction1D(monomial_power=1, blaschke_zeros=(DiskPoint(0.5j),))
BLASCHKE_PAIR = InnerFunction1D(blaschke_zeros=(DiskPoint(0.3 + 0.2j), DiskPoint(-0.6j)))
MIXED = InnerFunction1D(
    unimodular_factor=UnimodularConstant.from_nu(0.7),
    monomial_power=1,
    blaschke_zeros=(DiskPoint(0.4 - 0.1j),),
    singular_atoms=((TorusPoint(2.0), 0.5), (TorusPoint(5.0), 0.25)),
)
CORPUS = [IDENTITY, SQUARE, EXP_ATOM, BLASCHKE_MONO, BLASCHKE_PAIR, MIXED]


def random_interior(rng, count):
    r = 0.95 * np.sqrt(rng.uniform(size=count))
    t = rng.uniform(0, TWO_PI, size=count)
    return r * np.exp(1j * t)


class TestEval:
    def test_identity_monomial(self):
        assert eval_inner(IDENTITY, 0.3j) == pytest.approx(0.3j, abs=1e-15)

    def test_exp_atom_at_origin(self):
        assert eval_inner(EXP_ATOM, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_monomial_factor_vanishes(self):
        assert eval_inner(BLASCHKE_MONO, 0.0) == 0.0

    def test_rejects_exterior_point(self):
        with pytest.raises(ValueError):
            eval_inner(IDENTITY, 1.0 + 0j)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0), complex(0.0, -math.inf)])
    def test_rejects_non_finite_point(self, z):
        for f in (eval_inner, derivative):
            with pytest.raises(ValueError, match="not inside"):
                f(MIXED, z)

    @pytest.mark.parametrize("phi", CORPUS, ids=lambda p: f"deg{p.degree}x{len(p.singular_atoms)}")
    def test_maximum_principle(self, phi):
        rng = np.random.default_rng(2026)
        for z in random_interior(rng, 1000):
            assert abs(eval_inner(phi, z)) < 1.0


class TestBoundaryValue:
    def test_exp_atom_location_is_zero(self):
        assert isinstance(boundary_value(EXP_ATOM, TorusPoint(0.0)), Zero)

    def test_exp_first_level_point_is_one(self):
        eta_1 = (TWO_PI - 1j) / (TWO_PI + 1j)
        bv = boundary_value(EXP_ATOM, TorusPoint(cmath.phase(eta_1)))
        assert isinstance(bv, Unimodular)
        assert bv.value == pytest.approx(1.0, abs=1e-12)

    def test_square_at_quarter_turn(self):
        bv = boundary_value(SQUARE, TorusPoint(math.pi / 2))
        assert isinstance(bv, Unimodular)
        assert bv.value == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("phi", CORPUS, ids=lambda p: f"deg{p.degree}x{len(p.singular_atoms)}")
    def test_unimodular_off_atoms(self, phi):
        thetas = np.linspace(0.05, TWO_PI - 0.05, 101)
        for theta in thetas:
            bv = boundary_value(phi, TorusPoint(theta))
            if isinstance(bv, Unimodular):
                assert abs(abs(bv.value) - 1.0) <= 1e-10

    def test_array_matches_scalar_and_marks_atoms(self):
        thetas = np.array([0.0, 0.5, 2.0, 3.0, 5.0])
        vals = boundary_values_array(MIXED, thetas)
        assert np.isnan(vals[2]) and np.isnan(vals[4])
        for i in (1, 3):
            bv = boundary_value(MIXED, TorusPoint(thetas[i]))
            assert vals[i] == pytest.approx(bv.value, abs=1e-12)

    def test_array_radial_consistency(self):
        # closed-form boundary phase agrees with the radial approach
        thetas = np.array([0.9, 2.4, 4.1])
        vals = boundary_values_array(EXP_ATOM, thetas)
        for theta, v in zip(thetas, vals):
            radial = eval_inner(EXP_ATOM, (1 - 1e-9) * cmath.exp(1j * theta))
            assert v == pytest.approx(radial, abs=1e-7)


class TestBlaschkePhase:
    def test_matches_unwrapped_boundary_phase(self):
        # criterion 02's random Blaschke products, against an independent lift
        rng = np.random.default_rng(1729)
        thetas = np.linspace(0.0, TWO_PI, 20001)
        for _ in range(20):
            phi, n = _random_blaschke(rng)
            lift = _blaschke_phase(phi, thetas)
            unwrapped = np.unwrap(np.angle(boundary_values_array(phi, thetas)))
            turns = (lift - unwrapped) / TWO_PI
            assert np.max(np.abs(turns - round(turns[0]))) <= 1e-12
            assert np.all(np.diff(lift) > 0)
            assert lift[-1] - lift[0] == pytest.approx(TWO_PI * n, abs=1e-12)


class TestDerivative:
    def test_identity(self):
        assert derivative(IDENTITY, 0.4 + 0.1j) == pytest.approx(1.0, abs=1e-15)

    def test_exp_atom_at_origin(self):
        assert derivative(EXP_ATOM, 0.0) == pytest.approx(-2.0 * math.exp(-1.0), abs=1e-14)

    def test_exp_atom_closed_form(self):
        # phi' = -2 phi/(1-z)^2 for the unit-mass atom at angle 0
        for z in (0.2 + 0.3j, -0.5j, 0.85):
            expected = -2.0 * eval_inner(EXP_ATOM, z) / (1.0 - z) ** 2
            assert derivative(EXP_ATOM, z) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("phi", CORPUS, ids=lambda p: f"deg{p.degree}x{len(p.singular_atoms)}")
    def test_matches_central_difference(self, phi):
        rng = np.random.default_rng(17)
        h = 1e-6
        for z in 0.9 * random_interior(rng, 100) / 0.95:
            fd = (eval_inner(phi, z + h) - eval_inner(phi, z - h)) / (2 * h)
            assert derivative(phi, z) == pytest.approx(fd, rel=1e-7, abs=1e-12)


def exact_boundary_modulus(phi, zeta: complex):
    """k + sum_j (1 - |a_j|^2)/|zeta - a_j|^2 at 50 digits, from the same floats."""
    with mpmath.workdps(50):
        z = mpmath.mpc(zeta)
        total = mpmath.mpf(phi.monomial_power)
        for a in phi.blaschke_zeros:
            aj = mpmath.mpc(a.value)
            total += (1 - abs(aj) ** 2) / abs(z - aj) ** 2
        return total


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10, 1e-12])
def test_boundary_modulus_with_a_zero_near_the_circle(gap):
    # 1 - |a|^2 is the only ill-conditioned term at points at least 1e-3 from
    # the zero; it is formed exactly, so the sum of positive terms is within
    # a few eps of the 50-digit value
    a = complex((1.0 - gap) * np.exp(0.9j))
    phi = InnerFunction1D(monomial_power=1, blaschke_zeros=(DiskPoint(a), DiskPoint(0.3 - 0.2j)))
    for theta in 0.9 + np.array([1e-3, -2e-3, 0.1, 2.0, -3.0]):
        zeta = TorusPoint(float(theta))
        want = exact_boundary_modulus(phi, zeta.value)
        assert abs(boundary_derivative_modulus(phi, zeta) - want) <= 1e-14 * want


class TestAngularDerivative:
    def test_identity_everywhere_one(self):
        for theta in (0.0, 1.3, 4.0):
            assert angular_derivative_modulus(IDENTITY, TorusPoint(theta)) == pytest.approx(1.0, rel=1e-10)

    def test_requires_unimodular_boundary(self):
        with pytest.raises(ValueError):
            angular_derivative_modulus(EXP_ATOM, TorusPoint(0.0))

    def test_blaschke_identity(self):
        # k + sum (1-|a|^2)/|zeta-a|^2, cross-checked against the radial limit
        for phi in (SQUARE, BLASCHKE_MONO, BLASCHKE_PAIR):
            for theta in (0.3, 1.9, 3.7, 5.5):
                zeta = TorusPoint(theta)
                closed = boundary_derivative_modulus(phi, zeta)
                radial = angular_derivative_modulus(phi, zeta)
                assert closed > 0
                assert radial == pytest.approx(closed, rel=1e-8)

    def test_exp_atom_level_points(self):
        # at eta_k = (2 pi k - i)/(2 pi k + i) the modulus is (1 + 4 pi^2 k^2)/2
        for k in (1, -1, 2):
            s = TWO_PI * k
            eta = (s - 1j) / (s + 1j)
            zeta = TorusPoint(cmath.phase(eta))
            expected = (1.0 + s * s) / 2.0
            assert boundary_derivative_modulus(EXP_ATOM, zeta) == pytest.approx(expected, rel=1e-12)
            assert angular_derivative_modulus(EXP_ATOM, zeta) == pytest.approx(expected, rel=1e-8)

    def test_diverges_near_atom_radially(self):
        # just off the atom the closed form is finite but enormous
        zeta = TorusPoint(1e-5)
        val = boundary_derivative_modulus(EXP_ATOM, zeta)
        assert val > 1e9
        assert boundary_derivative_modulus(EXP_ATOM, TorusPoint(0.0)) == math.inf

    def test_blaschke_modulus_positive_everywhere(self):
        thetas = np.linspace(0, TWO_PI, 64, endpoint=False)
        for theta in thetas:
            assert boundary_derivative_modulus(BLASCHKE_PAIR, TorusPoint(theta)) > 0


class TestValidationAndJSON:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            InnerFunction1D(singular_atoms=((TorusPoint(0.0), -1.0),))

    @pytest.mark.parametrize("mass", [math.inf, math.nan])
    def test_rejects_non_finite_mass(self, mass):
        with pytest.raises(ValueError, match="finite"):
            InnerFunction1D(singular_atoms=((0.0, mass),))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError):
            InnerFunction1D(singular_atoms=((TorusPoint(1.0), 1.0), (TorusPoint(1.0), 2.0)))

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            InnerFunction1D(monomial_power=-1)

    def test_json_round_trip(self):
        data = MIXED.to_json_dict()
        clone = InnerFunction1D.from_json_dict(data)
        assert clone.to_json_dict() == data
        z = 0.3 - 0.2j
        assert eval_inner(clone, z) == pytest.approx(eval_inner(MIXED, z), rel=1e-15)

    def test_json_defaults(self):
        phi = InnerFunction1D.from_json_dict({"monomial": 1})
        assert phi.degree == 1 and phi.is_blaschke_type

    @pytest.mark.parametrize("bad", [
        {"monomial": -1},
        {"monomial": 1.5},
        {"unimodular": "x"},
        {"blaschke_zeros": [[1.5, 0.0]]},
        {"blaschke_zeros": [[0.1]]},
        {"singular_atoms": [{"angle": 0.0}]},
        {"singular_atoms": [{"angle": 0.0, "mass": -2.0}]},
        {"extra": 1},
        [],
    ])
    def test_json_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            InnerFunction1D.from_json_dict(bad)
