"""Tests for Clark measures of product inner functions on the bidisc."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clark_measures import (
    InnerFunction1D,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    UnsupportedFunctionError,
    boundary_derivative_modulus,
    boundary_value,
    embed_clark2d,
    eval_inner,
    integrate_measure2d,
)
from clark_measures.product2d import (
    BranchCollisionError,
    ProductInner,
    SkipNode,
    _blaschke_fiber_atoms,
    _blaschke_pair_roots,
    _far_series,
    _horner,
    _LorentzFiber,
    _product_fiber,
    _series_coef,
    _wrapped_lorentz,
    blaschke_exp_branches,
    branch_curves,
    expexp_branches,
    fiber_measure,
    product_clark_integrate,
    product_map,
)
from clark_measures.torus_core import QuadratureError, poisson_kernel
from test_inner1d import exact_boundary_modulus

EXP = InnerFunction1D(singular_atoms=((0.0, 1.0),))
LAM = 0.5j
BPAIR = InnerFunction1D(monomial_power=1, blaschke_zeros=(LAM,))
IDENT = InnerFunction1D(monomial_power=1)
GRID = QuadratureGrid(4096)


def poisson_pair(z1, z2):
    def f(w1, w2):
        return (
            (1.0 - abs(z1) ** 2)
            / np.abs(w1 - z1) ** 2
            * (1.0 - abs(z2) ** 2)
            / np.abs(w2 - z2) ** 2
        )

    return f


def poisson_split(z1, z2):
    f1 = lambda w: (1.0 - abs(z1) ** 2) / np.abs(w - z1) ** 2  # noqa: E731
    f2 = lambda w: (1.0 - abs(z2) ** 2) / np.abs(w - z2) ** 2  # noqa: E731
    return f1, f2


def herglotz_rhs(P, alpha, z1, z2):
    v = eval_inner(P.phi, z1) * eval_inner(P.psi, z2)
    return (1.0 - abs(v) ** 2) / abs(alpha.alpha - v) ** 2


def random_point(rng, rmax=0.95):
    return rng.uniform(0, rmax) * np.exp(1j * rng.uniform(0, 2 * math.pi))


class TestProductInner:
    def test_kinds(self):
        assert ProductInner(EXP, BPAIR).kinds() == ("singular", "blaschke")
        assert ProductInner(BPAIR, EXP).kinds() == ("blaschke", "singular")

    def test_rejects_unsupported_psi(self):
        mixed = InnerFunction1D(
            monomial_power=1, singular_atoms=((1.0, 0.5),)
        )
        with pytest.raises(UnsupportedFunctionError):
            ProductInner(EXP, mixed)
        with pytest.raises(UnsupportedFunctionError):
            ProductInner(EXP, InnerFunction1D(singular_atoms=((0.0, 1.0), (2.0, 1.0))))

    def test_unsupported_phi_rejected_at_dispatch(self):
        mixed = InnerFunction1D(monomial_power=1, singular_atoms=((1.0, 0.5),))
        P = ProductInner(mixed, EXP)
        with pytest.raises(UnsupportedFunctionError):
            product_clark_integrate(P, UnimodularConstant.one(), poisson_pair(0, 0), GRID)

    def test_product_map(self):
        P = ProductInner(IDENT, BPAIR)
        z = (0.3 + 0.1j, -0.2 + 0.4j)
        assert product_map(P)(z) == pytest.approx(
            eval_inner(IDENT, z[0]) * eval_inner(BPAIR, z[1])
        )

    def test_json_round_trip(self):
        import json

        P = ProductInner(EXP, BPAIR)
        data = P.to_json_dict()
        assert set(data) == {"phi", "psi"}
        assert ProductInner.from_json_dict(json.loads(json.dumps(data))) == P

    def test_json_rejects_wrong_keys(self):
        with pytest.raises(ValueError):
            ProductInner.from_json_dict({"phi": {"monomial": 1}})
        with pytest.raises(ValueError):
            ProductInner.from_json_dict(
                {"phi": {"monomial": 1}, "psi": {"monomial": 1}, "extra": 1}
            )
        with pytest.raises(ValueError):
            ProductInner.from_json_dict([1, 2])


class TestFiberMeasure:
    def test_blaschke_pair_fiber_has_two_atoms(self):
        P = ProductInner(EXP, BPAIR)
        alpha = UnimodularConstant.from_nu(0.9)
        for theta in (0.7, 2.2, 4.5):
            mu = fiber_measure(P, TorusPoint(theta), alpha)
            assert len(mu.atoms) == 2
            for eta, w in mu.atoms:
                assert abs(abs(eta.value) - 1.0) < 1e-12
                assert w > 0

    def test_fiber_solves_level_equation(self):
        P = ProductInner(EXP, BPAIR)
        alpha = UnimodularConstant.from_nu(0.9)
        mu = fiber_measure(P, TorusPoint(1.3), alpha)
        b1 = boundary_value(EXP, TorusPoint(1.3)).value
        for eta, _ in mu.atoms:
            b2 = boundary_value(BPAIR, eta).value
            assert abs(b1 * b2 - alpha.alpha) < 1e-10

    def test_skip_node_at_singular_atom(self):
        P = ProductInner(EXP, BPAIR)
        with pytest.raises(SkipNode):
            fiber_measure(P, TorusPoint(0.0), UnimodularConstant.one())

    def test_exp_fiber_truncation(self):
        P = ProductInner(BPAIR, EXP)
        mu = fiber_measure(P, TorusPoint(2.0), UnimodularConstant.one(), K=25)
        assert len(mu.atoms) == 51
        assert mu.tail_bound > 0


class TestExpExpBranches:
    ALPHA = UnimodularConstant.from_nu(0.7)

    def test_normalization_at_one(self):
        for k in (-3, 0, 5):
            g, W = expexp_branches(self.ALPHA.nu, k)
            assert g(np.array([1.0 + 0j]))[0] == pytest.approx(1.0)
            assert W(np.array([1.0 + 0j]))[0] == 0.0

    def test_unimodular_and_solves_level_equation(self):
        thetas = np.linspace(0.2, 6.0, 11)
        zetas = np.exp(1j * thetas)
        for k in (-2, 0, 1, 4):
            g, _ = expexp_branches(self.ALPHA.nu, k)
            values = g(zetas)
            assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-10
            for zeta, gz in zip(thetas, values):
                b1 = boundary_value(EXP, TorusPoint(float(zeta))).value
                b2 = boundary_value(EXP, TorusPoint(float(np.angle(gz)))).value
                assert abs(b1 * b2 - self.ALPHA.alpha) < 1e-12

    def test_weight_is_reciprocal_derivative(self):
        thetas = np.linspace(0.2, 6.0, 9)
        zetas = np.exp(1j * thetas)
        for k in (-1, 0, 2):
            g, W = expexp_branches(self.ALPHA.nu, k)
            values, weights = g(zetas), W(zetas)
            for gz, w in zip(values, weights):
                slope = boundary_derivative_modulus(EXP, TorusPoint(float(np.angle(gz))))
                assert w == pytest.approx(1.0 / slope, rel=1e-12)

    def test_central_branch_weight_at_minus_one(self):
        # nu = 0, k = 0: g_0 = conj(zeta) and W_0(zeta) = |zeta - 1|^2 / 2
        g, W = expexp_branches(0.0, 0)
        zetas = np.exp(1j * np.array([math.pi, 2.0, 4.0]))
        assert np.allclose(g(zetas), np.conj(zetas), atol=1e-14)
        assert W(np.array([-1.0 + 0j]))[0] == pytest.approx(2.0, rel=1e-14)
        assert np.allclose(W(zetas), np.abs(zetas - 1.0) ** 2 / 2.0, rtol=1e-13)


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_fiber_weights_with_a_zero_near_the_circle(gap):
    # the companion-matrix fiber's weights 1/|psi'| at its roots, against a
    # 50-digit evaluation at the same roots, where they are 1e-3 from the zero
    a = complex((1.0 - gap) * np.exp(0.9j))
    psi = InnerFunction1D(monomial_power=1, blaschke_zeros=(a, 0.3 - 0.2j))
    roots, weights = _blaschke_fiber_atoms(psi, np.exp(1j * np.linspace(0.0, 6.0, 64)))
    away = np.abs(roots - a) >= 1e-3
    assert away.sum() > 64
    for root, weight in zip(roots[away], weights[away]):
        want = exact_boundary_modulus(psi, complex(root))
        assert abs(1.0 / weight - want) <= 1e-14 * want


class TestBlaschkeExpBranches:
    ALPHA = UnimodularConstant.from_nu(math.pi / 4)

    def test_branches_solve_level_equation(self):
        thetas = np.linspace(0.15, 6.1, 25)
        zetas = np.exp(1j * thetas)
        for g, W in blaschke_exp_branches(LAM, self.ALPHA.nu):
            values, weights = g(zetas), W(zetas)
            assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-10
            for theta, gz, w in zip(thetas, values, weights):
                b1 = boundary_value(EXP, TorusPoint(float(theta))).value
                b2 = boundary_value(BPAIR, TorusPoint(float(np.angle(gz)))).value
                assert abs(b1 * b2 - self.ALPHA.alpha) < 1e-12
                slope = boundary_derivative_modulus(BPAIR, TorusPoint(float(np.angle(gz))))
                assert w == pytest.approx(1.0 / slope, rel=1e-10)

    def test_branches_match_fiber_measure(self):
        P = ProductInner(EXP, BPAIR)
        rng = np.random.default_rng(31)
        branches = blaschke_exp_branches(LAM, self.ALPHA.nu)
        for theta in rng.uniform(0.1, 2 * math.pi - 0.1, size=20):
            mu = fiber_measure(P, TorusPoint(float(theta)), self.ALPHA)
            zeta = np.array([np.exp(1j * theta)])
            closed = sorted(
                ((complex(g(zeta)[0]), float(W(zeta)[0])) for g, W in branches),
                key=lambda t: np.angle(t[0]),
            )
            solved = sorted(
                ((eta.value, w) for eta, w in mu.atoms),
                key=lambda t: np.angle(t[0]),
            )
            for (gc, wc), (gs, ws) in zip(closed, solved):
                assert abs(gc - gs) < 1e-10
                assert abs(wc - ws) < 1e-10

    def test_undefined_at_accumulation_point(self):
        g, W = blaschke_exp_branches(LAM, self.ALPHA.nu)[0]
        assert np.isnan(g(np.array([1.0 + 0j]))[0])

    def test_continuity_along_grid(self):
        thetas = np.linspace(0.5, 5.8, 400)
        zetas = np.exp(1j * thetas)
        for g, _ in blaschke_exp_branches(LAM, self.ALPHA.nu):
            values = g(zetas)
            assert np.max(np.abs(np.diff(values))) < 0.2

    def test_collision_guard(self):
        beta = np.array([-7.0 + 4.0 * math.sqrt(3.0) + 0j])
        with pytest.raises(BranchCollisionError):
            _blaschke_pair_roots(beta, LAM)

    def test_rejects_parameter_outside_disc(self):
        with pytest.raises(ValueError):
            blaschke_exp_branches(1.2, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    thetas=st.lists(
        st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
        min_size=1, max_size=50,
    ),
    nu=st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
)
def test_branch_rules_are_functions_of_their_point(thetas, nu):
    zeta = np.exp(1j * np.array(thetas))
    reversed_zeta = np.ascontiguousarray(zeta[::-1])
    families = blaschke_exp_branches(LAM, nu) + tuple(expexp_branches(nu, k) for k in (-3, 0, 2))
    for rule in (rule for branch in families for rule in branch):
        batch = rule(zeta)
        np.testing.assert_array_equal(rule(reversed_zeta)[::-1], batch)
        alone = np.concatenate([rule(zeta[j:j + 1]) for j in range(len(zeta))])
        np.testing.assert_array_equal(alone, batch)


class TestProductIntegrate:
    def test_identity_product_matches_embedding(self):
        P = ProductInner(IDENT, IDENT)
        alpha = UnimodularConstant.from_nu(0.7)
        mu = embed_clark2d(IDENT, alpha)
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = poisson_pair(random_point(rng, 0.9), random_point(rng, 0.9))
            direct = product_clark_integrate(P, alpha, f, GRID)
            embedded = integrate_measure2d(mu, f, GRID)
            assert abs(direct.value - embedded.value) < 1e-12

    def test_expexp_mass_identity(self):
        P = ProductInner(EXP, EXP)
        alpha = UnimodularConstant.from_nu(0.4)
        r = math.exp(-2.0)
        rhs = (1 - r * r) / abs(alpha.alpha - r) ** 2
        one = lambda w: np.ones_like(np.asarray(w, dtype=complex))  # noqa: E731
        res = product_clark_integrate(P, alpha, None, GRID, K=400, f_split=(one, one))
        assert res.value.real == pytest.approx(rhs, rel=1e-12)
        assert abs(res.value.imag) < 1e-13

    def test_expexp_poisson_identity(self):
        P = ProductInner(EXP, EXP)
        alpha = UnimodularConstant.from_nu(0.7)
        rng = np.random.default_rng(5)
        for _ in range(4):
            z1, z2 = random_point(rng), random_point(rng)
            rhs = herglotz_rhs(P, alpha, z1, z2)
            res = product_clark_integrate(
                P, alpha, None, GRID, K=1000, f_split=poisson_split(z1, z2)
            )
            assert abs(res.value - rhs) / rhs < 1e-9
            assert abs(res.value - rhs) <= 1e-9 * rhs + res.error_bound

    def test_expexp_general_path_matches_separable(self):
        P = ProductInner(EXP, EXP)
        alpha = UnimodularConstant.from_nu(1.3)
        z1, z2 = 0.4 + 0.2j, -0.3 + 0.5j
        sep = product_clark_integrate(
            P, alpha, None, GRID, K=64, f_split=poisson_split(z1, z2)
        )
        gen = product_clark_integrate(P, alpha, poisson_pair(z1, z2), GRID, K=64)
        assert abs(sep.value - gen.value) < 1e-8

    def test_expexp_general_parameters(self):
        phi = InnerFunction1D(
            unimodular_factor=UnimodularConstant.from_nu(0.3),
            singular_atoms=((1.1, 0.7),),
        )
        psi = InnerFunction1D(
            unimodular_factor=UnimodularConstant.from_nu(-0.2),
            singular_atoms=((2.4, 1.9),),
        )
        P = ProductInner(phi, psi)
        alpha = UnimodularConstant.from_nu(0.9)
        r = math.exp(-(0.7 + 1.9))
        rhs = (1 - r * r) / abs(alpha.alpha - np.exp(1j * 0.1) * r) ** 2
        one = lambda w: np.ones_like(np.asarray(w, dtype=complex))  # noqa: E731
        res = product_clark_integrate(P, alpha, None, GRID, K=400, f_split=(one, one))
        assert res.value.real == pytest.approx(rhs, rel=1e-12)

    def test_blaschke_exp_poisson_identity(self):
        P = ProductInner(EXP, BPAIR)
        alpha = UnimodularConstant.from_nu(0.7)
        rng = np.random.default_rng(13)
        for _ in range(3):
            z1, z2 = random_point(rng), random_point(rng)
            rhs = herglotz_rhs(P, alpha, z1, z2)
            res = product_clark_integrate(P, alpha, poisson_pair(z1, z2), GRID, K=300)
            assert abs(res.value - rhs) / rhs < 1e-6
            assert abs(res.value - rhs) <= 1e-9 * rhs + 2.0 * res.error_bound

    def test_factor_swap_symmetry(self):
        alpha = UnimodularConstant.from_nu(0.7)
        z1, z2 = 0.3 + 0.2j, -0.1 + 0.4j
        f = poisson_pair(z1, z2)
        fT = lambda w2, w1: f(w1, w2)  # noqa: E731
        direct = product_clark_integrate(ProductInner(EXP, BPAIR), alpha, f, GRID, K=300)
        swapped = product_clark_integrate(ProductInner(BPAIR, EXP), alpha, fT, GRID, K=300)
        assert abs(direct.value - swapped.value) < 1e-12

    def test_blaschke_blaschke_poisson_identity(self):
        psi = InnerFunction1D(monomial_power=2, blaschke_zeros=(0.3 - 0.2j,))
        P = ProductInner(BPAIR, psi)
        alpha = UnimodularConstant.from_nu(2.1)
        rng = np.random.default_rng(7)
        for _ in range(3):
            z1, z2 = random_point(rng), random_point(rng)
            rhs = herglotz_rhs(P, alpha, z1, z2)
            res = product_clark_integrate(P, alpha, poisson_pair(z1, z2), GRID)
            assert abs(res.value - rhs) / rhs < 1e-9

    def test_blaschke_blaschke_mass(self):
        psi = InnerFunction1D(monomial_power=2, blaschke_zeros=(0.3 - 0.2j,))
        P = ProductInner(BPAIR, psi)
        ones = lambda a, b: np.ones(np.broadcast(a, b).shape)  # noqa: E731
        res = product_clark_integrate(P, UnimodularConstant.from_nu(0.5), ones, GRID)
        assert res.value.real == pytest.approx(1.0, rel=1e-13)

    @settings(max_examples=20, deadline=None)
    @given(
        c1=st.floats(0.3, 2.0),
        c2=st.floats(0.3, 2.0),
        nu=st.floats(0.0, 6.2),
    )
    def test_expexp_mass_property(self, c1, c2, nu):
        phi = InnerFunction1D(singular_atoms=((0.0, c1),))
        psi = InnerFunction1D(singular_atoms=((0.0, c2),))
        P = ProductInner(phi, psi)
        alpha = UnimodularConstant.from_nu(nu)
        r = math.exp(-(c1 + c2))
        rhs = (1 - r * r) / abs(alpha.alpha - r) ** 2
        one = lambda w: np.ones_like(np.asarray(w, dtype=complex))  # noqa: E731
        res = product_clark_integrate(
            P, alpha, None, QuadratureGrid(4096), K=200, f_split=(one, one)
        )
        assert res.value.real == pytest.approx(rhs, rel=1e-10)

    def test_rejects_bad_truncation(self):
        P = ProductInner(EXP, EXP)
        with pytest.raises(ValueError):
            product_clark_integrate(P, UnimodularConstant.one(), None, GRID, K=0)

    def test_too_many_bad_nodes_rejected(self):
        P = ProductInner(BPAIR, EXP)

        def poisoned(w1, w2):
            out = np.ones(np.broadcast(w1, w2).shape, dtype=complex)
            return np.where(np.real(w2) > 0, out, np.nan)

        with pytest.raises(QuadratureError):
            product_clark_integrate(P, UnimodularConstant.one(), poisoned, GRID, K=50)

    def test_one_bad_node_counts_as_zero_with_a_finite_bound(self):
        # f undefined at the outer node zeta = 1 only, within the allowance:
        # the node counts as 0, as if f were 0 on its fiber
        alpha = UnimodularConstant.one()
        psi = InnerFunction1D(monomial_power=2, blaschke_zeros=(0.3 - 0.2j,))
        for P, outer in ((ProductInner(BPAIR, EXP), 0), (ProductInner(EXP, BPAIR), 1),
                         (ProductInner(BPAIR, psi), 0)):
            def integrand(bad_value, outer=outer):
                def f(w1, w2):
                    w = np.broadcast_arrays(w1, w2)[outer]
                    return np.where(w == 1.0, bad_value, 1.0)
                return f

            res = product_clark_integrate(P, alpha, integrand(np.nan), GRID, K=50)
            zeroed = product_clark_integrate(P, alpha, integrand(0.0), GRID, K=50)
            assert np.isfinite(res.error_bound)
            assert res.value == zeroed.value


EPS = np.finfo(float).eps
lorentz_fibers = st.builds(
    lambda c, xi_angle, seed: _LorentzFiber(
        np.random.default_rng(seed).uniform(-2 * math.pi, 2 * math.pi, 32),
        c, complex(np.exp(1j * xi_angle)), 40,
    ),
    c=st.floats(min_value=0.05, max_value=5.0),
    xi_angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def held_arrays(obj, seen=None):
    """Every numpy array reachable from obj's attributes, closures and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
        children += [cell.cell_contents for cell in getattr(obj, "__closure__", None) or ()]
    else:
        return
    for child in children:
        yield from held_arrays(child, seen)


class TestLorentzFiber:
    @settings(max_examples=100, deadline=None)
    @given(
        fiber=lorentz_fibers,
        radius=st.floats(min_value=0.0, max_value=0.99),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_poisson_sums_match_the_kernel_sums(self, fiber, radius, angle):
        # both paths see each atom to a few eps, and the kernel's relative
        # slope along the circle is up to 2/(1 - |z|): that term bounds the
        # difference near the circle, where the oracle itself is off by
        # more than 1e-14
        z = radius * complex(np.exp(1j * angle))
        rel = 1e-14 + 64 * EPS / (1.0 - radius)
        closed = fiber.poisson_sums(z)
        kernel = fiber.sums(lambda w: poisson_kernel(z, w))
        for got, want in zip(closed, kernel):
            assert np.all(np.abs(got - want) <= rel * want)

    @settings(max_examples=30, deadline=None)
    @given(fiber=lorentz_fibers)
    def test_moment_sums_match_the_power_sums(self, fiber):
        moments = fiber.moment_sums(8)
        assert sorted(moments) == [m for m in range(-8, 9) if m]
        # |w^-m| = 1, so each sum is at most the fiber mass, and each term of
        # either path is within a few (|m| + 2) eps of its weight
        mass = _wrapped_lorentz(fiber.c, fiber.base)
        for m, sums in moments.items():
            for got, want in zip(sums, fiber.sums(lambda w: w ** (-m))):
                assert np.all(np.abs(got - want) <= 8 * (abs(m) + 2) * EPS * mass)

    @pytest.mark.parametrize("span", [2 * math.pi, 4 * math.pi])
    @pytest.mark.parametrize("c", [0.05, 1.0, 5.0])
    def test_closed_forms_at_production_scale(self, span, c):
        # K and N as product_integrator has them, at the tolerances above.
        # The closed forms run on all 4,096 levels, the generic oracle on
        # every 64th, whose sums do not depend on the other levels; w^m is
        # the conjugate of w^-m by construction.  Points
        # near xi have |p| and q in the thousands, so every row is far.  The
        # offsets put the near rows on the half-window edge and past the
        # window edge; there z conj(xi) is real, so p = 0 and both paths
        # form the same levels.
        K, xi = 1000, complex(np.exp(0.7j))
        cases = (
            (0.0, (0j, 0.5 - 0.3j, 0.999 * np.exp(2.0j), 0.999 * xi * np.exp(1e-3j),
                   0.999 * xi * np.exp(0.05j))),
            (math.pi * K, (0.5 * xi, -0.999 * xi)),
            (2.0 * math.pi * K, (0.5 * xi, -0.999 * xi)),
        )
        for offset, points in cases:
            base = np.linspace(-0.5 * span, 0.5 * span, 4096) - offset
            fiber = _LorentzFiber(base, c, xi, K)
            oracle = _LorentzFiber(base[::64], c, xi, K)
            for z in points:
                rel = 1e-14 + 64 * EPS / (1.0 - abs(z))
                closed = fiber.poisson_sums(z)
                for got, want in zip(closed, oracle.sums(lambda w: poisson_kernel(z, w))):
                    assert np.all(np.abs(got[::64] - want) <= rel * want)
            mass = _wrapped_lorentz(c, oracle.base)
            moments = fiber.moment_sums(8)
            for m in range(1, 9):
                for got, want in zip(moments[-m], oracle.sums(lambda w: w ** m)):
                    assert np.all(np.abs(got[::64] - want) <= 8 * (m + 2) * EPS * mass)

    @pytest.mark.parametrize("half_width", [0.01, 0.3, 1.0])
    def test_moment_sums_on_a_narrow_level_range(self, half_width):
        # a narrow range puts rows with |a_k| near c in the far field, where
        # the binomial terms of (t + 2ic)^(m-1) would swamp their sum
        for c in (1.0, 5.0):
            fiber = _LorentzFiber(np.linspace(0.4 - half_width, 0.4 + half_width, 64), c, 1j, 1000)
            mass = _wrapped_lorentz(c, fiber.base)
            moments = fiber.moment_sums(8)
            for m in range(1, 9):
                for got, want in zip(moments[-m], fiber.sums(lambda w: w ** m)):
                    assert np.all(np.abs(got - want) <= 8 * (m + 2) * EPS * mass)

    def test_far_series_remainder_covers_its_error(self):
        # at a small order the truncation shows: the stated remainder covers
        # the direct far sum minus the expansion, over the whole level range
        # and in either window, and is not far above it
        K, R, M = 200, 2.0, 3
        a = 0.7 + 2 * math.pi * np.arange(-K, K + 1) - 0.4j
        far = np.abs(a) >= 8 * R
        half = slice(K - K // 2, K + K // 2 + 1)
        in_half = np.zeros(len(a), dtype=bool)
        in_half[half] = True
        sums, bounds = _far_series(a, far, half, R, M, 3)
        x = np.linspace(-R, R, 101)
        for p in (1, 2, 3):
            for window, rows in ((0, far), (1, far & in_half)):
                direct = np.sum((x[:, None] + a[rows]) ** -p, axis=1)
                error = np.abs(direct - _horner(_series_coef(sums[window], p, M)[None], x)[0])
                assert np.all(error <= bounds[p - 1])
                assert error.max() >= 0.1 * bounds[p - 1]

    def test_no_array_spans_the_window(self):
        K = 60
        psi = InnerFunction1D(monomial_power=2, blaschke_zeros=(0.3 - 0.2j,))
        alpha = UnimodularConstant.from_nu(0.7)
        for P in (ProductInner(EXP, EXP), ProductInner(BPAIR, EXP), ProductInner(EXP, BPAIR),
                  ProductInner(BPAIR, psi)):
            fiber = _product_fiber(P, alpha, GRID, K)
            for axis in (0, 1):  # builds whatever a fiber makes on first use
                fiber.poisson_profile(axis, 0.3j)
                fiber.moment_profiles(axis, 2)
            arrays = list(held_arrays(fiber))
            assert arrays
            assert all(a.ndim < 2 or a.shape[0] != 2 * K + 1 for a in arrays)

    def test_closed_form_passes_allocate_no_chunk(self):
        # everything chunk-sized lives in the fiber's buffers; a call makes
        # only per-level vectors
        fiber = _LorentzFiber(np.linspace(0.0, 2 * math.pi, 4096, endpoint=False), 1.0, 1j, 1000)
        for call in (lambda: fiber.poisson_sums(0.3 + 0.1j), lambda: fiber.moment_sums(1)):
            call()
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < fiber._y.nbytes

    def test_generic_paths_keep_their_bits(self):
        # float hex of product_clark_integrate before the closed-form passes:
        # the generic split and general paths are not forked
        z1, z2 = 0.3 + 0.2j, -0.4 + 0.5j
        expected = {
            "ee": ("0x1.bf2020f1b44d4p-1", "0x0.0p+0", "0x1.59915454aaaabp-22",
                   "-0x1.2badb39a1b896p-2", "0x1.eace0f34b7565p-8", "0x1.8e23d3adabb71p-22"),
            "be": ("0x1.e885740879cdep-1", "0x0.0p+0", "0x1.5fef5bf999aabp-27",
                   "-0x1.77577af7d0fecp-3", "-0x1.616d41d5cd7fcp-3", "0x1.b6f8e164b6b16p-26"),
            "eb": ("0x1.0f0afbcf92e2ep+0", "0x0.0p+0", "0x1.d186ff8d93b55p-24",
                   "0x1.126b35819cea3p-4", "-0x1.79b3ed2c525f2p-2", "0x1.8a7a371be87d3p-23"),
        }
        f1, f2 = poisson_split(z1, z2)
        alpha = UnimodularConstant.from_nu(0.7)
        for key, P in (("ee", ProductInner(EXP, EXP)), ("be", ProductInner(BPAIR, EXP)),
                       ("eb", ProductInner(EXP, BPAIR))):
            split = product_clark_integrate(P, alpha, None, GRID, K=60, f_split=(f1, f2))
            general = product_clark_integrate(
                P, alpha, lambda w1, w2: f1(w1) * f2(w2) * w1 / w2, GRID, K=60)
            got = tuple(x.hex() for r in (split, general)
                        for x in (r.value.real, r.value.imag, r.error_bound))
            assert got == expected[key]


class TestBranchCurves:
    def test_expexp_curve_count(self):
        P = ProductInner(EXP, EXP)
        thetas = np.linspace(0.1, 6.0, 50)
        curves = branch_curves(P, UnimodularConstant.from_nu(0.7), thetas, K=5)
        assert len(curves) == 11
        for _, values, weights in curves:
            assert np.max(np.abs(np.abs(values) - 1.0)) < 1e-10
            assert np.all(weights >= 0)

    def test_blaschke_exp_curve_count(self):
        P = ProductInner(EXP, BPAIR)
        thetas = np.linspace(0.1, 6.0, 50)
        curves = branch_curves(P, UnimodularConstant.from_nu(0.7), thetas)
        assert len(curves) == 2

    def test_solver_curves(self):
        psi = InnerFunction1D(monomial_power=2, blaschke_zeros=(0.3 - 0.2j,))
        P = ProductInner(BPAIR, psi)
        thetas = np.linspace(0.1, 6.0, 25)
        curves = branch_curves(P, UnimodularConstant.from_nu(0.7), thetas)
        assert len(curves) == 3
        b1 = [boundary_value(BPAIR, TorusPoint(float(t))).value for t in thetas]
        for _, values, _ in curves:
            for bv1, gz in zip(b1, values):
                bv2 = boundary_value(psi, TorusPoint(float(np.angle(gz)))).value
                assert abs(bv1 * bv2 - np.exp(0.7j)) < 1e-8
