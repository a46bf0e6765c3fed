"""The package surface: clark_measures.__all__ is the union of the
submodules' __all__ lists, and every name is the submodule's own object."""

import importlib

import clark_measures

SUBMODULES = ("torus_core", "inner1d", "clark1d", "embed", "product2d", "rif2d",
              "verify", "cli")

# every name the package exported when it listed them by hand
LISTED_NAMES = """
    TorusPoint DiskPoint UnimodularConstant QuadratureGrid
    IntegralResult DiscreteMeasure1D Antidiagonal Graph CurveComponent
    LineComponent ClarkMeasure2D poisson_kernel poisson_kernel_nd
    periodic_quadrature integrate_measure2d InnerFunction1D
    BoundaryValue Unimodular Zero Undefined eval_inner boundary_value
    boundary_values_array derivative angular_derivative_modulus
    boundary_derivative_modulus LevelPoints UnsupportedFunctionError
    DegenerateDerivativeError clark_blaschke clark_atomic_singular
    clark_measure1d level_points EmbeddedClarkND embedding_map
    embed_level_set embed_clark2d embed_clark_nd integrate_embed_nd
    ProductInner BranchFamily SkipNode BranchCollisionError product_map
    fiber_measure product_clark_integrate product_branch_family
    product_branch_measure expexp_branches blaschke_exp_branches
    branch_curves Poly1 RIF_n1 LevelRational RIFError reflect rif_map
    b_alpha w_alpha w_alpha_values singularities exceptional_values
    line_constant rif_clark_measure rif_boundary_value
    VerificationReport IdentityResidual MassCheck FourierEntry
    SupportSample herglotz_rhs sample_test_points measure_integrator
    embed_integrator product_integrator poisson_identity_check
    total_mass_check support_inclusion_check fourier_rp_check
    product_fourier_rp_check embedding_boundary_map product_boundary_map
    rif_boundary_map CommandSpec SchemaError ComputationError run main
    __version__
""".split()

# names that were only in a submodule's __all__ until the package took them
# from there
JOINED_NAMES = ("ZERO", "UNDEFINED", "DEFAULT_TRUNCATION", "DEFAULT_SEED", "EMBED_BASE_REL",
                "PRODUCT_BASE_REL", "RIF_BASE_REL", "SUPPORT_TOL", "FOURIER_BASE_TOL")


def test_no_duplicate_names():
    assert len(clark_measures.__all__) == len(set(clark_measures.__all__))


def test_each_name_is_its_submodule_object():
    owners = {}
    for module_name in SUBMODULES:
        module = importlib.import_module(f"clark_measures.{module_name}")
        for name in module.__all__:
            assert name not in owners, f"{name} is public in two submodules"
            owners[name] = module
    assert set(clark_measures.__all__) == set(owners) | {"__version__"}
    for name, module in owners.items():
        assert getattr(clark_measures, name) is getattr(module, name), name


def test_keeps_every_listed_name():
    assert len(LISTED_NAMES) == 89
    assert set(LISTED_NAMES) | set(JOINED_NAMES) <= set(clark_measures.__all__)
    for name in LISTED_NAMES + list(JOINED_NAMES):
        assert hasattr(clark_measures, name), name
