"""The Poisson identity for multiplicative embeddings, checked end to end.

Phi(z) = phi(z_1 z_2) pushes the one-variable Clark measure of phi onto a
family of antidiagonals.  Integrating the bidisc Poisson kernel against
that family must reproduce (1 - |Phi(z)|^2)/|alpha - Phi(z)|^2 at every
interior point; the script measures the worst relative residual for the
exponential inner function at 50 random points, then repeats the check on
the tridisc where the measure lives on a two-parameter antidiagonal family.
"""

from clark_measures import (
    InnerFunction1D,
    QuadratureGrid,
    TorusPoint,
    UnimodularConstant,
    embed_clark2d,
    embed_clark_nd,
    embed_integrator,
    embedding_map,
    measure_integrator,
    poisson_identity_check,
    sample_test_points,
)

EXP = InnerFunction1D(singular_atoms=((TorusPoint(0.0), 1.0),))
ALPHA = UnimodularConstant.one()
GRID = QuadratureGrid(4096)

mu = embed_clark2d(EXP, ALPHA, K=2000)
print(
    f"bidisc embedding: {len(mu.thetas)} antidiagonals,"
    f" tail bound {mu.tail_bound:.3e}"
)
report = poisson_identity_check(
    mu,
    embedding_map(EXP, 2),
    ALPHA,
    sample_test_points(2, 50),
    base_rel=1e-6,
    integrate=measure_integrator(mu, GRID),
)
worst = max(r.relative_error for r in report.identity_residuals)
print(f"  worst relative residual over 50 points: {worst:.3e}")
print(f"  all within 1e-6 + tail allowance: {report.passed}")
print()

em = embed_clark_nd(EXP, ALPHA, 3, K=500)
report = poisson_identity_check(
    em,
    embedding_map(EXP, 3),
    ALPHA,
    sample_test_points(3, 10),
    base_rel=1e-5,
    integrate=embed_integrator(em, GRID),
)
worst = max(r.relative_error for r in report.identity_residuals)
print("tridisc embedding, same atoms, one more free angle:")
print(f"  worst relative residual over 10 points: {worst:.3e}")
print(f"  all within 1e-5 + tail allowance: {report.passed}")
