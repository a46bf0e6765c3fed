"""Command-line surface: function ingestion, measure computation,
verification, and figure-data emission.

    clark eval       value of a function at a point
    clark measure1d  discrete Clark measure of a one-variable inner function
    clark embed      Clark measure of phi(z_1 ... z_d)
    clark product    branch-graph Clark measure of phi(z_1) psi(z_2)
    clark rif        level-curve Clark measure of a bidegree-(n, 1) RIF
    clark verify     Poisson-identity / mass / support / Fourier report
    clark plot       level-curve CSV plus an SVG rendering per alpha

Conventions: angles are radians everywhere, complex numbers are [re, im]
pairs in JSON, CSV carries component_id,theta1,theta2,weight at 17
significant digits, and the SVG is a plain polyline rendering on the
square [0, 2pi)^2 with weight encoded as stroke opacity and one color
class per alpha.  Each curve component is sampled once into columns
(theta1, theta2, weight) by its structure: grid angles as node indices, a
constant as one float, anything else as a float array.  The CSV, SVG and
JSON are all formatted from those columns, the grid's strings once per
output and a constant's once per component.  Exit codes: 0 ok, 1 schema error, 2 computation error,
3 verification failure; failures put a machine-readable JSON envelope on
stderr.  `verify --rif` exits 2 with kind "unresolved" where an identity
point's or the mass check's proven error bound exceeds its tolerance.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .clark1d import UnsupportedFunctionError, clark_measure1d
from .embed import embed_clark2d, embed_clark_nd, embedding_map
from .inner1d import InnerFunction1D, eval_inner
from .product2d import ProductInner, _product_fiber, product_branch_measure, product_map
from .rif2d import (
    RIF_n1,
    RIFError,
    _snap_exceptional,
    exceptional_values,
    rif_clark_measure,
    rif_map,
    singularities,
)
from .torus_core import (
    TWO_PI,
    ClarkMeasure2D,
    QuadratureGrid,
    UnimodularConstant,
    _canonical_angles,
)
from .verify import (
    DEFAULT_SEED,
    EMBED_BASE_REL,
    FOURIER_BASE_TOL,
    PRODUCT_BASE_REL,
    RIF_BASE_REL,
    SUPPORT_TOL,
    VerificationReport,
    _fiber_fourier_entries,
    _fiber_integrator,
    embed_integrator,
    fourier_rp_check,
    measure_integrator,
    poisson_identity_check,
    product_boundary_map,
    rif_boundary_map,
    sample_test_points,
    support_inclusion_check,
    total_mass_check,
)

__all__ = ["CommandSpec", "SchemaError", "ComputationError", "UnresolvedError", "run", "main"]


_SUBCOMMANDS = ("eval", "measure1d", "embed", "product", "rif", "verify", "plot")
_FORMATS = ("csv", "svg", "json")
_KINDS = ("inner", "embed", "product", "rif")

_PALETTE = ("#000000", "#808080", "#ff8c00", "#d62728",
            "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
_SVG_SCALE = 100.0
_FOURIER_KMAX = 8
_MASS_BASE_ABS = 1e-8
# Branch windows beyond this make the support/Fourier sections slower
# without tightening them (the tail bound shrinks like 1/K).
_SUPPORT_WINDOW_CAP = 200


class SchemaError(ValueError):
    """Flags or an input spec that do not parse (exit 1)."""


class ComputationError(RuntimeError):
    """A well-formed request the library cannot carry out (exit 2)."""

    kind = "computation"


class UnresolvedError(ComputationError):
    """A RIF identity point or mass check whose proven error bound exceeds
    its tolerance: the integral cannot be resolved there to the precision
    the check states, so no pass or fail is reported (exit 2)."""

    kind = "unresolved"


@dataclass(frozen=True)
class CommandSpec:
    """One parsed invocation.

    K is the truncation natural to the input kind: atom count for
    embeddings, branch half-window or layer count for products.  N is both
    the quadrature size and the per-component sampling density of emitted
    curve data.
    """

    subcommand: str
    input: str
    input_kind: str
    alpha: float = None
    alpha_list: tuple = ()
    d: int = 2
    N: int = 4096
    K: int = 10000
    output: str = None
    format: str = "json"
    z: tuple = ()

    def __post_init__(self):
        if self.subcommand not in _SUBCOMMANDS:
            raise SchemaError(f"unknown subcommand {self.subcommand!r}")
        if self.input_kind not in _KINDS:
            raise SchemaError(f"unknown input kind {self.input_kind!r}")
        if not (isinstance(self.N, int) and self.N >= 256 and self.N & (self.N - 1) == 0):
            raise SchemaError("N must be a power of two >= 256")
        if not (isinstance(self.K, int) and self.K >= 1):
            raise SchemaError("K must be an integer >= 1")
        if self.format not in _FORMATS:
            raise SchemaError(f"format must be one of {', '.join(_FORMATS)}")
        if not (isinstance(self.d, int) and self.d >= 2):
            raise SchemaError("embedding dimension d must be an integer >= 2")
        object.__setattr__(self, "alpha_list", tuple(self.alpha_list))
        object.__setattr__(self, "z", tuple(self.z))
        alphas = self.alpha_list + (() if self.alpha is None else (self.alpha,))
        if not all(math.isfinite(a) for a in alphas):
            raise SchemaError("alpha angles must be finite")
        if not all(cmath.isfinite(c) for c in self.z):
            raise SchemaError("--z coordinates must be finite")


# ---------------------------------------------------------------------------
# input loading


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_spec(path, parser):
    data = _load_json(path)
    try:
        return parser(data)
    except (TypeError, ValueError, RIFError, UnsupportedFunctionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _load_inner(path) -> InnerFunction1D:
    return _load_spec(path, InnerFunction1D.from_json_dict)


def _load_product(path) -> ProductInner:
    return _load_spec(path, ProductInner.from_json_dict)


def _load_rif(path) -> RIF_n1:
    return _load_spec(path, RIF_n1.from_json_dict)


def _alpha_of(nu) -> UnimodularConstant:
    return UnimodularConstant.from_nu(float(nu))


def _compute(thunk):
    """Run a library call, mapping its failure modes to exit code 2."""
    try:
        return thunk()
    except (SchemaError, ComputationError):
        raise
    except (ValueError, ArithmeticError, RIFError, UnsupportedFunctionError,
            np.linalg.LinAlgError) as exc:
        raise ComputationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# emission


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(text: str, output) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _emit_error(kind: str, code: int, message) -> None:
    envelope = {"error": {"code": code, "kind": kind, "message": str(message)}}
    sys.stderr.write(json.dumps(envelope, sort_keys=True) + "\n")


class _Component(NamedTuple):
    """One component's curve data on a sampling grid of angles.

    Its rows are the grid nodes `nodes`.  A column (theta1, theta2, weight)
    is None for the grid angle at those nodes, a float for a constant, or
    a float array with one value per row.  The emitters format a grid
    column from strings made once per call, and a constant once.
    """

    cid: str
    nodes: np.ndarray
    theta1: object
    theta2: object
    weight: object


def _grid_angles(n: int) -> np.ndarray:
    return TWO_PI * np.arange(n) / n


def _measure_components(mu: ClarkMeasure2D, thetas: np.ndarray, prefix: str = "",
                        swap: bool = False):
    """The _Component of each curve, then of each line, sampled at thetas,
    with theta1 and theta2 exchanged when swap is set.

    An antidiagonal and a line take every node, and their constant weight
    (and a line's theta1) as one float; a graph takes the nodes where its
    rule and weight are defined.  Antidiagonal second coordinates are
    computed in angle arithmetic so the emitted thetas are exact grid values.
    """
    zeta = np.exp(1j * thetas)
    every = np.arange(len(thetas))
    antidiagonals = zip(mu.thetas.tolist(), mu.weights.tolist())
    out = [_Component(f"{prefix}curve{i}", every, None, _canonical_angles(eta - thetas), w)
           for i, (eta, w) in enumerate(antidiagonals)]
    for comp in mu.graphs:
        z2 = comp.second_coordinate(zeta)
        w = comp.weight_values(zeta)
        ok = np.isfinite(z2) & np.isfinite(w)
        t2 = _canonical_angles(np.angle(z2[ok]))
        out.append(_Component(f"{prefix}curve{len(out)}", np.flatnonzero(ok), None, t2, w[ok]))
    for i, line in enumerate(mu.lines):
        cid = f"{prefix}line{i}"
        out.append(_Component(cid, every, line.tau.theta, None, float(line.constant)))
    if swap:
        out = [comp._replace(theta1=comp.theta2, theta2=comp.theta1) for comp in out]
    return out


def _columns(comp: _Component, thetas: np.ndarray) -> tuple:
    """(theta1, theta2, weight) of comp as float arrays."""

    def values(column):
        if column is None:
            return thetas[comp.nodes]
        return np.full(len(comp.nodes), column) if np.ndim(column) == 0 else column

    return tuple(values(column) for column in comp[2:])


def _column_text(column, nodes, grid_text, spec: str) -> list:
    """One string per row: the grid's strings at nodes, one constant's
    string repeated, or each value formatted by spec."""
    if column is None:
        if len(nodes) == len(grid_text):
            return grid_text
        return [grid_text[j] for j in nodes.tolist()]
    if np.ndim(column) == 0:
        return [format(column, spec)] * len(nodes)
    return [format(v, spec) for v in column.tolist()]


def _csv_text(thetas: np.ndarray, components) -> str:
    grid = [format(v, ".17g") for v in thetas.tolist()]
    rows = ["component_id,theta1,theta2,weight"]
    for comp in components:
        t1, t2, w = (_column_text(c, comp.nodes, grid, ".17g") for c in comp[2:])
        rows.extend(f"{comp.cid},{a},{b},{c}" for a, b, c in zip(t1, t2, w))
    return "\n".join(rows) + "\n"


def _svg_runs(t1, t2, opacity):
    """Polyline runs (opacity, start, stop) of one component's samples.

    A run ends where either angle wraps, and within a wrap-free stretch
    where the quantized opacity changes; such a run repeats the joint
    sample so the rendered curve stays connected.  Single-sample runs are
    dropped.  opacity is one string for a constant weight, else an array
    of one string per sample.
    """
    wraps = np.flatnonzero((np.abs(np.diff(t1)) > math.pi) | (np.abs(np.diff(t2)) > math.pi)) + 1
    constant = isinstance(opacity, str)
    steps = wraps[:0] if constant else np.flatnonzero(opacity[1:] != opacity[:-1]) + 1
    ends = set(wraps.tolist()) | {len(t1)}
    runs, start = [], 0
    for cut in np.union1d(wraps, steps).tolist() + [len(t1)]:
        stop = cut if cut in ends else cut + 1
        if stop - start >= 2:
            runs.append((opacity if constant else opacity[start], start, stop))
        start = cut
    return runs


def _svg_text(thetas: np.ndarray, groups) -> str:
    """Polyline SVG on [0, 2pi)^2; groups are (css_class, color, components)."""
    size = TWO_PI * _SVG_SCALE
    grid_x = [f"{x:.2f}" for x in (thetas * _SVG_SCALE).tolist()]
    grid_y = [f"{y:.2f}" for y in ((TWO_PI - thetas) * _SVG_SCALE).tolist()]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="-6 -6 {size + 12:.2f} {size + 12:.2f}">',
        f'<rect x="0" y="0" width="{size:.2f}" height="{size:.2f}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1"/>',
    ]
    for css, color, components in groups:
        out.append(f'<g class="{css}" fill="none" stroke="{color}" stroke-width="1.2">')
        for comp in components:
            t1, t2, _ = _columns(comp, thetas)
            xs = _column_text(None if comp.theta1 is None else comp.theta1 * _SVG_SCALE,
                              comp.nodes, grid_x, ".2f")
            ys = _column_text(None if comp.theta2 is None else (TWO_PI - comp.theta2) * _SVG_SCALE,
                              comp.nodes, grid_y, ".2f")
            vertices = [f"{x},{y}" for x, y in zip(xs, ys)]
            # + 0.0 turns a clipped -0.0 into 0.0
            opacity = np.clip(comp.weight, 0.0, 1.0) + 0.0
            if np.ndim(opacity) == 0:
                opacity = format(opacity, ".3f")
            else:
                opacity = np.array([format(v, ".3f") for v in opacity.tolist()])
            for op, start, stop in _svg_runs(t1, t2, opacity):
                out.append(
                    f'<polyline data-component="{comp.cid}" stroke-opacity="{op}" '
                    f'points="{" ".join(vertices[start:stop])}"/>'
                )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _emit_measure(mu: ClarkMeasure2D, spec: CommandSpec, extra: dict = None,
                  swap: bool = False) -> int:
    thetas = _grid_angles(spec.N)
    components = _measure_components(mu, thetas, swap=swap)
    if spec.format == "csv":
        _emit(_csv_text(thetas, components), spec.output)
    elif spec.format == "svg":
        _emit(_svg_text(thetas, [("alpha0", _PALETTE[0], components)]), spec.output)
    else:
        payload = {
            "components": [
                {"component_id": comp.cid,
                 "points": np.stack(_columns(comp, thetas), axis=1).tolist()}
                for comp in components
            ],
            "tail_bound": mu.tail_bound,
        }
        payload.update(extra or {})
        _emit(_json_text(payload), spec.output)
    return 0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_eval(spec: CommandSpec) -> int:
    z = spec.z
    if spec.input_kind == "inner":
        phi = _load_inner(spec.input)
        value = _compute(lambda: eval_inner(phi, z[0]))
    elif spec.input_kind == "embed":
        phi = _load_inner(spec.input)
        value = _compute(lambda: embedding_map(phi, spec.d)(z))
    elif spec.input_kind == "product":
        P = _load_product(spec.input)
        value = _compute(lambda: product_map(P)(z))
    else:
        R = _load_rif(spec.input)
        value = _compute(lambda: rif_map(R)(z))
    value = complex(value)
    _emit(_json_text({"value": [value.real, value.imag]}), spec.output)
    return 0


def _measure1d_payload(mu) -> dict:
    atoms = zip(mu.thetas.tolist(), mu.weights.tolist())
    return {"atoms": [{"angle": t, "weight": w} for t, w in atoms], "tail_bound": mu.tail_bound}


def _cmd_measure1d(spec: CommandSpec) -> int:
    phi = _load_inner(spec.input)
    mu = _compute(lambda: clark_measure1d(phi, _alpha_of(spec.alpha), K=spec.K))
    _emit(_json_text(_measure1d_payload(mu)), spec.output)
    return 0


def _cmd_embed(spec: CommandSpec) -> int:
    phi = _load_inner(spec.input)
    alpha = _alpha_of(spec.alpha)
    if spec.format == "json":
        em = _compute(lambda: embed_clark_nd(phi, alpha, spec.d, K=spec.K))
        _emit(_json_text({"dimension": em.dimension, **_measure1d_payload(em.base)}), spec.output)
        return 0
    if spec.d != 2:
        raise SchemaError("curve output is two-dimensional; use --format json for d >= 3")
    mu = _compute(lambda: embed_clark2d(phi, alpha, K=spec.K))
    return _emit_measure(mu, spec)


def _product_branches(P: ProductInner, alpha: UnimodularConstant, K: int) -> tuple:
    """(mu, swap): the branch measure of P, or, where only the product with
    its factors exchanged has a closed-form branch family, that product's
    measure with swap set.  Its level set is the transpose of P's, so P's
    Clark measure is its push-forward under (z1, z2) -> (z2, z1)."""
    try:
        return product_branch_measure(P, alpha, K=K), False
    except UnsupportedFunctionError:
        return product_branch_measure(ProductInner(P.psi, P.phi), alpha, K=K), True


def _cmd_product(spec: CommandSpec) -> int:
    P = _load_product(spec.input)
    mu, swap = _compute(lambda: _product_branches(P, _alpha_of(spec.alpha), spec.K))
    return _emit_measure(mu, spec, swap=swap)


def _cmd_rif(spec: CommandSpec) -> int:
    R = _load_rif(spec.input)
    mu = _compute(lambda: rif_clark_measure(R, _alpha_of(spec.alpha)))
    extra = {
        "singularities": [[p.theta, q.theta] for p, q in singularities(R)],
        "exceptional_nu": [a.nu for a in exceptional_values(R)],
    }
    return _emit_measure(mu, spec, extra)


def _cmd_verify(spec: CommandSpec) -> int:
    alpha = _alpha_of(spec.alpha)
    grid = QuadratureGrid(spec.N)
    support, fourier, bounds = (), (), {}
    if spec.input_kind == "embed":
        phi = _load_inner(spec.input)
        rule = embedding_map(phi, spec.d)
        dim = spec.d
        if dim == 2:
            mu = _compute(lambda: embed_clark2d(phi, alpha, K=spec.K))
            integrate = measure_integrator(mu, grid)
            base_rel, count = EMBED_BASE_REL, 100
            fourier = _compute(lambda: fourier_rp_check(mu, _FOURIER_KMAX, grid))
        else:
            em = _compute(lambda: embed_clark_nd(phi, alpha, dim, K=spec.K))
            mu = em
            integrate = embed_integrator(em, grid)
            base_rel, count = PRODUCT_BASE_REL, 20
        # No support section: far out in the atom family the boundary
        # phase is so steep that sampling it checks conditioning, not
        # support.  Identity + mass + Fourier carry the content.
    elif spec.input_kind == "product":
        P = _load_product(spec.input)
        rule = product_map(P)
        mu = None
        # Branch graphs of a singular fiber defeat grid quadrature near the
        # fiber atom; the product path integrates the monomials instead, on
        # the one fiber the identity points use.
        fiber = _compute(lambda: _product_fiber(P, alpha, grid, spec.K))
        fourier = _compute(lambda: _fiber_fourier_entries(fiber, _FOURIER_KMAX))
        integrate = _fiber_integrator(fiber)
        base_rel, dim, count = PRODUCT_BASE_REL, 2, 100
        window = min(_SUPPORT_WINDOW_CAP, spec.K)
        branches = None
        if window >= 2:
            try:
                branches, swap = _product_branches(P, alpha, window)
            except UnsupportedFunctionError:
                pass
        if branches is not None:
            # a swapped family is checked on the transposed product Q
            Q = ProductInner(P.psi, P.phi) if swap else P
            exempt = [(xi, chi)
                      for xi, _ in Q.phi.singular_atoms
                      for chi, _ in Q.psi.singular_atoms]
            support = _compute(lambda: support_inclusion_check(
                branches, product_boundary_map(Q), alpha, exemptions=exempt))
            if swap:
                support = tuple(replace(s, point=s.point[::-1]) for s in support)
    else:
        R = _load_rif(spec.input)
        rule = rif_map(R)
        alpha, _ = _compute(lambda: _snap_exceptional(R, alpha))  # the level mu is built at
        mu = _compute(lambda: rif_clark_measure(R, alpha))
        integrate = _recording(measure_integrator(mu, grid), bounds)
        base_rel, dim, count = RIF_BASE_REL, 2, 100
        support = _compute(lambda: support_inclusion_check(
            mu, rif_boundary_map(R), alpha, exemptions=singularities(R)))
        fourier = _compute(lambda: fourier_rp_check(mu, _FOURIER_KMAX, grid))

    points = sample_test_points(dim, count)
    base = _compute(lambda: poisson_identity_check(
        mu, rule, alpha, points, base_rel=base_rel, integrate=integrate,
        seed=DEFAULT_SEED))
    mass = _compute(lambda: total_mass_check(
        mu, rule, alpha, base_abs=_MASS_BASE_ABS, integrate=integrate, dimension=dim))
    _require_resolved(base.identity_residuals, mass, bounds, base_rel)
    report = VerificationReport(
        identity_residuals=base.identity_residuals,
        mass=mass,
        fourier=fourier,
        support=support,
        tolerances={
            "identity_base_rel": base_rel,
            "mass_base_abs": _MASS_BASE_ABS,
            "support_tol": SUPPORT_TOL,
            "fourier_base_tol": FOURIER_BASE_TOL,
        },
        seed=DEFAULT_SEED,
    )
    _emit(_json_text(report.to_json_dict()), spec.output)
    if report.passed:
        return 0
    _emit_error("verification", 3, "verification failed")
    return 3


def _recording(integrate, bounds: dict):
    """integrate, recording each point's error bound in bounds."""

    def recorded(z):
        res = integrate(z)
        bounds[tuple(complex(c) for c in z)] = res.error_bound
        return res

    return recorded


def _require_resolved(residuals, mass, bounds: dict, base_rel: float) -> None:
    """Raise UnresolvedError where a recorded error bound exceeds its base
    tolerance: base_rel times the right-hand side at an identity point,
    _MASS_BASE_ABS at the origin for the mass."""
    for r in residuals:
        if not bounds.get(r.z, 0.0) <= base_rel * r.rhs:
            raise UnresolvedError(f"identity point {list(map(str, r.z))}: error bound "
                                  f"{bounds[r.z] / r.rhs:.3e} relative exceeds {base_rel:g}")
    origin = (0j, 0j)
    if not bounds.get(origin, 0.0) <= _MASS_BASE_ABS:
        raise UnresolvedError(f"mass: error bound {bounds[origin]:.3e} exceeds {_MASS_BASE_ABS:g}")


def _cmd_plot(spec: CommandSpec) -> int:
    if spec.input_kind == "rif":
        R = _load_rif(spec.input)
        build = lambda alpha: (rif_clark_measure(R, alpha), False)
    elif spec.input_kind == "product":
        P = _load_product(spec.input)
        build = lambda alpha: _product_branches(P, alpha, spec.K)
    else:
        phi = _load_inner(spec.input)
        build = lambda alpha: (embed_clark2d(phi, alpha, K=spec.K), False)

    thetas = _grid_angles(spec.N)
    groups, flat = [], []
    for j, nu in enumerate(spec.alpha_list):
        mu, swap = _compute(lambda: build(_alpha_of(nu)))
        components = _measure_components(mu, thetas, prefix=f"alpha{j}:", swap=swap)
        groups.append((f"alpha{j}", _PALETTE[j % len(_PALETTE)], components))
        flat.extend(components)

    base = spec.output if spec.output is not None else Path(spec.input).stem + "_levels"
    csv_path, svg_path = f"{base}.csv", f"{base}.svg"
    Path(csv_path).write_text(_csv_text(thetas, flat), encoding="utf-8")
    Path(svg_path).write_text(_svg_text(thetas, groups), encoding="utf-8")
    sys.stdout.write(_json_text({"csv": csv_path, "svg": svg_path}))
    return 0


_HANDLERS = {
    "eval": _cmd_eval,
    "measure1d": _cmd_measure1d,
    "embed": _cmd_embed,
    "product": _cmd_product,
    "rif": _cmd_rif,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def run(spec: CommandSpec) -> int:
    """Execute one parsed invocation; returns the process exit code."""
    try:
        return _HANDLERS[spec.subcommand](spec)
    except SchemaError as exc:
        _emit_error("schema", 1, exc)
        return 1
    except ComputationError as exc:
        _emit_error(exc.kind, 2, exc)
        return 2


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SchemaError(message)


def _add_source_group(p, kinds):
    group = p.add_mutually_exclusive_group(required=True)
    if "inner" in kinds:
        group.add_argument("--input", metavar="PATH",
                           help="one-variable inner function spec")
    if "embed" in kinds:
        group.add_argument("--embed", metavar="PATH",
                           help="one-variable spec, embedded as phi(z_1 ... z_d)")
    if "product" in kinds:
        group.add_argument("--product", metavar="PATH", help="product spec {phi, psi}")
    if "rif" in kinds:
        group.add_argument("--rif", metavar="PATH", help="RIF spec {p1, p2, n}")


def _picked_source(ns, kinds):
    for flag, kind in (("input", "inner"), ("embed", "embed"),
                       ("product", "product"), ("rif", "rif")):
        if kind in kinds and getattr(ns, flag, None):
            return kind, getattr(ns, flag)
    raise SchemaError("an input spec is required")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="clark", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate a function at an interior point")
    _add_source_group(p, ("inner", "embed", "product", "rif"))
    p.add_argument("--d", type=int, default=2, help="embedding dimension")
    p.add_argument("--z", required=True,
                   help="point as JSON: [re, im] or [[re, im], ...]")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("measure1d", help="discrete 1D Clark measure")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--alpha", required=True, type=float, help="angle nu of alpha = e^{i nu}")
    p.add_argument("--K", type=int, help="atom truncation (default 10000)")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("embed", help="antidiagonal measure of phi(z_1 ... z_d)")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--K", type=int, help="atom truncation (json default 10000, curves 50)")
    p.add_argument("--N", type=int, help="sampling density (default 4096)")
    p.add_argument("--format", choices=_FORMATS, default="json")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("product", help="branch-graph measure of phi(z_1) psi(z_2)")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--K", type=int, help="branch half-window (default 50)")
    p.add_argument("--N", type=int)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("rif", help="level-curve measure of a bidegree-(n, 1) RIF")
    p.add_argument("--input", required=True, metavar="PATH")
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--N", type=int)
    p.add_argument("--format", choices=_FORMATS, default="csv")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("verify", help="verification report; exit 0 iff it passes")
    _add_source_group(p, ("embed", "product", "rif"))
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--N", type=int, help="quadrature grid (default 4096); a RIF's identity "
                   "points and mass are residue sums and do not use it")
    p.add_argument("--K", type=int,
                   help="truncation (embed atoms default 10000, product layers 1000)")
    p.add_argument("--output", metavar="PATH")

    p = sub.add_parser("plot", help="level-curve CSV + SVG, one color class per alpha")
    _add_source_group(p, ("embed", "product", "rif"))
    alpha_group = p.add_mutually_exclusive_group(required=True)
    alpha_group.add_argument("--alpha", type=float)
    alpha_group.add_argument("--alpha-list", metavar="NU1,NU2,...")
    p.add_argument("--N", type=int, help="sampling density (default 1024)")
    p.add_argument("--K", type=int,
                   help="truncation (embed atoms default 50, product window 8)")
    p.add_argument("--output", metavar="BASE", help="writes BASE.csv and BASE.svg")

    return parser


def _parse_point(raw: str, arity: int):
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"--z is not valid JSON: {exc}") from exc

    def pair(entry):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                           for v in entry)):
            raise SchemaError("--z coordinates must be [re, im] pairs")
        return complex(entry[0], entry[1])

    if arity == 1:
        return (pair(data),)
    if not isinstance(data, list) or len(data) != arity:
        raise SchemaError(f"--z must list {arity} coordinates")
    return tuple(pair(entry) for entry in data)


def _parse_alpha_list(ns) -> tuple:
    if ns.alpha is not None:
        return (float(ns.alpha),)
    raw = ns.alpha_list
    try:
        values = tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise SchemaError(f"--alpha-list must be comma-separated angles: {exc}") from exc
    if not values:
        raise SchemaError("--alpha-list is empty")
    return values


def _default_K(sub: str, kind: str, fmt: str) -> int:
    if sub == "plot":
        return 8 if kind == "product" else 50
    if sub == "embed":
        return 10000 if fmt == "json" else 50
    if sub == "product":
        return 50
    if sub == "verify":
        return 10000 if kind == "embed" else 1000
    return 10000


def parse_args(argv=None) -> CommandSpec:
    ns = build_parser().parse_args(argv)
    sub = ns.subcommand
    if sub == "eval":
        kind, path = _picked_source(ns, ("inner", "embed", "product", "rif"))
        arity = {"inner": 1, "embed": ns.d, "product": 2, "rif": 2}[kind]
        return CommandSpec(subcommand=sub, input=path, input_kind=kind, d=ns.d,
                           z=_parse_point(ns.z, arity), output=ns.output)
    if sub in ("verify", "plot"):
        kind, path = _picked_source(ns, ("embed", "product", "rif"))
    else:
        kind, path = {"measure1d": "inner", "embed": "embed",
                      "product": "product", "rif": "rif"}[sub], ns.input
    fmt = getattr(ns, "format", "json")
    n = ns.N if getattr(ns, "N", None) is not None else (1024 if sub == "plot" else 4096)
    k = ns.K if getattr(ns, "K", None) is not None else _default_K(sub, kind, fmt)
    common = dict(subcommand=sub, input=path, input_kind=kind, N=n, K=k,
                  output=ns.output, format=fmt, d=getattr(ns, "d", 2))
    if sub == "plot":
        return CommandSpec(alpha_list=_parse_alpha_list(ns), **common)
    return CommandSpec(alpha=float(ns.alpha), **common)


def main(argv=None) -> int:
    try:
        spec = parse_args(argv)
    except SchemaError as exc:
        _emit_error("schema", 1, exc)
        return 1
    try:
        return run(spec)
    except BrokenPipeError:
        # the consumer closed stdout early (head, less); not our error, and
        # redirecting the descriptor keeps the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
