"""The benchmark's workloads: their inputs, operations and output checks.

Each workload builds its inputs from the seed, then exposes two things.
Its cycle is the ordered operations the loop in worker.py repeats, waiting
for each before starting the next (a closed loop with one client); the
cycle interleaves kinds so that each is sampled across the whole run.
Its pass weights are how many operations of each kind a named caller makes
(`clark verify`, `clark plot`, acceptance criterion 02).  The reduction in
metrics.py weights the per-kind costs by them, so the schedule of the
cycle does not set the mix of the reported figures.

Every operation times only its calls into the library, through
Context.call, and then checks the outputs itself: identity residuals
against a right-hand side it recomputes, Fourier entries and support samples
against their own stated tolerances, plot files by their rows.  The
library's own pass flags are never read.
"""

from __future__ import annotations

import io
import json
import math
import time
from collections import Counter, namedtuple
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from clark_measures import (
    DiskPoint,
    InnerFunction1D,
    Poly1,
    ProductInner,
    QuadratureGrid,
    RIF_n1,
    TorusPoint,
    UnimodularConstant,
    boundary_values_array,
    clark_measure1d,
    embed_clark2d,
    embed_clark_nd,
    embed_integrator,
    embedding_boundary_map,
    embedding_map,
    eval_inner,
    exceptional_values,
    fourier_rp_check,
    herglotz_rhs,
    measure_integrator,
    product_boundary_map,
    product_branch_measure,
    product_fourier_rp_check,
    product_integrator,
    product_map,
    rif_boundary_map,
    rif_clark_measure,
    rif_map,
    sample_test_points,
    singularities,
    support_inclusion_check,
    total_mass_check,
)
from clark_measures.cli import main as cli_main
from clark_measures.verify import (
    EMBED_BASE_REL,
    FOURIER_BASE_TOL,
    PRODUCT_BASE_REL,
    RIF_BASE_REL,
    SUPPORT_TOL,
)

TWO_PI = 2.0 * math.pi

# parameters of `clark verify` / `clark plot` and the acceptance tests
GRID_N = 4096
FINE_GRID_N = 32768
EMBED_K = 10000
EMBED_ND_K = 2000
PRODUCT_K = 1000
SUPPORT_WINDOW = 200
FOURIER_KMAX = 8
PRODUCT_FOURIER_KMAX = 1     # 2 entries per call; see ProductFiber
MASS_BASE_ABS = 1e-8
PLOT_N = 1024
PLOT_EMBED_ATOMS = 2 * 50 + 1      # `clark plot --embed` default K = 50
PLOT_EXPEXP_BRANCHES = 2 * 8 + 1   # `clark plot --product` default K = 8
VERIFY_POINTS = 100          # identity points of `clark verify`, d = 2
VERIFY_POINTS_ND = 20        # identity points of `clark verify`, d >= 3
RIF_ALPHA_LIST = "0,0.785398,1.570796,3.141593"

POINT_POOL = 4096            # test points per dimension, reused cyclically
PLOT_SAMPLE_ROWS = 64        # CSV rows mapped back through the boundary map
MEASURE1D_FUNCTIONS = 20     # criterion 02's draw count
MEASURE1D_ALPHAS = tuple(0.15 + TWO_PI * j / 8 for j in range(8))
MEASURE1D_MASS_TOL = 1e-12

EXP = InnerFunction1D(singular_atoms=((TorusPoint(0.0), 1.0),))
BLASCHKE = InnerFunction1D(monomial_power=1, blaschke_zeros=(DiskPoint(0.5j),))
EXP_EXP = ProductInner(EXP, EXP)
BLASCHKE_EXP = ProductInner(EXP, BLASCHKE)
EXAMPLE_RIF = RIF_n1(p1=Poly1((4, -3, 1)), p2=Poly1((-1, -1)), n=2)
ONE = UnimodularConstant.one()
PI_4 = UnimodularConstant.from_nu(math.pi / 4)

EXP_SPEC = {"singular_atoms": [{"angle": 0.0, "mass": 1.0}]}
PLOT_SPECS = {
    "rif.json": {"p1": [[4, 0], [-3, 0], [1, 0]], "p2": [[-1, 0], [-1, 0]], "n": 2},
    "be.json": {"phi": EXP_SPEC, "psi": {"monomial": 1, "blaschke_zeros": [[0.0, 0.5]]}},
    "ee.json": {"phi": EXP_SPEC, "psi": EXP_SPEC},
    "exp.json": EXP_SPEC,
}
CSV_HEADER = "component_id,theta1,theta2,weight"

Op = namedtuple("Op", "kind group run")


class CheckFailed(Exception):
    """An output of the library failed one of the benchmark's checks."""


class Context:
    """Per-process state shared by a workload's operations."""

    def __init__(self, seed: int, tracer, out_dir: Path):
        self.seed = seed
        self.tracer = tracer
        self.out_dir = out_dir
        self.checks = {}
        self.counters = {}
        self.quality = []        # [relative error, margin] per identity residual
        self.bound_misses = []   # [kind, relative error, relative tolerance]
        self.op_seconds = 0.0

    def call(self, layer, fn, *args, **kwargs):
        """One timed call into the library, as a span of the given layer."""
        with self.tracer.span(layer):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.op_seconds += time.perf_counter() - start
        return out

    def check(self, name, ok, detail=""):
        entry = self.checks.setdefault(name, [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1
            raise CheckFailed(f"{name}: {detail}")

    def count(self, name, value):
        self.counters[name] = self.counters.get(name, 0) + value

    def residual(self, kind, error, tolerance, rhs, known_defect=False):
        """Record one identity residual and check it against its tolerance.

        Where the library's error bound is known not to hold (known_defect),
        a residual over its tolerance is recorded as a bound miss instead of
        failing the operation; its error still counts in the worst error.
        """
        self.quality.append([error / rhs, (tolerance - error) / tolerance])
        if known_defect and error > tolerance:
            self.bound_misses.append([kind, error / rhs, tolerance / rhs])
            return
        self.check("identity.residual", error <= tolerance,
                   f"error {error:.3e} > tolerance {tolerance:.3e}")


class PointStream:
    """Interior test points of one dimension, drawn once from the seed."""

    def __init__(self, d: int, seed: int):
        self.points = sample_test_points(d, POINT_POOL, seed)
        self.cursor = 0

    def next(self):
        z = self.points[self.cursor % len(self.points)]
        self.cursor += 1
        return z

    def reset(self):
        self.cursor = 0


def random_blaschke(rng):
    """Criterion 02's draw: degree 1-6, zeros inside |z| < 0.85."""
    n = int(rng.integers(1, 7))
    m = int(rng.integers(0, n + 1))
    zeros = tuple(
        DiskPoint(0.85 * math.sqrt(rng.uniform(0.05, 1.0))
                  * np.exp(1j * rng.uniform(0.0, TWO_PI)))
        for _ in range(n - m)
    )
    factor = UnimodularConstant.from_nu(rng.uniform(0.0, TWO_PI))
    phi = InnerFunction1D(unimodular_factor=factor, monomial_power=m, blaschke_zeros=zeros)
    return phi, n


def _as_pair(pair):
    return tuple(p.value if isinstance(p, TorusPoint) else complex(p) for p in pair)


def _near(point, centres, radius):
    return any(max(abs(point[0] - c[0]), abs(point[1] - c[1])) <= radius for c in centres)


class Workload:
    """Subclasses define setup, warmup, cycle and pass_weights (kind -> how
    many operations of that kind one pass of the named caller makes)."""

    name = ""
    # output checks every run of the workload makes
    checks = ()

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.streams = []
        self.samplers = []

    def stream(self, d):
        s = PointStream(d, self.ctx.seed)
        self.streams.append(s)
        return s

    def row_sampler(self):
        """A one-element holder of a seeded generator, rewound by reset."""
        holder = [np.random.default_rng(self.ctx.seed)]
        self.samplers.append(holder)
        return holder

    def reset(self):
        """Rewind the input streams, so a replay sees the same inputs."""
        for s in self.streams:
            s.reset()
        for holder in self.samplers:
            holder[0] = np.random.default_rng(self.ctx.seed)

    # -- operations ------------------------------------------------------

    def identity_op(self, kind, layer, integrate, rule, alpha, points, base_rel, rhs_layer,
                    known_defect=False):
        ctx = self.ctx

        def run():
            z = points.next()
            res = ctx.call(layer, integrate, z)
            rhs = ctx.call(rhs_layer, herglotz_rhs, rule, alpha, z)
            bound = float(res.error_bound)
            ctx.check("identity.bound", math.isfinite(bound) and bound >= 0.0,
                      f"error bound {bound}")
            error = abs(float(np.real(res.value)) - rhs)
            ctx.residual(kind, error, base_rel * rhs + bound, rhs, known_defect)
            return 1

        return Op(kind, "identity", run)

    def mass_op(self, kind, mu, integrate, rule, alpha, dim, rhs_layer):
        ctx = self.ctx
        origin = (0j,) * dim

        def run():
            mass = ctx.call("verify.mass", total_mass_check, mu, rule, alpha,
                            base_abs=MASS_BASE_ABS, integrate=integrate, dimension=dim)
            rhs = ctx.call(rhs_layer, herglotz_rhs, rule, alpha, origin)
            ctx.check("mass.expected", abs(mass.expected - rhs) <= 1e-12 * rhs,
                      f"expected {mass.expected} vs recomputed {rhs}")
            ctx.check("mass.tolerance",
                      math.isfinite(mass.tolerance) and mass.tolerance >= MASS_BASE_ABS,
                      f"tolerance {mass.tolerance}")
            ctx.residual(kind, abs(mass.computed - rhs), mass.tolerance, rhs)
            return 1

        return Op(kind, "identity", run)

    def fourier_op(self, kind, layer, check_fn, args, kwargs, kmax):
        ctx = self.ctx
        expected = {(k1, k2)
                    for k1 in range(-kmax, kmax + 1)
                    for k2 in range(-kmax, kmax + 1) if k1 * k2 < 0}

        def run():
            entries = ctx.call(layer, check_fn, *args, **kwargs)
            ks = [tuple(int(v) for v in e.k) for e in entries]
            ctx.check("fourier.entries", len(ks) == len(expected) and set(ks) == expected,
                      f"{len(ks)} entries, expected {len(expected)}")
            bad = [e.k for e in entries
                   if not (math.isfinite(e.tolerance) and e.tolerance >= FOURIER_BASE_TOL
                           and e.modulus <= e.tolerance)]
            ctx.check("fourier.modulus", not bad, f"entries over tolerance: {bad[:4]}")
            return len(entries)

        return Op(kind, "fourier", run)

    def support_op(self, kind, build, bmap, alpha, exemptions):
        ctx = self.ctx
        centres = [_as_pair(e) for e in exemptions]

        def run():
            mu = build()
            samples = ctx.call("verify.support", support_inclusion_check, mu, bmap, alpha,
                               exemptions=exemptions)
            ctx.check("support.samples", len(samples) > 0, "no support samples")
            bad, exempt, undefined = 0, 0, 0
            for s in samples:
                if s.exempt:
                    exempt += 1
                    undefined += s.deviation is None
                    # an exemption must be a declared point, within tolerance
                    bad += not _near(_as_pair(s.point), centres, s.tolerance)
                elif not (s.tolerance <= SUPPORT_TOL and s.deviation is not None
                          and s.deviation <= s.tolerance):
                    bad += 1
            ctx.count("verify.support.samples", len(samples))
            ctx.count("verify.support.exempt", exempt)
            ctx.count("verify.support.undefined", undefined)
            ctx.check("support.deviation", bad == 0,
                      f"{bad} of {len(samples)} samples off the level set")
            return len(samples)

        return Op(kind, "support", run)

    def plot_op(self, kind, layer, argv, name, expect):
        """`clark plot` through cli.main, then criterion 10's file checks.

        expect holds the family targets, the boundary map, the exemptions
        and their radius, and the row counts the files must have.
        """
        ctx = self.ctx
        base = ctx.out_dir / name
        argv = ["plot", *argv, "--output", str(base)]
        rng = self.row_sampler()

        def run():
            out = io.StringIO()
            with redirect_stdout(out):
                code = ctx.call(layer, cli_main, argv)
            ctx.check("plot.exit", code == 0, f"exit code {code}")
            manifest = json.loads(out.getvalue())
            csv_path, svg_path = Path(manifest["csv"]), Path(manifest["svg"])
            ctx.check("plot.manifest", (csv_path, svg_path) == (
                Path(f"{base}.csv"), Path(f"{base}.svg")), f"manifest {manifest}")
            csv_text = csv_path.read_text(encoding="utf-8")
            svg_text = svg_path.read_text(encoding="utf-8")
            ctx.count("cli.plot.bytes", csv_path.stat().st_size + svg_path.stat().st_size)
            lines = csv_text.splitlines()
            ctx.check("plot.header", lines[0] == CSV_HEADER, f"header {lines[0]!r}")
            rows = lines[1:]
            self._check_plot_rows(rows, expect)
            self._check_plot_samples(rows, expect, rng[0])
            families = len(expect["targets"])
            ctx.check("plot.svg",
                      svg_text.startswith("<?xml") and svg_text.rstrip().endswith("</svg>")
                      and all(f'<g class="alpha{j}"' in svg_text for j in range(families))
                      and "<polyline" in svg_text,
                      "svg structure")
            return families

        return Op(kind, "plot", run)

    def _check_plot_rows(self, rows, expect):
        counts = Counter(row[:row.find(",")] for row in rows)
        families = {cid.split(":")[0] for cid in counts}
        want = {f"alpha{j}" for j in range(len(expect["targets"]))}
        self.ctx.check("plot.families", families == want, f"families {sorted(families)}")
        exact = expect.get("exact_rows", {})
        bad = [cid for cid, n in exact.items() if counts.get(cid) != n]
        bad += [cid for cid, n in counts.items() if n > PLOT_N]
        if expect.get("components", len(counts)) != len(counts):
            bad.append(f"{len(counts)} components")
        self.ctx.check("plot.rows", not bad and len(rows) >= expect["min_rows"],
                       f"{len(rows)} rows, mismatched components {bad[:4]}")

    def _check_plot_samples(self, rows, expect, rng):
        """Up to PLOT_SAMPLE_ROWS random positive-weight rows, mapped back."""
        worst, picked, checked = 0.0, 0, 0
        for i in rng.permutation(len(rows)):
            cid, t1, t2, w = rows[i].split(",")
            if float(w) <= 0.0:
                continue
            picked += 1
            p = (complex(np.exp(1j * float(t1))), complex(np.exp(1j * float(t2))))
            if not _near(p, expect["exempt"], expect["radius"]):
                value = expect["map"](p)
                target = expect["targets"][int(cid.split(":")[0][5:])]
                worst = max(worst, math.inf if value is None else abs(complex(value) - target))
                checked += 1
            if picked == PLOT_SAMPLE_ROWS:
                break
        self.ctx.check("plot.level_set", checked > 0 and worst <= SUPPORT_TOL,
                       f"{checked} rows checked, worst deviation {worst:.3e}")

    def measure1d_op(self, kind, phi, degree, nu):
        ctx = self.ctx
        alpha = UnimodularConstant.from_nu(nu)

        def run():
            mu = ctx.call("clark1d.measure1d", clark_measure1d, phi, alpha)
            ctx.count("clark1d.atoms", len(mu.atoms))
            ctx.check("measure1d.atoms", len(mu.atoms) == degree and mu.tail_bound == 0.0,
                      f"{len(mu.atoms)} atoms for degree {degree}")
            phi0 = eval_inner(phi, 0.0)
            expected = (1.0 - abs(phi0) ** 2) / abs(alpha.alpha - phi0) ** 2
            total = sum(w for _, w in mu.atoms)
            ctx.check("measure1d.mass", abs(total - expected) <= MEASURE1D_MASS_TOL,
                      f"mass {total} vs {expected}")
            values = boundary_values_array(phi, np.array([p.theta for p, _ in mu.atoms]))
            ctx.check("measure1d.level_set",
                      float(np.max(np.abs(values - alpha.alpha))) <= SUPPORT_TOL,
                      "atom off the level set")
            return 1

        return Op(kind, "measure1d", run)


class EmbedAntidiagonal(Workload):
    """The exp inner function embedded as phi(z1 z2) and phi(z1 z2 z3)."""

    name = "embed-antidiagonal"
    checks = ("embed.atoms", "identity.bound", "identity.residual", "mass.expected",
              "mass.tolerance", "fourier.entries", "fourier.modulus")

    def setup(self):
        ctx = self.ctx
        grid = QuadratureGrid(GRID_N)
        mu2 = ctx.call("embed.build", embed_clark2d, EXP, ONE, K=EMBED_K)
        em3 = ctx.call("embed.build", embed_clark_nd, EXP, ONE, 3, K=EMBED_ND_K)
        atoms2, atoms3 = len(mu2.curves), len(em3.base.atoms)
        ctx.count("embed.atoms", atoms2 + atoms3)
        ctx.check("embed.atoms", (atoms2, atoms3) == (2 * EMBED_K + 1, 2 * EMBED_ND_K + 1),
                  f"{atoms2} and {atoms3} atoms")
        integrate2, integrate3 = measure_integrator(mu2, grid), embed_integrator(em3, grid)
        rule2, rule3 = embedding_map(EXP, 2), embedding_map(EXP, 3)
        self.d2 = self.identity_op("identity.d2", "verify.antidiagonal", integrate2, rule2,
                                   ONE, self.stream(2), EMBED_BASE_REL, "inner1d.rhs")
        self.d3 = self.identity_op("identity.d3", "verify.embed_nd", integrate3, rule3, ONE,
                                   self.stream(3), PRODUCT_BASE_REL, "inner1d.rhs")
        self.mass2 = self.mass_op("mass.d2", mu2, integrate2, rule2, ONE, 2, "inner1d.rhs")
        self.mass3 = self.mass_op("mass.d3", em3, integrate3, rule3, ONE, 3, "inner1d.rhs")
        self.fourier = self.fourier_op("fourier.d2", "verify.fourier", fourier_rp_check,
                                       (mu2, FOURIER_KMAX, grid), {}, FOURIER_KMAX)

    def warmup(self):
        return [self.d2, self.d3, self.fourier]

    def cycle(self):
        # d=2 points are 100 of the pass's 122 residuals, so they get most
        # samples; a Fourier check is short, so one follows each d=2 point
        d2f = [self.d2, self.fourier]
        return d2f * 4 + [self.mass2, self.d3] + d2f * 4 + [self.mass3, self.d3]

    def pass_weights(self):
        # `clark verify --embed` at d = 2 (K = 10000) and at d = 3 (K = 2000)
        return {"identity.d2": VERIFY_POINTS, "mass.d2": 1, "fourier.d2": 1,
                "identity.d3": VERIFY_POINTS_ND, "mass.d3": 1}


class ProductFiber(Workload):
    """exp x exp at alpha = 1 and exp x Blaschke at alpha = e^{i pi/4}."""

    name = "product-fiber"
    checks = ("identity.bound", "identity.residual", "mass.expected", "mass.tolerance",
              "fourier.entries", "fourier.modulus", "support.samples", "support.deviation")
    # The Fourier check runs at kmax = 1 (2 entries) rather than the kmax = 8
    # (72 entries) of `clark verify`: every entry is one fiber quadrature,
    # about 1 s for exp x Blaschke, so a run holds several calls of each kind.

    def setup(self):
        ctx = self.ctx
        grid = QuadratureGrid(GRID_N)
        points = self.stream(2)
        ops = {}
        for tag, P, alpha, layer in (("ee", EXP_EXP, ONE, "verify.product_ee"),
                                     ("be", BLASCHKE_EXP, PI_4, "verify.product_be")):
            integrate = product_integrator(P, alpha, grid, K=PRODUCT_K)
            rule = product_map(P)
            exempt = [(xi, chi) for xi, _ in P.phi.singular_atoms
                      for chi, _ in P.psi.singular_atoms]

            def branches(P=P, alpha=alpha):
                mu = ctx.call("product2d.branches", product_branch_measure, P, alpha,
                              K=SUPPORT_WINDOW)
                ctx.count("product2d.branches.count", len(mu.curves))
                return mu

            ops[tag] = (
                self.identity_op(f"identity.{tag}", layer, integrate, rule, alpha, points,
                                 PRODUCT_BASE_REL, "inner1d.rhs"),
                self.mass_op(f"mass.{tag}", None, integrate, rule, alpha, 2, "inner1d.rhs"),
                self.fourier_op(f"fourier.{tag}", "verify.product_fourier",
                                product_fourier_rp_check, (P, alpha, PRODUCT_FOURIER_KMAX, grid),
                                {"K": PRODUCT_K}, PRODUCT_FOURIER_KMAX),
                self.support_op(f"support.{tag}", branches, product_boundary_map(P), alpha,
                                exempt),
            )
        self.ops = ops

    def warmup(self):
        (ee, _, f_ee, sup_ee), (be, _, f_be, sup_be) = self.ops["ee"], self.ops["be"]
        return [ee, be, f_ee, f_be, sup_ee, sup_be]

    def cycle(self):
        (ee, mass_ee, f_ee, sup_ee), (be, mass_be, f_be, sup_be) = self.ops["ee"], self.ops["be"]
        return [f_ee, ee, be, mass_ee, ee, sup_ee, f_be, ee, be, mass_be, ee, sup_be]

    def pass_weights(self):
        # `clark verify --product` (K = 1000) for each product, with the
        # Fourier section at kmax = 1
        return {f"{op}.{tag}": VERIFY_POINTS if op == "identity" else 1
                for tag in self.ops for op in ("identity", "mass", "fourier", "support")}


class RifPlot(Workload):
    """The bidegree-(2,1) RIF at four alphas, `clark plot` and 1D measures."""

    name = "rif-plot"
    checks = ("identity.bound", "identity.residual", "mass.expected", "mass.tolerance",
              "fourier.entries", "fourier.modulus", "support.samples", "support.deviation",
              "plot.exit", "plot.manifest", "plot.header", "plot.families", "plot.rows",
              "plot.level_set", "plot.svg", "measure1d.atoms", "measure1d.mass",
              "measure1d.level_set")
    NUS = (0.0, math.pi / 4, math.pi / 2, math.pi)
    # At alpha = e^{i pi/2} the N = 4096 error bound of measure_integrator
    # misses the true error at about one test point in 2048 (|z2| near
    # 0.95; test_smoke.py pins one).  Those points are timed like the rest;
    # a miss is recorded as a bound miss, not as a failed operation.
    COARSE_GRID_DEFECT = (math.pi / 2,)

    def setup(self):
        ctx = self.ctx
        grid, fine = QuadratureGrid(GRID_N), QuadratureGrid(FINE_GRID_N)
        rule, bmap = rif_map(EXAMPLE_RIF), rif_boundary_map(EXAMPLE_RIF)
        sing = singularities(EXAMPLE_RIF)
        points = self.stream(2)
        self.coarse, self.per_alpha = [], []
        for i, nu in enumerate(self.NUS):
            alpha = UnimodularConstant.from_nu(nu)
            mu = ctx.call("rif2d.build", rif_clark_measure, EXAMPLE_RIF, alpha)
            ctx.count("rif2d.lines", len(mu.lines))
            integrate = measure_integrator(mu, grid)
            self.coarse.append(self.identity_op(
                f"identity.n4096.a{i}", "verify.graph_line.n4096", integrate, rule, alpha,
                points, RIF_BASE_REL, "rif2d.rhs", known_defect=nu in self.COARSE_GRID_DEFECT))
            self.per_alpha.append((
                self.identity_op(f"identity.n32768.a{i}", "verify.graph_line.n32768",
                                 measure_integrator(mu, fine), rule, alpha, points,
                                 RIF_BASE_REL, "rif2d.rhs"),
                self.mass_op(f"mass.a{i}", mu, integrate, rule, alpha, 2, "rif2d.rhs"),
                self.fourier_op(f"fourier.a{i}", "verify.fourier", fourier_rp_check,
                                (mu, FOURIER_KMAX, grid), {}, FOURIER_KMAX),
                self.support_op(f"support.a{i}", lambda mu=mu: mu, bmap, alpha, sing),
            ))
        rng = np.random.default_rng(ctx.seed)
        draws = [random_blaschke(rng) for _ in range(MEASURE1D_FUNCTIONS)]
        self.measure1d = [[self.measure1d_op(f"measure1d.f{i}", phi, degree, nu)
                           for nu in MEASURE1D_ALPHAS]
                          for i, (phi, degree) in enumerate(draws)]
        self.plots = self._plot_ops(sing)

    def _plot_ops(self, sing):
        out = self.ctx.out_dir
        for name, spec in PLOT_SPECS.items():
            (out / name).write_text(json.dumps(spec), encoding="utf-8")
        exceptional = exceptional_values(EXAMPLE_RIF)

        def snapped(nu):
            # criterion 10: an exceptional alpha is the family's exact target
            for v in exceptional:
                if abs(math.remainder(nu - v.nu, TWO_PI)) <= 1e-6:
                    return v.alpha
            return complex(math.cos(nu), math.sin(nu))

        nus = [float(t) for t in RIF_ALPHA_LIST.split(",")]
        pi_4 = 0.785398
        return [
            self.plot_op("plot.rif", "cli.plot_rif",
                         ["--rif", str(out / "rif.json"), "--alpha-list", RIF_ALPHA_LIST],
                         "rif_levels",
                         {"targets": [snapped(nu) for nu in nus],
                          "map": rif_boundary_map(EXAMPLE_RIF),
                          "exempt": [_as_pair(p) for p in sing], "radius": 0.05,
                          "exact_rows": {"alpha3:line0": PLOT_N}, "min_rows": 5000}),
            self.plot_op("plot.be", "cli.plot_product",
                         ["--product", str(out / "be.json"), "--alpha", str(pi_4)], "be_levels",
                         {"targets": [complex(math.cos(pi_4), math.sin(pi_4))],
                          "map": product_boundary_map(BLASCHKE_EXP),
                          "exempt": [], "radius": 0.0, "min_rows": 2000}),
            self.plot_op("plot.ee", "cli.plot_product",
                         ["--product", str(out / "ee.json"), "--alpha", "0"], "ee_levels",
                         {"targets": [1.0 + 0j], "map": product_boundary_map(EXP_EXP),
                          "exempt": [(1.0 + 0j, 1.0 + 0j)], "radius": 1e-8,
                          "components": PLOT_EXPEXP_BRANCHES, "min_rows": 17000}),
            self.plot_op("plot.embed", "cli.plot_embed",
                         ["--embed", str(out / "exp.json"), "--alpha", "0"], "embed_levels",
                         {"targets": [1.0 + 0j], "map": embedding_boundary_map(EXP, 2),
                          # at K = 50 no atom lies within criterion 09's 1e-3
                          # exemption radius of the exp atom
                          "exempt": [], "radius": 0.0,
                          "components": PLOT_EMBED_ATOMS,
                          "exact_rows": {f"alpha0:curve{i}": PLOT_N
                                         for i in range(PLOT_EMBED_ATOMS)},
                          "min_rows": PLOT_EMBED_ATOMS * PLOT_N}),
        ]

    def warmup(self):
        id32, _, fourier, support = self.per_alpha[0]
        return [self.coarse[0], id32, fourier, support, self.measure1d[0][0], self.plots[0]]

    def cycle(self):
        ops = []
        # 20 rounds: every 1D function once, every alpha and plot kind 5 times
        for r in range(MEASURE1D_FUNCTIONS):
            ops += self.coarse * 2
            id32, mass, fourier, support = self.per_alpha[r % len(self.per_alpha)]
            ops += [id32, mass, fourier, support]
            ops += self.measure1d[r]
            ops.append(self.plots[r % len(self.plots)])
        return ops

    def pass_weights(self):
        # per alpha: `clark verify --rif` (N = 4096) and the identity points
        # of `clark verify --rif --N 32768`; `clark plot` once per family
        # kind; acceptance criterion 02's 20 Blaschke products at 8 alphas
        weights = {}
        for i in range(len(self.NUS)):
            weights.update({f"identity.n4096.a{i}": VERIFY_POINTS, f"mass.a{i}": 1,
                            f"fourier.a{i}": 1, f"support.a{i}": 1,
                            f"identity.n32768.a{i}": VERIFY_POINTS})
        weights.update({op.kind: 1 for op in self.plots})
        weights.update({f"measure1d.f{i}": len(MEASURE1D_ALPHAS)
                        for i in range(MEASURE1D_FUNCTIONS)})
        return weights


WORKLOADS = {w.name: w for w in (EmbedAntidiagonal, ProductFiber, RifPlot)}
