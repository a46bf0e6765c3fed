"""CLI behavior: flag parsing, artifacts, exit codes, output formats."""

import cmath
import json
import math
import os
import shlex
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from clark_measures import cli, rif2d
from clark_measures.cli import CommandSpec, SchemaError, main
from clark_measures.rif2d import w_alpha_values
from clark_measures.torus_core import (
    Antidiagonal,
    ClarkMeasure2D,
    CurveComponent,
    Graph,
    LineComponent,
    TorusPoint,
)
from clark_measures.verify import (
    SUPPORT_TOL,
    IdentityResidual,
    VerificationReport,
    product_boundary_map,
)

TWO_PI = 2.0 * math.pi

EXP_SPEC = {"singular_atoms": [{"angle": 0.0, "mass": 1.0}]}
BPAIR_SPEC = {"monomial": 1, "blaschke_zeros": [[0.0, 0.5]]}
TWO_ATOMS_SPEC = {"singular_atoms": [{"angle": 0.0, "mass": 1.0}, {"angle": 2.0, "mass": 1.0}]}


@pytest.fixture(scope="module")
def specs(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    contents = {
        "monomial1": {"monomial": 1},
        "exp": EXP_SPEC,
        "example36": {"p1": [[4, 0], [-3, 0], [1, 0]], "p2": [[-1, 0], [-1, 0]], "n": 2},
        "prod_expexp": {"phi": EXP_SPEC, "psi": EXP_SPEC},
        "prod_blaschke_exp": {"phi": EXP_SPEC, "psi": BPAIR_SPEC},
        "prod_pair_exp": {"phi": BPAIR_SPEC, "psi": EXP_SPEC},
        "prod_unsupported_phi": {"phi": TWO_ATOMS_SPEC, "psi": EXP_SPEC},
        "prod_unsupported_psi": {"phi": EXP_SPEC, "psi": TWO_ATOMS_SPEC},
        "infinite_mass": {"singular_atoms": [{"angle": 0.0, "mass": math.inf}]},
        "unknown_key": {"monomial": 1, "bogus": 2},
    }
    paths = {}
    for name, data in contents.items():
        p = root / f"{name}.json"
        p.write_text(json.dumps(data), encoding="utf-8")
        paths[name] = str(p)
    bad = root / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    paths["bad"] = str(bad)
    return paths


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def error_envelope(err):
    payload = json.loads(err.strip().splitlines()[-1])
    return payload["error"]


def csv_rows(text):
    lines = text.strip().splitlines()
    assert lines[0] == "component_id,theta1,theta2,weight"
    rows = []
    for line in lines[1:]:
        cid, t1, t2, w = line.split(",")
        rows.append((cid, float(t1), float(t2), float(w)))
    return rows


class TestCommandSpec:
    def test_rejects_bad_grid_sizes(self):
        for n in (0, 128, 1000, 4097):
            with pytest.raises(SchemaError):
                CommandSpec("rif", "f.json", "rif", alpha=0.0, N=n)

    def test_rejects_bad_truncation(self):
        with pytest.raises(SchemaError):
            CommandSpec("measure1d", "f.json", "inner", alpha=0.0, K=0)

    def test_rejects_bad_format(self):
        with pytest.raises(SchemaError):
            CommandSpec("rif", "f.json", "rif", alpha=0.0, format="pdf")

    def test_rejects_bad_subcommand_and_kind(self):
        with pytest.raises(SchemaError):
            CommandSpec("frobnicate", "f.json", "rif", alpha=0.0)
        with pytest.raises(SchemaError):
            CommandSpec("rif", "f.json", "polydisc", alpha=0.0)

    def test_accepts_valid_spec(self):
        spec = CommandSpec("measure1d", "f.json", "inner", alpha=0.5, N=256, K=1)
        assert spec.N == 256 and spec.K == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angles_and_points(self, bad):
        with pytest.raises(SchemaError, match="finite"):
            CommandSpec("rif", "f.json", "rif", alpha=bad)
        with pytest.raises(SchemaError, match="finite"):
            CommandSpec("plot", "f.json", "rif", alpha_list=(0.0, bad))
        for z in ((complex(bad, 0.0),), (0.1j, complex(0.0, bad))):
            with pytest.raises(SchemaError, match="finite"):
                CommandSpec("eval", "f.json", "rif", z=z)


class TestParsing:
    def test_no_subcommand_is_schema_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        env = error_envelope(err)
        assert env["kind"] == "schema" and env["code"] == 1

    def test_unknown_flag(self, capsys, specs):
        code, _, err = run_cli(capsys, "measure1d", "--input", specs["monomial1"],
                               "--alpha", "0", "--frob", "1")
        assert code == 1
        assert error_envelope(err)["kind"] == "schema"

    def test_conflicting_sources(self, capsys, specs):
        code, _, err = run_cli(capsys, "eval", "--input", specs["monomial1"],
                               "--rif", specs["example36"], "--z", "[0.1,0]")
        assert code == 1

    def test_invalid_grid_size_flag(self, capsys, specs):
        code, _, err = run_cli(capsys, "rif", "--input", specs["example36"],
                               "--alpha", "0", "--N", "1000")
        assert code == 1
        assert "power of two" in error_envelope(err)["message"]

    def test_missing_alpha(self, capsys, specs):
        code, _, _ = run_cli(capsys, "rif", "--input", specs["example36"])
        assert code == 1

    def test_malformed_alpha_list(self, capsys, specs):
        code, _, err = run_cli(capsys, "plot", "--rif", specs["example36"],
                               "--alpha-list", "0,zzz")
        assert code == 1
        assert error_envelope(err)["kind"] == "schema"

    def test_plot_requires_alpha(self, capsys, specs):
        code, _, _ = run_cli(capsys, "plot", "--rif", specs["example36"])
        assert code == 1

    @pytest.mark.parametrize("args", [
        ("verify", "--embed", "exp", "--alpha", "inf"),
        ("verify", "--embed", "exp", "--alpha", "nan"),
        ("embed", "--input", "exp", "--alpha", "inf"),
        ("plot", "--rif", "example36", "--alpha-list", "0,nan"),
        ("eval", "--input", "exp", "--z", "[NaN, 0]"),
        ("eval", "--rif", "example36", "--z", "[[0.1, 0], [0, Infinity]]"),
    ], ids=["verify-inf", "verify-nan", "embed-inf", "plot-nan", "eval-nan", "eval-inf"])
    def test_non_finite_input_is_schema_error(self, capsys, specs, args):
        args = [specs.get(a, a) for a in args]
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        env = error_envelope(err)
        assert env["kind"] == "schema" and "finite" in env["message"]

    @pytest.mark.parametrize("spec", ["prod_unsupported_phi", "prod_unsupported_psi"])
    @pytest.mark.parametrize("args", [
        ("verify", "--product", "{}", "--alpha", "0"),
        ("eval", "--product", "{}", "--z", "[[0.1,0],[0.2,0]]"),
        ("product", "--input", "{}", "--alpha", "0"),
    ], ids=["verify", "eval", "product"])
    def test_unsupported_product_factor_is_schema_error(self, capsys, specs, spec, args):
        # either factor is checked when the spec is read, in either position
        code, out, err = run_cli(capsys, *(a.format(specs[spec]) for a in args))
        assert code == 1 and out == ""
        env = error_envelope(err)
        assert env["kind"] == "schema" and env["code"] == 1
        assert "single singular atom" in env["message"]


class TestEval:
    def test_monomial_point(self, capsys, specs):
        code, out, _ = run_cli(capsys, "eval", "--input", specs["monomial1"],
                               "--z", "[0.3,0.2]")
        assert code == 0
        assert json.loads(out)["value"] == [0.3, 0.2]

    def test_embedding_point(self, capsys, specs):
        code, out, _ = run_cli(capsys, "eval", "--embed", specs["exp"], "--d", "3",
                               "--z", "[[0.1,0],[0.2,0],[0.3,0]]")
        assert code == 0
        w = 0.1 * 0.2 * 0.3
        expected = cmath.exp(-(1 + w) / (1 - w))
        value = json.loads(out)["value"]
        assert complex(value[0], value[1]) == pytest.approx(expected, rel=1e-12)

    def test_product_point(self, capsys, specs):
        code, out, _ = run_cli(capsys, "eval", "--product", specs["prod_expexp"],
                               "--z", "[[0.1,0],[0.2,0]]")
        assert code == 0
        expected = cmath.exp(-1.1 / 0.9) * cmath.exp(-1.2 / 0.8)
        value = json.loads(out)["value"]
        assert complex(value[0], value[1]) == pytest.approx(expected, rel=1e-12)

    def test_rif_point(self, capsys, specs):
        z1, z2 = 0.2 + 0.1j, -0.3 + 0.0j
        p = (4 - 3 * z1 + z1**2) + z2 * (-1 - z1)
        p_refl = 4 * z1**2 * z2 - 3 * z1 * z2 + z2 - z1**2 - z1
        code, out, _ = run_cli(capsys, "eval", "--rif", specs["example36"],
                               "--z", "[[0.2,0.1],[-0.3,0]]")
        assert code == 0
        value = json.loads(out)["value"]
        assert complex(value[0], value[1]) == pytest.approx(p_refl / p, rel=1e-12)

    def test_rif_boundary_point_is_computation_error(self, capsys, specs):
        code, _, err = run_cli(capsys, "eval", "--rif", specs["example36"],
                               "--z", "[[1,0],[0.3,0]]")
        assert code == 2
        env = error_envelope(err)
        assert env["kind"] == "computation" and env["code"] == 2

    def test_wrong_arity(self, capsys, specs):
        code, _, _ = run_cli(capsys, "eval", "--product", specs["prod_expexp"],
                             "--z", "[[0.1,0]]")
        assert code == 1

    def test_infinite_singular_mass_is_schema_error(self, capsys, specs):
        code, out, err = run_cli(capsys, "eval", "--input", specs["infinite_mass"],
                                 "--z", "[0.1, 0.2]")
        assert code == 1
        assert out == ""
        assert error_envelope(err)["kind"] == "schema"

    def test_z_not_json(self, capsys, specs):
        code, _, _ = run_cli(capsys, "eval", "--input", specs["monomial1"],
                             "--z", "(0.1,0)")
        assert code == 1


class TestMeasure1D:
    def test_monomial_atom(self, capsys, specs):
        code, out, _ = run_cli(capsys, "measure1d", "--input", specs["monomial1"],
                               "--alpha", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["atoms"] == [{"angle": 0.0, "weight": 1.0}]
        assert payload["tail_bound"] == 0.0

    def test_exp_mass_bracket(self, capsys, specs):
        code, out, _ = run_cli(capsys, "measure1d", "--input", specs["exp"],
                               "--alpha", "0", "--K", "200")
        assert code == 0
        payload = json.loads(out)
        total = sum(a["weight"] for a in payload["atoms"])
        expected = (1 - math.exp(-2)) / (1 - math.exp(-1)) ** 2
        assert total <= expected + 1e-9
        assert expected <= total + payload["tail_bound"] + 1e-9

    def test_exp_atoms_are_canonical_angles_in_order(self, capsys, specs):
        # each atom's angle is canonical_angle of the phase of
        # eta_k = (s_k - i)/(s_k + i), s_k = 2 pi k, listed in angle order
        code, out, _ = run_cli(capsys, "measure1d", "--input", specs["exp"],
                               "--alpha", "0", "--K", "50")
        assert code == 0
        s = TWO_PI * np.arange(-50, 51)
        raw = np.angle(TorusPoint(0.0).value * (s - 1j) / (s + 1j))
        want = sorted(zip(map(TorusPoint, raw.tolist()), (2.0 / (1.0 + s * s)).tolist()),
                      key=lambda aw: aw[0].theta)
        assert json.loads(out)["atoms"] == [{"angle": p.theta, "weight": w} for p, w in want]

    def test_output_file(self, capsys, specs, tmp_path):
        target = tmp_path / "measure.json"
        code, out, _ = run_cli(capsys, "measure1d", "--input", specs["monomial1"],
                               "--alpha", "0", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["atoms"] == [{"angle": 0.0, "weight": 1.0}]

    def test_bad_json(self, capsys, specs):
        code, _, err = run_cli(capsys, "measure1d", "--input", specs["bad"], "--alpha", "0")
        assert code == 1
        assert error_envelope(err)["kind"] == "schema"

    def test_unknown_spec_key(self, capsys, specs):
        code, _, _ = run_cli(capsys, "measure1d", "--input", specs["unknown_key"],
                             "--alpha", "0")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "measure1d", "--input", "/no/such.json", "--alpha", "0")
        assert code == 1


class TestEmission:
    def test_embed_csv_antidiagonal(self, capsys, specs):
        code, out, _ = run_cli(capsys, "embed", "--input", specs["monomial1"],
                               "--alpha", "0", "--format", "csv", "--N", "256")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 256
        for cid, t1, t2, w in rows:
            assert cid == "curve0" and w == 1.0
            assert t2 == pytest.approx((-t1) % TWO_PI, abs=1e-12)

    def test_emitted_angles_stay_below_two_pi(self, capsys, specs):
        # at node pi the antidiagonal's theta2, eta - pi, is -4e-16, which
        # np.mod rounds up to 2pi itself; it is emitted as 0
        code, out, _ = run_cli(capsys, "embed", "--input", specs["monomial1"],
                               "--alpha", "3.1415926535897927", "--format", "csv", "--N", "256")
        assert code == 0
        rows = csv_rows(out)
        assert all(0.0 <= t < TWO_PI for _, t1, t2, _ in rows for t in (t1, t2))
        assert "curve0,3.1415926535897931,0,1" in out.splitlines()

    def test_csv_bytes_are_reproducible(self, capsys, specs):
        args = ("embed", "--input", specs["exp"], "--alpha", "0.5",
                "--format", "csv", "--N", "256", "--K", "5")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_csv_17_digit_round_trip(self, capsys, specs):
        code, out, _ = run_cli(capsys, "rif", "--input", specs["example36"],
                               "--alpha", "0.785398", "--N", "256")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            for token in line.split(",")[1:]:
                assert format(float(token), ".17g") == token

    def test_embed_json_d3(self, capsys, specs):
        code, out, _ = run_cli(capsys, "embed", "--input", specs["exp"],
                               "--alpha", "0", "--d", "3", "--K", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 3
        assert len(payload["atoms"]) == 11
        assert payload["tail_bound"] > 0

    def test_embed_curves_need_d2(self, capsys, specs):
        code, _, err = run_cli(capsys, "embed", "--input", specs["exp"], "--alpha", "0",
                               "--d", "3", "--format", "csv")
        assert code == 1
        assert "json" in error_envelope(err)["message"]

    def test_product_csv_branch_window(self, capsys, specs):
        code, out, _ = run_cli(capsys, "product", "--input", specs["prod_expexp"],
                               "--alpha", "0", "--K", "2", "--N", "256")
        assert code == 0
        rows = csv_rows(out)
        assert {r[0] for r in rows} == {f"curve{i}" for i in range(5)}
        assert all(r[3] >= 0 for r in rows)

    def test_blaschke_exp_csv_skips_undefined_nodes(self, capsys, specs):
        code, out, _ = run_cli(capsys, "product", "--input", specs["prod_blaschke_exp"],
                               "--alpha", "0.785398", "--N", "256")
        assert code == 0
        rows = csv_rows(out)
        per_component = {}
        for cid, t1, _, _ in rows:
            per_component.setdefault(cid, []).append(t1)
        assert set(per_component) == {"curve0", "curve1"}
        for thetas in per_component.values():
            assert len(thetas) == 255
            assert 0.0 not in thetas

    def test_pair_exp_rows_are_the_exp_pair_rows_transposed(self, capsys, specs):
        # only exp x Blaschke has a closed-form branch family; the level set
        # of Blaschke x exp is its transpose
        args = ("--alpha", "0.785398", "--N", "256")
        code, out, _ = run_cli(capsys, "product", "--input", specs["prod_pair_exp"], *args)
        assert code == 0
        _, reference, _ = run_cli(capsys, "product", "--input", specs["prod_blaschke_exp"], *args)
        swapped = []
        for line in reference.splitlines()[1:]:
            cid, t1, t2, w = line.split(",")
            swapped.append(",".join((cid, t2, t1, w)))
        lines = out.splitlines()
        assert lines[0] == "component_id,theta1,theta2,weight"
        assert lines[1:] == swapped
        rows = np.array([r[1:] for r in csv_rows(out)])
        sampled = rows[(rows[:, 2] > 0) & (np.arange(len(rows)) % 7 == 0)]
        assert len(sampled) > 50
        values = product_boundary_map(cli._load_product(specs["prod_pair_exp"])).array(
            np.exp(1j * sampled[:, 0]), np.exp(1j * sampled[:, 1]))
        assert np.abs(values - cmath.exp(0.785398j)).max() <= SUPPORT_TOL

    def test_rif_csv_exceptional_line(self, capsys, specs):
        code, out, _ = run_cli(capsys, "rif", "--input", specs["example36"],
                               "--alpha", "3.141593", "--N", "256")
        assert code == 0
        line_rows = [r for r in csv_rows(out) if r[0] == "line0"]
        assert len(line_rows) == 256
        for _, t1, _, w in line_rows:
            assert min(t1, TWO_PI - t1) < 1e-9
            assert w == pytest.approx(0.5, abs=1e-9)

    def test_rif_json_structure(self, capsys, specs):
        code, out, _ = run_cli(capsys, "rif", "--input", specs["example36"],
                               "--alpha", "0", "--format", "json", "--N", "256")
        assert code == 0
        payload = json.loads(out)
        (pair,) = payload["singularities"]
        assert all(min(t, TWO_PI - t) < 1e-9 for t in pair)
        assert payload["exceptional_nu"] == [pytest.approx(math.pi)]
        assert [c["component_id"] for c in payload["components"]] == ["curve0"]

    def test_svg_is_well_formed(self, capsys, specs):
        code, out, _ = run_cli(capsys, "rif", "--input", specs["example36"],
                               "--alpha", "3.141593", "--format", "svg", "--N", "256")
        assert code == 0
        root = ET.fromstring(out)
        ns = "{http://www.w3.org/2000/svg}"
        groups = root.findall(f"{ns}g")
        assert [g.get("class") for g in groups] == ["alpha0"]
        polylines = groups[0].findall(f"{ns}polyline")
        assert polylines
        for p in polylines:
            assert 0.0 <= float(p.get("stroke-opacity")) <= 1.0
        line_elements = [p for p in polylines if p.get("data-component") == "line0"]
        assert line_elements
        assert all(p.get("stroke-opacity") == "0.500" for p in line_elements)


# Piecewise-constant rule on the 8-node grid: NaN marks undefined nodes.
# Every emitted column is exact arithmetic on grid angles, or the angle of
# 1, -1 or -1j, so the text below does not depend on the platform's libm.
_G_NODES = np.array([1, -1j, -1, -1, np.nan, 1j, -1j, -1j])
_W_NODES = np.array([2.0, 0.25, 0.25, -0.0, 1.0, np.nan, -0.0, 0.25])


def _node(zeta):
    return np.rint(np.angle(zeta) * 4 / math.pi).astype(int) % 8


# Antidiagonals on both sides of an opacity step and above 1; a graph with
# undefined nodes, a wrap, opacity steps and a -0.0 weight; a line.
_FENCE_MEASURE = ClarkMeasure2D(
    curves=(
        CurveComponent(Antidiagonal(TorusPoint(0.0)), 0.0004),
        CurveComponent(Antidiagonal(TorusPoint(math.pi)), 0.0006),
        CurveComponent(Antidiagonal(TorusPoint(math.pi / 2)), 1.5),
        CurveComponent(Graph(lambda z: _G_NODES[_node(z)]), lambda z: _W_NODES[_node(z)]),
    ),
    lines=(LineComponent(TorusPoint(-math.pi / 4), 0.5),),
    tail_bound=0.125,
)

_FENCE_CSV = """\
component_id,theta1,theta2,weight
curve0,0,0,0.00040000000000000002
curve0,0.78539816339744828,5.497787143782138,0.00040000000000000002
curve0,1.5707963267948966,4.7123889803846897,0.00040000000000000002
curve0,2.3561944901923448,3.9269908169872414,0.00040000000000000002
curve0,3.1415926535897931,3.1415926535897931,0.00040000000000000002
curve0,3.9269908169872414,2.3561944901923448,0.00040000000000000002
curve0,4.7123889803846897,1.5707963267948966,0.00040000000000000002
curve0,5.497787143782138,0.78539816339744828,0.00040000000000000002
curve1,0,3.1415926535897931,0.00059999999999999995
curve1,0.78539816339744828,2.3561944901923448,0.00059999999999999995
curve1,1.5707963267948966,1.5707963267948966,0.00059999999999999995
curve1,2.3561944901923448,0.78539816339744828,0.00059999999999999995
curve1,3.1415926535897931,0,0.00059999999999999995
curve1,3.9269908169872414,5.497787143782138,0.00059999999999999995
curve1,4.7123889803846897,4.7123889803846897,0.00059999999999999995
curve1,5.497787143782138,3.9269908169872414,0.00059999999999999995
curve2,0,1.5707963267948966,1.5
curve2,0.78539816339744828,0.78539816339744828,1.5
curve2,1.5707963267948966,0,1.5
curve2,2.3561944901923448,5.497787143782138,1.5
curve2,3.1415926535897931,4.7123889803846897,1.5
curve2,3.9269908169872414,3.9269908169872414,1.5
curve2,4.7123889803846897,3.1415926535897931,1.5
curve2,5.497787143782138,2.3561944901923448,1.5
curve3,0,0,2
curve3,0.78539816339744828,4.7123889803846897,0.25
curve3,1.5707963267948966,3.1415926535897931,0.25
curve3,2.3561944901923448,3.1415926535897931,-0
curve3,4.7123889803846897,4.7123889803846897,-0
curve3,5.497787143782138,4.7123889803846897,0.25
line0,5.497787143782138,0,0.5
line0,5.497787143782138,0.78539816339744828,0.5
line0,5.497787143782138,1.5707963267948966,0.5
line0,5.497787143782138,2.3561944901923448,0.5
line0,5.497787143782138,3.1415926535897931,0.5
line0,5.497787143782138,3.9269908169872414,0.5
line0,5.497787143782138,4.7123889803846897,0.5
line0,5.497787143782138,5.497787143782138,0.5
"""

_FENCE_SVG = """\
<?xml version="1.0" encoding="UTF-8"?>
<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" viewBox="-6 -6 640.32 640.32">
<rect x="0" y="0" width="628.32" height="628.32" fill="none" stroke="#bbbbbb" stroke-width="1"/>
<g class="alpha0" fill="none" stroke="#000000" stroke-width="1.2">
<polyline data-component="curve0" stroke-opacity="0.000" points="78.54,78.54 157.08,157.08 \
235.62,235.62 314.16,314.16 392.70,392.70 471.24,471.24 549.78,549.78"/>
<polyline data-component="curve1" stroke-opacity="0.001" points="0.00,314.16 78.54,392.70 \
157.08,471.24 235.62,549.78 314.16,628.32"/>
<polyline data-component="curve1" stroke-opacity="0.001" points="392.70,78.54 471.24,157.08 \
549.78,235.62"/>
<polyline data-component="curve2" stroke-opacity="1.000" points="0.00,471.24 78.54,549.78 \
157.08,628.32"/>
<polyline data-component="curve2" stroke-opacity="1.000" points="235.62,78.54 314.16,157.08 \
392.70,235.62 471.24,314.16 549.78,392.70"/>
<polyline data-component="curve3" stroke-opacity="0.250" points="78.54,157.08 157.08,314.16 \
235.62,314.16"/>
<polyline data-component="curve3" stroke-opacity="0.000" points="235.62,314.16 471.24,157.08 \
549.78,157.08"/>
<polyline data-component="line0" stroke-opacity="0.500" points="549.78,628.32 549.78,549.78 \
549.78,471.24 549.78,392.70 549.78,314.16 549.78,235.62 549.78,157.08 549.78,78.54"/>
</g>
</svg>
"""


class TestEmissionBytes:
    """Exact CSV, SVG and JSON text of one hand-built measure at N = 8."""

    def emitted(self, fmt, tmp_path):
        target = tmp_path / f"fence.{fmt}"
        spec = types.SimpleNamespace(N=8, format=fmt, output=str(target))
        assert cli._emit_measure(_FENCE_MEASURE, spec) == 0
        return target.read_text(encoding="utf-8")

    def test_csv_text(self, tmp_path):
        assert self.emitted("csv", tmp_path) == _FENCE_CSV

    def test_svg_text(self, tmp_path):
        assert self.emitted("svg", tmp_path) == _FENCE_SVG

    def test_json_text(self, tmp_path):
        # the CSV rows again, each a [theta1, theta2, weight] list at repr precision
        components = {}
        for row in _FENCE_CSV.splitlines()[1:]:
            cid, *values = row.split(",")
            components.setdefault(cid, []).append([float(v) for v in values])
        payload = {
            "components": [{"component_id": cid, "points": points}
                           for cid, points in components.items()],
            "tail_bound": 0.125,
        }
        assert self.emitted("json", tmp_path) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _reference_components(mu, n):
    """Per-row float columns (cid, theta1, theta2, weight) of every component,
    sampled as plain arrays."""
    thetas = TWO_PI * np.arange(n) / n
    zeta = np.exp(1j * thetas)
    out = []
    for i, comp in enumerate(mu.curves):
        if isinstance(comp.kind, Antidiagonal):
            t2 = np.mod(comp.kind.eta.theta - thetas, TWO_PI)
            out.append((f"curve{i}", thetas, t2, np.full(n, comp.weight)))
        else:
            z2 = comp.second_coordinate(zeta)
            w = comp.weight_values(zeta)
            ok = np.isfinite(z2) & np.isfinite(w)
            t2 = np.mod(np.angle(z2[ok]), TWO_PI)
            t2[t2 == TWO_PI] = 0.0  # a tiny negative angle rounds up to 2pi
            out.append((f"curve{i}", thetas[ok], t2, w[ok]))
    for i, line in enumerate(mu.lines):
        t1 = np.full(n, np.mod(line.tau.theta, TWO_PI))
        out.append((f"line{i}", t1, thetas, np.full(n, float(line.constant))))
    return out


def _reference_csv(components):
    rows = ["component_id,theta1,theta2,weight"]
    for cid, *columns in components:
        text = ([format(v, ".17g") for v in column.tolist()] for column in columns)
        rows.extend(f"{cid},{t1},{t2},{w}" for t1, t2, w in zip(*text))
    return "\n".join(rows) + "\n"


def _reference_svg(components):
    """The SVG of one alpha group, every vertex and opacity formatted per row."""
    size = TWO_PI * 100.0
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        f'viewBox="-6 -6 {size + 12:.2f} {size + 12:.2f}">',
        f'<rect x="0" y="0" width="{size:.2f}" height="{size:.2f}" '
        'fill="none" stroke="#bbbbbb" stroke-width="1"/>',
        '<g class="alpha0" fill="none" stroke="#000000" stroke-width="1.2">',
    ]
    for cid, t1, t2, w in components:
        vertices = [f"{x:.2f},{y:.2f}" for x, y in
                    zip((t1 * 100.0).tolist(), ((TWO_PI - t2) * 100.0).tolist())]
        opacity = np.array([format(v, ".3f") for v in (np.clip(w, 0.0, 1.0) + 0.0).tolist()])
        wraps = np.flatnonzero((np.abs(np.diff(t1)) > math.pi)
                               | (np.abs(np.diff(t2)) > math.pi)) + 1
        steps = np.flatnonzero(opacity[1:] != opacity[:-1]) + 1
        ends = set(wraps.tolist()) | {len(t1)}
        start = 0
        for cut in np.union1d(wraps, steps).tolist() + [len(t1)]:
            stop = cut if cut in ends else cut + 1
            if stop - start >= 2:
                out.append(f'<polyline data-component="{cid}" stroke-opacity="{opacity[start]}" '
                           f'points="{" ".join(vertices[start:stop])}"/>')
            start = cut
    out += ["</g>", "</svg>"]
    return "\n".join(out) + "\n"


class TestEmissionByStructure:
    """Columns formatted once per grid or constant give the bytes of
    formatting every row."""

    @staticmethod
    def measures():
        from clark_measures import embed_clark2d, rif_clark_measure
        from clark_measures.inner1d import InnerFunction1D
        from clark_measures.product2d import ProductInner, product_branch_measure
        from clark_measures.rif2d import Poly1, RIF_n1
        from clark_measures.torus_core import UnimodularConstant

        exp = InnerFunction1D.from_json_dict(EXP_SPEC)
        pair = ProductInner(exp, InnerFunction1D.from_json_dict(BPAIR_SPEC))
        rif = RIF_n1(p1=Poly1((4, -3, 1)), p2=Poly1((-1, -1)), n=2)
        return {
            "antidiagonals": embed_clark2d(exp, UnimodularConstant.from_nu(0.5), K=6),
            "branches": product_branch_measure(pair, UnimodularConstant.from_nu(0.785398)),
            "rif_line": rif_clark_measure(rif, UnimodularConstant.from_nu(math.pi)),
        }

    @pytest.mark.parametrize("name", ["antidiagonals", "branches", "rif_line"])
    def test_matches_per_row_formatting(self, name):
        mu = self.measures()[name]
        n = 256
        thetas = cli._grid_angles(n)
        components = cli._measure_components(mu, thetas)
        reference = _reference_components(mu, n)
        if name == "branches":
            assert any(len(comp.nodes) < n for comp in components)  # dropped nodes
        if name == "rif_line":
            assert len(mu.lines) == 1
        assert cli._csv_text(thetas, components) == _reference_csv(reference)
        assert cli._svg_text(thetas, [("alpha0", "#000000", components)]) == \
            _reference_svg(reference)


class TestVerify:
    def test_rif_report_passes_and_round_trips(self, capsys, specs):
        code, out, _ = run_cli(capsys, "verify", "--rif", specs["example36"],
                               "--alpha", "0", "--N", "1024")
        assert code == 0
        report = VerificationReport.from_json_dict(json.loads(out))
        assert report.passed
        assert len(report.identity_residuals) == 100
        assert len(report.support) == 16
        assert len(report.fourier) == 128
        assert report.mass.passed

    @pytest.mark.parametrize("nu", ["0", "0.785398", "1.570796", "3.141593"])
    def test_rif_report_checks_the_snapped_level(self, capsys, specs, nu):
        # 3.141593 lies within 1e-6 of the exceptional value pi, so the measure
        # is built at pi and the report checks it there
        code, out, _ = run_cli(capsys, "verify", "--rif", specs["example36"],
                               "--alpha", nu)
        assert code == 0
        assert VerificationReport.from_json_dict(json.loads(out)).passed

    @pytest.mark.parametrize("nu", ["0.785398", "3.141593"])
    def test_rif_verify_samples_the_weight_once(self, capsys, specs, monkeypatch, nu):
        # the identity integrator and the Fourier check share one sampling
        # of the graph on the grid
        calls = []

        def counted(R, alpha, zeta):
            calls.append(len(zeta))
            return w_alpha_values(R, alpha, zeta)

        monkeypatch.setattr(rif2d, "w_alpha_values", counted)
        code, _, _ = run_cli(capsys, "verify", "--rif", specs["example36"], "--alpha", nu)
        assert code == 0
        assert calls == [4096]

    def test_embed_report(self, capsys, specs):
        code, out, _ = run_cli(capsys, "verify", "--embed", specs["monomial1"],
                               "--alpha", "0", "--N", "1024", "--K", "4")
        assert code == 0
        report = VerificationReport.from_json_dict(json.loads(out))
        assert report.passed
        assert report.support == ()
        assert len(report.fourier) == 128

    def test_product_report(self, capsys, specs):
        code, out, _ = run_cli(capsys, "verify", "--product", specs["prod_expexp"],
                               "--alpha", "0.5", "--N", "1024", "--K", "50")
        assert code == 0
        report = VerificationReport.from_json_dict(json.loads(out))
        assert report.passed
        assert len(report.support) == 101 * 16
        assert len(report.fourier) == 128

    def test_pair_exp_report_checks_the_transposed_family(self, capsys, specs):
        # only exp x Blaschke-pair has a closed-form branch family; the pair x
        # exp report checks that family against the transposed product and
        # gives its samples in its own coordinates
        args = ("--alpha", "0.785398", "--N", "1024", "--K", "50")
        code, out, _ = run_cli(capsys, "verify", "--product", specs["prod_pair_exp"], *args)
        assert code == 0
        report = VerificationReport.from_json_dict(json.loads(out))
        assert report.passed
        assert report.support
        assert all(s.deviation <= SUPPORT_TOL for s in report.support if not s.exempt)
        _, out, _ = run_cli(capsys, "verify", "--product", specs["prod_blaschke_exp"], *args)
        reference = VerificationReport.from_json_dict(json.loads(out)).support
        assert [s.point for s in report.support] == [s.point[::-1] for s in reference]

    def test_failure_exits_3_with_envelope(self, capsys, specs, monkeypatch):
        failing = IdentityResidual(z=(0j, 0j), lhs=2.0, rhs=1.0,
                                   relative_error=1.0, tolerance=1e-6)

        def fake_check(mu, phi, alpha, points, **kwargs):
            return VerificationReport(identity_residuals=(failing,),
                                      seed=kwargs.get("seed"))

        monkeypatch.setattr(cli, "poisson_identity_check", fake_check)
        code, out, err = run_cli(capsys, "verify", "--rif", specs["example36"],
                                 "--alpha", "0", "--N", "1024")
        assert code == 3
        env = error_envelope(err)
        assert env["kind"] == "verification" and env["code"] == 3
        assert json.loads(out)["identity_residuals"][0]["relative_error"] == 1.0

    def test_two_singular_points_on_grid_nodes_exit_0(self, capsys, tmp_path):
        # the singular points tau = +-1 are grid nodes, where the graph and
        # its weight are taken with (zeta - tau) divided out
        spec = tmp_path / "two_singular.json"
        spec.write_text(json.dumps({"p1": [[4, 0], [0, 0], [-3, 0], [0, 0], [1, 0]],
                                    "p2": [[-1, 0], [0, 0], [-1, 0]], "n": 4}))
        code, out, _ = run_cli(capsys, "verify", "--rif", str(spec),
                               "--alpha", "3.141592653589793", "--N", "256")
        assert code == 0
        assert VerificationReport.from_json_dict(json.loads(out)).passed

    def test_undefined_nodes_past_the_allowance_exit_2(self, capsys, specs, monkeypatch):
        # a weight undefined at two nodes, against an allowance of one
        def undefined_at_two_nodes(R, alpha, zeta):
            values = w_alpha_values(R, alpha, zeta)
            values[[3, 100]] = np.nan
            return values

        monkeypatch.setattr(rif2d, "w_alpha_values", undefined_at_two_nodes)
        code, out, err = run_cli(capsys, "verify", "--rif", specs["example36"],
                                 "--alpha", "0.785398", "--N", "256")
        assert code == 2 and out == ""
        env = error_envelope(err)
        assert env["kind"] == "computation" and env["code"] == 2
        assert "2 undefined nodes exceed the allowance 1" in env["message"]

    def test_report_file(self, capsys, specs, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "verify", "--embed", specs["monomial1"],
                               "--alpha", "0", "--N", "1024", "--K", "4",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert VerificationReport.from_json_dict(json.loads(target.read_text())).passed


class TestPlot:
    FIG1_ALPHAS = "0,0.785398,1.570796,3.141593"

    def test_level_curve_families(self, capsys, specs, tmp_path):
        base = tmp_path / "fig1"
        code, out, _ = run_cli(capsys, "plot", "--rif", specs["example36"],
                               "--alpha-list", self.FIG1_ALPHAS, "--N", "256",
                               "--output", str(base))
        assert code == 0
        manifest = json.loads(out)
        csv_text = (tmp_path / "fig1.csv").read_text()
        rows = csv_rows(csv_text)
        ids = {r[0] for r in rows}
        assert {f"alpha{j}:curve0" for j in range(4)} <= ids
        assert "alpha3:line0" in ids
        line_rows = [r for r in rows if r[0] == "alpha3:line0"]
        assert all(r[1] == 0.0 and r[3] == 0.5 for r in line_rows)
        assert manifest == {"csv": str(base) + ".csv", "svg": str(base) + ".svg"}

    def test_svg_has_one_color_class_per_alpha(self, capsys, specs, tmp_path):
        base = tmp_path / "fig1"
        run_cli(capsys, "plot", "--rif", specs["example36"],
                "--alpha-list", self.FIG1_ALPHAS, "--N", "256", "--output", str(base))
        root = ET.fromstring((tmp_path / "fig1.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        groups = root.findall(f"{ns}g")
        assert [g.get("class") for g in groups] == [f"alpha{j}" for j in range(4)]
        assert len({g.get("stroke") for g in groups}) == 4

    def test_artifacts_are_reproducible(self, capsys, specs, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for base in (first, second):
            run_cli(capsys, "plot", "--rif", specs["example36"],
                    "--alpha-list", self.FIG1_ALPHAS, "--N", "256",
                    "--output", str(base))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_default_artifact_names(self, capsys, specs, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "plot", "--rif", specs["example36"], "--alpha", "0",
                               "--N", "256")
        assert code == 0
        assert json.loads(out) == {"csv": "example36_levels.csv",
                                   "svg": "example36_levels.svg"}
        assert (tmp_path / "example36_levels.csv").exists()
        assert (tmp_path / "example36_levels.svg").exists()

    def test_product_plot_window(self, capsys, specs, tmp_path):
        base = tmp_path / "branches"
        code, _, _ = run_cli(capsys, "plot", "--product", specs["prod_expexp"],
                             "--alpha", "0", "--K", "2", "--N", "256",
                             "--output", str(base))
        assert code == 0
        ids = {r[0] for r in csv_rows((tmp_path / "branches.csv").read_text())}
        assert ids == {f"alpha0:curve{i}" for i in range(5)}

    def test_pair_exp_plot_is_the_product_output(self, capsys, specs, tmp_path):
        base = tmp_path / "pair"
        code, _, _ = run_cli(capsys, "plot", "--product", specs["prod_pair_exp"],
                             "--alpha", "0.785398", "--N", "256", "--output", str(base))
        assert code == 0
        _, product, _ = run_cli(capsys, "product", "--input", specs["prod_pair_exp"],
                                "--alpha", "0.785398", "--N", "256")
        plotted = (tmp_path / "pair.csv").read_text().splitlines()
        assert plotted[1:] == ["alpha0:" + row for row in product.splitlines()[1:]]
        ET.fromstring((tmp_path / "pair.svg").read_text())

    def test_embed_plot(self, capsys, specs, tmp_path):
        base = tmp_path / "anti"
        code, _, _ = run_cli(capsys, "plot", "--embed", specs["exp"], "--alpha", "0",
                             "--K", "5", "--N", "256", "--output", str(base))
        assert code == 0
        ids = {r[0] for r in csv_rows((tmp_path / "anti.csv").read_text())}
        assert ids == {f"alpha0:curve{i}" for i in range(11)}


def test_readme_cli_lines_parse():
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("clark ")]
    assert len(lines) == 5
    for line in lines:
        assert isinstance(cli.parse_args(shlex.split(line, comments=True)[1:]), CommandSpec)


class TestModuleInvocation:
    @staticmethod
    def _run(args, **env_extra):
        # the subprocess imports the package from its src directory, as the
        # pytest process does through the pythonpath ini setting
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, **env_extra)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "clark_measures", *args],
                              capture_output=True, text=True, timeout=120, env=env)

    def test_verify_embed_bytes_do_not_depend_on_blas_threads(self, specs):
        args = ["verify", "--embed", specs["exp"], "--alpha", "0"]
        one, two = (self._run(args, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_python_m_entry(self, specs):
        proc = self._run(["measure1d", "--input", specs["monomial1"], "--alpha", "0"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["atoms"] == [{"angle": 0.0, "weight": 1.0}]
