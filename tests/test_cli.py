import json
import os
from fractions import Fraction

import pytest

from acgeom import cli, normal
from acgeom.jets import Jet, QC
from acgeom.structure import AlmostComplexStructure
from acgeom.cli import (COMMANDS, Options, Report, ReportRow, SpecError,
                        _family_from_entries, build_metric, build_structure, emit_report, main,
                        parse_manifold_spec, run_command, serialize_manifold_spec)

from germs import bench_b_normal_spec

MANIFESTS = os.path.join(os.path.dirname(__file__), "..", "manifests")


def fix_b_text():
    with open(os.path.join(MANIFESTS, "fix_b.json"), encoding="utf-8") as fh:
        return fh.read()


class TestParsing:
    def test_fix_j0_document(self):
        with open(os.path.join(MANIFESTS, "fix_j0.json"), encoding="utf-8") as fh:
            ms = parse_manifold_spec(fh.read(), name="fix_j0")
        assert ms.kind == "J0" and ms.n == 2 and ms.order == 4
        s = build_structure(ms)
        assert s.validate().max_residual == 0

    def test_fix_b_structure_validates(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        s = build_structure(ms)
        assert s.validate().max_residual < 1e-12

    def test_round_trip_identity(self):
        ms = parse_manifold_spec(fix_b_text(), name="x")
        text = serialize_manifold_spec(ms)
        ms2 = parse_manifold_spec(text, name="x")
        assert serialize_manifold_spec(ms2) == text
        assert ms2.to_document() == ms.to_document()

    def test_degree_overflow_rejected_with_path(self):
        doc = json.loads(fix_b_text())
        doc["structure"]["entries"][0]["alpha"] = [0, 5]
        with pytest.raises(SpecError) as err:
            parse_manifold_spec(json.dumps(doc), name="fix_b")
        assert "entries[0]" in str(err.value)

    def test_pattern_violation_rejected(self):
        doc = json.loads(fix_b_text())
        doc["structure"]["entries"][0]["l"] = 2   # l >= lmax(alpha) slot
        with pytest.raises(SpecError):
            parse_manifold_spec(json.dumps(doc), name="fix_b")

    @pytest.mark.parametrize("where, field, value, path", [
        ((), "n", True, "$.n"),
        ((), "order", True, "$.order"),
        ((), "seed", False, "$.seed"),
        (("structure", 0), "k", True, "$.structure.entries[0].k"),
        (("structure", 0), "l", True, "$.structure.entries[0].l"),
        (("structure", 0), "alpha", [False, True], "$.structure.entries[0].alpha"),
        (("structure", 0), "beta", [True, False], "$.structure.entries[0].beta"),
        (("structure", 0), "re", float("nan"), "$.structure.entries[0].re"),
        (("structure", 0), "im", float("inf"), "$.structure.entries[0].im"),
        (("structure", 0), "re", "0.3", "$.structure.entries[0].re"),
        (("metric", 0), "im", None, "$.metric.entries[0].im"),
    ], ids=["n-bool", "order-bool", "seed-bool", "k-bool", "l-bool", "alpha-bool",
            "beta-bool", "re-nan", "im-inf", "re-string", "metric-im-null"])
    def test_bad_value_rejected_with_path(self, where, field, value, path):
        doc = json.loads(fix_b_text())
        doc["metric"]["entries"] = [{"alpha": [0, 0], "beta": [0, 0], "k": 1, "l": 2,
                                     "re": 0.1, "im": 0.0}]
        target = doc[where[0]]["entries"][where[1]] if where else doc
        target[field] = value
        with pytest.raises(SpecError) as err:
            parse_manifold_spec(json.dumps(doc), name="fix_b")
        assert err.value.path == path

    @pytest.mark.parametrize("text, path", [
        ('["n", "order", "structure"]', "$"),
        ('{"n": 2, "order": 4, "structure": "J0"}', "$.structure"),
        ('{"n": 2, "order": 4, "structure": {"kind": "J0", "entries": 3}}',
         "$.structure.entries"),
        ('{"n": 2, "order": 4, "structure": {"kind": "J0"}, "metric": [1]}',
         "$.metric"),
        ('{"n": 2, "order": 4, "structure": {"kind": "J0"},'
         ' "metric": {"entries": {"k": 1}}}', "$.metric.entries"),
    ], ids=["top-level-array", "structure-string", "entries-number",
            "metric-array", "metric-entries-object"])
    def test_bad_shape_rejected_with_path(self, text, path):
        with pytest.raises(SpecError) as err:
            parse_manifold_spec(text, name="inline")
        assert err.value.path == path

    def test_parse_and_validate_build_the_structure_once(self, monkeypatch):
        calls = []
        build = normal.structure_from_b_family

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)
        monkeypatch.setattr(normal, "structure_from_b_family", counting_build)
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("validate", ms, Options())
        assert report.passed
        assert len(calls) == 1

    def test_parse_and_validate_check_j2_once(self, monkeypatch):
        calls = []
        check = AlmostComplexStructure.validate

        def counting_check(s):
            calls.append(s)
            return check(s)
        monkeypatch.setattr(AlmostComplexStructure, "validate", counting_check)
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("validate", ms, Options())
        assert report.passed
        assert len(calls) == 1

    def test_only_the_exact_check_builds_the_closed_form(self, monkeypatch):
        built = []

        class CountingTable(normal.ClosedFormA):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)
        monkeypatch.setattr(normal, "ClosedFormA", CountingTable)
        dense = parse_manifold_spec(bench_b_normal_spec(2, 6, 6, seed=1),
                                    name="bnormal-n2N6d6.json")
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        assert dense.kind == ms.kind == "B-normal" and built == []
        report, _ = run_command("validate", ms, Options(exact=True))
        assert report.passed and len(built) == 1

    def test_bad_kind_rejected(self):
        doc = json.loads(fix_b_text())
        doc["structure"]["kind"] = "other"
        with pytest.raises(SpecError):
            parse_manifold_spec(json.dumps(doc), name="fix_b")

    def test_metric_block(self):
        with open(os.path.join(MANIFESTS, "j0_symplectic.json"),
                  encoding="utf-8") as fh:
            ms = parse_manifold_spec(fh.read(), name="j0_symplectic")
        hd = build_metric(ms)
        lin = hd.H.family(1, 0)
        assert abs(lin[0, 0, 0] - 0.2) < 1e-14


class TestOrderSix:
    def test_fix_b_parses_at_order_6(self):
        # A is solved from B, so J^2 = -I holds through degree 6, and
        # --exact checks it against the closed form, whose Catalan chain
        # weights first matter at degree 6 (the old (-4)^-(k-1) weight
        # missed J^2 = -I by |b|^6)
        doc = json.loads(fix_b_text())
        doc["order"] = 6
        ms = parse_manifold_spec(json.dumps(doc), name="fix_b6")
        s = build_structure(ms)
        assert s.order == 6
        assert s.validate().max_residual < 1e-12
        report, _ = run_command("validate", ms, Options(exact=True))
        assert report.passed
        assert [r.check for r in report.rows][-1] == "closed-form A vs exact solver"


class TestExactSpecValues:
    # an exact value is the rational that the float's shortest repr spells,
    # not the float's binary value: on those the closed form and the solver
    # would still agree, so only a pin sees the difference
    @pytest.mark.parametrize("value, want", [
        (0.3, Fraction(3, 10)), (0.1, Fraction(1, 10)), (1e-05, Fraction(1, 100000)),
        (-0.0, Fraction(0)), (1.5e+300, Fraction(15 * 10 ** 299)), (-2.5, Fraction(-5, 2))])
    def test_decimal_reprs(self, value, want):
        entry = {"alpha": [1, 0], "beta": [0, 0], "k": 2, "l": 1, "re": value, "im": -value}
        mat = _family_from_entries([entry], 2, exact=True)[((1, 0), (0, 0))]
        assert (mat[1, 0].re, mat[1, 0].im) == (want, -want)
        assert all(not mat[k, l] for k, l in [(0, 0), (0, 1), (1, 1)])


class TestExactCrosscheck:
    CHECK = "closed-form A vs exact solver"

    def run_exact(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("validate", ms, Options(exact=True))
        assert report.rows[-1].check == self.CHECK
        return report.rows[-1]

    def test_solver_agrees_on_fix_b(self):
        assert self.run_exact().passed

    @pytest.mark.parametrize("k, l, key", [
        (0, 0, ((0, 0), (0, 0))),   # the constant iI itself
        (0, 1, ((0, 0), (0, 0))),   # an off-diagonal constant
        (1, 0, ((1, 0), (0, 0))),   # |beta| = 0
        (0, 1, ((0, 0), (0, 2))),   # |alpha| = 0
        (1, 1, ((0, 1), (1, 0))),   # |alpha|, |beta| >= 1
    ])
    def test_stray_solver_term_fails(self, monkeypatch, k, l, key):
        solve = normal.solve_a_degree_by_degree

        def with_stray_term(b):
            # parsing solves a float A too; only the exact oracle is perturbed
            a = solve(b)
            if b.exact:
                a.entries[k][l] = a.entries[k][l] + Jet(
                    b.n, b.order, {key: QC(0, "1/1024")}, exact=True)
            return a

        monkeypatch.setattr(normal, "solve_a_degree_by_degree", with_stray_term)
        row = self.run_exact()
        assert not row.passed and row.residual == 1.0

    def test_stray_parsed_term_fails(self, monkeypatch):
        solve = normal.solve_a_degree_by_degree

        def with_stray_term(b):
            # only the float A that parsing solves is perturbed, by less
            # than parsing's J^2 check sees
            a = solve(b)
            if not b.exact:
                a.entries[1][1] = a.entries[1][1] + Jet(
                    b.n, b.order, {((0, 1), (1, 0)): 1e-12})
            return a

        monkeypatch.setattr(normal, "solve_a_degree_by_degree", with_stray_term)
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("validate", ms, Options(exact=True, tol=1e-13))
        parsed, closed = report.rows[-2:]
        assert parsed.check == "parsed A vs exact solver"
        assert not parsed.passed and abs(parsed.residual - 1e-12) < 1e-15
        assert closed.check == self.CHECK and closed.passed


_J2 = [("J^2 square-block residual", True), ("J^2 mixed-block residual", True),
       ("adapted at origin", True)]
_TORSION = [("frame torsion vs bracket identity", True),
            ("antisymmetry of coefficients", True)]
_NORMALIZE = [("vanishing-pattern violation", True), ("output J^2 residual", True),
              ("idempotence (second pass is identity)", True)]
_IDENTITIES = [(name, True) for name in (
    "del^2 = delbar theta + theta delbar",
    "delbar^2 = del thetabar + thetabar del",
    "del delbar + delbar del = -(theta thetabar + thetabar theta)",
    "del theta = -theta del", "delbar thetabar = -thetabar delbar",
    "theta^2 = 0", "thetabar^2 = 0")]
_CURVATURE_TAIL = [("pointwise curvature expression", True),
                   ("hermitian compatibility of the connection", True)]


def _curvature(c_row):
    return [("hermitian symmetry of C(0)", True),
            ("operator curvature vs origin formula", True), (c_row, True)] \
        + _CURVATURE_TAIL


_DECOMPOSE = [("connection decomposition residual", True),
              ("torsion formula residual", True), ("delta = 0 iff d omega = 0", True),
              ("N = 0 iff torsion = 0", True)]
_INTEGRABLE = _DECOMPOSE + [("gamma^{0,2} vanishes (integrable case)", True)]
_ASYMPTOTICS = [("coefficient families vs full connection", True),
                ("normal-form metric expansion", True)]
_NEEDS_NORMAL = [("error: asymptotic families need normal coordinates of order >= 2",
                  False)]
_SCALES = [(f"scale {s}", True) for s in ("1", "0.5", "0.25", "0.125")]
_SLOPE = _SCALES + [("fitted slope >= 2.8", True)]
_MANIFESTS = ("deformation_n2.json", "fix_b.json", "fix_b2.json", "fix_j0.json",
              "j0_symplectic.json")

# (check, pass) of every row of every command on every shipped manifest, with
# the CLI defaults.  deformation_n2 is not in normal coordinates, so its
# curvature, asymptotics and geodesic reports FAIL.
VERDICTS = {
    "validate": dict.fromkeys(_MANIFESTS, _J2),
    "torsion": {**dict.fromkeys(_MANIFESTS, _TORSION),
                "fix_b.json": _TORSION + [("nbar[1;1,2](0)", True)]},
    "normalize": dict.fromkeys(_MANIFESTS, _NORMALIZE),
    "identities": dict.fromkeys(_MANIFESTS, _IDENTITIES),
    "curvature": {
        "deformation_n2.json": [
            ("hermitian symmetry of C(0)", True),
            ("origin formula inapplicable: origin formula needs normal "
             "coordinates of order >= 2", False)] + _CURVATURE_TAIL,
        "fix_b.json": _curvature("C[2,2;1,1](0)"),
        "fix_b2.json": _curvature("C[1,1;1,1](0)"),
        "fix_j0.json": _curvature("C[1,1;1,1](0)"),
        "j0_symplectic.json": _curvature("C[1,1;1,1](0)")},
    "decompose": {"deformation_n2.json": _DECOMPOSE, "fix_b.json": _DECOMPOSE,
                  "fix_b2.json": _DECOMPOSE, "fix_j0.json": _INTEGRABLE,
                  "j0_symplectic.json": _INTEGRABLE},
    "asymptotics": {**dict.fromkeys(_MANIFESTS, _ASYMPTOTICS),
                    "deformation_n2.json": _NEEDS_NORMAL},
    "geodesic": {"deformation_n2.json": _NEEDS_NORMAL, "fix_b.json": _SLOPE,
                 "fix_b2.json": _SLOPE,
                 "fix_j0.json": _SCALES + [
                     ("error at integrator noise floor (exact)", True)],
                 "j0_symplectic.json": _SLOPE},
}


class TestVerdicts:
    def test_every_command_on_every_manifest(self):
        assert sorted(VERDICTS) == sorted(COMMANDS)
        assert sorted(f for f in os.listdir(MANIFESTS) if f.endswith(".json")) \
            == sorted(_MANIFESTS)
        for name in _MANIFESTS:
            with open(os.path.join(MANIFESTS, name), encoding="utf-8") as fh:
                ms = parse_manifold_spec(fh.read(), name=name)
            for command in COMMANDS:
                report, _ = run_command(command, ms, Options())
                got = [(r.check, r.passed) for r in report.rows]
                assert got == VERDICTS[command][name], (command, name)


class TestReports:
    def test_empty_report_header_only(self):
        rep = Report("validate", "none", [])
        text = emit_report(rep, "text", {})
        assert "validate" in text and "PASS" in text

    def test_single_row_pass_line(self):
        rep = Report("validate", "f", [ReportRow("c", 0.0, 1e-10)])
        text = emit_report(rep, "text", {})
        assert text.count("PASS") == 2  # row + summary

    def test_long_check_name_keeps_columns_aligned(self):
        long_name = "a check name that is clearly longer than forty-four characters"
        assert len(long_name) > 44
        rows = [ReportRow("short", 1e-14, 1e-10),
                ReportRow(long_name, 2e-13, 1e-10, value=3)]
        rep = Report("validate", "f", rows)
        lines = emit_report(rep, "text", {}).splitlines()
        header, rule, short_line, long_line = lines[1:5]
        assert len(rule) == len(header)
        assert len(short_line) == len(header) == len(long_line)
        assert long_line.startswith(long_name + " ")
        # right-aligned columns end at the same position on every line
        assert header.index("residual") + len("residual") == \
            long_line.index("2.000e-13") + len("2.000e-13")
        assert json.loads(emit_report(rep, "json", {})) == rep.to_document()

    def test_short_check_names_keep_minimum_width(self):
        rep = Report("validate", "f", [ReportRow("c", 0.0, 1e-10)])
        header = emit_report(rep, "text", {}).splitlines()[1]
        assert header.startswith("check" + " " * 39 + " ")

    def test_json_round_trip(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, payload = run_command("validate", ms, Options())
        doc = json.loads(emit_report(report, "json", payload))
        assert doc["schema"] == "acgeom-report/1"
        assert doc["pass"] is True
        assert doc == report.to_document()

    def test_identities_on_j0_all_zero(self):
        with open(os.path.join(MANIFESTS, "fix_j0.json"), encoding="utf-8") as fh:
            ms = parse_manifold_spec(fh.read(), name="fix_j0")
        report, _ = run_command("identities", ms, Options())
        assert len(report.rows) == 7
        assert all(r.residual == 0 for r in report.rows)

    def test_curvature_value_row(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("curvature", ms, Options())
        value_rows = [r for r in report.rows if r.value and "0.05" in r.value]
        assert value_rows, [r.check for r in report.rows]

    def test_normalize_payload(self):
        with open(os.path.join(MANIFESTS, "deformation_n2.json"),
                  encoding="utf-8") as fh:
            ms = parse_manifold_spec(fh.read(), name="deformation_n2")
        report, payload = run_command("normalize", ms, Options())
        assert report.passed
        assert payload["b_family"]
        assert payload["phi_stages"]

    @pytest.mark.parametrize("delta", [-1, 0])
    def test_normalize_order_in_range(self, delta):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, payload = run_command("normalize", ms,
                                      Options(order=ms.order + delta))
        assert report.passed
        assert len(payload["phi_stages"]) == ms.order + delta

    @pytest.mark.parametrize("flag", ["0", "-1", "5"])
    def test_normalize_order_out_of_range(self, flag, capsys):
        path = os.path.join(MANIFESTS, "fix_b.json")   # N = 4
        rc = main(["normalize", path, "--order", flag, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and "data" not in doc
        assert [r["check"] for r in doc["rows"]] == [
            "error: --order: must be an integer in 1..4"]

    @pytest.mark.parametrize("command, flag, value, check", [
        ("geodesic", "--slope-bound", "nan",
         "error: --slope-bound: must be a finite number"),
        ("geodesic", "--slope-bound", "inf",
         "error: --slope-bound: must be a finite number"),
        ("validate", "--tol", "nan",
         "error: --tol: must be a finite non-negative number"),
        ("validate", "--tol", "inf",
         "error: --tol: must be a finite non-negative number"),
        ("validate", "--tol", "-1",
         "error: --tol: must be a finite non-negative number"),
    ])
    def test_bad_threshold_flag(self, command, flag, value, check, capsys):
        # max(0, nan - slope) is 0 and every residual is <= inf: either
        # value would turn every verdict into PASS
        path = os.path.join(MANIFESTS, "fix_b.json")
        rc = main([command, path, flag, value, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and "data" not in doc
        assert [r["check"] for r in doc["rows"]] == [check]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_negative_seed_rejected(self, command, capsys):
        # numpy's default_rng rejects a negative seed with a ValueError
        path = os.path.join(MANIFESTS, "fix_b.json")
        rc = main([command, path, "--seed", "-1", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 1 and "data" not in doc
        assert [r["check"] for r in doc["rows"]] == [
            "error: --seed: must be a non-negative integer"]

    def test_zero_tol_is_valid(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("validate", ms, Options(tol=0.0))
        assert [r.check for r in report.rows][:2] == [
            "J^2 square-block residual", "J^2 mixed-block residual"]

    def test_geodesic_slope_row(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        report, _ = run_command("geodesic", ms, Options(steps=128))
        slope_rows = [r for r in report.rows if "slope" in r.check]
        assert slope_rows and slope_rows[0].passed


class TestDeterminism:
    def test_byte_identical_json(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        outs = []
        for _ in range(2):
            report, payload = run_command("identities", ms, Options(seed=11))
            outs.append(emit_report(report, "json", payload))
        assert outs[0] == outs[1]

    def test_byte_identical_geodesic(self):
        ms = parse_manifold_spec(fix_b_text(), name="fix_b")
        outs = []
        for _ in range(2):
            report, payload = run_command("geodesic", ms, Options(steps=64))
            outs.append(emit_report(report, "json", payload))
        assert outs[0] == outs[1]
        assert len(json.loads(outs[0])["data"]["scales"]) == 4


class TestMainEntry:
    def test_exit_zero_on_pass(self, capsys):
        rc = main(["validate", os.path.join(MANIFESTS, "fix_b.json"), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["pass"] is True

    def test_exit_one_on_fail(self, capsys):
        rc = main(["geodesic", os.path.join(MANIFESTS, "fix_b.json"),
                   "--slope-bound", "5.0", "--steps", "64"])
        capsys.readouterr()
        assert rc == 1

    def test_directory_batch(self, tmp_path, capsys):
        for name in ("fix_j0.json", "fix_b.json"):
            src = os.path.join(MANIFESTS, name)
            (tmp_path / name).write_text(open(src, encoding="utf-8").read())
        rc = main(["validate", str(tmp_path), "--jobs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 2

    def test_jobs_capped_at_the_file_count(self, tmp_path, capsys, monkeypatch):
        # the pool forks every worker it is asked for, so two files get two
        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        for name in ("fix_j0.json", "fix_b.json"):
            src = os.path.join(MANIFESTS, name)
            (tmp_path / name).write_text(open(src, encoding="utf-8").read())
        rc = main(["validate", str(tmp_path), "--jobs", "64"])
        assert rc == 0 and capsys.readouterr().out.count("[PASS]") == 2
        assert asked == [2]

    def test_bad_shape_fails_its_file_only(self, tmp_path, capsys):
        (tmp_path / "a_bad.json").write_text('{"n": 2, "order": 4, "structure": []}')
        src = os.path.join(MANIFESTS, "fix_b.json")
        (tmp_path / "b_fix_b.json").write_text(open(src, encoding="utf-8").read())
        rc = main(["validate", str(tmp_path), "--jobs", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "spec error: $.structure: must be an object" in out
        assert out.count("[PASS]") == 1 and out.count("[FAIL]") == 1

    def test_bad_file_reports_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["validate", str(bad)])
        capsys.readouterr()
        assert rc == 1
