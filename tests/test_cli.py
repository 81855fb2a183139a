import json
import subprocess
import sys

import numpy as np
import pytest

import altproj
from altproj import divergence
from altproj.cli import main


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def two_lines(tmp_path):
    m1 = write(tmp_path / "m1.csv", "1,1\n")
    m2 = write(tmp_path / "m2.csv", "1,0\n")
    return m1, m2


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_two_line_alternation_converges_to_origin(self, tmp_path, two_lines, capsys):
        m1, m2 = two_lines
        out = tmp_path / "trace.csv"
        code, stdout, _ = run_main(capsys, [
            "run", "--spaces", m1, m2, "--schedule", "periodic:1,2",
            "--x0", "1,2", "--out", str(out)])
        assert code == 0
        report = json.loads(stdout)
        assert report["converged"] is True
        assert abs(report["final_residual"]) < 1e-10
        assert np.allclose(report["final_iterate"], [0.0, 0.0], atol=1e-9)
        lines = out.read_text().splitlines()
        assert lines[0] == "n,j_n,norm,increment,residual"
        assert len(lines) == report["steps_executed"] + 1

    def test_start_vector_may_begin_with_a_minus(self, tmp_path, two_lines, capsys):
        m1, m2 = two_lines
        reports = []
        for argv in (["--x0", "-1,2"], ["--x0=-1,2"], ["--x0", "-.5,2"]):
            code, stdout, stderr = run_main(capsys, [
                "run", "--spaces", m1, m2, "--schedule", "periodic:1,2", *argv,
                "--out", str(tmp_path / "t.csv")])
            assert code == 0, stderr
            reports.append(json.loads(stdout))
        assert reports[0] == reports[1]
        assert reports[0]["inputs"]["x0"] == [-1.0, 2.0]
        assert reports[2]["inputs"]["x0"] == [-0.5, 2.0]

    def test_file_schedule_traces_like_its_periodic_pattern(self, tmp_path, capsys):
        # three nearly parallel lines: the iterate shrinks too slowly to converge
        spaces = [write(tmp_path / "m1.csv", "1,0,0\n"),
                  write(tmp_path / "m2.csv", "1,0.01,0\n"),
                  write(tmp_path / "m3.csv", "1,0,0.01\n")]
        path = write(tmp_path / "seq.txt", ",".join(["1,2,3"] * 400) + "\n")
        reports, traces = [], []
        for spec in (f"file:{path}", "periodic:1,2,3"):
            out = tmp_path / f"{spec[:4]}.csv"
            code, stdout, _ = run_main(capsys, [
                "--max-steps", "1200", "run", "--spaces", *spaces, "--schedule", spec,
                "--x0", "1,2,3", "--out", str(out)])
            assert code == 2
            report = json.loads(stdout)
            del report["inputs"], report["outputs"]  # they name the spec and the trace path
            reports.append(report)
            traces.append(out.read_bytes())
        assert reports[0]["steps_executed"] == 1200
        assert reports[0] == reports[1]
        assert traces[0] == traces[1]

    def test_dimension_mismatch_exits_one(self, tmp_path, capsys):
        m1 = write(tmp_path / "a.csv", "1,0\n")
        m2 = write(tmp_path / "b.csv", "1,0,0\n")
        code, _, stderr = run_main(capsys, [
            "run", "--spaces", m1, m2, "--schedule", "periodic:1,2",
            "--x0", "1,2", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "error" in stderr

    def test_malformed_file_exits_one_with_location(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.csv", "1,0\noops,3\n")
        code, _, stderr = run_main(capsys, [
            "run", "--spaces", bad, bad, "--schedule", "periodic:1,2",
            "--x0", "1,2", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "bad.csv:2" in stderr

    def test_schedule_alphabet_must_match_the_spaces(self, tmp_path, two_lines, capsys):
        out = tmp_path / "t.csv"
        code, stdout, stderr = run_main(capsys, [
            "run", "--spaces", *two_lines, "--schedule", "ruler:3", "--x0", "1,2", "--out", str(out)])
        assert code == 1 and stdout == ""
        errors = [ln for ln in stderr.splitlines() if "error" in ln]
        assert len(errors) == 1 and "alphabet 1..3" in errors[0]
        assert not out.exists()

    def test_ruler_over_three_spaces(self, tmp_path, capsys):
        m1 = write(tmp_path / "m1.csv", "1,0,0\n0,1,0\n")
        m2 = write(tmp_path / "m2.csv", "0,1,1\n")
        m3 = write(tmp_path / "m3.csv", "1,0,1\n")
        code, stdout, _ = run_main(capsys, [
            "--tol", "1e-9", "run", "--spaces", m1, m2, m3,
            "--schedule", "ruler:3", "--x0", "1,2,3", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        report = json.loads(stdout)
        assert report["converged"] is True
        assert report["final_residual"] < 1e-6

    def test_subspace_entries_near_the_float64_limit(self, tmp_path, capsys):
        big = write(tmp_path / "big.csv", "1e308,1e308\n")
        code, stdout, _ = run_main(capsys, [
            "run", "--spaces", big, "--schedule", "periodic:1",
            "--x0=1,2", "--out", str(tmp_path / "t.csv")])
        assert code == 0
        assert np.allclose(json.loads(stdout)["final_iterate"], [1.5, 1.5], rtol=0, atol=1e-12)

    def test_overflowing_start_vector_is_refused(self, tmp_path, capsys):
        line = write(tmp_path / "l.csv", "1,0\n")
        plane = write(tmp_path / "m.csv", "0,1\n1,0\n")
        code, stdout, stderr = run_main(capsys, [
            "--max-steps", "5", "run", "--spaces", line, plane, "--schedule", "periodic:1,2",
            "--x0=1e308,1e308", "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert stdout == ""
        errors = [ln for ln in stderr.splitlines() if "error" in ln]
        assert len(errors) == 1 and "x0" in errors[0] and "overflows" in errors[0]

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "-1e-10"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, two_lines, capsys, tol):
        m1, m2 = two_lines
        out = tmp_path / "t.csv"
        code, stdout, stderr = run_main(capsys, [
            "--tol", tol, "run", "--spaces", m1, m2, "--schedule", "periodic:1,2",
            "--x0", "1,2", "--out", str(out)])
        assert code == 1 and stdout == ""
        errors = [ln for ln in stderr.splitlines() if "error" in ln]
        assert errors == [f"altproj: error: argument --tol: must be a finite positive number, got '{tol}'"]
        assert not out.exists()

    def test_max_steps_without_convergence_exits_two(self, tmp_path, two_lines, capsys):
        m1, m2 = two_lines
        code, stdout, _ = run_main(capsys, [
            "--max-steps", "3", "--tol", "1e-14", "run", "--spaces", m1, m2,
            "--schedule", "periodic:1,2", "--x0", "1,2", "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert json.loads(stdout)["converged"] is False


class TestKaczmarz:
    def test_orthogonal_system_in_one_sweep(self, tmp_path, capsys):
        system = write(tmp_path / "sys.txt", "2 2\n2 1 0 1\n3 1 1 1\n")
        out = tmp_path / "x.txt"
        code, stdout, _ = run_main(capsys, [
            "kaczmarz", system, "--x0", "0,0", "--out", str(out)])
        assert code == 0
        report = json.loads(stdout)
        assert report["converged"] is True
        assert report["steps_executed"] == 1
        x = [float(v) for v in out.read_text().split()]
        assert np.allclose(x, [2.0, 3.0])
        residuals = (tmp_path / "x.txt.residuals.csv").read_text().splitlines()
        assert residuals[0] == "sweep,residual"

    def test_dense_min_norm_matches_pseudoinverse(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((4, 7))
        c = a @ rng.standard_normal(7)
        lines = "\n".join(",".join(f"{v:.17g}" for v in list(row) + [rhs])
                          for row, rhs in zip(a, c))
        system = write(tmp_path / "dense.csv", lines + "\n")
        out = tmp_path / "x.txt"
        code, stdout, _ = run_main(capsys, [
            "--tol", "1e-12", "kaczmarz", system, "--dense", "--min-norm", "--out", str(out)])
        assert code == 0
        x = np.array([float(v) for v in out.read_text().split()])
        assert np.linalg.norm(x - np.linalg.pinv(a) @ c) < 1e-6

    def test_inconsistent_system_is_flagged(self, tmp_path, capsys):
        system = write(tmp_path / "sys.txt", "2 2\n0 1 0 1\n1 1 0 1\n")
        code, stdout, _ = run_main(capsys, [
            "kaczmarz", system, "--x0", "0,0", "--out", str(tmp_path / "x.txt")])
        assert code == 2
        assert json.loads(stdout)["suspected_inconsistent"] is True

    @pytest.mark.parametrize("big", ["1e200", "1e308"])
    def test_huge_dense_row_solves_to_the_true_point(self, tmp_path, capsys, big):
        # big (x1 + x2) = 1, x2 = 2: the solution is (1/big - 2, 2), not (0, 2)
        system = write(tmp_path / "big.csv", f"{big},{big},1\n0,1,2\n")
        out = tmp_path / "x.txt"
        code, stdout, _ = run_main(capsys, [
            "kaczmarz", system, "--dense", "--min-norm", "--out", str(out)])
        assert code == 0
        assert json.loads(stdout)["converged"] is True
        x = [float(v) for v in out.read_text().split()]
        assert np.allclose(x, [-2.0, 2.0], rtol=0, atol=1e-9)

    def test_rhs_overflowing_its_row_exits_one(self, tmp_path, capsys):
        system = write(tmp_path / "sys.csv", "1,0,1\n1e-300,0,1e300\n")
        code, stdout, stderr = run_main(capsys, [
            "kaczmarz", system, "--dense", "--min-norm", "--out", str(tmp_path / "x.txt")])
        assert code == 1 and stdout == ""
        assert "equation 2: right-hand side" in stderr

    def test_run_leaves_scipy_unloaded(self, tmp_path):
        # inconsistent, so the sweeps and the least-squares check both run
        system = write(tmp_path / "sys.txt", "2 2\n0 1 0 1\n1 1 0 1\n")
        script = ("import sys, altproj.cli; "
                  f"code = altproj.cli.main(['kaczmarz', {system!r}, '--min-norm', "
                  f"'--out', {str(tmp_path / 'x.txt')!r}]); "
                  "print(code, 'scipy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.splitlines()[-1] == "2 False"

    def test_start_vector_may_begin_with_a_minus(self, tmp_path, capsys):
        system = write(tmp_path / "sys.txt", "2 2\n2 1 0 1\n3 1 1 1\n")
        code, stdout, stderr = run_main(capsys, [
            "kaczmarz", system, "--x0", "-1,-4", "--out", str(tmp_path / "x.txt")])
        assert code == 0, stderr
        report = json.loads(stdout)
        assert report["inputs"]["x0"] == "-1,-4"
        x = [float(v) for v in (tmp_path / "x.txt").read_text().split()]
        assert np.allclose(x, [2.0, 3.0])

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        system = write(tmp_path / "sys.txt", "2 2\n2 1 0 1\n3 1 1 1\n")
        out = tmp_path / "x.txt"
        code, stdout, stderr = run_main(capsys, [
            "--tol", tol, "kaczmarz", system, "--min-norm", "--out", str(out)])
        assert code == 1 and stdout == ""
        errors = [ln for ln in stderr.splitlines() if "error" in ln]
        assert errors == [f"altproj: error: argument --tol: must be a finite positive number, got '{tol}'"]
        assert list(tmp_path.iterdir()) == [tmp_path / "sys.txt"]

    def test_missing_start_exits_one(self, tmp_path, capsys):
        system = write(tmp_path / "sys.txt", "2 1\n2 1 0 1\n")
        code, _, stderr = run_main(capsys, ["kaczmarz", system, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--x0 or --min-norm" in stderr

    def test_start_vector_and_min_norm_exclude_each_other(self, tmp_path, capsys):
        system = write(tmp_path / "sys.txt", "2 1\n2 1 0 1\n")
        out = tmp_path / "x"
        code, stdout, stderr = run_main(capsys, [
            "kaczmarz", system, "--x0", "5,5", "--min-norm", "--out", str(out)])
        assert code == 1
        assert stdout == ""
        assert "--min-norm: not allowed with argument --x0" in stderr
        assert not out.exists()


class TestAngle:
    def test_rate_table_for_the_two_lines(self, tmp_path, two_lines, capsys):
        m1, m2 = two_lines
        out = tmp_path / "rates.csv"
        code, stdout, _ = run_main(capsys, ["angle", m1, m2, "--n", "5", "--out", str(out)])
        assert code == 0
        report = json.loads(stdout)
        assert report["friedrichs_cosine"] == pytest.approx(np.sqrt(0.5), abs=1e-10)
        assert report["max_abs_err"] < 1e-8
        rows = out.read_text().splitlines()
        assert rows[0] == "n,measured,predicted,abs_err"
        assert len(rows) == 6

    def test_identical_spaces_give_zero(self, tmp_path, capsys):
        m = write(tmp_path / "m.csv", "1,0\n")
        code, stdout, _ = run_main(capsys, ["angle", m, m, "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert json.loads(stdout)["friedrichs_cosine"] == 0.0

    def test_orthogonal_lines_give_zero(self, tmp_path, capsys):
        m1 = write(tmp_path / "m1.csv", "1,0\n")
        m2 = write(tmp_path / "m2.csv", "0,1\n")
        code, stdout, _ = run_main(capsys, ["angle", m1, m2, "--out", str(tmp_path / "r.csv")])
        assert code == 0
        assert json.loads(stdout)["friedrichs_cosine"] == 0.0


class TestDiverge:
    def test_budget_violation_exits_one(self, tmp_path, capsys):
        code, _, stderr = run_main(capsys, [
            "diverge", "--K", "2", "--eps", "0.2,0.2", "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert "1/2" in stderr

    @pytest.mark.parametrize("eps, cause", [
        ("1/2/3,1/64", "Invalid literal for Fraction: '1/2/3'"),
        ("nan,1/64", "Invalid literal for Fraction: 'nan'"),
        ("1e999999999,1/64", "outside float64 range"),
        ("1/0,1/64", "zero denominator"),
    ])
    def test_malformed_accuracy_list_names_the_token(self, tmp_path, capsys, eps, cause):
        code, stdout, stderr = run_main(capsys, [
            "diverge", "--K", "2", "--eps", eps, "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert stdout == ""
        errors = [ln for ln in stderr.splitlines() if "error" in ln]
        assert len(errors) == 1 and cause in errors[0]

    def test_desk_scale_default_eps_reports_cap(self, tmp_path, capsys):
        code, _, stderr = run_main(capsys, [
            "diverge", "--K", "2", "--eps", "1/32,1/64", "--r-cap", "1000000",
            "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert "triple 1" in stderr
        assert "cap" in stderr

    def test_stated_budgets_report_strict_json(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, stdout, stderr = run_main(capsys, [
            "diverge", "--K", "2", "--eps", "1/32,1/64", "--sakai", "--out", str(out)])
        assert code == 0, stderr

        def reject(token):
            raise ValueError(f"non-finite number {token} in the report")

        report = json.loads(stdout, parse_constant=reject)
        assert out.read_text(encoding="utf-8") == stdout
        assert report["inputs"]["r_cap"] is None
        # exponents past 600 digits come as exact digit strings
        r_top, s_top = report["triples"][1]["r"][-1], report["triples"][1]["s"][0]
        assert isinstance(r_top, int) and r_top.bit_length() == 942
        assert isinstance(s_top, str) and s_top.isdigit() and len(s_top) == 22781
        assert report["non_cauchy_gap"] > 1.0
        assert report["sakai_constant"] > 2.0
        rows = (tmp_path / "c.json.trace.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 3
        assert rows[2].split(",")[1] == report["checkpoints"][1]

    def test_checkpoint_trace_measures_distance_to_target(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code, _, stderr = run_main(capsys, [
            "diverge", "--K", "2", "--eps", "0.06,0.06", "--out", str(out)])
        assert code == 0, stderr
        rows = (tmp_path / "c.json.trace.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "checkpoint,n,norm,err_to_target"
        errors = [float(row.split(",")[3]) for row in rows[1:]]
        c = divergence.glue(2, [0.06, 0.06])
        assert errors == [float(np.linalg.norm(c.checkpoint_states[i] - c.e[i + 1]))
                          for i in range(2)]
        # checkpoint 2 carries the error of both words, not word 2's alone (0.0626)
        assert errors[1] == pytest.approx(0.1213, abs=1e-3)

    def test_import_leaves_mpmath_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, altproj.cli; print('mpmath' in sys.modules)"],
            capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "False"


class TestThirds:
    def test_metre_string_three_iterations(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, stdout, _ = run_main(capsys, [
            "thirds", "0.5", "0.3", "0.2", "--n", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(stdout)
        assert report["bound_ok"] is True
        assert abs(report["final_positions"][0] - 1 / 3) < 0.011
        rows = out.read_text().splitlines()
        assert rows[0] == "k,left,right,left_dev,right_dev"
        assert len(rows) == 5

    def test_table_bytes_are_pinned(self, tmp_path, capsys):
        table = ("k,left,right,left_dev,right_dev\n"
                 "0,0.5,0.80000000000000004,0.16666666666666669,0.13333333333333341\n"
                 "1,0.375,0.75,0.041666666666666685,0.08333333333333337\n"
                 "2,0.34375,0.6875,0.010416666666666685,0.02083333333333337\n"
                 "3,0.3359375,0.671875,0.0026041666666666852,0.0052083333333333703\n")
        out = tmp_path / "table.csv"
        run_main(capsys, ["thirds", "0.5", "0.3", "0.2", "--n", "3", "--out", str(out)])
        assert out.read_bytes() == table.encode()
        # without --out the same table goes to stderr
        code, _, stderr = run_main(capsys, ["thirds", "0.5", "0.3", "0.2", "--n", "3"])
        assert code == 0 and stderr.startswith(table)

    def test_zero_iterations_echoes_input(self, tmp_path, capsys):
        code, stdout, _ = run_main(capsys, ["thirds", "0.2", "0.3", "0.5", "--n", "0"])
        assert code == 0
        report = json.loads(stdout)
        assert report["final_positions"] == [0.2, 0.5]

    def test_non_positive_length_exits_one(self, capsys):
        code, _, stderr = run_main(capsys, ["thirds", "0.0", "0.3", "0.5"])
        assert code == 1
        assert "positive" in stderr


class TestDeterminism:
    def invoke(self, tmp_path):
        out = tmp_path / "trace.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "altproj.cli", "--seed", "7", "run",
             "--spaces", str(tmp_path / "m1.csv"), str(tmp_path / "m2.csv"),
             "--schedule", "periodic:1,2", "--x0", "1,2", "--out", str(out)],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0
        return proc.stdout, out.read_bytes()

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        write(tmp_path / "m1.csv", "1,1\n")
        write(tmp_path / "m2.csv", "1,0\n")
        first = self.invoke(tmp_path)
        second = self.invoke(tmp_path)
        assert first[0] == second[0]
        assert first[1] == second[1]


class TestLazyLoading:
    def child(self, script):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, check=True)
        return proc.stdout.splitlines()[-1]

    def test_import_loads_no_subcommand_module(self):
        unloaded = ["altproj.divergence", "altproj.kaczmarz", "altproj.analysis",
                    "altproj._intrinsic", "fractions"]
        script = f"import sys, altproj.cli; print([m for m in {unloaded!r} if m in sys.modules])"
        assert self.child(script) == "[]"

    def test_run_leaves_divergence_unloaded(self, tmp_path, two_lines):
        m1, m2 = two_lines
        script = ("import sys, altproj.cli; "
                  f"code = altproj.cli.main(['run', '--spaces', {m1!r}, {m2!r}, "
                  f"'--schedule', 'periodic:1,2', '--x0', '1,2', "
                  f"'--out', {str(tmp_path / 't.csv')!r}]); "
                  "print(code, 'altproj.divergence' in sys.modules)")
        assert self.child(script) == "0 False"

    def test_exports_are_their_submodules_objects(self):
        # in a fresh interpreter, so every name resolves through the lazy hook
        script = ("import importlib, sys, altproj; "
                  "bad = [n for n in altproj.__all__ if getattr(altproj, n) is not "
                  "getattr(sys.modules[getattr(altproj, n).__module__], n)]; "
                  "bad += [m for m in ('analysis', 'divergence', 'iteration', 'kaczmarz', "
                  "'linalg', 'schedules', 'words') "
                  "if getattr(altproj, m) is not importlib.import_module('altproj.' + m)]; "
                  "print(bad, set(altproj.__all__) <= set(dir(altproj)), hasattr(altproj, 'nope'))")
        assert self.child(script) == "[] True False"
        assert {"run", "Schedule", "glue", "Word", "solve"} <= set(altproj.__all__)
