import json
import subprocess
import sys

import numpy as np
import pytest

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

    def test_missing_start_exits_one(self, tmp_path, capsys):
        system = write(tmp_path / "sys.txt", "2 1\n2 1 0 1\n")
        code, _, stderr = run_main(capsys, ["kaczmarz", system, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--x0 or --min-norm" in stderr


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
