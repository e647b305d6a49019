"""Command-line interface: subcommands, formats, exit codes."""
import json

import numpy as np
import pytest

from tlsekit import TlseProblem, save_problem
from tlsekit.cli import main


@pytest.fixture()
def hand_file(tmp_path):
    problem = TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0])
    path = tmp_path / "hand.json"
    save_problem(problem, path)
    return str(path)


@pytest.fixture()
def degenerate_file(tmp_path):
    problem = TlseProblem(
        C=np.zeros((0, 1)),
        d=np.zeros(0),
        A=np.array([[1.0], [0.0]]),
        b=np.array([0.0, 1.0]),
    )
    path = tmp_path / "degenerate.json"
    save_problem(problem, path)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_csv_output(self, capsys, hand_file):
        code, out, _ = run(capsys, "solve", "--input", hand_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        values = dict(line.split(",", 1) for line in lines[1:])
        assert float(values["x[0]"]) == pytest.approx(2.0, abs=1e-12)
        assert float(values["x[1]"]) == pytest.approx(3.0, abs=1e-12)
        assert float(values["sigma_min"]) == pytest.approx(0.0, abs=1e-12)
        assert values["warnings"] == ""

    def test_closed_form_json(self, capsys, hand_file):
        code, out, _ = run(
            capsys,
            "solve",
            "--input",
            hand_file,
            "--method",
            "closed",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["x[0]"] == pytest.approx(2.0, abs=1e-12)
        assert payload["x[1]"] == pytest.approx(3.0, abs=1e-12)

    def test_randomized_method(self, capsys, tmp_path):
        out_file = str(tmp_path / "generated.json")
        code, _, _ = run(
            capsys, "gen", "--kind", "equilibratory", "--seed", "2",
            "--out", out_file,
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "solve",
            "--input",
            out_file,
            "--method",
            "nwtls",
            "--format",
            "json",
        )
        assert code == 0
        randomized = json.loads(out)
        code, out, _ = run(
            capsys, "solve", "--input", out_file, "--format", "json"
        )
        reference = json.loads(out)
        for key in (k for k in reference if k.startswith("x[")):
            assert randomized[key] == pytest.approx(reference[key], abs=1e-8)

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "solve", "--input", str(tmp_path / "absent.json")
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert "error:" in err

    def test_degenerate_problem_is_numerical_failure(
        self, capsys, degenerate_file
    ):
        code, _, err = run(capsys, "solve", "--input", degenerate_file)
        assert code == 3
        assert "numerical failure:" in err

    def test_singular_stack_under_nwtls(self, capsys, hand_file):
        # consistent data: the randomized route cannot invert the stack
        code, _, err = run(
            capsys, "solve", "--input", hand_file, "--method", "nwtls"
        )
        assert code == 3
        assert "numerical failure:" in err


class TestCond:
    def test_json_report(self, capsys, hand_file):
        code, out, _ = run(
            capsys, "cond", "--input", hand_file, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa_n"] == pytest.approx(4.640954808922571, rel=1e-9)
        assert payload["method"] == "exact"
        assert payload["kappa_n"] <= payload["kappa_n_upper"]

    def test_upper_mode_and_weights(self, capsys, hand_file):
        code, out, _ = run(
            capsys,
            "cond",
            "--input",
            hand_file,
            "--mode",
            "upper",
            "--alpha",
            "10",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "bound"
        assert payload["alpha"] == 10.0
        assert payload["kappa_m"] == payload["kappa_m_upper"]


class TestGen:
    def test_writes_problem_with_meta(self, capsys, tmp_path):
        out_file = tmp_path / "pp.json"
        code, out, _ = run(
            capsys,
            "gen",
            "--kind",
            "piecewise_poly",
            "--a",
            "0.4",
            "--m-pts",
            "30",
            "--n-pts",
            "70",
            "--seed",
            "3",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert out.strip() == str(out_file)
        payload = json.loads(out_file.read_text())
        assert payload["meta"] == {"kind": "piecewise_poly", "seed": 3}
        assert len(payload["A"]) == 70

    def test_gen_then_solve_pipeline(self, capsys, tmp_path):
        out_file = str(tmp_path / "spectrum.json")
        code, _, _ = run(
            capsys,
            "gen",
            "--kind",
            "householder_spectrum",
            "--m",
            "30",
            "--seed",
            "4",
            "--out",
            out_file,
        )
        assert code == 0
        code, out, _ = run(capsys, "solve", "--input", out_file)
        assert code == 0
        assert out.startswith("field,value")


class TestTables:
    def test_table1_csv(self, capsys):
        code, out, _ = run(
            capsys, "table1", "--kappa-c", "1e2", "--seed", "1"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("label,fwd_err_2")
        assert len(lines) == 2
        assert lines[1].startswith("kC=1e+02")

    def test_table2_json_and_determinism(self, capsys):
        argv = (
            "table2", "--m", "14", "--delta", "1e-3", "--trials", "2",
            "--seed", "1", "--format", "json",
        )
        code, first, _ = run(capsys, *argv)
        assert code == 0
        rows = json.loads(first)
        assert len(rows) == 1
        assert rows[0]["nwtls_dev"] is not None
        code, second, _ = run(capsys, *argv)
        assert code == 0
        assert first == second

    def test_table3_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "table3",
            "--a",
            "0.5",
            "--m-pts",
            "30",
            "--n-pts",
            "70",
            "--seed",
            "1",
        )
        assert code == 0
        assert out.splitlines()[1].startswith("a=0.5")

    def test_bad_list_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table1", "--kappa-c", "1e2,junk")
        assert code == 2
        assert "error:" in err
