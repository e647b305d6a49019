"""Command-line interface: subcommands, formats, exit codes."""
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tlsekit
from tlsekit import GeneratorSpec, TlseProblem, gen_equilibratory, save_problem
from tlsekit.cli import build_parser, main


@pytest.fixture()
def hand_file(tmp_path):
    problem = TlseProblem(C=[[1.0, 0.0]], d=[2.0], A=np.eye(2), b=[2.0, 3.0])
    path = tmp_path / "hand.npz"
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
    path = tmp_path / "degenerate.npz"
    save_problem(problem, path)
    return str(path)


@pytest.fixture()
def equilibratory_file(tmp_path):
    path = tmp_path / "equilibratory.npz"
    save_problem(gen_equilibratory(GeneratorSpec(kind="equilibratory", seed=1)), path)
    return str(path)


A_AND_B = '"A": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "b": [2.0, 3.0, 4.0]}'


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
        out_file = str(tmp_path / "generated.npz")
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
            capsys, "solve", "--input", str(tmp_path / "absent.npz")
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        code, _, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_is_usage_error(self, capsys, tmp_path, token):
        path = tmp_path / "non_finite.json"
        path.write_text(
            '{"C": [[1.0, 0.0]], "d": [2.0], '
            f'"A": [[1.0, 0.0], [0.0, {token}]], "b": [2.0, 3.0]}}'
        )
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert out == ""
        assert "error:" in err and "non-finite" in err

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"A": [[1.0], [0.0, 1.0]], "b": [1.0, 1.0]}', "A"),
            ('{"A": [["x"], [0.0]], "b": [1.0, 1.0]}', "A"),
            ("3", None),
            (
                '{"C": [[1.0, 0.0]], "d": 5, "A": [[1.0, 0.0], [0.0, 1.0]], '
                '"b": [2.0, 3.0]}',
                "d",
            ),
            (
                '{"C": [[1.0, 0.0]], "d": [2.0], "A": [[1.0, 0.0], [0.0, 1.0]], '
                '"b": "abc"}',
                "b",
            ),
            # a present C or d that is falsy is not "no constraint": without
            # them A_AND_B is a valid problem
            ('{"C": 0, ' + A_AND_B, "C"),
            ('{"C": "", ' + A_AND_B, "C"),
            ('{"C": {}, ' + A_AND_B, "C"),
            ('{"C": false, ' + A_AND_B, "C"),
            ('{"d": false, ' + A_AND_B, "d"),
            ('{"d": "", ' + A_AND_B, "d"),
        ],
        ids=[
            "ragged-A", "non-numeric-A", "top-level-number", "scalar-d", "string-b",
            "zero-C", "empty-string-C", "empty-object-C", "false-C", "false-d",
            "empty-string-d",
        ],
    )
    def test_malformed_problem_file_is_usage_error(
        self, capsys, tmp_path, text, field
    ):
        path = tmp_path / "malformed.json"
        path.write_text(text)
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err
        assert str(path) in err
        if field is not None:
            assert f"field {field} " in err

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_compact_prints_the_exact_report(self, capsys, equilibratory_file, fmt):
        # --mode compact is kept as another name of the exact report
        outputs = [
            run(capsys, "cond", "--input", equilibratory_file, "--mode", mode,
                "--alpha", "10", "--format", fmt)
            for mode in ("compact", "exact")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][2] == ""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha", "1e-200"),
            ("--alpha", "1e-160"),
            ("--alpha", "1e200"),
            ("--alpha", "inf"),
            ("--alpha", "nan"),
            ("--beta", "inf"),
            ("--beta", "0"),
        ],
    )
    def test_weights_outside_float_range_are_usage_errors(
        self, capsys, equilibratory_file, flag, value
    ):
        # past these weights the formulas divide by zero or overflow; the
        # rejection must come before any of them runs, with no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys, "cond", "--input", equilibratory_file, flag, value
            )
        assert code == 2
        assert out == ""
        assert err.startswith("error: weights must be positive")
        assert err.count("\n") == 1
        assert caught == []

    @pytest.mark.parametrize("flag, value", [("--alpha", "1e-100"), ("--beta", "1e150")])
    def test_extreme_weights_inside_float_range(
        self, capsys, equilibratory_file, flag, value
    ):
        code, out, err = run(
            capsys, "cond", "--input", equilibratory_file, flag, value,
            "--format", "json",
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert all(
            np.isfinite(v) and v > 0 for k, v in payload.items() if k.startswith("kappa")
        )


class TestGen:
    def test_writes_problem_with_meta(self, capsys, tmp_path):
        out_file = tmp_path / "pp.npz"
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
        with np.load(out_file, allow_pickle=False) as npz:
            assert json.loads(npz["meta"][()]) == {"kind": "piecewise_poly", "seed": 3}
            assert npz["A"].shape == (70, 8)

    def test_gen_then_solve_pipeline(self, capsys, tmp_path):
        out_file = str(tmp_path / "spectrum.npz")
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

    @pytest.mark.parametrize(
        "flag, value, name", [("--n", "0", "n=0"), ("--q", "0", "q=0")]
    )
    def test_equilibratory_size_is_usage_error(
        self, capsys, tmp_path, flag, value, name
    ):
        # the sizes are checked before the first draw: no NumPy traceback
        # (n = 0) and no 100 rejected draws ending in exit 3 (q = 0)
        out_file = tmp_path / "bad.npz"
        code, out, err = run(
            capsys, "gen", "--kind", "equilibratory", flag, value,
            "--out", str(out_file),
        )
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert name in err
        assert not out_file.exists()


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

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_table2_without_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(
            capsys, "table2", "--m", "14", "--delta", "1e-3", "--trials", trials
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: trials must be at least 1")

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

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("table1", "--kappa-c", "nan"), "kappa_c"),
            (("table1", "--kappa-c", "inf"), "kappa_c"),
            (("table1", "--scale", "nan"), "scale"),
            (("table1", "--scale", "inf"), "scale"),
            (("table2", "--m", "14", "--delta", "nan"), "delta"),
        ],
    )
    def test_non_finite_parameters_are_usage_errors(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} must be finite")

    @pytest.mark.parametrize(
        "argv",
        [
            ("table2", "--m", "14", "--delta", "1e-3", "--trials", "2"),
            ("solve", "--method", "nwtls"),
        ],
    )
    def test_overflowing_eps_is_usage_error(self, capsys, hand_file, argv):
        if argv[0] == "solve":
            argv += ("--input", hand_file)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--eps", "1e-320")
        assert code == 2
        assert out == ""
        assert err == "error: eps 1e-320 is too small: [C d]/eps overflows\n"

    def test_bad_list_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table1", "--kappa-c", "1e2,junk")
        assert code == 2
        assert "error:" in err


class TestRepeatedMain:
    """main called again and again in one process: the parser is built
    once, and no call may see the state of an earlier one."""

    CALLS = [
        ("table1", "--seed", "5"),
        ("table1",),
        ("table1", "--trials", "x"),  # argparse usage error, exit 2
        ("table1",),
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_each_output_matches_a_fresh_parser(self, capsys):
        repeated = [self.call(capsys, argv) for argv in self.CALLS]
        assert [code for code, _, _ in repeated] == [0, 0, 2, 0]
        assert "invalid int value" in repeated[2][2]
        for argv, result in zip(self.CALLS, repeated):
            build_parser.cache_clear()
            assert self.call(capsys, argv) == result
        assert build_parser() is build_parser()


class TestClosedStdout:
    def test_reader_gone_exits_1_without_traceback(self, hand_file):
        # as in `tlse solve ... | true`: the pipe has no reader when the
        # process writes, so the write fails with a broken pipe
        src = Path(tlsekit.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tlsekit", "solve", "--input", hand_file,
                 "--format", "json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1
