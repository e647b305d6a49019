"""Command-line interface: subcommands, formats, exit codes."""
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tlsekit
from conftest import extreme_problem
from tlsekit import (
    GeneratorSpec,
    TlseProblem,
    condition_report,
    emit_table,
    gen_equilibratory,
    generate,
    load_problem,
    save_problem,
    solve_nwtls,
    table1,
    table2,
    table3,
)
from tlsekit.cli import build_parser, main
from tlsekit.errors import InputError


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


class TestFloatExtremes:
    @pytest.mark.parametrize("scale", [1e-160, 1e-155, 1e155, 1e160])
    @pytest.mark.parametrize(
        "argv", [["solve"], ["solve", "--method", "closed"], ["cond"]]
    )
    def test_out_of_range_data_are_one_line_numerical_failures(
        self, capsys, tmp_path, argv, scale
    ):
        path = str(tmp_path / "scaled.npz")
        save_problem(extreme_problem(scale), path)
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: ")

    def test_in_range_data_solve(self, capsys, tmp_path):
        path = str(tmp_path / "scaled.npz")
        save_problem(extreme_problem(1e150), path)
        for method in ("qr-svd", "closed", "nwtls"):
            code, out, err = run(
                capsys, "solve", "--input", path, "--method", method,
                "--format", "json",
            )
            assert (code, err) == (0, "")
            assert np.isfinite(json.loads(out)["x[0]"])


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

    def test_compact_is_not_a_mode(self, capsys, equilibratory_file):
        # it named the exact report and changed nothing
        with pytest.raises(SystemExit) as exc:
            main(["cond", "--input", equilibratory_file, "--mode", "compact"])
        assert exc.value.code == 2
        assert "invalid choice: 'compact'" in capsys.readouterr().err

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
    def test_table1_without_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "table1", "--kappa-c", "1e2", "--trials", trials)
        assert code == 2
        assert out == ""
        assert err == f"error: trials must be at least 1, got {trials}\n"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_table2_without_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(
            capsys, "table2", "--m", "14", "--delta", "1e-3", "--trials", trials
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: trials must be at least 1")

    @pytest.mark.parametrize(
        "argv",
        [
            ("table1",),
            ("table3", "--a", "0.5"),
            ("gen", "--kind", "equilibratory", "--out", "unused.npz"),
        ],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        # seed -3 would otherwise draw seed 3's stream
        code, out, err = run(capsys, *argv, "--seed", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be non-negative, got -3\n"

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

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("table1", "--kappa-c", ""), "kappas"),
            (("table2", "--m", ","), "ms"),
            (("table2", "--m", "14", "--delta", ""), "deltas"),
            (("table3", "--a", ""), "a_list"),
        ],
    )
    def test_empty_list_argument_is_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {name} must list at least one value\n"

    def test_bad_list_argument_is_usage_error(self, capsys):
        code, _, err = run(capsys, "table1", "--kappa-c", "1e2,junk")
        assert code == 2
        assert "error:" in err


class TestLibraryDefaults:
    """An option left out takes the default of the library call it feeds:
    each command matches that call, bit for bit, or byte for byte through
    emit_table or JSON."""

    @pytest.mark.parametrize(
        "table, argv, kwargs",
        [
            (table1, (), {}),
            (
                table2,
                ("--m", "14", "--delta", "1e-3", "--trials", "2"),
                {"ms": [14], "deltas": [1e-3], "trials": 2},
            ),
            (table3, (), {}),
        ],
        ids=["table1", "table2", "table3"],
    )
    def test_table_json(self, capsys, table, argv, kwargs):
        code, out, err = run(capsys, table.__name__, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert out == emit_table(table(**kwargs), "json") + "\n"

    def test_format_defaults_to_emit_tables(self, capsys):
        code, out, _ = run(capsys, "table1", "--kappa-c", "1e2")
        assert code == 0
        assert out == emit_table(table1(kappas=[1e2]))

    @pytest.mark.parametrize(
        "kind, argv, kwargs",
        [
            ("equilibratory", ("--seed", "3"), {"seed": 3}),
            ("householder_spectrum", ("--seed", "3"), {"seed": 3}),
            ("householder_spectrum", ("--seed", "3", "--m", "30"), dict(seed=3, m=30)),
            ("piecewise_poly", ("--seed", "3"), {"seed": 3}),
            ("piecewise_poly", (), {}),
        ],
        ids=["equilibratory", "householder_unsized", "householder", "piecewise_poly",
             "piecewise_poly_unseeded"],
    )
    def test_gen(self, capsys, tmp_path, kind, argv, kwargs):
        # householder_spectrum needs a size: both entry points reject it alike
        path = tmp_path / "gen.npz"
        code, out, err = run(capsys, "gen", "--kind", kind, *argv, "--out", str(path))
        spec = GeneratorSpec(kind=kind, **kwargs)
        try:
            expected = generate(spec)
        except InputError as exc:
            assert (code, out, err) == (2, "", f"error: {exc}\n")
            return
        assert (code, err) == (0, "")
        with np.load(path, allow_pickle=False) as npz:
            assert json.loads(npz["meta"][()]) == {"kind": kind, "seed": spec.seed}
            for name in ("C", "d", "A", "b"):
                want = getattr(expected, name)
                assert npz[name].shape == want.shape
                assert npz[name].tobytes() == want.tobytes(), name

    def test_solve_nwtls(self, capsys, equilibratory_file):
        code, out, _ = run(capsys, "solve", "--input", equilibratory_file,
                           "--method", "nwtls", "--format", "json")
        assert code == 0
        x = solve_nwtls(load_problem(equilibratory_file))
        assert json.loads(out) == {f"x[{i}]": float(v) for i, v in enumerate(x)}

    def test_cond(self, capsys, equilibratory_file):
        code, out, _ = run(
            capsys, "cond", "--input", equilibratory_file, "--format", "json"
        )
        assert code == 0
        report = condition_report(load_problem(equilibratory_file))
        expected = {
            f.name: getattr(report, f.name)
            for f in fields(report)
            if f.name.startswith("kappa_")
        }
        expected |= {
            "alpha": report.weights.alpha,
            "beta": report.weights.beta,
            "method": report.method,
        }
        assert json.loads(out) == expected


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
