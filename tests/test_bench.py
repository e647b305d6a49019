"""Generators, perturbation harness, table emission, and persistence."""
import io
import json
import math

import numpy as np
import pytest

import tlsekit.bench
from tlsekit import (
    GeneratorSpec,
    PerturbationSample,
    TlseProblem,
    apply_sample,
    emit_table,
    gen_equilibratory,
    gen_householder_spectrum,
    gen_piecewise_poly,
    generate,
    load_problem,
    parse_table,
    perturb,
    run_experiment,
    save_problem,
    solve_qr_svd,
    table1,
    table2,
    table3,
)
from tlsekit.bench import TABLE_COLUMNS, ExperimentRow, derive_seed, format_sci
from tlsekit.cli import main as cli_main
from tlsekit.conditioning import _max_ratio
from tlsekit.core import build_basis, check_genericity
from tlsekit.errors import InputError
from table2_oracle import table2_per_trial


def seeded_problem(seed: int, p: int = 3, n: int = 8, q: int = 15) -> TlseProblem:
    rng = np.random.default_rng(seed)
    return TlseProblem(
        C=rng.standard_normal((p, n)),
        d=rng.standard_normal(p),
        A=rng.standard_normal((q, n)),
        b=rng.standard_normal(q),
    )


def zero_sample(problem: TlseProblem) -> PerturbationSample:
    return PerturbationSample(
        dL=np.zeros((problem.m, problem.n)),
        dh=np.zeros(problem.m),
        scale=0.0,
        mode="normwise",
    )


class TestGeneratorSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="gaussian")

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            GeneratorSpec(kind="equilibratory", kappa_c=1.0)
        with pytest.raises(InputError):
            GeneratorSpec(kind="householder_spectrum", delta=0.0)
        with pytest.raises(InputError):
            GeneratorSpec(kind="piecewise_poly", knot=1.0)

    @pytest.mark.parametrize("name", ["kappa_c", "delta"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameters(self, name, value):
        # nan fails every comparison, so only a finiteness check rejects it
        with pytest.raises(InputError, match=name):
            GeneratorSpec(kind="equilibratory", **{name: value})

    @pytest.mark.parametrize("name", ["p", "q", "n", "m", "m_pts", "n_pts", "seed"])
    @pytest.mark.parametrize("value", [2.5, 30.0, True, "3"])
    def test_rejects_non_integer_sizes_and_seed(self, name, value):
        # a float seed would silently draw the problem of its integer part,
        # and a float size end in a bare NumPy TypeError
        with pytest.raises(InputError, match=f"^{name} must be an integer"):
            GeneratorSpec(kind="householder_spectrum", **{name: value})

    def test_accepts_numpy_integers(self):
        spec = GeneratorSpec(kind="householder_spectrum", m=np.int64(30), seed=np.uint32(5))
        want = generate(GeneratorSpec(kind="householder_spectrum", m=30, seed=5))
        assert np.array_equal(generate(spec).A, want.A)

    @pytest.mark.parametrize("name", ["p", "q", "n", "m", "m_pts", "n_pts"])
    def test_rejects_negative_sizes(self, name):
        # -1 rows would otherwise reach NumPy, or slice rows off a stack
        with pytest.raises(InputError, match=f"^{name} must be non-negative"):
            GeneratorSpec(kind="householder_spectrum", **{name: -1})


class TestDeriveSeed:
    @pytest.mark.parametrize("seed", [2.5, 2.0, True])
    def test_rejects_a_non_integer_seed(self, seed):
        # so perturb(..., seed=2.5) does not silently draw seed 2's sample
        with pytest.raises(InputError, match="^seed must be an integer"):
            derive_seed(seed, 1)
        with pytest.raises(InputError, match="^seed must be an integer"):
            perturb(seeded_problem(0), "normwise", 1e-8, seed=seed)

    def test_deterministic_and_key_sensitive(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)

    def test_rejects_a_negative_seed(self):
        # so seed -3 does not silently draw seed 3's stream
        with pytest.raises(InputError, match="^seed must be non-negative"):
            derive_seed(-3)
        with pytest.raises(InputError, match="^seed must be non-negative"):
            generate(GeneratorSpec(kind="equilibratory", seed=-3))
        with pytest.raises(InputError, match="^seed must be non-negative"):
            table1(seed=-3)


class TestEquilibratory:
    def test_constraint_condition_number_is_exact(self):
        for kappa in (1e2, 1e6):
            spec = GeneratorSpec(kind="equilibratory", kappa_c=kappa, seed=1)
            problem = gen_equilibratory(spec)
            assert np.linalg.cond(problem.aug_constraint()) == pytest.approx(
                kappa, rel=1e-10
            )

    def test_default_dimensions(self):
        problem = gen_equilibratory(GeneratorSpec(kind="equilibratory", seed=0))
        assert (problem.p, problem.q, problem.n) == (5, 20, 15)
        assert problem.A.min() >= 0.0 and problem.A.max() < 1.0

    def test_deterministic(self):
        spec = GeneratorSpec(kind="equilibratory", seed=42)
        first = gen_equilibratory(spec)
        second = gen_equilibratory(spec)
        np.testing.assert_array_equal(first.C, second.C)
        np.testing.assert_array_equal(first.b, second.b)

    def test_rejects_tiny_constraint_block(self):
        with pytest.raises(InputError):
            gen_equilibratory(GeneratorSpec(kind="equilibratory", p=1, seed=0))

    @pytest.mark.parametrize(
        "sizes, match",
        [
            ({"n": 0}, "p < n, got p=5, n=0"),
            ({"p": 4, "n": 4}, "p < n, got p=4, n=4"),
            ({"q": 0}, "q >= n - p \\+ 1 = 11, got q=0"),
            ({"p": 2, "q": 13}, "q >= n - p \\+ 1 = 14, got q=13"),
        ],
    )
    def test_rejects_sizes_before_drawing(self, sizes, match):
        with pytest.raises(InputError, match=match):
            gen_equilibratory(GeneratorSpec(kind="equilibratory", seed=0, **sizes))

    def test_smallest_sizes_draw(self):
        problem = gen_equilibratory(
            GeneratorSpec(kind="equilibratory", p=2, q=14, n=15, seed=0)
        )
        assert (problem.p, problem.q, problem.n) == (2, 14, 15)

    def test_generic_on_almost_every_seed(self):
        good = 0
        for seed in range(100):
            problem = gen_equilibratory(
                GeneratorSpec(kind="equilibratory", seed=seed)
            )
            core = check_genericity(build_basis(problem))
            good += core.satisfied
        assert good >= 99


class TestHouseholderSpectrum:
    def test_prescribed_singular_values(self):
        spec = GeneratorSpec(kind="householder_spectrum", m=50, delta=1e-3, seed=2)
        problem = gen_householder_spectrum(spec)
        assert (problem.p, problem.n, problem.m) == (5, 10, 50)
        stack = np.hstack([problem.L, problem.h[:, None]])
        values = np.linalg.svd(stack, compute_uv=False)
        expected = np.concatenate([np.arange(10, 0, -1.0), [1e-3]])
        np.testing.assert_allclose(values, expected, atol=1e-10)

    def test_explicit_dimensions(self):
        spec = GeneratorSpec(
            kind="householder_spectrum", p=2, q=12, n=6, delta=1e-2, seed=3
        )
        problem = gen_householder_spectrum(spec)
        assert (problem.p, problem.q, problem.n) == (2, 12, 6)

    def test_requires_m_or_full_dims(self):
        with pytest.raises(InputError):
            gen_householder_spectrum(
                GeneratorSpec(kind="householder_spectrum", p=2, seed=0)
            )
        with pytest.raises(InputError):
            gen_householder_spectrum(
                GeneratorSpec(kind="householder_spectrum", m=10, n=12, seed=0)
            )


class TestPiecewisePoly:
    def test_structure(self):
        spec = GeneratorSpec(
            kind="piecewise_poly", knot=0.5, m_pts=30, n_pts=70, seed=1
        )
        problem = gen_piecewise_poly(spec)
        assert problem.C.shape == (2, 8)
        assert problem.A.shape == (70, 8)
        np.testing.assert_array_equal(problem.d, [0.0, 0.0])
        np.testing.assert_allclose(
            problem.C,
            [
                [1, 0.5, 0.25, 0.125, -1, -0.5, -0.25, -0.125],
                [0, 1, 1, 0.75, 0, -1, -1, -0.75],
            ],
        )
        # left samples touch only the first cubic, right samples the second
        np.testing.assert_array_equal(problem.A[:30, 4:], 0.0)
        np.testing.assert_array_equal(problem.A[30:, :4], 0.0)

    def test_sample_points_split_at_knot(self):
        spec = GeneratorSpec(
            kind="piecewise_poly", knot=0.3, m_pts=25, n_pts=60, seed=2
        )
        problem = gen_piecewise_poly(spec)
        left_t = problem.A[:25, 1]
        right_t = problem.A[25:, 5]
        assert left_t.max() < 0.3
        assert right_t.min() >= 0.3 and right_t.max() < 1.0

    def test_continuous_curve_is_recovered_exactly(self):
        spec = GeneratorSpec(
            kind="piecewise_poly",
            knot=0.35,
            m_pts=40,
            n_pts=90,
            continuous=True,
            seed=4,
        )
        problem = gen_piecewise_poly(spec)
        solution = solve_qr_svd(problem)
        # consistent fit: the plain least-squares coefficients already meet
        # the continuity constraint, so they are the exact optimum
        reference = np.linalg.lstsq(problem.A, problem.b, rcond=None)[0]
        assert np.linalg.norm(solution.x - reference) <= 1e-8 * np.linalg.norm(
            reference
        )
        assert np.linalg.norm(problem.C @ solution.x) <= 1e-10

    def test_default_fit_is_the_inconsistent_one(self):
        # one default for GeneratorSpec, table3 and `tlse gen`
        spec = GeneratorSpec(kind="piecewise_poly", seed=3)
        assert spec.continuous is False
        assert solve_qr_svd(generate(spec)).sigma_min > 1e-3
        consistent = GeneratorSpec(kind="piecewise_poly", seed=3, continuous=True)
        assert solve_qr_svd(generate(consistent)).sigma_min <= 1e-10

    def test_rejects_bad_split(self):
        with pytest.raises(InputError):
            gen_piecewise_poly(
                GeneratorSpec(kind="piecewise_poly", m_pts=70, n_pts=70)
            )


def test_generate_dispatch():
    spec = GeneratorSpec(kind="householder_spectrum", m=30, seed=5)
    via_dispatch = generate(spec)
    direct = gen_householder_spectrum(spec)
    np.testing.assert_array_equal(via_dispatch.A, direct.A)


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec(kind="equilibratory", seed=2),
        GeneratorSpec(kind="householder_spectrum", m=30, seed=5),
        GeneratorSpec(kind="piecewise_poly", m_pts=30, n_pts=70),
    ],
    ids=lambda spec: spec.kind,
)
def test_generated_blocks_are_contiguous(spec):
    # a strided view of a larger stack would cost the report a copy of A
    # for its data norm
    problem = generate(spec)
    for name in "CdAb":
        assert getattr(problem, name).flags.c_contiguous, name


class TestPerturb:
    def test_normwise_entries_are_bounded(self):
        problem = seeded_problem(0)
        sample = perturb(problem, "normwise", 1e-6, seed=1)
        assert sample.dL.shape == (problem.m, problem.n)
        assert sample.dh.shape == (problem.m,)
        assert sample.dL.min() >= 0.0 and sample.dL.max() < 1e-6
        assert sample.dh.max() < 1e-6

    def test_componentwise_respects_sparsity_and_constraint(self):
        spec = GeneratorSpec(
            kind="piecewise_poly", knot=0.5, m_pts=30, n_pts=70, seed=1
        )
        problem = gen_piecewise_poly(spec)
        sample = perturb(problem, "componentwise", 1e-8, seed=2)
        np.testing.assert_array_equal(sample.dh[: problem.p], 0.0)
        assert np.all(sample.dL[problem.L == 0.0] == 0.0)
        assert np.all(np.abs(sample.dL) <= 1e-8 * np.abs(problem.L))
        ratio, _ = _max_ratio(
            np.hstack([sample.dL, sample.dh[:, None]]),
            np.hstack([problem.L, problem.h[:, None]]),
        )
        assert 0.0 < ratio <= 1e-8

    def test_deterministic(self):
        problem = seeded_problem(0)
        first = perturb(problem, "normwise", 1e-6, seed=9)
        second = perturb(problem, "normwise", 1e-6, seed=9)
        np.testing.assert_array_equal(first.dL, second.dL)

    def test_validation(self):
        problem = seeded_problem(0)
        with pytest.raises(InputError):
            perturb(problem, "normwise", 0.0)
        with pytest.raises(InputError):
            perturb(problem, "rowwise", 1e-8)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1e-8])
    def test_rejects_non_finite_or_negative_scale(self, scale):
        with pytest.raises(InputError, match="scale"):
            perturb(seeded_problem(0), "normwise", scale)

    def test_apply_sample_adds_blocks(self):
        problem = seeded_problem(0)
        sample = perturb(problem, "normwise", 1e-3, seed=3)
        perturbed = apply_sample(problem, sample)
        np.testing.assert_allclose(
            perturbed.C, problem.C + sample.dL[: problem.p]
        )
        np.testing.assert_allclose(
            perturbed.b, problem.b + sample.dh[problem.p :]
        )


def test_max_ratio_edge_cases():
    # (with x/0 -> inf, over den != 0 only)
    assert _max_ratio(np.zeros(3), np.zeros(3)) == (0.0, 0.0)
    assert _max_ratio(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (math.inf, 0.0)
    assert _max_ratio(np.array([1.0, 6.0]), np.array([2.0, 3.0])) == (2.0, 2.0)
    assert _max_ratio(np.array([-3.0, 0.0]), np.array([2.0, 0.0])) == (1.5, 1.5)


class TestRunExperiment:
    def test_zero_perturbation_row(self):
        problem = seeded_problem(1)
        row = run_experiment(problem, zero_sample(problem), label="zero")
        assert row.label == "zero"
        assert row.eps1 == 0.0 and row.eps2 == 0.0
        assert row.fwd_err_2 == 0.0 and row.eta_rel == 0.0
        assert row.kappa_n > 0 and row.kappa_m > 0
        # bounds scale with the measured perturbation and vanish with it
        assert row.bound_n == 0.0 and row.bound_c_upper == 0.0
        assert row.flags == ""

    def test_perturbed_degeneracy_is_flagged_not_raised(self):
        problem = TlseProblem(
            C=np.zeros((0, 1)),
            d=np.zeros(0),
            A=np.array([[1.0], [0.0]]),
            b=np.array([0.3, 0.9]),
        )
        # this shift lands the perturbed stack exactly on a degenerate point
        sample = PerturbationSample(
            dL=np.zeros((2, 1)),
            dh=np.array([-0.3, 0.1]),
            scale=0.3,
            mode="normwise",
        )
        row = run_experiment(problem, sample)
        assert "degenerate" in row.flags
        assert row.fwd_err_2 is None and row.eta_rel is None
        assert row.kappa_n > 0

    def test_given_solution_replaces_the_solve(self):
        problem = seeded_problem(2)
        sample = perturb(problem, "normwise", 1e-8, seed=5)
        given = run_experiment(problem, sample, solution=solve_qr_svd(problem))
        assert given == run_experiment(problem, sample)

    def test_data_norm_is_read_once(self, monkeypatch):
        # the report's scale and eps1 share one ||[L h]||_F, one pass over A
        problem = seeded_problem(2)
        sample = perturb(problem, "normwise", 1e-8, seed=5)
        want = run_experiment(problem, sample)
        flex_norm, calls = tlsekit.bench._flex_norm, []

        def counted(*args):
            calls.append(args)
            return flex_norm(*args)

        monkeypatch.setattr(tlsekit.bench, "_flex_norm", counted)
        assert run_experiment(problem, sample) == want
        assert len(calls) == 1

    def test_prediction_bounds_cover_forward_errors(self):
        problem = seeded_problem(2)
        sample = perturb(problem, "normwise", 1e-8, seed=5)
        row = run_experiment(problem, sample)
        assert row.fwd_err_2 <= 1.1 * row.bound_n
        assert row.fwd_err_inf <= 1.1 * row.bound_m
        assert row.fwd_err_cw <= 1.1 * row.bound_c
        assert row.eta_rel < 1e-3


class TestFormatting:
    def test_format_sci(self):
        assert format_sci(0.0000756) == "7.56e-5"
        assert format_sci(123.456) == "1.23e2"
        assert format_sci(1.5) == "1.50e0"
        assert format_sci(None) == ""
        assert format_sci(float("inf")) == "inf"
        assert format_sci(float("-inf")) == "-inf"
        assert format_sci(float("nan")) == "nan"

    def demo_row(self):
        return ExperimentRow(
            label="demo",
            fwd_err_2=0.0000756,
            fwd_err_inf=1.0,
            fwd_err_cw=float("inf"),
            eta_rel=None,
            eps1=1e-8,
            eps2=2e-8,
            kappa_n=123.456,
            kappa_n_upper=200.0,
            kappa_m=1.5,
            kappa_m_upper=2.5,
            kappa_c=3.5,
            kappa_c_upper=4.5,
            kappa_c_finite=3.5,
            constraint_gain_norm=0.5,
            core_cond=10.0,
        )

    def test_csv_row_is_stable(self):
        text = emit_table([self.demo_row()])
        header, row = text.splitlines()
        assert header == ",".join(TABLE_COLUMNS)
        assert row == (
            "demo,7.56e-5,1.00e0,inf,,1.00e-8,2.00e-8,1.23e-6,2.00e-6,"
            "3.00e-8,5.00e-8,7.00e-8,9.00e-8,1.23e2,2.00e2,1.50e0,2.50e0,"
            "3.50e0,4.50e0,3.50e0,5.00e-1,1.00e1,,"
        )

    def test_json_round_trip(self):
        row = self.demo_row()
        text = emit_table([row], format="json")
        parsed = parse_table(text)
        assert len(parsed) == 1
        back = parsed[0]
        assert back.label == row.label
        assert back.fwd_err_2 == row.fwd_err_2
        assert back.fwd_err_cw == row.fwd_err_cw
        assert back.eta_rel is None
        assert back.kappa_n == row.kappa_n
        assert back.bound_n == row.bound_n

    def test_emit_validation(self):
        with pytest.raises(InputError):
            emit_table([])
        with pytest.raises(InputError):
            emit_table([self.demo_row()], format="yaml")
        with pytest.raises(InputError):
            parse_table("not json")


def read_meta(path):
    with np.load(path, allow_pickle=False) as npz:
        return json.loads(npz["meta"][()])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        problem = seeded_problem(3)
        path = tmp_path / "problem.npz"
        save_problem(problem, path, meta={"note": "round trip"})
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.C, problem.C)
        np.testing.assert_array_equal(loaded.d, problem.d)
        np.testing.assert_array_equal(loaded.A, problem.A)
        np.testing.assert_array_equal(loaded.b, problem.b)
        assert read_meta(path) == {"note": "round trip"}

    def test_round_trip_without_constraint(self, tmp_path):
        problem = TlseProblem(
            C=np.zeros((0, 1)),
            d=np.zeros(0),
            A=np.array([[1.0], [0.0]]),
            b=np.array([1.0, 1.0]),
        )
        path = tmp_path / "tls.npz"
        save_problem(problem, path)
        loaded = load_problem(path)
        assert loaded.p == 0 and loaded.n == 1
        self.assert_bit_identical(loaded, problem)

    def test_load_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(InputError):
            load_problem(path)
        path.write_text(json.dumps({"A": [[1.0], [0.0]]}))
        with pytest.raises(InputError):
            load_problem(path)
        path.write_text(json.dumps({"A": [1.0, 0.0], "b": [1.0, 1.0]}))
        with pytest.raises(InputError):
            load_problem(path)

    @staticmethod
    def assert_bit_identical(loaded, problem):
        for name in ("C", "d", "A", "b"):
            got, want = getattr(loaded, name), getattr(problem, name)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name

    def test_round_trip_is_bit_exact_at_the_float_extremes(self, tmp_path):
        rng = np.random.default_rng(20)
        p, q, n = 20, 3000, 100
        cols = 10.0 ** rng.uniform(-300, 300, n)
        A = rng.standard_normal((q, n)) * cols
        A[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
        b = rng.standard_normal(q)
        b[:2] = [-0.0, 5e-324]
        problem = TlseProblem(
            C=rng.standard_normal((p, n)) * cols, d=rng.standard_normal(p), A=A, b=b
        )
        # a .json name, as the benchmark harness uses: the path is kept as given
        path = tmp_path / "extremes.json"
        save_problem(problem, path)
        assert [f.name for f in tmp_path.iterdir()] == ["extremes.json"]
        assert path.read_bytes()[:4] == b"PK\x03\x04"
        loaded = load_problem(path)
        self.assert_bit_identical(loaded, problem)
        assert np.signbit(loaded.A[0, 0]) and np.signbit(loaded.b[0])

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_round_trip_of_non_contiguous_data(self, tmp_path, layout):
        rng = np.random.default_rng(21)
        if layout == "fortran":
            A = np.asfortranarray(rng.standard_normal((40, 6)))
            C = np.asfortranarray(rng.standard_normal((2, 6)))
        else:
            A = rng.standard_normal((80, 12))[::2, ::2]
            C = rng.standard_normal((4, 12))[::2, ::2]
        b = rng.standard_normal(80)[::2]
        problem = TlseProblem(C=C, d=rng.standard_normal(2), A=A, b=b)
        assert not problem.A.flags.c_contiguous
        path = tmp_path / f"{layout}.npz"
        save_problem(problem, path)
        self.assert_bit_identical(load_problem(path), problem)

    def test_loads_files_in_the_stdlib_layout(self, tmp_path):
        problem = seeded_problem(4)
        path = tmp_path / "stdlib.json"
        obj = {k: getattr(problem, k).tolist() for k in ("C", "d", "A", "b")}
        obj["meta"] = {"note": "written by json.dump"}
        with open(path, "w") as fh:
            json.dump(obj, fh)
        assert ", " in path.read_text()
        self.assert_bit_identical(load_problem(path), problem)

    def test_format_is_chosen_by_content(self, tmp_path):
        problem = seeded_problem(7)
        npz_named_json, json_named_npz = tmp_path / "a.json", tmp_path / "b.npz"
        save_problem(problem, npz_named_json)
        obj = {k: getattr(problem, k).tolist() for k in ("C", "d", "A", "b")}
        json_named_npz.write_text(json.dumps(obj))
        self.assert_bit_identical(load_problem(npz_named_json), problem)
        self.assert_bit_identical(load_problem(json_named_npz), problem)

    def test_integer_entries_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.json"
        path.write_text('{"C": [[1, 0]], "d": [2], "A": [[1, 0], [0, 1]], "b": [2, 3]}')
        loaded = load_problem(path)
        for name in ("C", "d", "A", "b"):
            assert getattr(loaded, name).dtype == np.float64
        np.testing.assert_array_equal(loaded.A, np.eye(2))
        np.testing.assert_array_equal(loaded.b, [2.0, 3.0])

    def test_meta_beyond_64_bit_integers(self, tmp_path, capsys):
        path = tmp_path / "big_seed.npz"
        seed = 2**70
        code = cli_main(
            ["gen", "--kind", "householder_spectrum", "--m", "12",
             "--seed", str(seed), "--out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        assert read_meta(path) == {"kind": "householder_spectrum", "seed": seed}
        assert load_problem(path).m == 12

    def test_meta_with_integer_keys_is_written_as_by_the_stdlib(self, tmp_path):
        meta = {1: "one", 2: [3, 4], "name": "x"}
        path = tmp_path / "int_keys.npz"
        save_problem(seeded_problem(5), path, meta=meta)
        with np.load(path, allow_pickle=False) as npz:
            assert npz["meta"][()] == json.dumps(meta)
        assert read_meta(path) == {"1": "one", "2": [3, 4], "name": "x"}

    def test_unencodable_meta_leaves_no_file(self, tmp_path):
        path = tmp_path / "never.npz"
        with pytest.raises(TypeError):
            save_problem(seeded_problem(6), path, meta={"bad": object()})
        assert not path.exists()

    @staticmethod
    def npz_bytes(**arrays):
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        return buf.getvalue()

    @pytest.mark.parametrize(
        "case, field",
        [
            ("truncated", None),
            ("corrupt-A", "A"),
            ("missing-A", None),
            ("missing-b", None),
            ("object-A", "A"),
            ("complex-A", "A"),
            ("text-b", "b"),
            ("vector-A", "A"),
            ("matrix-d", "d"),
        ],
    )
    def test_malformed_npz(self, tmp_path, case, field):
        C, d = np.array([[1.0, 0.0]]), np.array([2.0])
        A, b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([2.0, 3.0, 4.0])
        good = self.npz_bytes(C=C, d=d, A=A, b=b)
        data = {
            "truncated": good[: len(good) // 2],
            "corrupt-A": good.replace(A.tobytes(), A[::-1].tobytes()),
            "missing-A": self.npz_bytes(C=C, d=d, b=b),
            "missing-b": self.npz_bytes(C=C, d=d, A=A),
            "object-A": self.npz_bytes(C=C, d=d, A=A.astype(object), b=b),
            "complex-A": self.npz_bytes(C=C, d=d, A=A + 1j, b=b),
            "text-b": self.npz_bytes(C=C, d=d, A=A, b=np.array(["2", "3", "4"])),
            "vector-A": self.npz_bytes(C=C, d=d, A=A.ravel(), b=b),
            "matrix-d": self.npz_bytes(C=C, d=d[:, None], A=A, b=b),
        }[case]
        path = tmp_path / "malformed.npz"
        path.write_bytes(data)
        with pytest.raises(InputError) as info:
            load_problem(path)
        message = str(info.value)
        assert message.startswith(f"{path}:")
        if field is not None:
            assert f"field {field} " in message
        if case.startswith("missing"):
            assert repr(case.split("-")[1]) in message


class TestTables:
    def test_table1_labels_and_shape(self):
        rows = table1(kappas=(1e2,), trials=2, seed=1)
        assert [row.label for row in rows] == ["kC=1e+02 t0", "kC=1e+02 t1"]
        for row in rows:
            assert row.eps1 > 0
            assert row.kappa_n <= row.kappa_n_upper * (1 + 1e-12)

    @pytest.mark.parametrize("table", [table1, table2])
    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one_are_rejected(self, table, trials):
        # table1 would otherwise return no rows, an empty table
        message = f"^trials must be at least 1, got {trials}$"
        with pytest.raises(InputError, match=message):
            table(trials=trials)

    @pytest.mark.parametrize(
        "table, kwargs, name",
        [
            (table1, {"trials": 2.5}, "trials"),
            (table1, {"trials": True}, "trials"),
            (table1, {"seed": 2.5}, "seed"),
            (table2, {"trials": 2.0}, "trials"),
            (table2, {"seed": 2.5}, "seed"),
            (table3, {"seed": 2.5}, "seed"),
            (table3, {"m_pts": 10.5}, "m_pts"),
        ],
    )
    def test_non_integer_counts_are_rejected(self, table, kwargs, name):
        # before any problem is drawn: seed=2.5 would silently run seed 2
        with pytest.raises(InputError, match=f"^{name} must be an integer"):
            table(**kwargs)

    @pytest.mark.parametrize(
        "table, kwargs, name",
        [
            (table1, {"kappas": ()}, "kappas"),
            (table2, {"ms": []}, "ms"),
            (table2, {"ms": (14,), "deltas": ()}, "deltas"),
            (table3, {"a_list": []}, "a_list"),
        ],
    )
    def test_empty_sweep_lists_are_rejected(self, table, kwargs, name, monkeypatch):
        # they would otherwise return no rows, which emit_table rejects
        # without naming the parameter; the check precedes every solve
        monkeypatch.setattr(tlsekit.bench, "run_experiment", None)
        with pytest.raises(InputError, match=f"^{name} must list at least one value$"):
            table(**kwargs)

    def test_table2_medians_are_recorded(self):
        rows = table2(ms=(14,), deltas=(1e-3,), trials=2, seed=1)
        assert len(rows) == 1
        assert rows[0].label == "m=14 delta=1e-03"
        assert rows[0].nwtls_dev is not None
        assert rows[0].nwtls_dev >= 0.0

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("sketch", [None, 2, 5])
    @pytest.mark.parametrize("ms", [(14,), (50,), (14, 50)])
    def test_table2_matches_the_per_trial_oracle(self, ms, sketch, seed):
        # one shared R factor and batched Gram solves change no bit of any
        # row; m = 14 (n = 3) rejects sketch 5 in both
        kwargs = dict(ms=ms, deltas=(1e-2, 1e-4), seed=seed, sketch=sketch)
        try:
            expected = table2_per_trial(**kwargs)
        except InputError:
            with pytest.raises(InputError):
                table2(**kwargs)
            return
        rows = table2(**kwargs)
        assert emit_table(rows, "json") == emit_table(expected, "json")

    def test_table2_builds_three_generators_per_row(self, monkeypatch):
        # the problem's, the perturbation's and one stream for all trials:
        # a generator per trial would make it 2 + trials
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        rows = table2(ms=(14, 50), deltas=(1e-2, 1e-4), trials=20)
        assert len(built) == 3 * len(rows) == 12

    def test_table3_uses_componentwise_noise(self):
        rows = table3(a_list=(0.5,), seed=1, m_pts=30, n_pts=70, scale=1e-8)
        assert len(rows) == 1
        assert rows[0].label == "a=0.5"
        assert 0.0 < rows[0].eps2 <= 1e-8
