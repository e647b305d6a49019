"""Command-line interface.

Subcommands: solve, cond, table1, table2, table3, gen. Numeric output goes
to stdout as CSV by default; --format json switches. Exit codes: 0 success,
2 input/usage error (bad files, bad flags), 3 numerical failure (rank
deficiency, genericity violation, factorization breakdown). Problem files
are JSON objects with fields C, d, A, b as nested row-major lists.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .bench import (
    GeneratorSpec,
    emit_table,
    generate,
    load_problem,
    save_problem,
    table1,
    table2,
    table3,
)
from .conditioning import Weights, condition_report
from .core import solve_closed_form, solve_qr_svd
from .errors import (
    IllPosedError,
    InputError,
    NonGenericError,
    NumericalError,
    RankError,
    UndefinedConditionError,
)
from .wtls import NwtlsConfig, solve_nwtls

USAGE_ERRORS = (InputError, OSError)
NUMERICAL_ERRORS = (
    RankError,
    IllPosedError,
    NonGenericError,
    NumericalError,
    UndefinedConditionError,
)


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad numeric list {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad integer list {text!r}") from exc


def _emit_pairs(pairs, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(dict(pairs), indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for key, val in pairs:
        writer.writerow([key, val])
    return buf.getvalue()


def _cmd_solve(args) -> str:
    problem = load_problem(args.input)
    if args.method == "qr-svd":
        sol = solve_qr_svd(problem)
        pairs = [(f"x[{i}]", float(v)) for i, v in enumerate(sol.x)]
        pairs += [
            ("sigma_min", sol.sigma_min),
            ("rho", sol.rho),
            ("warnings", ";".join(sol.core.warnings)),
        ]
    elif args.method == "closed":
        x = solve_closed_form(problem)
        pairs = [(f"x[{i}]", float(v)) for i, v in enumerate(x)]
    elif args.method == "nwtls":
        cfg = NwtlsConfig(
            eps=args.eps,
            k=args.k,
            oversample=args.oversample,
            seed=args.seed,
        )
        x = solve_nwtls(problem, cfg)
        pairs = [(f"x[{i}]", float(v)) for i, v in enumerate(x)]
    else:
        raise InputError(f"unknown method {args.method!r}")
    return _emit_pairs(pairs, args.format)


def _cmd_cond(args) -> str:
    problem = load_problem(args.input)
    report = condition_report(
        problem,
        weights=Weights(alpha=args.alpha, beta=args.beta),
        method=args.mode,
    )
    pairs = [
        ("kappa_n", report.kappa_n),
        ("kappa_n_upper", report.kappa_n_upper),
        ("kappa_n_upper_loose", report.kappa_n_upper_loose),
        ("kappa_m", report.kappa_m),
        ("kappa_m_upper", report.kappa_m_upper),
        ("kappa_c", report.kappa_c),
        ("kappa_c_upper", report.kappa_c_upper),
        ("kappa_c_finite", report.kappa_c_finite),
        ("alpha", report.weights.alpha),
        ("beta", report.weights.beta),
        ("method", report.method),
    ]
    return _emit_pairs(pairs, args.format)


def _cmd_table1(args) -> str:
    rows = table1(
        kappas=_float_list(args.kappa_c),
        trials=args.trials,
        seed=args.seed,
        scale=args.scale,
    )
    return emit_table(rows, args.format)


def _cmd_table2(args) -> str:
    rows = table2(
        ms=_int_list(args.m),
        deltas=_float_list(args.delta),
        seed=args.seed,
        trials=args.trials,
        scale=args.scale,
        eps=args.eps,
        oversample=args.oversample,
        sketch=args.sketch,
    )
    return emit_table(rows, args.format)


def _cmd_table3(args) -> str:
    rows = table3(
        a_list=_float_list(args.a),
        seed=args.seed,
        m_pts=args.m_pts,
        n_pts=args.n_pts,
        scale=args.scale,
        continuous=args.continuous,
    )
    return emit_table(rows, args.format)


def _cmd_gen(args) -> str:
    spec = GeneratorSpec(
        kind=args.kind,
        p=args.p,
        q=args.q,
        n=args.n,
        m=args.m,
        kappa_c=args.kappa_c,
        delta=args.delta,
        knot=args.a,
        m_pts=args.m_pts,
        n_pts=args.n_pts,
        continuous=args.continuous,
        seed=args.seed,
    )
    problem = generate(spec)
    save_problem(problem, args.out, meta={"kind": args.kind, "seed": args.seed})
    return args.out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlse",
        description="Equality-constrained total least squares toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument(
        "--method", choices=("qr-svd", "closed", "nwtls"), default="qr-svd"
    )
    p_solve.add_argument("--eps", type=float, default=1e-8)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument("--oversample", type=int, default=5)
    p_solve.add_argument("--seed", type=int, default=0)
    add_format(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_cond = sub.add_parser("cond", help="condition numbers of a problem file")
    p_cond.add_argument("--input", required=True)
    p_cond.add_argument("--alpha", type=float, default=1.0)
    p_cond.add_argument("--beta", type=float, default=1.0)
    p_cond.add_argument(
        "--mode", choices=("exact", "compact", "upper"), default="exact",
        help="compact is another name for exact",
    )
    add_format(p_cond)
    p_cond.set_defaults(func=_cmd_cond)

    p_t1 = sub.add_parser("table1", help="equilibratory condition sweep")
    p_t1.add_argument("--kappa-c", default="1e2,1e4,1e6,1e8")
    p_t1.add_argument("--trials", type=int, default=1)
    p_t1.add_argument("--seed", type=int, default=0)
    p_t1.add_argument("--scale", type=float, default=1e-8)
    add_format(p_t1)
    p_t1.set_defaults(func=_cmd_table1)

    p_t2 = sub.add_parser("table2", help="prescribed-spectrum sweep")
    p_t2.add_argument("--m", default="50,100")
    p_t2.add_argument("--delta", default="1e-2,1e-3,1e-4")
    p_t2.add_argument("--seed", type=int, default=0)
    p_t2.add_argument("--trials", type=int, default=20)
    p_t2.add_argument("--scale", type=float, default=1e-8)
    p_t2.add_argument("--eps", type=float, default=1e-8)
    p_t2.add_argument("--oversample", type=int, default=5)
    p_t2.add_argument("--sketch", type=int, default=None)
    add_format(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_t3 = sub.add_parser("table3", help="piecewise-cubic knot sweep")
    p_t3.add_argument("--a", default="0.05,0.5,0.9")
    p_t3.add_argument("--seed", type=int, default=0)
    p_t3.add_argument("--m-pts", type=int, default=200)
    p_t3.add_argument("--n-pts", type=int, default=400)
    p_t3.add_argument("--scale", type=float, default=1e-8)
    p_t3.add_argument("--continuous", action="store_true")
    add_format(p_t3)
    p_t3.set_defaults(func=_cmd_table3)

    p_gen = sub.add_parser("gen", help="generate a problem file")
    p_gen.add_argument(
        "--kind",
        required=True,
        choices=("equilibratory", "householder_spectrum", "piecewise_poly"),
    )
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--p", type=int, default=None)
    p_gen.add_argument("--q", type=int, default=None)
    p_gen.add_argument("--n", type=int, default=None)
    p_gen.add_argument("--m", type=int, default=None)
    p_gen.add_argument("--kappa-c", type=float, default=1e2)
    p_gen.add_argument("--delta", type=float, default=1e-3)
    p_gen.add_argument("--a", type=float, default=0.5)
    p_gen.add_argument("--m-pts", type=int, default=200)
    p_gen.add_argument("--n-pts", type=int, default=400)
    p_gen.add_argument("--continuous", action="store_true")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if out:
        print(out, end="" if out.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
