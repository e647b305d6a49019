"""Command-line interface.

Subcommands: solve, cond, table1, table2, table3, gen. Numeric output goes
to stdout as CSV by default; --format json switches. An option left out
takes the default of the library call it feeds (table1-3, GeneratorSpec,
NwtlsConfig, Weights, condition_report, emit_table): the parser states no
default of its own but solve's --method. Exit codes: 0 success,
1 stdout closed by its reader before the output was written (a broken
pipe; no traceback is printed), 2 input/usage error (bad files, bad
flags), 3 numerical failure (rank deficiency, genericity violation,
factorization breakdown). gen writes
problem files as .npz; --input also reads hand-written JSON (load_problem).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from dataclasses import fields

from .bench import (
    GENERATOR_KINDS,
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
from .errors import InputError, TlseError
from .wtls import NwtlsConfig, solve_nwtls

USAGE_ERRORS = (InputError, OSError)


#: The table keywords given as comma-separated lists, parsed in this order:
#: their item type and its name in the error message.
LIST_OPTIONS = {
    "kappas": (float, "numeric"),
    "ms": (int, "integer"),
    "deltas": (float, "numeric"),
    "a_list": (float, "numeric"),
}


def _given(args, *names) -> dict:
    """The options among names that the command line gave. One left out is
    absent from args (argparse.SUPPRESS), so the library call it feeds
    takes its own default."""
    return {name: getattr(args, name) for name in names if name in args}


def _emit_pairs(pairs, format: str = "csv") -> str:
    if format == "json":
        return json.dumps(dict(pairs), indent=2)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    for key, val in pairs:
        writer.writerow([key, val])
    return buf.getvalue()


def _cmd_solve(args) -> str:
    problem = load_problem(args.input)
    extra = []
    if args.method == "qr-svd":
        sol = solve_qr_svd(problem)
        x = sol.x
        extra = [
            ("sigma_min", sol.sigma_min),
            ("rho", sol.rho),
            ("warnings", ";".join(sol.core.warnings)),
        ]
    elif args.method == "closed":
        x = solve_closed_form(problem)
    else:  # nwtls, the last of the argparse choices
        cfg = NwtlsConfig(**_given(args, "eps", "oversample", "seed"))
        x = solve_nwtls(problem, cfg)
    pairs = [(f"x[{i}]", float(v)) for i, v in enumerate(x)] + extra
    return _emit_pairs(pairs, **_given(args, "format"))


def _cmd_cond(args) -> str:
    report = condition_report(
        load_problem(args.input),
        weights=Weights(**_given(args, "alpha", "beta")),
        **_given(args, "method"),
    )
    pairs = [(k, v) for k, v in vars(report).items() if k.startswith("kappa_")]
    pairs += [*vars(report.weights).items(), ("method", report.method)]
    return _emit_pairs(pairs, **_given(args, "format"))


def _cmd_table(args) -> str:
    # looked up per call, so that a wrapper installed on a table after
    # import (perfbench's tracer) is the one called
    table = {"table1": table1, "table2": table2, "table3": table3}[args.command]
    # every option of a table command but --format is a keyword of the table
    given = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "format")
    }
    for name, (kind, noun) in LIST_OPTIONS.items():
        if name in given:
            text = given[name]
            try:
                given[name] = [kind(part) for part in text.split(",") if part.strip()]
            except ValueError as exc:
                raise InputError(f"bad {noun} list {text!r}") from exc
    return emit_table(table(**given), **_given(args, "format"))


def _cmd_gen(args) -> str:
    spec = GeneratorSpec(**_given(args, *(f.name for f in fields(GeneratorSpec))))
    save_problem(generate(spec), args.out, meta={"kind": spec.kind, "seed": spec.seed})
    return args.out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tlse parser, built once per process: argparse queries the
    terminal size for every argument it adds, a few ms in all, and
    parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="tlse",
        description="Equality-constrained total least squares toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # an option left out stays out of the namespace: see _given
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(func=func)
        return p

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"))

    p_solve = command("solve", _cmd_solve, "solve a problem file")
    p_solve.add_argument("--input", required=True)
    p_solve.add_argument(
        "--method", choices=("qr-svd", "closed", "nwtls"), default="qr-svd"
    )
    p_solve.add_argument("--eps", type=float)
    p_solve.add_argument("--oversample", type=int)
    p_solve.add_argument("--seed", type=int)
    add_format(p_solve)

    p_cond = command("cond", _cmd_cond, "condition numbers of a problem file")
    p_cond.add_argument("--input", required=True)
    p_cond.add_argument("--alpha", type=float)
    p_cond.add_argument("--beta", type=float)
    p_cond.add_argument("--mode", choices=("exact", "upper"), dest="method")
    add_format(p_cond)

    p_t1 = command("table1", _cmd_table, "equilibratory condition sweep")
    p_t1.add_argument("--kappa-c", dest="kappas", metavar="KAPPA_C")
    p_t1.add_argument("--trials", type=int)
    p_t1.add_argument("--seed", type=int)
    p_t1.add_argument("--scale", type=float)
    add_format(p_t1)

    p_t2 = command("table2", _cmd_table, "prescribed-spectrum sweep")
    p_t2.add_argument("--m", dest="ms", metavar="M")
    p_t2.add_argument("--delta", dest="deltas", metavar="DELTA")
    p_t2.add_argument("--seed", type=int)
    p_t2.add_argument("--trials", type=int)
    p_t2.add_argument("--scale", type=float)
    p_t2.add_argument("--eps", type=float)
    p_t2.add_argument("--oversample", type=int)
    p_t2.add_argument("--sketch", type=int)
    add_format(p_t2)

    p_t3 = command("table3", _cmd_table, "piecewise-cubic knot sweep")
    p_t3.add_argument("--a", dest="a_list", metavar="A")
    p_t3.add_argument("--seed", type=int)
    p_t3.add_argument("--m-pts", type=int)
    p_t3.add_argument("--n-pts", type=int)
    p_t3.add_argument("--scale", type=float)
    p_t3.add_argument("--continuous", action="store_true")
    add_format(p_t3)

    p_gen = command("gen", _cmd_gen, "generate a problem file")
    p_gen.add_argument("--kind", required=True, choices=GENERATOR_KINDS)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--p", type=int)
    p_gen.add_argument("--q", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--kappa-c", type=float)
    p_gen.add_argument("--delta", type=float)
    p_gen.add_argument("--a", type=float, dest="knot", metavar="A")
    p_gen.add_argument("--m-pts", type=int)
    p_gen.add_argument("--n-pts", type=int)
    p_gen.add_argument("--continuous", action="store_true")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TlseError as exc:  # the rest are numerical failures
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    if out:
        try:
            print(out, end="" if out.endswith("\n") else "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early (``tlse ... | head``): send what
            # is left to devnull, so the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
