"""Inputs, timed rounds and output checks of the three workloads.

A round is one pass of every timed metric over the workload's problem set.
Every round attempts the same operations, so the share of failed
operations is the same in every run whatever the seed and run length.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import tlsekit as tk
import tlsekit.cli  # noqa: F401  (the CLI is driven in-process as tk.cli)
from tlsekit.bench import derive_seed

import checks

#: (p, q, n, column-scaled): q in the thousands, n = 100, p = 20. The exact
#: and compact reports need m^2 (n+1) Kronecker entries, far above the cap.
TALL_SHAPES = ((20, 2000, 100, False), (20, 2500, 100, True), (20, 3000, 100, False))

#: (p, q, n) with m^2 (n+1) between 1.2e6 and 3.5e6 entries, just under the
#: 4e6 cap, so the materialized Kronecker operator dominates the reports.
KRON_SHAPES = (
    (8, 192, 30), (8, 212, 32), (10, 230, 34), (10, 240, 35), (10, 250, 36),
    (10, 260, 37), (12, 258, 38), (12, 268, 39), (10, 270, 40), (10, 280, 40),
)

#: The problems of the default table1-3 sweeps (seed 0), as (case name,
#: GeneratorSpec arguments). They do not depend on --seed.
SWEEP_SPECS = (
    [(f"t1-k{k:.0e}", dict(kind="equilibratory", p=5, q=20, n=15, kappa_c=k,
                            seed=derive_seed(0, i, 0)))
     for i, k in enumerate((1e2, 1e4, 1e6, 1e8))]
    + [(f"t2-m{m}-d{d:.0e}", dict(kind="householder_spectrum", m=m, delta=d,
                                   seed=derive_seed(0, mi, di)))
       for mi, m in enumerate((50, 100)) for di, d in enumerate((1e-2, 1e-3, 1e-4))]
    + [(f"t3-a{a:g}", dict(kind="piecewise_poly", knot=a, m_pts=200, n_pts=400,
                           continuous=False, seed=derive_seed(0, ai)))
       for ai, a in enumerate((0.05, 0.5, 0.9))]
)
TABLE_ROWS = (("table1", 4), ("table2", 6), ("table3", 3))

#: solve_closed_form misses c*u*kappa_n here on every run (fault 2).
CLOSED_FAILURE = "t3-a0.9"

#: Problem used by wtls_limit_diagnostics in the tables pipeline.
LIMIT_CASE = "t1-k1e+02"

#: Normwise perturbation scale of run_experiment in the kron pipeline: small
#: enough that the first-order prediction holds at the kappa_n of these
#: problems, large enough that roundoff does not swamp the change.
KRON_PERTURB_SCALE = 1e-10


def _rng(seed, *key):
    return np.random.default_rng([seed % 2**64, *key])


def gaussian_problem(rng, p, q, n, scaled):
    C = rng.standard_normal((p, n))
    d = rng.standard_normal(p)
    A = rng.standard_normal((q, n))
    b = rng.standard_normal(q)
    if scaled:
        cols = 10.0 ** rng.uniform(-3, 3, n)
        C, A = C * cols, A * cols
    return tk.TlseProblem(C=C, d=d, A=A, b=b)


def cli_seeds(seed):
    """The default sweep seed 0 plus two seeds drawn from --seed."""
    return [0] + [int(s) for s in np.random.SeedSequence([seed % 2**64, 7]).generate_state(2)]


def write_inputs(workload, seed, folder):
    """Generate the workload's problems and write them where the run reads them."""
    folder.mkdir(parents=True, exist_ok=True)
    if workload == "tall":
        named = [(f"tall{i}", gaussian_problem(_rng(seed, i), p, q, n, sc))
                 for i, (p, q, n, sc) in enumerate(TALL_SHAPES)]
    elif workload == "kron":
        named = [(f"kron{i}", gaussian_problem(_rng(seed, i), p, q, n, False))
                 for i, (p, q, n) in enumerate(KRON_SHAPES)]
    else:
        named = [(name, tk.generate(tk.GeneratorSpec(**spec))) for name, spec in SWEEP_SPECS]
    for name, problem in named:
        tk.save_problem(problem, folder / f"{name}.json", meta={"workload": workload})
    manifest = {"workload": workload, "seed": seed, "cases": [name for name, _ in named]}
    if workload == "tables":
        manifest["cli_seeds"] = cli_seeds(seed)
    (folder / "manifest.json").write_text(json.dumps(manifest))


class Runner:
    """Counts operations and keeps the time of every timed call.

    A call that raises a TlseError is timed by no metric; a call whose
    output fails its check is timed and counted as failed. Failures not
    declared as expected are kept in `unexpected`.

    Every round makes the same calls in the same order, so the k-th call of
    a metric in one round matches the k-th call in every other round. A
    metric's value is the sum over k of the median time of call k across
    rounds, divided by the passes the metric makes per round. Medians of
    single calls over a whole run move less with a shared host's phases of
    slower running than medians of whole-round sums, of which a run has
    only a dozen.
    """

    def __init__(self, passes):
        self.passes = passes
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.rounds = []  # per round: metric -> call times, None where it raised
        self.tracer = None
        self._round = defaultdict(list)

    def call(self, metric, fn, *args, check=None, expect_failure=False, **kwargs):
        self.attempted += 1
        span = (self.tracer.span(f"perfbench.{metric or 'untimed'}")
                if self.tracer else contextlib.nullcontext())
        with span:
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except tk.TlseError as exc:
                out, elapsed = None, None
                reason = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - start
        if metric:
            self._round[metric].append(elapsed)
        if elapsed is not None:
            reason = check(out) if check else None
        if reason is not None:
            self.failed += 1
            if not expect_failure:
                self.unexpected.append(f"{metric}: {getattr(fn, '__name__', fn)}: {reason}")
        return out

    def end_round(self):
        self.rounds.append(dict(self._round))
        self._round.clear()

    def value(self, metric, rounds=None):
        """Sum over calls of the median call time, per pass (see class doc)."""
        chosen = self.rounds if rounds is None else [self.rounds[i] for i in rounds]
        total = 0.0
        for column in zip(*(r[metric] for r in chosen)):
            times = [t for t in column if t is not None]
            if times:
                total += statistics.median(times)
        return total / self.passes.get(metric, 1)

    def round_totals(self):
        """Per metric, the time of each round's pass (kept in the result file)."""
        return {metric: [sum(t for t in r[metric] if t is not None) / self.passes.get(metric, 1)
                         for r in self.rounds]
                for metric in self.rounds[0]}


@dataclass
class Case:
    name: str
    path: object
    problem: tk.TlseProblem
    ref: checks.Reference
    fixed: bool
    bounds: checks.Bounds | None = None
    solution: tk.TlseSolution | None = None


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tk.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def first_order_error(problem, solution, kappa_n, seed):
    """Relative gap between a perturbed re-solve and apply_k's prediction.

    The perturbation has relative size sqrt(u / kappa_n), which balances the
    second-order term (about kappa_n times the size) against roundoff in the
    difference of the two solves (about u / size).
    """
    size = math.sqrt(checks.U / kappa_n)
    stack = np.column_stack([problem.L, problem.h])
    draw = tk.perturb(problem, "normwise", 1.0, seed)
    scale = size * np.linalg.norm(stack) / np.linalg.norm(np.column_stack([draw.dL, draw.dh]))
    sample = tk.perturb(problem, "normwise", scale, seed)
    dx = tk.solve_qr_svd(tk.apply_sample(problem, sample)).x - solution.x
    predicted = tk.apply_k(tk.build_k_operator(problem, solution), sample.dL, sample.dh)
    return float(np.linalg.norm(dx - predicted) / np.linalg.norm(dx))


class Workload:
    mode = "exact"  # condition_report method of report_s
    reps = 1  # passes of solve_s, closed_s and nwtls_s per round

    @property
    def passes(self):
        return {"solve_s": self.reps, "closed_s": self.reps, "nwtls_s": self.reps}

    def __init__(self, folder, seed):
        manifest = json.loads((folder / "manifest.json").read_text())
        self.seed = seed
        self.manifest = manifest
        self.cases = []
        for name in manifest["cases"]:
            path = folder / f"{name}.json"
            problem = tk.load_problem(path)
            ref = checks.reference(problem.C, problem.d, problem.A, problem.b)
            self.cases.append(Case(name, path, problem, ref, fixed=manifest["workload"] == "tables"))

    def verify(self):
        """Solve and report every case once, with the checks too costly to
        repeat each round; fixes each case's error allowances."""
        fails = []
        cfg = tk.NwtlsConfig()
        for i, c in enumerate(self.cases):
            P = c.problem
            c.solution = sol = tk.solve_qr_svd(P)
            rep = tk.condition_report(P, solution=sol, method=self.mode)
            eps_bound = tk.check_eps_bound(P, cfg.eps, sol.core)
            c.bounds = checks.bounds(c.ref, P.C, P.d, rep.kappa_n, eps_bound, c.fixed)
            found = [
                checks.check_x(sol.x, c.ref, c.bounds.x_qr, P.C, P.d, c.bounds.cx),
                checks.check_stationarity(tk.validate_stationarity(P, sol), P.A, P.b,
                                          P.C, P.d, sol.x, sol.sigma_min),
                checks.check_report(rep),
            ]
            eta = first_order_error(P, sol, rep.kappa_n, derive_seed(self.seed, i))
            if not eta <= checks.FIRST_ORDER_TOL:
                found.append(f"first-order disagreement {eta:.3e}")
            if self.mode == "exact":
                compact = tk.condition_report(P, solution=sol, method="compact").kappa_n
                if not abs(compact - rep.kappa_n) <= 1e-8 * rep.kappa_n:
                    found.append(f"compact kappa_n {compact!r} != exact {rep.kappa_n!r}")
            fails += [f"{c.name}: {f}" for f in found if f]
        return fails

    def peak_case(self):
        return max(self.cases, key=lambda c: c.problem.A.size)

    # -- operations shared by the workloads ---------------------------------

    def solve(self, r, metric, c):
        b = c.bounds
        return r.call(metric, tk.solve_qr_svd, c.problem,
                      check=lambda sol: checks.check_x(sol.x, c.ref, b.x_qr, c.problem.C,
                                                       c.problem.d, b.cx))

    def closed(self, r, metric, c):
        b = c.bounds
        tol = b.x_closed if b.x_closed is not None else b.closed_gram
        return r.call(metric, tk.solve_closed_form, c.problem,
                      check=lambda x: checks.check_x(x, c.ref, tol, c.problem.C, c.problem.d, b.cx),
                      expect_failure=c.name == CLOSED_FAILURE)

    def nwtls(self, r, metric, c):
        return r.call(metric, tk.solve_nwtls, c.problem,
                      check=lambda x: checks.check_x(x, c.ref, c.bounds.x_nwtls))

    def report(self, r, metric, c, solution):
        return r.call(metric, tk.condition_report, c.problem, solution=solution,
                      method=self.mode,
                      check=lambda rep: checks.check_report(rep, c.bounds.kappa_n))

    def measured_step(self, r, c):
        """The calls of solve_s, closed_s, nwtls_s (reps each) and report_s on one case."""
        for _ in range(self.reps):
            self.solve(r, "solve_s", c)
            self.closed(r, "closed_s", c)
            self.nwtls(r, "nwtls_s", c)
        self.report(r, "report_s", c, c.solution)

    def round(self, r):
        """One pass of every metric. The steps of the metrics alternate, so
        that each metric samples the whole round: a shared host can run 30%
        slower for seconds at a time, and a metric timed in one burst would
        see one phase alone."""
        measured = [lambda c=c: self.measured_step(r, c) for c in self.cases]
        session = self.pipeline_steps(r)
        for i in range(max(len(measured), len(session))):
            for steps in (measured, session):
                if i < len(steps):
                    steps[i]()
        r.end_round()


class Tall(Workload):
    mode = "upper"

    def _check_cli_solve(self, c, result):
        code, out, err = result
        if code != 0:
            return f"tlse solve exited {code}: {err.strip()}"
        try:
            obj = json.loads(out)
            x = [obj[f"x[{i}]"] for i in range(c.problem.n)]
        except (ValueError, KeyError) as exc:
            return f"tlse solve printed no solution: {exc!r}"
        return checks.check_x(x, c.ref, c.bounds.x_qr, c.problem.C, c.problem.d, c.bounds.cx)

    def session_step(self, r, c):
        # Fault 1: the exact report cannot materialize its operator at this
        # size. Attempted every round, timed by no metric.
        r.call(None, tk.condition_report, c.problem, solution=c.solution,
               method="exact", expect_failure=True)
        sol = self.solve(r, "pipeline_s", c)
        self.closed(r, "pipeline_s", c)
        self.nwtls(r, "pipeline_s", c)
        self.report(r, "pipeline_s", c, sol)
        argv = ["solve", "--input", str(c.path), "--format", "json"]
        r.call("pipeline_s", _cli, argv, check=lambda res: self._check_cli_solve(c, res))

    def pipeline_steps(self, r):
        return [lambda c=c: self.session_step(r, c) for c in self.cases]


class Kron(Workload):
    reps = 4

    def session_step(self, r, i, c):
        sol = self.solve(r, "pipeline_s", c)
        self.closed(r, "pipeline_s", c)
        self.nwtls(r, "pipeline_s", c)
        self.report(r, "pipeline_s", c, sol)
        sample = r.call("pipeline_s", tk.perturb, c.problem, "normwise",
                        KRON_PERTURB_SCALE, derive_seed(self.seed, i),
                        check=lambda s: None if s.dL.shape == (c.problem.m, c.problem.n)
                        else f"perturbation of shape {s.dL.shape}")
        r.call("pipeline_s", tk.run_experiment, c.problem, sample,
               check=lambda row: checks.check_row(row, c.bounds.kappa_n, first_order=True))

    def pipeline_steps(self, r):
        return [lambda i=i, c=c: self.session_step(r, i, c) for i, c in enumerate(self.cases)]


class Tables(Workload):
    reps = 4

    def verify(self):
        fails = super().verify()
        c = next(c for c in self.cases if c.name == LIMIT_CASE)
        unit = tk.check_eps_bound(c.problem, 1.0, c.solution.core)
        # lhs grows like eps^2: start at half the largest admissible eps.
        top = 0.5 * math.sqrt(unit.gap / unit.lhs)
        self.limit_grid = [top * 10.0**-k for k in range(4)]
        self.limit_floor = c.bounds.x_qr
        self.limit_case = c
        if not all(tk.check_eps_bound(c.problem, e, c.solution.core).ok for e in self.limit_grid):
            fails.append("limit grid is not admitted by check_eps_bound")
        return fails

    def table_step(self, r, table, seed, rows):
        argv = [table, "--format", "json", "--seed", str(seed)]
        code, out, err = r.call(
            "pipeline_s", _cli, argv,
            check=lambda res: None if res[0] == 0 else f"exit {res[0]}: {res[2].strip()}")
        r.call("pipeline_s", tk.parse_table, out,
               check=lambda parsed: checks.check_rows(parsed, rows))

    def limit_step(self, r):
        r.call("pipeline_s", tk.wtls_limit_diagnostics, self.limit_case.problem, self.limit_grid,
               check=lambda res: checks.check_limit(res, self.limit_grid, self.limit_floor))

    def pipeline_steps(self, r):
        steps = [lambda t=t, s=s, n=n: self.table_step(r, t, s, n)
                 for s in self.manifest["cli_seeds"] for t, n in TABLE_ROWS]
        return steps + [lambda: self.limit_step(r)]


WORKLOADS = {"tall": Tall, "kron": Kron, "tables": Tables}
