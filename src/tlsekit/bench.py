"""Problem generators, perturbation injection, and experiment tables.

Three problem families:

- equilibratory: uniform(0,1) data block, constraint block assembled from
  two Householder reflectors around a diagonal whose last entry pins the
  condition number of [C d] exactly;
- householder_spectrum: the whole stack [L h] gets the prescribed singular
  values (n, n-1, ..., 1, delta) through a pair of reflectors;
- piecewise_poly: least-squares fit of a two-piece cubic with continuity of
  value and slope at the knot encoded as the constraint; the data block is
  50% sparse by construction. With continuous=True the sampled curve
  satisfies the constraint (consistent system, zero residual); with
  continuous=False the two pieces are drawn independently, which makes the
  fit inconsistent and drives the genericity gap toward degeneracy as the
  knot approaches 0 or 1.

run_experiment solves a problem and its perturbed copy, measures forward
errors against the first-order prediction, and attaches every condition
number with its scaled bound. emit_table renders rows as CSV in the
3-significant-digit scientific style ( 7.56e-5 ) or as full-precision JSON;
parse_table inverts the JSON form. save_problem writes problems as .npz.
"""
from __future__ import annotations

import csv
import io
import json
import zipfile
from dataclasses import dataclass, fields, replace
from statistics import median

import numpy as np

from .conditioning import Weights, _max_ratio, _report, apply_k, build_k_operator
from .core import TlseProblem, TlseSolution, solve_qr_svd
from .errors import (
    IllPosedError,
    InputError,
    NonGenericError,
    NumericalError,
)
from .wtls import NwtlsConfig, _nystrom, embed

GENERATOR_KINDS = ("equilibratory", "householder_spectrum", "piecewise_poly")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one generated problem.

    kind selects the family. p/q/n size the first two kinds (householder
    dims can instead be derived from the stack height m as p = 0.1 m,
    n = 0.2 m). kappa_c targets the condition number of [C d]
    (equilibratory), delta the smallest prescribed singular value
    (householder), knot the breakpoint in (0,1) with m_pts/n_pts sample
    counts (piecewise). seed makes generation deterministic. InputError
    for a negative size.
    """

    kind: str
    p: int | None = None
    q: int | None = None
    n: int | None = None
    m: int | None = None
    kappa_c: float = 1e2
    delta: float = 1e-3
    knot: float = 0.5
    m_pts: int = 200
    n_pts: int = 400
    continuous: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InputError(
                f"unknown generator kind {self.kind!r}, expected one of "
                f"{GENERATOR_KINDS}"
            )
        if not (np.isfinite(self.kappa_c) and self.kappa_c > 1):
            raise InputError(f"kappa_c must be finite and exceed 1, got {self.kappa_c}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise InputError(f"delta must be finite and positive, got {self.delta}")
        if not 0 < self.knot < 1:
            raise InputError(f"knot must lie in (0,1), got {self.knot}")
        for name in ("p", "q", "n", "m", "m_pts", "n_pts"):
            size = getattr(self, name)
            if size is not None and size < 0:
                raise InputError(f"{name} must be non-negative, got {size}")


@dataclass(frozen=True)
class PerturbationSample:
    """A perturbation of the stacked data; mode normwise | componentwise.

    Componentwise samples scale entrywise with the data (zero entries stay
    zero) and leave the constraint right-hand side untouched.
    """

    dL: np.ndarray
    dh: np.ndarray
    scale: float
    mode: str


@dataclass(frozen=True)
class ExperimentRow:
    """One table row of the experiment protocol.

    Forward errors and eta_rel are None when the perturbed solve failed
    (degenerate flag). The kappa fields are the raw condition numbers; the
    bound_* properties scale them by the matching backward error, which is
    what the tables print.
    """

    label: str
    fwd_err_2: float | None
    fwd_err_inf: float | None
    fwd_err_cw: float | None
    eta_rel: float | None
    eps1: float
    eps2: float
    kappa_n: float
    kappa_n_upper: float
    kappa_m: float
    kappa_m_upper: float
    kappa_c: float
    kappa_c_upper: float
    kappa_c_finite: float
    constraint_gain_norm: float
    core_cond: float
    nwtls_dev: float | None = None
    flags: str = ""

    @property
    def bound_n(self) -> float:
        return self.eps1 * self.kappa_n

    @property
    def bound_n_upper(self) -> float:
        return self.eps1 * self.kappa_n_upper

    @property
    def bound_m(self) -> float:
        return self.eps2 * self.kappa_m

    @property
    def bound_m_upper(self) -> float:
        return self.eps2 * self.kappa_m_upper

    @property
    def bound_c(self) -> float:
        return self.eps2 * self.kappa_c

    @property
    def bound_c_upper(self) -> float:
        return self.eps2 * self.kappa_c_upper


#: Column order of emitted tables.
TABLE_COLUMNS = (
    "label",
    "fwd_err_2",
    "fwd_err_inf",
    "fwd_err_cw",
    "eta_rel",
    "eps1",
    "eps2",
    "bound_n",
    "bound_n_upper",
    "bound_m",
    "bound_m_upper",
    "bound_c",
    "bound_c_upper",
    "kappa_n",
    "kappa_n_upper",
    "kappa_m",
    "kappa_m_upper",
    "kappa_c",
    "kappa_c_upper",
    "kappa_c_finite",
    "constraint_gain_norm",
    "core_cond",
    "nwtls_dev",
    "flags",
)


def derive_seed(seed: int, *key: int) -> int:
    """Deterministic sub-seed for a (seed, index...) path."""
    parts = [abs(int(seed))] + [abs(int(k)) for k in key]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *key))


def _reflector(rng: np.random.Generator, k: int) -> np.ndarray:
    """Householder reflector of a random unit vector."""
    y = rng.random(k)
    norm = np.linalg.norm(y)
    while norm == 0.0:
        y = rng.random(k)
        norm = np.linalg.norm(y)
    y = y / norm
    return np.eye(k) - 2.0 * np.outer(y, y)


def gen_equilibratory(spec: GeneratorSpec) -> TlseProblem:
    """Uniform data with a constraint of prescribed condition number.

    [C d] = Y [D 0] Z.T where Y, Z are reflectors and D's last diagonal is
    max(D)/kappa_c; draws are rejected until the rest of D stays above that
    floor, so cond([C d]) equals kappa_c exactly. InputError, before any
    draw, for p < 2, p >= n or q < n - p + 1.
    """
    p = spec.p if spec.p is not None else 5
    q = spec.q if spec.q is not None else 20
    n = spec.n if spec.n is not None else 15
    if p < 2:
        raise InputError("equilibratory generator needs p >= 2")
    if p >= n:
        raise InputError(f"equilibratory generator needs p < n, got p={p}, n={n}")
    if q < n - p + 1:
        raise InputError(
            f"equilibratory generator needs q >= n - p + 1 = {n - p + 1}, got q={q}"
        )
    for attempt in range(100):
        rng = _rng(spec.seed, attempt)
        lead = rng.random(p - 1)
        last = lead.max() / spec.kappa_c
        if lead.min() <= last:
            continue
        diag = np.concatenate([lead, [last]])
        y = _reflector(rng, p)
        z = _reflector(rng, n + 1)
        body = np.zeros((p, n + 1))
        body[:, :p] = np.diag(diag)
        aug_c = y @ body @ z.T
        ab = rng.random((q, n + 1))
        parts = (aug_c[:, :n], aug_c[:, n], ab[:, :n], ab[:, n])
        return TlseProblem(*map(np.ascontiguousarray, parts))
    raise NumericalError("equilibratory generator failed to draw a valid problem")


def gen_householder_spectrum(spec: GeneratorSpec) -> TlseProblem:
    """Stack [L h] with singular values exactly (n, ..., 2, 1, delta)."""
    if spec.m is not None:
        m = spec.m
        p = spec.p if spec.p is not None else round(0.1 * m)
        n = spec.n if spec.n is not None else round(0.2 * m)
        q = m - p
    else:
        if spec.p is None or spec.q is None or spec.n is None:
            raise InputError(
                "householder_spectrum needs m or explicit (p, q, n)"
            )
        p, q, n = spec.p, spec.q, spec.n
        m = p + q
    if m < n + 1:
        raise InputError(f"stack height {m} must be at least n+1 = {n + 1}")
    rng = _rng(spec.seed)
    y = _reflector(rng, m)
    z = _reflector(rng, n + 1)
    values = np.concatenate([np.arange(n, 0, -1, dtype=float), [spec.delta]])
    body = np.zeros((m, n + 1))
    body[: n + 1, :] = np.diag(values)
    stack = y @ body @ z.T
    parts = (stack[:p, :n], stack[:p, n], stack[p:, :n], stack[p:, n])
    return TlseProblem(*map(np.ascontiguousarray, parts))


def gen_piecewise_poly(spec: GeneratorSpec) -> TlseProblem:
    """Two-piece cubic fit with continuity constraints at the knot.

    The constraint matrix equates value and slope of the two cubics at the
    knot (d = 0); the data block evaluates the left piece on the first
    m_pts samples and the right piece on the rest, so half of each data row
    is structurally zero.
    """
    mm, nn, a = spec.m_pts, spec.n_pts, spec.knot
    if not mm < nn:
        raise InputError(f"need m_pts < n_pts, got {mm}, {nn}")
    rng = _rng(spec.seed)
    t = np.empty(nn)
    t[:mm] = a * rng.random(mm)
    t[mm:] = a + (1.0 - a) * rng.random(nn - mm)
    c_mat = np.array(
        [
            [1.0, a, a**2, a**3, -1.0, -a, -(a**2), -(a**3)],
            [0.0, 1.0, 2 * a, 3 * a**2, 0.0, -1.0, -2 * a, -3 * a**2],
        ]
    )
    d = np.zeros(2)
    powers = np.vander(t, 4, increasing=True)
    data = np.zeros((nn, 8))
    data[:mm, :4] = powers[:mm]
    data[mm:, 4:] = powers[mm:]
    coeffs = rng.uniform(-1.0, 1.0, 8)
    if spec.continuous:
        left_val = coeffs[0] + coeffs[1] * a + coeffs[2] * a**2 + coeffs[3] * a**3
        left_slope = coeffs[1] + 2 * coeffs[2] * a + 3 * coeffs[3] * a**2
        coeffs[5] = left_slope - 2 * a * coeffs[6] - 3 * a**2 * coeffs[7]
        coeffs[4] = (
            left_val - a * coeffs[5] - a**2 * coeffs[6] - a**3 * coeffs[7]
        )
    b = data @ coeffs
    return TlseProblem(C=c_mat, d=d, A=data, b=b)


def generate(spec: GeneratorSpec) -> TlseProblem:
    """Dispatch on spec.kind."""
    return {
        "equilibratory": gen_equilibratory,
        "householder_spectrum": gen_householder_spectrum,
        "piecewise_poly": gen_piecewise_poly,
    }[spec.kind](spec)


def perturb(
    problem: TlseProblem, mode: str, scale: float, seed: int = 0
) -> PerturbationSample:
    """Draw a perturbation of the stacked data.

    normwise: dense uniform(0,1) entries times scale on the full stack.
    componentwise: entrywise uniform factors times the data itself, with the
    constraint right-hand side left exact (its perturbation is zero).
    """
    if not (np.isfinite(scale) and scale > 0):
        raise InputError(f"scale must be finite and positive, got {scale}")
    rng = _rng(seed)
    m, n, p = problem.m, problem.n, problem.p
    draw = rng.random((m, n + 1))
    if mode == "normwise":
        block = scale * draw
        return PerturbationSample(
            dL=block[:, :n], dh=block[:, n], scale=scale, mode=mode
        )
    if mode == "componentwise":
        dl = scale * draw[:, :n] * problem.L
        dh = np.concatenate([np.zeros(p), scale * draw[p:, n] * problem.b])
        return PerturbationSample(dL=dl, dh=dh, scale=scale, mode=mode)
    raise InputError(f"unknown mode {mode!r}, expected normwise|componentwise")


def apply_sample(problem: TlseProblem, sample: PerturbationSample) -> TlseProblem:
    """The perturbed problem."""
    p = problem.p
    return TlseProblem(
        C=problem.C + sample.dL[:p],
        d=problem.d + sample.dh[:p],
        A=problem.A + sample.dL[p:],
        b=problem.b + sample.dh[p:],
    )


def run_experiment(
    problem: TlseProblem,
    sample: PerturbationSample,
    weights: Weights | None = None,
    label: str = "",
    solution: TlseSolution | None = None,
) -> ExperimentRow:
    """Solve, perturb, re-solve, and assemble one table row.

    Both solves, of the problem and of its perturbed copy, are QR-SVD
    solves; their difference is the reported forward error, and the same
    solution gives the condition numbers and the first-order prediction. A
    perturbed solve that fails genericity flags the row degenerate instead
    of raising. The nwtls_dev column stays None (table2 fills it). A given
    solution must be solve_qr_svd(problem); it saves that solve.
    """
    sol = solution if solution is not None else solve_qr_svd(problem)
    op = build_k_operator(problem, sol)
    report = _report(op, weights or Weights(), "exact")
    big_l, big_h = problem.L, problem.h
    stack_norm = np.sqrt(
        np.linalg.norm(big_l, "fro") ** 2 + np.linalg.norm(big_h) ** 2
    )
    pert_norm = np.sqrt(
        np.linalg.norm(sample.dL, "fro") ** 2 + np.linalg.norm(sample.dh) ** 2
    )
    eps1 = float(pert_norm / stack_norm)
    eps2, _ = _max_ratio(
        np.hstack([sample.dL, sample.dh[:, None]]),
        np.hstack([big_l, big_h[:, None]]),
    )
    flags = list(sol.core.warnings)
    fwd2 = fwdinf = fwdcw = eta = None
    try:
        dx = solve_qr_svd(apply_sample(problem, sample)).x - sol.x
    except (IllPosedError, NonGenericError, NumericalError):
        flags.append("degenerate")
    else:
        fwd2 = float(np.linalg.norm(dx) / np.linalg.norm(sol.x))
        fwdinf = float(
            np.abs(dx).max(initial=0.0) / np.abs(sol.x).max(initial=0.0)
        )
        fwdcw, _ = _max_ratio(dx, sol.x)
        norm_dx = np.linalg.norm(dx)
        if norm_dx > 0:
            predicted = apply_k(op, sample.dL, sample.dh)
            eta = float(np.linalg.norm(dx - predicted) / norm_dx)
        else:
            eta = 0.0
    core_sigma = sol.core.sigma
    core_cond = float(core_sigma[0] / core_sigma[-1]) if core_sigma[-1] > 0 else float("inf")
    return ExperimentRow(
        label=label,
        fwd_err_2=fwd2,
        fwd_err_inf=fwdinf,
        fwd_err_cw=fwdcw,
        eta_rel=eta,
        eps1=eps1,
        eps2=eps2,
        kappa_n=report.kappa_n,
        kappa_n_upper=report.kappa_n_upper,
        kappa_m=report.kappa_m,
        kappa_m_upper=report.kappa_m_upper,
        kappa_c=report.kappa_c,
        kappa_c_upper=report.kappa_c_upper,
        kappa_c_finite=report.kappa_c_finite,
        constraint_gain_norm=op.constraint_gain_norm,
        core_cond=core_cond,
        flags=";".join(flags),
    )


def format_sci(x) -> str:
    """3-significant-digit scientific notation, bare exponent: 7.56e-5."""
    if x is None:
        return ""
    x = float(x)
    if np.isnan(x):
        return "nan"
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    mant, exp = f"{x:.2e}".split("e")
    return f"{mant}e{int(exp)}"


def emit_table(rows, format: str = "csv") -> str:
    """Render rows as CSV (3-significant-digit style) or JSON (full precision).

    Column order follows TABLE_COLUMNS. The JSON form carries every
    dataclass field plus the derived bound columns and is parseable back
    into rows by parse_table.
    """
    rows = list(rows)
    if not rows:
        raise InputError("emit_table needs at least one row")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for row in rows:
            out = []
            for col in TABLE_COLUMNS:
                val = getattr(row, col)
                out.append(val if isinstance(val, str) else format_sci(val))
            writer.writerow(out)
        return buf.getvalue()
    if format == "json":
        payload = []
        for row in rows:
            entry = {f.name: getattr(row, f.name) for f in fields(ExperimentRow)}
            for col in TABLE_COLUMNS:
                if col not in entry:
                    entry[col] = getattr(row, col)
            payload.append(entry)
        return json.dumps(payload, indent=2)
    raise InputError(f"unknown format {format!r}, expected csv|json")


def parse_table(text: str) -> list[ExperimentRow]:
    """Inverse of emit_table(format="json")."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not a JSON table: {exc}") from exc
    names = {f.name for f in fields(ExperimentRow)}
    return [
        ExperimentRow(**{k: v for k, v in entry.items() if k in names})
        for entry in payload
    ]


def save_problem(problem: TlseProblem, path, meta=None) -> None:
    """Write a problem as an uncompressed .npz file, at path as given.

    C, d, A and b read back bit-identically; meta, when given, is stored as
    its json.dumps text in a 0-d unicode array, so no pickle is needed. The
    bytes are built before the file is opened: a meta that json.dumps
    refuses raises TypeError and leaves no file.
    """
    arrays = {"C": problem.C, "d": problem.d, "A": problem.A, "b": problem.b}
    if meta is not None:
        arrays["meta"] = np.array(json.dumps(meta))
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getbuffer())


def _npz_fields(path, fh) -> dict:
    fields, name = {}, None
    try:
        with np.load(fh, allow_pickle=False) as npz:
            for name in "CdAb":
                if name in npz.files:
                    fields[name] = np.asarray(npz[name])  # a non-.npy member is bytes
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        what = "file" if name is None else f"field {name}"
        raise InputError(f"{path}: {what} is not readable .npz: {exc}") from exc
    return fields


def _field_array(path, name: str, raw) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(
            f"{path}: field {name} is not a rectangular array of numbers: {exc}"
        ) from exc


def _json_fields(path, data: bytes) -> dict:
    try:
        obj = json.loads(data)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise InputError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(
            f"{path}: top level must be a JSON object, got {type(obj).__name__}"
        )
    fields = {k: _field_array(path, k, obj[k]) for k in "CdAb" if k in obj}
    # a C without rows is written [], which loses its column count
    if "C" in fields and fields["C"].shape == (0,):
        del fields["C"]
    return fields


def load_problem(path) -> TlseProblem:
    """Read a problem file written by save_problem, or JSON written by hand.

    The format is chosen by content: a file that starts with the zip magic
    is read as .npz, without pickle, any other as a JSON object of row-major
    nested lists through the stdlib json. A and b are required, C and d
    optional, meta ignored. A file that is not such a problem (A or C not a
    real matrix, b or d not a real vector, NaN/Infinity entries) raises
    InputError naming the file and, where there is one, the field.
    """
    with open(path, "rb") as fh:
        zipped = fh.read(4) == b"PK\x03\x04"
        fh.seek(0)
        read = _npz_fields(path, fh) if zipped else _json_fields(path, fh.read())
    fields = {"C": np.zeros((0, 0)), "d": np.zeros(0), **read}
    missing = [k for k in ("A", "b") if k not in fields]
    if missing:
        raise InputError(f"{path}: missing required fields {missing}")
    for name, arr in fields.items():
        ndim = 2 if name in ("C", "A") else 1
        if arr.dtype.kind not in "iuf" or arr.ndim != ndim:
            raise InputError(
                f"{path}: field {name} must be a {ndim}-d array of real numbers, "
                f"got {arr.dtype} of shape {arr.shape}"
            )
    return TlseProblem(**fields)


def table1(
    kappas=(1e2, 1e4, 1e6, 1e8),
    trials: int = 1,
    seed: int = 0,
    scale: float = 1e-8,
    dims: tuple[int, int, int] = (5, 20, 15),
) -> list[ExperimentRow]:
    """Equilibratory sweep over target constraint condition numbers."""
    p, q, n = dims
    rows = []
    for i, kappa in enumerate(kappas):
        for tr in range(trials):
            spec = GeneratorSpec(
                kind="equilibratory",
                p=p,
                q=q,
                n=n,
                kappa_c=kappa,
                seed=derive_seed(seed, i, tr),
            )
            problem = gen_equilibratory(spec)
            sample = perturb(
                problem, "normwise", scale, derive_seed(seed, i, tr, 1)
            )
            label = f"kC={kappa:.0e}"
            if trials > 1:
                label += f" t{tr}"
            rows.append(run_experiment(problem, sample, label=label))
    return rows


def table2(
    ms=(50, 100),
    deltas=(1e-2, 1e-3, 1e-4),
    seed: int = 0,
    trials: int = 20,
    scale: float = 1e-8,
    eps: float = 1e-8,
    oversample: int = 5,
    sketch: int | None = None,
) -> list[ExperimentRow]:
    """Prescribed-spectrum sweep with randomized-solver deviation medians.

    The nwtls_dev column holds the median relative deviation of the
    randomized solver from the QR-SVD solution over `trials` (>= 1) seeds;
    all trials share one weighted R factor, and each equals solve_nwtls
    with its seed. By default the sketch width is n-p+1 plus the
    oversample; passing `sketch` pins the sample size to that width, which
    is how the delta-sensitivity of a genuinely low-rank sketch is exposed.
    """
    if trials < 1:
        raise InputError(f"trials must be at least 1, got {trials}")
    cfg = NwtlsConfig(eps=eps, oversample=oversample, sample_size=sketch)
    rows = []
    for mi, m in enumerate(ms):
        for di, delta in enumerate(deltas):
            spec = GeneratorSpec(
                kind="householder_spectrum",
                m=m,
                delta=delta,
                seed=derive_seed(seed, mi, di),
            )
            problem = gen_householder_spectrum(spec)
            sample = perturb(
                problem, "normwise", scale, derive_seed(seed, mi, di, 1)
            )
            sol = solve_qr_svd(problem)
            row = run_experiment(
                problem, sample, label=f"m={m} delta={delta:.0e}", solution=sol
            )
            width = cfg.resolve(problem.n, problem.p)
            seeds = [derive_seed(seed, mi, di, 2, s) for s in range(trials)]
            xs = _nystrom(embed(problem, eps).r, width, seeds)
            ref_norm = np.linalg.norm(sol.x)
            devs = [float(np.linalg.norm(x - sol.x) / ref_norm) for x in xs]
            rows.append(replace(row, nwtls_dev=median(devs)))
    return rows


def table3(
    a_list=(0.05, 0.5, 0.9),
    seed: int = 0,
    m_pts: int = 200,
    n_pts: int = 400,
    scale: float = 1e-8,
    continuous: bool = False,
) -> list[ExperimentRow]:
    """Piecewise-cubic sweep over the knot with componentwise perturbations.

    continuous defaults to False here: the inconsistent fit is what makes
    the knot extremes nearly degenerate and the scaling discrimination
    between the normwise and componentwise bounds visible.
    """
    rows = []
    for ai, a in enumerate(a_list):
        spec = GeneratorSpec(
            kind="piecewise_poly",
            knot=a,
            m_pts=m_pts,
            n_pts=n_pts,
            continuous=continuous,
            seed=derive_seed(seed, ai),
        )
        problem = gen_piecewise_poly(spec)
        sample = perturb(
            problem, "componentwise", scale, derive_seed(seed, ai, 1)
        )
        rows.append(run_experiment(problem, sample, label=f"a={a:g}"))
    return rows
