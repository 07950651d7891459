"""Workload definitions and the correctness gate for the srbosonic benchmark.

A workload is a fixed list of CLI jobs.  Seed 0 reproduces the README
recipes (the closed-form curves on a 0.001 grid); any other seed
jitters each job's threshold list and shifts its grid by less than a
tenth of a step, so every seed does the same amount of work on different
inputs (a larger shift would move the Fock cutoffs).

Each job's CSV output is checked two ways: invariants that hold at any
seed, and, at seed 0, a comparison with the stored reference values in
``reference/<workload>.json`` (written by ``make_reference.py``).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
WORKLOADS = ("curves", "leak", "leak-large")
DEFAULT_SEED = 0

# tolerances; the first two mirror srbosonic's ROOT_RESIDUAL_TOL and
# MIX_ENTROPY_TOL, and the onset-path interval is bisected to 1e-6 in θ
ROOT_RESIDUAL_TOL = 1e-10
ONSET_TOL = 1e-6
CHI_TOL = 1e-6
REL_TOL = 1e-12
MC_SIGMAS = 5.0
# rows kept per job in a reference file; column sums cover the rest
REFERENCE_ROWS = 100


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output must satisfy.

    ``grid`` is (start, step, count) for the x column of a grid command,
    or None for a single-row solve; ``kind`` selects the invariants.
    """

    name: str
    argv: tuple
    kind: str
    grid: tuple | None = None
    thetas: tuple = ()

    @property
    def command(self) -> str:
        return self.argv[0]


def _num(x: float) -> str:
    return repr(round(x, 9))


class _Jitter:
    """Per-job random stream; the identity at the default seed."""

    def __init__(self, workload: str, job: str, seed: int):
        self.active = seed != DEFAULT_SEED
        self.rng = random.Random(f"{workload}/{job}/{seed}")

    def thetas(self, base, spread):
        if not self.active:
            return tuple(base)
        return tuple(round(t + self.rng.uniform(-spread, spread), 6) for t in base)

    def grid(self, start, stop, step, tiny):
        """Grid flags and the (start, step, count) they must produce."""
        count = int(round((stop - start) / step)) + 1
        if tiny:
            count = min(count, 6)
            stop = start + (count - 1) * step
        if self.active:
            start = round(start + self.rng.uniform(0.0, 0.1 * step), 9)
            # a quarter step of slack keeps the point count independent
            # of how (stop - start) / step rounds
            stop = start + (count - 0.75) * step
        flags = ("--grid-start", _num(start), "--grid-stop", _num(stop),
                 "--grid-step", _num(step))
        return flags, (start, step, count)


def _theta_flag(thetas) -> tuple:
    # one "--theta=..." token, so a jittered list may start with a minus sign
    return ("--theta=" + ",".join(_num(t) for t in thetas),)


def _curve_job(workload, seed, tiny, name, argv, kind, thetas, spread, grid, extra=()):
    jit = _Jitter(workload, name, seed)
    ths = jit.thetas(thetas, spread)
    if tiny:
        ths = ths[:2]
    flags, spec = jit.grid(*grid, tiny)
    return Job(name, tuple(argv) + _theta_flag(ths) + flags + tuple(extra), kind, spec, ths)


_CLASSICAL = ("--eta", "0.8", "--alpha-q", "1")
_SWEEP_THETAS = (0.85, 0.95, 1.05, 1.15, 1.25, 1.35)
_QUBIT_THETAS = (0.20, 0.25, 0.29, 0.31, 0.35, 0.40)
_RATE_THETAS = (0, 0.5, 1, 1.5, 2, 2.5)
_DISCRIMINATE = ("--eta0", "0.9", "--eta1", "0.4", "--alpha-q", "1.5")


def _curves(seed: int, tiny: bool) -> list:
    w = "curves"
    dense = (0.0, 3.0, 0.001)
    jobs = [
        _curve_job(w, seed, tiny, "sweep", ("sweep",) + _CLASSICAL, "prob",
                   _SWEEP_THETAS, 0.02, dense),
        # the README sweep through the process pool: one pool per θ series
        _curve_job(w, seed, tiny, "sweep-parallel", ("sweep",) + _CLASSICAL, "prob",
                   _SWEEP_THETAS, 0.02, (0.0, 3.0, 0.05), ("--parallel", "2")),
    ]
    for name, vary, start, stop in (("interval-r", "r", 0.0, 2.0),
                                    ("interval-alpha", "alpha-q", 0.2, 3.0)):
        flags, spec = _Jitter(w, name, seed).grid(start, stop, 0.001, tiny)
        jobs.append(Job(name, ("interval",) + _CLASSICAL + ("--vary", vary) + flags,
                        "interval", spec))
    jobs += [
        Job("rectangle", ("rectangle",) + _CLASSICAL + ("--alpha-p", "1"), "rectangle"),
        _curve_job(w, seed, tiny, "discriminate", ("discriminate",) + _DISCRIMINATE,
                   "prob", (2.0,), 0.05, dense),
        Job("discriminate-interval", ("discriminate",) + _DISCRIMINATE + ("--interval",),
            "interval"),
        Job("discriminate-onset", ("discriminate",) + _DISCRIMINATE
            + ("--interval", "--r", "0.3", "--site", "sender"), "onset"),
        _curve_job(w, seed, tiny, "fidelity", ("fidelity", "--x0", "0.3"), "prob",
                   _QUBIT_THETAS, 0.005, dense),
        _curve_job(w, seed, tiny, "negativity", ("negativity", "--x0", "0.3"), "nonneg",
                   _QUBIT_THETAS, 0.005, dense),
    ]
    jit = _Jitter(w, "mc-check", seed)
    theta = jit.thetas((0.6,), 0.02)[0]
    flags, spec = jit.grid(0.0, 2.0, 0.25, tiny)
    jobs.append(Job("mc-check", ("mc-check",) + _CLASSICAL + (
        "--theta=" + _num(theta), "--n", "10000" if tiny else "1000000",
        "--seed", str(42 + seed)) + flags, "mc", spec))
    return jobs


def _private(w, seed, tiny, name, argv, thetas, spread, grid):
    return _curve_job(w, seed, tiny, name, ("private",) + tuple(argv), "rate",
                      thetas, spread, grid)


def build(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's jobs for this seed; ``tiny`` shrinks every grid."""
    rate_grid = (0.0, 3.0, 0.1)
    if workload == "curves":
        return _curves(seed, tiny)
    if workload == "leak":
        jit = _Jitter(workload, "probe-conjecture", seed)
        ths = jit.thetas(_RATE_THETAS, 0.05)[: 2 if tiny else None]
        flags, spec = jit.grid(*rate_grid, tiny)
        return [
            _private(workload, seed, tiny, "private-sender",
                     _CLASSICAL + ("--site", "sender"), _RATE_THETAS, 0.05, rate_grid),
            _private(workload, seed, tiny, "private-receiver",
                     _CLASSICAL + ("--site", "receiver"), _RATE_THETAS, 0.05, rate_grid),
            Job("probe-conjecture",
                ("probe-conjecture",) + _CLASSICAL + _theta_flag(ths) + flags,
                "probe", spec, ths),
        ]
    if workload == "leak-large":
        return [
            _private(workload, seed, tiny, "private-large",
                     ("--eta", "0.5", "--alpha-q", "3", "--r", "0.5", "--site", "sender"),
                     (0, 1.5, 3), 0.1, (0.0, 3.0, 0.25)),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Correctness gate


def parse_csv(text: str) -> tuple:
    """(column names, rows of floats) from the CLI's CSV output."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected a header and at least one row, got {len(lines)} lines")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
        rows.append([float(c) for c in cells])
    return header, rows


def _column_tolerance(job: Job, column: str):
    """("abs"|"rel"|"exact"|"skip", tolerance) for comparing one column."""
    if job.kind == "rate" and column.startswith("theta="):
        return "abs", CHI_TOL
    if job.kind == "probe":
        if column == "gain":
            return "abs", CHI_TOL
        if column == "nonmonotonic":
            return "exact", 0.0
        if column == "argmax_sigma":
            return "abs", job.grid[1] * (1.0 + 1e-9)
    if "residual" in column:
        # checked against the solver bound instead: a residual is rounding
        # noise whose last digits are not part of the result
        return "skip", 0.0
    if job.kind == "onset":
        return "abs", ONSET_TOL
    return "rel", REL_TOL


_INTERVAL_COLUMNS = ("theta_minus", "theta_plus", "residual_minus", "residual_plus")
_REQUIRED = {
    "interval": _INTERVAL_COLUMNS,
    "onset": _INTERVAL_COLUMNS,
    "rectangle": ("q_lo", "q_hi", "p_lo", "p_hi", "q_residual_lo", "q_residual_hi",
                  "p_residual_lo", "p_residual_hi"),
    "mc": ("analytic", "estimate", "std_error"),
    "probe": ("nonmonotonic", "argmax_sigma", "gain"),
}


def _invariants(job: Job, header: list, rows: list) -> list:
    missing = [name for name in _REQUIRED.get(job.kind, ()) if name not in header]
    series = [name for name in header if name.startswith("theta=")]
    if job.kind in ("prob", "nonneg", "rate") and len(series) != len(job.thetas):
        missing.append(f"{len(job.thetas)} theta= series (got {len(series)})")
    if missing:
        return [f"missing columns: {', '.join(missing)}"]
    problems = []
    for row in rows:
        if not all(math.isfinite(v) for v in row):
            problems.append("non-finite value")
            break
    if job.grid is not None:
        start, step, count = job.grid
        if job.kind == "probe":
            xs = [row[0] for row in rows]
            if len(rows) != len(job.thetas) or any(
                abs(a - b) > 1e-12 for a, b in zip(xs, job.thetas)
            ):
                problems.append(f"expected one row per theta {job.thetas}, got x={xs}")
        else:
            if len(rows) != count:
                problems.append(f"expected {count} grid rows, got {len(rows)}")
            elif abs(rows[0][0] - start) > 1e-9 or abs(rows[-1][0] - (start + (count - 1) * step)) > 1e-6:
                problems.append(f"grid runs {rows[0][0]}..{rows[-1][0]}, expected from {start}")
    elif len(rows) != 1:
        problems.append(f"expected a single row, got {len(rows)}")
    cols = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    if job.kind == "prob":
        if any(not 0.0 <= v <= 1.0 for name in series for v in cols[name]):
            problems.append("probability outside [0, 1]")
    elif job.kind == "nonneg":
        if any(v < 0.0 for name in series for v in cols[name]):
            problems.append("negative log-negativity")
    elif job.kind == "rate":
        if any(v > 1.0 for name in series for v in cols[name]):
            problems.append("private rate above 1 bit")
    elif job.kind in ("interval", "onset", "rectangle"):
        bound = ONSET_TOL if job.kind == "onset" else ROOT_RESIDUAL_TOL
        worst = max(abs(v) for name in header if "residual" in name for v in cols[name])
        if worst > bound:
            problems.append(f"interval residual {worst:.3e} exceeds {bound:g}")
        for lo, hi in (("theta_minus", "theta_plus"), ("q_lo", "q_hi"), ("p_lo", "p_hi")):
            if lo in cols and any(a >= b for a, b in zip(cols[lo], cols[hi])):
                problems.append(f"{lo} is not below {hi}")
    elif job.kind == "mc":
        for a, e, se in zip(cols["analytic"], cols["estimate"], cols["std_error"]):
            if not (0.0 <= a <= 1.0 and 0.0 <= e <= 1.0):
                problems.append("probability outside [0, 1]")
                break
            if abs(a - e) > MC_SIGMAS * se:
                problems.append(f"analytic {a} is {abs(a - e) / se:.1f} standard errors from {e}")
                break
    elif job.kind == "probe":
        start, step, count = job.grid
        top = start + (count - 1) * step + 1e-9
        if any(v not in (0.0, 1.0) for v in cols["nonmonotonic"]):
            problems.append("nonmonotonic flag is not 0 or 1")
        if any(not start - 1e-9 <= v <= top for v in cols["argmax_sigma"]):
            problems.append("argmax_sigma outside the grid")
        if any(v < 0.0 for v in cols["gain"]):
            problems.append("negative gain")
    return problems


def reference_entry(job: Job, header: list, rows: list) -> dict:
    """What make_reference.py stores for one job: sampled rows and column sums."""
    stride = max(1, math.ceil(len(rows) / REFERENCE_ROWS))
    keep = sorted(set(range(0, len(rows), stride)) | {len(rows) - 1})
    return {
        "argv": list(job.argv),
        "columns": header,
        "count": len(rows),
        "rows": {str(i): rows[i] for i in keep},
        "sums": [math.fsum(row[c] for row in rows) for c in range(len(header))],
        "abs_sums": [math.fsum(abs(row[c]) for row in rows) for c in range(len(header))],
    }


def _close(mode: str, tol: float, got: float, want: float, scale: float) -> bool:
    if mode == "skip":
        return True
    if mode == "exact":
        return got == want
    return abs(got - want) <= tol * scale


def _against_reference(job: Job, header: list, rows: list, ref: dict) -> list:
    if ref.get("argv") != list(job.argv):
        return ["reference was made for other arguments; rerun make_reference.py"]
    if header != ref["columns"] or len(rows) != ref["count"]:
        return [f"shape {header} x {len(rows)} differs from the reference"]
    problems = []
    for c, name in enumerate(header):
        mode, tol = _column_tolerance(job, name)
        for i, want_row in ref["rows"].items():
            got, want = rows[int(i)][c], want_row[c]
            if not _close(mode, tol, got, want, 1.0 if mode == "abs" else abs(want)):
                problems.append(f"{name} row {i}: {got!r} differs from reference {want!r}")
                break
        total = math.fsum(row[c] for row in rows)
        scale = len(rows) if mode == "abs" else ref["abs_sums"][c]
        if not _close(mode, tol, total, ref["sums"][c], scale):
            problems.append(f"{name}: column sum {total!r} differs from reference {ref['sums'][c]!r}")
    return problems


def load_reference(workload: str) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def check(job: Job, returncode: int, stdout: str, reference: dict | None) -> list:
    """Problems with one job's result; empty when it passes the gate.

    ``reference`` is the workload's reference table, or None when the
    outputs are checked against invariants only (seeds other than 0).
    """
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        header, rows = parse_csv(stdout)
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    problems = _invariants(job, header, rows)
    if reference is not None:
        entry = reference.get(job.name)
        if entry is None:
            problems.append("no reference entry for this job")
        else:
            problems += _against_reference(job, header, rows, entry)
    return problems
