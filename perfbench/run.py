"""srbosonic benchmark: CLI time-to-result, with a traced run for per-layer numbers.

Usage, from the repository root:

    python3 perfbench/run.py --workload leak --seed 0 --seconds 36 --trace 0

One client runs the workload's jobs one after another (a closed loop),
each as a fresh ``python -m srbosonic.cli`` process with ``src`` on
PYTHONPATH, and repeats the pass while another one fits in ``--seconds``.
Every job's output goes through the correctness gate in ``jobs.py``.

``--trace 0`` prints the end-to-end metrics (per-job medians over the
passes, set-up time over several fresh imports).  ``--trace 1`` runs the pass
in-process three times, the middle one traced (see ``tracing.py``), and
prints the per-layer metrics.  The last stdout line is the JSON result; a fuller
record, with the environment, goes to ``perfbench/out/``.

The BLAS thread setting is inherited, never pinned, and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPS_START = 2  # then one more after every pass
IMPORTTIME_REPS = 3
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
MAX_PASSES = 50

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

_SCHEMES = (
    "success_classical",
    "success_discrimination",
    "classical_channel",
    "forbidden_interval_classical",
    "forbidden_interval_discrimination",
    "forbidden_rectangle",
)
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "cmd.private_s": "s",
    "cmd.probe-conjecture_s": "s",
    "cli.main.self_s": "s",
    "cli.format_s": "s",
    "cli.pools": "count",
    "cli.pool_map_s": "s",
    **{f"schemes.{n}.{k}": u for n in _SCHEMES for k, u in (("calls", "count"), ("busy_s", "s"))},
    "rootfind.bisect.calls": "count",
    "rootfind.bisect.evals": "count",
    "rootfind.golden_max.calls": "count",
    "rootfind.golden_max.evals": "count",
    "rootfind.golden_max.busy_s": "s",
    "threshold.mutual_information.calls": "count",
    "threshold.mc_success_probability.busy_s": "s",
    **{f"qubit.{n}.{k}": u for n in ("average_fidelity", "log_negativity")
       for k, u in (("calls", "count"), ("busy_s", "s"))},
    "fock.gaussian_to_fock.calls": "count",
    "fock.gaussian_to_fock.busy_s": "s",
    "fock.gaussian_to_fock.failed": "count",
    "fock.cutoff.max": "dim",
    "fock.cutoff.median": "dim",
    "fock.von_neumann_entropy.calls": "count",
    "fock.von_neumann_entropy.busy_s": "s",
    "fock.builds_per_chi": "ratio",
    "fock.useful_build_ratio": "ratio",
    "private_rate.holevo_chi.calls": "count",
    "private_rate.holevo_chi.busy_s": "s",
    "private_rate.holevo_chi.self_s": "s",
    "private_rate.holevo_chi.unique_ratio": "ratio",
    "private_rate.private_rate.calls": "count",
    "private_rate.private_rate.busy_s": "s",
    "private_rate.conjecture_probe.busy_s": "s",
    "trace.overhead_s": "s",
}

# also imports srbosonic.cli once, which byte-compiles it on a fresh
# checkout, so setup_s never times compilation
_ENV_PROBE = r"""
import json, os, platform
import numpy, scipy
import srbosonic.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "cores": os.cpu_count(),
    "cores_usable": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "default"),
}))
"""


@dataclass
class Spawned:
    returncode: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_mb: float


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


def spawn(argv: list, env: dict, timeout: float) -> Spawned:
    """Run argv to completion in its own process group and reap everything.

    Time runs from just before the fork to the reap; max RSS is the
    child's (or its largest reaped descendant's) from wait4.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True,
    )
    timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    # a pool worker the CLI left behind would still be in the group
    _kill_group(proc.pid)
    return Spawned(
        proc.returncode,
        out.decode("utf-8", "replace"),
        err[0].decode("utf-8", "replace") if err else "",
        seconds,
        usage.ru_maxrss / 1024.0,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Run:
    """Deadline, job accounting and failure log shared by both modes."""

    def __init__(self, reference):
        self.reference = reference
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.records = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def record(self, job, pass_no: int, returncode: int, stdout: str, seconds: float,
               extra: dict) -> None:
        problems = jobs_mod.check(job, returncode, stdout, self.reference)
        self.attempted += 1
        if problems:
            self.failures.append({"job": job.name, "pass": pass_no, "problems": problems[:5]})
        self.records.append({"job": job.name, "pass": pass_no, "seconds": seconds,
                             "ok": not problems, **extra})


def environment(env: dict) -> dict:
    proc = spawn([sys.executable, "-c", _ENV_PROBE], env, 60.0)
    if proc.returncode != 0:
        raise RuntimeError(f"environment probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# End-to-end mode


def import_seconds(env: dict) -> float:
    """Wall time of one fresh ``python -c "import srbosonic.cli"``."""
    proc = spawn([sys.executable, "-c", "import srbosonic.cli"], env, 60.0)
    if proc.returncode != 0:
        raise RuntimeError(f"import srbosonic.cli failed: {proc.stderr.strip()[-400:]}")
    return proc.seconds


def end_to_end(run: Run, job_list: list, env: dict, seconds: float) -> dict:
    # set-up is sampled at the start and after every pass, so a slow spell
    # on the machine moves a few samples rather than all of them
    setup = [import_seconds(env) for _ in range(SETUP_REPS_START)]
    job_times = {job.name: [] for job in job_list}
    pass_walls, pass_rss = [], []
    loop_start = time.perf_counter()
    while len(pass_walls) < MAX_PASSES:
        wall, rss = 0.0, 0.0
        for job in job_list:
            proc = spawn([sys.executable, "-m", "srbosonic.cli", *job.argv], env,
                         run.remaining())
            wall += proc.seconds
            rss = max(rss, proc.max_rss_mb)
            job_times[job.name].append(proc.seconds)
            run.record(job, len(pass_walls), proc.returncode, proc.stdout, proc.seconds,
                       {"max_rss_mb": proc.max_rss_mb, "stderr": proc.stderr[-400:]})
        pass_walls.append(wall)
        pass_rss.append(rss)
        setup.append(import_seconds(env))
        elapsed = time.perf_counter() - loop_start
        # a closed loop: start another pass only if it should end in time,
        # and with room to spare inside the hard limit on a run
        if elapsed + wall > seconds or elapsed + 2 * wall > run.remaining():
            break
    return {
        # each job's median over the passes, summed: a stall that hits one
        # job in one pass does not move the figure
        "wall_s": sum(statistics.median(t) for t in job_times.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(pass_rss),
        "ok_frac": (run.attempted - len(run.failures)) / run.attempted,
        "pass_walls": pass_walls,
        "setup_samples": setup,
    }


# ---------------------------------------------------------------------------
# Traced mode


def _in(name: str, packages: tuple) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def _outermost_cumulative(entries: list, package: str, skip_under: tuple = ()) -> float:
    """Summed cumulative µs of imports of package with no ancestor in it.

    Imports made under a package in skip_under are left to that package.
    """
    total = 0
    ancestors = []  # (level, name); -X importtime prints children first
    for level, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        if _in(name, (package,)) and not any(
            _in(n, (package,) + skip_under) for _, n in ancestors
        ):
            total += cumulative
        ancestors.append((level, name))
    return total


def import_breakdown(env: dict) -> dict:
    """import.* metrics: medians over ``python -X importtime`` runs."""
    samples = {"import.total_s": [], "import.scipy_s": [], "import.numpy_s": []}
    for _ in range(IMPORTTIME_REPS):
        proc = spawn([sys.executable, "-X", "importtime", "-c", "import srbosonic.cli"],
                     env, 60.0)
        if proc.returncode != 0:
            raise RuntimeError(f"import srbosonic.cli failed: {proc.stderr.strip()[-400:]}")
        entries = []
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            raw = parts[2].rstrip()
            name = raw.lstrip()
            entries.append(((len(raw) - len(name) - 1) // 2, name, cumulative))
        samples["import.total_s"].append(_outermost_cumulative(entries, "srbosonic.cli") / 1e6)
        samples["import.scipy_s"].append(_outermost_cumulative(entries, "scipy") / 1e6)
        # numpy modules that only scipy pulls in count as scipy's cost
        samples["import.numpy_s"].append(
            _outermost_cumulative(entries, "numpy", skip_under=("scipy",)) / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}


def _in_process_pass(run: Run, job_list: list, pass_no: int, tracer=None) -> dict:
    """Run each job through srbosonic.cli.main; returns seconds per command."""
    cli = sys.modules["srbosonic.cli"]
    by_command = {}
    for index, job in enumerate(job_list):
        if tracer is not None:
            tracer.job = index
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                returncode = cli.main(list(job.argv))
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            returncode = f"uncaught {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        by_command[job.command] = by_command.get(job.command, 0.0) + seconds
        run.record(job, pass_no, returncode, out.getvalue(), seconds,
                   {"traced": tracer is not None})
    return by_command


def traced(run: Run, job_list: list, env: dict) -> tuple:
    metrics = import_breakdown(env)
    sys.path.insert(0, str(SRC))
    import srbosonic.cli  # noqa: F401  (loads every srbosonic module)

    # untraced, traced, untraced: the traced pass is compared with the mean
    # of the passes on either side, so warm-up and drift fall on both
    before = _in_process_pass(run, job_list, 0)
    tracer = Tracer()
    tracer.install()
    try:
        with_trace = _in_process_pass(run, job_list, 1, tracer)
    finally:
        tracer.uninstall()
    after = _in_process_pass(run, job_list, 2)
    metrics.update(tracer.layer_metrics())
    for command in ("private", "probe-conjecture"):
        metrics[f"cmd.{command}_s"] = (before.get(command, 0.0) + after.get(command, 0.0)) / 2
    metrics["trace.overhead_s"] = (
        sum(with_trace.values()) - (sum(before.values()) + sum(after.values())) / 2
    )
    return metrics, tracer


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=jobs_mod.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every grid (used by selfcheck.py)")
    args = parser.parse_args(argv)

    if not (SRC / "srbosonic" / "cli.py").is_file():
        print(f"error: no srbosonic sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    reference = None
    if args.seed == jobs_mod.DEFAULT_SEED and not args.tiny:
        reference = jobs_mod.load_reference(args.workload)
        if reference is None:
            print(f"error: missing reference/{args.workload}.json", file=sys.stderr)
            return 2

    env = child_env()
    job_list = jobs_mod.build(args.workload, args.seed, tiny=args.tiny)
    run = Run(reference)
    info = environment(env)
    print("env " + json.dumps(info, sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        values, tracer = traced(run, job_list, env)
        units = PER_LAYER
    else:
        values = end_to_end(run, job_list, env, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}" + ("_tiny" if args.tiny else "")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "tiny": args.tiny, "environment": info, "passes": values.get("pass_walls"),
              "setup_samples": values.get("setup_samples"),
              "failures": run.failures, "jobs": run.records, "result": result}
    if tracer is not None:
        record["trace_counts"] = {job_list[j].name: row
                                  for j, row in tracer.job_counts().items()}
    (OUT / f"result_{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                           encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT / f"spans_{args.workload}.csv")
    for failure in run.failures:
        print(f"FAILED {failure['job']} (pass {failure['pass']}): "
              + "; ".join(failure["problems"]), file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
