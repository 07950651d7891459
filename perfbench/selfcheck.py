"""Fast self-check of the benchmark (about a minute on 2 cores).

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json names exactly the workloads and metrics that
run.py produces, that the seed-0 reference files match the job lists,
that every workload runs cleanly at a tiny size in both modes, and that
run.py fails without a result where the program's sources are missing.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import jobs as jobs_mod
from run import END_TO_END, HERE, OUT, PER_LAYER, ROOT, child_env

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selfcheck: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in spec["workloads"]] != list(jobs_mod.WORKLOADS):
        fail(f"BENCHMARK.json workloads differ from {jobs_mod.WORKLOADS}")
    for key, produced in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != produced:
            missing = set(produced) ^ set(listed)
            fail(f"BENCHMARK.json {key} differs from run.py: {sorted(missing) or 'units'}")
    for metric in spec["end_to_end"]:
        if not 0.0 < metric["bound"] <= 0.25:
            fail(f"bound of {metric['name']} outside (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["better"] != "lower" or setup[0]["bound"] != max(
        m["bound"] for m in spec["end_to_end"]
    ):
        fail("setup_s must be lower-is-better with the largest bound")
    return spec


def check_references() -> None:
    for workload in jobs_mod.WORKLOADS:
        reference = jobs_mod.load_reference(workload)
        if reference is None:
            fail(f"missing reference/{workload}.json")
        for job in jobs_mod.build(workload, jobs_mod.DEFAULT_SEED):
            if reference.get(job.name, {}).get("argv") != list(job.argv):
                fail(f"{workload}/{job.name}: reference made for other arguments")


def run_tiny(workload: str, trace: int, expected: dict) -> None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: jobs failed: {proc.stderr[-800:]}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(expected))} differ")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload} trace={trace}: {name} is not a number")
    print(f"selfcheck: {workload} trace={trace} ok ({result['attempted']} jobs)")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and perfbench/: run.py must fail without a result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = child_env()
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "curves", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py succeeded or printed a result without the program's sources")
    print("selfcheck: bare directory refused ok")


def main() -> int:
    check_spec()
    check_references()
    check_bare_directory()
    for workload in jobs_mod.WORKLOADS:
        run_tiny(workload, 0, END_TO_END)
        run_tiny(workload, 1, PER_LAYER)
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
