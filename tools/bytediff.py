"""Run the same CLI invocations on two trees and compare every byte.

    python tools/bytediff.py --against REV [--json PATH]

REV is any git revision of this repository.  It is extracted with
``git archive`` into a temporary directory, so no network is needed; the
other tree is the checkout that holds this script, as it stands on disk.
Each run is ``python -m srbosonic.cli ARGS`` in a fresh process and a
fresh empty directory, with ``PYTHONPATH`` set to the tree's ``src``.
The runs are:

- every job of ``perfbench/jobs.build(workload, seed)`` for each workload
  at seeds 0 and 1, once as CSV and once with ``--format json``;
- ``--help`` for the top level and for each command;
- each ``srbosonic`` recipe in the README's ``sh`` blocks.

The job list, the command list and the recipes come from this checkout,
and both trees run the same invocations.  A run is identical when its exit
code, stdout, stderr and the files it wrote match byte for byte.  For a
CSV that differs (stdout of a CSV run, or a written ``.csv``) the report
gives the differing rows and cells and the largest |Δ| per numeric column.

One line per run and a summary line go to stdout; the full report goes to
``--json`` (default ``tools/out/bytediff.json``).  Exit status: 0 when
every run is identical, 1 when any differs, 2 when REV cannot be read.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_JSON = ROOT / "tools" / "out" / "bytediff.json"
SEEDS = (0, 1)
RUN_TIMEOUT_S = 600


def extract(rev: str, dest: Path) -> str:
    """Write REV's tree into dest; return its full commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def job_runs() -> list:
    """(name, argv) for every perfbench job at each seed, as CSV and as JSON."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import jobs as jobs_mod

    runs = []
    for workload in jobs_mod.WORKLOADS:
        for seed in SEEDS:
            for job in jobs_mod.build(workload, seed):
                name = f"{workload}/{job.name}/seed{seed}"
                runs.append((f"{name}/csv", list(job.argv)))
                runs.append((f"{name}/json", list(job.argv) + ["--format", "json"]))
    return runs


def help_runs() -> list:
    """(name, argv) for --help at the top level and for each command."""
    sys.path.insert(0, str(ROOT / "src"))
    from srbosonic.cli import _COMMANDS

    return [("help", ["--help"])] + [(f"help/{cmd}", [cmd, "--help"]) for cmd in _COMMANDS]


def readme_runs() -> list:
    """(name, argv) for each srbosonic command in the README's sh blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    runs = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv[:1] == ["srbosonic"]:
                runs.append((f"readme/{len(runs) + 1}/{argv[1]}", argv[1:]))
    return runs


def run(tree: Path, argv: list, workdir: Path) -> dict:
    """One CLI process in an empty directory: exit code, streams and written files."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "srbosonic.cli", *argv],
        cwd=workdir, env=env, capture_output=True, timeout=RUN_TIMEOUT_S,
    )
    files = {
        str(path.relative_to(workdir)): path.read_bytes()
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def csv_delta(old: bytes, new: bytes) -> dict:
    """Differing rows and cells, and the largest |Δ| per numeric column."""
    a = list(csv.reader(io.StringIO(old.decode("utf-8", "replace"))))
    b = list(csv.reader(io.StringIO(new.decode("utf-8", "replace"))))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return {"shape": "header or row count differs"}
    rows = cells = 0
    worst = {}
    for row_a, row_b in zip(a[1:], b[1:]):
        changed = [(name, x, y) for name, x, y in zip(a[0], row_a, row_b) if x != y]
        rows += bool(changed)
        cells += len(changed)
        for name, x, y in changed:
            try:
                delta = abs(float(x) - float(y))
            except ValueError:
                continue
            if math.isnan(delta):
                delta = math.inf
            worst[name] = max(worst.get(name, 0.0), delta)
    return {"rows": rows, "cells": cells, "max_abs_delta": worst}


def compare(name: str, argv: list, old: dict, new: dict) -> dict:
    """Which parts of two runs differ, with a CSV delta where one applies."""
    differs = [part for part in ("exit", "stdout", "stderr") if old[part] != new[part]]
    details = {}
    if "stdout" in differs and "--format" not in argv and "--help" not in argv:
        details["stdout"] = csv_delta(old["stdout"], new["stdout"])
    for path in sorted(old["files"].keys() | new["files"].keys()):
        if old["files"].get(path) != new["files"].get(path):
            differs.append(f"file:{path}")
            if path.endswith(".csv") and path in old["files"] and path in new["files"]:
                details[path] = csv_delta(old["files"][path], new["files"][path])
    return {"name": name, "argv": argv, "identical": not differs, "differs": differs,
            "exit": [old["exit"], new["exit"]], "csv": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare this checkout with")
    parser.add_argument("--json", default=str(DEFAULT_JSON), metavar="PATH",
                        help="where to write the JSON report (default tools/out/bytediff.json)")
    args = parser.parse_args(argv)
    # the job and command lists are imported from this checkout; leave no bytecode in it
    sys.dont_write_bytecode = True

    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        tmp = Path(tmp)
        try:
            commit = extract(args.against, tmp / "base")
        except subprocess.CalledProcessError as exc:
            err = exc.stderr if isinstance(exc.stderr, str) else exc.stderr.decode(errors="replace")
            print(f"error: cannot read {args.against!r}: {err.strip()}", file=sys.stderr)
            return 2
        runs = job_runs() + help_runs() + readme_runs()
        results = []
        for index, (name, run_argv) in enumerate(runs):
            old = run(tmp / "base", run_argv, tmp / "runs" / "base" / str(index))
            new = run(ROOT, run_argv, tmp / "runs" / "new" / str(index))
            result = compare(name, run_argv, old, new)
            results.append(result)
            verdict = "identical" if result["identical"] else "DIFFERS " + ",".join(result["differs"])
            print(f"{name}: {verdict}", flush=True)

    same = sum(r["identical"] for r in results)
    summary = (f"bytediff {commit[:7]} -> working tree: {len(results)} runs, {same} identical, "
               f"{len(results) - same} differing (exit code, stdout, stderr, written files)")
    report = {"against": commit, "tree": str(ROOT), "seeds": list(SEEDS), "runs": len(results),
              "identical": same, "differing": len(results) - same, "results": results}
    out = Path(args.json)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(summary)
    return 0 if same == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
