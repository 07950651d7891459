"""Write reference/<workload>.json from the current program at seed 0.

    python3 perfbench/make_reference.py [workload ...]

Run it only when the program's outputs are meant to change; the
benchmark compares every seed-0 job against these files.
"""

from __future__ import annotations

import json
import sys

from run import child_env, spawn

import jobs as jobs_mod


def main(argv: list) -> int:
    env = child_env()
    jobs_mod.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in argv or jobs_mod.WORKLOADS:
        table = {}
        for job in jobs_mod.build(workload, jobs_mod.DEFAULT_SEED):
            proc = spawn([sys.executable, "-m", "srbosonic.cli", *job.argv], env, 170.0)
            problems = jobs_mod.check(job, proc.returncode, proc.stdout, None)
            if problems:
                print(f"{workload}/{job.name}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            header, rows = jobs_mod.parse_csv(proc.stdout)
            table[job.name] = jobs_mod.reference_entry(job, header, rows)
            print(f"{workload}/{job.name}: {len(rows)} rows, {proc.seconds:.2f} s")
        path = jobs_mod.REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
