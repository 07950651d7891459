"""In-process tracer for srbosonic's public functions.

``Tracer.install`` rebinds each traced function in every ``srbosonic``
module that holds it (the defining module and each module that imported
it by name), so internal calls are caught too; ``uninstall`` puts the
originals back.  No source file is edited.  Spans stay in memory until
``write_spans``.  Only the installing process records: pool workers
forked from it run the original functions' work unrecorded.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import time

# module -> public functions that get a span each
TRACED = {
    "cli": ("main", "format_csv", "format_json"),
    "schemes": (
        "success_classical",
        "success_discrimination",
        "classical_channel",
        "forbidden_interval_classical",
        "forbidden_interval_discrimination",
        "forbidden_rectangle",
    ),
    "rootfind": ("bisect", "golden_max"),
    "threshold": ("mutual_information", "mc_success_probability"),
    "qubit": ("average_fidelity", "log_negativity"),
    "fock": ("gaussian_to_fock", "von_neumann_entropy"),
    "private_rate": ("holevo_chi", "private_rate", "conjecture_probe"),
}


def _ensemble_key(e) -> tuple:
    return (e.state0.mean, e.state1.mean, tuple(e.state0.cov.ravel()), e.prior0)


class Tracer:
    """Spans are (id, name, start, end, parent id, job id, ok) tuples."""

    def __init__(self):
        self.spans = []
        self.job = None
        self.evals = {}  # root-finder name -> objective evaluations
        self.cutoffs = []  # (job, .dim) of every successful gaussian_to_fock
        self.ensembles = []  # (job, key) of every holevo_chi argument
        self.pools = 0
        self.pool_s = 0.0
        self._stack = []
        self._ids = itertools.count()
        self._saved = []
        self._pid = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self._pid = os.getpid()
        for module, names in TRACED.items():
            home = sys.modules[f"srbosonic.{module}"]
            for name in names:
                original = getattr(home, name)
                self._rebind(original, self._wrap(f"{module}.{name}", original))
        cli = sys.modules["srbosonic.cli"]
        self._rebind(cli.ProcessPoolExecutor, self._counting_pool(cli.ProcessPoolExecutor))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _rebind(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "srbosonic" and not mod_name.startswith("srbosonic."):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, replacement)

    # -- recording ----------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        ids = self._ids
        tracer = self
        short = span_name.split(".", 1)[1]
        counts_evals = span_name.startswith("rootfind.")
        on_chi = span_name == "private_rate.holevo_chi"
        on_build = span_name == "fock.gaussian_to_fock"

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            if counts_evals:
                f = args[0]

                def counted(x):
                    tracer.evals[short] = tracer.evals.get(short, 0) + 1
                    return f(x)

                args = (counted,) + args[1:]
            if on_chi:
                tracer.ensembles.append((tracer.job, _ensemble_key(args[0])))
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span_name, start, end, parent, tracer.job, ok))
            if on_build:
                tracer.cutoffs.append((tracer.job, result.dim))
            return result

        return traced

    def _counting_pool(self, base):
        tracer = self

        class CountingPool(base):
            """Counts pools and times each from construction to shutdown."""

            def __init__(self, *args, **kwargs):
                tracer.pools += 1
                self._born = time.perf_counter()
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.pool_s += time.perf_counter() - self._born

        return CountingPool

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id,name,start,end,parent,job,ok\n")
            for sid, name, start, end, parent, job, ok in self.spans:
                parent = "" if parent is None else parent
                out.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{job},{int(ok)}\n")

    def job_counts(self) -> dict:
        """χ and Fock counts per job id, to compare jobs with each other."""
        out = {}
        for _sid, name, _start, _end, _parent, job, _ok in self.spans:
            row = out.setdefault(job, {})
            row[name] = row.get(name, 0) + 1
        for job, dim in self.cutoffs:
            row = out[job]
            row["cutoff_min"] = min(row.get("cutoff_min", dim), dim)
            row["cutoff_max"] = max(row.get("cutoff_max", dim), dim)
        for job, key in set(self.ensembles):
            out[job]["distinct_ensembles"] = out[job].get("distinct_ensembles", 0) + 1
        return out

    def layer_metrics(self) -> dict:
        """Per-layer counts and times from the recorded spans."""
        calls, busy, selfs, child = {}, {}, {}, {}
        for sid, name, start, end, parent, _job, _ok in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        builds_in_chi = {}
        failed_builds = 0
        by_id = {span[0]: span for span in self.spans}
        for sid, name, start, end, parent, _job, ok in self.spans:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + duration
            selfs[name] = selfs.get(name, 0.0) + duration - child.get(sid, 0.0)
            if name == "fock.gaussian_to_fock":
                failed_builds += not ok
                if parent is not None and by_id[parent][1] == "private_rate.holevo_chi":
                    builds_in_chi[parent] = builds_in_chi.get(parent, 0) + 1

        def c(name):
            return calls.get(name, 0)

        def b(name):
            return busy.get(name, 0.0)

        m = {}
        m["cli.main.self_s"] = selfs.get("cli.main", 0.0)
        m["cli.format_s"] = b("cli.format_csv") + b("cli.format_json")
        m["cli.pools"] = self.pools
        m["cli.pool_map_s"] = self.pool_s
        for name in TRACED["schemes"]:
            m[f"schemes.{name}.calls"] = c(f"schemes.{name}")
            m[f"schemes.{name}.busy_s"] = b(f"schemes.{name}")
        m["rootfind.bisect.calls"] = c("rootfind.bisect")
        m["rootfind.bisect.evals"] = self.evals.get("bisect", 0)
        m["rootfind.golden_max.calls"] = c("rootfind.golden_max")
        m["rootfind.golden_max.evals"] = self.evals.get("golden_max", 0)
        m["rootfind.golden_max.busy_s"] = b("rootfind.golden_max")
        m["threshold.mutual_information.calls"] = c("threshold.mutual_information")
        m["threshold.mc_success_probability.busy_s"] = b("threshold.mc_success_probability")
        for name in TRACED["qubit"]:
            m[f"qubit.{name}.calls"] = c(f"qubit.{name}")
            m[f"qubit.{name}.busy_s"] = b(f"qubit.{name}")
        chi_calls = c("private_rate.holevo_chi")
        builds = c("fock.gaussian_to_fock")
        m["fock.gaussian_to_fock.calls"] = builds
        m["fock.gaussian_to_fock.busy_s"] = b("fock.gaussian_to_fock")
        m["fock.gaussian_to_fock.failed"] = failed_builds
        dims = [dim for _, dim in self.cutoffs]
        m["fock.cutoff.max"] = max(dims, default=0)
        m["fock.cutoff.median"] = statistics.median(dims) if dims else 0
        m["fock.von_neumann_entropy.calls"] = c("fock.von_neumann_entropy")
        m["fock.von_neumann_entropy.busy_s"] = b("fock.von_neumann_entropy")
        m["fock.builds_per_chi"] = builds / chi_calls if chi_calls else 0.0
        # each χ keeps only the last pair of builds it made (one per component)
        useful = 2 * sum(1 for n in builds_in_chi.values() if n >= 2)
        m["fock.useful_build_ratio"] = useful / builds if builds else 0.0
        m["private_rate.holevo_chi.calls"] = chi_calls
        m["private_rate.holevo_chi.busy_s"] = b("private_rate.holevo_chi")
        m["private_rate.holevo_chi.self_s"] = selfs.get("private_rate.holevo_chi", 0.0)
        # distinct within each job: jobs are separate processes in real use
        m["private_rate.holevo_chi.unique_ratio"] = (
            len(set(self.ensembles)) / chi_calls if chi_calls else 0.0
        )
        m["private_rate.private_rate.calls"] = c("private_rate.private_rate")
        m["private_rate.private_rate.busy_s"] = b("private_rate.private_rate")
        m["private_rate.conjecture_probe.busy_s"] = b("private_rate.conjecture_probe")
        return m
