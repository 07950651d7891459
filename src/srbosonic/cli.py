"""Command-line front end: parameter sweeps and boundary solves to CSV/JSON.

One subcommand per physical setting; each evaluates library functions on
a grid and emits either CSV (header row plus one row per grid point) or
JSON ({"meta": ..., "series": [{"name", "points"}, ...]}).  Floats are
written in shortest round-trip decimal form, so identical invocations
produce byte-identical files and emitted files re-emit to themselves
after parsing.

Every grid but ``interval --vary``'s is a σ axis, held to the library's
σ-grid rule (``errors._sigma_grid``) before any point runs; σ is squared
once per point, in ``_theta_series`` and in mc-check's job list.

Exit codes: 0 success, 2 invalid configuration (bad flag, bad value,
unknown config key, a grid or sample count above its ceiling, a
``DomainError`` from the library), 3 numeric failure (solver or cutoff
error; the message carries the failing operation and its residual or
limit).

A config file holds flat ``key = value`` lines (``#`` comments allowed)
using the long flag names; command-line flags override file values.

Only ``mc-check`` (10^6 samples per point by default) fans its points out
to worker processes; ``--parallel`` or, failing that, the
SRBOSONIC_PARALLEL environment variable sets its worker count, which never
exceeds the grid points or the CPU cores.  Every other command runs
serially: a point costs microseconds (a χ about a millisecond), less than
starting a worker and shipping it the job.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from functools import partial

from . import __version__
from .errors import CutoffError, DomainError, SolverError, _sigma_grid
from .private_rate import _chi_by_sigma2, _rate, conjecture_probe
from .qubit import QuantumCommParams, _choi_log_negativity, average_fidelity
from .schemes import (
    SITE_SENDER,
    ClassicalScenario,
    DiscriminationScenario,
    EAScenario,
    _classical_spec,
    forbidden_interval_classical,
    forbidden_interval_discrimination,
    forbidden_rectangle,
    success_classical,
    success_discrimination,
)
from .threshold import mc_success_probability

ENV_PARALLEL = "SRBOSONIC_PARALLEL"

# Request ceilings, checked before anything is allocated.  The densest
# benchmark grid has 3001 points; mc-check's default is 10^6 samples.  Its
# memory is one block whatever n, but a point costs about 45 ms per 10^6
# samples (2 vCPU), so about 4.5 s a point at 10^8.
_MAX_GRID_POINTS = 10**6
_MAX_MC_SAMPLES = 10**8


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 2."""


def __getattr__(name: str):
    # ProcessPoolExecutor loads concurrent.futures and multiprocessing, a
    # sizeable share of start-up that only mc-check --parallel N > 1 needs.
    # It stays a module attribute because tests patch it and perfbench's
    # tracer rebinds it by name; this hook goes, and the import moves into
    # _run_mc_check, once the tracer reads records instead (ROADMAP item 4).
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float_list(text: str) -> tuple:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}")
    return tuple(_parse_float(part) for part in items)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


# scenario type -> its (field, flag) pairs in field order: a field is the
# flag of the same name with dashes, except noise_site, which is --site
_SCENARIO_FLAGS = {
    cls: tuple(
        (f.name, "site" if f.name == "noise_site" else f.name.replace("_", "-"))
        for f in dataclasses.fields(cls)
    )
    for cls in (ClassicalScenario, EAScenario, DiscriminationScenario)
}


def _scenario_table(cls) -> tuple:
    return tuple(
        (flag, _parse_str if flag == "site" else _parse_float) for _, flag in _SCENARIO_FLAGS[cls]
    )


def _scenario(cls, cfg: dict):
    return cls(**{name: cfg[flag] for name, flag in _SCENARIO_FLAGS[cls]})


# flag name -> converter; single source of truth for the parser, the
# config-file key set, and the resolver
_COMMON = (
    ("out", _parse_str),
    ("format", _parse_str),
    ("seed", _parse_int),
    ("parallel", _parse_int),
)
_CLASSICAL = _scenario_table(ClassicalScenario)
_GRID = (
    ("grid-start", _parse_float),
    ("grid-stop", _parse_float),
    ("grid-step", _parse_float),
)
_FLAGS = {
    "sweep": _CLASSICAL + (("theta", _parse_float_list),) + _GRID,
    "interval": _CLASSICAL + (("vary", _parse_str),) + _GRID,
    "rectangle": _scenario_table(EAScenario),
    "discriminate": _scenario_table(DiscriminationScenario)
    + (("theta", _parse_float_list), ("interval", _parse_bool))
    + _GRID,
    "fidelity": (("x0", _parse_float), ("theta", _parse_float_list)) + _GRID,
    "negativity": (("x0", _parse_float), ("theta", _parse_float_list)) + _GRID,
    "private": _CLASSICAL + (("theta", _parse_float_list),) + _GRID,
    "probe-conjecture": _CLASSICAL + (("theta", _parse_float_list),) + _GRID,
    "mc-check": _CLASSICAL + (("theta", _parse_float), ("n", _parse_int)) + _GRID,
}

_DEFAULTS = {
    "format": "csv",
    "seed": 0,
    "prior-q": 0.5,
    "prior-p": 0.5,
    "interval": False,
    "n": 1000000,
    # decoding thresholds do not enter the rectangle bounds themselves
    "theta-q": 0.0,
    "theta-p": 0.0,
    # the scenario fields' own defaults; the types agree where they share a field
    **{
        flag: f.default
        for cls, pairs in _SCENARIO_FLAGS.items()
        for f, (_, flag) in zip(dataclasses.fields(cls), pairs)
        if f.default is not dataclasses.MISSING
    },
}
# the conjecture is about sender-site noise, so that is its default
_COMMAND_DEFAULTS = {"probe-conjecture": {"site": SITE_SENDER}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srbosonic",
        description="Threshold-detection noise benefits: sweeps, boundaries, rates.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, flags in _FLAGS.items():
        sub = subparsers.add_parser(command)
        sub.add_argument("--config", default=None)
        for name, converter in flags + _COMMON:
            if converter is _parse_bool:
                sub.add_argument(f"--{name}", action="store_const", const="true", default=None)
            else:
                # raw strings here; the resolver converts flag and config
                # file values through the same code path
                sub.add_argument(f"--{name}", default=None)
    return parser


def _read_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    mapping = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _resolve(args: argparse.Namespace) -> dict:
    command = args.command
    table = dict(_FLAGS[command] + _COMMON)
    raw = {}
    if args.config is not None:
        for key, value in _read_config_file(args.config).items():
            if key == "command":
                if value != command:
                    raise ConfigError(
                        f"config file says command={value!r} but {command!r} was invoked"
                    )
                continue
            if key not in table:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            raw[key] = value
    for name in table:
        flag_value = getattr(args, name.replace("-", "_"))
        if flag_value is not None:
            raw[name] = flag_value

    cfg = {"command": command}
    for name, converter in table.items():
        if name in raw:
            cfg[name] = converter(raw[name])
        elif name in _COMMAND_DEFAULTS.get(command, {}):
            cfg[name] = _COMMAND_DEFAULTS[command][name]
        elif name in _DEFAULTS:
            cfg[name] = _DEFAULTS[name]
        else:
            cfg[name] = None

    if cfg["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg['format']!r}")
    if cfg["parallel"] is None:
        env = os.environ.get(ENV_PARALLEL)
        cfg["parallel"] = _parse_int(env) if env else 1
    if cfg["parallel"] < 1:
        raise ConfigError(f"parallel must be >= 1, got {cfg['parallel']}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if command == "mc-check" and cfg["n"] > _MAX_MC_SAMPLES:
        raise ConfigError(f"n must be <= {_MAX_MC_SAMPLES}, got {cfg['n']}")

    needs_grid = "grid-step" in table
    if command == "interval":
        if cfg["vary"] is not None and cfg["vary"] not in ("r", "alpha-q"):
            raise ConfigError(f"vary must be r or alpha-q, got {cfg['vary']!r}")
        needs_grid = cfg["vary"] is not None
    if command == "discriminate":
        needs_grid = not cfg["interval"]
    grid_given = [cfg.get(k) is not None for k in ("grid-start", "grid-stop", "grid-step")]
    if needs_grid:
        if not all(grid_given):
            raise ConfigError(f"{command}: grid-start, grid-stop, grid-step are required")
        cfg["grid"] = _build_grid(cfg["grid-start"], cfg["grid-stop"], cfg["grid-step"])
        # every grid but interval's --vary is a σ axis, held to the library's σ-grid rule
        if command != "interval":
            try:
                _sigma_grid(cfg["grid"])
            except DomainError as exc:
                raise ConfigError(f"{command}: {exc}") from exc
    elif any(grid_given):
        raise ConfigError(f"{command}: grid flags are not accepted in this mode")

    optional = {"out", "vary", "grid-start", "grid-stop", "grid-step"}
    if command == "discriminate" and cfg["interval"]:
        optional.add("theta")
    for name in table:
        if cfg[name] is None and name not in optional:
            raise ConfigError(f"{command}: --{name} is required")
    return cfg


def _build_grid(start: float, stop: float, step: float) -> tuple:
    if not (start < stop):
        raise ConfigError(f"grid-start must be below grid-stop, got {start} >= {stop}")
    if not (step > 0.0):
        raise ConfigError(f"grid-step must be positive, got {step}")
    steps = (stop - start) / step + 1e-9
    # also catches an infinite quotient, which int() cannot take
    if not steps < _MAX_GRID_POINTS:
        raise ConfigError(
            f"grid-step {step} from {start} to {stop} gives more than "
            f"{_MAX_GRID_POINTS} grid points"
        )
    count = int(math.floor(steps)) + 1
    return tuple(start + index * step for index in range(count))


def _fmt(value: float) -> str:
    return repr(float(value))


def _point_mc(scenario: ClassicalScenario, theta: float, n: int, job: tuple) -> tuple:
    # module level so ProcessPoolExecutor can pickle it
    sigma2, seed = job
    analytic = success_classical(scenario, theta, sigma2)
    estimate = mc_success_probability(_classical_spec(scenario, theta, sigma2), n, seed)
    return analytic, estimate.estimate, estimate.std_error


def _theta_series(cfg: dict, point):
    """One series per θ of point(theta, σ²) over the σ grid: the runners' one σ → σ² step."""
    grid = cfg["grid"]
    sigma2s = [sigma * sigma for sigma in grid]
    series = [
        (f"theta={_fmt(theta)}", [point(theta, sigma2) for sigma2 in sigma2s])
        for theta in cfg["theta"]
    ]
    return "sigma", grid, series


def _run_quantum(cfg: dict, quantity):
    """quantity(QuantumCommParams) per θ over the σ grid: fidelity or negativity."""
    return _theta_series(
        cfg, lambda theta, sigma2: quantity(QuantumCommParams(cfg["x0"], theta, sigma2))
    )


def _run_private(cfg: dict):
    """χ once per distinct σ_E², shared by every θ's I(A:B) − χ series."""
    base = _scenario(ClassicalScenario, cfg)
    chi_at = _chi_by_sigma2(base, cfg["grid"])
    return _theta_series(cfg, lambda theta, sigma2: _rate(base, theta, sigma2, chi_at[sigma2]))


_INTERVAL_NAMES = ("theta_minus", "theta_plus", "residual_minus", "residual_plus")


def _interval_series(results) -> list:
    """θ± and their residuals as four series, one value per solve."""
    rows = [(r.lo, r.hi, r.residual_lo, r.residual_hi) for r in results]
    return [(name, [row[i] for row in rows]) for i, name in enumerate(_INTERVAL_NAMES)]


def _run_interval(cfg: dict):
    if cfg["vary"] is None:
        result = forbidden_interval_classical(_scenario(ClassicalScenario, cfg))
        return None, None, _interval_series([result])
    results = [
        forbidden_interval_classical(_scenario(ClassicalScenario, {**cfg, cfg["vary"]: value}))
        for value in cfg["grid"]
    ]
    return cfg["vary"].replace("-", "_"), cfg["grid"], _interval_series(results)


def _run_rectangle(cfg: dict):
    rect = forbidden_rectangle(_scenario(EAScenario, cfg))
    names_values = (
        ("q_lo", rect.q_interval.lo),
        ("q_hi", rect.q_interval.hi),
        ("p_lo", rect.p_interval.lo),
        ("p_hi", rect.p_interval.hi),
        ("q_residual_lo", rect.q_interval.residual_lo),
        ("q_residual_hi", rect.q_interval.residual_hi),
        ("p_residual_lo", rect.p_interval.residual_lo),
        ("p_residual_hi", rect.p_interval.residual_hi),
    )
    return None, None, [(name, [value]) for name, value in names_values]


def _run_discriminate(cfg: dict):
    scenario = _scenario(DiscriminationScenario, cfg)
    if cfg["interval"]:
        return None, None, _interval_series([forbidden_interval_discrimination(scenario)])
    return _theta_series(cfg, partial(success_discrimination, scenario))


def _run_probe(cfg: dict):
    results = conjecture_probe(_scenario(ClassicalScenario, cfg), cfg["theta"], cfg["grid"])
    series = [
        ("nonmonotonic", [1.0 if r.nonmonotonic else 0.0 for r in results]),
        ("argmax_sigma", [r.argmax_sigma for r in results]),
        ("gain", [r.gain for r in results]),
    ]
    return "theta", cfg["theta"], series


def _run_mc_check(cfg: dict):
    point = partial(_point_mc, _scenario(ClassicalScenario, cfg), cfg["theta"], cfg["n"])
    jobs = [(sigma * sigma, cfg["seed"] + index) for index, sigma in enumerate(cfg["grid"])]
    # a fork-started pool launches every worker up front, so never ask for
    # more than there are points or cores
    workers = min(cfg["parallel"], len(jobs), os.cpu_count() or 1)
    if workers > 1:
        # through the module object, so a patched or traced class is used,
        # also when this file runs as __main__
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=workers) as pool:
            rows = list(pool.map(point, jobs))
    else:
        rows = [point(job) for job in jobs]
    names = ("analytic", "estimate", "std_error")
    series = [(name, [row[i] for row in rows]) for i, name in enumerate(names)]
    return "sigma", cfg["grid"], series


_RUNNERS = {
    "sweep": lambda cfg: _theta_series(
        cfg, partial(success_classical, _scenario(ClassicalScenario, cfg))
    ),
    "interval": _run_interval,
    "rectangle": _run_rectangle,
    "discriminate": _run_discriminate,
    # each runner reads its layer function when it runs, so a rebound name takes effect
    "fidelity": lambda cfg: _run_quantum(cfg, average_fidelity),
    "negativity": lambda cfg: _run_quantum(cfg, _choi_log_negativity),
    "private": _run_private,
    "probe-conjecture": _run_probe,
    "mc-check": _run_mc_check,
}


def format_csv(x_name, x_values, series) -> str:
    names = [name for name, _ in series]
    if x_name is None:
        header = ",".join(names)
        row = ",".join(_fmt(values[0]) for _, values in series)
        return header + "\n" + row + "\n"
    lines = [",".join([x_name] + names)]
    for index, x in enumerate(x_values):
        cells = [_fmt(x)] + [_fmt(values[index]) for _, values in series]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_json(meta: dict, x_values, series) -> str:
    import json

    payload = {
        "meta": meta,
        "series": [
            {
                "name": name,
                "points": [
                    [float(x), float(y)]
                    for x, y in zip(x_values if x_values is not None else [0.0], values)
                ],
            }
            for name, values in series
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _render(cfg: dict, x_name, x_values, series) -> str:
    if cfg["format"] == "csv":
        return format_csv(x_name, x_values, series)
    # science flags only: _FLAGS holds none of the _COMMON output plumbing
    parameters = {}
    for name, _ in _FLAGS[cfg["command"]]:
        value = cfg.get(name)
        if value is None:
            continue
        parameters[name] = list(value) if isinstance(value, tuple) else value
    meta = {
        "parameters": parameters,
        "command": cfg["command"],
        "version": __version__,
        "seed": cfg["seed"],
    }
    return format_json(meta, x_values, series)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        x_name, x_values, series = _RUNNERS[cfg["command"]](cfg)
    except DomainError as exc:
        # bad parameter combinations surface from constructors here
        print(f"error: {cfg['command']}: {exc}", file=sys.stderr)
        return 2
    except (SolverError, CutoffError) as exc:
        print(f"error: {cfg['command']} failed: {exc}", file=sys.stderr)
        return 3
    text = _render(cfg, x_name, x_values, series)
    if cfg["out"] is None:
        sys.stdout.write(text)
    else:
        try:
            with open(cfg["out"], "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {cfg['out']}: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
