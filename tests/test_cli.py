"""End-to-end checks for the command-line surface.

Every subcommand is invoked through ``main`` in-process and its emitted
text is parsed back and compared against direct library calls, so these
tests pin the output schema as well as the numbers.
"""

import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import srbosonic
from srbosonic import cli
from srbosonic.cli import format_csv, format_json, main
from srbosonic.private_rate import PrivateScenario, private_rate
from srbosonic.qubit import QuantumCommParams, average_fidelity, choi_state, log_negativity
from srbosonic.schemes import (
    ClassicalScenario,
    DiscriminationScenario,
    forbidden_interval_classical,
    forbidden_interval_discrimination,
    success_classical,
    success_discrimination,
)

# the package re-exports the function private_rate under the module's name
private_rate_module = importlib.import_module("srbosonic.private_rate")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


SWEEP_ARGS = [
    "sweep", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.85,1.35",
    "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.25",
]


class TestSweep:
    def test_csv_matches_library(self):
        code, out, _ = run_cli(SWEEP_ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "theta=0.85", "theta=1.35"]
        assert len(rows) == 5
        scenario = ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5)
        for row in rows:
            sigma = row[0]
            assert row[1] == success_classical(scenario, 0.85, sigma * sigma)
            assert row[2] == success_classical(scenario, 1.35, sigma * sigma)

    def test_site_flag_reaches_scenario(self):
        code, out, _ = run_cli(SWEEP_ARGS + ["--site", "sender"])
        assert code == 0
        _, rows = parse_csv(out)
        scenario = ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5,
                                     noise_site="sender")
        assert rows[2][1] == success_classical(scenario, 0.85, 0.25)

    def test_grid_point_count_uses_inclusive_stop(self):
        code, out, _ = run_cli([
            "sweep", "--eta", "0.8", "--alpha-q", "1", "--theta", "1.0",
            "--grid-start", "0", "--grid-stop", "3", "--grid-step", "0.1",
        ])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 31
        assert rows[-1][0] == pytest.approx(3.0)


class TestInterval:
    def test_single_row_matches_solver(self):
        code, out, _ = run_cli(["interval", "--eta", "0.8", "--alpha-q", "1"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta_minus", "theta_plus", "residual_minus", "residual_plus"]
        assert len(rows) == 1
        result = forbidden_interval_classical(
            ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5))
        assert rows[0][0] == result.lo
        assert rows[0][1] == result.hi

    def test_vary_r_sweeps_the_boundary(self):
        code, out, _ = run_cli([
            "interval", "--eta", "0.8", "--alpha-q", "1", "--vary", "r",
            "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5",
        ])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "r"
        plus = [row[2] for row in rows]
        assert plus[0] > plus[1] > plus[2]

    def test_vary_alpha_increases_the_boundary(self):
        code, out, _ = run_cli([
            "interval", "--eta", "0.8", "--alpha-q", "1", "--vary", "alpha-q",
            "--grid-start", "0.5", "--grid-stop", "1.5", "--grid-step", "0.5",
        ])
        assert code == 0
        _, rows = parse_csv(out)
        plus = [row[2] for row in rows]
        assert plus[0] < plus[1] < plus[2]

    def test_grid_flags_rejected_without_vary(self):
        code, _, err = run_cli([
            "interval", "--eta", "0.8", "--alpha-q", "1", "--grid-start", "0",
        ])
        assert code == 2
        assert "grid" in err

    def test_bad_vary_value(self):
        code, _, err = run_cli([
            "interval", "--eta", "0.8", "--alpha-q", "1", "--vary", "eta",
        ])
        assert code == 2
        assert "vary" in err

    def test_root_beyond_last_doubling_step_solves(self):
        code, out, _ = run_cli([
            "interval", "--eta", "0.3", "--alpha-q", "0.003", "--prior0", "1e-7",
        ])
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] < -math.sqrt(0.3) * 0.003

    def test_weak_signal_interval_exits_0(self):
        # the lower root lies ~1.6e8 out; oracle: a 60-digit bisection of g
        code, out, err = run_cli([
            "interval", "--eta", "0.5", "--alpha-q", "1e-8", "--prior0", "0.01",
        ])
        assert code == 0
        assert err == ""
        _, rows = parse_csv(out)
        assert rows[0][0] == pytest.approx(-162462020.3197540255500777, rel=1e-14)
        assert rows[0][1] == 7.215375318230077e-09


class TestRectangle:
    def test_row_is_symmetric_for_equal_amplitudes(self):
        code, out, _ = run_cli([
            "rectangle", "--eta", "0.8", "--alpha-q", "1", "--alpha-p", "1",
        ])
        assert code == 0
        header, rows = parse_csv(out)
        assert header[:4] == ["q_lo", "q_hi", "p_lo", "p_hi"]
        q_lo, q_hi, p_lo, p_hi = rows[0][:4]
        assert q_lo == -q_hi
        assert q_lo == p_lo and q_hi == p_hi
        assert all(abs(res) <= 1e-10 for res in rows[0][4:])


class TestDiscriminate:
    ARGS = ["discriminate", "--eta0", "0.9", "--eta1", "0.4", "--alpha-q", "1.5"]

    def test_sweep_matches_library(self):
        code, out, _ = run_cli(self.ARGS + [
            "--theta", "2.0", "--grid-start", "0", "--grid-stop", "1",
            "--grid-step", "0.5",
        ])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "theta=2.0"]
        scenario = DiscriminationScenario(eta0=0.9, eta1=0.4, alpha_q=1.5,
                                          r=0.0, prior0=0.5)
        for row in rows:
            assert row[1] == success_discrimination(scenario, 2.0, row[0] ** 2)

    def test_interval_mode_needs_no_theta_or_grid(self):
        code, out, _ = run_cli(self.ARGS + ["--interval"])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta_minus", "theta_plus", "residual_minus", "residual_plus"]
        result = forbidden_interval_discrimination(
            DiscriminationScenario(eta0=0.9, eta1=0.4, alpha_q=1.5, r=0.0, prior0=0.5))
        assert rows[0][0] == result.lo
        assert rows[0][1] == result.hi

    def test_sweep_mode_requires_theta(self):
        code, _, err = run_cli(self.ARGS + [
            "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5",
        ])
        assert code == 2
        assert "--theta" in err


class TestQuantumCommands:
    def test_fidelity_values(self):
        code, out, _ = run_cli([
            "fidelity", "--x0", "0.3", "--theta", "0.31",
            "--grid-start", "0", "--grid-stop", "0.4", "--grid-step", "0.2",
        ])
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            params = QuantumCommParams(x0=0.3, theta=0.31, sigma2=row[0] ** 2)
            assert row[1] == average_fidelity(params)

    def test_negativity_values(self):
        code, out, _ = run_cli([
            "negativity", "--x0", "0.3", "--theta", "0.35",
            "--grid-start", "0", "--grid-stop", "0.2", "--grid-step", "0.1",
        ])
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            params = QuantumCommParams(x0=0.3, theta=0.35, sigma2=row[0] ** 2)
            assert row[1] == log_negativity(choi_state(params))


class TestPrivateCommands:
    def test_private_values(self):
        code, out, _ = run_cli([
            "private", "--eta", "0.8", "--alpha-q", "1", "--site", "sender",
            "--theta", "1.0", "--grid-start", "0", "--grid-stop", "1",
            "--grid-step", "0.5",
        ])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "theta=1.0"]
        scenario = PrivateScenario(
            base=ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5,
                                   noise_site="sender"),
            theta=1.0,
        )
        for row in rows:
            assert row[1] == pytest.approx(private_rate(scenario, row[0] ** 2), abs=1e-12)

    def test_probe_emits_flag_columns(self):
        code, out, _ = run_cli([
            "probe-conjecture", "--eta", "0.8", "--alpha-q", "1",
            "--theta", "0.0,1.0",
            "--grid-start", "0", "--grid-stop", "2", "--grid-step", "0.25",
        ])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta", "nonmonotonic", "argmax_sigma", "gain"]
        assert [row[0] for row in rows] == [0.0, 1.0]
        assert all(row[1] in (0.0, 1.0) for row in rows)
        assert all(row[3] > 0.0 for row in rows if row[1] == 1.0)

    def test_probe_defaults_to_sender_site(self):
        # the receiver site would be rejected by the probe itself, so the
        # command must come up sender-sided without an explicit flag
        code, _, _ = run_cli([
            "probe-conjecture", "--eta", "0.8", "--alpha-q", "1",
            "--theta", "0.5",
            "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5",
        ])
        assert code == 0


class TestMcCheck:
    ARGS = [
        "mc-check", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.6",
        "--n", "20000", "--seed", "42",
        "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5",
    ]

    def test_estimates_track_analytic_values(self):
        code, out, _ = run_cli(self.ARGS)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "analytic", "estimate", "std_error"]
        for row in rows:
            analytic, estimate, std_error = row[1:]
            assert abs(estimate - analytic) <= 5.0 * std_error
            assert 0.0 < std_error < 0.01

    def test_same_seed_twice_is_byte_identical(self):
        _, first, _ = run_cli(self.ARGS)
        _, second, _ = run_cli(self.ARGS)
        assert first == second

    def test_different_seed_changes_estimates(self):
        _, first, _ = run_cli(self.ARGS)
        code, second, _ = run_cli(self.with_seed("43"))
        assert code == 0
        assert first != second

    @classmethod
    def with_seed(cls, seed):
        args = list(cls.ARGS)
        args[args.index("--seed") + 1] = seed
        return args


class TestConfigFile:
    CONTENT = (
        "# classical sweep\n"
        "command = sweep\n"
        "eta = 0.8\n"
        "alpha-q = 1\n"
        "theta = 0.85,1.15\n"
        "grid-start = 0\n"
        "grid-stop = 1\n"
        "grid-step = 0.5\n"
    )

    def test_file_supplies_all_keys(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.CONTENT)
        code, out, _ = run_cli(["sweep", "--config", str(path)])
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["sigma", "theta=0.85", "theta=1.15"]
        assert len(rows) == 3

    def test_flags_override_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.CONTENT)
        code, out, _ = run_cli(["sweep", "--config", str(path), "--theta", "1.35"])
        assert code == 0
        header, _ = parse_csv(out)
        assert header == ["sigma", "theta=1.35"]

    def test_command_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.CONTENT)
        code, _, err = run_cli(["interval", "--config", str(path)])
        assert code == 2
        assert "command" in err

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta = 0.8\nbogus-key = 3\n")
        code, _, err = run_cli(["sweep", "--config", str(path)])
        assert code == 2
        assert "bogus-key" in err

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("eta 0.8\n")
        code, _, err = run_cli(["sweep", "--config", str(path)])
        assert code == 2
        assert "key = value" in err

    def test_missing_file_rejected(self, tmp_path):
        code, _, _ = run_cli(["sweep", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2


class TestExitCodes:
    def test_unknown_subcommand(self):
        code, _, _ = run_cli(["bogus"])
        assert code == 2

    def test_non_numeric_value(self):
        argv = list(SWEEP_ARGS)
        argv[argv.index("0.85,1.35")] = "abc"
        code, _, err = run_cli(argv)
        assert code == 2
        assert "number" in err

    def test_missing_required_flag(self):
        code, _, err = run_cli([
            "sweep", "--eta", "0.8",
            "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5",
        ])
        assert code == 2
        assert "--alpha-q" in err

    def test_inverted_grid(self):
        argv = list(SWEEP_ARGS)
        argv[argv.index("--grid-start") + 1] = "2"
        code, _, err = run_cli(argv)
        assert code == 2
        assert "grid-start" in err

    def test_bad_format(self):
        code, _, err = run_cli(SWEEP_ARGS + ["--format", "xml"])
        assert code == 2
        assert "format" in err

    def test_domain_error_maps_to_2(self):
        code, _, err = run_cli(SWEEP_ARGS[:2] + ["1.5"] + SWEEP_ARGS[3:])
        assert code == 2
        assert "sweep" in err

    def test_numeric_failure_maps_to_3(self):
        # a noise deviation near 10^3 pushes the eavesdropper state past
        # the hard Fock cutoff, which must surface as exit 3, not a crash
        code, _, err = run_cli([
            "private", "--eta", "0.8", "--alpha-q", "1", "--site", "sender",
            "--theta", "1.0",
            "--grid-start", "1000", "--grid-stop", "1001", "--grid-step", "1",
        ])
        assert code == 3
        assert "private failed" in err
        assert "cutoff" in err

    def test_chi_beyond_the_gram_limit_maps_to_3(self):
        # sigma = 200 and 201 need thermal cutoffs 1236 and 1242: inside the
        # Fock engine's MAX_CUTOFF, beyond the Gram route's own limit of
        # 1024; the largest sigma is tried first
        code, out, err = run_cli([
            "private", "--eta", "0.8", "--alpha-q", "1", "--site", "sender",
            "--theta", "1.0",
            "--grid-start", "200", "--grid-stop", "201", "--grid-step", "1",
        ])
        assert code == 3
        assert out == ""
        assert "thermal cutoff 1242" in err
        assert "limit 1024" in err

    @pytest.mark.parametrize("step", ["1e-320", "1e-300"])
    def test_oversize_grid_rejected_before_building(self, step):
        # 1e-320 overflowed the point count; 1e-300 asks for 3e300 points
        argv = list(SWEEP_ARGS)
        argv[argv.index("--grid-stop") + 1] = "3"
        argv[argv.index("--grid-step") + 1] = step
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "more than 1000000 grid points" in err

    def test_grid_point_ceiling_is_inclusive(self):
        limit = cli._MAX_GRID_POINTS
        assert len(cli._build_grid(0.0, limit - 1.0, 1.0)) == limit
        with pytest.raises(cli.ConfigError, match="grid points"):
            cli._build_grid(0.0, float(limit), 1.0)

    @pytest.mark.parametrize("n", ["100000000000000", "100000001"])
    def test_oversize_sample_count_rejected(self, n):
        argv = list(TestMcCheck.ARGS)
        argv[argv.index("--n") + 1] = n
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err == f"error: n must be <= 100000000, got {n}\n"


class TestOutputPlumbing:
    def test_out_file_matches_stdout(self, tmp_path):
        _, stdout_text, _ = run_cli(SWEEP_ARGS)
        path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(SWEEP_ARGS + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text() == stdout_text

    def test_repeat_is_byte_identical(self):
        _, first, _ = run_cli(SWEEP_ARGS)
        _, second, _ = run_cli(SWEEP_ARGS)
        assert first == second

    def test_parallel_does_not_change_bytes(self):
        _, serial, _ = run_cli(SWEEP_ARGS + ["--parallel", "1"])
        _, fanned, _ = run_cli(SWEEP_ARGS + ["--parallel", "2"])
        assert serial == fanned

    def test_env_var_sets_default_parallelism(self, monkeypatch):
        monkeypatch.setenv("SRBOSONIC_PARALLEL", "2")
        _, fanned, _ = run_cli(SWEEP_ARGS)
        monkeypatch.delenv("SRBOSONIC_PARALLEL")
        _, serial, _ = run_cli(SWEEP_ARGS)
        assert fanned == serial

    def test_env_var_rejected_when_not_integer(self, monkeypatch):
        monkeypatch.setenv("SRBOSONIC_PARALLEL", "zero")
        code, _, err = run_cli(SWEEP_ARGS)
        assert code == 2
        assert "integer" in err

    def test_parallel_zero_rejected(self):
        code, _, _ = run_cli(SWEEP_ARGS + ["--parallel", "0"])
        assert code == 2

    def test_negative_seed_rejected(self):
        code, _, err = run_cli(TestMcCheck.with_seed("-5"))
        assert code == 2
        assert "seed must be >= 0, got -5" in err

    def test_unwritable_out_rejected(self, tmp_path):
        path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run_cli(SWEEP_ARGS + ["--out", str(path)])
        assert code == 2
        assert out == ""
        assert f"cannot write {path}" in err


def fresh_python(*args):
    """stdout of ``python *args`` in a fresh interpreter that imports this srbosonic."""
    src = str(pathlib.Path(srbosonic.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return result.stdout


# runs one command in-process, then reports its exit code and whether numpy
# and the process-pool machinery got loaded, on a last line of its own
NUMPY_AFTER_COMMAND = (
    "import sys; from srbosonic import cli; code = cli.main(sys.argv[1:]); "
    "print(); print(code, 'numpy' in sys.modules, 'multiprocessing' in sys.modules)"
)


class TestImportFootprint:
    """The closed-form commands never import numpy; the array ones do.

    Only mc-check with more than one worker loads the process pool.
    """

    NUMPY_FREE = [
        SWEEP_ARGS,
        ["interval", "--eta", "0.8", "--alpha-q", "1", "--vary", "r",
         "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.25"],
        ["rectangle", "--eta", "0.8", "--alpha-q", "1", "--alpha-p", "1"],
        TestDiscriminate.ARGS + ["--theta", "2.0", "--grid-start", "0", "--grid-stop", "1",
                                 "--grid-step", "0.5"],
        TestDiscriminate.ARGS + ["--interval"],
        TestDiscriminate.ARGS + ["--interval", "--r", "0.3", "--site", "sender"],
        ["fidelity", "--x0", "0.3", "--theta", "0.25,0.31",
         "--grid-start", "0", "--grid-stop", "0.4", "--grid-step", "0.2"],
        ["negativity", "--x0", "0.3", "--theta", "0.25,0.35",
         "--grid-start", "0", "--grid-stop", "0.4", "--grid-step", "0.2"],
    ]
    NEEDS_NUMPY = [
        TestMcCheck.ARGS + ["--parallel", "1"],
        ["private", "--eta", "0.8", "--alpha-q", "1", "--theta", "1.0",
         "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5"],
    ]

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test-only dependency; a fresh interpreter importing the
        # CLI must not pull in any part of it
        probe = (
            "import sys, srbosonic.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        assert fresh_python("-c", probe).strip() == "[]"

    @pytest.mark.parametrize("module", ["srbosonic", "srbosonic.cli"])
    def test_import_loads_no_numpy(self, module):
        # every layer is still loaded, as the package re-exports them all;
        # the process pool and json wait for the one call that uses them
        probe = (
            f"import sys, {module}; "
            "print([m for m in ('numpy', 'concurrent.futures', 'multiprocessing', 'json') "
            "if m in sys.modules], "
            "sorted(m for m in sys.modules if m.startswith('srbosonic.')))"
        )
        layers = [
            f"srbosonic.{name}"
            for name in ("errors", "fock", "private_rate", "qubit", "rootfind", "schemes",
                         "threshold")
        ]
        if module == "srbosonic.cli":
            layers = sorted(layers + ["srbosonic.cli"])
        assert fresh_python("-c", probe).strip() == f"[] {layers}"

    def test_every_public_name_resolves_from_the_root(self):
        probe = (
            "import srbosonic; "
            "print(len(srbosonic.__all__), "
            "[n for n in srbosonic.__all__ if getattr(srbosonic, n, None) is None])"
        )
        count, missing = fresh_python("-c", probe).strip().split(" ", 1)
        assert int(count) == len(srbosonic.__all__)
        assert missing == "[]"

    @pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda argv: argv[0])
    def test_closed_form_command_loads_no_numpy(self, argv):
        last = fresh_python("-c", NUMPY_AFTER_COMMAND, *argv).splitlines()[-1]
        assert last == "0 False False"

    @pytest.mark.parametrize("argv", NEEDS_NUMPY, ids=lambda argv: argv[0])
    def test_array_command_loads_numpy(self, argv):
        last = fresh_python("-c", NUMPY_AFTER_COMMAND, *argv).splitlines()[-1]
        assert last == "0 True False"

    def test_parallel_mc_check_loads_the_pool(self):
        # a single core gets one worker, which runs in-process without a pool
        argv = TestMcCheck.ARGS + ["--parallel", "2"]
        code, _, pooled = fresh_python("-c", NUMPY_AFTER_COMMAND, *argv).splitlines()[-1].split()
        assert code == "0"
        assert pooled == str((os.cpu_count() or 1) > 1)


class TestJsonSchema:
    def test_meta_and_series_layout(self):
        code, out, _ = run_cli(SWEEP_ARGS + ["--format", "json", "--seed", "9"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "series"}
        meta = payload["meta"]
        assert set(meta) == {"parameters", "command", "version", "seed"}
        assert meta["command"] == "sweep"
        assert meta["seed"] == 9
        assert meta["parameters"]["eta"] == 0.8
        assert meta["parameters"]["theta"] == [0.85, 1.35]
        # output plumbing must not leak into the science metadata
        assert "out" not in meta["parameters"]
        assert "format" not in meta["parameters"]
        names = [entry["name"] for entry in payload["series"]]
        assert names == ["theta=0.85", "theta=1.35"]
        for entry in payload["series"]:
            assert all(len(point) == 2 for point in entry["points"])

    def test_single_row_command_gets_one_point_series(self):
        code, out, _ = run_cli([
            "interval", "--eta", "0.8", "--alpha-q", "1", "--format", "json",
        ])
        assert code == 0
        payload = json.loads(out)
        for entry in payload["series"]:
            assert len(entry["points"]) == 1

    def test_json_values_match_csv_values(self):
        _, csv_text, _ = run_cli(SWEEP_ARGS)
        _, json_text, _ = run_cli(SWEEP_ARGS + ["--format", "json"])
        _, rows = parse_csv(csv_text)
        payload = json.loads(json_text)
        for column, entry in enumerate(payload["series"], start=1):
            for row, point in zip(rows, entry["points"]):
                assert point == [row[0], row[column]]


class TestRoundTrip:
    def test_csv_multi_row_reemits_to_itself(self):
        _, text, _ = run_cli(SWEEP_ARGS)
        header, rows = parse_csv(text)
        series = [
            (name, [row[i] for row in rows])
            for i, name in enumerate(header[1:], start=1)
        ]
        xs = [row[0] for row in rows]
        assert format_csv(header[0], xs, series) == text

    def test_csv_single_row_reemits_to_itself(self):
        _, text, _ = run_cli(["interval", "--eta", "0.8", "--alpha-q", "1"])
        header, rows = parse_csv(text)
        series = [(name, [rows[0][i]]) for i, name in enumerate(header)]
        assert format_csv(None, None, series) == text

    def test_json_reemits_to_itself(self):
        _, text, _ = run_cli(SWEEP_ARGS + ["--format", "json"])
        payload = json.loads(text)
        xs = [point[0] for point in payload["series"][0]["points"]]
        series = [
            (entry["name"], [point[1] for point in entry["points"]])
            for entry in payload["series"]
        ]
        assert format_json(payload["meta"], xs, series) == text

    def test_full_precision_survives_parsing(self):
        _, text, _ = run_cli(SWEEP_ARGS)
        _, rows = parse_csv(text)
        scenario = ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5)
        value = success_classical(scenario, 0.85, 0.25 * 0.25)
        row = next(r for r in rows if r[0] == 0.25)
        assert row[1] == value and not math.isnan(value)


PRIVATE_ARGS = [
    "private", "--eta", "0.8", "--alpha-q", "1", "--theta", "0,1,2",
    "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.25",
]


@pytest.fixture
def chi_calls(monkeypatch):
    """Counts the Holevo evaluations made through the private-rate module."""
    calls = []
    original = private_rate_module.holevo_chi

    def counted(e):
        calls.append(e)
        return original(e)

    monkeypatch.setattr(private_rate_module, "holevo_chi", counted)
    return calls


class TestSharedChi:
    def test_sender_site_computes_chi_once_per_sigma(self, chi_calls):
        code, out, _ = run_cli(PRIVATE_ARGS + ["--site", "sender", "--parallel", "1"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 5 and len(rows[0]) == 4
        assert len(chi_calls) == 5

    def test_receiver_site_computes_chi_once(self, chi_calls):
        code, _, _ = run_cli(PRIVATE_ARGS + ["--site", "receiver", "--parallel", "1"])
        assert code == 0
        assert len(chi_calls) == 1


class TestPrivateParallel:
    @pytest.mark.parametrize(
        "extra",
        [["--site", "sender"], ["--site", "receiver"], ["--site", "sender", "--format", "json"]],
    )
    def test_parallel_does_not_change_bytes(self, extra):
        code, serial, _ = run_cli(PRIVATE_ARGS + extra + ["--parallel", "1"])
        assert code == 0
        _, fanned, _ = run_cli(PRIVATE_ARGS + extra + ["--parallel", "2"])
        assert fanned == serial

    def test_cutoff_failure_exits_3_through_the_pool(self):
        code, _, err = run_cli([
            "private", "--eta", "0.8", "--alpha-q", "1", "--site", "sender",
            "--theta", "1.0", "--grid-start", "1000", "--grid-stop", "1001",
            "--grid-step", "1", "--parallel", "2",
        ])
        assert code == 3
        assert "cutoff" in err


class TestPoolPolicy:
    """Only mc-check starts worker processes; --parallel changes no byte."""

    SERIAL_COMMANDS = [
        SWEEP_ARGS,
        ["interval", "--eta", "0.8", "--alpha-q", "1", "--vary", "r",
         "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.25"],
        TestDiscriminate.ARGS + ["--theta", "2.0", "--grid-start", "0", "--grid-stop", "1",
                                 "--grid-step", "0.5"],
        ["fidelity", "--x0", "0.3", "--theta", "0.25,0.31",
         "--grid-start", "0", "--grid-stop", "0.4", "--grid-step", "0.2"],
        ["negativity", "--x0", "0.3", "--theta", "0.25,0.35",
         "--grid-start", "0", "--grid-stop", "0.4", "--grid-step", "0.2"],
        PRIVATE_ARGS + ["--site", "sender"],
        ["probe-conjecture", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.0,1.0",
         "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.25"],
    ]

    @pytest.mark.parametrize("argv", SERIAL_COMMANDS, ids=lambda argv: argv[0])
    def test_closed_form_commands_start_no_pool(self, argv, monkeypatch):
        code, serial, _ = run_cli(argv + ["--parallel", "1"])
        assert code == 0

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("process pool started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
        code, fanned, _ = run_cli(argv + ["--parallel", "2"])
        assert code == 0
        assert fanned == serial

    # three grid points: no more workers than points or cores, and no pool
    # for a single worker
    @pytest.mark.parametrize("parallel, workers", [("2", 2), ("8", 3)])
    def test_mc_check_starts_one_pool(self, parallel, workers, monkeypatch):
        workers = min(workers, os.cpu_count() or 1)
        code, serial, _ = run_cli(TestMcCheck.ARGS + ["--parallel", "1"])
        assert code == 0
        pools = []

        class CountingPool(cli.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
        code, fanned, _ = run_cli(TestMcCheck.ARGS + ["--parallel", parallel])
        assert code == 0
        assert pools == ([workers] if workers > 1 else [])
        assert fanned == serial

    def test_mc_check_workers_capped_at_core_count(self, monkeypatch):
        # a recording stand-in: the real pool is never started
        cores = os.cpu_count() or 1
        pools = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        points = cores + 3
        code, _, _ = run_cli([
            "mc-check", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.6", "--n", "100",
            "--grid-start", "0", "--grid-stop", str(points - 1), "--grid-step", "1",
            "--parallel", "100000",
        ])
        assert code == 0
        assert pools == ([cores] if cores > 1 else [])


class TestPoolClassLookup:
    """``cli.ProcessPoolExecutor`` is imported on first use, not with the module."""

    def test_pool_under_python_m_matches_serial_bytes(self):
        # python -m runs the module as __main__, not as srbosonic.cli
        code, serial, _ = run_cli(TestMcCheck.ARGS + ["--parallel", "1"])
        assert code == 0
        fanned = fresh_python("-m", "srbosonic.cli", *TestMcCheck.ARGS, "--parallel", "2")
        assert fanned == serial

    def test_pool_class_is_stored_as_a_module_attribute(self):
        from concurrent.futures import ProcessPoolExecutor

        assert cli.ProcessPoolExecutor is ProcessPoolExecutor
        assert vars(cli)["ProcessPoolExecutor"] is ProcessPoolExecutor

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="module 'srbosonic.cli' has no attribute"):
            getattr(cli, "no_such_name")
        assert not hasattr(cli, "no_such_name")


def readme_commands():
    """argv of every ``srbosonic`` command in the README's ``sh`` blocks."""
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line)
            if argv and argv[0] == "srbosonic":
                commands.append(argv[1:])
    return commands


class TestReadmeRecipes:
    COMMANDS = readme_commands()

    def test_recipes_found(self):
        assert len(self.COMMANDS) >= 10

    @pytest.mark.parametrize(
        "argv", COMMANDS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)]
    )
    def test_recipe_runs(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(argv)
        assert code == 0, err
