"""Acceptance sheet: one test per headline requirement of the package.

Each test prints a single [PASS]/[FAIL] line naming the quantity checked,
the tolerance it was held to, and the measured runtime, so a verbose run
doubles as a sign-off report.  Tolerances and runtime budgets are
asserted, not advisory.
"""

import contextlib
import io
import math
import time
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize_scalar

from srbosonic.cli import main as cli_main
from srbosonic.fock import (
    GaussianStateOneMode,
    _displacement,
    _ladder_arrays,
    _squeeze,
    converged_fock_density,
    gaussian_entropy,
    von_neumann_entropy,
)
from srbosonic.private_rate import (
    EveEnsemble,
    PrivateScenario,
    conjecture_probe,
    eve_ensemble,
    holevo_chi,
    private_rate,
)
from srbosonic.qubit import (
    QuantumCommParams,
    average_fidelity,
    choi_state,
    critical_sigma2_quantum,
    log_negativity,
)
from srbosonic.schemes import (
    ClassicalScenario,
    DiscriminationScenario,
    EAScenario,
    classical_total_variance,
    critical_sigma2_classical,
    ea_total_variance,
    forbidden_interval_classical,
    success_classical,
    success_discrimination,
    success_ea,
    sweep_success,
)
from srbosonic.threshold import (
    ORIENT_ABOVE,
    ORIENT_BELOW,
    BinaryThresholdSpec,
    mc_success_probability,
)

CANONICAL = ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5)
SENDER = ClassicalScenario(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5, noise_site="sender")


def _finish(capsys, number, label, ok, detail, t0, budget):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < budget
    verdict = "PASS" if (ok and in_time) else "FAIL"
    with capsys.disabled():
        print(f"\n[{verdict}] criterion {number:>2} ({label}): {detail} "
              f"[{elapsed:.2f} s, budget {budget:g} s]")
    assert ok, f"criterion {number}: {detail}"
    assert in_time, f"criterion {number}: runtime {elapsed:.2f} s over budget {budget:g} s"


def test_criterion_01_interval_solve(capsys):
    t0 = time.perf_counter()
    result = forbidden_interval_classical(CANONICAL)
    dev = max(abs(result.hi - 0.96), abs(result.lo + 0.96))
    res = max(abs(result.residual_lo), abs(result.residual_hi))
    ok = dev <= 0.01 and res <= 1e-10
    detail = (f"boundaries ({result.lo:.6f}, {result.hi:.6f}), |dev from ±0.96| "
              f"{dev:.2e} <= 0.01, residuals {res:.1e} <= 1e-10")
    _finish(capsys, 1, "threshold interval solve", ok, detail, t0, 1.0)


def test_criterion_02_success_curve_shapes(capsys):
    t0 = time.perf_counter()
    grid = [0.05 * i for i in range(61)]
    mono_ok = all(
        not sweep_success(CANONICAL, th, grid).nonmonotonic for th in (0.85, 0.95)
    )
    worst = 0.0
    peak_ok = True
    for th in (1.05, 1.15, 1.25, 1.35):
        peak_ok &= sweep_success(CANONICAL, th, grid).nonmonotonic
        closed = critical_sigma2_classical(CANONICAL, th)
        found = minimize_scalar(
            lambda s2: -success_classical(CANONICAL, th, s2),
            method="bounded", bounds=(0.0, 9.0), options={"xatol": 1e-10},
        ).x
        worst = max(worst, abs(found - closed))
    ok = mono_ok and peak_ok and worst <= 1e-4
    detail = (f"two monotone and four peaked curves as required, worst "
              f"|argmax - closed form| {worst:.2e} <= 1e-4 in variance")
    _finish(capsys, 2, "success-curve shapes and optimum", ok, detail, t0, 1.0)


def _mc_tally(analytic, estimate, std_error):
    assert std_error > 0.0
    return abs(analytic - estimate) <= 4.0 * std_error


def test_criterion_03_monte_carlo_agreement(capsys):
    t0 = time.perf_counter()
    n = 10 ** 6
    rng = np.random.Generator(np.random.Philox(314))
    hits = 0

    for k in range(7):
        site = "sender" if rng.random() < 0.5 else "receiver"
        s = ClassicalScenario(
            eta=float(rng.uniform(0.3, 0.95)), alpha_q=float(rng.uniform(0.3, 1.2)),
            r=float(rng.uniform(0.0, 0.5)), prior0=float(rng.uniform(0.2, 0.8)),
            noise_site=site,
        )
        theta = float(rng.uniform(-1.5, 1.5))
        sigma2 = float(rng.uniform(0.0, 1.5)) ** 2
        m = math.sqrt(s.eta) * s.alpha_q
        v = classical_total_variance(s, sigma2)
        est = mc_success_probability(
            BinaryThresholdSpec(mean0=-m, mean1=+m, var0=v, var1=v, theta=theta,
                                prior0=s.prior0, orientation=ORIENT_ABOVE),
            n, 100 + k,
        )
        hits += _mc_tally(success_classical(s, theta, sigma2), est.estimate, est.std_error)

    for k in range(7):
        etas = sorted((float(rng.uniform(0.2, 0.95)), float(rng.uniform(0.2, 0.95))),
                      reverse=True)
        if etas[0] - etas[1] < 0.05:
            etas = (min(etas[0] + 0.05, 0.99), etas[1])
        site = "sender" if rng.random() < 0.5 else "receiver"
        s = DiscriminationScenario(
            eta0=etas[0], eta1=etas[1], alpha_q=float(rng.uniform(0.3, 1.2)),
            r=float(rng.uniform(0.0, 0.5)), prior0=float(rng.uniform(0.2, 0.8)),
            noise_site=site,
        )
        theta = float(rng.uniform(-0.5, 1.5))
        sigma2 = float(rng.uniform(0.0, 1.5)) ** 2
        # in-test reconstruction of the per-hypothesis variances
        v0, v1 = (
            0.5 * ((1.0 - eta) + eta * math.exp(-2.0 * s.r)
                   + (eta * sigma2 if site == "sender" else sigma2))
            for eta in (s.eta0, s.eta1)
        )
        est = mc_success_probability(
            BinaryThresholdSpec(mean0=math.sqrt(s.eta0) * s.alpha_q,
                                mean1=math.sqrt(s.eta1) * s.alpha_q,
                                var0=v0, var1=v1, theta=theta, prior0=s.prior0,
                                orientation=ORIENT_BELOW),
            n, 200 + k,
        )
        hits += _mc_tally(success_discrimination(s, theta, sigma2),
                          est.estimate, est.std_error)

    for k in range(6):
        site = "sender" if rng.random() < 0.5 else "receiver"
        s = EAScenario(
            eta=float(rng.uniform(0.3, 0.95)), r=float(rng.uniform(0.0, 0.5)),
            prior_q=float(rng.uniform(0.2, 0.8)), prior_p=float(rng.uniform(0.2, 0.8)),
            alpha_q=float(rng.uniform(0.3, 1.2)), alpha_p=float(rng.uniform(0.3, 1.2)),
            theta_q=float(rng.uniform(-1.5, 1.5)), theta_p=float(rng.uniform(-1.5, 1.5)),
            noise_site=site,
        )
        sigma2 = float(rng.uniform(0.0, 1.5)) ** 2
        v = ea_total_variance(s, sigma2)
        root_eta = math.sqrt(s.eta)
        est_q = mc_success_probability(
            BinaryThresholdSpec(mean0=-root_eta * s.alpha_q, mean1=+root_eta * s.alpha_q,
                                var0=v, var1=v, theta=s.theta_q, prior0=s.prior_q,
                                orientation=ORIENT_ABOVE),
            n, 300 + k,
        )
        est_p = mc_success_probability(
            BinaryThresholdSpec(mean0=-root_eta * s.alpha_p, mean1=+root_eta * s.alpha_p,
                                var0=v, var1=v, theta=s.theta_p, prior0=s.prior_p,
                                orientation=ORIENT_ABOVE),
            n, 1300 + k,
        )
        # the two bits are decoded independently, so the estimates multiply
        # and the standard error propagates through the product
        joint = est_q.estimate * est_p.estimate
        se = math.hypot(est_p.estimate * est_q.std_error,
                        est_q.estimate * est_p.std_error)
        hits += _mc_tally(success_ea(s, sigma2, sigma2), joint, se)

    ok = hits >= 19
    detail = f"{hits}/20 random scenarios within 4 standard errors at n=10^6 (need >= 19)"
    _finish(capsys, 3, "Monte Carlo agreement", ok, detail, t0, 60.0)


def test_criterion_04_interval_trends(capsys):
    t0 = time.perf_counter()
    m = math.sqrt(0.8)
    his_r = [forbidden_interval_classical(replace(CANONICAL, r=0.25 * i)).hi
             for i in range(9)]
    decreasing = all(b < a for a, b in zip(his_r, his_r[1:]))
    above = all(h > m for h in his_r)
    gap_ratio = (his_r[-1] - m) / (his_r[0] - m)
    his_a = [forbidden_interval_classical(replace(CANONICAL, alpha_q=0.2 * i)).hi
             for i in range(1, 16)]
    increasing = all(b > a for a, b in zip(his_a, his_a[1:]))
    ok = decreasing and above and gap_ratio < 0.01 and increasing
    detail = (f"upper boundary strictly decreasing in squeezing (gap shrinks to "
              f"{gap_ratio:.1e} of its start, toward {m:.4f}) and strictly "
              f"increasing in amplitude")
    _finish(capsys, 4, "interval trends in squeezing and amplitude", ok, detail, t0, 5.0)


def test_criterion_05_fidelity_optimum_closed_form(capsys):
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(505))
    worst = 0.0
    for _ in range(100):
        x0 = float(rng.uniform(0.05, 1.2))
        theta = float(rng.choice((-1.0, 1.0))) * x0 * float(rng.uniform(1.05, 3.0))
        closed = critical_sigma2_quantum(QuantumCommParams(x0=x0, theta=theta, sigma2=0.0))
        f = lambda s2: -average_fidelity(QuantumCommParams(x0=x0, theta=theta, sigma2=s2))
        hi = max(4.0 * closed, 0.5)
        xs = np.linspace(hi * 1e-6, hi, 800)
        vals = [f(x) for x in xs]
        i = int(np.argmin(vals))
        found = minimize_scalar(
            f, bracket=(xs[max(i - 1, 0)], xs[i], xs[min(i + 1, len(xs) - 1)]),
            method="golden", options={"xtol": 1e-11},
        ).x
        worst = max(worst, abs(found - closed))
    monotone = True
    for _ in range(20):
        x0 = float(rng.uniform(0.05, 1.2))
        theta = float(rng.choice((-1.0, 1.0))) * x0 * float(rng.uniform(0.05, 0.95))
        vals = [average_fidelity(QuantumCommParams(x0=x0, theta=theta, sigma2=(0.1 * k) ** 2))
                for k in range(31)]
        monotone &= all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    ok = worst <= 1e-6 and monotone
    detail = (f"100 random thresholds outside the window: worst |grid+golden - "
              f"closed form| {worst:.2e} <= 1e-6; 20 inside: all sweeps monotone")
    _finish(capsys, 5, "fidelity optimum closed form", ok, detail, t0, 5.0)


def test_criterion_06_fidelity_peak_beats_two_thirds(capsys):
    t0 = time.perf_counter()
    best = critical_sigma2_quantum(QuantumCommParams(x0=0.3, theta=0.31, sigma2=0.0))
    peak = average_fidelity(QuantumCommParams(x0=0.3, theta=0.31, sigma2=best))
    grid_max = max(
        average_fidelity(QuantumCommParams(x0=0.3, theta=0.31, sigma2=(0.01 * k) ** 2))
        for k in range(301)
    )
    ok = peak >= 0.73 and peak > 2.0 / 3.0 and grid_max <= peak + 1e-12
    detail = (f"peak average fidelity {peak:.6f} >= 0.73 (> 2/3), grid maximum "
              f"does not exceed it")
    _finish(capsys, 6, "fidelity peak above two-thirds", ok, detail, t0, 1.0)


def test_criterion_07_fidelity_negativity_shapes(capsys):
    t0 = time.perf_counter()
    sig = [0.05 * i for i in range(61)]
    curves = {
        "fidelity": lambda p: average_fidelity(p),
        "negativity": lambda p: log_negativity(choi_state(p)),
    }
    shapes_ok = True
    ln_lo, ln_hi = math.inf, -math.inf
    for th in (0.20, 0.25, 0.29, 0.31, 0.35, 0.40):
        for name, fn in curves.items():
            vals = [fn(QuantumCommParams(x0=0.3, theta=th, sigma2=s * s)) for s in sig]
            if name == "negativity":
                ln_lo = min(ln_lo, min(vals))
                ln_hi = max(ln_hi, max(vals))
            if th < 0.3:
                shapes_ok &= all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            else:
                i = int(np.argmax(vals))
                shapes_ok &= 0 < i < len(vals) - 1
                shapes_ok &= vals[i] > max(vals[0], vals[-1]) + 1e-6
    bounded = ln_lo >= -1e-12 and ln_hi <= 1.0 + 1e-12
    ok = shapes_ok and bounded
    detail = (f"fidelity and negativity both monotone below the window edge and "
              f"peaked above it; negativity stays in [{ln_lo:.1e}, {ln_hi:.6f}]")
    _finish(capsys, 7, "fidelity and negativity resonance shapes", ok, detail, t0, 10.0)


def test_criterion_08_fock_space_oracles(capsys):
    t0 = time.perf_counter()
    worst_disp = 0.0
    for beta in (1.3, 0.8 - 0.6j):
        col = _displacement(complex(beta), *_ladder_arrays(100))[:, 0]
        pref = math.exp(-abs(beta) ** 2 / 2.0)
        for n in range(7):
            closed = pref * beta ** n / math.sqrt(math.factorial(n))
            worst_disp = max(worst_disp, abs(col[n] - closed))
    r = 0.9
    col = _squeeze(r, *_ladder_arrays(120))[:, 0]
    c, tnh = math.cosh(r), math.tanh(r)
    worst_sq = max(
        abs(col[0] - 1.0 / math.sqrt(c)),
        abs(col[2] + tnh * math.sqrt(2.0) / (2.0 * math.sqrt(c))),
        abs(col[4] - tnh * tnh * math.sqrt(24.0) / (8.0 * math.sqrt(c))),
        abs(col[1]),
        abs(col[3]),
    )
    rng = np.random.Generator(np.random.Philox(9))
    worst_entropy = 0.0
    for _ in range(100):
        nu = float(rng.uniform(0.5, 2.2))
        s = float(rng.uniform(0.0, 0.9))
        phi = float(rng.uniform(-math.pi, math.pi))
        cs, sn = math.cos(phi), math.sin(phi)
        rot = np.array([[cs, -sn], [sn, cs]])
        cov = rot @ np.diag([nu * math.exp(-2.0 * s), nu * math.exp(2.0 * s)]) @ rot.T
        g = GaussianStateOneMode(
            (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))), cov)
        gap = abs(von_neumann_entropy(converged_fock_density(g)) - gaussian_entropy(g))
        worst_entropy = max(worst_entropy, gap)
    ok = worst_disp <= 1e-8 and worst_sq <= 1e-8 and worst_entropy <= 1e-6
    detail = (f"displacement columns {worst_disp:.1e} and squeeze columns "
              f"{worst_sq:.1e} off closed forms (tol 1e-8); entropy routes differ "
              f"by {worst_entropy:.1e} on 100 random states (tol 1e-6)")
    _finish(capsys, 8, "Fock-space oracles", ok, detail, t0, 60.0)


def test_criterion_09_holevo_information(capsys):
    t0 = time.perf_counter()

    def h2(p):
        return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)

    vacuum = [[0.5, 0.0], [0.0, 0.5]]
    worst = 0.0
    for b2 in (0.1, 0.2, 0.5, 1.0):
        # overlap of coherent states at ±beta gives the binary-entropy form
        shift = math.sqrt(2.0 * b2)
        ensemble = EveEnsemble(
            state0=GaussianStateOneMode((-shift, 0.0), vacuum),
            state1=GaussianStateOneMode((+shift, 0.0), vacuum),
            prior0=0.5,
        )
        target = h2(0.5 * (1.0 + math.exp(-2.0 * b2)))
        worst = max(worst, abs(holevo_chi(ensemble) - target))
    scen = PrivateScenario(base=SENDER, theta=1.0)
    chis = [holevo_chi(eve_ensemble(scen, float(s2)))
            for s2 in np.linspace(0.0, 6.0, 40)]
    monotone = all(b <= a + 1e-6 for a, b in zip(chis, chis[1:]))
    ok = worst <= 1e-6 and monotone
    detail = (f"pure-pair ensembles off the overlap formula by {worst:.1e} "
              f"(tol 1e-6); leak information non-increasing over a 40-point "
              f"noise grid (tol 1e-6)")
    _finish(capsys, 9, "Holevo information checks", ok, detail, t0, 120.0)


def test_criterion_10_rate_probe_and_receiver_equivalence(capsys):
    t0 = time.perf_counter()
    probe_grid = [0.1 * i for i in range(31)]
    results = conjecture_probe(
        PrivateScenario(base=SENDER, theta=0.0),
        [0.0, 0.5, 1.0, 1.5, 2.0, 2.5],
        probe_grid,
    )
    flagged = all(r.nonmonotonic and r.gain > 0.0 for r in results)
    min_gain = min(r.gain for r in results)

    # receiver-side noise leaves the leak untouched, so the rate gains and
    # the raw-information gains must switch on at the same thresholds; the
    # representative values sit clear of the boundary at 0.9551
    interval = forbidden_interval_classical(CANONICAL)
    equivalence = True
    for th in (0.3, 0.7, 1.2, 1.5, 2.0):
        scen = PrivateScenario(base=CANONICAL, theta=th)
        vals = [private_rate(scen, (0.25 * k) ** 2) for k in range(13)]
        gain = max(vals) - vals[0]
        equivalence &= (gain > 1e-6) == (th > interval.hi)
    ok = flagged and equivalence
    detail = (f"all six sender-noise rate curves flagged non-monotonic (smallest "
              f"gain {min_gain:.1e}); receiver-noise gains switch on exactly "
              f"outside the interval boundary {interval.hi:.4f}")
    _finish(capsys, 10, "rate probe and receiver equivalence", ok, detail, t0, 600.0)


def _cli_bytes(argv, out_path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli_main(list(argv) + ["--out", str(out_path)])
    assert code == 0, err.getvalue()
    return out_path.read_bytes()


def test_criterion_11_reproducible_cli_output(capsys, tmp_path):
    t0 = time.perf_counter()
    cases = {
        "sweep twice": (
            ["sweep", "--eta", "0.8", "--alpha-q", "1",
             "--theta", "0.85,0.95,1.05,1.15,1.25,1.35",
             "--grid-start", "0", "--grid-stop", "3", "--grid-step", "0.1"],
            ["sweep", "--eta", "0.8", "--alpha-q", "1",
             "--theta", "0.85,0.95,1.05,1.15,1.25,1.35",
             "--grid-start", "0", "--grid-stop", "3", "--grid-step", "0.1"],
        ),
        "sweep serial vs fanned": (
            ["sweep", "--eta", "0.8", "--alpha-q", "1", "--theta", "1.05,1.35",
             "--grid-start", "0", "--grid-stop", "3", "--grid-step", "0.1",
             "--parallel", "1"],
            ["sweep", "--eta", "0.8", "--alpha-q", "1", "--theta", "1.05,1.35",
             "--grid-start", "0", "--grid-stop", "3", "--grid-step", "0.1",
             "--parallel", "2"],
        ),
        "fidelity json twice": (
            ["fidelity", "--x0", "0.3", "--theta", "0.31,0.35", "--format", "json",
             "--grid-start", "0", "--grid-stop", "2", "--grid-step", "0.1"],
            ["fidelity", "--x0", "0.3", "--theta", "0.31,0.35", "--format", "json",
             "--grid-start", "0", "--grid-stop", "2", "--grid-step", "0.1"],
        ),
        "mc at n=10^6 twice": (
            ["mc-check", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.6",
             "--n", "1000000", "--seed", "42",
             "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5"],
            ["mc-check", "--eta", "0.8", "--alpha-q", "1", "--theta", "0.6",
             "--n", "1000000", "--seed", "42",
             "--grid-start", "0", "--grid-stop", "1", "--grid-step", "0.5"],
        ),
    }
    mismatches = []
    for name, (first, second) in cases.items():
        a = _cli_bytes(first, tmp_path / "a.out")
        b = _cli_bytes(second, tmp_path / "b.out")
        if a != b or not a:
            mismatches.append(name)
    ok = not mismatches
    detail = (f"{len(cases)} invocation pairs byte-identical"
              if ok else f"mismatched pairs: {mismatches}")
    _finish(capsys, 11, "reproducible command-line output", ok, detail, t0, 120.0)
