"""Tests for the qubit-over-bosonic-mode channel."""

import math
import tracemalloc

import numpy as np
import pytest

from srbosonic.errors import DomainError, NoCriticalPointError
from srbosonic.qubit import (
    QuantumCommParams,
    _choi_log_negativity,
    _cross_log_negativity,
    apply_channel,
    average_fidelity,
    choi_state,
    critical_sigma2_quantum,
    haar_fidelity_oracle,
    log_negativity,
    pi_probs,
)

# Frozen oracle values at x0=0.3, theta=0.31: leakage probabilities at
# sigma2=0.04524 confirmed by numerical Gaussian integration (quad, abs
# error < 1e-13); the critical variance by direct formula evaluation,
# cross-checked against a grid+golden argmax of the fidelity curve.
PI_LESS_EXAMPLE = 0.5187482491855525
PI_GREATER_EXAMPLE = 0.0020670469199170483
CRIT_SIGMA2 = 0.04524585432333722
FID_AT_CRIT = 0.7395923519472652


def params(theta=0.31, sigma2=0.04524, x0=0.3):
    return QuantumCommParams(x0=x0, theta=theta, sigma2=sigma2)


def bell_state():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return np.outer(v, v).astype(complex)


class TestPiProbs:
    def test_symmetric_at_zero_threshold(self):
        pl, pg = pi_probs(params(theta=0.0, sigma2=0.3))
        assert pl == pytest.approx(pg, abs=1e-15)

    def test_frozen_example(self):
        pl, pg = pi_probs(params(sigma2=CRIT_SIGMA2))
        assert pl == pytest.approx(PI_LESS_EXAMPLE, abs=1e-13)
        assert pg == pytest.approx(PI_GREATER_EXAMPLE, abs=1e-13)
        # At the rounded noise value the probabilities barely move.
        pl4, pg4 = pi_probs(params(sigma2=0.04524))
        assert pl4 == pytest.approx(0.518749, abs=1e-6)
        assert pg4 == pytest.approx(0.002066, abs=1e-6)

    def test_zero_noise_steps(self):
        assert pi_probs(params(theta=0.0, sigma2=0.0)) == (0.0, 0.0)
        assert pi_probs(params(theta=0.5, sigma2=0.0)) == (1.0, 0.0)
        assert pi_probs(params(theta=-0.5, sigma2=0.0)) == (0.0, 1.0)
        assert pi_probs(params(theta=0.3, sigma2=0.0)) == (0.5, 0.0)
        assert pi_probs(params(theta=-0.3, sigma2=0.0)) == (0.0, 0.5)

    def test_large_noise_saturates(self):
        pl, pg = pi_probs(params(sigma2=1e8))
        assert pl == pytest.approx(0.5, abs=1e-4)
        assert pg == pytest.approx(0.5, abs=1e-4)

    def test_probability_range(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = QuantumCommParams(
                x0=rng.uniform(0.05, 2.0),
                theta=rng.uniform(-3, 3),
                sigma2=rng.uniform(0, 4),
            )
            pl, pg = pi_probs(p)
            assert 0.0 <= pl <= 1.0 and 0.0 <= pg <= 1.0


class TestApplyChannel:
    def test_identity_at_zero_noise_centered_threshold(self):
        p = params(theta=0.0, sigma2=0.0)
        rho = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
        assert np.allclose(apply_channel(rho, p), rho, atol=1e-15)

    def test_strong_noise_depolarizes(self):
        p = params(sigma2=1e10)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        out = apply_channel(rho, p)
        assert np.allclose(out, np.eye(2) / 2, atol=1e-4)

    def test_plus_state_coherence(self):
        p = params()
        pl, pg = pi_probs(p)
        plus = np.full((2, 2), 0.5, dtype=complex)
        out = apply_channel(plus, p)
        assert out[0, 1] == pytest.approx(0.5 * (1 - pl - pg), abs=1e-15)

    def test_trace_and_positivity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            p = QuantumCommParams(
                x0=rng.uniform(0.05, 1.5),
                theta=rng.uniform(-2, 2),
                sigma2=rng.uniform(0, 3),
            )
            out = apply_channel(rho, p)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_transposed_input_accepted(self):
        # a transposed array is F-ordered; its value is all that counts
        g = np.array([[1.0, 0.5 - 0.25j], [0.3j, 2.0]])
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        p = params()
        assert np.array_equal(apply_channel(rho.T, p), apply_channel(rho.T.copy(), p))

    def test_rejects_invalid_inputs(self):
        p = params()
        with pytest.raises(DomainError):
            apply_channel(np.array([[1.0, 0.5], [0.2, 0.0]]), p)  # not Hermitian
        with pytest.raises(DomainError):
            apply_channel(np.eye(2), p)  # trace 2
        with pytest.raises(DomainError):
            apply_channel(
                np.array([[1.5, 0.0], [0.0, -0.5]]), p
            )  # negative eigenvalue
        with pytest.raises(DomainError):
            apply_channel(np.eye(3) / 3, p)  # wrong shape


class TestAverageFidelity:
    def test_zero_noise_limits(self):
        assert average_fidelity(params(theta=0.0, sigma2=0.0)) == 1.0
        assert average_fidelity(params(theta=0.5, sigma2=0.0)) == 0.5

    def test_value_at_critical_noise(self):
        assert average_fidelity(
            params(sigma2=CRIT_SIGMA2)
        ) == pytest.approx(FID_AT_CRIT, abs=1e-13)
        assert FID_AT_CRIT > 2.0 / 3.0

    def test_matches_haar_oracle(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            p = QuantumCommParams(
                x0=rng.uniform(0.1, 1.0),
                theta=rng.uniform(-1.5, 1.5),
                sigma2=rng.uniform(0.01, 2.0),
            )
            est = haar_fidelity_oracle(p, 10**5, seed=seed)
            assert abs(est.estimate - average_fidelity(p)) <= 4 * est.std_error


class TestCriticalSigma2:
    def test_frozen_value(self):
        assert critical_sigma2_quantum(params()) == pytest.approx(
            CRIT_SIGMA2, abs=1e-14
        )

    def test_even_in_theta(self):
        assert critical_sigma2_quantum(params(theta=-0.31)) == critical_sigma2_quantum(
            params(theta=0.31)
        )

    def test_vanishes_at_boundary(self):
        # The decay toward the boundary is only logarithmic in theta - x0,
        # so the smallest value reachable at float resolution is ~5e-3.
        thetas = (0.4, 0.31, 0.301, 0.3 + 1e-6, 0.3 + 1e-12, math.nextafter(0.3, 1.0))
        seq = [critical_sigma2_quantum(params(theta=t)) for t in thetas]
        assert all(b < a for a, b in zip(seq, seq[1:]))
        assert seq[-1] < 5e-3

    def test_grid_argmax_agreement(self):
        from scipy.optimize import minimize_scalar

        for theta in (0.31, 0.35, 0.5):
            p = params(theta=theta)
            f = lambda s2: -average_fidelity(
                QuantumCommParams(x0=0.3, theta=theta, sigma2=s2)
            )
            grid = np.linspace(1e-5, 1.0, 800)
            vals = [f(x) for x in grid]
            i = int(np.argmin(vals))
            res = minimize_scalar(
                f, bracket=(grid[max(i - 1, 0)], grid[i], grid[i + 1]), method="golden"
            )
            assert critical_sigma2_quantum(p) == pytest.approx(res.x, abs=1e-6)

    def test_inside_interval_raises(self):
        for theta in (0.0, 0.15, -0.29, 0.3, -0.3):
            with pytest.raises(NoCriticalPointError):
                critical_sigma2_quantum(params(theta=theta))


class TestChoiState:
    def test_identity_gives_bell(self):
        c = choi_state(params(theta=0.0, sigma2=0.0))
        assert np.allclose(c, bell_state(), atol=1e-15)

    def test_strong_noise_flattens(self):
        c = choi_state(params(sigma2=1e10))
        assert np.allclose(np.diag(c).real, 0.25, atol=1e-4)
        assert abs(c[0, 3]) < 1e-4

    def test_trace_and_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = QuantumCommParams(
                x0=rng.uniform(0.05, 1.5),
                theta=rng.uniform(-2, 2),
                sigma2=rng.uniform(0, 3),
            )
            c = choi_state(p)
            assert abs(np.trace(c).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(c).min() > -1e-10


class TestLogNegativity:
    def test_bell_projector(self):
        assert log_negativity(bell_state()) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_is_separable(self):
        assert log_negativity(np.diag([0.4, 0.3, 0.2, 0.1])) == 0.0

    def test_block_formula_matches_general_eigensolve(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = QuantumCommParams(
                x0=rng.uniform(0.05, 1.5),
                theta=rng.uniform(-2, 2),
                sigma2=rng.uniform(0, 2),
            )
            c = choi_state(p)
            pt = c.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            direct = math.log2(np.sum(np.abs(np.linalg.eigvalsh(pt))))
            assert log_negativity(c) == pytest.approx(max(0.0, direct), abs=1e-12)

    def test_general_hermitian_fallback(self):
        # A state with coherences off the anti-diagonal takes the dense path.
        rng = np.random.default_rng(37)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        want = max(0.0, math.log2(np.sum(np.abs(np.linalg.eigvalsh(pt)))))
        assert log_negativity(rho) == pytest.approx(want, abs=1e-12)

    def test_fortran_ordered_choi_accepted(self):
        choi = choi_state(params())
        assert log_negativity(np.asfortranarray(choi)) == log_negativity(choi)

    def test_rejects_non_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(DomainError):
            log_negativity(bad)

    def test_closed_form_from_leakage_is_bit_identical(self):
        # the CLI's negativity curve never builds the Choi matrix; its
        # points must equal the array route bit for bit, including the
        # step functions at sigma2 = 0, theta = +-x0 and near-flat noise
        rng = np.random.default_rng(43)
        cases = []
        for _ in range(4000):
            x0 = 10.0 ** rng.uniform(-3, 1)
            theta = float(rng.choice([x0, -x0, 0.0, rng.uniform(-4 * x0, 4 * x0)]))
            sigma = float(rng.choice([0.0, 10.0 ** rng.uniform(-6, 5), rng.uniform(0, 3 * x0)]))
            cases.append((x0, theta, sigma))
        for x0, theta, sigma in cases:
            p = QuantumCommParams(x0=x0, theta=theta, sigma2=sigma * sigma)
            pl, pg = pi_probs(p)
            blocks = (
                (0.5 * (1.0 - pl), 0.5 * (1.0 - pg), 0.0),
                (0.5 * pg, 0.5 * pl, 0.5 * (1.0 - pl - pg)),
            )
            want = log_negativity(choi_state(p))
            assert _cross_log_negativity(*blocks) == want
            assert _choi_log_negativity(p) == want

    def test_bounded_by_one(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            p = QuantumCommParams(
                x0=rng.uniform(0.05, 1.5),
                theta=rng.uniform(-2, 2),
                sigma2=rng.uniform(0, 3),
            )
            assert 0.0 <= log_negativity(choi_state(p)) <= 1.0 + 1e-12


def one_shot_haar_fidelity(p, n, seed):
    # the single-draw form of the oracle: one (n, 4) draw, then np.mean
    # and np.std(ddof=1)
    g = np.random.Generator(np.random.Philox(seed)).standard_normal((n, 4))
    z = g[:, 0] + 1j * g[:, 1]
    w = g[:, 2] + 1j * g[:, 3]
    pa = np.abs(z) ** 2 / (np.abs(z) ** 2 + np.abs(w) ** 2)
    pb = 1.0 - pa
    pl, pg = pi_probs(p)
    f = (
        pa**2 * (1.0 - pl)
        + pb**2 * (1.0 - pg)
        + pa * pb * (pl + pg)
        + 2.0 * pa * pb * (1.0 - pl - pg)
    )
    se = float(np.std(f, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(f)), se


class TestHaarOracle:
    def test_identity_parameters(self):
        est = haar_fidelity_oracle(params(theta=0.0, sigma2=0.0), 1000, seed=1)
        assert est.estimate == pytest.approx(1.0, abs=1e-12)
        assert est.std_error == pytest.approx(0.0, abs=1e-12)

    def test_determinism(self):
        a = haar_fidelity_oracle(params(), 10_000, seed=9)
        b = haar_fidelity_oracle(params(), 10_000, seed=9)
        assert a == b

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            haar_fidelity_oracle(params(), 0, seed=1)

    @pytest.mark.parametrize("n", [1, 2, 3, 16383, 16384, 16385, 40000, 10**5])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_blocks_match_one_shot_mean_and_deviation(self, n, seed):
        p = params(theta=0.4, sigma2=0.3)
        est = haar_fidelity_oracle(p, n, seed)
        want, want_se = one_shot_haar_fidelity(p, n, seed)
        assert est.estimate == pytest.approx(want, rel=1e-12)
        assert est.std_error == pytest.approx(want_se, rel=1e-12)

    def test_peak_memory_does_not_grow_with_n(self):
        # the one-shot draw holds 99 MB of normals and complex
        # temporaries at n = 10**6; block by block it is one block
        tracemalloc.start()
        try:
            haar_fidelity_oracle(params(), 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestResonanceRegion:
    def sweep_fidelity(self, theta, x0=0.3):
        sig = np.concatenate(([0.0], np.geomspace(1e-3, 1.0, 80)))
        vals = [
            average_fidelity(QuantumCommParams(x0=x0, theta=theta, sigma2=s**2))
            for s in sig
        ]
        return sig, vals

    def test_membership_equivalence_on_grid(self):
        # Fidelity responds non-monotonically to noise iff |theta| > x0.
        x0 = 0.3
        for k in np.arange(-2.0, 2.01, 0.2):
            if abs(abs(k) - 1.0) < 1e-9:
                continue
            _, vals = self.sweep_fidelity(k * x0, x0)
            flag = (max(vals) - vals[0]) > 1e-12
            assert flag == (abs(k) > 1.0), f"theta = {k} x0"

    def test_fidelity_and_negativity_peak_together(self):
        # Both figures of merit resonate in the same noise region.  The
        # argmaxes do not coincide exactly: measured separations in sigma
        # are 0.0085 / 0.0213 / 0.0395 for theta = 0.31 / 0.35 / 0.40, so
        # the shared-region property is asserted as (a) both curves have an
        # interior maximum, (b) argmax separation below 0.05, and (c) each
        # curve is within 5e-3 of its peak at the other curve's argmax
        # (measured worst case 0.0047 at theta = 0.40).
        sig = np.arange(0.005, 1.0001, 0.005)
        for theta in (0.31, 0.35, 0.40):
            fid = [
                average_fidelity(QuantumCommParams(0.3, theta, s**2)) for s in sig
            ]
            neg = [
                log_negativity(choi_state(QuantumCommParams(0.3, theta, s**2)))
                for s in sig
            ]
            i_fid, i_neg = int(np.argmax(fid)), int(np.argmax(neg))
            assert 0 < i_fid < len(sig) - 1
            assert 0 < i_neg < len(sig) - 1
            assert abs(sig[i_fid] - sig[i_neg]) <= 0.05
            assert fid[i_fid] - fid[i_neg] <= 5e-3
            assert neg[i_neg] - neg[i_fid] <= 5e-3
        # At the narrowest resonance the argmaxes do land within 0.01.
        fid31 = [average_fidelity(QuantumCommParams(0.3, 0.31, s**2)) for s in sig]
        neg31 = [
            log_negativity(choi_state(QuantumCommParams(0.3, 0.31, s**2)))
            for s in sig
        ]
        assert abs(sig[int(np.argmax(fid31))] - sig[int(np.argmax(neg31))]) <= 0.01


class TestValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(DomainError):
            QuantumCommParams(x0=0.0, theta=0.1, sigma2=0.1)
        with pytest.raises(DomainError):
            QuantumCommParams(x0=0.3, theta=0.1, sigma2=-0.1)
        with pytest.raises(DomainError):
            QuantumCommParams(x0=0.3, theta=math.inf, sigma2=0.1)
