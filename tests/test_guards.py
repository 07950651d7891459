"""Guards that reject a bad value or a failed numeric gate, each forced once.

Every case pins the exception type and a fragment of its message.  The
numeric gates cannot trip on a correct engine, so those tests break the
eigensolver or the unitary it relies on.
"""

import importlib
import math

import numpy as np
import pytest

from srbosonic.errors import CutoffError, DomainError, NoCriticalPointError
from srbosonic.fock import (
    FockDensity,
    GaussianStateOneMode,
    _displacement,
    _ladder_arrays,
    gaussian_to_fock,
)
from srbosonic.private_rate import EveEnsemble, holevo_chi
from srbosonic.qubit import QuantumCommParams, apply_channel, haar_fidelity_oracle
from srbosonic.schemes import (
    ClassicalScenario,
    DiscriminationScenario,
    ForbiddenInterval,
    critical_sigma2_classical,
    sweep_success,
)
from srbosonic.threshold import (
    BinaryThresholdSpec,
    McEstimate,
    ThresholdChannel,
    gauss_tail,
    mc_success_probability,
)

fock_module = importlib.import_module("srbosonic.fock")

VACUUM_COV = [[0.5, 0.0], [0.0, 0.5]]
SPEC = BinaryThresholdSpec(-1.0, 1.0, 0.5, 0.5, theta=0.0, prior0=0.5)
QUBIT = QuantumCommParams(0.3, 0.3, 0.1)


def eve_pair():
    # two states with a shared covariance and opposite means
    cov = [[1.0, 0.0], [0.0, 0.5]]
    return EveEnsemble(
        GaussianStateOneMode((-0.4, 0.0), cov), GaussianStateOneMode((0.4, 0.0), cov), 0.5
    )


@pytest.mark.parametrize("build, exc, fragment", [
    (lambda: ForbiddenInterval(1.0, 0.0, 0.0, 0.0), DomainError, "interval requires lo < hi"),
    (lambda: ForbiddenInterval(0.0, 1.0, -1e-3, 0.0), DomainError,
     "residuals must be non-negative"),
    (lambda: McEstimate(0.5, 0.1, 0, 0), DomainError, "n_samples must be >= 1"),
    (lambda: McEstimate(0.5, -0.1, 10, 0), DomainError, "std_error must be non-negative"),
    (lambda: FockDensity(2, np.eye(3)), DomainError, "must be a 2x2 matrix, got shape (3, 3)"),
    (lambda: FockDensity(2, [[1.0, math.nan], [0.0, 1.0]]), DomainError,
     "density entries must be finite"),
    (lambda: GaussianStateOneMode((1j, 0.0), VACUUM_COV), DomainError, "mean must be a real pair"),
    (lambda: GaussianStateOneMode((0.0, 0.0), np.eye(3)), DomainError,
     "cov must be 2x2, got shape (3, 3)"),
    (lambda: GaussianStateOneMode((0.0, 0.0), [[math.inf, 0.0], [0.0, 0.5]]), DomainError,
     "cov must be finite"),
    (lambda: apply_channel(np.diag([math.nan, 1.0]), QuantumCommParams(0.3, 0.3, 0.1)),
     DomainError, "qubit state entries must be finite"),
    (lambda: EveEnsemble("x", eve_pair().state1, 0.5), DomainError,
     "state0 must be a GaussianStateOneMode"),
    (lambda: holevo_chi("x"), DomainError, "e must be an EveEnsemble"),
    # counts: a Python or numpy integer, never a float or a bool
    (lambda: mc_success_probability(SPEC, 1.5, 0), DomainError, "n must be an integer, got 1.5"),
    (lambda: mc_success_probability(SPEC, True, 0), DomainError,
     "n must be an integer, got True"),
    (lambda: mc_success_probability(SPEC, 10, -1), DomainError, "seed must be >= 0, got -1"),
    (lambda: mc_success_probability(SPEC, 10, 1.5), DomainError,
     "seed must be an integer, got 1.5"),
    (lambda: haar_fidelity_oracle(QUBIT, 2.5, 0), DomainError, "n must be an integer, got 2.5"),
    # matrices numpy cannot convert
    (lambda: FockDensity(2, [[1, 0], [0]]), DomainError, "density must be a 2x2 matrix"),
    (lambda: apply_channel("ab", QUBIT), DomainError, "qubit state must be a 2x2 matrix"),
    (lambda: GaussianStateOneMode((0, 0), [[1, 0], [0]]), DomainError,
     "cov must be a real 2x2 matrix"),
    # complex numpy values, whose float() keeps the real part with only a warning
    (lambda: GaussianStateOneMode((0, 0), np.array([[0.5 + 1j, 0], [0, 0.5]])), DomainError,
     "cov must be a real 2x2 matrix"),
    (lambda: GaussianStateOneMode(np.array([1 + 1j, 0]), VACUUM_COV), DomainError,
     "mean must be a real pair"),
    # scalars
    (lambda: ThresholdChannel("a", 0.5), DomainError, "p00 must be real"),
    (lambda: gauss_tail(0.0, 0.0, math.nan), DomainError, "var must be positive, got nan"),
], ids=["interval-order", "interval-residual", "mc-samples", "mc-std-error", "operator-shape",
        "operator-nan", "complex-mean", "cov-shape", "cov-inf", "qubit-nan",
        "eve-state", "chi-type", "mc-float-n", "mc-bool-n", "mc-negative-seed",
        "mc-float-seed", "haar-float-n", "operator-ragged", "qubit-string", "cov-ragged",
        "cov-numpy-complex", "mean-numpy-complex", "channel-string", "tail-nan-var"])
def test_constructor_and_validator_guards(build, exc, fragment):
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc
    assert fragment in str(info.value)


class TestSchemeGuards:
    def test_log_ratio_vanishes(self):
        # R = p0 (theta + 1) / (p1 (theta - 1)) = 0.25 * 3 / (0.75 * 1) = 1
        s = ClassicalScenario(eta=1.0, alpha_q=1.0, prior0=0.25)
        with pytest.raises(NoCriticalPointError, match="log ratio vanishes"):
            critical_sigma2_classical(s, 2.0)

    def test_sweep_of_discrimination_needs_theta(self):
        s = DiscriminationScenario(eta0=0.9, eta1=0.4, alpha_q=1.5)
        with pytest.raises(DomainError, match="theta is required for the discrimination scheme"):
            sweep_success(s, None, [0.0, 1.0])

    def test_sweep_of_unsupported_type(self):
        with pytest.raises(DomainError, match="unsupported scenario type: str"):
            sweep_success("scenario", 1.0, [0.0, 1.0])


class TestNumericGates:
    def patch_eigvalsh(self, monkeypatch, spoil):
        true_eigvalsh = np.linalg.eigvalsh

        def spoiled(matrix):
            return spoil(true_eigvalsh(matrix))

        monkeypatch.setattr(np.linalg, "eigvalsh", spoiled)

    def test_gram_negative_eigenvalue(self, monkeypatch):
        def negative_first(lam):
            lam = lam.copy()
            lam[-1] += lam[0] + 1e-9
            lam[0] = -1e-9
            return lam

        self.patch_eigvalsh(monkeypatch, negative_first)
        with pytest.raises(CutoffError, match=r"thermal cutoff \d+: eigenvalue -1\.000e-09"):
            holevo_chi(eve_pair())

    def test_gram_trace_drift(self, monkeypatch):
        # every eigenvalue 1e-11 high: positive, but the sum drifts past 1e-12
        self.patch_eigvalsh(monkeypatch, lambda lam: lam + 1e-11)
        with pytest.raises(CutoffError, match="drift") as info:
            holevo_chi(eve_pair())
        assert "eigenvalue -" not in str(info.value)

    def test_fock_unitarity(self, monkeypatch):
        true_eigh = np.linalg.eigh

        def stretched(matrix):
            lam, vecs = true_eigh(matrix)
            return lam, 1.01 * vecs

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        with pytest.raises(CutoffError, match="displacement at cutoff 10 lost unitarity"):
            _displacement(0.5 + 0j, *_ladder_arrays(10))

    def test_fock_trace_deficit(self, monkeypatch):
        # a displacement that loses 0.2% of the trace passes no build
        monkeypatch.setattr(
            fock_module, "_displacement", lambda beta, a, adag: 0.999 * np.eye(a.shape[0])
        )
        coherent = GaussianStateOneMode((1.0, 0.0), VACUUM_COV)
        with pytest.raises(CutoffError, match="trace deficit 1.999e-03 at cutoff 20"):
            gaussian_to_fock(coherent, 20)
