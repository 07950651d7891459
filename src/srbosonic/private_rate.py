"""Private rate of the lossy threshold link against a collective eavesdropper.

The rate is I(A:B) − χ(A:E): the legitimate pair is held to threshold
detection while the eavesdropper, who holds the conjugate output of the
loss, is granted the full Holevo information of her conditional-state
ensemble.  Sender-site noise enters the eavesdropper's states (her q
variance picks up the added variance before the loss); receiver-site
noise never reaches her, so χ is a constant in σ there and the rate
moves exactly with I(A:B).

χ needs the entropy of a two-component Gaussian mixture, which is not
Gaussian; that term runs through the Fock-space engine with the adaptive
cutoff loop, while the component entropies use the closed form.

χ never depends on the decoding threshold θ, and it depends on σ only
through the eavesdropper's added variance σ_E² (σ² at the sender site, 0
at the receiver site).  A rate over a σ grid therefore computes χ once
per distinct σ_E² (``_chi_by_sigma``) and shares it across every θ; the
rate value I(A:B) − χ itself is written once, in ``_rate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainError
from .fock import (
    FockDensity,
    GaussianStateOneMode,
    _grow_cutoff,
    gaussian_entropy,
    gaussian_to_fock,
    suggest_cutoff,
)
from .rootfind import golden_max
from .schemes import SITE_SENDER, ClassicalScenario, classical_channel
from .threshold import mutual_information

__all__ = [
    "PrivateScenario",
    "EveEnsemble",
    "RateProbeResult",
    "eve_ensemble",
    "holevo_chi",
    "private_rate",
    "conjecture_probe",
]

PROBE_GAIN_MARGIN = 1e-6
PROBE_REFINE_XTOL = 1e-6


@dataclass(frozen=True)
class PrivateScenario:
    """A classical-scheme scenario plus the decoding threshold."""

    base: ClassicalScenario
    theta: float

    def __post_init__(self) -> None:
        if not isinstance(self.base, ClassicalScenario):
            raise DomainError("base must be a ClassicalScenario")
        if not isinstance(self.theta, (int, float)) or not math.isfinite(self.theta):
            raise DomainError(f"theta must be finite, got {self.theta!r}")
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True, eq=False)
class EveEnsemble:
    """Eavesdropper conditional states for X = 0, 1 with the input prior.

    Loss and added noise are independent of the encoded bit, so the two
    covariance matrices must coincide; only the means may differ.
    """

    state0: GaussianStateOneMode
    state1: GaussianStateOneMode
    prior0: float

    def __post_init__(self) -> None:
        for name in ("state0", "state1"):
            if not isinstance(getattr(self, name), GaussianStateOneMode):
                raise DomainError(f"{name} must be a GaussianStateOneMode")
        prior0 = self.prior0
        if not isinstance(prior0, (int, float)) or not 0.0 <= float(prior0) <= 1.0:
            raise DomainError(f"prior0 must lie in [0, 1], got {prior0!r}")
        object.__setattr__(self, "prior0", float(prior0))
        gap = float(np.max(np.abs(self.state0.cov - self.state1.cov)))
        if gap > 1e-12:
            raise DomainError(
                f"conditional covariances must be identical, largest gap {gap:.3e}"
            )


def eve_ensemble(s: PrivateScenario, sigma2: float) -> EveEnsemble:
    """Conditional states of the loss output for the two encoded bits.

    Means are ∓√(1−η)·α_q.  The q variance is ((1−η)(e^{−2r}+σ_E²)+η)/2
    with σ_E² = σ² for sender-site noise and 0 for receiver-site noise;
    the p variance is ((1−η)e^{2r}+η)/2.
    """
    if not isinstance(s, PrivateScenario):
        raise DomainError("s must be a PrivateScenario")
    if not isinstance(sigma2, (int, float)) or not math.isfinite(sigma2) or sigma2 < 0.0:
        raise DomainError(f"sigma2 must be finite and >= 0, got {sigma2!r}")
    base = s.base
    leak = 1.0 - base.eta
    sigma_e2 = float(sigma2) if base.noise_site == SITE_SENDER else 0.0
    mean_mag = math.sqrt(leak) * base.alpha_q
    var_q = (leak * (math.exp(-2.0 * base.r) + sigma_e2) + base.eta) / 2.0
    var_p = (leak * math.exp(2.0 * base.r) + base.eta) / 2.0
    cov = [[var_q, 0.0], [0.0, var_p]]
    return EveEnsemble(
        state0=GaussianStateOneMode((-mean_mag, 0.0), cov),
        state1=GaussianStateOneMode((+mean_mag, 0.0), cov),
        prior0=base.prior0,
    )


def _whitened(e: EveEnsemble) -> EveEnsemble:
    """Rotate and symmetrically rescale so the shared covariance is isotropic.

    A canonical transformation applied to both components at once leaves
    every entropy in χ unchanged, but an isotropic covariance needs a far
    smaller Fock cutoff than an elongated one (no squeeze synthesis, and
    the basis size tracks √(var_q·var_p) instead of max(var_q, var_p)).
    """
    cov = np.array(e.state0.cov)
    eigvals, rot = np.linalg.eigh(cov)
    if np.linalg.det(rot) < 0.0:
        rot = rot[:, ::-1].copy()
        eigvals = eigvals[::-1]
    nu = math.sqrt(eigvals[0] * eigvals[1])
    # det-1 diagonal scaling: evens out the two variances at nu
    scale = np.array(
        [(eigvals[1] / eigvals[0]) ** 0.25, (eigvals[0] / eigvals[1]) ** 0.25]
    )
    iso_cov = [[nu, 0.0], [0.0, nu]]
    means = [
        tuple(scale * (rot.T @ np.array(st.mean)))
        for st in (e.state0, e.state1)
    ]
    return EveEnsemble(
        state0=GaussianStateOneMode(means[0], iso_cov),
        state1=GaussianStateOneMode(means[1], iso_cov),
        prior0=e.prior0,
    )


def _mixture_entropy(e: EveEnsemble) -> float:
    """Entropy of the binary Gaussian mixture, cutoff grown until stable."""
    e = _whitened(e)

    def build(dim: int) -> FockDensity:
        rho0 = gaussian_to_fock(e.state0, dim)
        rho1 = gaussian_to_fock(e.state1, dim)
        return FockDensity(dim, e.prior0 * rho0.entries + (1.0 - e.prior0) * rho1.entries)

    start = max(suggest_cutoff(e.state0), suggest_cutoff(e.state1))
    return _grow_cutoff(build, start)[1]


def holevo_chi(e: EveEnsemble) -> float:
    """Holevo information S(ρ̄) − Σ p_x S(ρ_x) of the ensemble, in bits.

    Component entropies are closed-form Gaussian; the mixture entropy is
    Fock-numeric.  Degenerate ensembles (one-sided prior, identical
    states) short-circuit to exactly 0.
    """
    if not isinstance(e, EveEnsemble):
        raise DomainError("e must be an EveEnsemble")
    if e.prior0 in (0.0, 1.0):
        return 0.0
    if e.state0.mean == e.state1.mean:
        # covariances already known equal, so the states coincide
        return 0.0
    parts = e.prior0 * gaussian_entropy(e.state0)
    parts += (1.0 - e.prior0) * gaussian_entropy(e.state1)
    return max(0.0, _mixture_entropy(e) - parts)


def _rate(base: ClassicalScenario, theta: float, sigma2: float, chi: float) -> float:
    """I(A:B) − χ with the eavesdropper's χ supplied by the caller."""
    return mutual_information(classical_channel(base, theta, sigma2), base.prior0) - chi


def _eve_chi(s: PrivateScenario, sigma_e2: float) -> float:
    return holevo_chi(eve_ensemble(s, sigma_e2))


def _chi_by_sigma(s: PrivateScenario, sigmas, map_fn=map) -> list:
    """χ at each σ of the grid, one ``holevo_chi`` per distinct σ_E².

    σ_E² is σ² at the sender site and 0 at the receiver site, where the
    whole grid shares a single χ.  ``map_fn(fn, xs)`` evaluates fn over
    the distinct σ_E² values in grid order; the CLI passes its process
    pool here.
    """
    sender = s.base.noise_site == SITE_SENDER
    keys = [sig * sig if sender else 0.0 for sig in sigmas]
    distinct = list(dict.fromkeys(keys))
    chi_by_key = dict(zip(distinct, map_fn(partial(_eve_chi, s), distinct)))
    return [chi_by_key[key] for key in keys]


def private_rate(s: PrivateScenario, sigma2: float) -> float:
    """I(A:B) − χ(A:E) at one added-noise level; may be negative."""
    return _rate(s.base, s.theta, sigma2, holevo_chi(eve_ensemble(s, sigma2)))


@dataclass(frozen=True)
class RateProbeResult:
    """Non-monotonicity verdict for one threshold value."""

    theta: float
    nonmonotonic: bool
    argmax_sigma: float
    gain: float


def conjecture_probe(s: PrivateScenario, theta_list, sigma_grid) -> tuple:
    """Scan private_rate over a σ grid for each θ; flag noise-assisted gains.

    Sender site only: that is the regime where added noise degrades the
    eavesdropper too.  The flag is raised when the best rate at σ > 0
    beats the rate at the first grid point by more than 1e-6; the
    maximizing σ is refined by golden section between its grid
    neighbors when the peak is not at the grid edge.

    χ does not depend on θ, so the grid stage evaluates it once per σ
    (``_chi_by_sigma``) and shares it across the whole θ list; only the
    golden-section refinement, whose σ values are off the grid, computes
    a fresh χ at each of its evaluations.
    """
    if not isinstance(s, PrivateScenario):
        raise DomainError("s must be a PrivateScenario")
    if s.base.noise_site != SITE_SENDER:
        raise DomainError("conjecture_probe requires sender-site noise")
    thetas = tuple(float(t) for t in theta_list)
    sigmas = tuple(float(v) for v in sigma_grid)
    if not thetas or not sigmas:
        raise DomainError("theta_list and sigma_grid must be non-empty")
    for theta in thetas:
        if not math.isfinite(theta):
            raise DomainError(f"theta values must be finite, got {theta!r}")
    for sig in sigmas:
        if not math.isfinite(sig) or sig < 0.0:
            raise DomainError(f"sigma values must be finite and >= 0, got {sig!r}")
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise DomainError("sigma_grid must be strictly increasing")

    chi_by_sigma = _chi_by_sigma(s, sigmas)

    results = []
    for theta in thetas:
        def rate(sigma: float, theta=theta) -> float:
            probe = PrivateScenario(base=s.base, theta=theta)
            return private_rate(probe, sigma * sigma)

        values = [
            _rate(s.base, theta, sig * sig, chi) for sig, chi in zip(sigmas, chi_by_sigma)
        ]
        best = int(np.argmax(values))
        best_sigma = sigmas[best]
        best_value = values[best]
        if 0 < best < len(sigmas) - 1:
            refined_sigma = golden_max(
                rate, sigmas[best - 1], sigmas[best + 1], xtol=PROBE_REFINE_XTOL
            )
            refined_value = rate(refined_sigma)
            if refined_value > best_value:
                best_sigma, best_value = refined_sigma, refined_value
        gain = best_value - values[0]
        results.append(
            RateProbeResult(
                theta=theta,
                nonmonotonic=bool(best > 0 and gain > PROBE_GAIN_MARGIN),
                argmax_sigma=best_sigma,
                gain=gain,
            )
        )
    return tuple(results)
