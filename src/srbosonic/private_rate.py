"""Private rate of the lossy threshold link against a collective eavesdropper.

The rate is I(A:B) − χ(A:E): the legitimate pair is held to threshold
detection while the eavesdropper, who holds the conjugate output of the
loss, is granted the full Holevo information of her conditional-state
ensemble.  The line splits the added variance σ² between its two ports:
the receiver gets the share c of ``schemes._noise_weight`` (η when the
sender adds the noise, 1 when the receiver does) and the eavesdropper
the rest, 1 − c.  For the receiver the site is only σ² ↦ ησ²; Eve's
share is what breaks the symmetry.  Sender-site noise also blurs her
states; receiver-site noise never reaches her, so χ is a constant in σ
there and the rate moves exactly with I(A:B).

χ needs the entropy of a two-component Gaussian mixture, which is not
Gaussian; it is the spectrum of a closed-form Gram matrix of displaced
number states (``_mixture_entropy``), while the component entropies use
the closed form.  No Fock density is built, but the thermal index is cut
where the Fock engine cuts it (``fock._thermal_cutoff``).

χ never depends on the decoding threshold θ, and it depends on σ only
through the eavesdropper's share of the added variance, σ_E² = (1 − c)σ²
((1 − η)σ² at the sender site, 0 at the receiver site).  A rate over a σ
grid therefore computes χ once per distinct σ_E² (``_chi_by_sigma2``) and
shares it across every θ; the rate value I(A:B) − χ itself is written
once, in ``_rate``.

Small sender-site noise at r = 0 always lowers χ faster than linearly.
Eve's two states are then coherent at σ = 0, with |β₁ − β₀|² = x₀ =
2(1 − η)α², and the noise makes them thermal with n̄ ≈ bσ², where
b = (1 − c)/4 = (1 − η)/4 is a quarter of her share.  To first order
each state puts weight n̄ on D(β_x)|1⟩.  The part of that vector inside
span{|β₀⟩, |β₁⟩} shifts O(1) eigenvalues; the rest adds eigenvalues of
order n̄, each with an n̄ ln(1/n̄) entropy; and each component's entropy
g(n̄), subtracted once, has the full n̄ ln(1/n̄).  So χ(σ²) − χ(0) ≈
−κ n̄ log₂(1/n̄) + O(n̄), where κ = x₀e^{−x₀}/(1 − e^{−x₀}) is the squared
norm of D(β_x)|1⟩'s projection onto the span, the same for both states,
so the prior drops out.  κ > 0 for every α > 0, so dR/dσ² → +∞ at 0+
for every θ: at r = 0 a little sender-site noise raises the rate at
every threshold, and the private forbidden set is empty.
(χ(σ²) − χ(0))/σ² falls by κ·b·log₂100 per two decades of σ², which the
tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CutoffError, DomainError, _finite, _nonnegative, _prior, _sigma_grid, _store
from .fock import (
    THERMAL_TAIL_TOL,
    GaussianStateOneMode,
    _spectrum_entropy,
    _thermal_cutoff,
    _thermal_weights,
    gaussian_entropy,
    symplectic_eigenvalue,
)
from .rootfind import golden_max
from .schemes import SITE_SENDER, ClassicalScenario, _line_variance, _noise_weight, classical_channel
from .threshold import mutual_information

if TYPE_CHECKING:  # annotations only; numpy loads where it is used
    import numpy as np

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
GRAM_EIGEN_TOL = 1e-10
GRAM_TRACE_TOL = 1e-12
_RESCALE = 1e150
# Largest thermal cutoff K of the Gram route, whose 2K×2K eigensolve costs ~K³:
# at K = 1024 one χ took 1.4 s on 2 cores (2.2 s on one BLAS thread), in 32 MB.
_GRAM_MAX_CUTOFF = 1024


@dataclass(frozen=True)
class PrivateScenario:
    """A classical-scheme scenario plus the decoding threshold."""

    base: ClassicalScenario
    theta: float

    def __post_init__(self) -> None:
        if not isinstance(self.base, ClassicalScenario):
            raise DomainError("base must be a ClassicalScenario")
        _store(self, _finite, "theta")


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
        import numpy as np

        for name in ("state0", "state1"):
            if not isinstance(getattr(self, name), GaussianStateOneMode):
                raise DomainError(f"{name} must be a GaussianStateOneMode")
        _store(self, _prior, "prior0")
        gap = float(np.max(np.abs(self.state0.cov - self.state1.cov)))
        if gap > 1e-12:
            raise DomainError(
                f"conditional covariances must be identical, largest gap {gap:.3e}"
            )


def _base(s: ClassicalScenario | PrivateScenario) -> ClassicalScenario:
    # χ never reads θ: a PrivateScenario counts as its ClassicalScenario
    if isinstance(s, PrivateScenario):
        return s.base
    if not isinstance(s, ClassicalScenario):
        raise DomainError("s must be a ClassicalScenario or a PrivateScenario")
    return s


def eve_ensemble(s: ClassicalScenario | PrivateScenario, sigma2: float) -> EveEnsemble:
    """Conditional states of the loss output for the two encoded bits.

    Both variances are ``schemes._line_variance`` at the line's other
    port, which passes 1 − η of the signal.  The q variance is
    (η + (1−η)·e^{−2r} + (1−c)σ²)/2: Eve gets the share 1 − c of the
    added variance that Bob's c leaves, 1 − η at the sender site and 0 at
    the receiver site.  The p variance is the anti-squeezed quadrature, at
    −r, with none of the added variance: (η + (1−η)·e^{2r})/2.  Means are
    ∓√(1−η)·α_q.
    """
    base = _base(s)
    leak = 1.0 - base.eta
    mean_mag = math.sqrt(leak) * base.alpha_q
    eve_weight = 1.0 - _noise_weight(base.noise_site, base.eta)
    var_q = _line_variance(leak, base.r, eve_weight, _nonnegative("sigma2", sigma2))
    try:
        var_p = _line_variance(leak, -base.r, 0.0, 0.0)
    except OverflowError:
        raise DomainError(
            f"r = {base.r!r} is too large: e^(2r) in the eavesdropper's p variance overflows"
        ) from None
    cov = [[var_q, 0.0], [0.0, var_p]]
    return EveEnsemble(
        state0=GaussianStateOneMode((-mean_mag, 0.0), cov),
        state1=GaussianStateOneMode((+mean_mag, 0.0), cov),
        prior0=base.prior0,
    )


def _displacement_block(x: float, dim: int) -> np.ndarray:
    """⟨m|D(√x)|n⟩ for m, n < dim; real because the amplitude is.

    Each diagonal j = m − n runs the Laguerre recurrence in n (Cahill &
    Glauber, Phys. Rev. 177, 1969) from d₀ = exp(½ j ln x − x/2 − ½ ln j!):
    d_{n+1} = [(2n+1+j−x) d_n − √(n(n+j)) d_{n−1}] / √((n+1)(n+j+1)),
    ⟨n+j|D|n⟩ = d_n, ⟨n|D|n+j⟩ = (−1)^j d_n.  Factors above 1e150 move
    into log_scale, so a start below the float range (x ≳ 1400) cannot
    zero a diagonal.  (A column recurrence loses all accuracy at |β| ~ 2.)
    An x that is not finite, or past ~1e150 where one step of the
    recurrence outgrows the rescale, leaves a block entry non-finite: a
    CutoffError, since the states are then orthogonal to float precision.
    """
    import numpy as np

    if x == 0.0:
        return np.eye(dim)
    j = np.arange(dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    sign = 1 - 2 * (j % 2)
    block = np.empty((dim, dim))
    prev, cur = np.zeros(dim), np.ones(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite block is refused below
        log_scale = 0.5 * j * math.log(x) - 0.5 * x - 0.5 * log_fact
        for n in range(dim):
            diagonals = (cur * np.exp(log_scale))[: dim - n]
            block[n:, n] = diagonals
            block[n, n:] = sign[: dim - n] * diagonals
            nxt = (2 * n + 1 + j - x) * cur - np.sqrt(n * (n + j)) * prev
            nxt /= np.sqrt((n + 1) * (n + j + 1))
            big = np.abs(nxt) > _RESCALE
            if big.any():
                nxt[big], cur[big] = nxt[big] / _RESCALE, cur[big] / _RESCALE
                log_scale[big] += math.log(_RESCALE)
            prev, cur = cur, nxt
    if not np.isfinite(block).all():
        raise CutoffError(
            f"displacement block at x = {x!r} leaves the float range: the two "
            f"eavesdropper states are orthogonal to float precision; lower alpha-q"
        )
    return block


def _gram_entropy(nu: float, prior0: float, x: float, dim: int) -> float:
    """−Σ λ log₂ λ of the mixture with its thermal index kept to k < dim.

    ρ̄ = Σ_{x,k} p_x w_k D(β_x)|k⟩⟨k|D(β_x)†, w_k = (1 − q) q^k,
    q = n̄/(n̄+1), n̄ = ν − ½, |β₁ − β₀|² = x, has the nonzero spectrum of
    G = [[p₀W, √(p₀p₁) W½ M W½], [·ᵀ, p₁W]], W = diag(w_k), M the
    displacement block.  Gates (else CutoffError): spectrum ≥ −1e-10 and
    within 1e-12 of Σ w_k in sum.
    """
    import numpy as np

    weights = _thermal_weights(nu - 0.5, dim)
    root = np.sqrt(weights)
    gram = np.diag(np.concatenate((prior0 * weights, (1.0 - prior0) * weights)))
    gram[:dim, dim:] = math.sqrt(prior0 * (1.0 - prior0)) * (
        root[:, None] * _displacement_block(x, dim) * root[None, :]
    )
    gram[dim:, :dim] = gram[:dim, dim:].T
    lam = np.linalg.eigvalsh(gram)
    drift = abs(float(lam.sum()) - float(weights.sum()))
    if lam[0] < -GRAM_EIGEN_TOL or drift > GRAM_TRACE_TOL:
        raise CutoffError(
            f"Gram matrix at thermal cutoff {dim}: eigenvalue {lam[0]:.3e}, drift {drift:.3e}"
        )
    return _spectrum_entropy(lam)


def _mixture_entropy(e: EveEnsemble) -> float:
    """Entropy of the binary Gaussian mixture from its exact Gram matrix.

    Whitening the shared covariance (no entropy changes) makes component x
    D(β_x) τ D(β_x)†, τ thermal at n̄ = ν − ½, |β₁ − β₀|² = ν Δμᵀcov⁻¹Δμ/2.
    The thermal index is cut at ``fock._thermal_cutoff``, the smallest K
    with tail ε = q^K ≤ 1e-12, below which a Fock build is refused too;
    K > _GRAM_MAX_CUTOFF is a CutoffError before any matrix is built.  Error
    bound, by concavity and the mixing bound on ρ̄ = (1 − ε)·kept + ε·tail,
    the tail's entropy being at most h(p₀) + g(ν) (Audenaert's estimate,
    2007, with this in place of log(d − 1)):
    |S(ρ̄) − H_K| ≤ h(ε) + ε·(h(p₀) + g(ν)) < 5.2e-11 bits for every
    K ≤ 4096, so for every K this route accepts.
    """
    import numpy as np

    nu = symplectic_eigenvalue(e.state0)
    dim = _thermal_cutoff(nu - 0.5)
    if dim > _GRAM_MAX_CUTOFF:
        raise CutoffError(
            f"eavesdropper mixture needs thermal cutoff {dim} at n̄ = {nu - 0.5:.6g}, above "
            f"the Gram-route limit {_GRAM_MAX_CUTOFF} (tail {THERMAL_TAIL_TOL:g}); "
            "lower the sender-site noise or squeezing"
        )
    delta = np.subtract(e.state1.mean, e.state0.mean)
    with np.errstate(over="ignore"):  # an x of inf fails _displacement_block's check
        x = nu * float(delta @ np.linalg.solve(e.state0.cov, delta)) / 2.0
    return _gram_entropy(nu, e.prior0, x, dim)


def holevo_chi(e: EveEnsemble) -> float:
    """Holevo information S(ρ̄) − Σ p_x S(ρ_x) of the ensemble, in bits.

    Component entropies are closed-form Gaussian; the mixture entropy
    comes from the Gram spectrum of ``_mixture_entropy``, within 5.2e-11
    bits of exact.  Degenerate ensembles (one-sided prior, identical
    states) short-circuit to exactly 0.
    """
    if not isinstance(e, EveEnsemble):
        raise DomainError("e must be an EveEnsemble")
    if e.prior0 in (0.0, 1.0):
        return 0.0
    if e.state0.mean == e.state1.mean:
        # covariances already known equal, so the states coincide
        return 0.0
    # both components share the covariance, hence the entropy
    return max(0.0, _mixture_entropy(e) - gaussian_entropy(e.state0))


def _rate(base: ClassicalScenario, theta: float, sigma2: float, chi: float) -> float:
    """I(A:B) − χ with the eavesdropper's χ supplied by the caller."""
    return mutual_information(classical_channel(base, theta, sigma2), base.prior0) - chi


def _chi_by_sigma2(base: ClassicalScenario, sigmas) -> dict:
    """σ² → χ over a σ grid, one ``holevo_chi`` per distinct share σ_E² = (1 − c)σ²."""
    eve_weight = 1.0 - _noise_weight(base.noise_site, base.eta)
    # eve_ensemble reads σ² only through this product, so any σ² of a share stands for it
    by_share = {eve_weight * (sig * sig): sig * sig for sig in sigmas}
    # largest share (largest cutoff) first, so a grid past the χ ceiling fails at once
    keys = sorted(by_share, reverse=True)
    chi_at = {key: holevo_chi(eve_ensemble(base, by_share[key])) for key in keys}
    return {sig * sig: chi_at[eve_weight * (sig * sig)] for sig in sigmas}


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


def conjecture_probe(s: ClassicalScenario | PrivateScenario, theta_list, sigma_grid) -> tuple:
    """Scan private_rate over a σ grid for each θ; flag noise-assisted gains.

    Sender site only: that is the regime where added noise degrades the
    eavesdropper too.  The flag is raised when the best rate at σ > 0
    beats the rate at the first grid point by more than 1e-6; the
    maximizing σ is refined by golden section between its grid
    neighbors when the peak is not at the grid edge.

    χ does not depend on θ, so the grid stage evaluates it once per σ
    (``_chi_by_sigma2``) and shares it across the whole θ list; only the
    golden-section refinement, whose σ values are off the grid, computes
    a fresh χ at each of its evaluations.  A PrivateScenario's θ is not read.
    """
    base = _base(s)
    if base.noise_site != SITE_SENDER:
        raise DomainError("conjecture_probe requires sender-site noise")
    thetas = tuple(_finite("theta values", theta) for theta in theta_list)
    if not thetas:
        raise DomainError("theta_list must be non-empty")
    sigmas = _sigma_grid(sigma_grid)

    chi_at = _chi_by_sigma2(base, sigmas)

    results = []
    for theta in thetas:
        def rate(sigma: float, scenario=PrivateScenario(base, theta)) -> float:
            return private_rate(scenario, sigma * sigma)

        values = [_rate(base, theta, sig * sig, chi_at[sig * sig]) for sig in sigmas]
        best = values.index(max(values))  # the first maximum
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
