"""A qubit carried by a bosonic mode under displacement noise and threshold decoding.

The logical zero and one are encoded as narrow position wavepackets centered
at -x0 and +x0.  The mode suffers a random position displacement drawn from
N(0, sigma2) and the decoder applies a threshold rule at theta to map the
mode back to a qubit.  Averaged over the displacement, the induced qubit
channel is characterized by two leakage probabilities:

    pi_less    = P(packet at +x0 is decoded as 0) = 1/2 + 1/2 erf((theta - x0) / sqrt(2 sigma2))
    pi_greater = P(packet at -x0 is decoded as 1) = 1/2 - 1/2 erf((theta + x0) / sqrt(2 sigma2))

Populations mix through these probabilities and coherences shrink by
1 - pi_less - pi_greater.  Note the noise variance convention: sigma2 here
is the full displacement variance (no factor 1/2), unlike the quadrature
variance composition used by the scheme modules.

Average fidelity over Haar-random pure inputs has the closed form
1 - (pi_less + pi_greater)/2, and it responds non-monotonically to noise
exactly when |theta| > x0, with the critical variance
2 theta x0 / ln((theta + x0)/(theta - x0)).  Entanglement transmission is
tracked through the Choi state and its logarithmic negativity.

Qubit states and Choi states are plain complex numpy arrays (2x2 and 4x4);
operations validate Hermiticity, unit trace, and positivity on the way in.
numpy is imported inside the functions that build or read such arrays, so
the leakage probabilities and the fidelity need none.  ``choi_state`` and
the CLI's negativity curve read the same five Choi entries; the curve
(``_choi_log_negativity``) evaluates the two 2x2 blocks of their partial
transpose through ``_cross_log_negativity``, the closed form
``log_negativity`` uses on such states: array-free and bit-identical to
``log_negativity(choi_state(p))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, NoCriticalPointError, _finite, _nonnegative, _store
from .threshold import _MC_BLOCK, McEstimate

if TYPE_CHECKING:  # annotations only; numpy loads where it is used
    import numpy as np

__all__ = [
    "QuantumCommParams",
    "pi_probs",
    "apply_channel",
    "average_fidelity",
    "critical_sigma2_quantum",
    "choi_state",
    "log_negativity",
    "haar_fidelity_oracle",
]

_HERM_TOL = 1e-12
_EIG_TOL = 1e-12


@dataclass(frozen=True)
class QuantumCommParams:
    """Encoding displacement x0, decoding threshold theta, noise variance sigma2."""

    x0: float
    theta: float
    sigma2: float

    def __post_init__(self) -> None:
        _store(self, _finite, "x0", "theta")
        if self.x0 <= 0.0:
            raise DomainError(f"x0 must be positive, got {self.x0!r}")
        _store(self, _nonnegative, "sigma2")


def _step(x: float) -> float:
    # Heaviside with the midpoint convention, the erf(0) = 0 limit.
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return 0.0
    return 0.5


def pi_probs(p: QuantumCommParams) -> tuple:
    """Leakage probabilities (pi_less, pi_greater) of the induced channel.

    At sigma2 = 0 the Gaussian average degenerates to step functions with
    value 1/2 exactly at threshold coincidence.
    """
    if p.sigma2 == 0.0:
        return _step(p.theta - p.x0), _step(-(p.theta + p.x0))
    w = math.sqrt(2.0 * p.sigma2)
    pi_less = 0.5 + 0.5 * math.erf((p.theta - p.x0) / w)
    pi_greater = 0.5 - 0.5 * math.erf((p.theta + p.x0) / w)
    return pi_less, pi_greater


def _hermitian(matrix: np.ndarray, dim: int, what: str, tol: float) -> np.ndarray:
    import numpy as np

    m = np.asarray(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise DomainError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise DomainError(f"{what} entries must be finite")
    if np.max(np.abs(m - m.conj().T)) > tol:
        raise DomainError(f"{what} must be Hermitian")
    return m


def _validate_qubit(rho: np.ndarray) -> np.ndarray:
    import numpy as np

    rho = _hermitian(rho, 2, "qubit state", _HERM_TOL)
    if abs(rho[0, 0].real + rho[1, 1].real - 1.0) > _HERM_TOL:
        raise DomainError("qubit state must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -_EIG_TOL:
        raise DomainError("qubit state must be positive semidefinite")
    return rho


def apply_channel(rho_in: np.ndarray, p: QuantumCommParams) -> np.ndarray:
    """Output state of the noisy encode-decode cycle, linear in the input.

    Populations exchange weight through the leakage probabilities and the
    off-diagonal element is damped by their complement.
    """
    import numpy as np

    rho = _validate_qubit(rho_in)
    pl, pg = pi_probs(p)
    coh = 1.0 - pl - pg
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = rho[0, 0] * (1.0 - pl) + rho[1, 1] * pg
    out[1, 1] = rho[0, 0] * pl + rho[1, 1] * (1.0 - pg)
    out[0, 1] = rho[0, 1] * coh
    out[1, 0] = rho[1, 0] * coh
    return out


def average_fidelity(p: QuantumCommParams) -> float:
    """Average input-output fidelity over Haar-random pure qubit inputs."""
    pl, pg = pi_probs(p)
    return 1.0 - 0.5 * (pl + pg)


def critical_sigma2_quantum(p: QuantumCommParams) -> float:
    """Noise variance maximizing the average fidelity, for |theta| > x0.

    Evaluates 2 theta x0 / ln((theta + x0)/(theta - x0)), which is even in
    theta and positive on its domain.  Thresholds with |theta| <= x0 admit
    no critical point (the fidelity is monotone in the noise) and raise
    NoCriticalPointError.
    """
    if abs(p.theta) <= p.x0:
        raise NoCriticalPointError(
            f"threshold {p.theta!r} lies in [-x0, x0]: fidelity is monotone in noise"
        )
    return 2.0 * p.theta * p.x0 / math.log((p.theta + p.x0) / (p.theta - p.x0))


def _choi_entries(p: QuantumCommParams) -> tuple:
    # choi_state's diagonal in basis order {00, 01, 10, 11}, then its Bell coherence
    pl, pg = pi_probs(p)
    return 0.5 * (1.0 - pl), 0.5 * pg, 0.5 * pl, 0.5 * (1.0 - pg), 0.5 * (1.0 - pl - pg)


def choi_state(p: QuantumCommParams) -> np.ndarray:
    """Choi state of the channel: act on half of a Bell pair.

    Basis order is (output, reference) in {00, 01, 10, 11}.  The diagonal
    carries {(1-pi_less)/2, pi_greater/2, pi_less/2, (1-pi_greater)/2} and
    the Bell coherence survives in the (0,3) corner scaled by
    (1 - pi_less - pi_greater)/2.
    """
    import numpy as np

    *diagonal, coherence = _choi_entries(p)
    c = np.diag(np.array(diagonal, dtype=complex))
    c[0, 3] = c[3, 0] = coherence
    return c


def _two_by_two_eigs(a: float, d: float, b: complex) -> tuple:
    # Eigenvalues of the Hermitian block [[a, b], [conj(b), d]].
    half_sum = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), abs(b))
    return half_sum - radius, half_sum + radius


def _choi_log_negativity(p: QuantumCommParams) -> float:
    # log_negativity(choi_state(p)) bit for bit, without the array: the
    # partial transpose moves the coherence from the (0,3) corner to (1,2)
    d00, d01, d10, d11, coherence = _choi_entries(p)
    return _cross_log_negativity((d00, d11, 0.0), (d01, d10, coherence))


def _cross_log_negativity(outer: tuple, inner: tuple) -> float:
    """max(0, log2 Σ|eig|) of a partial transpose made of two 2x2 blocks.

    Each block is (a, d, b) as ``_two_by_two_eigs`` takes it: ``outer``
    sits on basis states {00, 11}, ``inner`` on {01, 10}.
    """
    eigs = _two_by_two_eigs(*outer) + _two_by_two_eigs(*inner)
    return max(0.0, math.log2(sum(abs(x) for x in eigs)))


def log_negativity(choi: np.ndarray) -> float:
    """Logarithmic negativity of a two-qubit state: log2 of the PT trace norm.

    The partial transpose is taken over the second (reference) factor.  For
    the cross-shaped matrices this channel produces (diagonal plus
    anti-diagonal corners) the PT eigenvalues come from two closed-form 2x2
    Hermitian blocks; anything else falls back to a full Hermitian
    eigensolve.  The result is clamped at 0, attained exactly when the
    partial transpose is positive semidefinite.
    """
    import numpy as np

    c = _hermitian(choi, 4, "Choi state", 1e-10)
    pt = c.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    off = pt - np.diag(np.diag(pt)) - np.fliplr(np.diag(np.diag(np.fliplr(pt))))
    if np.max(np.abs(off)) < 1e-14:
        return _cross_log_negativity(
            (pt[0, 0].real, pt[3, 3].real, pt[0, 3]), (pt[1, 1].real, pt[2, 2].real, pt[1, 2])
        )
    trace_norm = float(np.sum(np.abs(np.linalg.eigvalsh(pt))))
    return max(0.0, math.log2(trace_norm))


def haar_fidelity_oracle(p: QuantumCommParams, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the average fidelity over Haar-random inputs.

    Draws pure states as normalized complex Gaussian pairs, pushes each
    through the channel action, and averages the input-output fidelity.
    Independent of the closed form in average_fidelity, so the two serve as
    mutual checks.

    The normals are drawn ``_MC_BLOCK`` states at a time, in the order of
    one (n, 4) draw, and each block's mean and sum of squared deviations
    is merged into the running pair (Chan's pairwise update), so memory
    is one block whatever n.  The estimate and its standard error agree
    with the one-shot mean and sample deviation to rounding.
    """
    import numpy as np

    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    rng = np.random.Generator(np.random.Philox(seed))
    pl, pg = pi_probs(p)
    mean, m2 = 0.0, 0.0
    for start in range(0, n, _MC_BLOCK):
        g = rng.standard_normal((min(_MC_BLOCK, n - start), 4))
        # pa = |z|² / (|z|² + |w|²) for z = g0 + i g1, w = g2 + i g3
        z2 = g[:, 0] ** 2 + g[:, 1] ** 2
        pa = z2 / (z2 + g[:, 2] ** 2 + g[:, 3] ** 2)
        pb = 1.0 - pa
        f = (
            pa**2 * (1.0 - pl)
            + pb**2 * (1.0 - pg)
            + pa * pb * (pl + pg)
            + 2.0 * pa * pb * (1.0 - pl - pg)
        )
        size = f.size
        total = start + size
        block_mean = float(f.mean())
        delta = block_mean - mean
        mean += delta * size / total
        m2 += float(np.square(f - block_mean).sum()) + delta * delta * start * size / total
    se = math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0
    return McEstimate(estimate=mean, std_error=se, n_samples=n, seed=seed)
