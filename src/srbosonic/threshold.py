"""Binary channels induced by Gaussian signals and threshold detection.

A one-bit message is encoded into two signal levels, corrupted by zero-mean
Gaussian noise, and decoded by comparing the measurement outcome against a
threshold.  This module turns such a description (two conditional means, two
total noise variances, a threshold, a prior) into the induced binary channel
and provides the derived figures of merit: success probability, mutual
information, and a seedable Monte Carlo estimate used as an independent
check of the analytic expressions.

All variances here are *total* variances of the measured outcome.  Scheme
composition (loss, squeezing, where the noise is injected) happens in
:mod:`srbosonic.schemes`; this module is deliberately agnostic about it.

``BinaryThresholdSpec`` checks its fields once, at construction.  The core
below it, ``_channel_probs``, maps plain floats to (p00, p11), checking only
that both variances are positive; it holds the one orientation rule, for
``build_channel`` and the schemes' per-point success functions alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, _finite, _prior, _store

__all__ = [
    "ORIENT_ABOVE",
    "ORIENT_BELOW",
    "BinaryThresholdSpec",
    "ThresholdChannel",
    "McEstimate",
    "gauss_tail",
    "build_channel",
    "success_probability",
    "mutual_information",
    "mc_success_probability",
]

# Decoding orientation: which side of the threshold maps to Y = 1.
ORIENT_ABOVE = "above"
ORIENT_BELOW = "below"
_ORIENTATIONS = (ORIENT_ABOVE, ORIENT_BELOW)

# Monte Carlo samples per block.  An estimate holds one block whatever n:
# the bits and the noise come from two Philox streams, the noise one placed
# past the n uniforms (see mc_success_probability).  2^14 timed as fast as
# 2^16 and keeps mc-check's peak RSS 3 MB lower.
_MC_BLOCK = 1 << 14


@dataclass(frozen=True)
class BinaryThresholdSpec:
    """Complete description of one threshold-decoded binary transmission.

    Parameters
    ----------
    mean0, mean1 : float
        Conditional means of the measured outcome given input bit 0 / 1.
    var0, var1 : float
        Total Gaussian noise variance of the outcome given bit 0 / 1.
        Must be non-negative; analytic channel evaluation additionally
        requires them to be strictly positive.
    theta : float
        Decoding threshold.
    prior0 : float
        Prior probability of input bit 0, in [0, 1].
    orientation : str
        ``"above"`` decodes Y=1 when the outcome is >= theta, ``"below"``
        decodes Y=1 when the outcome is <= theta.
    """

    mean0: float
    mean1: float
    var0: float
    var1: float
    theta: float
    prior0: float
    orientation: str = ORIENT_ABOVE

    def __post_init__(self) -> None:
        _store(self, _finite, "mean0", "mean1", "var0", "var1", "theta")
        if self.var0 < 0 or self.var1 < 0:
            raise DomainError("noise variances must be non-negative")
        _store(self, _prior, "prior0")
        if self.orientation not in _ORIENTATIONS:
            raise DomainError(
                f"orientation must be one of {_ORIENTATIONS}, got {self.orientation!r}"
            )


@dataclass(frozen=True)
class ThresholdChannel:
    """The induced binary channel: p00 = P(Y=0|X=0), p11 = P(Y=1|X=1)."""

    p00: float
    p11: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p00 <= 1.0 and 0.0 <= self.p11 <= 1.0):
            raise DomainError("channel probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its binomial standard error."""

    estimate: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise DomainError("n_samples must be >= 1")
        if self.std_error < 0:
            raise DomainError("std_error must be non-negative")


def gauss_tail(x: float, mean: float, var: float) -> float:
    """Upper tail probability P(G >= x) for G ~ Normal(mean, var).

    Equals (1 - erf((x - mean) / sqrt(2 var))) / 2; evaluated through
    erfc for full accuracy in the far tail.
    """
    if var <= 0:
        raise DomainError(f"var must be positive, got {var!r}")
    return 0.5 * math.erfc((x - mean) / math.sqrt(2.0 * var))


def _channel_probs(
    mean0: float, var0: float, mean1: float, var1: float, theta: float, orientation: str
) -> tuple:
    # Y = 1 at or above theta for "above", at or below it for "below"
    if var0 <= 0.0 or var1 <= 0.0:
        raise DomainError(
            "build_channel requires strictly positive variances; "
            "evaluate zero-noise limits explicitly in the calling scheme"
        )
    tail0 = gauss_tail(theta, mean0, var0)
    tail1 = gauss_tail(theta, mean1, var1)
    if orientation == ORIENT_ABOVE:
        return 1.0 - tail0, tail1
    return tail0, 1.0 - tail1


def build_channel(spec: BinaryThresholdSpec) -> ThresholdChannel:
    """Induced binary channel of a threshold-decoded Gaussian transmission.

    For orientation ``"above"`` (Y = 1 when the outcome lands at or above
    the threshold): p00 = P(mean0 + N0 < theta) and
    p11 = P(mean1 + N1 >= theta).  Orientation ``"below"`` reverses both
    inequalities.  The boundary outcome has probability zero, so strict
    versus non-strict comparison does not matter analytically.
    """
    return ThresholdChannel(*_channel_probs(
        spec.mean0, spec.var0, spec.mean1, spec.var1, spec.theta, spec.orientation
    ))


def _success(prior0: float, p00: float, p11: float) -> float:
    return prior0 * p00 + (1.0 - prior0) * p11


def success_probability(ch: ThresholdChannel, prior0: float) -> float:
    """Probability of correct decoding: prior0*p00 + (1-prior0)*p11."""
    return _success(_prior("prior0", prior0), ch.p00, ch.p11)


def _plogp(p: float) -> float:
    # Shannon term with the 0 log 0 = 0 convention.
    if p <= 0.0:
        return 0.0
    return -p * math.log2(p)


def _h2(p: float) -> float:
    return _plogp(p) + _plogp(1.0 - p)


def mutual_information(ch: ThresholdChannel, prior0: float) -> float:
    """Mutual information I(X:Y) of the binary channel, in bits.

    Standard discrete form I = H(Y) - H(Y|X) with the given input prior.
    """
    prior0 = _prior("prior0", prior0)
    py0 = prior0 * ch.p00 + (1.0 - prior0) * (1.0 - ch.p11)
    hy = _h2(py0)
    hy_given_x = prior0 * _h2(ch.p00) + (1.0 - prior0) * _h2(ch.p11)
    # Clamp float negatives of order eps; I(X:Y) >= 0 always holds.
    return max(0.0, hy - hy_given_x)


def mc_success_probability(spec: BinaryThresholdSpec, n: int, seed: int) -> McEstimate:
    """Monte Carlo estimate of the success probability.

    Draws the input bit from the prior, adds Gaussian noise with the
    conditional variance, thresholds per ``spec.orientation``, and returns
    the fraction of correctly decoded bits with its binomial standard
    error.  Uses a counter-based Philox generator so a fixed seed yields
    the same stream on every platform.

    The samples are those of one stream that draws n uniforms (the bits)
    and then n normals (the noise), but memory is one block of
    ``_MC_BLOCK`` samples whatever n.  The bits come block by block from
    ``Philox(seed)``; the noise comes from a second ``Philox(seed)`` placed
    where the single stream stands after n uniforms.  Philox yields four
    64-bit words per counter step and ``Generator.random`` takes one word
    per double, so the second stream advances n // 4 steps, which empties
    its buffer, then discards n % 4 words.
    """
    import numpy as np

    if n < 1:
        raise DomainError(f"n must be >= 1, got {n!r}")
    bit_rng = np.random.Generator(np.random.Philox(seed))
    noise_stream = np.random.Philox(seed)
    noise_stream.advance(n // 4)
    noise_stream.random_raw(n % 4)
    noise_rng = np.random.Generator(noise_stream)
    correct = 0
    for start in range(0, n, _MC_BLOCK):
        size = min(_MC_BLOCK, n - start)
        sent_one = bit_rng.random(size) >= spec.prior0
        noise = noise_rng.standard_normal(size)
        outcome = np.where(
            sent_one,
            spec.mean1 + math.sqrt(spec.var1) * noise,
            spec.mean0 + math.sqrt(spec.var0) * noise,
        )
        if spec.orientation == ORIENT_ABOVE:
            decoded_one = outcome >= spec.theta
        else:
            decoded_one = outcome <= spec.theta
        correct += int(np.count_nonzero(decoded_one == sent_one))
    est = correct / n
    se = math.sqrt(est * (1.0 - est) / n)
    return McEstimate(estimate=est, std_error=se, n_samples=n, seed=seed)
