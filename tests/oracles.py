"""Test oracles: library code that only the tests call.

No command and no library module uses these.  They check the package from
outside it: the Fock cutoff ladder finds the first cutoff at which
``gaussian_to_fock`` passes its gates, so a test can compare that build's
entropy with the closed form, the Haar Monte Carlo estimate checks the
closed-form qubit fidelity, and a 60-digit ``Decimal`` evaluation checks the
closed-form critical variances.
"""

import math
from decimal import Decimal, localcontext

from srbosonic.errors import CutoffError, _count
from srbosonic.fock import MAX_CUTOFF, FockDensity, GaussianStateOneMode, gaussian_to_fock
from srbosonic.qubit import QuantumCommParams, pi_probs
from srbosonic.threshold import _MC_BLOCK, McEstimate

CUTOFF_GROWTH = 1.25


def suggest_cutoff(g: GaussianStateOneMode) -> int:
    """converged_fock_density's first cutoff: 20 + 10|mean|² + 20·λ_max(cov), rounded up.

    λ_max, the largest quadrature variance, equals ν for an unsqueezed cov
    and, unlike ν, grows with squeezing.  A start past the float range is a
    CutoffError.
    """
    (a, b), (_, d) = g.cov.tolist()
    lam_max = 0.5 * (a + d) + math.hypot(0.5 * (a - d), b)
    start = 20.0 + 10.0 * (g.mean[0] * g.mean[0] + g.mean[1] * g.mean[1]) + 20.0 * lam_max
    if not math.isfinite(start):
        raise CutoffError(f"starting cutoff {start!r} exceeds MAX_CUTOFF {MAX_CUTOFF}; nothing built")
    return int(math.ceil(start))


def converged_fock_density(g: GaussianStateOneMode) -> FockDensity:
    """gaussian_to_fock at the first cutoff that passes its gates.

    The cutoff starts at suggest_cutoff and grows 25% at a time up to
    MAX_CUTOFF; no cutoff passing is a CutoffError quoting the last gate
    failure.  A build u ρ_th u† has the spectrum of its renormalized core,
    q^k (1 − q)/(1 − ε) for k < K, so its entropy is g(ν) − h(ε)/(1 − ε)
    (chain rule), within 4.2e-11 bits of ``gaussian_entropy`` at ε ≤ 1e-12.
    """
    start = dim = suggest_cutoff(g)
    failure = f"starting cutoff {start} exceeds MAX_CUTOFF {MAX_CUTOFF}; nothing built"
    while dim <= MAX_CUTOFF:
        try:
            return gaussian_to_fock(g, dim)
        except CutoffError as exc:
            failure = f"no cutoff from {start} to {MAX_CUTOFF} passed; last: {exc}"
        dim = int(math.ceil(dim * CUTOFF_GROWTH))
    raise CutoffError(failure)


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

    n, seed = _count("n", n, 1), _count("seed", seed, 0)
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


def two_level_sigma2_oracle(theta: float, l0: float, l1: float, prior0: float, k: float) -> tuple:
    """(sigma*^2, its scale) of two levels sharing the noise floor k, at 60 digits.

    sigma*^2 = A / ln R - k with A = (l1 - l0)(2 theta - (l0 + l1)) and
    R = p0 (theta - l0) / (p1 (theta - l1)), from the exact values of the
    float inputs.  The scale |A / ln R| + k bounds what rounding the
    inputs of the final subtraction can cost, so an error is measured
    against it.  Both are Decimals.  R - 1 can lie far below 60 digits (at
    levels -+1e-300), so ln((theta - l0) / (theta - l1)) = ln(1 + x) takes
    its series x - x^2/2 + x^3/3 where |x| < 1e-25.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        t, l0, l1, p0, k = map(Decimal, (theta, l0, l1, prior0, k))
        x = (l1 - l0) / (t - l1)
        log1p = x - x * x / 2 + x**3 / 3 if abs(x) < Decimal("1e-25") else (1 + x).ln()
        a = (l1 - l0) * (2 * t - (l0 + l1)) / ((p0 / (1 - p0)).ln() + log1p)
        return a - k, abs(a) + k
