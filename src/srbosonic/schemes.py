"""Stochastic-resonance analysis of threshold decoding over a lossy bosonic line.

Three communication schemes share one physical pipeline: a displaced squeezed
vacuum mode crosses a beamsplitter of transmissivity eta, picks up additive
Gaussian displacement noise of variance sigma^2 (injected either before or
after the loss), and is read out by a quadrature measurement compared against
a threshold.  This module composes the resulting signal means and total
variances for

* direct classical signaling (one bit in one quadrature, levels -+sqrt(eta)*alpha_q),
* two-quadrature signaling with an entangled two-mode squeezed resource
  (independent bits in q and p, jointly squeezed noise), and
* channel discrimination (one amplitude, two candidate transmissivities).

On top of the success-probability curves it provides the stochastic-resonance
machinery: the critical noise variance where d P_s / d sigma^2 = 0, and the
interval (or rectangle) of thresholds for which added noise can never help.
Adding noise improves decoding exactly when the threshold lies outside that
region.

Solver notes.  Every interval boundary is a zero of one stationary
condition: the sign of d P_s / d sigma^2 at sigma^2 = 0+.  For signal
levels a0 > a1 with priors p0, p1, total variances v0, v1 at sigma^2 and
noise weights c_x (_noise_weight: eta_x for sender-site noise, 1 at the
receiver), that sign is the sign of ln(p0 c0 |theta - a0|) - (theta -
a0)^2 / (2 v0) - 1.5 ln v0 - [the same terms for hypothesis 1], taken as
is above a0, negated below a1, and -inf between the levels (the curve
always falls there).  Beyond either level, with d = e^u the distance to
that near level, gap the distance on to the far one, lw = ln(p_n c_n /
(p_f c_f)) and dv = v_n - v_f, one function writes it as

    g(u) = c0 - log1p(gap / d) + c1 d + c2 d^2,    c1 = gap / v_f > 0,
    c0 = lw + gap^2 / (2 v_f) - 1.5 log1p(dv / v_f),  c2 = dv / (2 v_n v_f),

so the large (theta - a_x)^2 / (2 v_x) never cancel, and log1p(gap / d),
a softplus of ln gap - u, evaluates even where d underflows.

One solver, _boundary_root, finds every side of every interval as a root
of g in u, within the fixed bounds [-1e300, ln of the largest float].
Where dv >= 0, every term of g rises with d, so a doubling walk from u =
ln 1e-6 brackets its single zero, which bisection closes to 1e-14 in u.
That is every side but the upper one of squeezed discrimination, where
v0 < v1.  There dv < 0, and g is strictly concave in d and tends to -inf
at both ends, so dg/du = gap / (d + gap) + d (c1 + 2 c2 d) changes sign
exactly once, at the peak of g, and the same walk finds it.  A peak at
or below 0 means that no threshold beyond a0 is helped at sigma^2 = 0+,
and raises SolverError naming the peak; otherwise the walk goes down
from the peak to the first zero.  Discrimination takes gap = alpha (eta0
- eta1) / (sqrt(eta0) + sqrt(eta1)), free of the cancellation in a0 -
a1, and _line_variance's variances (1 + eta_x expm1(-2r) + c_x sigma^2)
/ 2, exactly 1/2 at r = sigma^2 = 0, with dv formed apart; no log prior
ratio rounds p0 through 1 - p0.  A weak signal's far root, near |theta|
~ 1 / alpha_q, solves down to alpha_q ~ 5e-309; a strong signal's root
near u = -gap^2 / K (v = K / 2) rounds to the level itself.  Each
residual field is the theta width of u's final bracket, |theta(u + w) -
theta(u - w)| with w = max(0.5e-14, ulp(u)): about 2e-14 |theta - level|
plus the rounding of theta, and 0 where both ends of the bracket round
to theta.

With one noise floor K = 2 _line_variance(eta, r, 0, 0) and one weight
c, the critical variance has the closed form sigma*^2 = ((a1 - a0) (2
theta - (a0 + a1)) / ln R - K) / c, R = p0 (theta - a0) / (p1 (theta -
a1)).  Discrimination with r > 0 or c0 != c1 (the sender site) has none:
its critical variance is -1.0 wherever g(theta, 0) <= 0, and otherwise
the zero of g(theta, sigma^2) in sigma^2, bisected to float resolution;
where g stays positive up to the search bound and its sigma^2 -> inf
limit ln(p0 / p1) - ln(c0 / c1) / 2 + ln(|theta - a0| / |theta - a1|)
(negated below a1) is positive, P_s keeps rising and has no finite
optimum.  One bracket-and-bisect helper, rootfind._bracket_and_bisect,
finds every root.
"""

from __future__ import annotations

import math
import sys
from dataclasses import KW_ONLY, dataclass
from functools import partial
from typing import Callable, Sequence

from .errors import (
    DomainError,
    NoCriticalPointError,
    SolverError,
    _finite,
    _nonnegative,
    _prior,
    _sigma_grid,
    _store,
)
from .rootfind import _bracket_and_bisect
from .threshold import (
    ORIENT_ABOVE,
    ORIENT_BELOW,
    BinaryThresholdSpec,
    ThresholdChannel,
    _channel_probs,
    _success,
)

__all__ = [
    "SITE_SENDER",
    "SITE_RECEIVER",
    "ClassicalScenario",
    "EAScenario",
    "DiscriminationScenario",
    "ForbiddenInterval",
    "ForbiddenRectangle",
    "SweepSeries",
    "classical_total_variance",
    "classical_channel",
    "success_classical",
    "critical_sigma2_classical",
    "forbidden_interval_classical",
    "ea_total_variance",
    "success_ea",
    "forbidden_rectangle",
    "success_discrimination",
    "critical_sigma2_discrimination",
    "forbidden_interval_discrimination",
    "sweep_success",
]

# Where the displacement noise enters relative to the lossy beamsplitter.
SITE_SENDER = "sender"
SITE_RECEIVER = "receiver"
_SITES = (SITE_SENDER, SITE_RECEIVER)

# Theta width of a boundary's final bracket (its residual field) when the
# levels lie at least 0.01 apart: measured worst 1.7e-11 on 4000 random
# scenarios per scheme, priors down to 1e-9; not checked.  It grows with |theta|.
ROOT_RESIDUAL_TOL = 1e-10
# Non-monotonicity margin for sweeps: the curve must beat its sigma-start
# value by more than this to count as a resonance.
SWEEP_MARGIN = 1e-12


def _check_site(site: str) -> None:
    if site not in _SITES:
        raise DomainError(f"noise_site must be one of {_SITES}, got {site!r}")


def _check_eta(s) -> None:
    _store(s, _finite, "eta")
    if not 0.0 < s.eta <= 1.0:
        raise DomainError(f"eta must lie in (0, 1], got {s.eta!r}")


@dataclass(frozen=True)
class ClassicalScenario:
    """Direct one-quadrature signaling scheme.

    eta is the line transmissivity, alpha_q the displacement amplitude of
    the encoded levels, r the squeezing of the transmitted mode, prior0 the
    probability of bit 0, and noise_site fixes whether the added Gaussian
    displacement noise acts before (sender) or after (receiver) the loss.

    eta = 1 is allowed (lossless line); alpha_q = 0 is allowed for curve
    evaluation but carries no signal, so the critical-noise solvers reject
    it.
    """

    eta: float
    alpha_q: float
    r: float = 0.0
    prior0: float = 0.5
    noise_site: str = SITE_RECEIVER

    def __post_init__(self) -> None:
        _check_eta(self)
        _store(self, _nonnegative, "alpha_q", "r")
        _store(self, _prior, "prior0")
        _check_site(self.noise_site)


@dataclass(frozen=True)
class EAScenario:
    """Two-quadrature signaling backed by a two-mode squeezed resource.

    One bit rides in each quadrature with its own amplitude, prior, and
    threshold.  The shared resource squeezing r suppresses the noise floor
    of both quadratures at once, with the loss-side vacuum contributing the
    (1 + eta) weighting handled in ea_total_variance.  Every field after r
    is keyword-only; priors default to 1/2 and thresholds to 0.
    """

    eta: float
    r: float = 0.0
    _: KW_ONLY
    prior_q: float = 0.5
    prior_p: float = 0.5
    alpha_q: float
    alpha_p: float
    theta_q: float = 0.0
    theta_p: float = 0.0
    noise_site: str = SITE_RECEIVER

    def __post_init__(self) -> None:
        _check_eta(self)
        _store(self, _nonnegative, "r", "alpha_q", "alpha_p")
        _store(self, _prior, "prior_q", "prior_p")
        _store(self, _finite, "theta_q", "theta_p")
        _check_site(self.noise_site)


@dataclass(frozen=True)
class DiscriminationScenario:
    """Binary discrimination between two line transmissivities.

    The sender always displaces by +alpha_q; hypothesis x in {0, 1} routes
    the mode through transmissivity eta0 or eta1, with the convention
    eta0 > eta1.  Decoding declares hypothesis 1 when the measured
    quadrature falls at or below the threshold.
    """

    eta0: float
    eta1: float
    alpha_q: float
    r: float = 0.0
    prior0: float = 0.5
    noise_site: str = SITE_RECEIVER

    def __post_init__(self) -> None:
        _store(self, _finite, "eta0", "eta1")
        for name, eta in (("eta0", self.eta0), ("eta1", self.eta1)):
            if not 0.0 < eta < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {eta!r}")
        if not self.eta0 > self.eta1:
            raise DomainError(
                f"eta0 must exceed eta1, got eta0={self.eta0!r}, eta1={self.eta1!r}"
            )
        _store(self, _nonnegative, "alpha_q", "r")
        _store(self, _prior, "prior0")
        _check_site(self.noise_site)


@dataclass(frozen=True)
class ForbiddenInterval:
    """Threshold interval on which added noise cannot improve decoding.

    lo and hi are the two boundary thresholds; residual_lo / residual_hi
    are the theta widths of the final brackets of their roots in u =
    ln|theta - level| (see the module's solver notes), 0 where both ends
    of a bracket round to the returned threshold.
    """

    lo: float
    hi: float
    residual_lo: float
    residual_hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if self.residual_lo < 0.0 or self.residual_hi < 0.0:
            raise DomainError("residuals must be non-negative")

    def contains(self, theta: float) -> bool:
        return self.lo <= theta <= self.hi


@dataclass(frozen=True)
class ForbiddenRectangle:
    """Per-quadrature forbidden intervals for the two-quadrature scheme.

    Noise helps the joint success probability exactly when at least one
    quadrature's threshold falls outside its interval.
    """

    q_interval: ForbiddenInterval
    p_interval: ForbiddenInterval

    def contains(self, theta_q: float, theta_p: float) -> bool:
        return self.q_interval.contains(theta_q) and self.p_interval.contains(theta_p)


@dataclass(frozen=True)
class SweepSeries:
    """A success-probability curve over a noise grid, with its resonance flag.

    nonmonotonic is True when the curve's maximum beats its value at the
    first grid point by more than SWEEP_MARGIN, i.e. some added noise level
    on the grid outperforms the grid start.
    """

    sigmas: tuple
    values: tuple
    nonmonotonic: bool


# ---------------------------------------------------------------------------
# Variance composition


def _noise_weight(site: str, eta: float) -> float:
    # the receiver's share of the added variance: eta before the loss, 1 after it
    return eta if site == SITE_SENDER else 1.0


def _line_variance(eta: float, r: float, weight: float, sigma2: float) -> float:
    # q variance at a line port that passes eta of the squeezed signal and
    # weight of the added variance, the rest vacuum: exactly 1/2 at r = sigma2 = 0
    return 0.5 * (1.0 + eta * math.expm1(-2.0 * r) + weight * sigma2)


def _noise_floor_ea(eta: float, r: float) -> float:
    # The resource mode squeezes signal and idler jointly, so the squeezed
    # weight is (1 + eta) instead of eta.
    return (1.0 - eta) + (1.0 + eta) * math.exp(-2.0 * r)


def classical_total_variance(s: ClassicalScenario, sigma2: float) -> float:
    """Total variance of the measured quadrature in the classical scheme.

    Returns (1 + eta expm1(-2r) + c sigma^2)/2 with c the receiver's share
    of the added variance: eta for sender-side noise, which the line
    attenuates, and 1 for receiver-side noise, which enters unattenuated.
    """
    weight = _noise_weight(s.noise_site, s.eta)
    return _line_variance(s.eta, s.r, weight, _nonnegative("sigma2", sigma2))


def ea_total_variance(s: EAScenario, sigma2: float) -> float:
    """Per-quadrature total variance in the two-quadrature scheme."""
    weight = _noise_weight(s.noise_site, s.eta)
    return 0.5 * (_noise_floor_ea(s.eta, s.r) + weight * _nonnegative("sigma2", sigma2))


# ---------------------------------------------------------------------------
# Success probabilities: each checks only its own theta and sigma2, then
# runs on plain floats through threshold._channel_probs.


def _symmetric_probs(m: float, variance: float, theta: float) -> tuple:
    # Levels -+m with one shared variance; bit 1 is declared at or above theta.
    return _channel_probs(-m, variance, +m, variance, theta, ORIENT_ABOVE)


def _classical_point(s: ClassicalScenario, theta: float, sigma2: float) -> tuple:
    # (m, variance, theta) of one checked point of the classical curve
    theta = _finite("theta", theta)
    return math.sqrt(s.eta) * s.alpha_q, classical_total_variance(s, sigma2), theta


def _classical_spec(s: ClassicalScenario, theta: float, sigma2: float) -> BinaryThresholdSpec:
    # the same channel as a spec, for the Monte Carlo check
    m, variance, theta = _classical_point(s, theta, sigma2)
    return BinaryThresholdSpec(-m, +m, variance, variance, theta, s.prior0, ORIENT_ABOVE)


def classical_channel(s: ClassicalScenario, theta: float, sigma2: float) -> ThresholdChannel:
    """Induced binary channel of the classical scheme at one noise level."""
    return ThresholdChannel(*_symmetric_probs(*_classical_point(s, theta, sigma2)))


def success_classical(s: ClassicalScenario, theta: float, sigma2: float) -> float:
    """Success probability of the classical scheme."""
    return _success(s.prior0, *_symmetric_probs(*_classical_point(s, theta, sigma2)))


def success_ea(s: EAScenario, sigma2_q: float, sigma2_p: float) -> float:
    """Joint success probability of the two-quadrature scheme.

    The two bits are decoded independently, so the joint probability is the
    product of the per-quadrature success probabilities, each evaluated with
    its own threshold, prior, amplitude, and noise variance.
    """
    root_eta = math.sqrt(s.eta)
    ps_q = _success(s.prior_q, *_symmetric_probs(
        root_eta * s.alpha_q, ea_total_variance(s, sigma2_q), s.theta_q
    ))
    ps_p = _success(s.prior_p, *_symmetric_probs(
        root_eta * s.alpha_p, ea_total_variance(s, sigma2_p), s.theta_p
    ))
    return ps_q * ps_p


def _discrimination_levels(s: DiscriminationScenario) -> tuple:
    return math.sqrt(s.eta0) * s.alpha_q, math.sqrt(s.eta1) * s.alpha_q


def _discrimination_gap(s: DiscriminationScenario) -> float:
    # a0 - a1 without the cancellation of the difference of square roots
    return s.alpha_q * (s.eta0 - s.eta1) / (math.sqrt(s.eta0) + math.sqrt(s.eta1))


def _discrimination_weights(s: DiscriminationScenario) -> tuple:
    # (c0, c1): each hypothesis's share of the added variance
    return _noise_weight(s.noise_site, s.eta0), _noise_weight(s.noise_site, s.eta1)


def _discrimination_variances(s: DiscriminationScenario, sigma2: float) -> tuple:
    c0, c1 = _discrimination_weights(s)
    return _line_variance(s.eta0, s.r, c0, sigma2), _line_variance(s.eta1, s.r, c1, sigma2)


def success_discrimination(
    s: DiscriminationScenario, theta: float, sigma2: float
) -> float:
    """Success probability of threshold-decoded transmissivity discrimination.

    Conditional means are sqrt(eta_x) alpha_q and the conditional variances
    carry each hypothesis's own loss and its own share c_x of the added
    noise (_noise_weight).  Hypothesis 1 is declared when the outcome falls
    at or below the threshold.

    Sender-site noise thus reaches the detector as eta0 sigma^2 or eta1
    sigma^2, so unlike the classical and EA schemes no sigma^2 map joins
    the two sites, and their forbidden intervals differ: at eta0 0.9, eta1
    0.4, alpha_q 1.5 and r = 0, [0.465, 1.906] at the receiver and
    [-0.071, 1.621] at the sender.
    """
    theta = _finite("theta", theta)
    a0, a1 = _discrimination_levels(s)
    v0, v1 = _discrimination_variances(s, _nonnegative("sigma2", sigma2))
    return _success(s.prior0, *_channel_probs(a0, v0, a1, v1, theta, ORIENT_BELOW))


# ---------------------------------------------------------------------------
# Critical noise variances (closed forms)


def _check_solvable(prior0: float, amplitude: float, what: str) -> None:
    if prior0 in (0.0, 1.0):
        raise NoCriticalPointError(
            "degenerate prior: success probability has no interior optimum in sigma^2"
        )
    if amplitude == 0.0:
        raise NoCriticalPointError(f"zero signal amplitude: no {what}")


def _log_odds(p: float) -> float:
    # ln(p / (1 - p)) to a few ulps: near p = 1/2, where ln p - log1p(-p)
    # cancels, 2p - 1 is exact
    if 0.25 <= p <= 0.75:
        return math.log1p((2.0 * p - 1.0) / (1.0 - p))
    return math.log(p) - math.log1p(-p)


def _two_level_sigma2(
    theta: float, l0: float, l1: float, spread: float, prior0: float, k: float
) -> float:
    # sigma*^2 = (l1 - l0) (2 theta - (l0 + l1)) / ln R - k, with R = p0 (theta
    # - l0) / (p1 (theta - l1)), for levels l0 (prior p0) and l1 that share the
    # noise floor k.  spread = l1 - l0 is passed in, so that discrimination
    # can use its cancellation-free form.
    num, den = prior0 * (theta - l0), (1.0 - prior0) * (theta - l1)
    if den == 0.0 or num == 0.0:
        raise NoCriticalPointError("threshold at a signal level")
    ratio = num / den
    if ratio <= 0.0:
        raise NoCriticalPointError(
            "threshold between the signal levels: no stationary point"
        )
    log_ratio = math.log(ratio)
    if log_ratio == 0.0:
        raise NoCriticalPointError("degenerate threshold: log ratio vanishes")
    return spread * (2.0 * theta - (l0 + l1)) / log_ratio - k


def critical_sigma2_classical(s: ClassicalScenario, theta: float) -> float:
    """Noise variance at which d P_s / d sigma^2 = 0 for the classical scheme.

    Returns sigma*^2 = 4 m theta / ln R - K (receiver-site value; sender-site
    noise reaches the detector attenuated by eta, so the critical injected
    variance is that value divided by eta).  A negative return means the
    stationary point lies at negative variance, i.e. P_s is monotone in the
    physical range.  Thresholds at or between the signal levels admit no
    stationary point at all and raise NoCriticalPointError.
    """
    theta = _finite("theta", theta)
    m = math.sqrt(s.eta) * s.alpha_q
    _check_solvable(s.prior0, m, "critical noise level")
    k = 2.0 * _line_variance(s.eta, s.r, 0.0, 0.0)
    value = _two_level_sigma2(theta, -m, m, 2.0 * m, s.prior0, k)
    return value / _noise_weight(s.noise_site, s.eta)


def critical_sigma2_discrimination(s: DiscriminationScenario, theta: float) -> float:
    """Critical noise variance for the discrimination scheme.

    Receiver-site noise with r = 0 admits the closed form
    -1 + B / ln R with B = alpha^2 (eta0 - eta1) - 2 alpha theta (sqrt(eta0)
    - sqrt(eta1)); as in the classical case a negative value flags
    monotonicity.  Any squeezing, or sender-site noise (which scales
    differently under the two hypotheses), has no algebraic stationary
    condition; those paths return -1.0 when the exact slope sign says the
    curve does not rise at 0+, and otherwise bisect sigma*^2 on that sign
    to float resolution, searching up to sigma^2 = 1e6.

    Raises NoCriticalPointError for a degenerate prior or zero amplitude;
    on the closed-form path for a threshold on a level, between the levels,
    or where ln R vanishes; and on the bisected paths when the slope sign
    stays positive up to 1e6 and its sigma^2 -> inf limit is positive, so
    that P_s keeps rising and has no finite optimum.  A sign that stays
    positive up to 1e6 with a non-positive limit raises SolverError.
    """
    theta = _finite("theta", theta)
    _check_solvable(s.prior0, s.alpha_q, "critical noise level")
    c0, c1 = _discrimination_weights(s)
    if s.r == 0.0 and c0 == c1:  # one shared noise floor
        a0, a1 = _discrimination_levels(s)
        return _two_level_sigma2(theta, a0, a1, -_discrimination_gap(s), s.prior0, 1.0)
    g0 = _onset_sign(s, theta)
    if g0 <= 0.0:
        return -1.0
    slope = partial(_onset_sign, s, theta)
    try:
        return _bracket_and_bisect(slope, 0.0, g0, 1e6, 1e-3, xtol=0.0, maxit=200)
    except SolverError:
        limit = _onset_sign_limit(s, theta)
        if limit <= 0.0:
            raise
        raise NoCriticalPointError(
            f"no finite optimum: P_s still rises at sigma^2 = 1e6 and its slope "
            f"sign tends to {limit!r} > 0 as sigma^2 -> inf"
        ) from None


def _slope_sign(
    gap: float, lw: float, v_n: float, v_f: float, dv: float
) -> Callable[[float], float]:
    """g(u) of the module's solver notes, positive where d P_s / d sigma^2 > 0.

    Its constants are folded once per boundary, and the d terms are written
    d (c1 + c2 d), so dv = 0 never forms inf * 0 at the search bound.
    """
    lg = math.log(gap)
    c0 = lw + gap * gap / (2.0 * v_f) - 1.5 * math.log1p(dv / v_f)
    c1 = gap / v_f
    c2 = dv / (2.0 * v_n * v_f)

    def g(u: float) -> float:
        x = lg - u
        softplus = x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))
        d = math.exp(u)
        return c0 - softplus + d * (c1 + c2 * d)

    return g


def _discrimination_side(s: DiscriminationScenario, above: bool, sigma2: float) -> tuple:
    """(near level, lw, v_n, v_f, dv) of g beyond a0 (above) or below a1 at sigma2.

    The variances are success_discrimination's; their difference dv is
    formed apart, free of the cancellation in v0 - v1.
    """
    c0, c1 = _discrimination_weights(s)
    v0, v1 = _discrimination_variances(s, sigma2)
    # hypothesis 0 against 1: ln(p0 c0 / (p1 c1)) and v0 - v1
    lw = _log_odds(s.prior0) + math.log(c0 / c1)
    dv = 0.5 * ((s.eta0 - s.eta1) * math.expm1(-2.0 * s.r) + (c0 - c1) * sigma2)
    a0, a1 = _discrimination_levels(s)
    return (a0, lw, v0, v1, dv) if above else (a1, -lw, v1, v0, -dv)


def _onset_sign(s: DiscriminationScenario, theta: float, sigma2: float = 0.0) -> float:
    """g(theta, sigma^2) at u = ln|theta - near level|.

    Its zero in theta at sigma2 = 0 is an interval boundary; its zero in
    sigma2 at fixed theta is sigma*^2.
    """
    a0, a1 = _discrimination_levels(s)
    if a1 <= theta <= a0:
        return -math.inf  # the curve always falls between the levels
    near, *side = _discrimination_side(s, theta > a0, sigma2)
    return _slope_sign(_discrimination_gap(s), *side)(math.log(abs(theta - near)))


def _onset_sign_limit(s: DiscriminationScenario, theta: float) -> float:
    """Limit of _onset_sign(s, theta, sigma2) as sigma2 -> inf, theta off [a1, a0].

    The variances grow as c_x sigma^2 / 2, so the quadratic terms vanish
    and -1.5 ln(v0 / v1) tends to -1.5 ln(c0 / c1), which with the
    ln(c0 / c1) of the weights leaves -ln(c0 / c1) / 2.
    """
    a0, a1 = _discrimination_levels(s)
    c0, c1 = _discrimination_weights(s)
    half_log_c = 0.5 * math.log(c0 / c1)
    limit = _log_odds(s.prior0) - half_log_c + math.log(abs(theta - a0) / abs(theta - a1))
    return limit if theta > a0 else -limit


# ---------------------------------------------------------------------------
# Forbidden-interval solvers

# start and bounds of the log offset u = ln|theta - level|
_U_START, _U_FLOOR, _U_CEIL = math.log(1e-6), -1e300, math.log(sys.float_info.max)


def _rising_root(f: Callable[[float], float], u: float = _U_START) -> float:
    # the zero of f, which rises in u, by a doubling walk from u, bisected to 1e-14
    f0 = f(u)
    if f0 == 0.0:
        return u
    bound = _U_CEIL if f0 < 0.0 else _U_FLOOR
    return _bracket_and_bisect(f, u, f0, bound, math.log(2.0), xtol=1e-14, maxit=300)


def _boundary_root(
    near: float, gap: float, side: int, lw: float, v_n: float, v_f: float, dv: float
) -> tuple:
    """(theta, theta width of the final bracket) of the boundary theta = near + side e^u.

    g of the module's solver notes rises in u, up to a peak that only dv < 0
    brings into range; the boundary is its first zero.  A root below float
    resolution returns near itself.
    """
    g = _slope_sign(gap, lw, v_n, v_f, dv)
    u = _U_START
    if dv < 0.0:
        c1, c2 = gap / v_f, dv / (v_n * v_f)

        def fall(x: float) -> float:  # -dg/du, rising in u through the peak of g
            d = math.exp(x)
            return -gap / (d + gap) - d * (c1 + c2 * d)

        u = _rising_root(fall) if fall(_U_CEIL) > 0.0 else _U_CEIL  # else g rises to the bound
        peak = g(u)
        if peak <= 0.0:
            raise SolverError(
                f"no threshold beyond signal level {near!r} is helped by noise at sigma^2 = 0+: "
                f"the slope sign peaks at {peak!r} <= 0, at theta = {near + side * math.exp(u)!r}"
            )
    u = _rising_root(g, u)
    w = max(0.5e-14, math.ulp(u))
    inner, outer = (near + side * math.exp(x) for x in (u - w, min(u + w, _U_CEIL)))
    return near + side * math.exp(u), abs(outer - inner)


def _interval(gap: float, upper: tuple, lower: tuple) -> ForbiddenInterval:
    # upper and lower are the (near level, lw, v_n, v_f, dv) of the sides
    # beyond the upper and the lower level, which lie gap apart
    theta_hi, res_hi = _boundary_root(upper[0], gap, +1, *upper[1:])
    theta_lo, res_lo = _boundary_root(lower[0], gap, -1, *lower[1:])
    return ForbiddenInterval(lo=theta_lo, hi=theta_hi, residual_lo=res_lo, residual_hi=res_hi)


def _symmetric_interval(m: float, k: float, prior0: float) -> ForbiddenInterval:
    # Levels -m (prior0) and +m, each of variance k / 2.
    _check_solvable(prior0, m, "forbidden interval")
    v, lw = 0.5 * k, _log_odds(prior0)
    return _interval(2.0 * m, (m, -lw, v, v, 0.0), (-m, lw, v, v, 0.0))


def forbidden_interval_classical(s: ClassicalScenario) -> ForbiddenInterval:
    """Threshold interval of guaranteed monotone noise response (classical).

    Boundaries are the zeros of d P_s / d sigma^2 at sigma^2 = 0+, the roots
    of sigma*^2(theta) = 0; the residual fields report the theta width of
    each root's final bracket, within ROOT_RESIDUAL_TOL for signal levels
    sqrt(eta) alpha_q >= 0.005 (see the module's solver notes).  They
    bracket the signal levels: lo <= -sqrt(eta) alpha_q < sqrt(eta) alpha_q
    <= hi.  The interval does not depend on the noise-injection site since
    sender and receiver curves differ only by the reparametrization
    sigma^2 -> eta sigma^2.
    """
    m = math.sqrt(s.eta) * s.alpha_q
    k = 2.0 * _line_variance(s.eta, s.r, 0.0, 0.0)
    return _symmetric_interval(m, k, s.prior0)


def forbidden_rectangle(s: EAScenario) -> ForbiddenRectangle:
    """Per-quadrature forbidden intervals for the two-quadrature scheme.

    Each quadrature solves the same boundary equation as the classical
    scheme with the entangled noise floor 1 - eta + (1 + eta) e^{-2r} in
    place of the classical one.  The joint success probability responds
    non-monotonically to (sigma_q, sigma_p) noise exactly when at least one
    threshold is outside its interval.
    """
    root_eta = math.sqrt(s.eta)
    k = _noise_floor_ea(s.eta, s.r)
    q_int = _symmetric_interval(root_eta * s.alpha_q, k, s.prior_q)
    p_int = _symmetric_interval(root_eta * s.alpha_p, k, s.prior_p)
    return ForbiddenRectangle(q_interval=q_int, p_interval=p_int)


def forbidden_interval_discrimination(s: DiscriminationScenario) -> ForbiddenInterval:
    """Threshold interval of monotone noise response for discrimination.

    Boundaries obey lo <= sqrt(eta1) alpha_q < sqrt(eta0) alpha_q <= hi.
    Each is a zero of the exact sign of d P_s / d sigma^2 at sigma^2 = 0+,
    at either site and any squeezing, and its residual field is the theta
    width of its final bracket (see the module's solver notes).  With
    squeezing, where v0 < v1 at sigma^2 = 0, the slope sign beyond a0 can
    stay negative at every threshold; that raises SolverError naming its
    peak.
    """
    _check_solvable(s.prior0, s.alpha_q, "forbidden interval")
    sides = (_discrimination_side(s, above, 0.0) for above in (True, False))
    return _interval(_discrimination_gap(s), *sides)


# ---------------------------------------------------------------------------
# Sweeps


def sweep_success(
    scenario: ClassicalScenario | EAScenario | DiscriminationScenario,
    theta: float | None,
    sigma_grid: Sequence[float],
) -> SweepSeries:
    """Success probability over a grid of noise standard deviations.

    Grid entries are sigma values (the curve's natural axis); each is
    squared before entering the variance composition.  For the
    two-quadrature scheme theta must be None (the scenario carries its own
    thresholds) and the same sigma drives both quadratures.  The
    nonmonotonic flag records whether any grid point beats the first one by
    more than SWEEP_MARGIN.
    """
    sigmas = _sigma_grid(sigma_grid)

    if isinstance(scenario, EAScenario):
        if theta is not None:
            raise DomainError(
                "the two-quadrature scheme reads thresholds from the scenario; "
                "pass theta=None"
            )
        values = [success_ea(scenario, x * x, x * x) for x in sigmas]
    elif isinstance(scenario, ClassicalScenario):
        if theta is None:
            raise DomainError("theta is required for the classical scheme")
        values = [success_classical(scenario, theta, x * x) for x in sigmas]
    elif isinstance(scenario, DiscriminationScenario):
        if theta is None:
            raise DomainError("theta is required for the discrimination scheme")
        values = [success_discrimination(scenario, theta, x * x) for x in sigmas]
    else:
        raise DomainError(f"unsupported scenario type: {type(scenario).__name__}")

    flag = (max(values) - values[0]) > SWEEP_MARGIN
    return SweepSeries(sigmas=sigmas, values=tuple(values), nonmonotonic=flag)
