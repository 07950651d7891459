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
noise weights c_x (eta_x for sender-site noise, 1 at the receiver), that
sign is the sign of ln(p0 c0 |theta - a0|) - (theta - a0)^2 / (2 v0) -
1.5 ln v0 - [the same terms for hypothesis 1], taken as is above a0,
negated below a1, and -inf between the levels (the curve always falls
there).  Beyond either level, with d = e^u the distance to that near
level, gap the distance on to the far one, lw = ln(p_n c_n / (p_f c_f))
and dv = v_n - v_f, one function writes it as

    g(u) = lw - log1p(gap / d) + gap (2 d + gap) / (2 v_f)
           + d^2 dv / (2 v_n v_f) - 1.5 log1p(dv / v_f),

so the large (theta - a_x)^2 / (2 v_x) never cancel, and log1p(gap / d),
a softplus of ln gap - u, evaluates even where d underflows.  With one
shared noise floor K (v = K / 2: each quadrature of the symmetric
schemes, receiver-site discrimination at r = 0 with K = 1), dv = 0 and g
rises strictly in u from negative inside the interval; each boundary
bisects it in u within the fixed bounds [-1e9, ln 1e300].  Discrimination
takes gap = alpha (eta0 - eta1) / (sqrt(eta0) + sqrt(eta1)), free of the
cancellation in a0 - a1; no log prior ratio rounds p0 through 1 - p0.
The critical variance then has the closed form sigma*^2 = (a1 - a0)
(2 theta - (a0 + a1)) / ln R - K, R = p0 (theta - a0) / (p1 (theta -
a1)), which at theta = near +- t is K^2 g / (gap (gap + 2 t) - K g): the
residual fields report it.  Squeezed or sender-site discrimination has
no closed form: its interval bisects g(theta, 0) over theta, its critical
variance is -1.0 wherever g(theta, 0) <= 0, and otherwise the zero of
g(theta, sigma^2) in sigma^2, bisected to float resolution.  One
bracket-and-bisect helper finds every root.

The residual is limited by conditioning, not by the solver: u is bisected
to 1e-14, and the identity divides the rounding of g by gap (gap + 2 t).
On 4000 random scenarios per band (priors down to 1e-9) it stayed within
ROOT_RESIDUAL_TOL (worst 2.5e-11 symmetric, 4.8e-11 discrimination) for
levels at least 0.01 apart (2 sqrt(eta) alpha_q, or a0 - a1), reached
1e-7 and 1.6e-7 down to 2e-4, and 26 and 4.2e3 down to 1e-10, where
theta is still within 1e-14 of a 50-digit root.  No check enforces the
tolerance, since that would reject valid weak-signal inputs.  A strong
signal's root can sit below one float ulp of its level; theta is then
the correctly rounded level.  A zero denominator raises SolverError;
none occurred in 18 000 weak-signal intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, Union

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
from .rootfind import bisect
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

# Residual in sigma*^2 that closed-form boundaries keep when the signal levels
# lie at least 0.01 apart (measured worst 5e-11, not checked); weak signals
# exceed it with theta right to ~1e-14, as the identity is ill-conditioned.
ROOT_RESIDUAL_TOL = 1e-10
# Non-monotonicity margin for sweeps: the curve must beat its sigma-start
# value by more than this to count as a resonance.
SWEEP_MARGIN = 1e-12

_THETA_WIDTH_TOL = 1e-6  # theta bracket width for onset-sign bisection


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
    (1 + eta) weighting handled in ea_total_variance.
    """

    eta: float
    r: float
    prior_q: float
    prior_p: float
    alpha_q: float
    alpha_p: float
    theta_q: float
    theta_p: float
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
    report |sigma*^2| at the returned roots (closed-form solves) or the
    final theta bracket width (derivative-sign solves).
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


def _noise_floor_classical(eta: float, r: float) -> float:
    # Twice the noiseless output variance: loss vacuum + squeezed signal.
    return (1.0 - eta) + eta * math.exp(-2.0 * r)


def _noise_floor_ea(eta: float, r: float) -> float:
    # The resource mode squeezes signal and idler jointly, so the squeezed
    # weight is (1 + eta) instead of eta.
    return (1.0 - eta) + (1.0 + eta) * math.exp(-2.0 * r)


def _total_variance(floor: float, eta: float, site: str, sigma2: float) -> float:
    # sender-side noise is attenuated by the line, receiver-side is not
    return 0.5 * (floor + (eta * sigma2 if site == SITE_SENDER else sigma2))


def classical_total_variance(s: ClassicalScenario, sigma2: float) -> float:
    """Total variance of the measured quadrature in the classical scheme.

    Returns (1 - eta + eta e^{-2r} + sigma_eff^2)/2 where sender-side noise
    is attenuated by the line, sigma_eff^2 = eta sigma^2, and receiver-side
    noise enters unattenuated.
    """
    floor = _noise_floor_classical(s.eta, s.r)
    return _total_variance(floor, s.eta, s.noise_site, _nonnegative("sigma2", sigma2))


def ea_total_variance(s: EAScenario, sigma2: float) -> float:
    """Per-quadrature total variance in the two-quadrature scheme."""
    floor = _noise_floor_ea(s.eta, s.r)
    return _total_variance(floor, s.eta, s.noise_site, _nonnegative("sigma2", sigma2))


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


def _discrimination_variances(s: DiscriminationScenario, sigma2: float) -> tuple:
    return tuple(
        _total_variance(_noise_floor_classical(eta, s.r), eta, s.noise_site, sigma2)
        for eta in (s.eta0, s.eta1)
    )


def success_discrimination(
    s: DiscriminationScenario, theta: float, sigma2: float
) -> float:
    """Success probability of threshold-decoded transmissivity discrimination.

    Conditional means are sqrt(eta_x) alpha_q and the conditional variances
    carry each hypothesis's own loss (and, for sender-side injection, its
    own attenuation of the added noise).  Hypothesis 1 is declared when the
    outcome falls at or below the threshold.
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
    k = _noise_floor_classical(s.eta, s.r)
    value = _two_level_sigma2(theta, -m, m, 2.0 * m, s.prior0, k)
    if s.noise_site == SITE_SENDER:
        value /= s.eta
    return value


def critical_sigma2_discrimination(s: DiscriminationScenario, theta: float) -> float:
    """Critical noise variance for the discrimination scheme.

    Receiver-site noise with r = 0 admits the closed form
    -1 + B / ln R with B = alpha^2 (eta0 - eta1) - 2 alpha theta (sqrt(eta0)
    - sqrt(eta1)); as in the classical case a negative value flags
    monotonicity.  Any squeezing, or sender-site noise (which scales
    differently under the two hypotheses), has no algebraic stationary
    condition; those paths return -1.0 when the exact slope sign says the
    curve does not rise at 0+, and otherwise bisect sigma*^2 on that sign
    to float resolution.
    """
    theta = _finite("theta", theta)
    _check_solvable(s.prior0, s.alpha_q, "critical noise level")
    if s.r > 0.0 or s.noise_site == SITE_SENDER:
        g0 = _onset_sign(s, theta)
        if g0 <= 0.0:
            return -1.0
        slope = partial(_onset_sign, s, theta)
        return _bracket_and_bisect(slope, 0.0, g0, 1e6, 1e-3, xtol=0.0, maxit=200)
    a0, a1 = _discrimination_levels(s)
    return _two_level_sigma2(theta, a0, a1, -_discrimination_gap(s), s.prior0, 1.0)


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


def _onset_sign(s: DiscriminationScenario, theta: float, sigma2: float = 0.0) -> float:
    """g(theta, sigma^2) at u = ln|theta - near level|.

    Its zero in theta at sigma2 = 0 is an interval boundary; its zero in
    sigma2 at fixed theta is sigma*^2.
    """
    a0, a1 = _discrimination_levels(s)
    if a1 <= theta <= a0:
        return -math.inf  # the curve always falls between the levels
    sender = s.noise_site == SITE_SENDER
    v0, v1 = _discrimination_variances(s, sigma2)
    # hypothesis 0 against 1: ln(p0 c0 / (p1 c1)) and v0 - v1
    lw = _log_odds(s.prior0) + (math.log(s.eta0 / s.eta1) if sender else 0.0)
    dv = 0.5 * (s.eta0 - s.eta1) * (math.expm1(-2.0 * s.r) + (sigma2 if sender else 0.0))
    if theta > a0:  # a0 is the near level
        d, v_n, v_f = theta - a0, v0, v1
    else:
        d, v_n, v_f, lw, dv = a1 - theta, v1, v0, -lw, -dv
    return _slope_sign(_discrimination_gap(s), lw, v_n, v_f, dv)(math.log(d))


# ---------------------------------------------------------------------------
# Forbidden-interval solvers

# start and bounds of the log offset u = ln|theta - level|
_U_START, _U_FLOOR, _U_CEIL = math.log(1e-6), -1e9, math.log(1e300)


def _bracket_and_bisect(
    f: Callable[[float], float], x0: float, f0: float, bound: float, step: float,
    *, xtol: float, maxit: int,
) -> float:
    """Root of f between x0 and bound, where f(x0) = f0 is nonzero.

    Steps out from x0 toward bound, doubling the step each time, until f is
    zero or has changed sign.  The last step is clamped to bound, and
    SolverError is raised only if f keeps its sign there too.  The final
    step is then bisected.
    """
    direction = math.copysign(1.0, bound - x0)
    inner = x0
    while True:
        outer = inner + direction * step
        if direction * (outer - bound) > 0.0:
            outer = bound
        f_out = f(outer)
        if f_out == 0.0 or (f_out > 0.0) != (f0 > 0.0):
            break
        if outer == bound:
            raise SolverError(
                f"bracketing failed: no sign change between {x0!r} and the "
                f"search bound {bound!r}"
            )
        inner, step = outer, 2.0 * step
    lo, hi = sorted((inner, outer))
    return bisect(f, lo, hi, xtol=xtol, maxit=maxit)


def _boundary_root(near: float, gap: float, side: int, lw: float, k: float) -> tuple:
    """(theta, |sigma*^2| residual) of the boundary theta = near + side e^u.

    The levels lie gap apart and share the noise floor k; lw is ln(p_near /
    p_far).  A root below float resolution returns near itself.
    """
    g = _slope_sign(gap, lw, 0.5 * k, 0.5 * k, 0.0)
    u_root = _U_START
    f0 = g(u_root)
    if f0 != 0.0:
        bound = _U_CEIL if f0 < 0.0 else _U_FLOOR  # g < 0 inside the interval
        u_root = _bracket_and_bisect(g, u_root, f0, bound, math.log(2.0), xtol=1e-14, maxit=300)
    t = math.exp(u_root)
    g_val = g(u_root)
    den = gap * (gap + 2.0 * t) - k * g_val
    if den == 0.0:
        raise SolverError(
            f"sigma*^2 diverges at the forbidden-interval boundary next to signal "
            f"level {near!r}: its residual identity has a zero denominator"
        )
    return near + side * t, abs(k * k * g_val / den)


def _symmetric_interval(m: float, k: float, prior0: float) -> ForbiddenInterval:
    # Levels -m (prior0) and +m: the far level of the upper boundary is -m.
    _check_solvable(prior0, m, "forbidden interval")
    lw = _log_odds(prior0)
    hi, res_hi = _boundary_root(m, 2.0 * m, +1, -lw, k)
    lo, res_lo = _boundary_root(-m, 2.0 * m, -1, lw, k)
    return ForbiddenInterval(lo=lo, hi=hi, residual_lo=res_lo, residual_hi=res_hi)


def forbidden_interval_classical(s: ClassicalScenario) -> ForbiddenInterval:
    """Threshold interval of guaranteed monotone noise response (classical).

    Boundaries are roots of sigma*^2(theta) = 0; the residual fields report
    |sigma*^2| there, within ROOT_RESIDUAL_TOL (worst measured 2.5e-11) for
    signal levels sqrt(eta) alpha_q >= 0.005.  Weaker signals keep theta to
    ~1e-14, but their residual is ill-conditioned, up to O(10) (see the
    module's solver notes).  They bracket the signal levels: lo <=
    -sqrt(eta) alpha_q < sqrt(eta) alpha_q <= hi.  The interval does not
    depend on the noise-injection site since sender and receiver curves
    differ only by the reparametrization sigma^2 -> eta sigma^2.
    """
    m = math.sqrt(s.eta) * s.alpha_q
    k = _noise_floor_classical(s.eta, s.r)
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


def _interval_by_onset_sign(s: DiscriminationScenario) -> ForbiddenInterval:
    # No closed form: bisect the exact onset sign over theta on each side.
    a0, a1 = _discrimination_levels(s)
    cap = 1e6 * max(s.alpha_q, 1.0)
    onset = partial(_onset_sign, s)
    lo, hi = (
        _bracket_and_bisect(
            onset, level, onset(level), bound, 0.125, xtol=_THETA_WIDTH_TOL, maxit=200
        )
        for level, bound in ((a1, -cap), (a0, cap))
    )
    return ForbiddenInterval(lo, hi, _THETA_WIDTH_TOL, _THETA_WIDTH_TOL)


def forbidden_interval_discrimination(s: DiscriminationScenario) -> ForbiddenInterval:
    """Threshold interval of monotone noise response for discrimination.

    Boundaries obey lo <= sqrt(eta1) alpha_q < sqrt(eta0) alpha_q <= hi.
    Receiver-site noise with r = 0 solves the stationary-condition roots and
    reports |sigma*^2| there, within ROOT_RESIDUAL_TOL (worst measured
    4.8e-11) when the levels lie at least 0.01 apart; closer levels keep
    theta to ~1e-14 with an ill-conditioned residual, up to O(1e3) (see the
    module's solver notes).  Squeezed or sender-site scenarios bisect the
    exact sign of d P_s / d sigma^2 at sigma^2 = 0+ over theta to width
    1e-6 (reported in the residual fields).
    """
    _check_solvable(s.prior0, s.alpha_q, "forbidden interval")
    if s.r > 0.0 or s.noise_site == SITE_SENDER:
        return _interval_by_onset_sign(s)
    # Levels a0 (prior0) > a1 on the noise floor 1: the far level of the
    # upper boundary is a1.
    a0, a1 = _discrimination_levels(s)
    gap = _discrimination_gap(s)
    lw = _log_odds(s.prior0)
    hi, res_hi = _boundary_root(a0, gap, +1, lw, 1.0)
    lo, res_lo = _boundary_root(a1, gap, -1, -lw, 1.0)
    return ForbiddenInterval(lo=lo, hi=hi, residual_lo=res_lo, residual_hi=res_hi)


# ---------------------------------------------------------------------------
# Sweeps

Scenario = Union[ClassicalScenario, EAScenario, DiscriminationScenario]


def sweep_success(
    scenario: Scenario,
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
