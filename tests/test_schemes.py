"""Tests for scheme composition and the stochastic-resonance solvers."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from srbosonic.errors import DomainError, NoCriticalPointError
from srbosonic.schemes import (
    ROOT_RESIDUAL_TOL,
    ClassicalScenario,
    DiscriminationScenario,
    EAScenario,
    classical_channel,
    classical_total_variance,
    critical_sigma2_classical,
    critical_sigma2_discrimination,
    ea_total_variance,
    forbidden_interval_classical,
    forbidden_interval_discrimination,
    forbidden_rectangle,
    success_classical,
    success_discrimination,
    success_ea,
    sweep_success,
)
from srbosonic.threshold import (
    ORIENT_BELOW,
    BinaryThresholdSpec,
    mc_success_probability,
    success_probability,
)

# Frozen oracle values.  The critical variances come from a golden-section
# maximization of the success curve itself (independent grid+refine search,
# agreement ~3e-8); the interval boundaries from an independent brentq solve
# of the stationary condition (residuals < 1e-12).
PS_LOSSY = 0.8970483946339658
SMIN_LOSSY = {
    1.05: 0.4874014176919008,
    1.15: 0.9786636346651298,
    1.25: 1.4888094155041283,
    1.35: 2.0288192499827686,
}
THETA_PLUS_LOSSY = 0.9551061497937706
EA_QUAD_SUCCESS = 0.8144533152386512
EA_PRODUCT = 0.6633342027032297
EA_RECT_HI = 1.1542819512544027
DISC_THETA_PLUS = 1.5424659589777605
DISC_SMIN_AT_2 = 1.7143299674675143


def fig_scenario(**kw):
    base = dict(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5)
    base.update(kw)
    return ClassicalScenario(**base)


def ea_scenario(**kw):
    base = dict(
        eta=0.8,
        r=0.0,
        prior_q=0.5,
        prior_p=0.5,
        alpha_q=1.0,
        alpha_p=1.0,
        theta_q=0.0,
        theta_p=0.0,
    )
    base.update(kw)
    return EAScenario(**base)


def disc_scenario(**kw):
    base = dict(eta0=0.8, eta1=0.6, alpha_q=1.0, r=0.0, prior0=0.5)
    base.update(kw)
    return DiscriminationScenario(**base)


def decimal_boundary(near, gap, side, p_near, k):
    """Oracle boundary theta = near + side t by a 50-digit bisection of g.

    Two signal levels gap apart share the noise floor k; the far level has
    prior 1 - p_near.  The slope sign g(t) = ln(t p_near / ((gap + t)
    p_far)) + gap (gap + 2t) / k is negative inside the interval and
    positive beyond it.  It is bisected in u = ln t over [-1e5, 1e3], wide
    enough for weak-signal roots far out and strong-signal roots below the
    smallest float.  All arguments are Decimals.
    """

    def g(u):
        t = u.exp()
        return (t * p_near / ((gap + t) * (1 - p_near))).ln() + gap * (gap + 2 * t) / k

    with localcontext() as ctx:
        ctx.prec = 50
        lo, hi = Decimal(-100000), Decimal(1000)
        assert g(lo) < 0 < g(hi)
        for _ in range(130):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        return near + side * ((lo + hi) / 2).exp()


def assert_boundary_close(got, want, near):
    # theta = near +- t, so its error is relative to the larger of |theta|
    # and |near|; beyond the symmetric levels -+m that is |theta| itself
    scale = max(abs(want), abs(near))
    assert abs(Decimal(got) - want) <= Decimal("1e-13") * scale, (got, want)


def assert_matches_oracle(interval, m, k, prior0):
    # lo sits beyond -m (prior0), hi beyond +m (prior 1 - prior0)
    p0 = Decimal(prior0)
    with localcontext() as ctx:
        ctx.prec = 50
        assert_boundary_close(interval.lo, decimal_boundary(-m, 2 * m, -1, p0, k), m)
        assert_boundary_close(interval.hi, decimal_boundary(m, 2 * m, +1, 1 - p0, k), m)


class TestVarianceComposition:
    def test_receiver_baseline(self):
        assert classical_total_variance(fig_scenario(), 0.0) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_sender_attenuation(self):
        s = fig_scenario(noise_site="sender")
        assert classical_total_variance(s, 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_strong_squeezing_lossless(self):
        s = ClassicalScenario(eta=1.0, alpha_q=1.0, r=20.0)
        assert classical_total_variance(s, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_ea_baseline(self):
        assert ea_total_variance(ea_scenario(), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_ea_sender(self):
        s = ea_scenario(noise_site="sender")
        assert ea_total_variance(s, 1.0) == pytest.approx(1.4, abs=1e-15)

    def test_ea_strong_squeezing(self):
        s = ea_scenario(r=25.0)
        assert ea_total_variance(s, 0.0) == pytest.approx(0.1, abs=1e-12)

    def test_rejects_negative_sigma2(self):
        with pytest.raises(DomainError):
            classical_total_variance(fig_scenario(), -0.1)


class TestSuccessClassical:
    def test_lossy_baseline(self):
        assert success_classical(fig_scenario(), 0.0, 0.0) == pytest.approx(
            PS_LOSSY, abs=1e-13
        )

    def test_noise_helps_outside_interval(self):
        s = fig_scenario()
        crit = critical_sigma2_classical(s, 1.35)
        assert success_classical(s, 1.35, crit) > success_classical(s, 1.35, 0.0)

    def test_no_signal_is_coin_flip(self):
        s = fig_scenario(alpha_q=0.0)
        for sig2 in (0.0, 0.5, 2.0):
            assert success_classical(s, 0.0, sig2) == pytest.approx(0.5, abs=1e-15)

    @given(
        eta=st.floats(0.05, 1.0),
        alpha=st.floats(0.05, 2.5),
        r=st.floats(0, 2),
        prior0=st.floats(0.05, 0.95),
        theta=st.floats(-2.5, 2.5),
        sigma2=st.floats(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_site_equivalence(self, eta, alpha, r, prior0, theta, sigma2):
        # Sender-side injection is the receiver curve reparametrized by eta.
        sender = ClassicalScenario(eta, alpha, r, prior0, noise_site="sender")
        receiver = ClassicalScenario(eta, alpha, r, prior0, noise_site="receiver")
        assert success_classical(sender, theta, sigma2) == pytest.approx(
            success_classical(receiver, theta, eta * sigma2), abs=1e-14
        )

    def test_matches_mc(self):
        s = fig_scenario(prior0=0.3)
        exact = success_classical(s, 0.6, 0.8)
        m = math.sqrt(0.8)
        spec = BinaryThresholdSpec(
            -m, m, 0.9, 0.9, theta=0.6, prior0=0.3
        )  # (1-0.8+0.8+0.8)/2 = 0.9
        est = mc_success_probability(spec, 10**6, seed=5)
        assert abs(est.estimate - exact) <= 4 * est.std_error


class TestCriticalSigma2Classical:
    def test_frozen_values(self):
        s = fig_scenario()
        for theta, want in SMIN_LOSSY.items():
            assert critical_sigma2_classical(s, theta) == pytest.approx(
                want, abs=1e-12
            )

    def test_zero_at_interval_boundary(self):
        s = fig_scenario()
        assert abs(critical_sigma2_classical(s, THETA_PLUS_LOSSY)) < 1e-9

    def test_negative_inside_interval(self):
        assert critical_sigma2_classical(fig_scenario(), 0.95) < 0.0

    def test_sender_scaling(self):
        rec = fig_scenario()
        snd = fig_scenario(noise_site="sender")
        assert critical_sigma2_classical(snd, 1.2) == pytest.approx(
            critical_sigma2_classical(rec, 1.2) / 0.8, rel=1e-14
        )

    def test_is_a_stationary_point(self):
        # Central finite difference of the success curve vanishes at the
        # returned variance and the curvature is negative.
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 25:
            s = ClassicalScenario(
                eta=rng.uniform(0.2, 1.0),
                alpha_q=rng.uniform(0.3, 2.0),
                r=rng.uniform(0, 1.2),
                prior0=rng.uniform(0.1, 0.9),
            )
            iv = forbidden_interval_classical(s)
            theta = iv.hi + rng.uniform(0.05, 1.0)
            crit = critical_sigma2_classical(s, theta)
            if crit <= 1e-3:
                continue
            h = 1e-3 * max(1.0, crit)
            f = lambda x: success_classical(s, theta, x)
            deriv = (f(crit + h) - f(crit - h)) / (2 * h)
            curv = (f(crit + h) - 2 * f(crit) + f(crit - h)) / h**2
            assert abs(deriv) < 1e-6
            assert curv < 0.0
            checked += 1

    def test_grid_argmax_agrees(self):
        # Independent route: coarse grid + golden refinement of the curve.
        from scipy.optimize import minimize_scalar

        s = fig_scenario()
        f = lambda sig2: -success_classical(s, 1.05, sig2)
        grid = np.linspace(1e-4, 4.0, 400)
        vals = [f(x) for x in grid]
        i = int(np.argmin(vals))
        res = minimize_scalar(
            f, bracket=(grid[max(i - 1, 0)], grid[i], grid[i + 1]), method="golden"
        )
        assert critical_sigma2_classical(s, 1.05) == pytest.approx(res.x, abs=1e-6)

    def test_threshold_inside_band_raises(self):
        s = fig_scenario()
        m = math.sqrt(0.8)
        for theta in (0.0, 0.5, -0.5, m, -m):
            with pytest.raises(NoCriticalPointError):
                critical_sigma2_classical(s, theta)

    def test_degenerate_prior_raises(self):
        for p in (0.0, 1.0):
            with pytest.raises(NoCriticalPointError):
                critical_sigma2_classical(fig_scenario(prior0=p), 1.5)

    def test_zero_amplitude_raises(self):
        with pytest.raises(NoCriticalPointError):
            critical_sigma2_classical(fig_scenario(alpha_q=0.0), 1.5)


class TestForbiddenIntervalClassical:
    def test_frozen_boundary(self):
        iv = forbidden_interval_classical(fig_scenario())
        assert iv.hi == pytest.approx(THETA_PLUS_LOSSY, abs=1e-10)
        assert iv.lo == pytest.approx(-THETA_PLUS_LOSSY, abs=1e-10)
        assert iv.residual_lo <= 1e-10 and iv.residual_hi <= 1e-10

    def test_symmetric_prior_is_exactly_mirrored(self):
        iv = forbidden_interval_classical(fig_scenario())
        assert iv.lo == -iv.hi

    @pytest.mark.parametrize("prior", [1e-9, 1e-12])
    def test_small_prior_boundaries_match_decimal_oracle(self, prior):
        # the lower boundary's log prior ratio must not pass through 1 - prior
        iv = forbidden_interval_classical(fig_scenario(prior0=prior))
        rect = forbidden_rectangle(ea_scenario(r=0.25, prior_q=prior, prior_p=1.0 - prior))
        with localcontext() as ctx:
            ctx.prec = 50
            eta = Decimal(0.8)
            m = eta.sqrt()
            k_ea = 1 - eta + (1 + eta) * Decimal(-0.5).exp()
        assert_matches_oracle(iv, m, Decimal(1), prior)
        assert_matches_oracle(rect.q_interval, m, k_ea, prior)
        assert_matches_oracle(rect.p_interval, m, k_ea, 1.0 - prior)

    def test_asymmetric_prior(self):
        iv = forbidden_interval_classical(fig_scenario(prior0=0.7))
        assert iv.lo != -iv.hi
        # Boundary residuals hold on both sides.
        assert iv.residual_lo <= 1e-10 and iv.residual_hi <= 1e-10
        s = fig_scenario(prior0=0.7)
        assert abs(critical_sigma2_classical(s, iv.hi)) < 1e-8
        assert abs(critical_sigma2_classical(s, iv.lo)) < 1e-8

    def test_contains_signal_band(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = ClassicalScenario(
                eta=rng.uniform(0.05, 1.0),
                alpha_q=rng.uniform(0.1, 2.5),
                r=rng.uniform(0, 2.0),
                prior0=rng.uniform(0.05, 0.95),
            )
            m = math.sqrt(s.eta) * s.alpha_q
            iv = forbidden_interval_classical(s)
            assert iv.lo <= -m and iv.hi >= m

    def test_squeezing_shrinks_interval(self):
        widths = []
        for r in np.arange(0.0, 2.01, 0.25):
            iv = forbidden_interval_classical(fig_scenario(r=r))
            widths.append(iv.hi - iv.lo)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_amplitude_grows_interval(self):
        widths = []
        for alpha in np.arange(0.2, 3.01, 0.4):
            iv = forbidden_interval_classical(fig_scenario(alpha_q=alpha))
            widths.append(iv.hi - iv.lo)
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_strong_squeezing_width_limit(self):
        # Width approaches twice the signal level from above.
        s = fig_scenario(r=8.0)
        m = math.sqrt(0.8)
        iv = forbidden_interval_classical(s)
        assert iv.hi - iv.lo >= 2 * m
        assert (iv.hi - iv.lo) - 2 * m < 1e-6

    def test_boundary_collapse_at_strong_signal(self):
        # 4 m^2 / K is huge: the root sits within one ulp of the signal level.
        s = ClassicalScenario(eta=0.95, alpha_q=3.0, r=2.0, prior0=0.5)
        m = math.sqrt(0.95) * 3.0
        iv = forbidden_interval_classical(s)
        assert iv.hi == m
        assert iv.residual_hi <= 1e-10

    def test_membership_equivalence(self):
        # The sweep non-monotonicity flag must agree with interval
        # membership across random scenarios, away from the boundary.
        # Thresholds so deep in the Gaussian tail that the predicted
        # resonance gain falls below float resolution (< 1e-11 on a
        # probability of order one) are skipped: the stationary point is
        # real but the success curve cannot represent it.
        rng = np.random.default_rng(314159)
        grid = np.concatenate(([0.0], np.geomspace(1e-3, 3.0, 100)))
        scenarios = thetas_checked = 0
        while scenarios < 200:
            s = ClassicalScenario(
                eta=rng.uniform(0.05, 0.98),
                alpha_q=rng.uniform(0.1, 2.2),
                r=rng.uniform(0.0, 1.5),
                prior0=rng.uniform(0.05, 0.95),
            )
            iv = forbidden_interval_classical(s)
            scale = max(abs(iv.lo), iv.hi)
            for theta in rng.uniform(-1.6 * scale, 1.6 * scale, size=20):
                if min(abs(theta - iv.lo), abs(theta - iv.hi)) <= 1e-3:
                    continue
                inside = iv.lo <= theta <= iv.hi
                if not inside:
                    # Outside thresholds can carry an interior maximum (at
                    # the critical variance) or a monotone rise toward the
                    # grid end; probe both for a representable gain.
                    crit = critical_sigma2_classical(s, theta)
                    probes = [0.25, 1.0, 4.0, 9.0]
                    if crit > 0:
                        probes.append(crit)
                    base = success_classical(s, theta, 0.0)
                    gain = max(
                        success_classical(s, theta, p) for p in probes
                    ) - base
                    if gain < 1e-11:
                        continue
                sw = sweep_success(s, theta, grid)
                assert sw.nonmonotonic == (not inside), (
                    f"disagreement at {s} theta={theta}: flag={sw.nonmonotonic}, "
                    f"interval=[{iv.lo}, {iv.hi}]"
                )
                thetas_checked += 1
            scenarios += 1
        assert thetas_checked > 3000

    def test_root_found_where_doubling_step_passes_search_bound(self):
        # A prior of 1e-7 puts the lower root far beyond the signal level;
        # the search must reach it instead of giving up at a bound.
        s = ClassicalScenario(eta=0.3, alpha_q=0.003, prior0=1e-7)
        iv = forbidden_interval_classical(s)
        assert iv.lo < -math.sqrt(0.3) * 0.003
        assert critical_sigma2_classical(s, 1.001 * iv.lo) > 0.0
        assert critical_sigma2_classical(s, 0.999 * iv.lo) < 0.0

    def test_weak_signal_boundaries_match_oracle(self):
        # The lower root lies ~1.6e8 out; the upper one, 1.4e-10 above the
        # level, has the ill-conditioned residual identity (|sigma*^2| ~ 1)
        # while theta itself is correctly rounded.  Oracle: a 60-digit
        # mpmath bisection of g.
        iv = forbidden_interval_classical(
            ClassicalScenario(eta=0.5, alpha_q=1e-8, prior0=0.01)
        )
        assert iv.lo == pytest.approx(-162462020.3197540255500777, rel=1e-14)
        assert iv.hi == 7.215375318230077e-09

    @given(
        eta=st.floats(0.05, 1.0),
        log_q=st.floats(-10.0, 0.0),
        log_p=st.floats(-10.0, 0.0),
        r=st.floats(0.0, 1.0),
        prior_q=st.floats(1e-9, 1.0 - 1e-9),
        prior_p=st.floats(1e-9, 1.0 - 1e-9),
    )
    @settings(max_examples=30, deadline=None)
    def test_weak_signal_boundaries_match_decimal_oracle(
        self, eta, log_q, log_p, r, prior_q, prior_p
    ):
        # Signal levels sqrt(eta) alpha_q down to 1e-10 put the outer
        # boundaries up to ~1e9 away; theta is still right to 1e-13.
        root_eta = math.sqrt(eta)
        alpha_q, alpha_p = 10.0**log_q / root_eta, 10.0**log_p / root_eta
        s = ClassicalScenario(eta=eta, alpha_q=alpha_q, r=r, prior0=prior_q)
        ea = ea_scenario(
            eta=eta, r=r, prior_q=prior_q, prior_p=prior_p, alpha_q=alpha_q, alpha_p=alpha_p
        )
        rect = forbidden_rectangle(ea)
        k = Decimal(2 * classical_total_variance(s, 0.0))
        k_ea = Decimal(2 * ea_total_variance(ea, 0.0))
        m_q, m_p = Decimal(root_eta * alpha_q), Decimal(root_eta * alpha_p)
        assert_matches_oracle(forbidden_interval_classical(s), m_q, k, prior_q)
        assert_matches_oracle(rect.q_interval, m_q, k_ea, prior_q)
        assert_matches_oracle(rect.p_interval, m_p, k_ea, prior_p)

    @given(
        eta=st.floats(0.01, 1.0),
        level_q=st.floats(0.01, 30.0),
        level_p=st.floats(0.01, 30.0),
        r=st.floats(0.0, 3.0),
        prior_q=st.floats(1e-9, 1.0 - 1e-9),
        prior_p=st.floats(1e-9, 1.0 - 1e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_contract(self, eta, level_q, level_p, r, prior_q, prior_p):
        # Signal levels sqrt(eta) alpha_q >= 0.01 always solve, with
        # |sigma*^2| at both boundaries within ROOT_RESIDUAL_TOL.
        root_eta = math.sqrt(eta)
        iv = forbidden_interval_classical(
            ClassicalScenario(eta=eta, alpha_q=level_q / root_eta, r=r, prior0=prior_q)
        )
        rect = forbidden_rectangle(
            ea_scenario(
                eta=eta,
                r=r,
                prior_q=prior_q,
                prior_p=prior_p,
                alpha_q=level_q / root_eta,
                alpha_p=level_p / root_eta,
            )
        )
        for interval in (iv, rect.q_interval, rect.p_interval):
            assert interval.residual_lo <= ROOT_RESIDUAL_TOL
            assert interval.residual_hi <= ROOT_RESIDUAL_TOL


class TestEA:
    def test_quadrature_and_product(self):
        s = ea_scenario()
        assert success_ea(s, 0.0, 0.0) == pytest.approx(EA_PRODUCT, abs=1e-13)
        # One quadrature perfect: product reduces to the other factor.
        perfect = ea_scenario(alpha_p=60.0)
        assert success_ea(perfect, 0.0, 0.0) == pytest.approx(
            EA_QUAD_SUCCESS, abs=1e-12
        )

    def test_no_signal_gives_quarter(self):
        s = ea_scenario(alpha_q=1e-12, alpha_p=1e-12)
        assert success_ea(s, 0.0, 0.0) == pytest.approx(0.25, abs=1e-9)

    def test_rectangle_frozen(self):
        rect = forbidden_rectangle(ea_scenario())
        for iv in (rect.q_interval, rect.p_interval):
            assert iv.hi == pytest.approx(EA_RECT_HI, abs=1e-10)
            assert iv.lo == pytest.approx(-EA_RECT_HI, abs=1e-10)
            assert iv.residual_lo <= 1e-10 and iv.residual_hi <= 1e-10

    def test_rectangle_wider_than_classical_floor(self):
        # The EA noise floor is larger at r=0, so the interval is wider.
        rect = forbidden_rectangle(ea_scenario())
        iv = forbidden_interval_classical(fig_scenario())
        assert rect.q_interval.hi > iv.hi

    def test_grid_scan_inside_max_at_origin(self):
        s = ea_scenario(theta_q=0.4, theta_p=-0.6)  # both inside +-1.154
        grid = np.arange(0.0, 3.0001, 0.05)
        best = max(
            ((sq, sp) for sq in grid for sp in grid),
            key=lambda t: success_ea(s, t[0] ** 2, t[1] ** 2),
        )
        assert best == (0.0, 0.0)

    @pytest.mark.parametrize(
        "theta_q,theta_p",
        [(1.3, 0.0), (0.0, -1.3), (1.3, 1.3)],
    )
    def test_grid_scan_outside_max_off_origin(self, theta_q, theta_p):
        s = ea_scenario(theta_q=theta_q, theta_p=theta_p)
        rect = forbidden_rectangle(s)
        assert not rect.contains(theta_q, theta_p)
        grid = np.arange(0.0, 3.0001, 0.05)
        best = max(
            ((sq, sp) for sq in grid for sp in grid),
            key=lambda t: success_ea(s, t[0] ** 2, t[1] ** 2),
        )
        assert best != (0.0, 0.0)

    def test_ea_mc_product_cross_check(self):
        # Per-quadrature MC runs multiply to the joint probability.
        s = ea_scenario(theta_q=0.3, theta_p=-0.2, prior_q=0.4, prior_p=0.6)
        exact = success_ea(s, 0.25, 0.25)
        m = math.sqrt(s.eta)
        v = ea_total_variance(s, 0.25)
        est_q = mc_success_probability(
            BinaryThresholdSpec(-m, m, v, v, theta=0.3, prior0=0.4), 10**6, seed=21
        )
        est_p = mc_success_probability(
            BinaryThresholdSpec(-m, m, v, v, theta=-0.2, prior0=0.6), 10**6, seed=22
        )
        prod = est_q.estimate * est_p.estimate
        se = math.hypot(
            est_q.std_error * est_p.estimate, est_p.std_error * est_q.estimate
        )
        assert abs(prod - exact) <= 4 * se


class TestDiscrimination:
    def test_near_degenerate_channels(self):
        s = DiscriminationScenario(eta0=0.700001, eta1=0.7, alpha_q=1.0)
        assert success_discrimination(s, 0.83, 0.0) == pytest.approx(0.5, abs=1e-5)

    def test_far_threshold_limit(self):
        s = disc_scenario(prior0=0.3)
        assert success_discrimination(s, 50.0, 0.5) == pytest.approx(0.7, abs=1e-12)

    def test_matches_mc_midway(self):
        s = disc_scenario()
        theta = 0.5 * (math.sqrt(0.8) + math.sqrt(0.6))
        exact = success_discrimination(s, theta, 0.0)
        spec = BinaryThresholdSpec(
            mean0=math.sqrt(0.8),
            mean1=math.sqrt(0.6),
            var0=0.5,
            var1=0.5,
            theta=theta,
            prior0=0.5,
            orientation=ORIENT_BELOW,
        )
        est = mc_success_probability(spec, 10**6, seed=99)
        assert abs(est.estimate - exact) <= 4 * est.std_error

    def test_frozen_critical_value(self):
        assert critical_sigma2_discrimination(disc_scenario(), 2.0) == pytest.approx(
            DISC_SMIN_AT_2, abs=1e-12
        )

    def test_critical_value_is_grid_argmax(self):
        from scipy.optimize import minimize_scalar

        s = disc_scenario()
        f = lambda sig2: -success_discrimination(s, 2.0, sig2)
        grid = np.linspace(1e-4, 6.0, 600)
        vals = [f(x) for x in grid]
        i = int(np.argmin(vals))
        res = minimize_scalar(
            f, bracket=(grid[max(i - 1, 0)], grid[i], grid[i + 1]), method="golden"
        )
        assert critical_sigma2_discrimination(s, 2.0) == pytest.approx(
            res.x, abs=1e-6
        )

    def test_zero_at_boundary(self):
        assert abs(critical_sigma2_discrimination(disc_scenario(), DISC_THETA_PLUS)) < 1e-9

    def test_frozen_interval_and_ordering(self):
        iv = forbidden_interval_discrimination(disc_scenario())
        assert iv.hi == pytest.approx(DISC_THETA_PLUS, abs=1e-10)
        assert iv.residual_lo <= 1e-10 and iv.residual_hi <= 1e-10
        assert iv.lo <= math.sqrt(0.6) < math.sqrt(0.8) <= iv.hi

    def test_ordering_random_scenarios(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            e1 = rng.uniform(0.05, 0.85)
            e0 = rng.uniform(e1 + 0.05, 0.95)
            s = DiscriminationScenario(
                eta0=e0,
                eta1=e1,
                alpha_q=rng.uniform(0.2, 2.0),
                r=0.0,
                prior0=rng.uniform(0.1, 0.9),
            )
            iv = forbidden_interval_discrimination(s)
            assert iv.lo <= math.sqrt(e1) * s.alpha_q
            assert iv.hi >= math.sqrt(e0) * s.alpha_q

    def test_numeric_path_consistent_with_closed_form(self):
        # r -> 0 limit of the derivative-sign solver lands on the r = 0 roots,
        # including thresholds deep in the Gaussian tails (small alpha with
        # a skewed prior).
        grid = [dict()] + [
            dict(eta0=eta0, eta1=eta1, alpha_q=alpha, prior0=prior0)
            for eta0, eta1 in ((0.9, 0.4), (0.8, 0.6), (0.5, 0.1))
            for alpha in (0.5, 1.5, 3.0)
            for prior0 in (0.2, 0.5, 0.8)
        ]
        for kw in grid:
            closed = forbidden_interval_discrimination(disc_scenario(**kw))
            numeric = forbidden_interval_discrimination(disc_scenario(r=1e-9, **kw))
            assert numeric.hi == pytest.approx(closed.hi, abs=1e-5), kw
            assert numeric.lo == pytest.approx(closed.lo, abs=1e-5), kw

    @given(
        eta0=st.floats(0.02, 0.99),
        eta1=st.floats(0.01, 0.98),
        alpha=st.floats(0.01, 30.0),
        prior0=st.floats(1e-9, 1.0 - 1e-9),
    )
    @settings(max_examples=300, deadline=None)
    def test_residual_contract(self, eta0, eta1, alpha, prior0):
        # Receiver-site, r = 0 levels at least 0.01 apart always solve, with
        # |sigma*^2| at both boundaries within ROOT_RESIDUAL_TOL.
        assume(eta0 > eta1 and (math.sqrt(eta0) - math.sqrt(eta1)) * alpha >= 0.01)
        iv = forbidden_interval_discrimination(
            DiscriminationScenario(eta0=eta0, eta1=eta1, alpha_q=alpha, prior0=prior0)
        )
        assert iv.residual_lo <= ROOT_RESIDUAL_TOL
        assert iv.residual_hi <= ROOT_RESIDUAL_TOL

    # Receiver-site, r = 0 levels 5.2e-7 and 3.1e-8 apart; the second has
    # gap^2 below the rounding of the log prior ratio.  Lower roots from a
    # 60-digit mpmath bisection of g.
    @pytest.mark.parametrize("kw, want", [
        (
            dict(eta0=0.6807643, eta1=0.6806803, alpha_q=0.0103052, prior0=0.7906555),
            -1266588.115905389386034419,
        ),
        (
            dict(
                eta0=0.16057358329823135,
                eta1=0.1605733529298655,
                alpha_q=0.1066678717678803,
                prior0=0.999999974859586,
            ),
            -285356927.3080843488123929,
        ),
    ])
    def test_near_equal_levels_lower_boundary_matches_oracle(self, kw, want):
        iv = forbidden_interval_discrimination(DiscriminationScenario(**kw))
        assert iv.lo == pytest.approx(want, rel=1e-14)
        assert math.sqrt(kw["eta0"]) * kw["alpha_q"] <= iv.hi

    @given(
        eta0=st.floats(0.05, 0.99),
        alpha=st.floats(0.5, 10.0),
        log_gap=st.floats(-10.0, -1.0),
        prior0=st.floats(1e-9, 1.0 - 1e-9),
    )
    @settings(max_examples=40, deadline=None)
    def test_weak_signal_boundaries_match_decimal_oracle(self, eta0, alpha, log_gap, prior0):
        # Receiver site, r = 0, a0 - a1 down to 1e-10: theta to 1e-13.  The
        # lower boundary a1 - t can lie near 0, so the error is measured
        # against |a1| there.
        eta1 = (math.sqrt(eta0) - 10.0**log_gap / alpha) ** 2
        assume(eta1 < eta0)
        iv = forbidden_interval_discrimination(
            DiscriminationScenario(eta0=eta0, eta1=eta1, alpha_q=alpha, prior0=prior0)
        )
        with localcontext() as ctx:
            ctx.prec = 50
            a0, a1 = (Decimal(eta).sqrt() * Decimal(alpha) for eta in (eta0, eta1))
            p0 = Decimal(prior0)
            lo = decimal_boundary(a1, a0 - a1, -1, 1 - p0, Decimal(1))
            hi = decimal_boundary(a0, a0 - a1, +1, p0, Decimal(1))
            assert_boundary_close(iv.lo, lo, a1)
            assert_boundary_close(iv.hi, hi, a0)

    def test_root_found_where_doubling_step_passes_search_bound(self):
        s = DiscriminationScenario(eta0=0.9, eta1=0.4, alpha_q=0.003, prior0=1e-7)
        iv = forbidden_interval_discrimination(s)
        assert iv.lo <= math.sqrt(0.4) * 0.003 < math.sqrt(0.9) * 0.003 <= iv.hi

    def test_squeezed_interval_and_interior_max(self):
        s = disc_scenario(r=0.5)
        iv = forbidden_interval_discrimination(s)
        assert iv.lo <= math.sqrt(0.6) and iv.hi >= math.sqrt(0.8)
        theta = iv.hi + 0.5
        crit = critical_sigma2_discrimination(s, theta)
        assert crit > 0.0
        assert success_discrimination(s, theta, crit) > success_discrimination(
            s, theta, 0.0
        )

    def test_squeezed_inside_returns_sentinel(self):
        s = disc_scenario(r=0.5)
        iv = forbidden_interval_discrimination(s)
        mid = 0.5 * (math.sqrt(0.6) + math.sqrt(0.8))
        assert iv.lo < mid < iv.hi
        assert critical_sigma2_discrimination(s, mid) == -1.0

    def test_sender_site_uses_numeric_path(self):
        s = disc_scenario(noise_site="sender")
        iv = forbidden_interval_discrimination(s)
        # Sign-test path reports theta widths as residuals.
        assert iv.residual_hi <= 1e-6 + 1e-12
        theta = iv.hi + 0.4
        crit = critical_sigma2_discrimination(s, theta)
        assert crit > 0.0
        assert success_discrimination(s, theta, crit) > success_discrimination(
            s, theta, 0.0
        )

    # sigma*^2 off the closed form.  Values from a 60-digit mpmath bisection
    # of the analytic slope sign g(theta, sigma^2); a 60-digit maximisation
    # of P_s itself (mpmath erfc, root of its derivative) agrees to every
    # digit shown.  The sender case gains 5.0e-6 over sigma^2 = 0.
    SENDER_ORACLE = (
        dict(eta0=0.57, eta1=0.48, alpha_q=0.8, prior0=0.24, noise_site="sender"),
        12.9,
        38.655238890181839391,
    )
    SQUEEZED_ORACLE = (
        dict(eta0=0.52, eta1=0.45, alpha_q=0.9, r=0.5, prior0=0.72),
        -4.2,
        0.55856106741062656091,
    )

    @pytest.mark.parametrize("kw, theta, want", [SENDER_ORACLE, SQUEEZED_ORACLE])
    def test_numeric_critical_value_matches_oracle(self, kw, theta, want):
        got = critical_sigma2_discrimination(DiscriminationScenario(**kw), theta)
        assert abs(got - want) <= 1e-12 * want, got

    def test_numeric_critical_value_beats_noiseless(self):
        kw, theta, _ = self.SENDER_ORACLE
        s = DiscriminationScenario(**kw)
        crit = critical_sigma2_discrimination(s, theta)
        assert success_discrimination(s, theta, crit) > success_discrimination(
            s, theta, 0.0
        )

    def test_far_onset_boundary_within_its_width(self):
        # Nearly equal transmissivities put the lower boundary near theta =
        # -3.8e4, where each hypothesis's (theta - a_x)^2 / (2 v_x) is ~1.4e9;
        # g subtracts them term by term to keep its sign there.  Root from a
        # 60-digit mpmath bisection of g(theta, 0).
        s = DiscriminationScenario(
            eta0=0.8, eta1=0.799, alpha_q=0.02, prior0=0.7, noise_site="sender"
        )
        iv = forbidden_interval_discrimination(s)
        assert abs(iv.lo - -37936.368521697215406) <= iv.residual_lo

    def test_squeezing_trend_matches_classical_behavior(self):
        widths = []
        for r in (0.0, 0.3, 0.6, 0.9):
            iv = forbidden_interval_discrimination(disc_scenario(r=r))
            widths.append(iv.hi - iv.lo)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_invalid_scenarios(self):
        with pytest.raises(DomainError):
            DiscriminationScenario(eta0=0.6, eta1=0.8, alpha_q=1.0)
        with pytest.raises(DomainError):
            DiscriminationScenario(eta0=1.0, eta1=0.5, alpha_q=1.0)
        with pytest.raises(NoCriticalPointError):
            critical_sigma2_discrimination(disc_scenario(), math.sqrt(0.7))


class TestSweep:
    def test_flags_match_figure_behavior(self):
        s = fig_scenario()
        grid = np.arange(0.0, 3.0001, 0.05)
        assert sweep_success(s, 1.15, grid).nonmonotonic is True
        assert sweep_success(s, 0.85, grid).nonmonotonic is False

    def test_no_signal_flat(self):
        sw = sweep_success(fig_scenario(alpha_q=0.0), 0.0, [0.0, 0.5, 1.0])
        assert all(v == pytest.approx(0.5, abs=1e-15) for v in sw.values)
        assert sw.nonmonotonic is False

    def test_ea_dispatch(self):
        sw = sweep_success(ea_scenario(theta_q=1.3, theta_p=1.3), None, [0.0, 0.5, 1.0])
        assert sw.nonmonotonic is True
        with pytest.raises(DomainError):
            sweep_success(ea_scenario(), 0.5, [0.0, 1.0])

    def test_discrimination_dispatch(self):
        sw = sweep_success(disc_scenario(), 2.0, np.arange(0.0, 3.0001, 0.05))
        assert sw.nonmonotonic is True

    def test_validation(self):
        s = fig_scenario()
        with pytest.raises(DomainError):
            sweep_success(s, 1.0, [])
        with pytest.raises(DomainError):
            sweep_success(s, 1.0, [0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            sweep_success(s, 1.0, [-0.5, 0.5])
        with pytest.raises(DomainError):
            sweep_success(s, None, [0.0, 1.0])

    def test_series_is_channel_consistent(self):
        # Spot-check the sweep values against the channel route.
        s = fig_scenario(prior0=0.35)
        sw = sweep_success(s, 0.7, [0.0, 1.1])
        ch = classical_channel(s, 0.7, 1.1**2)
        assert sw.values[1] == pytest.approx(
            success_probability(ch, 0.35), abs=1e-15
        )
