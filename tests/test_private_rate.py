"""Tests for the private-rate layer.

The Holevo computation is checked against the two-pure-state Gram
oracle (mixture eigenvalues (1 ± |overlap|)/2, so χ = H₂ of one of
them), against an information-theoretic upper bound (no threshold
eavesdropper can beat χ), and against a from-scratch Fock route that
bypasses the Gram-matrix shortcut.  The displacement matrix elements of
that shortcut are checked against the exact Cahill–Glauber form, and
its thermal truncation against the stated entropy bound.
"""

import importlib
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest


from srbosonic.errors import CutoffError, DomainError
from srbosonic.fock import (
    MAX_CUTOFF,
    FockDensity,
    GaussianStateOneMode,
    _displacement,
    _ladder_arrays,
    gaussian_entropy,
    gaussian_to_fock,
    symplectic_eigenvalue,
    von_neumann_entropy,
)
from srbosonic.private_rate import (
    EveEnsemble,
    PrivateScenario,
    RateProbeResult,
    conjecture_probe,
    eve_ensemble,
    holevo_chi,
    private_rate,
)
from srbosonic.schemes import (
    SITE_RECEIVER,
    SITE_SENDER,
    ClassicalScenario,
    DiscriminationScenario,
    _discrimination_side,
    classical_channel,
    classical_total_variance,
    forbidden_interval_classical,
    success_classical,
    success_discrimination,
)
from srbosonic.threshold import (
    BinaryThresholdSpec,
    build_channel,
    mutual_information,
)

# the package re-exports the function private_rate under the module's name
private_rate_module = importlib.import_module("srbosonic.private_rate")

VACUUM_COV = [[0.5, 0.0], [0.0, 0.5]]

# Two-pure-state Gram oracle, frozen: chi = H2((1 + exp(-2 beta^2))/2)
# for coherent amplitudes +-beta.  Computed from the closed form below,
# which the first test re-derives.
GRAM_CHI = {
    0.1: 0.438584567674151,
    0.2: 0.6457635982841395,
    0.5: 0.9000455915235352,
    1.0: 0.9867474300396561,
}


def h2(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def fig_base(site=SITE_SENDER, **overrides):
    kwargs = dict(eta=0.8, alpha_q=1.0, r=0.0, prior0=0.5, noise_site=site)
    kwargs.update(overrides)
    return ClassicalScenario(**kwargs)


def coherent_pair(beta, prior0=0.5):
    # amplitude beta along q means quadrature mean sqrt(2) beta
    shift = math.sqrt(2.0) * beta
    return EveEnsemble(
        state0=GaussianStateOneMode((-shift, 0.0), VACUUM_COV),
        state1=GaussianStateOneMode((+shift, 0.0), VACUUM_COV),
        prior0=prior0,
    )


class TestTypes:
    def test_theta_must_be_finite(self):
        with pytest.raises(DomainError):
            PrivateScenario(base=fig_base(), theta=math.inf)

    def test_base_must_be_scenario(self):
        with pytest.raises(DomainError):
            PrivateScenario(base="lossy", theta=0.5)

    def test_covariance_mismatch_rejected(self):
        with pytest.raises(DomainError):
            EveEnsemble(
                state0=GaussianStateOneMode((0.0, 0.0), VACUUM_COV),
                state1=GaussianStateOneMode((0.0, 0.0), [[0.6, 0.0], [0.0, 0.6]]),
                prior0=0.5,
            )

    def test_prior_range(self):
        with pytest.raises(DomainError):
            coherent_pair(0.3, prior0=1.2)


class TestEveEnsemble:
    def test_lossy_coherent_moments(self):
        # eta=0.8, alpha=1, r=0, sigma=0: means are -+sqrt(0.2), vacuum cov
        e = eve_ensemble(PrivateScenario(base=fig_base(), theta=1.0), 0.0)
        m = math.sqrt(0.2)
        assert abs(e.state0.mean[0] + m) <= 1e-15
        assert abs(e.state1.mean[0] - m) <= 1e-15
        assert e.state0.mean[1] == 0.0
        assert np.allclose(e.state0.cov, VACUUM_COV, atol=1e-15)
        assert np.allclose(e.state1.cov, e.state0.cov, atol=0.0)

    def test_unit_transmissivity_leaks_nothing(self):
        e = eve_ensemble(PrivateScenario(base=fig_base(eta=1.0), theta=0.0), 1.7)
        assert e.state0.mean == (0.0, 0.0)
        assert e.state1.mean == (0.0, 0.0)
        assert np.allclose(e.state0.cov, VACUUM_COV, atol=1e-15)

    def test_zero_amplitude_gives_identical_states(self):
        e = eve_ensemble(PrivateScenario(base=fig_base(alpha_q=0.0), theta=0.0), 0.4)
        assert e.state0.mean == e.state1.mean

    def test_sender_noise_enters_q_variance(self):
        s = PrivateScenario(base=fig_base(), theta=0.0)
        e = eve_ensemble(s, 2.0)
        assert abs(e.state0.cov[0, 0] - (0.2 * 3.0 + 0.8) / 2.0) <= 1e-15
        assert abs(e.state0.cov[1, 1] - 0.5) <= 1e-15

    def test_receiver_noise_never_reaches_eve(self):
        s = PrivateScenario(base=fig_base(site=SITE_RECEIVER), theta=0.0)
        assert np.allclose(eve_ensemble(s, 3.0).state0.cov, VACUUM_COV, atol=1e-15)

    def test_squeezing_formula(self):
        s = PrivateScenario(base=fig_base(r=0.5), theta=0.0)
        e = eve_ensemble(s, 1.0)
        want_qq = (0.2 * (math.exp(-1.0) + 1.0) + 0.8) / 2.0
        want_pp = (0.2 * math.exp(1.0) + 0.8) / 2.0
        assert abs(e.state0.cov[0, 0] - want_qq) <= 1e-15
        assert abs(e.state0.cov[1, 1] - want_pp) <= 1e-15

    def test_theta_free_input(self):
        e = eve_ensemble(fig_base(), 2.0)
        want = eve_ensemble(PrivateScenario(base=fig_base(), theta=0.0), 2.0)
        assert np.array_equal(e.state0.cov, want.state0.cov)
        assert np.array_equal(e.state1.mean, want.state1.mean)

    def test_negative_sigma2_rejected(self):
        with pytest.raises(DomainError):
            eve_ensemble(PrivateScenario(base=fig_base(), theta=0.0), -0.1)


class TestShareRule:
    """The line splits the added variance: c to the receiver, 1 - c to Eve.

    c is eta when the sender adds the noise and 1 when the receiver does,
    so the two ports' increments sum to sigma^2 / 2 at the sender site
    (the line neither loses nor duplicates the noise) and Eve's is 0 at
    the receiver site.
    """

    @staticmethod
    def draws(n=200):
        rng = random.Random(29)
        for _ in range(n):
            site = rng.choice((SITE_SENDER, SITE_RECEIVER))
            yield rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.5), 10.0 ** rng.uniform(-3, 2), site

    def test_receiver_and_eavesdropper_increments(self):
        for eta, r, sigma2, site in self.draws():
            base = fig_base(site=site, eta=eta, r=r)
            bob = classical_total_variance(base, sigma2) - classical_total_variance(base, 0.0)
            eve_q = [eve_ensemble(base, x).state0.cov[0, 0] for x in (sigma2, 0.0)]
            eve = eve_q[0] - eve_q[1]
            if site == SITE_SENDER:
                assert bob == pytest.approx(eta * sigma2 / 2.0, rel=1e-9)
                assert eve == pytest.approx((1.0 - eta) * sigma2 / 2.0, rel=1e-9, abs=1e-15)
                assert bob + eve == pytest.approx(sigma2 / 2.0, rel=1e-9)
            else:
                assert bob == pytest.approx(sigma2 / 2.0, rel=1e-9)
                assert eve == 0.0

    def test_discrimination_curve_and_boundary_read_one_variance(self, monkeypatch):
        # success_discrimination hands (a0, v0, a1, v1, ...) to _channel_probs;
        # the boundary solver's side beyond a0 must carry the same v0, v1
        schemes = importlib.import_module("srbosonic.schemes")
        seen = []

        def record(*args):
            seen.append(args[1:4:2])
            return channel_probs(*args)

        channel_probs = schemes._channel_probs
        monkeypatch.setattr(schemes, "_channel_probs", record)
        for eta0, r, sigma2, site in self.draws():
            s = DiscriminationScenario(eta0=eta0 * 0.99, eta1=eta0 * 0.4, alpha_q=1.5,
                                       r=r, noise_site=site)
            success_discrimination(s, 2.0, sigma2)
            _, _, v0, v1, dv = _discrimination_side(s, True, sigma2)
            assert seen.pop() == (v0, v1)
            assert dv == pytest.approx(v0 - v1, rel=1e-9, abs=1e-15)


class TestChiSmallNoiseLaw:
    """At r = 0 and the sender site, chi(sigma^2) - chi(0) ~ -kappa nbar log2(1/nbar).

    Eve's states are coherent at sigma = 0 with |beta1 - beta0|^2 = x0 =
    2 (1 - eta) alpha^2, and noise makes them thermal with nbar = b sigma^2,
    b = (1 - eta) / 4, a quarter of her share; kappa = x0 e^-x0 / (1 - e^-x0).
    So (chi(sigma^2) - chi(0)) / sigma^2 falls by kappa b log2(100) per two
    decades of sigma^2, whatever the prior.
    """

    @pytest.mark.parametrize("eta, alpha_q, prior0", [(0.8, 1.0, 0.5), (0.5, 2.0, 0.3),
                                                      (0.9, 0.5, 0.5)])
    def test_log_coefficient(self, eta, alpha_q, prior0):
        base = fig_base(eta=eta, alpha_q=alpha_q, prior0=prior0)
        chi0 = holevo_chi(eve_ensemble(base, 0.0))
        quotient = [(holevo_chi(eve_ensemble(base, x)) - chi0) / x for x in (1e-4, 1e-6, 1e-8)]
        x0 = 2.0 * (1.0 - eta) * alpha_q**2
        kappa = x0 / math.expm1(x0)
        step = kappa * (1.0 - eta) / 4.0 * math.log2(100.0)
        assert quotient[0] - quotient[1] == pytest.approx(step, rel=1e-3)
        assert quotient[1] - quotient[2] == pytest.approx(step, rel=1e-3)


class TestHolevoChi:
    def test_gram_oracle_frozen_values(self):
        for b2, frozen in GRAM_CHI.items():
            assert abs(frozen - h2((1.0 + math.exp(-2.0 * b2)) / 2.0)) <= 1e-12

    @pytest.mark.parametrize("b2", sorted(GRAM_CHI))
    def test_matches_gram_oracle(self, b2):
        chi = holevo_chi(coherent_pair(math.sqrt(b2)))
        assert abs(chi - GRAM_CHI[b2]) <= 1e-6

    def test_lossy_coherent_ensemble(self):
        # means -+sqrt(0.2) are amplitudes -+sqrt(0.1), hence the b2=0.1 case
        e = eve_ensemble(PrivateScenario(base=fig_base(), theta=1.0), 0.0)
        assert abs(holevo_chi(e) - GRAM_CHI[0.1]) <= 1e-6

    def test_identical_states_zero(self):
        e = eve_ensemble(PrivateScenario(base=fig_base(alpha_q=0.0), theta=0.0), 0.9)
        assert holevo_chi(e) == 0.0

    def test_one_sided_prior_zero(self):
        assert holevo_chi(coherent_pair(0.7, prior0=0.0)) == 0.0
        assert holevo_chi(coherent_pair(0.7, prior0=1.0)) == 0.0

    @pytest.mark.parametrize("prior0", [0.3, 0.5, 0.8])
    def test_bounded_by_prior_entropy(self, prior0):
        chi = holevo_chi(coherent_pair(1.0, prior0=prior0))
        assert 0.0 <= chi <= h2(prior0) + 1e-12

    def test_monotone_in_sender_noise(self):
        # data processing: more sender noise never helps the eavesdropper
        s = PrivateScenario(base=fig_base(), theta=0.0)
        values = [holevo_chi(eve_ensemble(s, round(0.4 * k, 10))) for k in range(11)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-6

    def test_beats_any_threshold_eavesdropper(self):
        rng = np.random.Generator(np.random.Philox(11))
        s = PrivateScenario(base=fig_base(), theta=0.0)
        for sigma2 in (0.0, 1.0):
            e = eve_ensemble(s, sigma2)
            chi = holevo_chi(e)
            for _ in range(10):
                theta_e = float(rng.uniform(-1.5, 1.5))
                spec = BinaryThresholdSpec(
                    mean0=e.state0.mean[0],
                    mean1=e.state1.mean[0],
                    var0=e.state0.cov[0, 0],
                    var1=e.state1.cov[0, 0],
                    theta=theta_e,
                    prior0=0.5,
                )
                info = mutual_information(build_channel(spec), 0.5)
                assert info <= chi + 1e-9

    def test_whitening_agrees_with_direct_route(self):
        # correlated covariance exercises the rotation; the direct route
        # synthesizes the mixture in the Fock engine at a fixed cutoff,
        # without the whitening that the Gram route does implicitly
        cov = [[0.9, 0.2], [0.2, 0.7]]
        correlated = EveEnsemble(
            state0=GaussianStateOneMode((-0.4, 0.1), cov),
            state1=GaussianStateOneMode((0.4, -0.1), cov),
            prior0=0.4,
        )

        def hard(p0):
            # large displacement and squeezing, where a column recurrence
            # for the displacement matrix elements collapses to chi = 0
            base = fig_base(eta=0.3, alpha_q=5.0, r=1.0, prior0=p0)
            return eve_ensemble(PrivateScenario(base=base, theta=0.0), 9.0)

        for e, dim in [(correlated, 90), (hard(0.3), 160), (hard(0.05), 160)]:
            p0 = e.prior0
            chi = holevo_chi(e)
            rho0 = gaussian_to_fock(e.state0, dim)
            rho1 = gaussian_to_fock(e.state1, dim)
            mix = FockDensity(dim, p0 * rho0.entries + (1.0 - p0) * rho1.entries)
            direct = von_neumann_entropy(mix)
            direct -= p0 * gaussian_entropy(e.state0) + (1.0 - p0) * gaussian_entropy(e.state1)
            assert abs(chi - direct) <= 1e-6


class TestPrivateRate:
    def test_unit_transmissivity_is_mutual_information(self):
        base = fig_base(eta=1.0)
        rate = private_rate(PrivateScenario(base=base, theta=0.5), 0.7)
        assert rate == mutual_information(classical_channel(base, 0.5, 0.7), 0.5)

    def test_receiver_difference_identity(self):
        # chi is constant in receiver noise, so rate differences are
        # exactly mutual-information differences
        base = fig_base(site=SITE_RECEIVER)
        s = PrivateScenario(base=base, theta=1.2)
        lhs = private_rate(s, 0.9) - private_rate(s, 0.0)
        rhs = mutual_information(classical_channel(base, 1.2, 0.9), 0.5)
        rhs -= mutual_information(classical_channel(base, 1.2, 0.0), 0.5)
        assert lhs == rhs

    def test_receiver_forbidden_set_is_that_of_mutual_information(self):
        # The forbidden-interval theorem is stated for mutual information
        # (Kosko and Mitaim, "Stochastic resonance in noisy threshold
        # neurons", Neural Networks 16, 2003).  At the receiver site the rate
        # moves exactly with I(A:B), whose forbidden set is not the P_s
        # interval: at theta = 1.0, outside +-0.9551, noise raises P_s but
        # only lowers I(A:B); at theta = 1.2 it raises I(A:B) too.
        base = fig_base(site=SITE_RECEIVER)
        assert forbidden_interval_classical(base).hi == pytest.approx(0.9551, abs=5e-5)
        sigma2s = [(0.02 * k) ** 2 for k in range(1, 251)]

        def best_gain(curve):
            return max(curve(sigma2) for sigma2 in sigma2s) - curve(0.0)

        def info(theta):
            return lambda sigma2: mutual_information(classical_channel(base, theta, sigma2), 0.5)

        success_gain = best_gain(lambda sigma2: success_classical(base, 1.0, sigma2))
        assert success_gain == pytest.approx(8.18e-4, abs=5e-6)
        assert -1e-5 < best_gain(info(1.0)) < 0.0
        assert best_gain(info(1.2)) == pytest.approx(3.2e-3, abs=5e-5)

    def test_can_be_negative(self):
        assert private_rate(PrivateScenario(base=fig_base(), theta=2.5), 0.0) < 0.0

    def test_never_exceeds_mutual_information(self):
        base = fig_base()
        for theta, sigma2 in [(0.0, 0.0), (0.5, 0.5), (1.5, 2.0)]:
            s = PrivateScenario(base=base, theta=theta)
            info = mutual_information(classical_channel(base, theta, sigma2), 0.5)
            assert private_rate(s, sigma2) <= info + 1e-12

    def test_sender_noise_kills_both_terms(self):
        # both terms decay like 1/sigma^2; they dip below 1e-3 around
        # sigma = 40 (at sigma in {5, 10, 20} they are still 3e-2..2e-3)
        base = fig_base()
        s = PrivateScenario(base=base, theta=1.0)
        infos, chis = [], []
        for sigma in (5.0, 10.0, 20.0, 40.0):
            infos.append(mutual_information(classical_channel(base, 1.0, sigma**2), 0.5))
            chis.append(holevo_chi(eve_ensemble(s, sigma**2)))
        assert all(b < a for a, b in zip(infos, infos[1:]))
        assert all(b < a for a, b in zip(chis, chis[1:]))
        assert infos[-1] <= 1e-3
        assert chis[-1] <= 1e-3


class TestConjectureProbe:
    def test_rejects_receiver_site(self):
        s = PrivateScenario(base=fig_base(site=SITE_RECEIVER), theta=0.0)
        with pytest.raises(DomainError):
            conjecture_probe(s, [0.0], [0.0, 0.5, 1.0])

    def test_rejects_empty_inputs(self):
        s = PrivateScenario(base=fig_base(), theta=0.0)
        with pytest.raises(DomainError):
            conjecture_probe(s, [], [0.0, 0.5])
        with pytest.raises(DomainError):
            conjecture_probe(s, [0.0], [])

    def test_rejects_other_scenarios(self):
        with pytest.raises(DomainError, match="ClassicalScenario or a PrivateScenario"):
            conjecture_probe("lossy", [0.0], [0.0, 0.5])

    def test_theta_free_input_matches_private_scenario(self):
        # the probe never reads a PrivateScenario's own theta
        grid = [0.25 * k for k in range(5)]
        assert conjecture_probe(fig_base(), [0.0, 1.0], grid) == conjecture_probe(
            PrivateScenario(base=fig_base(), theta=2.0), [0.0, 1.0], grid
        )

    def test_rejects_bad_grid(self):
        s = PrivateScenario(base=fig_base(), theta=0.0)
        with pytest.raises(DomainError):
            conjecture_probe(s, [0.0], [0.5, 0.5, 1.0])
        with pytest.raises(DomainError):
            conjecture_probe(s, [0.0], [-0.5, 0.5])

    def test_sender_gains_flagged(self):
        s = PrivateScenario(base=fig_base(), theta=0.0)
        grid = [0.25 * k for k in range(13)]
        results = conjecture_probe(s, [0.0, 1.0], grid)
        assert [r.theta for r in results] == [0.0, 1.0]
        for r in results:
            assert isinstance(r, RateProbeResult)
            assert r.nonmonotonic
            assert r.gain > 1e-6
            assert r.argmax_sigma > 0.0
        # the theta=0 peak sits near sigma = 0.18 once refined
        assert abs(results[0].argmax_sigma - 0.18) <= 0.1

    def test_unit_transmissivity_not_flagged_inside(self):
        # with no leak the rate is plain mutual information, monotone for
        # thresholds inside the no-resonance interval
        s = PrivateScenario(base=fig_base(eta=1.0), theta=0.0)
        grid = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
        for r in conjecture_probe(s, [0.0, 0.3, 0.6], grid):
            assert not r.nonmonotonic


class TestSharedChi:
    def test_probe_chi_calls_independent_of_theta_count(self, monkeypatch):
        chi_calls, golden_evals = [], []
        original_chi = private_rate_module.holevo_chi
        original_golden = private_rate_module.golden_max

        def counted_chi(e):
            chi_calls.append(e)
            return original_chi(e)

        def counted_golden(f, lo, hi, **kwargs):
            def g(x):
                golden_evals.append(x)
                return f(x)

            # the probe evaluates the refined point once more after the search
            golden_evals.append(None)
            return original_golden(g, lo, hi, **kwargs)

        monkeypatch.setattr(private_rate_module, "holevo_chi", counted_chi)
        monkeypatch.setattr(private_rate_module, "golden_max", counted_golden)
        s = PrivateScenario(base=fig_base(), theta=0.0)
        grid = [0.25 * k for k in range(9)]
        for thetas in ([0.0], [0.0, 1.0, 2.0, 2.5]):
            chi_calls.clear()
            golden_evals.clear()
            conjecture_probe(s, thetas, grid)
            assert golden_evals
            assert len(chi_calls) == len(grid) + len(golden_evals)

    def test_rate_helper_matches_private_rate(self):
        s = PrivateScenario(base=fig_base(), theta=0.7)
        sigmas = [0.0, 0.5, 1.0]
        chi_at = private_rate_module._chi_by_sigma2(s.base, sigmas)
        for sig in sigmas:
            value = private_rate_module._rate(s.base, s.theta, sig * sig, chi_at[sig * sig])
            assert value == private_rate(s, sig * sig)

    def test_receiver_site_shares_one_chi(self, monkeypatch):
        s = PrivateScenario(base=fig_base(site=SITE_RECEIVER), theta=0.0)
        seen = []

        def counted(e):
            seen.append(e)
            return holevo_chi(e)

        monkeypatch.setattr(private_rate_module, "holevo_chi", counted)
        sigmas = [0.0, 0.5, 1.0]
        chi_at = private_rate_module._chi_by_sigma2(s.base, sigmas)
        # the one χ is taken on the eavesdropper's noiseless (σ_E² = 0) ensemble
        noiseless = eve_ensemble(PrivateScenario(base=fig_base(), theta=0.0), 0.0)
        assert len(seen) == 1
        for got, want in ((seen[0].state0, noiseless.state0), (seen[0].state1, noiseless.state1)):
            assert np.array_equal(got.mean, want.mean)
            assert np.array_equal(got.cov, want.cov)
        assert [chi_at[sig * sig] for sig in sigmas] == [holevo_chi(noiseless)] * 3


def cahill_glauber(m, n, x):
    """<m|D(sqrt x)|n> from the finite Laguerre sum, exact until the last rounding.

    The sum runs in rationals (no cancellation) and the prefactor
    e^{-x/2} x^{j/2} sqrt(k!/(k+j)!) in 60-digit decimals, whose exponent
    range holds e^{-x/2} long after a double underflows.
    """
    j, k = abs(m - n), min(m, n)
    xf = Fraction(x)
    lag = sum(
        Fraction((-1) ** i * math.comb(k + j, k - i)) * xf**i / math.factorial(i)
        for i in range(k + 1)
    )
    with localcontext() as ctx:
        ctx.prec = 60
        xd = Decimal(x)
        value = (-xd / 2).exp() * xd.sqrt() ** j
        value *= (Decimal(math.factorial(k)) / Decimal(math.factorial(k + j))).sqrt()
        value *= Decimal(lag.numerator) / Decimal(lag.denominator)
    sign = -1.0 if m < n and j % 2 else 1.0
    return sign * float(value)


def tail_bound(tail, nu, prior0):
    """The truncation bound stated in _mixture_entropy: h(eps) + eps (h(p0) + g(nu))."""
    g = gaussian_entropy(GaussianStateOneMode((0.0, 0.0), [[nu, 0.0], [0.0, nu]]))
    return h2(tail) + tail * (h2(prior0) + g)


class TestGramRoute:
    @pytest.mark.parametrize("gamma", [0.7, 2.0, 5.6])
    def test_diagonal_recurrence_matches_laguerre_sum(self, gamma):
        x = gamma * gamma
        block = private_rate_module._displacement_block(x, 16)
        for m in range(16):
            for n in range(16):
                assert abs(block[m, n] - cahill_glauber(m, n, x)) <= 1e-13

    @pytest.mark.parametrize("gamma", [0.7, 2.0, 5.6])
    def test_diagonal_recurrence_matches_fock_engine(self, gamma):
        block = private_rate_module._displacement_block(gamma * gamma, 60)
        reference = _displacement(complex(gamma), *_ladder_arrays(400))[:60, :60]
        assert np.max(np.abs(block - reference)) <= 1e-12

    def test_underflowing_start_is_not_zero(self):
        # at x = 1600 the diagonal starts with j < 40 lie below the double
        # range (e^-800 at j = 0), yet past n = x/4 those diagonals hold
        # elements of order 0.03
        x, dim = 1600.0, 500
        block = private_rate_module._displacement_block(x, dim)
        for m, n in [(499, 499), (450, 430), (430, 450), (480, 300), (100, 90)]:
            want = cahill_glauber(m, n, x)
            assert abs(block[m, n] - want) <= 1e-12
        assert abs(block[499, 499]) > 1e-3
        assert abs(block[450, 430]) > 1e-3

    @pytest.mark.parametrize(
        "overrides, sigma2",
        [({}, 9.0), (dict(eta=0.3, alpha_q=5.0, r=1.0, prior0=0.3), 9.0),
         (dict(eta=0.3, alpha_q=5.0, r=1.0, prior0=0.05), 1.0)],
    )
    def test_doubling_the_cutoff_stays_within_the_bound(self, overrides, sigma2):
        e = eve_ensemble(PrivateScenario(base=fig_base(**overrides), theta=0.0), sigma2)
        nu = symplectic_eigenvalue(e.state0)
        q = (nu - 0.5) / (nu + 0.5)
        dq = e.state1.mean[0] - e.state0.mean[0]
        x = e.state0.cov[1, 1] * dq * dq / (2.0 * nu)
        for dim in (4, 8, 16):
            coarse = private_rate_module._gram_entropy(nu, e.prior0, x, dim)
            fine = private_rate_module._gram_entropy(nu, e.prior0, x, 2 * dim)
            bound = tail_bound(q**dim, nu, e.prior0) + tail_bound(q ** (2 * dim), nu, e.prior0)
            assert abs(coarse - fine) <= bound

    def test_stated_bound_at_the_largest_cutoff(self):
        # the n-bar at which a 1e-12 tail needs exactly MAX_CUTOFF levels
        nbar = 1.0 / (1e-12 ** (-1.0 / MAX_CUTOFF) - 1.0)
        assert tail_bound(1e-12, nbar + 0.5, 0.5) <= 5.2e-11

    def test_cutoff_error_before_any_matrix(self, monkeypatch):
        def refuse(_):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        e = eve_ensemble(PrivateScenario(base=fig_base(), theta=0.0), 1e6)
        with pytest.raises(CutoffError) as info:
            holevo_chi(e)
        message = str(info.value)
        assert "cutoff" in message
        assert str(MAX_CUTOFF) in message
        assert "n̄ = 223" in message

    def test_gram_limit_below_max_cutoff(self, monkeypatch):
        # sigma = 200 needs K = 1236 <= MAX_CUTOFF, past the Gram route's limit
        def refuse(*_):
            raise AssertionError("Gram matrix built")

        monkeypatch.setattr(private_rate_module, "_gram_entropy", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        e = eve_ensemble(PrivateScenario(base=fig_base(), theta=0.0), 200.0**2)
        with pytest.raises(CutoffError) as info:
            holevo_chi(e)
        message = str(info.value)
        assert private_rate_module._GRAM_MAX_CUTOFF < 1236 <= MAX_CUTOFF
        assert "thermal cutoff 1236" in message
        assert "n̄ = 44.22" in message
        assert f"limit {private_rate_module._GRAM_MAX_CUTOFF}" in message

    def test_grid_past_the_gram_limit_fails_before_any_chi(self, monkeypatch):
        # sigma 170 needs K = 1051; sigma 100 alone would be a 0.4 s chi
        def refuse(*_):
            raise AssertionError("a chi below the limit was computed first")

        monkeypatch.setattr(private_rate_module, "_gram_entropy", refuse)
        s = PrivateScenario(base=fig_base(), theta=0.0)
        with pytest.raises(CutoffError, match="limit"):
            private_rate_module._chi_by_sigma2(s.base, [100.0, 170.0])


class TestExtremeParameters:
    def test_squeezing_past_the_float_range_is_a_domain_error(self):
        # e^(2r) overflows from r ~ 355
        with pytest.raises(DomainError, match=r"r = 400.0 is too large"):
            eve_ensemble(fig_base(r=400.0), 0.0)

    @pytest.mark.parametrize("site, alpha_q", [(SITE_RECEIVER, 1e155), (SITE_SENDER, 1e100)])
    def test_overlap_past_the_float_range_is_a_cutoff_error(self, site, alpha_q):
        # at 1e155 x overflows to inf, where chi is 1 bit and not the 0.0 a NaN
        # block gives; at 1e100 and sigma 1 the Laguerre recurrence of the
        # 9-level block outgrows its rescale
        with pytest.raises(CutoffError, match="orthogonal to float precision"):
            holevo_chi(eve_ensemble(fig_base(site=site, alpha_q=alpha_q), 1.0))

    @pytest.mark.parametrize("site, alpha_q", [(SITE_RECEIVER, 1e154), (SITE_SENDER, 1e50)])
    def test_largest_working_amplitudes_give_one_bit(self, site, alpha_q):
        chi = holevo_chi(eve_ensemble(fig_base(site=site, alpha_q=alpha_q), 1.0))
        assert abs(chi - 1.0) <= 5.2e-11
