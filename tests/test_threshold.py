"""Tests for the threshold-decoding engine."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srbosonic.errors import DomainError
from srbosonic.threshold import (
    ORIENT_ABOVE,
    ORIENT_BELOW,
    BinaryThresholdSpec,
    ThresholdChannel,
    build_channel,
    gauss_tail,
    mc_success_probability,
    mutual_information,
    success_probability,
)

# Frozen by numerical integration of the Gaussian density (scipy.integrate.quad,
# abs tolerance < 1e-13), independent of the erfc-based implementation.
GAUSS_TAIL_1 = 0.15865525393145707
P00_LOSSY = 0.8970483946339658  # mean +/-sqrt(0.8), var 0.5, theta 0
MI_LOSSY = 0.5217172633138044  # 1 - H2(P00_LOSSY)


def lossy_spec(theta=0.0, prior0=0.5):
    m = math.sqrt(0.8)
    return BinaryThresholdSpec(
        mean0=-m, mean1=+m, var0=0.5, var1=0.5, theta=theta, prior0=prior0
    )


class TestGaussTail:
    def test_symmetry_point(self):
        assert gauss_tail(0.0, 0.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_total_mass_limit(self):
        assert gauss_tail(40.0, 0.0, 1.0) < 1e-300
        assert gauss_tail(-40.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_standard_normal_tail(self):
        assert gauss_tail(1.0, 0.0, 1.0) == pytest.approx(GAUSS_TAIL_1, abs=1e-13)

    def test_shift_and_scale(self):
        # P(G >= x) for N(mu, v) equals the standardized tail.
        assert gauss_tail(2.0, 1.0, 4.0) == pytest.approx(
            gauss_tail(0.5, 0.0, 1.0), abs=1e-15
        )

    def test_rejects_bad_variance(self):
        with pytest.raises(DomainError):
            gauss_tail(0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            gauss_tail(0.0, 0.0, -1.0)


class TestBuildChannel:
    def test_lossy_symmetric_example(self):
        ch = build_channel(lossy_spec())
        assert ch.p00 == pytest.approx(P00_LOSSY, abs=1e-13)
        assert ch.p11 == pytest.approx(P00_LOSSY, abs=1e-13)
        # Cross-check against gauss_tail directly.
        assert ch.p11 == pytest.approx(gauss_tail(0.0, math.sqrt(0.8), 0.5), abs=1e-15)

    def test_indistinguishable_signals(self):
        spec = BinaryThresholdSpec(0.0, 0.0, 0.3, 0.7, theta=0.0, prior0=0.5)
        ch = build_channel(spec)
        assert ch.p00 + ch.p11 == pytest.approx(1.0, abs=1e-15)

    def test_extreme_threshold(self):
        spec = lossy_spec(theta=60.0)
        ch = build_channel(spec)
        assert ch.p00 == pytest.approx(1.0, abs=1e-15)
        assert ch.p11 == pytest.approx(0.0, abs=1e-300)

    def test_below_orientation_swaps_roles(self):
        above = build_channel(lossy_spec(theta=0.3))
        spec = lossy_spec(theta=0.3)
        below = build_channel(
            BinaryThresholdSpec(
                mean0=spec.mean0,
                mean1=spec.mean1,
                var0=spec.var0,
                var1=spec.var1,
                theta=spec.theta,
                prior0=spec.prior0,
                orientation=ORIENT_BELOW,
            )
        )
        assert below.p00 == pytest.approx(1.0 - above.p00, abs=1e-15)
        assert below.p11 == pytest.approx(1.0 - above.p11, abs=1e-15)

    def test_rejects_zero_variance(self):
        spec = BinaryThresholdSpec(-1.0, 1.0, 0.0, 0.5, theta=0.0, prior0=0.5)
        with pytest.raises(DomainError):
            build_channel(spec)

    @given(
        theta_lo=st.floats(-3, 3),
        dtheta=st.floats(1e-6, 3),
        m=st.floats(-2, 2),
        v=st.floats(0.01, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_threshold(self, theta_lo, dtheta, m, v):
        lo = BinaryThresholdSpec(-m, m, v, v, theta=theta_lo, prior0=0.5)
        hi = BinaryThresholdSpec(-m, m, v, v, theta=theta_lo + dtheta, prior0=0.5)
        ch_lo, ch_hi = build_channel(lo), build_channel(hi)
        assert ch_hi.p00 >= ch_lo.p00 - 1e-15
        assert ch_hi.p11 <= ch_lo.p11 + 1e-15


class TestSuccessProbability:
    def test_from_lossy_example(self):
        ch = build_channel(lossy_spec())
        assert success_probability(ch, 0.5) == pytest.approx(P00_LOSSY, abs=1e-13)

    def test_uninformative_channel(self):
        ch = ThresholdChannel(0.5, 0.5)
        for p in (0.0, 0.3, 0.5, 1.0):
            assert success_probability(ch, p) == 0.5

    def test_deterministic_prior(self):
        assert success_probability(ThresholdChannel(1.0, 0.0), 1.0) == 1.0

    @given(
        p00=st.floats(0, 1),
        p11=st.floats(0, 1),
        q00=st.floats(0, 1),
        q11=st.floats(0, 1),
        w=st.floats(0, 1),
        prior0=st.floats(0, 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_affine_in_channel(self, p00, p11, q00, q11, w, prior0):
        mix = ThresholdChannel(w * p00 + (1 - w) * q00, w * p11 + (1 - w) * q11)
        blended = w * success_probability(ThresholdChannel(p00, p11), prior0) + (
            1 - w
        ) * success_probability(ThresholdChannel(q00, q11), prior0)
        assert success_probability(mix, prior0) == pytest.approx(blended, abs=1e-12)

    def test_rejects_bad_prior(self):
        with pytest.raises(DomainError):
            success_probability(ThresholdChannel(0.5, 0.5), 1.5)


class TestMutualInformation:
    def test_independent_channel(self):
        assert mutual_information(ThresholdChannel(0.5, 0.5), 0.5) == 0.0

    def test_noiseless_channel(self):
        assert mutual_information(ThresholdChannel(1.0, 1.0), 0.5) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_lossy_example(self):
        ch = build_channel(lossy_spec())
        assert mutual_information(ch, 0.5) == pytest.approx(MI_LOSSY, abs=1e-12)

    def test_zero_iff_output_independent(self):
        # p00 + p11 = 1 means P(Y|X=0) = P(Y|X=1).
        for p00 in (0.1, 0.37, 0.5, 0.9):
            assert mutual_information(ThresholdChannel(p00, 1.0 - p00), 0.3) <= 1e-15
        assert mutual_information(ThresholdChannel(0.8, 0.7), 0.3) > 1e-3

    @given(p00=st.floats(0, 1), p11=st.floats(0, 1), prior0=st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_bounds_and_zero_characterization(self, p00, p11, prior0):
        mi = mutual_information(ThresholdChannel(p00, p11), prior0)
        assert 0.0 <= mi <= 1.0 + 1e-12
        if abs(p00 + p11 - 1.0) < 1e-12:
            assert mi <= 1e-9


class TestMonteCarlo:
    def test_matches_analytic_lossy(self):
        spec = lossy_spec()
        est = mc_success_probability(spec, 10**6, seed=42)
        exact = success_probability(build_channel(spec), 0.5)
        assert abs(est.estimate - exact) <= 3.0 * est.std_error
        assert est.std_error == pytest.approx(
            math.sqrt(est.estimate * (1 - est.estimate) / 10**6), abs=1e-12
        )

    def test_no_signal_gives_half(self):
        spec = BinaryThresholdSpec(0.0, 0.0, 1.0, 1.0, theta=0.0, prior0=0.5)
        est = mc_success_probability(spec, 10**6, seed=7)
        assert abs(est.estimate - 0.5) <= 3.0 * est.std_error

    def test_below_orientation(self):
        m = math.sqrt(0.8)
        spec = BinaryThresholdSpec(
            +m, -m, 0.5, 0.5, theta=0.0, prior0=0.5, orientation=ORIENT_BELOW
        )
        est = mc_success_probability(spec, 10**6, seed=11)
        exact = success_probability(build_channel(spec), 0.5)
        assert exact == pytest.approx(P00_LOSSY, abs=1e-13)
        assert abs(est.estimate - exact) <= 3.0 * est.std_error

    def test_seed_determinism(self):
        spec = lossy_spec(theta=0.4, prior0=0.3)
        a = mc_success_probability(spec, 50_000, seed=123)
        b = mc_success_probability(spec, 50_000, seed=123)
        assert a == b
        c = mc_success_probability(spec, 50_000, seed=124)
        assert c.estimate != a.estimate

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            mc_success_probability(lossy_spec(), 0, seed=1)

    def test_numpy_integer_counts_accepted(self):
        # numpy integers stand for Python ints, also past Philox.advance
        est = mc_success_probability(lossy_spec(), np.int64(10), np.int64(0))
        assert est == mc_success_probability(lossy_spec(), 10, 0)
        assert type(est.n_samples) is int and type(est.seed) is int


class TestValidation:
    def test_spec_rejects_bad_prior(self):
        with pytest.raises(DomainError):
            BinaryThresholdSpec(0, 1, 1, 1, theta=0.0, prior0=-0.1)

    def test_spec_rejects_negative_variance(self):
        with pytest.raises(DomainError):
            BinaryThresholdSpec(0, 1, -1.0, 1, theta=0.0, prior0=0.5)

    def test_spec_rejects_nan(self):
        with pytest.raises(DomainError):
            BinaryThresholdSpec(math.nan, 1, 1, 1, theta=0.0, prior0=0.5)

    def test_spec_rejects_unknown_orientation(self):
        with pytest.raises(DomainError):
            BinaryThresholdSpec(0, 1, 1, 1, theta=0.0, prior0=0.5, orientation="up")

    def test_channel_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ThresholdChannel(1.2, 0.5)

    def test_orientation_constants(self):
        assert ORIENT_ABOVE == "above"
        assert ORIENT_BELOW == "below"


def one_shot_mc_estimate(spec, n, seed):
    # the single-draw form of the estimator, kept as the reference stream
    rng = np.random.Generator(np.random.Philox(seed))
    is_one = rng.random(n) >= spec.prior0
    noise = rng.standard_normal(n)
    outcome = np.where(
        is_one,
        spec.mean1 + math.sqrt(spec.var1) * noise,
        spec.mean0 + math.sqrt(spec.var0) * noise,
    )
    if spec.orientation == ORIENT_ABOVE:
        decoded_one = outcome >= spec.theta
    else:
        decoded_one = outcome <= spec.theta
    return float(np.mean(decoded_one == is_one))


class TestMonteCarloBlocks:
    @pytest.mark.parametrize("n", [1, 2, 6, 16386, 65535, 65536, 65537, 65538, 200003])
    @pytest.mark.parametrize("orientation", [ORIENT_ABOVE, ORIENT_BELOW])
    @pytest.mark.parametrize("seed", [7, 42])
    def test_blocks_match_one_shot_draw(self, n, orientation, seed):
        spec = BinaryThresholdSpec(
            -0.9, 0.9, 0.7, 0.9, theta=0.1, prior0=0.3, orientation=orientation
        )
        est = mc_success_probability(spec, n, seed)
        assert est.estimate == one_shot_mc_estimate(spec, n, seed)

    def test_peak_memory_is_bounded(self):
        # numpy reports its buffers to tracemalloc; one n-sized float
        # array alone is 8 MB at n = 10**6
        spec = lossy_spec(theta=0.2, prior0=0.4)
        tracemalloc.start()
        try:
            mc_success_probability(spec, 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_peak_memory_does_not_grow_with_n(self):
        # at n = 4 * 10**6 the one-shot draw holds a 32 MB float array;
        # block by block the working set is one block whatever n
        spec = lossy_spec(theta=0.2, prior0=0.4)
        tracemalloc.start()
        try:
            mc_success_probability(spec, 4 * 10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
