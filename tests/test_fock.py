"""Tests for the truncated Fock-space engine.

Oracles are closed forms throughout: coherent and squeezed vacuum matrix
elements, thermal entropy, quadrature moments of constructed covariance
matrices.  Moment extraction on the test side is written from scratch so
gaussian_to_fock's internal self-check is not the thing checking itself.
"""

import importlib
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from srbosonic.errors import CutoffError, DomainError
from srbosonic.fock import (
    MAX_CUTOFF,
    FockDensity,
    GaussianStateOneMode,
    _displacement,
    _ladder_arrays,
    _squeeze,
    converged_fock_density,
    gaussian_entropy,
    gaussian_to_fock,
    suggest_cutoff,
    symplectic_eigenvalue,
    thermal_state,
    von_neumann_entropy,
)

fock_module = importlib.import_module("srbosonic.fock")


def quadrature_moments(entries):
    """Independent (q̄, p̄, var_q, var_p, cov_qp) from a density matrix."""
    dim = entries.shape[0]
    n = np.arange(1, dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[n - 1, n] = np.sqrt(n)
    q = (a + a.conj().T) / math.sqrt(2)
    p = -1j * (a - a.conj().T) / math.sqrt(2)

    def tr(op):
        return float(np.einsum("ij,ji->", entries, op).real)

    mean_q, mean_p = tr(q), tr(p)
    return (
        mean_q,
        mean_p,
        tr(q @ q) - mean_q * mean_q,
        tr(p @ p) - mean_p * mean_p,
        0.5 * tr(q @ p + p @ q) - mean_q * mean_p,
    )


def rotated_cov(nu, s, phi):
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return nu * rot @ np.diag([math.exp(-2 * s), math.exp(2 * s)]) @ rot.T


def vacuum_state():
    return GaussianStateOneMode((0.0, 0.0), [[0.5, 0.0], [0.0, 0.5]])


class TestLadder:
    """The ladder arrays, and the cutoff rule a build checks before it allocates them."""

    def test_dim_two_exact(self):
        a, adag = _ladder_arrays(2)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(adag, a.conj().T)

    def test_number_operator_diagonal(self):
        a, adag = _ladder_arrays(9)
        number = adag @ a
        assert np.allclose(np.diag(number).real, np.arange(9), atol=1e-14)
        assert np.allclose(number - np.diag(np.diag(number)), 0.0, atol=0.0)

    def test_commutator_has_corner_artifact(self):
        # [a, a†] = I everywhere except the last diagonal entry, which
        # carries the truncation artifact 1 - dim
        dim = 6
        a, adag = _ladder_arrays(dim)
        comm = a @ adag - adag @ a
        want = np.eye(dim, dtype=complex)
        want[dim - 1, dim - 1] = 1 - dim
        assert np.allclose(comm, want, atol=1e-12)

    def test_small_dim_rejected(self):
        with pytest.raises(DomainError):
            gaussian_to_fock(vacuum_state(), 1)
        with pytest.raises(DomainError):
            gaussian_to_fock(vacuum_state(), 2.0)
        with pytest.raises(DomainError):
            gaussian_to_fock(vacuum_state(), 8.0)
        with pytest.raises(DomainError):
            gaussian_to_fock(vacuum_state(), True)

    def test_numpy_integer_dim_accepted(self):
        rho = gaussian_to_fock(vacuum_state(), np.int64(8))
        assert type(rho.dim) is int and rho.dim == 8
        assert np.array_equal(rho.entries, gaussian_to_fock(vacuum_state(), 8).entries)


class TestDisplacement:
    def test_zero_is_identity(self):
        d = _displacement(0j, *_ladder_arrays(12))
        assert np.allclose(d, np.eye(12), atol=1e-14)

    @pytest.mark.parametrize("beta", [0.3, 1.0, 2.0, 1.2 - 1.6j, 0.5j])
    def test_vacuum_element(self, beta):
        # |<0|D(beta)|0>| = exp(-|beta|^2/2)
        d = _displacement(complex(beta), *_ladder_arrays(100))
        assert abs(abs(d[0, 0]) - math.exp(-abs(beta) ** 2 / 2)) <= 1e-8

    @pytest.mark.parametrize("beta", [0.7, 1.2 - 0.5j, 2 + 1j])
    def test_low_block_matches_cahill_glauber(self, beta):
        # closed-form <m|D(beta)|n> (Cahill & Glauber, Phys. Rev. 177, 1969)
        # pins phases and off-diagonal elements, not just |<0|D|0>|
        def laguerre(n, k, x):
            # associated Laguerre L_n^(k)(x) as its finite sum
            return sum(
                (-1) ** j * math.comb(n + k, n - j) * x**j / math.factorial(j)
                for j in range(n + 1)
            )

        beta = complex(beta)
        x = abs(beta) ** 2
        d = _displacement(beta, *_ladder_arrays(80))
        for m in range(8):
            for n in range(8):
                if m >= n:
                    want = math.sqrt(math.factorial(n) / math.factorial(m))
                    want *= beta ** (m - n) * laguerre(n, m - n, x)
                else:
                    want = math.sqrt(math.factorial(m) / math.factorial(n))
                    want *= (-beta.conjugate()) ** (n - m) * laguerre(m, n - m, x)
                assert abs(d[m, n] - want * math.exp(-x / 2)) <= 1e-10

    def test_group_inverse(self):
        beta = 0.8 + 0.3j
        prod = _displacement(beta, *_ladder_arrays(60)) @ _displacement(-beta, *_ladder_arrays(60))
        assert np.max(np.abs(prod - np.eye(60))) <= 1e-8

    def test_unitary_on_block(self):
        d = _displacement(1.5 + 0j, *_ladder_arrays(80))
        assert np.max(np.abs(d.conj().T @ d - np.eye(80))) <= 1e-8


class TestSqueeze:
    def test_zero_is_identity(self):
        s = _squeeze(0.0, *_ladder_arrays(12))
        assert np.allclose(s, np.eye(12), atol=1e-14)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_vacuum_element(self, r):
        # |<0|S(r)|0>| = 1/sqrt(cosh r)
        s = _squeeze(r, *_ladder_arrays(120))
        assert abs(abs(s[0, 0]) - 1.0 / math.sqrt(math.cosh(r))) <= 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_two_photon_element_sign(self, r):
        # <2|S(r)|0> = -tanh(r)/sqrt(2 cosh r): pins the generator sign,
        # not just its magnitude
        s = _squeeze(r, *_ladder_arrays(120))
        want = -math.tanh(r) / math.sqrt(2.0 * math.cosh(r))
        assert abs(s[2, 0] - want) <= 1e-8

    @pytest.mark.parametrize("r,dim", [(0.5, 80), (1.5, 280)])
    def test_position_variance(self, r, dim):
        # squeezed vacuum: var_q = exp(-2r)/2; the r=1.5 state needs a
        # deep cutoff because its p-quadrature variance is e^3/2
        psi = _squeeze(r, *_ladder_arrays(dim))[:, 0]
        rho = np.outer(psi, psi.conj())
        _, _, var_q, var_p, _ = quadrature_moments(rho)
        assert abs(var_q - math.exp(-2 * r) / 2) <= 1e-8
        assert abs(var_p - math.exp(2 * r) / 2) <= 1e-6


class TestThermal:
    def test_zero_is_vacuum(self):
        t = thermal_state(0.0, 8)
        want = np.zeros((8, 8), dtype=complex)
        want[0, 0] = 1.0
        assert np.array_equal(t.entries, want)

    def test_unit_nbar_entropy(self):
        # (nbar+1)log2(nbar+1) - nbar log2(nbar) = 2 bits at nbar = 1
        t = thermal_state(1.0, 50)
        assert abs(von_neumann_entropy(t) - 2.0) <= 1e-9

    def test_mean_photon_number(self):
        t = thermal_state(1.0, 50)
        mean_n = float((np.diag(t.entries).real * np.arange(50)).sum())
        assert abs(mean_n - 1.0) <= 1e-9

    def test_trace_is_one(self):
        t = thermal_state(2.3, 140)
        assert abs(float(np.trace(t.entries).real) - 1.0) <= 1e-14

    def test_heavy_tail_rejected(self):
        with pytest.raises(CutoffError):
            thermal_state(1.0, 20)

    def test_negative_nbar_rejected(self):
        with pytest.raises(DomainError):
            thermal_state(-0.1, 20)


class TestGaussianStateType:
    def test_cov_symmetrized_and_frozen(self):
        g = GaussianStateOneMode((0.1, -0.2), [[0.6, 0.1], [0.1, 0.6]])
        assert g.cov[0, 1] == g.cov[1, 0]
        with pytest.raises(ValueError):
            g.cov[0, 0] = 9.0

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(DomainError):
            GaussianStateOneMode((0.0, 0.0), [[0.6, 0.2], [0.1, 0.6]])

    def test_uncertainty_violation_rejected(self):
        with pytest.raises(DomainError):
            GaussianStateOneMode((0.0, 0.0), [[0.4, 0.0], [0.0, 0.4]])

    def test_bad_mean_rejected(self):
        with pytest.raises(DomainError):
            GaussianStateOneMode((0.0,), [[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(DomainError):
            GaussianStateOneMode((math.inf, 0.0), [[0.5, 0.0], [0.0, 0.5]])

    def test_symplectic_eigenvalue(self):
        assert symplectic_eigenvalue(vacuum_state()) == 0.5
        g = GaussianStateOneMode((0.0, 0.0), [[1.5, 0.0], [0.0, 1.5]])
        assert abs(symplectic_eigenvalue(g) - 1.5) <= 1e-15


class TestGaussianToFock:
    def test_vacuum_projector(self):
        rho = gaussian_to_fock(vacuum_state(), 30)
        want = np.zeros((30, 30), dtype=complex)
        want[0, 0] = 1.0
        assert np.max(np.abs(rho.entries - want)) <= 1e-12

    def test_coherent_state_fidelity(self):
        # mean (sqrt(2) alpha, 0) is the coherent state D(alpha)|0>
        alpha = 1.2
        g = GaussianStateOneMode((math.sqrt(2) * alpha, 0.0), [[0.5, 0.0], [0.0, 0.5]])
        rho = converged_fock_density(g)
        psi = _displacement(complex(alpha), *_ladder_arrays(rho.dim))[:, 0]
        fidelity = float((psi.conj() @ rho.entries @ psi).real)
        assert abs(fidelity - 1.0) <= 1e-8

    def test_squeezed_vacuum_purity(self):
        r = 0.8
        g = GaussianStateOneMode((0.0, 0.0), [[math.exp(-2 * r) / 2, 0.0], [0.0, math.exp(2 * r) / 2]])
        rho = converged_fock_density(g)
        purity = float(np.einsum("ij,ji->", rho.entries, rho.entries).real)
        assert abs(purity - 1.0) <= 1e-7
        assert von_neumann_entropy(rho) <= 1e-6

    def test_rotated_squeezed_thermal_moments(self):
        cov = rotated_cov(1.3, 0.5, 0.7)
        g = GaussianStateOneMode((0.4, -0.8), cov)
        rho = converged_fock_density(g)
        mean_q, mean_p, var_q, var_p, cov_qp = quadrature_moments(rho.entries)
        assert abs(mean_q - 0.4) <= 1e-6
        assert abs(mean_p + 0.8) <= 1e-6
        assert abs(var_q - cov[0, 0]) <= 1e-6
        assert abs(var_p - cov[1, 1]) <= 1e-6
        assert abs(cov_qp - cov[0, 1]) <= 1e-6

    def test_random_states_reproduce_moments(self):
        rng = np.random.Generator(np.random.Philox(77))
        for _ in range(25):
            nu = float(rng.uniform(0.5, 3.0))
            s = float(rng.uniform(0.0, 0.8))
            phi = float(rng.uniform(-math.pi, math.pi))
            mean = tuple(rng.uniform(-2.0, 2.0, size=2))
            cov = rotated_cov(nu, s, phi)
            g = GaussianStateOneMode(mean, cov)
            rho = converged_fock_density(g)
            mean_q, mean_p, var_q, var_p, cov_qp = quadrature_moments(rho.entries)
            assert abs(mean_q - mean[0]) <= 1e-6
            assert abs(mean_p - mean[1]) <= 1e-6
            assert abs(var_q - cov[0, 0]) <= 1e-6
            assert abs(var_p - cov[1, 1]) <= 1e-6
            assert abs(cov_qp - cov[0, 1]) <= 1e-6
            assert 1.0 - float(np.trace(rho.entries).real) <= 1e-8

    def test_small_cutoff_trips_moment_gate(self):
        r = 1.5
        g = GaussianStateOneMode((0.0, 0.0), [[math.exp(-2 * r) / 2, 0.0], [0.0, math.exp(2 * r) / 2]])
        with pytest.raises(CutoffError):
            gaussian_to_fock(g, 30)

    def test_small_cutoff_trips_thermal_tail(self):
        g = GaussianStateOneMode((0.0, 0.0), [[3.0, 0.0], [0.0, 3.0]])
        with pytest.raises(CutoffError):
            gaussian_to_fock(g, 40)

    def test_suggest_cutoff_formula(self):
        assert suggest_cutoff(vacuum_state()) == 30
        g = GaussianStateOneMode((1.0, -1.0), [[1.5, 0.0], [0.0, 1.5]])
        # 20 + 10*2 + 20*1.5 = 70
        assert suggest_cutoff(g) == 70
        # squeezing leaves nu at 1/2 but not the largest variance:
        # 20 + 20 * e^{2.4}/2 = 130.2
        r = 1.2
        g = GaussianStateOneMode((0.0, 0.0), [[math.exp(-2 * r) / 2, 0.0], [0.0, math.exp(2 * r) / 2]])
        assert suggest_cutoff(g) == 131

    def test_adaptive_growth_outgrows_bad_suggestion(self, monkeypatch):
        # from a start of 30 the squeezed vacuum misses its moments (its
        # thermal cutoff is 1, so the tail gate passes every cutoff) until
        # the 25% growth loop reaches 94
        monkeypatch.setattr(fock_module, "suggest_cutoff", lambda g: 30)
        builds = record_builds(monkeypatch)
        r = 1.2
        g = GaussianStateOneMode((0.0, 0.0), [[math.exp(-2 * r) / 2, 0.0], [0.0, math.exp(2 * r) / 2]])
        rho = converged_fock_density(g)
        assert builds == [(30, False), (38, False), (48, False), (60, False), (75, False), (94, True)]
        assert rho.dim == 94
        assert von_neumann_entropy(rho) <= 1e-6
        with pytest.raises(CutoffError, match="moments off"):
            gaussian_to_fock(g, 75)

    def test_adaptive_growth_outgrows_the_thermal_tail(self, monkeypatch):
        # n̄ = 2.5 drops a tail above 1e-12 below cutoff 83, so the tail gate
        # rejects 40, 50, 63 and 79
        monkeypatch.setattr(fock_module, "suggest_cutoff", lambda g: 40)
        builds = record_builds(monkeypatch)
        g = GaussianStateOneMode((0.0, 0.0), [[3.0, 0.0], [0.0, 3.0]])
        assert fock_module._thermal_cutoff(2.5) == 83
        rho = converged_fock_density(g)
        assert builds == [(40, False), (50, False), (63, False), (79, False), (99, True)]
        assert abs(von_neumann_entropy(rho) - gaussian_entropy(g)) <= 4.2e-11
        with pytest.raises(CutoffError, match="thermal tail"):
            gaussian_to_fock(g, 79)


class TestDensityType:
    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            FockDensity(2, [[0.5, 0.3], [0.1, 0.5]])

    def test_bad_trace_rejected(self):
        with pytest.raises(DomainError):
            FockDensity(2, [[0.7, 0.0], [0.0, 0.7]])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(DomainError):
            FockDensity(2, [[1.2, 0.0], [0.0, -0.2]])

    def test_operator_entries_read_only(self):
        rho = thermal_state(0.0, 4)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 1.0


class TestEntropy:
    def test_pure_state_zero(self):
        psi = _displacement(0.9 + 0j, *_ladder_arrays(40))[:, 0]
        rho = FockDensity(40, np.outer(psi, psi.conj()))
        assert von_neumann_entropy(rho) <= 1e-9

    def test_thermal_two_bits(self):
        assert abs(von_neumann_entropy(thermal_state(1.0, 50)) - 2.0) <= 1e-9

    def test_orthogonal_mixture_one_bit(self):
        entries = np.zeros((4, 4), dtype=complex)
        entries[0, 0] = 0.5
        entries[1, 1] = 0.5
        assert abs(von_neumann_entropy(FockDensity(4, entries)) - 1.0) <= 1e-9

    def test_concavity_spot_check(self):
        rng = np.random.Generator(np.random.Philox(31))
        dim = 60
        for _ in range(5):
            nbars = rng.uniform(0.1, 0.8, size=2)
            betas = rng.uniform(-1.0, 1.0, size=2)
            parts = []
            for nbar, beta in zip(nbars, betas):
                d = _displacement(complex(beta), *_ladder_arrays(dim))
                parts.append(d @ thermal_state(float(nbar), dim).entries @ d.conj().T)
            mix = FockDensity(dim, 0.5 * parts[0] + 0.5 * parts[1])
            lhs = von_neumann_entropy(mix)
            rhs = 0.5 * von_neumann_entropy(FockDensity(dim, parts[0]))
            rhs += 0.5 * von_neumann_entropy(FockDensity(dim, parts[1]))
            assert lhs >= rhs - 1e-9


class TestGaussianEntropy:
    def test_vacuum_zero(self):
        assert gaussian_entropy(vacuum_state()) == 0.0

    def test_matches_unit_thermal(self):
        g = GaussianStateOneMode((0.0, 0.0), [[1.5, 0.0], [0.0, 1.5]])
        assert abs(gaussian_entropy(g) - 2.0) <= 1e-12

    def test_mean_independent(self):
        g0 = GaussianStateOneMode((0.0, 0.0), [[0.9, 0.1], [0.1, 0.8]])
        g1 = GaussianStateOneMode((1.7, -0.4), [[0.9, 0.1], [0.1, 0.8]])
        assert gaussian_entropy(g0) == gaussian_entropy(g1)

    @pytest.mark.parametrize(
        "nu", [0.5 + 2.0**-40, 0.75, 1.5, 10.0, 1e3, 1e6, 1e8, 1e10, 1e12, 1e16, 1e50, 1e150]
    )
    def test_matches_decimal_oracle(self, nu):
        # (n̄+1)ln(n̄+1) − n̄ ln n̄ in 200 digits: n̄ ln n̄ is 3.5e152 at
        # ν = 1e150, so the difference keeps more than 40 digits
        g = GaussianStateOneMode((0.0, 0.0), [[nu, 0.0], [0.0, nu]])
        with localcontext() as ctx:
            ctx.prec = 200
            n = Decimal(symplectic_eigenvalue(g)) - Decimal("0.5")
            want = float(((n + 1) * (n + 1).ln() - n * n.ln()) / Decimal(2).ln())
        assert abs(gaussian_entropy(g) - want) <= 1e-14 * want

    def test_cross_oracle_random_states(self):
        # the closed form and the Fock-numeric entropy are independent
        # routes to the same number
        rng = np.random.Generator(np.random.Philox(123))
        for _ in range(20):
            nu = float(rng.uniform(0.5, 2.5))
            s = float(rng.uniform(0.0, 0.7))
            phi = float(rng.uniform(-math.pi, math.pi))
            mean = tuple(rng.uniform(-1.5, 1.5, size=2))
            g = GaussianStateOneMode(mean, rotated_cov(nu, s, phi))
            rho = converged_fock_density(g)
            assert abs(von_neumann_entropy(rho) - gaussian_entropy(g)) <= 1e-6


def h2(p):
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def record_builds(monkeypatch):
    """Wrap gaussian_to_fock; return the list of (dim, accepted) of every build."""
    builds = []
    build = fock_module.gaussian_to_fock

    def counting(g, dim):
        try:
            rho = build(g, dim)
        except CutoffError:
            builds.append((dim, False))
            raise
        builds.append((dim, True))
        return rho

    monkeypatch.setattr(fock_module, "gaussian_to_fock", counting)
    return builds


def cutoff_ladder(start):
    """suggest_cutoff's start grown 25% at a time, up to MAX_CUTOFF."""
    dims = []
    while start <= MAX_CUTOFF:
        dims.append(start)
        start = int(math.ceil(start * 1.25))
    return dims


class TestOneAcceptedBuild:
    def test_coherent_state_needs_one_build(self, monkeypatch):
        # the state of test_coherent_state_fidelity passes at its first cutoff
        builds = record_builds(monkeypatch)
        g = GaussianStateOneMode((math.sqrt(2) * 1.2, 0.0), [[0.5, 0.0], [0.0, 0.5]])
        rho = converged_fock_density(g)
        assert builds == [(suggest_cutoff(g), True)]
        assert rho.dim == suggest_cutoff(g)

    def test_squeezed_vacuum_builds_once_per_rejected_cutoff(self, monkeypatch):
        builds = record_builds(monkeypatch)
        r = 1.2
        g = GaussianStateOneMode((0.0, 0.0), [[math.exp(-2 * r) / 2, 0.0], [0.0, math.exp(2 * r) / 2]])
        rho = converged_fock_density(g)
        dims = [dim for dim, _ in builds]
        # the start reads the squeezed variance e^{2r}/2: 20 + 20 * 5.51
        # rounds up to 131, accepted at once
        assert dims == cutoff_ladder(131)[: len(builds)]
        assert [accepted for _, accepted in builds] == [False] * (len(builds) - 1) + [True]
        assert len(builds) == 1
        assert rho.dim == dims[-1]

    def test_start_above_max_cutoff_builds_nothing(self, monkeypatch):
        def refuse(g, dim):
            raise AssertionError(f"built at cutoff {dim}")

        monkeypatch.setattr(fock_module, "gaussian_to_fock", refuse)
        g = GaussianStateOneMode((25.0, 0.0), [[0.5, 0.0], [0.0, 0.5]])
        assert suggest_cutoff(g) == 6280 > MAX_CUTOFF
        with pytest.raises(CutoffError) as info:
            converged_fock_density(g)
        message = str(info.value)
        assert "starting cutoff 6280" in message
        assert str(MAX_CUTOFF) in message

    def test_huge_finite_states_end_in_library_errors(self, monkeypatch):
        # |mean|² and 20·λ_max overflow to inf: a start past every cutoff,
        # not an OverflowError; a determinant that overflows is refused
        def refuse(g, dim):
            raise AssertionError(f"built at cutoff {dim}")

        monkeypatch.setattr(fock_module, "gaussian_to_fock", refuse)
        for mean, cov in (((1e160, 0.0), [[0.5, 0.0], [0.0, 0.5]]),
                          ((0.0, 0.0), [[1e307, 0.0], [0.0, 1.0]])):
            g = GaussianStateOneMode(mean, cov)
            for call in (suggest_cutoff, converged_fock_density):
                with pytest.raises(CutoffError, match=f"MAX_CUTOFF {MAX_CUTOFF}"):
                    call(g)
        with pytest.raises(DomainError, match="determinant overflows"):
            GaussianStateOneMode((0.0, 0.0), [[1e308, 0.0], [0.0, 1e308]])

    def test_exhaustion_quotes_the_last_gate_failure(self, monkeypatch):
        tried = []

        def reject(g, dim):
            tried.append(dim)
            raise CutoffError(f"moments off at cutoff {dim}")

        monkeypatch.setattr(fock_module, "gaussian_to_fock", reject)
        with pytest.raises(CutoffError) as info:
            converged_fock_density(vacuum_state())
        assert tried == cutoff_ladder(30)
        assert f"moments off at cutoff {tried[-1]}" in str(info.value)


class TestThermalTailCertificate:
    """The spectrum of gaussian_to_fock(g, K) is the renormalized thermal core.

    Then S_K = g(ν) − h(ε)/(1 − ε) exactly, ε = q^K, q = n̄/(n̄+1).  The
    entropy von_neumann_entropy reports also drops the eigenvalues at or
    below 1e-14; that loss is computed here from the weights (≤ 1.1e-12
    bits on these states).  The rounding allowance on top, 1e-13 bits, is
    about 15 times the worst residual measured on these 100 states (7e-15).
    """

    ROUNDING = 1e-13

    def test_spectrum_and_entropy_on_criterion_8_states(self):
        # criterion 8's draws, in its order
        rng = np.random.Generator(np.random.Philox(9))
        for _ in range(100):
            nu = float(rng.uniform(0.5, 2.2))
            s = float(rng.uniform(0.0, 0.9))
            phi = float(rng.uniform(-math.pi, math.pi))
            mean = (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
            g = GaussianStateOneMode(mean, rotated_cov(nu, s, phi))
            rho = converged_fock_density(g)  # gaussian_to_fock(g, K) at the accepted K
            dim = rho.dim
            nbar = symplectic_eigenvalue(g) - 0.5
            q = nbar / (nbar + 1.0)
            weights = np.array([(1.0 - q) * q**k for k in range(dim)])
            weights /= weights.sum()
            lam = np.linalg.eigvalsh(rho.entries)
            assert np.max(np.abs(lam - np.sort(weights))) <= 1e-12
            eps = q**dim
            assert eps <= 1e-12
            bound = h2(eps) / (1.0 - eps)
            clipped = math.fsum(-w * math.log2(w) for w in weights if 0.0 < w <= 1e-14)
            gap = gaussian_entropy(g) - von_neumann_entropy(rho)
            assert -self.ROUNDING <= gap <= bound + clipped + self.ROUNDING

    @pytest.mark.parametrize("nbar, dim", [(0.3, 30), (1.7, 60), (12.0, 400)])
    def test_truncated_entropy_identity(self, nbar, dim):
        # the chain rule on the geometric law, summed directly
        q = nbar / (nbar + 1.0)
        eps = q**dim
        weights = [(1.0 - q) * q**k / (1.0 - eps) for k in range(dim)]
        s_k = math.fsum(-w * math.log2(w) for w in weights)
        g = GaussianStateOneMode((0.0, 0.0), [[nbar + 0.5, 0.0], [0.0, nbar + 0.5]])
        assert abs(gaussian_entropy(g) - h2(eps) / (1.0 - eps) - s_k) <= 1e-13

    def test_stated_bound_at_the_tail_gate(self):
        # h(eps)/(1 - eps) increases with eps up to 1/2, so the gate's
        # eps = 1e-12 is the worst case
        assert h2(1e-12) / (1.0 - 1e-12) < 4.2e-11


class TestThermalCutoff:
    """The one thermal truncation rule: the Fock gate and the Gram route read it."""

    def test_smallest_cutoff_whose_tail_passes(self):
        rng = np.random.default_rng(5)
        for nbar in 10.0 ** rng.uniform(-12, 3, 20000):
            nbar = float(nbar)
            k = fock_module._thermal_cutoff(nbar)
            q = nbar / (nbar + 1.0)
            assert q**k <= 1e-12 < q ** (k - 1)

    def test_vacuum_needs_one_level(self):
        assert fock_module._thermal_cutoff(0.0) == 1

    def test_no_cutoff_once_q_rounds_to_one(self):
        # n-bar 1e17: q = 1 in floating point, where a log ratio would divide by 0
        assert fock_module._thermal_cutoff(1e17) == math.inf
        with pytest.raises(CutoffError, match="thermal tail 1.000e\\+00 at cutoff 10"):
            thermal_state(1e17, 10)

    def test_builds_refuse_one_level_less(self):
        k = fock_module._thermal_cutoff(2.3)
        assert thermal_state(2.3, k).dim == k
        with pytest.raises(CutoffError, match=f"at cutoff {k - 1} exceeds 1e-12"):
            thermal_state(2.3, k - 1)


class TestCutoffCeiling:
    """No cutoff above MAX_CUTOFF gets as far as a dim x dim array."""

    @pytest.fixture(autouse=True)
    def refuse_ladder_arrays(self, monkeypatch):
        def refuse(dim):
            raise AssertionError(f"ladder arrays allocated at dim {dim}")

        monkeypatch.setattr(fock_module, "_ladder_arrays", refuse)

    @pytest.mark.parametrize("dim", [MAX_CUTOFF + 1, 10**5])
    def test_rejected_before_allocation(self, dim):
        # n-bar 1e7 fails the thermal tail gate at these cutoffs, so even
        # an engine without the ceiling would stop before a dim x dim array
        hot = GaussianStateOneMode((0.0, 0.0), [[1e7, 0.0], [0.0, 1e7]])
        for build in (
            lambda: thermal_state(1e7, dim),
            lambda: gaussian_to_fock(hot, dim),
        ):
            with pytest.raises(DomainError, match="MAX_CUTOFF"):
                build()

    def test_max_cutoff_itself_passes_validation(self):
        hot = GaussianStateOneMode((0.0, 0.0), [[1e7, 0.0], [0.0, 1e7]])
        with pytest.raises(CutoffError, match=f"thermal tail .* at cutoff {MAX_CUTOFF} "):
            gaussian_to_fock(hot, MAX_CUTOFF)
        with pytest.raises(CutoffError, match="thermal tail"):
            thermal_state(1e7, MAX_CUTOFF)
