import numpy as np
import pytest

from harmtomo import amplitude_modulate, build_reference_state, design_delta_pulse, invert_mtilde, observe
from harmtomo.errors import (HarmtomoError, PulseSupportError, ReferenceProfileError,
                             SingularInterpolantError)
from harmtomo.fields import ModelParams
from harmtomo.norms import rho_t
from oracles import evaluate_mtilde, psi_recursion, psi_sq_tilde, psi_tilde, reference_coeffs, synthesize_time


def time_samples(pulse, p):
    """Real synthesis of the pulse harmonics on max(8M, 256) uniform samples."""
    t = np.linspace(0.0, p.T, max(8 * pulse.M, 256), endpoint=False)
    return synthesize_time(pulse.psi_hat, p.omega, t)


def l2_norm(pulse, p):
    # rectangle rule on the uniform periodic grid is spectrally accurate
    return float(np.sqrt(np.mean(time_samples(pulse, p)**2) * p.T))


def l4_norm(pulse, p):
    return float((np.mean(time_samples(pulse, p)**4) * p.T) ** 0.25)


def params_of(tau=0.5, omega=0.5, T0=None, A=2.0):
    T0 = T0 if T0 is not None else np.pi / (2 * omega) * 2
    return ModelParams.create(tau=tau, beta=1.0, sigma0=1.0, omega=omega, T0=T0, A=A)


class TestDeltaPulse:
    def test_narrow_limit_is_pure_phase(self):
        p = params_of()
        M = 16
        pulse = design_delta_pulse(p, M, 1e-4)
        ratios = pulse.psi_hat[1:] / pulse.psi_hat[0]
        m = np.arange(2, M + 1)
        expected = np.exp(-1j * (m - 1) * p.omega * p.T0)
        assert np.max(np.abs(ratios - expected)) <= 1e-5
        mods = np.abs(pulse.psi_hat)
        assert np.max(mods) / np.min(mods) <= 1.0 + 1e-5
        # narrow limit modulus approaches (2/T) * bump mass
        mass = pulse.amplitude * 1e-4
        assert np.max(np.abs(mods - 2.0 * mass / p.T)) <= 1e-6 * mass

    def test_signal_real_and_l4_finite(self):
        p = params_of()
        pulse = design_delta_pulse(p, 12, 0.1, amplitude=2.0)
        assert np.isrealobj(time_samples(pulse, p))
        assert np.isfinite(l4_norm(pulse, p)) and l4_norm(pulse, p) > 0

    def test_width_too_large(self):
        p = params_of()
        with pytest.raises(PulseSupportError):
            design_delta_pulse(p, 8, p.T0 + 0.5)
        p_end = params_of(T0=4 * np.pi)  # bump at the period end wraps
        design_delta_pulse(p_end, 8, 0.3)
        with pytest.raises(PulseSupportError):
            design_delta_pulse(p_end, 8, 0.6 * p_end.T)


class TestAmplitudeModulation:
    def test_singular_amplitudes_rejected(self):
        p = params_of()
        pulse = design_delta_pulse(p, 8, 0.1)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                amplitude_modulate(pulse, bad)

    def test_determinant_identity(self):
        p = params_of()
        pulse = design_delta_pulse(p, 10, 0.1)
        sp = amplitude_modulate(pulse, 2.0)
        for k in range(10):
            det = np.linalg.det(sp.mm[k])
            expected = 2.0 * pulse.psi_hat[k] * sp.psi_sq_hat[k]
            assert det == pytest.approx(expected, rel=1e-12)

    def test_parseval_sums(self):
        # frobenius sum against time-grid L2 integrals of psi and psi^2
        p = params_of()
        M = 24
        pulse = design_delta_pulse(p, M, 0.1, amplitude=1.5)
        A = 2.0
        sp = amplitude_modulate(pulse, A)
        frob = sum(np.sum(np.abs(sp.mm[k]) ** 2) for k in range(M))
        T = p.T
        psi = time_samples(pulse, p)
        l2_psi_sq = np.mean(psi**2) * T
        sq = psi**2
        l2_sq_centered = np.mean((sq - np.mean(sq)) ** 2) * T
        tail = np.sum(np.abs(sp.psi_sq_hat[M:]) ** 2)
        expected = ((1 + A**2) * (2.0 / T) * l2_psi_sq
                    + (1 + A**4) * ((2.0 / T) * l2_sq_centered - tail))
        assert frob == pytest.approx(expected, rel=1e-10)


class TestInterpolant:
    def test_interpolation_property(self, setup_small):
        sp, p = setup_small["sp"], setup_small["params"]
        for m in range(1, sp.M + 1):
            mt = evaluate_mtilde(sp, 1j * m * p.omega, p)
            assert np.max(np.abs(mt - sp.mm[m - 1])) <= 1e-10

    def test_value_at_zero_matches_quadrature(self, setup_small):
        sp, p = setup_small["sp"], setup_small["params"]
        T = p.T
        psi = time_samples(sp.psi1, p)
        quad_psi = (2.0 / T) * np.mean(psi) * T
        quad_sq = (2.0 / T) * np.mean(psi**2) * T
        mt = evaluate_mtilde(sp, 0.0 + 0.0j, p)
        assert mt[0, 0] == pytest.approx(quad_psi, abs=1e-10)
        assert mt[0, 1] == pytest.approx(quad_sq, rel=1e-10)

    def test_matches_quadrature_at_complex_points(self, setup_small):
        # dense-time Simpson oracle for the analytic transform
        from scipy.integrate import simpson

        sp, p = setup_small["sp"], setup_small["params"]
        T = p.T
        t = np.linspace(0, T, (1 << 14) + 1)
        psi = synthesize_time(sp.psi1.psi_hat, p.omega, t)
        for o in (0.3 - 1.2j, -0.5 + 2.7j, 1.0 + 0.0j):
            direct = (2.0 / T) * simpson(psi * np.exp(-o * t), x=t)
            assert psi_tilde(sp, o, p) == pytest.approx(direct, rel=1e-8)
            direct_sq = (2.0 / T) * simpson(psi**2 * np.exp(-o * t), x=t)
            assert psi_sq_tilde(sp, o, p) == pytest.approx(direct_sq, rel=1e-8)

    def test_determinant_identity_in_o(self, setup_small):
        sp, p = setup_small["sp"], setup_small["params"]
        for o in (0.2 + 1.5j, -1.0 + 4.0j, -0.1 + 0.37j):
            mt = evaluate_mtilde(sp, o, p)
            det = mt[0, 0] * mt[1, 1] - mt[0, 1] * mt[1, 0]
            expected = sp.A * (sp.A - 1) * psi_tilde(sp, o, p) * psi_sq_tilde(sp, o, p)
            assert det == pytest.approx(expected, rel=1e-12)

    def test_inverse_round_trip_and_guard(self, setup_small):
        sp, p = setup_small["sp"], setup_small["params"]
        mt = evaluate_mtilde(sp, -0.3 + 2.0j, p)
        assert np.max(np.abs(invert_mtilde(mt) @ mt - np.eye(2))) <= 1e-12
        with pytest.raises(SingularInterpolantError):
            invert_mtilde(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))

    def test_guard_rejects_non_finite_members(self):
        # a nan entry, and finite entries whose determinant overflows: the
        # guard compares a nan determinant as failing, not as passing
        ok = np.eye(2, dtype=complex)
        for bad in ([[np.nan, 1.0], [1.0, 2.0]], [[1e200, 1e199], [2e200, -1e200]]):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(SingularInterpolantError,
                                   match=r"non-finite entries or determinant at stack index \(1,\)"):
                    invert_mtilde(np.array([ok, bad], dtype=complex))

    def test_mtilde_inverse_pole_bound(self, setup_small):
        # fitted mu_ell obeys the closed-form lower bound; the pulse-centered
        # variant stays uniformly bounded over the retained spectrum
        sp, p, poles = setup_small["sp"], setup_small["params"], setup_small["poles"]
        T = p.T
        A = sp.A
        l2, l4 = l2_norm(sp.psi1, p), l4_norm(sp.psi1, p)
        lower = (A**4 + A**2 + 2) / (4 * A**2 * (A - 1) ** 2) * T**2 / min(l4**4, l2**2)
        cmu = []
        for ell in np.flatnonzero(poles.ok):
            pl = poles.poles[ell]
            mi = invert_mtilde(evaluate_mtilde(sp, pl, p))
            mu2 = np.sum(np.abs(mi) ** 2) / rho_t(2 * pl.real, T)
            assert mu2 >= lower
            cmu.append(np.sum(np.abs(mi) ** 2) / rho_t(2 * pl.real, p.T0))
        assert np.all(np.isfinite(cmu))


class TestRecursion:
    def test_zero_nonlinearity(self):
        psi = psi_recursion(2.0, 1.0, 1.0, 0.0, 1.0, 6)
        assert np.all(psi[1:] == 0)

    def test_degenerate_inputs_fail_typed(self):
        # |denominator| = 2 lam (m^2 - 1) |1 + i m w beta| falls below 1e-14 at tiny lam
        with pytest.raises(ZeroDivisionError) as err:
            psi_recursion(1e-16, 1.0, 1.0, 0.5, 1.0, 3)
        assert isinstance(err.value, HarmtomoError)
        with pytest.raises(ValueError, match="positive eigenvalue"):
            psi_recursion(0.0, 1.0, 1.0, 0.5, 1.0, 3)

    def test_second_harmonic_closed_form(self):
        lam, sigma0, beta, eta0 = 2.0, 1.0, 1.0, 0.5
        psi1 = 1.0 + 0.2j
        psi = psi_recursion(lam, sigma0, beta, eta0, psi1, 6)
        w = np.sqrt(lam / sigma0)
        expected = (2 * w**2 * eta0 * psi1**2) / (3 * lam * (1 + 2j * beta * w))
        assert psi[1] == pytest.approx(expected, rel=1e-14)

    def test_scaling_in_fundamental(self):
        base = psi_recursion(3.0, 1.5, 0.8, 0.3, 0.7 - 0.1j, 8)
        scaled = psi_recursion(3.0, 1.5, 0.8, 0.3, 2.0 * (0.7 - 0.1j), 8)
        powers = 2.0 ** np.arange(1, 9)
        assert np.max(np.abs(scaled - base * powers)) <= 1e-12

    def test_ode_residual_independent_path(self):
        # re-evaluate the triangular relation from a dense time-grid product
        lam, sigma0, beta, eta0 = 2.0, 1.0, 1.0, 0.4
        M = 8
        psi = psi_recursion(lam, sigma0, beta, eta0, 1.0 + 0.3j, M)
        w = np.sqrt(lam / sigma0)
        tau = beta * lam / w**2
        T = 2 * np.pi / w
        nt = 1 << 12
        t = np.linspace(0, T, nt, endpoint=False)
        sig = psi @ np.exp(1j * w * np.outer(np.arange(1, M + 1), t))
        sq = sig * sig
        for m in range(2, M + 1):
            conv = np.sum(sq * np.exp(-1j * m * w * t)) / nt
            denom = lam - sigma0 * m**2 * w**2 + 1j * m * w * (beta * lam - tau * m**2 * w**2)
            resid = denom * psi[m - 1] + 0.5 * m**2 * w**2 * eta0 * conv
            assert abs(resid) <= 1e-10


class TestReferenceState:
    def test_separability(self, setup_small):
        basis, sp, ref = setup_small["basis"], setup_small["sp"], setup_small["ref"]
        obs = observe(basis, reference_coeffs(ref, basis.J)[0])
        expected = basis.trace_matrix[ref.phi_index, 0] * sp.psi1.psi_hat
        assert np.max(np.abs(obs[:, 0] - expected)) <= 1e-14

    def test_rank_recheck_and_phi_floor(self, setup_small):
        sp, ref = setup_small["sp"], setup_small["ref"]
        dets = np.array([np.linalg.det(sp.mm[k]) for k in range(sp.M)])
        assert np.min(np.abs(dets)) > 0
        assert np.min(np.abs(ref.phi_grid)) > 1e-6

    def test_zero_eigenvalue_profile_rejected(self, params_std):
        from harmtomo import build_interval_basis, build_rectangle_basis
        neumann = build_interval_basis(np.pi, (0.0, 0.0), 4, sigma_points=(0.0,))
        pulse = design_delta_pulse(params_std, 8, 0.1)
        sp = amplitude_modulate(pulse, 2.0)
        with pytest.raises(ReferenceProfileError) as err:
            build_reference_state(neumann, 0, sp)
        assert isinstance(err.value, HarmtomoError) and isinstance(err.value, ValueError)
        # the rule reads the domain block; it rejects exactly the modes with lambda = 0
        bases = [neumann, build_interval_basis(np.pi, (0.0, 1.0), 4, sigma_points=(0.0,))]
        bases += [build_rectangle_basis(np.pi, np.pi / ((1 + 5**0.5) / 2), gamma, 4,
                                        sigma_points="side:y=0")
                  for gamma in (((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.0, 1.0)))]
        for basis in bases:
            for mode in range(2):
                zero = abs(basis.lambdas[mode]) <= 1e-12
                try:
                    build_reference_state(basis, mode, sp)
                    rejected = False
                except ReferenceProfileError:
                    rejected = True
                assert rejected == zero, (basis.domain.robin_gamma, mode)
        assert sum(abs(b.lambdas[0]) <= 1e-12 for b in bases) == 2
