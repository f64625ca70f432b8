import numpy as np
import pytest

from harmtomo import (add_noise, build_interval_basis, build_rectangle_basis, choose_tau,
                      compute_cbar, compute_ctilde, smooth_data, run_sweep, ytilde_obs_norm)
from harmtomo.errors import (IllConditionedFitError, NoiseCalibrationError, SmoothingError,
                             TheoremHypothesisError)
from harmtomo.fields import ModelParams, NormSpec
from harmtomo.quasirev import TauConstants, smoothing_gain, tau_grid, time_derivative_norm
from harmtomo.reconstruct import linearized_forward
from conftest import random_linearized

GOLDEN = (1 + 5**0.5) / 2
T = 2 * np.pi


class TestConstants:
    def test_cbar_alpha_zero_limit(self):
        # tau = sigma0*beta makes the rate factor collapse to 1/(2 T0)
        tau, sigma0, beta, T0, orti = 1.0, 1.0, 1.0, np.pi, 0.5
        expected = np.sqrt((1.0 / (2 * T0)) * (1 + (tau / beta) ** orti) + 1.0)
        assert compute_cbar(tau, sigma0, beta, T, T0, orti) == pytest.approx(expected, rel=1e-9)

    def test_cbar_monotone_decreasing(self):
        taus = np.sort(1.0 * (2.0 ** -0.25) ** np.arange(16))
        vals = [compute_cbar(t, 1.0, 1.0, T, np.pi, 0.5) for t in taus]
        assert all(vals[i] > vals[i + 1] for i in range(15))

    def test_cbar_divergence_witness(self):
        # with T0 = T the blow-up rate is at least tau^(-(1-orti)/2):
        # the compensated product stays bounded away from zero
        orti = 0.5
        taus = np.array([0.2, 0.1, 0.05, 0.02, 0.01, 0.005])
        comp = [compute_cbar(t, 1.0, 1.0, T, T, orti) * t ** ((1 - orti) / 2) for t in taus]
        assert min(comp) >= 0.5 * comp[0]
        assert all(np.isfinite(comp))

    def test_ctilde_alpha_zero_orti_zero(self):
        T0 = np.pi
        assert compute_ctilde(1.0, 1.0, 1.0, T, T0, 0.0) == pytest.approx(1.0 / np.sqrt(T0), rel=1e-9)

    def test_ctilde_halving_ratio(self):
        # direct evaluation: for small tau at T0 = T the halving ratio
        # approaches 2 ** ((1 + orti)/2), combining the alpha/tau rate with
        # the (beta/tau)^orti factor
        orti = 0.5
        limit = 2.0 ** ((1 + orti) / 2)
        devs = []
        for tau in (1e-3, 1e-4, 1e-5):
            ratio = (compute_ctilde(tau / 2, 1.0, 1.0, T, T, orti)
                     / compute_ctilde(tau, 1.0, 1.0, T, T, orti))
            devs.append(abs(ratio - limit))
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] <= 5e-3

    def test_ctilde_orti_ordering(self):
        for tau in (0.2, 0.5):
            a = compute_ctilde(tau, 1.0, 1.0, T, np.pi, 0.0)
            b = compute_ctilde(tau, 1.0, 1.0, T, np.pi, 1.0)
            assert b >= a

    def test_tau_constants_bundle(self):
        tc = TauConstants.at(0.5, 1.0, 1.0, T, np.pi, 0.5)
        assert tc.alpha == pytest.approx(0.25)
        assert tc.radius == pytest.approx(1.0 / (2 * max(1.0, tc.cbar)))


class TestNoise:
    def test_zero_level_returns_copy(self, basis8):
        rng = np.random.default_rng(0)
        phat = rng.standard_normal((2, 6, 1)) + 1j * rng.standard_normal((2, 6, 1))
        nd = add_noise(phat, 0.0, 1, basis8, 1.0, 1.0)
        assert np.array_equal(nd.phat_delta, phat)

    def test_exact_norm_scaling(self, basis8):
        rng = np.random.default_rng(1)
        phat = rng.standard_normal((2, 6, 1)) + 1j * rng.standard_normal((2, 6, 1))
        for delta in (1e-2, 1e-5):
            nd = add_noise(phat, delta, 7, basis8, 1.0, 1.0)
            achieved = ytilde_obs_norm(nd.phat_delta - phat, basis8, 1.0, 1.0)
            assert abs(achieved - delta) <= 1e-10 * max(delta, 1.0)

    def test_seeds_differ(self, basis8):
        phat = np.zeros((2, 6, 1), dtype=complex)
        a = add_noise(phat, 1e-3, 1, basis8, 1.0, 1.0)
        b = add_noise(phat, 1e-3, 2, basis8, 1.0, 1.0)
        assert not np.allclose(a.phat_delta, b.phat_delta)
        na = ytilde_obs_norm(a.phat_delta, basis8, 1.0, 1.0)
        nb = ytilde_obs_norm(b.phat_delta, basis8, 1.0, 1.0)
        assert na == pytest.approx(nb, rel=1e-12)

    def test_calibration_miss_raises_typed_error(self, basis8, monkeypatch):
        import harmtomo.quasirev as qr

        norms = iter([1.0, 2.0])  # draw norm, then a rescaled norm that misses delta
        monkeypatch.setattr(qr, "ytilde_obs_norm", lambda *args: next(norms))
        with pytest.raises(NoiseCalibrationError):
            add_noise(np.zeros((2, 6, 1), dtype=complex), 1e-3, 1, basis8, 1.0, 1.0)


def four_side_rectangle(J=12):
    Lx, Ly = np.pi, np.pi / GOLDEN
    pts = []
    for t in np.linspace(0.13, 0.87, 6):
        pts += [(t * Lx, 0.0), (t * Lx, Ly), (0.0, t * Ly), (Lx, t * Ly)]
    return build_rectangle_basis(Lx, Ly, ((1.0, 1.0), (1.0, 1.0)), J, sigma_points=tuple(pts))


class TestSmoothing:
    def test_exact_recovery_on_subspace(self):
        basis = four_side_rectangle()
        rng = np.random.default_rng(5)
        coeffs = np.zeros(basis.J)
        coeffs[:5] = rng.standard_normal(5)
        sm = smooth_data(coeffs @ basis.trace_matrix, 0.0, basis, 1.0)
        assert np.max(np.abs(sm.coeffs - coeffs)) <= 1e-10

    def test_kappa_monotone(self):
        basis = four_side_rectangle()
        kaps = [smoothing_gain(basis, 1.0, L) for L in range(1, basis.J + 1)]
        finite = [k for k in kaps if np.isfinite(k)]
        assert all(finite[i] <= finite[i + 1] + 1e-12 for i in range(len(finite) - 1))
        # deeper levels hit the tensor-trace degeneracy and are rejected
        assert not np.isfinite(kaps[-1])

    def test_error_decreases_with_noise_level(self):
        basis = four_side_rectangle()
        rng = np.random.default_rng(6)
        coeffs = np.zeros(basis.J)
        coeffs[:5] = rng.standard_normal(5) / (1.0 + np.arange(5)) ** 3
        exact = coeffs @ basis.trace_matrix
        errs = []
        for dt in (1e-2, 1e-3, 1e-4):
            noise = rng.standard_normal(exact.shape)
            noise *= dt / np.linalg.norm(np.sqrt(basis.sigma_weights) * noise)
            sm = smooth_data(exact + noise, dt, basis, 1.0)
            errs.append(np.sqrt(np.sum(basis.lambdas * np.abs(sm.coeffs - coeffs) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_all_levels_rejected(self):
        basis = four_side_rectangle()
        tiny = 1e-12 * np.ones(basis.nsigma)
        with pytest.raises(SmoothingError):
            smooth_data(tiny, 1.0, basis, 1.0)


class TestSchedule:
    def test_grid_and_monotone_choice(self):
        taus = [choose_tau(d, 0.0, 1.0, 1.0, T, T, 0.5, tau_min=0.1, tau_max=0.5)
                for d in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)]
        assert all(taus[i] >= taus[i + 1] for i in range(4))
        assert taus[-1] == pytest.approx(0.1)

    def test_product_goes_to_zero(self):
        deltas = (1e-2, 1e-3, 1e-4, 1e-5)
        prods = []
        for d in deltas:
            tau = choose_tau(d, 0.0, 1.0, 1.0, T, T, 0.5, tau_min=0.1, tau_max=0.5)
            prods.append(max(compute_cbar(tau, 1.0, 1.0, T, T, 0.5),
                             compute_ctilde(tau, 1.0, 1.0, T, T, 0.5)) * d)
        assert all(prods[i] > prods[i + 1] for i in range(3))

    def test_degenerate_limit_hypotheses(self):
        with pytest.raises(TheoremHypothesisError):
            choose_tau(1e-3, 0.0, 1.0, 1.0, T, T / 2, 0.5, tau_min=0.1, tau_max=0.5)
        with pytest.raises(TheoremHypothesisError):
            choose_tau(1e-3, 0.0, 1.0, 1.0, T, T, 1.0, tau_min=0.1, tau_max=0.5)

    def test_noiseless_positive_tau0_returns_tau0(self):
        assert choose_tau(0.0, 0.3, 1.0, 1.0, T, T, 0.5, tau_min=0.1, tau_max=0.5) == 0.3

    def test_tau_grid_shape(self):
        g = tau_grid(0.0, 0.1, 0.5, ratio=2.0**0.25)
        assert g[0] == pytest.approx(0.1) and g[-1] == pytest.approx(0.5)
        assert np.all(np.diff(g) > 0)


def sweep_setup(tau0, seed=3):
    from harmtomo import amplitude_modulate, build_reference_state, design_delta_pulse

    J, M = 8, 48
    basis = build_interval_basis(np.pi, (1.0, 1.0), J, sigma_points=(0.0,))
    spec = NormSpec(s=1.0, orti_check=0.5)
    params = ModelParams.create(tau=tau0, beta=1.0, sigma0=1.0, omega=1.0, T0=T, A=2.0)
    pulse = design_delta_pulse(params, M, 0.04, amplitude=3.0)
    sp = amplitude_modulate(pulse, 2.0)
    ref = build_reference_state(basis, 0, sp, params)
    truth = random_linearized(basis, M, seed, du_scale=1e-7, du_band=8)
    truth.a_sigma[:] /= (1 + np.arange(J))
    truth.a_eta[:] /= (1 + np.arange(J))
    return basis, spec, params, ref, truth


class TestSweep:
    def test_noiseless_consistency(self):
        basis, spec, params, ref, truth = sweep_setup(0.3)
        rows = run_sweep(basis, ref, params, spec, truth, [0.0], tau0=0.3, seed=11,
                         tau_min=0.05, tau_max=0.5)
        assert rows[0].status == "ok"
        assert rows[0].tau == pytest.approx(0.3)
        assert rows[0].error_x <= 1e-9

    def test_mismatch_proportional_to_tau_offset(self):
        # reconstruct exact tau0 data with slightly larger relaxation times
        from harmtomo import build_pole_set
        from harmtomo.reconstruct import LinearizedData, reconstruct
        from harmtomo.norms import x_norm

        basis, spec, params, ref, truth = sweep_setup(0.3)
        data = linearized_forward(ref, params, basis, truth)
        offsets = (0.0025, 0.005, 0.01)
        errs = []
        for d in offsets:
            pt = params.with_tau(0.3 + d)
            ps = build_pole_set(basis.lambdas, pt)
            rec = reconstruct(LinearizedData(rhat=data.rhat, phat=data.phat), ref, ps, basis, pt)
            errs.append(x_norm(rec.a - truth.a, rec.b - truth.du, basis.lambdas,
                               params.omega, spec))
        slopes = np.array(errs) / np.array(offsets)
        assert np.max(slopes) / np.min(slopes) <= 2.0

    def test_full_sweep_decreasing_and_bounded(self):
        basis, spec, params, ref, truth = sweep_setup(0.0)
        rows = run_sweep(basis, ref, params, spec, truth, [1e-2, 1e-3, 1e-4], tau0=0.0,
                         seed=101, tau_min=0.1, tau_max=0.5)
        assert all(r.status == "ok" for r in rows)
        errs = [r.error_x for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert all(r.error_x <= r.bound for r in rows)
        taus = [r.tau for r in rows]
        assert all(taus[i] >= taus[i + 1] for i in range(2))

    def test_typed_failures_become_rows_and_others_propagate(self, monkeypatch):
        import harmtomo.quasirev as qr

        basis, spec, params, ref, truth = sweep_setup(0.0)

        def ill_conditioned(*args, **kwargs):
            raise IllConditionedFitError(3e12)

        monkeypatch.setattr(qr, "reconstruct", ill_conditioned)
        rows = run_sweep(basis, ref, params, spec, truth, [1e-2, 1e-3], tau0=0.0, seed=5,
                         tau_min=0.1, tau_max=0.5, calibration=1.0)
        assert all(r.status.startswith("failed: IllConditionedFitError: ") for r in rows)
        assert len(rows) == 2 and all(np.isnan(r.error_x) for r in rows)

        def bug(*args, **kwargs):
            raise KeyError("not a numerical failure")

        monkeypatch.setattr(qr, "reconstruct", bug)
        with pytest.raises(KeyError):
            run_sweep(basis, ref, params, spec, truth, [1e-2], tau0=0.0, seed=5,
                      tau_min=0.1, tau_max=0.5, calibration=1.0)


def test_time_derivative_norm(basis8, spec_std):
    du = np.zeros((2, 4, basis8.J), dtype=complex)
    du[0, 2, 1] = 1.0  # m = 3 on mode lambda_1
    omega = 1.5
    expected = ((3 * omega) ** spec_std.orti_check * (3 * omega)
                * basis8.lambdas[1] ** (spec_std.s_check / 2))
    assert time_derivative_norm(du, omega, basis8.lambdas, spec_std) == pytest.approx(expected)
