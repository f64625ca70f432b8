import numpy as np
import pytest

from harmtomo import (add_noise, build_interval_basis, build_rectangle_basis, choose_tau,
                      compute_cbar, compute_ctilde, smooth_data, run_sweep, ytilde_obs_norm)
from harmtomo.errors import (IllConditionedFitError, NoiseCalibrationError, SmoothingError,
                             TheoremHypothesisError)
from harmtomo.fields import ModelParams, NormSpec
from harmtomo.quasirev import smoothing_gain, tau_grid, time_derivative_norm
from harmtomo.reconstruct import linearized_forward
from harmtomo.scenarios import load_scenario, make_basis
from conftest import SCENARIOS, random_linearized
from oracles import (TauConstants, choose_tau_loop, rate_constants_scalar,
                     sweep_rows_from_fit)

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

    @pytest.mark.parametrize("T0", [T, np.pi])
    def test_array_of_taus_matches_scalar_calls(self, T0):
        # tiny taus overflow to inf, tau = sigma0*beta is the alpha = 0 end
        taus = np.concatenate([[1e-4], np.geomspace(1e-3, 1.0, 60)])
        for k, const in enumerate((compute_cbar, compute_ctilde)):
            for orti in (0.0, 0.5, 0.9):
                vals = const(taus, 1.0, 1.0, T, T0, orti)
                assert isinstance(vals, np.ndarray) and vals.shape == taus.shape
                assert np.all(vals == [const(float(t), 1.0, 1.0, T, T0, orti) for t in taus])
                old = [rate_constants_scalar(float(t), 1.0, 1.0, T, T0, orti)[k] for t in taus]
                assert np.all(vals == old)
            assert type(const(0.3, 1.0, 1.0, T, T0, 0.5)) is float
            assert type(const(np.float64(0.3), 1.0, 1.0, T, T0, 0.5)) is float

    @pytest.mark.parametrize("taus", [[0.1, 0.0, 0.3], [0.1, -0.2], [0.1, 0.5, 1.5]])
    def test_array_outside_admissible_range_raises(self, taus):
        for const in (compute_cbar, compute_ctilde):
            with pytest.raises(ValueError):
                const(np.array(taus), 1.0, 1.0, T, np.pi, 0.5)

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

    @pytest.mark.parametrize("kind", ["interval", "smoothing_study"])
    def test_gain_matches_scipy_generalized_eigh(self, kind):
        # the Cholesky reduction against scipy's generalized symmetric solver
        from scipy.linalg import eigh

        if kind == "interval":
            basis = build_interval_basis(np.pi, (1.0, 1.0), 8, sigma_points=(0.0, np.pi))
        else:
            basis = make_basis(load_scenario(SCENARIOS / "smoothing_study.json"))
        finite = 0
        for s in (0.5, 1.0, 2.0):
            for L in range(1, min(basis.J, basis.nsigma) + 1):
                t = basis.trace_matrix[:L]
                G = (t * basis.sigma_weights) @ t.T
                got = smoothing_gain(basis, s, L)
                if np.linalg.matrix_rank(G, tol=1e-12 * np.max(np.abs(G))) < L:
                    assert got == np.inf
                    continue
                D = np.diag(np.power(basis.lambdas[:L], s))
                ref = np.sqrt(np.max(eigh(D, G, eigvals_only=True)))
                assert abs(got - ref) <= 1e-13 * ref
                finite += 1
        assert finite == 3 * (2 if kind == "interval" else 10)

    def test_gains_computed_once_per_level(self, monkeypatch):
        from harmtomo import quasirev

        basis = four_side_rectangle()
        calls = []
        gain = quasirev.smoothing_gain
        monkeypatch.setattr(quasirev, "smoothing_gain", lambda *a: calls.append(a) or gain(*a))
        exact = np.arange(1.0, 4.0) @ basis.trace_matrix[:3]
        kappas = [smooth_data(exact, dt, basis, 1.0).kappa for dt in (1e-2, 1e-3, 1e-4)]
        assert sorted(L for _, _, L in calls) == list(range(1, basis.J + 1))
        assert all(k is kappas[0] for k in kappas) and not kappas[0].flags.writeable
        assert np.array_equal(kappas[0], [gain(basis, 1.0, L) for L in range(1, basis.J + 1)])

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

    @pytest.mark.parametrize("ratio", [2.0**0.25, 1.5, 2.0])
    @pytest.mark.parametrize("tau0", [0.0, 0.3])
    def test_one_pass_matches_per_tau_loop(self, tau0, ratio):
        T0 = T if tau0 == 0.0 else np.pi
        for delta in (0.0, 1e-12, 1e-8, 1e-4, 1e-3, 1e-2, 3e-2, 1.0, 10.0):
            args = (delta, tau0, 1.0, 1.0, T, T0, 0.5)
            kw = dict(tau_min=0.01, tau_max=0.9, ratio=ratio)
            with np.errstate(divide="ignore"):   # the loop divides by sqrt(0) at delta 0
                expected = choose_tau_loop(*args, **kw)
            assert choose_tau(*args, **kw) == expected

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
    ref = build_reference_state(basis, 0, sp)
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
        from harmtomo.reconstruct import LinearizedData, reconstruct
        from harmtomo.norms import x_norm

        basis, spec, params, ref, truth = sweep_setup(0.3)
        data = linearized_forward(ref, params, basis, truth)
        offsets = (0.0025, 0.005, 0.01)
        errs = []
        for d in offsets:
            rec = reconstruct(LinearizedData(rhat=data.rhat, phat=data.phat), ref, basis,
                              params.with_tau(0.3 + d))
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

    @pytest.mark.parametrize("tau0, seed, deltas, tau_min", [
        (0.0, 101, [1e-2, 1e-3, 1e-4], 0.1), (0.0, 5, [1e-2, 1e-3, 1e-4], 0.1),
        (0.0, 7, [1e-2, 1e-3, 1e-4], 0.1), (0.3, 11, [0.0], 0.05)])
    def test_rows_equal_fit_and_state_formula(self, tau0, seed, deltas, tau_min):
        # a row inverts its noisy data with reconstruct; the fit and the state
        # formula written out, with the grid scored one tau at a time, give
        # the same rows
        basis, spec, params, ref, truth = sweep_setup(tau0)
        args = (basis, ref, params, spec, truth, deltas)
        kw = dict(tau0=tau0, seed=seed, tau_min=tau_min, tau_max=0.5)
        fields = ("delta", "tau", "error_x", "bound", "cbar", "ctilde", "status")
        rows = [tuple(getattr(r, f) for f in fields) for r in run_sweep(*args, **kw)]
        expected = [tuple(getattr(r, f) for f in fields)
                    for r in sweep_rows_from_fit(*args, **kw)]
        assert len(rows) == len(deltas) and all(r[-1] == "ok" for r in rows)
        assert rows == expected

    def test_invalid_schedule_raises_before_any_row(self):
        # tau0 = 0 needs orti_check < 1: a broken schedule is not a failed row
        basis, _, params, ref, truth = sweep_setup(0.0)
        with pytest.raises(TheoremHypothesisError, match="orti_check < 1"):
            run_sweep(basis, ref, params, NormSpec(s=1.0, orti_check=1.0), truth, [1e-2],
                      tau0=0.0, seed=5, tau_min=0.1, tau_max=0.5)

    def test_typed_failures_become_rows_and_others_propagate(self, monkeypatch):
        import harmtomo.quasirev as qr

        basis, spec, params, ref, truth = sweep_setup(0.0)
        invert = qr.reconstruct

        def after_pilot(exc):
            # the pilot level's inversion runs, every row's raises exc
            calls = []

            def patched(*args, **kwargs):
                calls.append(1)
                if len(calls) == 1:
                    return invert(*args, **kwargs)
                raise exc
            return patched

        monkeypatch.setattr(qr, "reconstruct", after_pilot(IllConditionedFitError(3e12)))
        rows = run_sweep(basis, ref, params, spec, truth, [1e-2, 1e-3], tau0=0.0, seed=5,
                         tau_min=0.1, tau_max=0.5)
        assert all(r.status.startswith("failed: IllConditionedFitError: ") for r in rows)
        assert len(rows) == 2 and all(np.isnan(r.error_x) for r in rows)

        monkeypatch.setattr(qr, "reconstruct",
                            after_pilot(KeyError("not a numerical failure")))
        with pytest.raises(KeyError):
            run_sweep(basis, ref, params, spec, truth, [1e-2], tau0=0.0, seed=5,
                      tau_min=0.1, tau_max=0.5)


def test_time_derivative_norm(basis8, spec_std):
    du = np.zeros((2, 4, basis8.J), dtype=complex)
    du[0, 2, 1] = 1.0  # m = 3 on mode lambda_1
    omega = 1.5
    expected = ((3 * omega) ** spec_std.orti_check * (3 * omega)
                * basis8.lambdas[1] ** (spec_std.s_check / 2))
    assert time_derivative_norm(du, omega, basis8.lambdas, spec_std) == pytest.approx(expected)
