import re
from functools import partial

import numpy as np
import pytest

from harmtomo import (DomainSpec, build_basis, compute_cbar, compute_ctilde, smooth_data,
                      smoothing_gains, run_sweep, ytilde_obs_norm)
from harmtomo.errors import (IllConditionedFitError, NoiseCalibrationError, SmoothingError,
                             TheoremHypothesisError)
from harmtomo.fields import ModelParams, NormSpec
from harmtomo.quasirev import tau_grid, time_derivative_norm
from harmtomo.reconstruct import linearized_forward
from harmtomo.runner import run_preset
from harmtomo.scenarios import (load_scenario, make_basis, make_norm_spec, make_params,
                                make_reference, make_true_fields, noise_levels,
                                quasirev_settings, target_cutoff)
from conftest import SCENARIOS, random_linearized
from oracles import (TauConstants, add_noise, add_noise_one, choose_tau, choose_tau_loop,
                     rate_constants_scalar, smooth_data_loop, smoothing_gain,
                     smoothing_gains_loop, sweep_rows_from_fit)

GOLDEN = (1 + 5**0.5) / 2
T = 2 * np.pi
SCHEDULE = dict(ratio=2.0**0.25, tolerance=0.1)   # the scenario defaults


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
        noisy = add_noise(phat, 0.0, 1, basis8, 1.0, 1.0)
        assert np.array_equal(noisy, phat) and noisy is not phat

    def test_exact_norm_scaling(self, basis8):
        rng = np.random.default_rng(1)
        phat = rng.standard_normal((2, 6, 1)) + 1j * rng.standard_normal((2, 6, 1))
        for delta in (1e-2, 1e-5):
            noisy = add_noise(phat, delta, 7, basis8, 1.0, 1.0)
            achieved = ytilde_obs_norm(noisy - phat, basis8, 1.0, 1.0)
            assert abs(achieved - delta) <= 1e-10 * max(delta, 1.0)

    def test_seeds_differ(self, basis8):
        phat = np.zeros((2, 6, 1), dtype=complex)
        a = add_noise(phat, 1e-3, 1, basis8, 1.0, 1.0)
        b = add_noise(phat, 1e-3, 2, basis8, 1.0, 1.0)
        assert not np.allclose(a, b)
        na = ytilde_obs_norm(a, basis8, 1.0, 1.0)
        nb = ytilde_obs_norm(b, basis8, 1.0, 1.0)
        assert na == pytest.approx(nb, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.0, 1e-3, -1.0])
    def test_one_level_oracle_is_the_noise_pass(self, basis8, delta):
        from harmtomo.quasirev import _noisy_rows

        rng = np.random.default_rng(6)
        phat = rng.standard_normal((2, 6, 1)) + 1j * rng.standard_normal((2, 6, 1))
        (noisy,), (err,) = _noisy_rows(phat, [delta], [3], basis8, 1.0, 1.0)
        if err is None:
            assert np.array_equal(add_noise(phat, delta, 3, basis8, 1.0, 1.0), noisy)
        else:
            with pytest.raises(NoiseCalibrationError, match=re.escape(str(err))):
                add_noise(phat, delta, 3, basis8, 1.0, 1.0)

    def test_calibration_miss_raises_typed_error(self, basis8, monkeypatch):
        import harmtomo.quasirev as qr

        norms = iter([1.0, 2.0])  # draw norm, then a rescaled norm that misses delta
        # one value per data set, as the batched norm gives
        monkeypatch.setattr(qr, "ytilde_obs_norm",
                            lambda noise, *args: np.full(noise.shape[0], next(norms)))
        with pytest.raises(NoiseCalibrationError):
            add_noise(np.zeros((2, 6, 1), dtype=complex), 1e-3, 1, basis8, 1.0, 1.0)


    @pytest.mark.parametrize("shape", [(2, 6, 1), (6, 1)], ids=["pair", "one-source"])
    def test_noise_pass_equals_one_level_draws(self, basis8, shape):
        # one pass over the levels gives each the bits of its own draw, scale
        # and check; a noiseless level is the data, a bad level its error
        from harmtomo.quasirev import _noisy_rows

        rng = np.random.default_rng(3)
        phat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        deltas, seeds = [3e-2, 1e-2, 0.0, 1e-4, -1.0, 1e-3], [4, 5, 6, 7, 8, 9]
        noisy, errors = _noisy_rows(phat, deltas, seeds, basis8, 1.0, 1.0)
        assert noisy.shape == (len(deltas),) + shape
        for k, (delta, seed) in enumerate(zip(deltas, seeds)):
            if delta < 0:
                assert isinstance(errors[k], NoiseCalibrationError)
                with pytest.raises(NoiseCalibrationError, match=re.escape(str(errors[k]))):
                    add_noise_one(phat, delta, seed, basis8, 1.0, 1.0)
            else:
                assert errors[k] is None
                assert np.array_equal(noisy[k], add_noise_one(phat, delta, seed, basis8, 1.0, 1.0))
                assert np.array_equal(noisy[k], add_noise(phat, delta, seed, basis8, 1.0, 1.0))
        assert np.array_equal(noisy[2], phat)


def four_side_rectangle(J=12):
    Lx, Ly = np.pi, np.pi / GOLDEN
    pts = []
    for t in np.linspace(0.13, 0.87, 6):
        pts += [(t * Lx, 0.0), (t * Lx, Ly), (0.0, t * Ly), (Lx, t * Ly)]
    return build_basis(DomainSpec("rectangle", (Lx, Ly), ((1.0, 1.0), (1.0, 1.0)), tuple(pts)), J)


class TestSmoothing:
    def test_exact_recovery_on_subspace(self):
        basis = four_side_rectangle()
        rng = np.random.default_rng(5)
        coeffs = np.zeros(basis.J)
        coeffs[:5] = rng.standard_normal(5)
        sm = smooth_data(coeffs @ basis.trace_matrix, 0.0, basis, smoothing_gains(basis, 1.0))
        assert np.max(np.abs(sm.coeffs - coeffs)) <= 1e-10

    def test_kappa_monotone(self):
        basis = four_side_rectangle()
        kaps = smoothing_gains(basis, 1.0)
        assert kaps.size == basis.J
        finite = [k for k in kaps if np.isfinite(k)]
        assert all(finite[i] <= finite[i + 1] + 1e-12 for i in range(len(finite) - 1))
        # deeper levels hit the tensor-trace degeneracy and are rejected
        assert not np.isfinite(kaps[-1])

    @pytest.mark.parametrize("kind", ["interval", "smoothing_study", "four_side_rectangle"])
    def test_gain_matches_scipy_generalized_eigh(self, kind):
        # the gains from one QR against the per-level Cholesky reduction and
        # scipy's generalized symmetric solver, with the same inf levels
        from scipy.linalg import eigh

        if kind == "interval":
            basis = build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0, np.pi)), 8)
        elif kind == "smoothing_study":
            basis = make_basis(load_scenario(SCENARIOS / "smoothing_study.json"))
        else:
            basis = four_side_rectangle()
        finite = 0
        for s in (0.5, 1.0, 2.0):
            gains = smoothing_gains(basis, s)
            assert gains.shape == (min(basis.J, basis.nsigma),)
            for L, got in enumerate(gains, start=1):
                t = basis.trace_matrix[:L]
                G = (t * basis.sigma_weights) @ t.T
                oracle = smoothing_gain(basis, s, L)
                if np.linalg.matrix_rank(G, tol=1e-12 * np.max(np.abs(G))) < L:
                    assert got == oracle == np.inf
                    continue
                D = np.diag(np.power(basis.lambdas[:L], s))
                ref = np.sqrt(np.max(eigh(D, G, eigvals_only=True)))
                assert abs(got - ref) <= 1e-13 * ref
                assert abs(got - oracle) <= 1e-13 * oracle
                finite += 1
        assert finite == 3 * (2 if kind == "interval" else 10)

    def test_gains_computed_once_per_level(self, monkeypatch, tmp_path):
        # one smoothing-study run factors the weighted traces once for the
        # gains of every level, with one eigvalsh call, and passes the same
        # gains to the smoothing of every noise level; each smoothing takes
        # one QR of its own and no least-squares solve
        from harmtomo import quasirev

        sc = load_scenario(SCENARIOS / "smoothing_study.json")
        basis, s = make_basis(sc), make_norm_spec(sc).s
        gains, smooth = quasirev.smoothing_gains, quasirev.smooth_data
        calls, passed, spies = [], [], {"qr": [], "eigvalsh": [], "lstsq": []}
        for name, spy in spies.items():
            fn = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, _fn=fn, _spy=spy, **k: _spy.append(1) or _fn(*a, **k))
        monkeypatch.setattr(quasirev, "smoothing_gains", lambda *a: calls.append(a[1]) or gains(*a))
        monkeypatch.setattr(quasirev, "smooth_data", lambda *a: passed.append(a[3]) or smooth(*a))
        run_preset(sc, out_dir=str(tmp_path))
        levels = noise_levels(sc)
        assert calls == [s]
        assert len(spies["qr"]) == 1 + len(levels) and len(spies["eigvalsh"]) == 1
        assert spies["lstsq"] == []
        assert len(passed) == len(levels) > 1
        assert all(k is passed[0] for k in passed)
        assert np.array_equal(passed[0], gains(basis, s))
        oracle = smoothing_gains_loop(basis, s)
        finite = np.isfinite(oracle)
        assert np.array_equal(np.isfinite(passed[0]), finite)
        assert np.max(np.abs(passed[0][finite] / oracle[finite] - 1)) <= 1e-13

    @pytest.mark.parametrize("kind", ["smoothing_study", "four_side_rectangle"])
    def test_smoothing_picks_the_per_level_fit_level(self, kind):
        # one QR for every level against one least-squares fit per level:
        # the same chosen level, residuals within 1e-10 relative (or at the
        # data's roundoff), over 200 drawn truths at four noise levels
        if kind == "smoothing_study":
            sc = load_scenario(SCENARIOS / "smoothing_study.json")
            basis, cutoff = make_basis(sc), target_cutoff(sc)
        else:
            basis, cutoff = four_side_rectangle(), 5
        gains = smoothing_gains(basis, 1.0)
        sw = np.sqrt(basis.sigma_weights)
        for seed in range(200):
            rng = np.random.default_rng(seed)
            coeffs = np.zeros(basis.J)
            coeffs[:cutoff] = rng.standard_normal(cutoff) / (1.0 + np.arange(cutoff)) ** 3
            exact = coeffs @ basis.trace_matrix
            for dt in (1e-2, 1e-3, 1e-4, 0.0):
                noise = rng.standard_normal(basis.nsigma)
                data = exact + (noise * dt / np.linalg.norm(sw * noise) if dt else 0.0)
                got = smooth_data(data, dt, basis, gains)
                ref = smooth_data_loop(data, dt, basis, gains)
                assert got.level == ref.level, (seed, dt)
                fitted = np.isfinite(ref.residuals)
                assert np.array_equal(np.isfinite(got.residuals), fitted)
                scale = 1e-10 * ref.residuals[fitted] + 1e-13 * np.linalg.norm(sw * data)
                assert np.all(np.abs(got.residuals[fitted] - ref.residuals[fitted]) <= scale)
                assert np.max(np.abs(got.coeffs - ref.coeffs)) <= 1e-12 * np.max(np.abs(coeffs))

    def test_error_decreases_with_noise_level(self):
        basis = four_side_rectangle()
        rng = np.random.default_rng(6)
        coeffs = np.zeros(basis.J)
        coeffs[:5] = rng.standard_normal(5) / (1.0 + np.arange(5)) ** 3
        exact = coeffs @ basis.trace_matrix
        errs = []
        gains = smoothing_gains(basis, 1.0)
        for dt in (1e-2, 1e-3, 1e-4):
            noise = rng.standard_normal(exact.shape)
            noise *= dt / np.linalg.norm(np.sqrt(basis.sigma_weights) * noise)
            sm = smooth_data(exact + noise, dt, basis, gains)
            errs.append(np.sqrt(np.sum(basis.lambdas * np.abs(sm.coeffs - coeffs) ** 2)))
        assert errs[0] > errs[1] > errs[2]

    def test_preset_errors_fall_with_delta(self, tmp_path):
        # the preset scales one noise direction to each level; with a draw per
        # level, seed 753273585 read hs_error 6.20e-4, 6.43e-4, 3.68e-5
        sc = load_scenario(SCENARIOS / "smoothing_study.json")
        seeds = [753273585, *np.random.default_rng(33).integers(0, 2**31, 200).tolist()]
        rising = []
        for seed in seeds:
            out = tmp_path / str(seed)
            manifest = run_preset(sc, out_dir=str(out), seed=seed)
            rows = (out / "smoothing.csv").read_text().splitlines()[1:]
            errs = [float(r.split(",")[4]) for r in rows]
            if not (manifest["errors_decreasing"] and errs[0] > errs[1] > errs[2]):
                rising.append((seed, errs))
        assert rising == []

    def test_all_levels_rejected(self):
        basis = four_side_rectangle()
        tiny = 1e-12 * np.ones(basis.nsigma)
        with pytest.raises(SmoothingError):
            smooth_data(tiny, 1.0, basis, smoothing_gains(basis, 1.0))


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

    @pytest.mark.parametrize("tau0, tau_min, tau_max, ratio", [
        (0.0, 0.1, 1.0, 10**0.5), (0.0, 0.1, 0.5, 2.0**0.25), (0.0, 0.1, 0.5, 1.189207115002721)])
    def test_tau_grid_stays_below_tau_max(self, tau0, tau_min, tau_max, ratio):
        # lo * ratio**(n - 1) can round one ulp above tau_max (0.1 sqrt(10)^2 =
        # 1.0000000000000002); the grid takes tau_max there, and elsewhere the
        # geometric entries as they are
        g = tau_grid(tau0, tau_min, tau_max, ratio)
        lo = tau0 + tau_min
        geometric = lo * ratio ** np.arange(g.size)
        assert g[-1] == tau_max and np.all(np.diff(g) > 0)
        assert np.array_equal(g[:-1], geometric[:-1])
        assert g[-1] == min(geometric[-1], tau_max) or geometric[-1] < tau_max * (1 - 1e-12)

    def test_tau_grid_never_overshoots(self):
        # over a spread of schedules, several of which round the top entry
        # above tau_max, no grid leaves [tau0 + tau_min, tau_max]; a top entry
        # within 1e-12 below tau_max stands for it
        over = 0
        for tau_min in (0.01, 0.05, 0.1, 0.2, 0.3):
            for tau_max in (0.5, 0.7, 0.9, 1.0):
                for steps in range(1, 9):
                    ratio = (tau_max / tau_min) ** (1.0 / steps)
                    over += tau_min * ratio ** steps > tau_max
                    g = tau_grid(0.0, tau_min, tau_max, ratio)
                    assert g[0] == tau_min and g.size == steps + 1
                    assert tau_max * (1 - 1e-12) <= g[-1] <= tau_max
        assert over > 0


def sweep_setup(tau0, seed=3):
    from harmtomo import amplitude_modulate, design_delta_pulse

    J, M = 8, 48
    basis = build_basis(DomainSpec("interval", (np.pi,), (1.0, 1.0), (0.0,)), J)
    spec = NormSpec(s=1.0, orti_check=0.5)
    params = ModelParams.create(tau=tau0, beta=1.0, sigma0=1.0, omega=1.0, T0=T, A=2.0)
    pulse = design_delta_pulse(params, M, 0.04, amplitude=3.0)
    sp = amplitude_modulate(pulse, 2.0)
    truth = random_linearized(basis, M, seed, du_scale=1e-7, du_band=8)
    truth.a[:] /= (1 + np.arange(J))[:, None]
    return basis, spec, params, sp, truth


class TestSweep:
    def test_noiseless_consistency(self):
        basis, spec, params, sp, truth = sweep_setup(0.3)
        rows = run_sweep(basis, sp, params, spec, truth, [0.0], tau0=0.3, seed=11,
                         tau_min=0.05, tau_max=0.5, **SCHEDULE)
        assert rows[0].status == "ok"
        assert rows[0].tau == pytest.approx(0.3)
        assert rows[0].error_x <= 1e-9

    def test_mismatch_proportional_to_tau_offset(self):
        # reconstruct exact tau0 data with slightly larger relaxation times
        from harmtomo.reconstruct import LinearizedData, reconstruct
        from harmtomo.norms import x_norm

        basis, spec, params, sp, truth = sweep_setup(0.3)
        data = linearized_forward(sp, params, basis, truth)
        offsets = (0.0025, 0.005, 0.01)
        errs = []
        for d in offsets:
            rec = reconstruct(LinearizedData(rhat=data.rhat, phat=data.phat), sp, basis,
                              params.with_tau(0.3 + d))
            errs.append(x_norm(rec.a - truth.a, rec.b - truth.du, basis.lambdas,
                               params.omega, spec))
        slopes = np.array(errs) / np.array(offsets)
        assert np.max(slopes) / np.min(slopes) <= 2.0

    def test_full_sweep_decreasing_and_bounded(self):
        basis, spec, params, sp, truth = sweep_setup(0.0)
        rows = run_sweep(basis, sp, params, spec, truth, [1e-2, 1e-3, 1e-4], tau0=0.0,
                         seed=101, tau_min=0.1, tau_max=0.5, **SCHEDULE)
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
        # a row takes tau and its constants from the grid scored once and
        # inverts its noisy data with reconstruct; choose_tau and the
        # constants per row, with the fit and the state formula written out,
        # give the same rows
        basis, spec, params, sp, truth = sweep_setup(tau0)
        args = (basis, sp, params, spec, truth, deltas)
        kw = dict(tau0=tau0, seed=seed, tau_min=tau_min, tau_max=0.5, **SCHEDULE)
        fields = ("delta", "tau", "error_x", "bound", "cbar", "ctilde", "fit_rel_residual",
                  "fit_cond", "status")
        rows = [tuple(getattr(r, f) for f in fields) for r in run_sweep(*args, **kw)]
        expected = [tuple(getattr(r, f) for f in fields)
                    for r in sweep_rows_from_fit(*args, **kw)]
        assert len(rows) == len(deltas) and all(r[-1] == "ok" for r in rows)
        assert rows == expected

    def test_shipped_scenario_rows_equal_per_row_schedule(self):
        # the shipped qr-sweep scores its grid once; choosing tau and the
        # constants row by row gives the same rows bit for bit
        sc = load_scenario(SCENARIOS / "qr_sweep.json")
        params, basis = make_params(sc), make_basis(sc)
        sp = make_reference(sc, basis, params)
        truth = make_true_fields(sc, basis, np.random.default_rng(sc.seed))
        qr = quasirev_settings(sc)
        args = (basis, sp, params, make_norm_spec(sc), truth, noise_levels(sc))
        kw = dict(tau0=qr["tau0"], seed=sc.seed, tau_min=qr["tau_min"],
                  tau_max=qr["tau_max"], ratio=qr["grid_ratio"], tolerance=qr["tolerance"])
        fields = ("delta", "tau", "error_x", "bound", "cbar", "ctilde", "fit_rel_residual",
                  "fit_cond", "status")
        rows = [tuple(getattr(r, f) for f in fields) for r in run_sweep(*args, **kw)]
        expected = [tuple(getattr(r, f) for f in fields)
                    for r in sweep_rows_from_fit(*args, **kw)]
        assert len(rows) == 3 and all(r[-1] == "ok" for r in rows)
        assert rows == expected

    def test_shipped_sweep_factors_once_per_tau(self, monkeypatch, tmp_path):
        # the pilot and the delta 1e-2 row share tau 0.5: four levels, three
        # distinct taus factored in one stacked pass, one fit per tau
        from harmtomo import quasirev

        build, apply = quasirev.build_fit_maps, quasirev.apply_fit_map
        built, applied = [], []
        monkeypatch.setattr(quasirev, "build_fit_maps",
                            lambda *a: built.append(list(a[4])) or build(*a))
        monkeypatch.setattr(quasirev, "apply_fit_map",
                            lambda fm, data: applied.append(data.phat.shape[0]) or apply(fm, data))
        run_preset(load_scenario(SCENARIOS / "qr_sweep.json"), out_dir=str(tmp_path))
        assert len(built) == 1
        assert len(built[0]) == len(set(built[0])) == 3
        assert applied == [2, 1, 1]

    def test_invalid_schedule_raises_before_any_row(self):
        # tau0 = 0 needs orti_check < 1, and the tolerance must be positive: a
        # broken schedule is not a failed row
        basis, spec, params, sp, truth = sweep_setup(0.0)
        with pytest.raises(TheoremHypothesisError, match="orti_check < 1"):
            run_sweep(basis, sp, params, NormSpec(s=1.0, orti_check=1.0), truth, [1e-2],
                      tau0=0.0, seed=5, tau_min=0.1, tau_max=0.5, **SCHEDULE)
        for tolerance in (0.0, -1.0, float("nan")):
            with pytest.raises(TheoremHypothesisError, match=f"tolerance {tolerance!r} must be"):
                run_sweep(basis, sp, params, spec, truth, [1e-2], tau0=0.0, seed=5,
                          tau_min=0.1, tau_max=0.5, ratio=2.0**0.25, tolerance=tolerance)

    def test_typed_failures_become_rows_and_others_propagate(self, monkeypatch):
        # the pilot (3e-2) and the 1e-2 row share tau 0.5; 1e-3 and 1e-4 each
        # have their own tau.  A typed failure of the factorization at a tau
        # fails the rows there, at the pilot's tau it raises, and whatever the
        # fit itself raises propagates (it raises no typed error of its own)
        import harmtomo.quasirev as qr

        basis, spec, params, sp, truth = sweep_setup(0.0)
        invert, build = qr.apply_fit_map, qr.build_fit_maps
        run = partial(run_sweep, basis, sp, params, spec, truth, [1e-2, 1e-3, 1e-4], tau0=0.0,
                      seed=5, tau_min=0.1, tau_max=0.5, **SCHEDULE)

        def after_pilot(exc):
            # the fit at the pilot's tau runs, the others raise exc
            calls = []

            def patched(*args, **kwargs):
                calls.append(1)
                if len(calls) == 1:
                    return invert(*args, **kwargs)
                raise exc
            return patched

        def maps_after(exc, first=1):
            # the maps at the first `first` taus (the pilot's first) are built, the others are exc
            return lambda *a: [fm if k < first else exc for k, fm in enumerate(build(*a))]

        monkeypatch.setattr(qr, "build_fit_maps", maps_after(IllConditionedFitError(3e12)))
        rows = run()
        assert len(rows) == 3 and rows[0].status == "ok" and rows[0].tau == 0.5
        assert all(r.status.startswith("failed: IllConditionedFitError: ") for r in rows[1:])
        assert all(np.isnan(r.error_x) and np.isnan(r.fit_cond) for r in rows[1:])

        monkeypatch.setattr(qr, "build_fit_maps", maps_after(IllConditionedFitError(3e12), 0))
        with pytest.raises(IllConditionedFitError):
            run()

        monkeypatch.setattr(qr, "build_fit_maps", build)
        for exc in (KeyError("not a numerical failure"), IllConditionedFitError(3e12)):
            monkeypatch.setattr(qr, "apply_fit_map", after_pilot(exc))
            with pytest.raises(type(exc)):
                run()

        # a tau whose design the stacked factorization rejects fails its row alone
        monkeypatch.setattr(qr, "apply_fit_map", invert)
        monkeypatch.setattr(qr, "build_fit_maps", lambda *a: [
            IllConditionedFitError(5e12) if k == 2 else fm for k, fm in enumerate(build(*a))])
        rows = run()
        assert [r.status for r in rows[:2]] == ["ok", "ok"]
        assert rows[2].status == "failed: IllConditionedFitError: " + str(
            IllConditionedFitError(5e12))
        assert np.isnan(rows[2].error_x) and np.isnan(rows[2].fit_cond)


def test_time_derivative_norm(basis8, spec_std):
    du = np.zeros((2, 4, basis8.J), dtype=complex)
    du[0, 2, 1] = 1.0  # m = 3 on mode lambda_1
    omega = 1.5
    expected = ((3 * omega) ** spec_std.orti_check * (3 * omega)
                * basis8.lambdas[1] ** (spec_std.s_check / 2))
    assert time_derivative_norm(du, omega, basis8.lambdas, spec_std) == pytest.approx(expected)
