import numpy as np
import pytest

from harmtomo import asymptotic_poles, build_pole_set, characteristic_roots, verify_bounds
from harmtomo.fields import ModelParams
from harmtomo.scenarios import scenario_hash
from conftest import run_scenario, small_scenario
from oracles import (big_theta, vartheta, NonOscillatoryError, PoleSelectionError,
                     asymptotic_poles_loop, build_pole_set_loop, interval_eigenvalues,
                     pole_asymptotic, select_pole)


def psi_transfer(o, params):
    """Psi(o) = -vartheta(o) / Theta(o); poles satisfy Psi(p_l) = lam_l."""
    return -vartheta(o, params) / big_theta(o, params)


def root_residuals(roots, lam, params):
    """Relative residual |vartheta(p) + Theta(p) lam| / scale at each root."""
    roots = np.asarray(roots, dtype=complex)
    vals = np.abs(vartheta(roots, params) + big_theta(roots, params) * lam)
    scale = (abs(params.tau) * np.abs(roots) ** 3 + params.sigma0 * np.abs(roots) ** 2
             + abs(lam) * (params.beta * np.abs(roots) + 1.0))
    return vals / np.maximum(scale, 1e-300)


def params_of(tau=0.5, beta=1.0, sigma0=1.0, omega=1.0):
    return ModelParams.create(tau=tau, beta=beta, sigma0=sigma0, omega=omega,
                              T0=np.pi / omega, A=2.0)


def np_roots(lam, params):
    """Roots of one eigenvalue's characteristic polynomial by np.roots."""
    if params.tau > 0:
        return np.roots([params.tau, params.sigma0, params.beta * lam, lam])
    return np.roots([params.sigma0, params.beta * lam, lam])


class TestRoots:
    def test_lambda_zero_factorization(self):
        p = params_of(tau=1.0)
        roots = np.sort_complex(characteristic_roots(0.0, p))
        assert np.allclose(roots, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_cubic_factorization_example(self):
        # p^3 + p^2 + 2p + 2 = (p + 1)(p^2 + 2)
        p = params_of(tau=1.0)
        roots = characteristic_roots(2.0, p)
        expected = {-1.0 + 0j, 1j * np.sqrt(2), -1j * np.sqrt(2)}
        for r in roots:
            assert min(abs(r - e) for e in expected) <= 1e-12

    def test_residuals_on_random_parameters(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            beta = rng.uniform(0.5, 2.0)
            sigma0 = rng.uniform(0.5, 2.0)
            tau = rng.uniform(0.05, 0.95) * beta * sigma0
            p = params_of(tau=tau, beta=beta, sigma0=sigma0)
            lam = rng.uniform(0.0, 500.0)
            roots = characteristic_roots(lam, p)
            assert np.max(root_residuals(roots, lam, p)) <= 1e-9

    def test_westervelt_quadratic(self):
        p = params_of(tau=0.0)
        roots = characteristic_roots(100.0, p)
        assert roots.size == 2
        # strongly damped branch diverges with lambda: the ill-posedness signature
        assert np.min(roots.real) < -50.0


class TestStackedRoots:
    @pytest.mark.parametrize("J", [8, 16, 64])
    @pytest.mark.parametrize("tau", [0.5, 0.1, 0.02, 0.0])
    @pytest.mark.parametrize("omega", [0.25, 1.0])
    def test_bit_identical_to_np_roots(self, J, tau, omega):
        p = params_of(tau=tau, omega=omega)
        for gamma in ((1.0, 1.0), (0.0, 0.0)):   # Neumann adds lambda = 0
            lams = interval_eigenvalues(np.pi, gamma, J)
            roots = characteristic_roots(lams, p)
            assert roots.shape == (J, 3 if tau > 0 else 2)
            for lam, r in zip(lams, roots):
                ref = np_roots(lam, p)
                if lam == 0.0:  # np.roots strips the zero roots and appends them
                    assert np.array_equal(np.sort_complex(r), np.sort_complex(ref))
                else:
                    assert np.array_equal(r, ref)

    @pytest.mark.parametrize("J", [8, 16, 64])
    @pytest.mark.parametrize("tau", [0.5, 0.1, 0.02, 0.0])
    @pytest.mark.parametrize("omega", [0.25, 1.0])
    def test_selection_identical_to_loop(self, J, tau, omega):
        p = params_of(tau=tau, omega=omega)
        for gamma in ((1.0, 1.0), (0.0, 0.0)):   # Neumann adds lambda = 0, which has no pole
            lams = interval_eigenvalues(np.pi, gamma, J)
            got, ref = build_pole_set(lams, p), build_pole_set_loop(lams, p)
            for name in ("poles", "ok"):
                assert np.array_equal(getattr(got, name), getattr(ref, name), equal_nan=True), name
            assert np.array_equal(asymptotic_poles(lams, p), asymptotic_poles_loop(lams, p),
                                  equal_nan=True)


class TestSelection:
    def test_selects_upper_half_plane_root(self):
        p = params_of(tau=1.0)
        roots = characteristic_roots(2.0, p)
        sel = select_pole(roots, 2.0, p)
        assert sel == pytest.approx(1j * np.sqrt(2))
        assert psi_transfer(sel, p) == pytest.approx(2.0)

    def test_alpha_zero_poles_purely_imaginary(self):
        p = params_of(tau=1.0)  # tau = sigma0*beta
        for lam in (0.5, 2.0, 10.0, 100.0):
            sel = select_pole(characteristic_roots(lam, p), lam, p)
            assert abs(sel.real) <= 1e-10
            assert sel.imag == pytest.approx(np.sqrt(p.beta * lam / p.tau), rel=1e-10)

    def test_no_upper_root_raises(self):
        p = params_of(tau=1.0)
        with pytest.raises(PoleSelectionError):
            select_pole(characteristic_roots(0.0, p), 0.0, p)

    def test_large_lambda_modulus_ratio(self):
        p = params_of(tau=0.5)
        lams = np.array([10.0, 100.0, 1000.0, 10000.0])
        ratios = []
        for lam in lams:
            sel = select_pole(characteristic_roots(lam, p), lam, p)
            ratios.append(abs(sel) / np.sqrt(p.beta * lam / p.tau))
        devs = np.abs(np.array(ratios) - 1.0)
        assert np.all(np.diff(devs) < 0)
        assert devs[-1] <= 1e-3

    def test_selection_stable_under_perturbation(self):
        p = params_of(tau=0.5)
        for lam in (3.0, 30.0, 300.0):
            a = select_pole(characteristic_roots(lam, p), lam, p)
            b = select_pole(characteristic_roots(lam * (1 + 1e-12), p), lam * (1 + 1e-12), p)
            assert abs(a - b) <= 1e-6 * max(1.0, abs(a))


class TestAsymptotic:
    def test_alpha_zero_closed_form(self):
        p = params_of(tau=1.0)
        assert pole_asymptotic(2.0, p) == pytest.approx(1j * np.sqrt(2))

    def test_relative_error_decreases(self):
        p = params_of(tau=0.5)
        errs = []
        for lam in (10.0, 100.0, 1000.0):
            exact = select_pole(characteristic_roots(lam, p), lam, p)
            approx = pole_asymptotic(lam, p)
            errs.append(abs(exact - approx) / abs(exact))
        assert errs[0] > errs[1] > errs[2]

    def test_non_oscillatory_raises(self):
        p = params_of(tau=0.05)
        with pytest.raises(NonOscillatoryError):
            pole_asymptotic(1e-3, p)


class TestBounds:
    def test_interval_sweep_fitted_constant(self):
        lams = interval_eigenvalues(np.pi, (1.0, 1.0), 500)
        p = params_of(tau=0.5)
        ps = build_pole_set(lams, p)
        assert ps.n_ok == 500
        diag = verify_bounds(ps, p)
        assert np.isfinite(diag["fitted_c"])
        assert diag["max_re"] <= 0.0
        # both displayed bounds hold with the fitted constant
        c = diag["fitted_c"]
        alpha = p.alpha
        ok = ps.ok
        lam, poles = ps.lambdas[ok], ps.poles[ok]
        assert np.all(-poles.real <= (alpha / p.tau) * (1 + c / lam) * (1 + 1e-12))
        ref = np.sqrt(p.beta * lam / p.tau)
        assert np.all(np.abs(poles) <= ref * (1 + c * alpha / lam) * (1 + 1e-12))
        assert np.all(np.abs(poles) >= ref * (1 - c * alpha / lam) * (1 - 1e-12))

    def test_alpha_to_zero_limit(self):
        lams = interval_eigenvalues(np.pi, (1.0, 1.0), 50)
        worst = []
        for tau in (0.6, 0.8, 0.95, 0.999):
            p = params_of(tau=tau)
            ps = build_pole_set(lams, p)
            worst.append(np.max(np.abs(ps.poles[ps.ok].real)))
        assert worst[0] > worst[1] > worst[2] > worst[3]
        assert worst[-1] <= 1e-2


def test_pole_table_csv(tmp_path):
    out, sc = run_scenario(tmp_path, small_scenario("pole-report"))
    assert sc.params["tau"] == 0.5
    lines = (out / "poles.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["ell", "lambda", "re_p", "im_p"]
    assert len(lines) == 9
    assert lines[1].endswith(scenario_hash(sc))
