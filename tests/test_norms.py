import numpy as np
import pytest

from harmtomo import (bochner_norm, image_norms, pole_table, rho_t, x_norm,
                      ytilde_obs_norm)
from harmtomo.fields import ModelParams
from harmtomo.norms import _image_terms, _lam_weight
from harmtomo.reconstruct import linearized_forward
from conftest import random_linearized
from oracles import (add_noise, image_pieces, image_terms, j_bound, j_bound_constant,
                     synthesize_time)


def _norms(s, spec, a, rhat, poles=None, params=None):
    """(Yobs, Ymod) over one pole table of the setup s, or of poles and params."""
    poles, params = poles or s["poles"], params or s["params"]
    t = pole_table(poles, s["sp"], params)
    return image_norms(a, rhat, t, spec, s["sp"], s["basis"], params)


def _ymod(s, spec, rhat):
    """Ymod of rhat, which does not read the coefficient pairs."""
    return _norms(s, spec, np.zeros(np.shape(rhat)[:-3] + (s["basis"].J, 2)), rhat)[1]


class TestRho:
    def test_value_at_zero(self):
        assert rho_t(0.0, 2.5) == pytest.approx(1.0 / 2.5)

    def test_definition_identity(self):
        rng = np.random.default_rng(0)
        T = 2 * np.pi
        for x in rng.uniform(-3, 3, 10):
            integral = (np.exp(x * T) - 1) / x if x != 0 else T
            assert rho_t(-x, T) * integral == pytest.approx(1.0, rel=1e-12)

    def test_display_form(self):
        T = 1.7
        for x in (0.3, 1.2, 4.0):
            display = x * np.exp(-x * T) / (1.0 - np.exp(-x * T))
            assert rho_t(-x, T) == pytest.approx(display, rel=1e-12)

    def test_positive_and_decaying_for_damped_argument(self):
        T = 2.0
        vals = rho_t(np.array([-0.1, -1.0, -10.0, -100.0]), T)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


class TestBochner:
    def test_single_term(self):
        lambdas = np.array([0.5, 1.0, 2.0])
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = 1.0  # m = 1 on the lambda = 1 mode
        omega = 1.3
        for orti in (0.0, 0.5, 1.0):
            assert bochner_norm(c, omega, lambdas, orti, 1.0) == pytest.approx(omega**orti)

    def test_plain_l2_case(self):
        rng = np.random.default_rng(1)
        lambdas = np.array([0.0, 1.0, 4.0])
        c = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert bochner_norm(c, 2.0, lambdas, 0.0, 0.0) == pytest.approx(np.linalg.norm(c))

    def test_parseval_against_time_grid(self, basis8):
        # L2(0,T; L2) of the synthesized signal equals sqrt(T/2) times the
        # plain coefficient norm under the (2/T) convention
        rng = np.random.default_rng(2)
        M, omega = 6, 1.0
        T = 2 * np.pi / omega
        u = rng.standard_normal((M, basis8.J)) + 1j * rng.standard_normal((M, basis8.J))
        t = np.linspace(0, T, 2048, endpoint=False)
        ug = u @ basis8.phi  # (M, nq)
        sig = synthesize_time(ug, omega, t)  # (nq, nt)
        sq_time = np.sum(sig**2, axis=1) * (T / t.size)
        l2_sq = float(np.sum(basis8.weights * sq_time))
        expected = np.sqrt(T / 2.0) * bochner_norm(u, omega, basis8.lambdas, 0.0, 0.0)
        assert np.sqrt(l2_sq) == pytest.approx(expected, rel=1e-10)


class TestXNorm:
    def test_zero_and_homogeneous(self, basis8, spec_std):
        J, M = basis8.J, 6
        rng = np.random.default_rng(3)
        a = rng.standard_normal((J, 2))
        du = rng.standard_normal((2, M, J)) + 1j * rng.standard_normal((2, M, J))
        assert x_norm(np.zeros((J, 2)), np.zeros_like(du), basis8.lambdas, 1.0, spec_std) == 0.0
        v1 = x_norm(a, du, basis8.lambdas, 1.0, spec_std)
        v3 = x_norm(3.0 * a, 3.0 * du, basis8.lambdas, 1.0, spec_std)
        assert v3 == pytest.approx(3.0 * v1, rel=1e-12)

    def test_two_mode_hand_evaluation(self, spec_std):
        lambdas = np.array([1.0, 4.0])
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        du = np.zeros((2, 2, 2), dtype=complex)
        du[0, 0, 0] = 1.0  # source 1, m = 1, mode lambda = 1
        omega = 1.0
        coef_sq = 1.0**spec_std.s * 1.0 + 4.0**spec_std.s * 4.0
        state_sq = (1.0 * omega) ** (2 * spec_std.orti_check) * 1.0**spec_std.s_check
        assert x_norm(a, du, lambdas, omega, spec_std) == pytest.approx(
            np.sqrt(coef_sq + state_sq))

    def test_triangle_inequality(self, basis8, spec_std):
        rng = np.random.default_rng(4)
        J, M = basis8.J, 6
        for _ in range(20):
            a1, a2 = rng.standard_normal((2, J, 2))
            d1 = rng.standard_normal((2, M, J)) + 1j * rng.standard_normal((2, M, J))
            d2 = rng.standard_normal((2, M, J)) + 1j * rng.standard_normal((2, M, J))
            lhs = x_norm(a1 + a2, d1 + d2, basis8.lambdas, 1.0, spec_std)
            rhs = (x_norm(a1, d1, basis8.lambdas, 1.0, spec_std)
                   + x_norm(a2, d2, basis8.lambdas, 1.0, spec_std))
            assert lhs <= rhs + 1e-12


class TestImageNorms:
    def test_zero(self, setup_small, spec_std):
        s = setup_small
        zero_r = np.zeros((2, s["M"], s["basis"].J), dtype=complex)
        zero_a = np.zeros((s["basis"].J, 2))
        assert _norms(s, spec_std, zero_a, zero_r) == (0.0, 0.0)

    def test_linearized_stability_proposition(self, setup_small, spec_std):
        # unit-bound stability: X <= Yobs + Ymod on random draws
        s = setup_small
        min_slack = np.inf
        for k in range(100):
            lin = random_linearized(s["basis"], s["M"], 1000 + k, decay=False)
            data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
            xv = x_norm(lin.a, lin.du, s["basis"].lambdas, s["params"].omega, spec_std)
            yv = sum(_norms(s, spec_std, lin.a, data.rhat))
            min_slack = min(min_slack, yv - xv)
        assert min_slack >= -1e-10

    def test_ymod_cancellation_structure(self, setup_small, spec_std):
        # the first double sum vanishes when the harmonics are generated from
        # the very pole values it is given
        s = setup_small
        rng = np.random.default_rng(5)
        q = rng.standard_normal((s["basis"].J, 2)) + 1j * rng.standard_normal((s["basis"].J, 2))
        q[~s["poles"].ok] = 0.0
        rhat = np.einsum("mef,jf->emj", s["sp"].mm[: s["M"]], q)
        ok = np.flatnonzero(s["poles"].ok)
        t1, t2 = _image_terms(q[ok], rhat[..., ok],
                              *image_pieces(spec_std, s["sp"], s["basis"], s["params"], ok, s["M"]))
        assert t1 <= 1e-20 * max(t2, 1.0)
        assert t2 > 0

    def test_homogeneity(self, setup_small, spec_std):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 6)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        y1, m1 = _norms(s, spec_std, lin.a, data.rhat)
        y2, m2 = _norms(s, spec_std, 2.0 * lin.a, 2.0 * data.rhat)
        assert y2 == pytest.approx(2.0 * y1, rel=1e-12)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)
        assert _ymod(s, spec_std, 3.0 * data.rhat) == pytest.approx(3.0 * m1, rel=1e-12)


    def test_yobs_zero_harmonics_is_empty_first_sum(self, setup_small, spec_std):
        # M = 0 is an empty harmonic range, not the source truncation
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 7)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        t = pole_table(s["poles"], s["sp"], s["params"])
        q = lin.a[t.ok] - t.model_term_ok(data.rhat[..., t.ok])
        args = (spec_std, s["sp"], s["basis"], s["params"], t.ok)
        t1, t2 = _image_terms(q, 0.0, *image_pieces(*args, 0))
        full1, full2 = _image_terms(q, 0.0, *image_pieces(*args, s["M"]))
        assert t1 == 0.0 and full1 > 0.0
        assert t2 == full2 > 0.0
        assert (full1, full2) == image_terms(lin.a, data.rhat, spec_std, s["sp"], s["poles"],
                                             s["basis"], s["params"])[0]


class TestYtilde:
    def test_single_mode_closed_weight(self, basis8):
        s, omega = 1.0, 1.3
        M = 5
        phat = np.zeros((2, M, basis8.nsigma), dtype=complex)
        ell, m = 2, 3
        c = 0.4 - 0.9j
        phat[0, m - 1, :] = c * basis8.trace_matrix[ell]
        # lift recovers exactly c in mode ell plus leakage into others; with a
        # single Sigma point the lift spreads, so compute the expected value
        from harmtomo.eigenbasis import trace_right_inverse
        lifted = phat[0, m - 1] @ trace_right_inverse(basis8, np.arange(basis8.J)).T
        expected = (1.0 + m * omega) * np.sqrt(
            np.sum(np.power(basis8.lambdas, s + 1.0) * np.abs(lifted) ** 2))
        assert ytilde_obs_norm(phat, basis8, s, omega) == pytest.approx(expected, rel=1e-12)

    def test_scaling(self, basis8):
        rng = np.random.default_rng(7)
        phat = rng.standard_normal((2, 6, basis8.nsigma)) + 1j * rng.standard_normal((2, 6, basis8.nsigma))
        v1 = ytilde_obs_norm(phat, basis8, 1.0, 1.0)
        v2 = ytilde_obs_norm(5.0 * phat, basis8, 1.0, 1.0)
        assert v2 == pytest.approx(5.0 * v1, rel=1e-12)

    def test_batch_axes_one_value_per_data_set(self, basis8):
        # leading axes are data sets: each value equals the one-set call bit for
        # bit, and a one-source (M, ns) array is one data set
        rng = np.random.default_rng(11)
        shape = (3, 4, 2, 6, basis8.nsigma)
        phat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vals = ytilde_obs_norm(phat, basis8, 1.0, 0.5)
        assert vals.shape == (3, 4)
        for k in np.ndindex(3, 4):
            one = ytilde_obs_norm(phat[k], basis8, 1.0, 0.5)
            assert isinstance(one, float) and vals[k] == one
            assert one == max(ytilde_obs_norm(phat[k][e], basis8, 1.0, 0.5) for e in range(2))

    def test_vanishing_trace_raises_rank_error(self):
        # Neumann modes cos(j x) at x = pi/2: the odd ones have roundoff-level traces
        from harmtomo import DomainSpec, build_basis
        from harmtomo.errors import TraceRankError
        basis = build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (np.pi / 2,)), 4)
        phat = np.ones((2, 3, 1), dtype=complex)
        with pytest.raises(TraceRankError) as err:
            ytilde_obs_norm(phat, basis, 1.0, 1.0)
        assert err.value.ell == 1
        with pytest.raises(TraceRankError):
            add_noise(phat, 1e-3, 1, basis, 1.0, 1.0)

    def test_dominates_yobs_with_tau_trend(self, setup_small, spec_std):
        # fitted comparison constant grows as tau decreases
        s = setup_small
        fitted = []
        for tau in (0.5, 0.25, 0.125):
            params = s["params"].with_tau(tau)
            from harmtomo import build_pole_set
            poles = build_pole_set(s["basis"].lambdas, params)
            worst = 0.0
            for k in range(10):
                lin = random_linearized(s["basis"], s["M"], 3000 + k)
                data = linearized_forward(s["sp"], params, s["basis"], lin)
                yo, _ = _norms(s, spec_std, lin.a, data.rhat, poles, params)
                yt = ytilde_obs_norm(data.phat, s["basis"], spec_std.s, params.omega)
                worst = max(worst, yo / yt)
            fitted.append(worst)
        assert fitted[0] < fitted[1] < fitted[2]


class TestAmplificationBound:
    def test_spot_constant(self):
        # chi = 0, sigma0 = beta = omega = 1, tau = 0 gives the constant 2
        p = ModelParams.create(tau=0.0, beta=1.0, sigma0=1.0, omega=1.0, T0=np.pi, A=2.0)
        assert j_bound_constant(0.0, p) == pytest.approx(2.0)

    def test_slack_nonnegative_sweep(self):
        # spectra with a small lowest eigenvalue break the chi > 0 bound (the
        # weight lam^chi vanishes at 0), so the sweep uses the unit interval
        # whose lowest Robin eigenvalue is about 1.7, and moderate parameters
        from oracles import interval_eigenvalues
        lams = interval_eigenvalues(1.0, (1.0, 1.0), 100)
        rng = np.random.default_rng(8)
        for _ in range(5):
            beta = rng.uniform(0.8, 1.25)
            sigma0 = rng.uniform(0.8, 1.25)
            tau = rng.uniform(0.2, 0.9) * beta * sigma0
            p = ModelParams.create(tau=tau, beta=beta, sigma0=sigma0,
                                   omega=rng.uniform(0.8, 1.6), T0=1.0, A=2.0)
            for chi in (0.0, 0.5, 1.0):
                for m in (1, 2, 8, 32):
                    slack = j_bound(chi, m, lams, p)
                    assert np.min(slack) >= 0.0

    def test_chi_zero_holds_even_for_small_eigenvalues(self):
        # the chi = 0 bound is parameter-uniform down to lambda -> 0
        from oracles import interval_eigenvalues
        lams = interval_eigenvalues(np.pi, (1.0, 1.0), 100)
        rng = np.random.default_rng(9)
        for _ in range(10):
            beta = rng.uniform(0.5, 2.0)
            sigma0 = rng.uniform(0.5, 2.0)
            tau = rng.uniform(0.05, 0.95) * beta * sigma0
            p = ModelParams.create(tau=tau, beta=beta, sigma0=sigma0,
                                   omega=rng.uniform(0.5, 2.0), T0=1.0, A=2.0)
            for m in (1, 2, 8, 32, 64):
                assert np.min(j_bound(0.0, m, lams, p)) >= 0.0

    def test_tau_zero_chi_zero_allowed(self):
        p = ModelParams.create(tau=0.0, beta=1.0, sigma0=1.0, omega=1.0, T0=np.pi, A=2.0)
        lams = np.linspace(0.1, 50, 40)
        assert np.min(j_bound(0.0, 3, lams, p)) >= 0.0
        with pytest.raises(ValueError):
            j_bound(0.5, 3, lams, p)

    def test_degenerate_tau_rejected(self):
        p = ModelParams.create(tau=1.0, beta=1.0, sigma0=1.0, omega=1.0, T0=np.pi, A=2.0)
        with pytest.raises(ValueError):
            j_bound_constant(0.0, p)


def sobolev_norm(coeffs, lambdas, s: float) -> float:
    """Spatial H^s norm of one coefficient vector (trailing axis = modes)."""
    return float(np.sqrt(np.sum(_lam_weight(lambdas, s) * np.abs(coeffs) ** 2)))


def test_sobolev_zero_mode_convention():
    lambdas = np.array([0.0, 1.0])
    c = np.array([1.0, 0.0])
    assert sobolev_norm(c, lambdas, 1.0) == 0.0   # constant mode carries no weight
    assert sobolev_norm(c, lambdas, 0.0) == 1.0   # 0**0 = 1 keeps the plain l2 case


def test_image_norm_triangle_inequalities(setup_small, spec_std):
    s = setup_small
    rng = np.random.default_rng(11)
    shape_r = (2, s["M"], s["basis"].J)
    shape_a = (s["basis"].J, 2)
    for _ in range(10):
        r1 = rng.standard_normal(shape_r) + 1j * rng.standard_normal(shape_r)
        r2 = rng.standard_normal(shape_r) + 1j * rng.standard_normal(shape_r)
        lhs = _ymod(s, spec_std, r1 + r2)
        rhs = _ymod(s, spec_std, r1) + _ymod(s, spec_std, r2)
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)
        a1 = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        a2 = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
        lhs, _ = _norms(s, spec_std, a1 + a2, r1 + r2)
        rhs = _norms(s, spec_std, a1, r1)[0] + _norms(s, spec_std, a2, r2)[0]
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)
        p1 = rng.standard_normal((2, 6, s["basis"].nsigma)) + 1j * rng.standard_normal((2, 6, s["basis"].nsigma))
        p2 = rng.standard_normal((2, 6, s["basis"].nsigma)) + 1j * rng.standard_normal((2, 6, s["basis"].nsigma))
        lhs = ytilde_obs_norm(p1 + p2, s["basis"], 1.0, 1.0)
        rhs = ytilde_obs_norm(p1, s["basis"], 1.0, 1.0) + ytilde_obs_norm(p2, s["basis"], 1.0, 1.0)
        assert lhs <= rhs + 1e-12 * max(rhs, 1.0)


def test_ymod_dominated_by_bochner_with_stable_constant(setup_small, spec_std):
    # fitted domination constant across independent draws; reported magnitude,
    # only stability across draws is asserted
    s = setup_small
    rng = np.random.default_rng(12)
    fitted = []
    for _ in range(8):
        r = rng.standard_normal((2, s["M"], s["basis"].J)) + 1j * rng.standard_normal((2, s["M"], s["basis"].J))
        ym = _ymod(s, spec_std, r)
        bo = bochner_norm(r, s["params"].omega, s["basis"].lambdas,
                          spec_std.orti_check, spec_std.s_check)
        fitted.append(ym / bo)
    fitted = np.array(fitted)
    assert np.all(np.isfinite(fitted))
    assert np.max(fitted) / np.min(fitted) <= 5.0
