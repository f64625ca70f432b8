import numpy as np
import pytest

from harmtomo import harmonic_symbol, observe, solve_multiharmonic
from harmtomo.eigenbasis import build_rectangle_basis, project, synthesize
from harmtomo.errors import ConvergenceError, ResonanceError
from harmtomo.fields import MaterialField, ModelParams
import harmtomo.forward as fw
from harmtomo.forward import (harmonic_product_time, model_residual, nonlinear_model,
                              symbols_matrix)

from oracles import (big_theta, vartheta, convolve_bm_all, convolve_bm_grid, convolve_bm_grid_loop, coupling_ref,
                     harmonic_product_loop, nonlinear_model_ref, product_dc_loop,
                     solve_linear_harmonics, synthesize_time)

GOLDEN = (1 + 5**0.5) / 2
KERNEL_RTOL = 1e-13


def _rel_err(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def params_of(tau=0.5, beta=1.0, sigma0=1.0, omega=1.0, T0=None, A=2.0):
    T0 = T0 if T0 is not None else np.pi / omega
    return ModelParams.create(tau=tau, beta=beta, sigma0=sigma0, omega=omega, T0=T0, A=A)


class TestHarmonicSymbol:
    @pytest.mark.parametrize("kind", ["interval", "rectangle"])
    def test_symbols_matrix_matches_per_harmonic(self, kind, basis16):
        basis = basis16 if kind == "interval" else build_rectangle_basis(
            np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 12, sigma_points="side:y=0")
        p = params_of(tau=0.3, beta=0.8, omega=0.5)
        M = 64
        table = symbols_matrix(p, basis.lambdas, M)
        rows = np.array([harmonic_symbol(p, m, basis.lambdas) for m in range(1, M + 1)])
        assert table.shape == (M, basis.J)
        assert _rel_err(table, rows) <= 1e-15

    def test_undamped_resonance(self):
        # tau = beta = 0 is outside the admissible parameter set; evaluate the formula directly
        w, m, lam, sigma0 = 1.0, 1, 1.0, 1.0
        val = (1j * m**3 * w**3 * 0.0 + m**2 * w**2 * sigma0 - lam * (1 + 1j * 0.0)) / (m * w) ** 2
        assert val == 0.0

    def test_hand_value(self):
        p = params_of(tau=1.0)
        assert harmonic_symbol(p, 1, 2.0) == pytest.approx(-1.0 - 1.0j)

    def test_lambda_zero(self):
        p = params_of(tau=0.3, omega=0.7)
        for m in (1, 2, 5):
            assert harmonic_symbol(p, m, 0.0) == pytest.approx(1j * p.tau * m * p.omega + p.sigma0)

    def test_characteristic_function_cross_check(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            beta = rng.uniform(0.5, 2.0)
            sigma0 = rng.uniform(0.5, 2.0)
            tau = rng.uniform(0.0, 0.9) * beta * sigma0
            p = params_of(tau=tau, beta=beta, sigma0=sigma0, omega=rng.uniform(0.3, 2.0))
            m = int(rng.integers(1, 9))
            lam = rng.uniform(0.0, 30.0)
            o = 1j * m * p.omega
            expected = (vartheta(o, p) + big_theta(o, p) * lam) / o**2
            assert harmonic_symbol(p, m, lam) == pytest.approx(expected, rel=1e-13)


class TestConvolution:
    def test_single_harmonic_square(self, basis8):
        M, J = 6, basis8.J
        c = 0.7 - 0.2j
        u = np.zeros((M, J), dtype=complex)
        u[0, 1] = c
        expected_b2 = 0.5 * c * c * project(basis8, basis8.phi[1] ** 2)
        b = convolve_bm_all(basis8, u, u)
        assert np.max(np.abs(b[1] - expected_b2)) <= 1e-12
        assert np.max(np.abs(b[0])) <= 1e-14
        assert np.max(np.abs(b[2])) <= 1e-14

    def test_two_harmonic_hand_expansion(self, basis8):
        M, J = 6, basis8.J
        rng = np.random.default_rng(1)
        u = np.zeros((M, J), dtype=complex)
        u[0] = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        u[1] = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        g1, g2 = synthesize(basis8, u[0]), synthesize(basis8, u[1])
        expected = project(basis8, g1 * g2)
        assert np.max(np.abs(convolve_bm_all(basis8, u, u)[2] - expected)) <= 1e-12

    def test_bilinearity_and_symmetry(self, basis8):
        M, J = 5, basis8.J
        rng = np.random.default_rng(2)
        u = rng.standard_normal((M, J)) + 1j * rng.standard_normal((M, J))
        v = rng.standard_normal((M, J)) + 1j * rng.standard_normal((M, J))
        w = rng.standard_normal((M, J)) + 1j * rng.standard_normal((M, J))
        buv = convolve_bm_all(basis8, u, v)
        bvu = convolve_bm_all(basis8, v, u)
        assert np.max(np.abs(buv - bvu)) <= 1e-12
        lhs = convolve_bm_all(basis8, u, 2.0 * v + w)
        rhs = 2.0 * buv + convolve_bm_all(basis8, u, w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        assert np.max(np.abs(convolve_bm_all(basis8, u, np.zeros_like(v)))) == 0.0

    def test_matches_time_grid_oracle(self, basis8):
        # product of real synthesized signals, re-projected by quadrature in time
        M, J = 5, basis8.J
        omega, T = 1.0, 2 * np.pi
        rng = np.random.default_rng(3)
        u = rng.standard_normal((M, J)) + 1j * rng.standard_normal((M, J))
        nt = 512
        t = np.linspace(0.0, T, nt, endpoint=False)
        ug = synthesize(basis8, u)                      # (M, nq)
        sig = synthesize_time(ug, omega, t)             # (nq, nt) real signals per grid point
        prod = sig * sig
        b = convolve_bm_all(basis8, u, u)
        for m in (1, 2, 4):
            coeff_t = (2.0 / nt) * (prod @ np.exp(-1j * m * omega * t))
            expected = project(basis8, coeff_t)
            got = b[m - 1]
            assert np.max(np.abs(got - expected)) <= 1e-10

    def test_time_sequence_variant(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c = harmonic_product_time(a, a, m_out=12)
        # compare against a dense time-grid product
        T, omega = 2 * np.pi, 1.0
        t = np.linspace(0, T, 4096, endpoint=False)
        sig = synthesize_time(a, omega, t)
        assert c.shape == (13,)
        assert c[0] == pytest.approx(np.mean(sig**2), abs=1e-10)
        for m in (1, 3, 7, 11):
            ref = (2.0 / T) * np.sum(sig**2 * np.exp(-1j * m * omega * t)) * (T / t.size)
            assert c[m] == pytest.approx(ref, abs=1e-10)


class TestHarmonicProductKernel:
    """FFT kernel against the loop oracle in tests/oracles.py."""

    @pytest.mark.parametrize("Ma, Mb", [(7, 7), (5, 11), (13, 4), (1, 9)])
    def test_matches_loop_for_every_output_length(self, Ma, Mb):
        rng = np.random.default_rng(Ma * 100 + Mb)
        a, b = _crandn(rng, Ma), _crandn(rng, Mb)
        top = max(Ma, Mb)
        for m_out in sorted({1, max(1, top - 2), top, Ma + Mb}):
            got = harmonic_product_time(a, b, m_out=m_out)
            assert got.shape == (m_out + 1,)
            assert _rel_err(got[1:], harmonic_product_loop(a, b, m_out)) <= KERNEL_RTOL
        assert harmonic_product_time(a, b).shape == (top + 1,)

    def test_tail_beyond_sum_of_lengths_is_zero(self):
        rng = np.random.default_rng(11)
        a, b = _crandn(rng, 6), _crandn(rng, 3)
        got = harmonic_product_time(a, b, m_out=20)
        assert got.shape == (21,)
        assert np.all(got[10:] == 0.0)
        assert _rel_err(got[1:10], harmonic_product_loop(a, b, 9)) <= KERNEL_RTOL

    def test_dc_entry_is_mean_of_product(self):
        rng = np.random.default_rng(12)
        for Ma, Mb in ((8, 8), (4, 10)):
            a, b = _crandn(rng, Ma), _crandn(rng, Mb)
            got = harmonic_product_time(a, b, m_out=3)[0]
            ref = product_dc_loop(a, b)
            assert got.imag == 0.0
            assert abs(got - ref) <= KERNEL_RTOL * abs(ref)

    def test_trailing_axes_broadcast(self):
        rng = np.random.default_rng(13)
        a, b = _crandn(rng, 9, 3), _crandn(rng, 5, 3)  # harmonics on axis 0
        m_out = 12
        got = harmonic_product_time(a, b, m_out=m_out)
        assert got.shape == (m_out + 1, 3)
        for k in range(3):
            ref = harmonic_product_loop(a[:, k], b[:, k], m_out)
            assert _rel_err(got[1:, k], ref) <= KERNEL_RTOL
            assert got[0, k] == pytest.approx(product_dc_loop(a[:, k], b[:, k]), rel=KERNEL_RTOL)

    def test_fast_len_matches_scipy(self):
        # the time-sample count: the smallest 5-smooth length, as scipy picks it
        from scipy.fft import next_fast_len

        assert [fw._fast_len(n) for n in range(1, 4097)] == \
            [next_fast_len(n, real=True) for n in range(1, 4097)]

    def test_grid_product_matches_loop_on_interval(self, basis8):
        rng = np.random.default_rng(14)
        M = 24
        u, v = _crandn(rng, M, basis8.J), _crandn(rng, M, basis8.J)
        for m_out in (None, 5, M, 2 * M):
            ref = convolve_bm_grid_loop(basis8, u, v, m_out)
            assert _rel_err(convolve_bm_grid(basis8, u, v, m_out), ref) <= KERNEL_RTOL
        ref = convolve_bm_grid_loop(basis8, u, u)
        assert _rel_err(convolve_bm_grid(basis8, u, u.copy()), ref) <= KERNEL_RTOL
        assert convolve_bm_grid(basis8, u, v, 0).shape == (0, basis8.nquad)

    def test_grid_product_matches_loop_on_rectangle(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 6,
                                      sigma_points="side:y=0")
        rng = np.random.default_rng(15)
        M = 10
        u, v = _crandn(rng, M, basis.J), _crandn(rng, M, basis.J)
        for m_out in (M, 2 * M):
            ref = convolve_bm_grid_loop(basis, u, v, m_out)
            assert _rel_err(convolve_bm_grid(basis, u, v, m_out), ref) <= KERNEL_RTOL


class TestNonlinearModel:
    """nonlinear_model against the oracle in tests/oracles.py, which projects
    each grid term on its own and takes B_m from the harmonic-pair loop."""

    @pytest.mark.parametrize("kind", ["interval", "rectangle"])
    def test_matches_oracle(self, kind, basis8):
        basis = basis8 if kind == "interval" else build_rectangle_basis(
            np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 6, sigma_points="side:y=0")
        p = params_of(omega=0.5, T0=np.pi)
        rng = np.random.default_rng(16)
        M = 24
        decay = 1.0 / (1.0 + np.arange(basis.J)) ** 2
        sigma = MaterialField.from_values(
            basis, p.sigma0 + 0.1 * synthesize(basis, decay * rng.standard_normal(basis.J)))
        eta = MaterialField.from_values(
            basis, 0.5 + 0.2 * synthesize(basis, decay * rng.standard_normal(basis.J)))
        assert np.ptp(sigma.values) > 0 and np.ptp(eta.values) > 0
        u = _crandn(rng, M, basis.J) / (1.0 + np.arange(1, M + 1))[:, None]
        r = _crandn(rng, M, basis.J)
        ref = nonlinear_model_ref(p, basis, sigma, eta, u)
        got = nonlinear_model(p, basis, sigma, eta, u)
        assert got.shape == (M, basis.J)
        assert _rel_err(got, ref) <= KERNEL_RTOL
        res = model_residual(p, basis, sigma, eta, u, r)
        assert _rel_err(res, np.linalg.norm(ref - r, axis=1)) <= KERNEL_RTOL


class TestCouplingMap:
    """The coupling map, which runs the time transforms on the coefficient
    columns, against the oracle that synthesizes on the quadrature grid, takes
    B_m from the harmonic-pair loop and projects each term on its own."""

    @pytest.mark.parametrize("M", [1, 7, 64])
    @pytest.mark.parametrize("case", ["basis8", "rectangle", "both_fields_vary"])
    def test_matches_grid_oracle(self, case, M, basis8, basis16):
        p = params_of(omega=0.5, T0=np.pi)
        rng = np.random.default_rng(18 + M)
        if case == "rectangle":   # incommensurate sides
            basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 6,
                                          sigma_points="side:y=0")
        else:
            basis = basis8 if case == "basis8" else basis16
        decay = 1.0 / (1.0 + np.arange(basis.J)) ** 2

        def varying(base, scale):
            return MaterialField.from_values(
                basis, base + scale * synthesize(basis, decay * rng.standard_normal(basis.J)))

        sigma = (MaterialField.constant(basis, p.sigma0 + 0.3) if case == "basis8"
                 else varying(p.sigma0, 0.1))
        eta = varying(0.5, 0.2) if case == "both_fields_vary" else MaterialField.constant(basis, 0.8)
        assert (np.ptp(sigma.values) > 0) == (case != "basis8")
        assert (np.ptp(eta.values) > 0) == (case == "both_fields_vary")
        u = _crandn(rng, M, basis.J) / (1.0 + np.arange(1, M + 1))[:, None]
        got = fw.apply_coupling(fw.coupling_map(p, basis, sigma, eta), u)
        assert got.shape == (M, basis.J)
        assert _rel_err(got, coupling_ref(p, basis, sigma, eta, u)) <= KERNEL_RTOL
        assert _rel_err(nonlinear_model(p, basis, sigma, eta, u),
                        nonlinear_model_ref(p, basis, sigma, eta, u)) <= KERNEL_RTOL


class TestLinearSolve:
    def test_zero(self, basis8):
        p = params_of()
        u = solve_linear_harmonics(p, basis8.lambdas, np.zeros((4, basis8.J), dtype=complex))
        assert np.all(u == 0)

    def test_single_mode(self, basis8):
        p = params_of()
        r = np.zeros((3, basis8.J), dtype=complex)
        r[0, 2] = 1.0
        u = solve_linear_harmonics(p, basis8.lambdas, r)
        assert u[0, 2] == pytest.approx(1.0 / harmonic_symbol(p, 1, basis8.lambdas[2]))

    def test_round_trip(self, basis8):
        p = params_of()
        rng = np.random.default_rng(5)
        r = rng.standard_normal((6, basis8.J)) + 1j * rng.standard_normal((6, basis8.J))
        u = solve_linear_harmonics(p, basis8.lambdas, r)
        back = symbols_matrix(p, basis8.lambdas, 6) * u
        assert np.max(np.abs(back - r)) <= 1e-12

    def test_resonance_error(self):
        # alpha = 0 with lambda = sigma0 m^2 w^2 makes the symbol vanish exactly
        p = params_of(tau=1.0, beta=1.0, sigma0=1.0, omega=1.0)
        with pytest.raises(ResonanceError) as err:
            solve_linear_harmonics(p, np.array([1.0]), np.ones((2, 1), dtype=complex))
        assert err.value.m == 1 and err.value.j == 0


class TestMultiharmonic:
    def test_linear_limit_matches_diagonal(self, basis8):
        p = params_of()
        rng = np.random.default_rng(6)
        M = 8
        r = rng.standard_normal((M, basis8.J)) + 1j * rng.standard_normal((M, basis8.J))
        sig = MaterialField.constant(basis8, p.sigma0)
        eta = MaterialField.constant(basis8, 0.0)
        u, _ = solve_multiharmonic(p, basis8, sig, eta, r)
        assert np.max(np.abs(u - solve_linear_harmonics(p, basis8.lambdas, r))) <= 1e-14

    def test_second_harmonic_linear_in_eta(self, basis8):
        p = params_of(omega=0.5, T0=np.pi)
        M = 12
        r = np.zeros((M, basis8.J), dtype=complex)
        r[0, 0] = 1.0
        sig = MaterialField.constant(basis8, p.sigma0)
        ua, _ = solve_multiharmonic(p, basis8, sig, MaterialField.constant(basis8, 1e-3), r)
        ub, _ = solve_multiharmonic(p, basis8, sig, MaterialField.constant(basis8, 2e-3), r)
        ratio = np.linalg.norm(ub[1]) / np.linalg.norm(ua[1])
        assert abs(ratio - 2.0) <= 1e-3

    def test_residual_below_tolerance(self, basis8):
        p = params_of(omega=0.5, T0=np.pi)
        rng = np.random.default_rng(7)
        M = 10
        r = (rng.standard_normal((M, basis8.J)) + 1j * rng.standard_normal((M, basis8.J)))
        r /= (1.0 + np.arange(1, M + 1))[:, None] ** 2
        sig = MaterialField.from_values(basis8, p.sigma0 + 0.05 * np.cos(basis8.nodes[:, 0]))
        eta = MaterialField.constant(basis8, 1e-3)
        u, report = solve_multiharmonic(p, basis8, sig, eta, r, tol=1e-11)
        res = report.residual
        # the reported residual is the one a fresh evaluation gives for u
        assert np.array_equal(res, model_residual(p, basis8, sig, eta, u, r))
        assert np.max(res) <= 1e-11

    def test_stalled_sweep_retries_at_half_damping(self, basis8, monkeypatch):
        # sigma - sigma0 = 0.6 exceeds |symbol| ~ 0.48 of the driven mode (m=1, j=2):
        # the undamped sweep diverges, the d = 0.5 sweep contracts
        p = params_of(omega=3.0)
        M = 6
        r = np.zeros((M, basis8.J), dtype=complex)
        r[0, 2] = 1.0
        sig = MaterialField.constant(basis8, p.sigma0 + 0.6)
        eta = MaterialField.constant(basis8, 1e-3)
        start = r / symbols_matrix(p, basis8.lambdas, M)
        seen = []
        real_apply = fw.apply_coupling

        def spy(cmap, u):
            seen.append(u.copy())
            return real_apply(cmap, u)

        monkeypatch.setattr(fw, "apply_coupling", spy)
        u, _ = solve_multiharmonic(p, basis8, sig, eta, r, tol=1e-11)
        restarts = [k for k, v in enumerate(seen) if np.array_equal(v, start)]
        assert len(restarts) == 2
        first_sweep = seen[:restarts[1]]
        assert not all(np.all(np.isfinite(v)) and np.max(np.abs(v)) < 1e3 for v in first_sweep)
        assert np.max(model_residual(p, basis8, sig, eta, u, r)) <= 1e-11

    def test_report_counts_sweeps_and_the_restart(self, basis8, monkeypatch):
        # the stalled case above restarts once; a weak eta on the same drive does not
        p = params_of(omega=3.0)
        M = 6
        r = np.zeros((M, basis8.J), dtype=complex)
        r[0, 2] = 1.0
        eta = MaterialField.constant(basis8, 1e-3)
        calls = []
        real_apply = fw.apply_coupling

        def counting(cmap, u):
            calls.append(u)
            return real_apply(cmap, u)

        monkeypatch.setattr(fw, "apply_coupling", counting)
        for shift, restarts in ((0.6, 1), (0.0, 0)):
            calls.clear()
            sig = MaterialField.constant(basis8, p.sigma0 + shift)
            _, report = solve_multiharmonic(p, basis8, sig, eta, r, tol=1e-11)
            assert report.restarts == restarts
            # one coupling per sweep, plus one model_residual check per damping factor tried
            assert len(calls) == report.sweeps + restarts + 1
            assert 0 < report.sweeps <= 200 * (restarts + 1)

    def test_nonconvergence_raises(self, basis8):
        p = params_of(omega=0.5, T0=np.pi)
        M = 6
        r = np.zeros((M, basis8.J), dtype=complex)
        r[0, 0] = 50.0
        sig = MaterialField.constant(basis8, p.sigma0)
        eta = MaterialField.constant(basis8, 5.0)
        with pytest.raises(ConvergenceError):
            solve_multiharmonic(p, basis8, sig, eta, r, max_iter=40)

    def test_slowness_admissibility_check(self, basis8):
        p = params_of(tau=0.9)
        bad = MaterialField.from_values(basis8, 0.5 * np.ones(basis8.nquad))
        with pytest.raises(ValueError):
            bad.check_slowness_admissible(p)


class TestObserve:
    def test_zero_and_unit(self, basis8):
        M = 4
        u = np.zeros((M, basis8.J), dtype=complex)
        assert np.all(observe(basis8, u) == 0)
        u[0, 2] = 1.0
        assert observe(basis8, u)[0, 0] == pytest.approx(basis8.trace_matrix[2, 0])

    def test_linearity(self, basis8):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((4, basis8.J)) + 1j * rng.standard_normal((4, basis8.J))
        v = rng.standard_normal((4, basis8.J)) + 1j * rng.standard_normal((4, basis8.J))
        assert np.max(np.abs(observe(basis8, u + v) - observe(basis8, u) - observe(basis8, v))) <= 1e-13


def test_synthesized_signal_is_real(basis8):
    rng = np.random.default_rng(9)
    u = rng.standard_normal((5, basis8.J)) + 1j * rng.standard_normal((5, basis8.J))
    t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    sig = synthesize_time(u, 1.0, t)
    assert np.isrealobj(sig)


def test_harmonic_field_serialization(tmp_path):
    from harmtomo.scenarios import scenario_hash
    from conftest import run_scenario, small_scenario

    out, sc = run_scenario(tmp_path, small_scenario("forward-solve", J=2, M=3))
    lines = (out / "field_source1.csv").read_text().splitlines()
    assert lines[0] == "m,j,re,im,scenario_hash"
    assert len(lines) == 7
    assert lines[1].endswith(scenario_hash(sc))
