import json

import numpy as np
import pytest

from harmtomo import (amplitude_modulate, assemble_fields, build_interval_basis,
                      build_pole_set, build_rectangle_basis, build_reference_state,
                      design_delta_pulse, solve_states_from_coeffs, trace_right_inverse,
                      reconstruct)
from harmtomo.cli import main
from harmtomo.errors import HarmtomoError, IllConditionedFitError, ResonanceError
from harmtomo.fields import ModelParams
from harmtomo.eigenbasis import project, synthesize
from harmtomo.reconstruct import (FIT_COND_LIMIT, LinearizedData, LinearizedInput,
                                  fit_coefficients, linearized_forward)
from harmtomo.scenarios import scenario_hash
from conftest import random_linearized, run_scenario, small_scenario
from oracles import oracle_residues, recover_coefficients_loop, recover_states, residues_of

GOLDEN = (1 + 5**0.5) / 2


def linearized_from_fields(basis, phi_grid, dsigma_grid, deta_grid, du):
    """Linearized input whose coefficient channels are the projections of
    phi*dsigma and phi^2*deta."""
    return LinearizedInput(a_sigma=project(basis, phi_grid * dsigma_grid),
                           a_eta=project(basis, phi_grid**2 * deta_grid),
                           du=np.asarray(du, dtype=complex))


class TestLinearizedForward:
    def test_zero_input(self, setup_small):
        s = setup_small
        lin = LinearizedInput(a_sigma=np.zeros(s["basis"].J), a_eta=np.zeros(s["basis"].J),
                              du=np.zeros((2, s["M"], s["basis"].J), dtype=complex))
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        assert np.all(data.rhat == 0) and np.all(data.phat == 0)

    def test_pure_state_input_is_diagonal(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 1, a_scale=0.0)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        from harmtomo.forward import symbols_matrix
        sym = symbols_matrix(s["params"], s["basis"].lambdas, s["M"])
        assert np.max(np.abs(data.rhat - sym[None] * lin.du)) <= 1e-14

    def test_superposition(self, setup_small):
        s = setup_small
        l1 = random_linearized(s["basis"], s["M"], 2)
        l2 = random_linearized(s["basis"], s["M"], 3)
        both = LinearizedInput(a_sigma=l1.a_sigma + l2.a_sigma, a_eta=l1.a_eta + l2.a_eta,
                               du=l1.du + l2.du)
        d1 = linearized_forward(s["ref"], s["params"], s["basis"], l1)
        d2 = linearized_forward(s["ref"], s["params"], s["basis"], l2)
        db = linearized_forward(s["ref"], s["params"], s["basis"], both)
        assert np.max(np.abs(db.rhat - d1.rhat - d2.rhat)) <= 1e-12
        assert np.max(np.abs(db.phat - d1.phat - d2.phat)) <= 1e-12

    def test_from_fields_projections(self, setup_small):
        s = setup_small
        basis = s["basis"]
        dsig = np.cos(basis.nodes[:, 0])
        deta = np.sin(basis.nodes[:, 0]) ** 2
        du = np.zeros((2, s["M"], basis.J), dtype=complex)
        lin = linearized_from_fields(basis, s["ref"].phi_grid, dsig, deta, du)
        assert np.max(np.abs(lin.a_sigma - project(basis, s["ref"].phi_grid * dsig))) == 0


class TestStateFormula:
    def test_zero_coefficients(self, setup_small):
        s = setup_small
        rng = np.random.default_rng(4)
        rhat = rng.standard_normal((2, s["M"], s["basis"].J)) * (1 + 0j)
        b = solve_states_from_coeffs(np.zeros((s["basis"].J, 2)), rhat, s["params"],
                                     s["basis"].lambdas, s["sp"].mm)
        from harmtomo.forward import symbols_matrix
        sym = symbols_matrix(s["params"], s["basis"].lambdas, s["M"])
        assert np.max(np.abs(b - rhat / sym[None])) <= 1e-14

    def test_consistent_rhs_gives_zero(self, setup_small):
        s = setup_small
        rng = np.random.default_rng(5)
        a = rng.standard_normal((s["basis"].J, 2))
        rhat = np.einsum("meq,jq->emj", s["sp"].mm[: s["M"]], a).astype(complex)
        b = solve_states_from_coeffs(a, rhat, s["params"], s["basis"].lambdas, s["sp"].mm)
        assert np.max(np.abs(b)) <= 1e-12

    def test_resonance_raises_typed(self):
        # alpha = 0 with lambda = sigma0 m^2 w^2 makes the symbol vanish exactly
        p = ModelParams.create(tau=1.0, beta=1.0, sigma0=1.0, omega=1.0, T0=np.pi, A=2.0)
        mm = np.tile(np.eye(2, dtype=complex), (2, 1, 1))
        with pytest.raises(ResonanceError) as err:
            solve_states_from_coeffs(np.zeros((1, 2)), np.ones((2, 2, 1), dtype=complex),
                                     p, [1.0], mm)
        assert err.value.m == 1 and err.value.j == 0


class TestResidues:
    def test_single_active_mode(self, setup_small):
        s = setup_small
        J = s["basis"].J
        lin = LinearizedInput(a_sigma=np.eye(J)[3], a_eta=0.5 * np.eye(J)[3],
                              du=np.zeros((2, s["M"], J), dtype=complex))
        lin.du[:, :, 3] = 0.1
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        mags = np.max(np.abs(res), axis=(1, 2))
        assert np.argmax(mags) == 3
        others = np.delete(mags, 3)
        assert np.max(others) <= 1e-10 * mags[3]

    def test_oracle_vs_fit_agreement(self, setup_big):
        s = setup_big
        lin = random_linearized(s["basis"], s["M"], 7, decay=False)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        res_o = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        rec = reconstruct(data, s["ref"], s["basis"], s["params"])
        res_fit = residues_of(rec.a, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        rel = np.max(np.abs(res_fit - res_o)) / np.max(np.abs(res_o))
        assert rel <= 1e-8
        assert np.isfinite(rec.fit_cond)

    def test_residues_lie_in_trace_span(self):
        # rectangle side observation: residues proportional to the trace row
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 6,
                                      sigma_points="side:y=0")
        params = ModelParams.create(tau=0.5, beta=1.0, sigma0=1.0, omega=0.5,
                                    T0=np.pi, A=2.0)
        M = 24
        pulse = design_delta_pulse(params, M, 0.08, amplitude=3.0)
        sp = amplitude_modulate(pulse, 2.0)
        ref = build_reference_state(basis, 0, sp)
        poles = build_pole_set(basis.lambdas, params)
        lin = random_linearized(basis, M, 11)
        data = linearized_forward(ref, params, basis, lin)
        res = oracle_residues(lin, data.rhat, poles, sp, basis, params)
        w = basis.sigma_weights
        for ell in np.flatnonzero(poles.ok):
            t = basis.trace_matrix[ell]
            for q in range(2):
                v = res[ell, q]
                coef = np.sum(w * t * v) / np.sum(w * t * t)
                ortho = v - coef * t
                assert np.linalg.norm(ortho) <= 1e-10 * max(np.linalg.norm(v), 1e-30)


def residue_formula(lin, data, s):
    """a from the residues of the true input by the paper's constructive
    formula (the reference loop in oracles.py)."""
    res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
    a, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"], s["params"])
    return a


class TestRecovery:
    def test_full_pipeline_identity(self, setup_big):
        s = setup_big
        lin = random_linearized(s["basis"], s["M"], 13, decay=False)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        a = residue_formula(lin, data, s)
        b = solve_states_from_coeffs(a, data.rhat, s["params"], s["basis"].lambdas, s["sp"].mm)
        assert np.max(np.abs(a - lin.a)) / np.max(np.abs(lin.a)) <= 1e-9
        assert np.max(np.abs(b - lin.du)) / np.max(np.abs(lin.du)) <= 1e-9

    def test_channel_separation(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 17)
        only_sigma = LinearizedInput(a_sigma=lin.a_sigma, a_eta=np.zeros_like(lin.a_eta), du=lin.du)
        data = linearized_forward(s["ref"], s["params"], s["basis"], only_sigma)
        assert np.max(np.abs(residue_formula(only_sigma, data, s)[:, 1])) <= 1e-10
        only_eta = LinearizedInput(a_sigma=np.zeros_like(lin.a_sigma), a_eta=lin.a_eta, du=lin.du)
        data = linearized_forward(s["ref"], s["params"], s["basis"], only_eta)
        assert np.max(np.abs(residue_formula(only_eta, data, s)[:, 0])) <= 1e-10

    def test_homogeneous_model_channel(self, setup_small):
        # r = 0 means the coefficient pair comes from the residue term alone
        s = setup_small
        rng = np.random.default_rng(19)
        a = rng.standard_normal((s["basis"].J, 2))
        b = solve_states_from_coeffs(a, np.zeros((2, s["M"], s["basis"].J), dtype=complex),
                                     s["params"], s["basis"].lambdas, s["sp"].mm)
        lin = LinearizedInput(a_sigma=a[:, 0], a_eta=a[:, 1], du=b)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        assert np.max(np.abs(data.rhat)) <= 1e-12
        res = oracle_residues(lin, np.zeros_like(data.rhat), s["poles"], s["sp"],
                              s["basis"], s["params"])
        a_rec, _ = recover_coefficients_loop(res, np.zeros_like(data.rhat), s["sp"], s["poles"],
                                             s["basis"], s["params"])
        assert np.max(np.abs(a_rec - a)) <= 1e-9

    def test_both_inverse_orders_agree(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 23)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        a_in, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"],
                                            s["params"], order="inside")
        a_out, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"],
                                             s["params"], order="outside")
        assert np.max(np.abs(a_in - a_out)) <= 1e-11 * max(1.0, np.max(np.abs(a_in)))

    def test_recover_states_formula_equality(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 29)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        a_rec, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"],
                                             s["params"])
        b_direct = recover_states(res, data.rhat, s["sp"], s["poles"], s["basis"], s["params"])
        b_factored = solve_states_from_coeffs(a_rec, data.rhat, s["params"],
                                              s["basis"].lambdas, s["sp"].mm)
        scale = np.max(np.abs(b_direct))
        assert np.max(np.abs(b_direct - b_factored)) <= 1e-11 * scale
        assert np.max(np.abs(b_direct - lin.du)) <= 1e-9 * max(1.0, np.max(np.abs(lin.du)))

    def test_zero_data_zero_states(self, setup_small):
        s = setup_small
        zero = np.zeros((2, s["M"], s["basis"].J), dtype=complex)
        res = np.zeros((s["basis"].J, 2, s["basis"].nsigma), dtype=complex)
        b = recover_states(res, zero, s["sp"], s["poles"], s["basis"], s["params"])
        assert np.all(b == 0)

    def test_fit_noise_robustness(self, setup_big):
        s = setup_big
        lin = random_linearized(s["basis"], s["M"], 31, decay=False)
        data = linearized_forward(s["ref"], s["params"], s["basis"], lin)
        rng = np.random.default_rng(99)
        direction = rng.standard_normal(data.phat.shape) + 1j * rng.standard_normal(data.phat.shape)
        direction /= np.linalg.norm(direction)
        errs = []
        for level in (1e-6, 1e-4, 1e-2):
            noisy = data.phat + level * np.linalg.norm(data.phat) * direction
            rec = reconstruct(LinearizedData(rhat=data.rhat, phat=noisy),
                              s["ref"], s["basis"], s["params"])
            errs.append(np.linalg.norm(rec.a - lin.a) / np.linalg.norm(lin.a))
        assert errs[0] < errs[1] < errs[2]
        # error grows continuously, about linearly in the noise level
        assert errs[1] / errs[0] <= 2e2 and errs[2] / errs[1] <= 2e2


class TestTraceInverse:
    def test_scalar_division_single_point(self, setup_small):
        basis = setup_small["basis"]
        v = np.array([0.7])
        c = v @ trace_right_inverse(basis, np.array([2]))[0]
        assert c == pytest.approx(0.7 / basis.trace_matrix[2, 0])

    def test_right_inverse_property(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 5,
                                      sigma_points="side:y=0")
        rows = trace_right_inverse(basis, np.arange(5))
        for ell in range(5):
            c = basis.trace_matrix[ell] @ rows[ell]
            assert c == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_data_maps_to_zero(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 5,
                                      sigma_points="side:y=0")
        t = basis.trace_matrix[1]
        w = basis.sigma_weights
        v = np.linspace(-1, 1, t.size)
        v = v - t * (np.sum(w * t * v) / np.sum(w * t * t))
        assert abs(v @ trace_right_inverse(basis, np.array([1]))[0]) <= 1e-12 * np.linalg.norm(v)


class TestAssemble:
    def test_constant_field_with_constant_profile(self):
        basis = build_interval_basis(np.pi, (0.0, 0.0), 6, sigma_points=(0.0,))
        phi = basis.phi[0]  # constant Neumann mode
        sigma_true = np.full(basis.nquad, 0.8)
        eta_true = np.full(basis.nquad, -0.3)
        a = np.stack([project(basis, phi * sigma_true), project(basis, phi**2 * eta_true)], axis=-1)
        dsig, deta = assemble_fields(basis, a, phi)
        assert np.max(np.abs(dsig - sigma_true)) <= 1e-10
        assert np.max(np.abs(deta - eta_true)) <= 1e-10

    def test_pipeline_then_assemble(self, setup_small):
        s = setup_small
        basis, phi = s["basis"], s["ref"].phi_grid
        rng = np.random.default_rng(37)
        sigma_true = synthesize(basis, rng.standard_normal(basis.J) / (1 + np.arange(basis.J)) ** 2) / phi
        eta_true = synthesize(basis, rng.standard_normal(basis.J) / (1 + np.arange(basis.J)) ** 2) / phi**2
        lin = linearized_from_fields(basis, phi, sigma_true, eta_true,
                                     np.zeros((2, s["M"], basis.J), dtype=complex))
        data = linearized_forward(s["ref"], s["params"], basis, lin)
        dsig, deta = assemble_fields(basis, residue_formula(lin, data, s), phi)
        rel = np.linalg.norm(dsig - sigma_true) / np.linalg.norm(sigma_true)
        assert rel <= 1e-8
        rel_eta = np.linalg.norm(deta - eta_true) / np.linalg.norm(eta_true)
        assert rel_eta <= 1e-8

    def test_guard_trips_on_interior_zero(self):
        basis = build_interval_basis(np.pi, (0.0, 0.0), 6, sigma_points=(0.0,))
        phi = basis.phi[1]  # cosine mode with an interior zero
        with pytest.raises(ZeroDivisionError) as err:
            assemble_fields(basis, np.zeros((6, 2)), phi, guard=0.1)
        assert isinstance(err.value, HarmtomoError)


def test_result_csv(tmp_path):
    out, sc = run_scenario(tmp_path, small_scenario("linearized-roundtrip", M=24))
    lines = (out / "reconstruction.csv").read_text().splitlines()
    assert len(lines) == sc.J + 1
    assert lines[1].endswith(scenario_hash(sc))


def _small_tau_probe(preset, tau, **top):
    """The interval scenario at J = 8, M = 24, omega 0.5, T0 2 pi, width 0.08,
    amplitude 3, seed 1, at relaxation time tau."""
    raw = small_scenario(preset, M=24, seed=1, **top)
    raw["params"].update(tau=tau, omega=0.5, T0=2 * np.pi)
    raw["source"].update(pulse_width=0.08, amplitude=3.0)
    return raw


class TestFitSolve:
    """The fit solves the truncated system for every mode, pole or not."""

    @pytest.mark.parametrize("tau, poles_ok", [(0.5, 8), (0.1, 8), (0.05, 7), (0.02, 6),
                                               (0.0, 2)])
    def test_small_tau_round_trip(self, tmp_path, tau, poles_ok):
        # below tau 0.1 some modes have no pole
        out, sc = run_scenario(tmp_path, _small_tau_probe("linearized-roundtrip", tau))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_rel_coeff_error"] <= 1e-8
        assert manifest["poles_ok"] == poles_ok
        assert len(manifest["modes_without_pole"]) == sc.J - poles_ok

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau", [0.015, 0.012, 0.01, 0.008, 0.007, 0.006])
    def test_round_trip_in_the_overflow_window(self, tmp_path, tau):
        # the damped poles sit near Re p = -1/(2 tau), so anything evaluated at
        # them carries exp(|Re p| T) past the float range; the round trip
        # evaluates nothing at a pole and reaches the fit's own accuracy
        out, _ = run_scenario(tmp_path, _small_tau_probe("linearized-roundtrip", tau))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_rel_coeff_error"] <= 10 * manifest["fit_cond"] * 2.2e-16

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("tau", [0.008, 0.007, 0.006])
    def test_stability_probe_in_the_overflow_window_exits_3(self, tmp_path, capsys, tau):
        # the image norms evaluate Mtilde at the poles, where its entries are
        # not finite here; the probe stops with the typed error, not an
        # untyped failure of the SVD
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(_small_tau_probe("stability-probe", tau, draws=5)))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "Mtilde has non-finite entries or determinant" in err
        assert "Traceback" not in err

    def test_rectangle_j32(self):
        basis = build_rectangle_basis(np.pi, np.pi / GOLDEN, ((1.0, 1.0), (1.0, 1.0)), 32,
                                      sigma_points="side:y=0")
        params = ModelParams.create(tau=0.5, beta=1.0, sigma0=1.0, omega=0.5, T0=np.pi, A=2.0)
        M = 64
        sp = amplitude_modulate(design_delta_pulse(params, M, 0.08, amplitude=3.0), params.A)
        ref = build_reference_state(basis, 0, sp)
        lin = random_linearized(basis, M, 41)
        data = linearized_forward(ref, params, basis, lin)
        rec = reconstruct(data, ref, basis, params)
        assert np.max(np.abs(rec.a - lin.a)) / np.max(np.abs(lin.a)) <= 1e-9
        assert rec.fit_cond <= 1e4

    def test_ill_conditioned_design_raises(self, setup_big):
        # the J = 16, M = 64 interval at tau 0.02, where the design's cond is ~1e16
        s = setup_big
        params = s["params"].with_tau(0.02)
        data = linearized_forward(s["ref"], params, s["basis"],
                                  random_linearized(s["basis"], s["M"], 43))
        with pytest.raises(IllConditionedFitError) as err:
            fit_coefficients(data.phat, data.rhat, s["sp"], s["basis"], params)
        assert err.value.cond > FIT_COND_LIMIT
