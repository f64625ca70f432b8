import json

import numpy as np
import pytest

from harmtomo import (DomainSpec, amplitude_modulate, assemble_fields, build_basis,
                      build_pole_set,
                      design_delta_pulse, solve_states_from_coeffs, trace_right_inverse,
                      reconstruct)
from harmtomo.cli import main
from harmtomo.errors import (HarmtomoError, IllConditionedFitError, ResonanceError,
                             UnderdeterminedFitError)
from harmtomo.fields import ModelParams
from harmtomo.eigenbasis import project, synthesize
from harmtomo.forward import _nonresonant_symbols, symbols_matrix
from harmtomo.reconstruct import (FIT_COND_LIMIT, LinearizedData, LinearizedInput,
                                  _pair_product, apply_fit_map, build_fit_map,
                                  linearized_forward)
from harmtomo.scenarios import (load_scenario, make_basis, make_params, make_reference,
                                make_true_fields, scenario_hash)
from conftest import SCENARIOS, random_linearized, run_scenario, small_scenario
from oracles import (oracle_residues, pair_product_einsum, recover_coefficients_loop,
                     recover_states, residues_of)

GOLDEN = (1 + 5**0.5) / 2


def linearized_from_fields(basis, phi_grid, dsigma_grid, deta_grid, du):
    """Linearized input whose coefficient channels are the projections of
    phi*dsigma and phi^2*deta."""
    return LinearizedInput(a=np.stack([project(basis, phi_grid * dsigma_grid),
                                       project(basis, phi_grid**2 * deta_grid)], axis=-1),
                           du=np.asarray(du, dtype=complex))


class TestLinearizedForward:
    def test_zero_input(self, setup_small):
        s = setup_small
        lin = LinearizedInput(a=np.zeros((s["basis"].J, 2)),
                              du=np.zeros((2, s["M"], s["basis"].J), dtype=complex))
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        assert np.all(data.rhat == 0) and np.all(data.phat == 0)

    def test_pure_state_input_is_diagonal(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 1, a_scale=0.0)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        from harmtomo.forward import symbols_matrix
        sym = symbols_matrix(s["params"], s["basis"].lambdas, s["M"])
        assert np.max(np.abs(data.rhat - sym[None] * lin.du)) <= 1e-14

    def test_superposition(self, setup_small):
        s = setup_small
        l1 = random_linearized(s["basis"], s["M"], 2)
        l2 = random_linearized(s["basis"], s["M"], 3)
        both = LinearizedInput(a=l1.a + l2.a, du=l1.du + l2.du)
        d1 = linearized_forward(s["sp"], s["params"], s["basis"], l1)
        d2 = linearized_forward(s["sp"], s["params"], s["basis"], l2)
        db = linearized_forward(s["sp"], s["params"], s["basis"], both)
        assert np.max(np.abs(db.rhat - d1.rhat - d2.rhat)) <= 1e-12
        assert np.max(np.abs(db.phat - d1.phat - d2.phat)) <= 1e-12

    def test_from_fields_projections(self, setup_small):
        s = setup_small
        basis = s["basis"]
        dsig = np.cos(basis.nodes[:, 0])
        deta = np.sin(basis.nodes[:, 0]) ** 2
        du = np.zeros((2, s["M"], basis.J), dtype=complex)
        lin = linearized_from_fields(basis, s["basis"].phi[0], dsig, deta, du)
        assert np.max(np.abs(lin.a[:, 0] - project(basis, s["basis"].phi[0] * dsig))) == 0


class TestStateFormula:
    def test_zero_coefficients(self, setup_small):
        s = setup_small
        rng = np.random.default_rng(4)
        rhat = rng.standard_normal((2, s["M"], s["basis"].J)) * (1 + 0j)
        sym = symbols_matrix(s["params"], s["basis"].lambdas, s["M"])
        b = solve_states_from_coeffs(np.zeros((s["basis"].J, 2)), rhat, sym, s["sp"].mm)
        assert np.max(np.abs(b - rhat / sym[None])) <= 1e-14

    def test_consistent_rhs_gives_zero(self, setup_small):
        s = setup_small
        rng = np.random.default_rng(5)
        a = rng.standard_normal((s["basis"].J, 2))
        rhat = np.einsum("meq,jq->emj", s["sp"].mm[: s["M"]], a).astype(complex)
        sym = symbols_matrix(s["params"], s["basis"].lambdas, s["M"])
        b = solve_states_from_coeffs(a, rhat, sym, s["sp"].mm)
        assert np.max(np.abs(b)) <= 1e-12

    def test_resonance_raises_typed(self, setup_small):
        # alpha = 0 with lambda = sigma0 m^2 w^2 makes the symbol vanish; the
        # state formula reads the fit map's symbols, and the map refuses them
        s = setup_small
        w = float(np.sqrt(s["basis"].lambdas[0]))
        p = ModelParams.create(tau=1.0, beta=1.0, sigma0=1.0, omega=w, T0=np.pi / w, A=2.0)
        with pytest.raises(ResonanceError) as err:
            build_fit_map(s["sp"], s["basis"], p, s["M"])
        assert err.value.m == 1 and err.value.j == 0


class TestPairProduct:
    @pytest.mark.parametrize("batch", [(), (3,), (20,), (2, 5)])
    def test_matches_einsum(self, batch):
        # real pairs: the two broadcast terms give the einsum's values (== sets
        # the sign of zero aside); complex pairs agree to roundoff
        rng = np.random.default_rng(17)
        M, J = 12, 8
        mm = rng.standard_normal((M, 2, 2)) + 1j * rng.standard_normal((M, 2, 2))
        a = rng.standard_normal(batch + (J, 2))
        a[..., 3, :] = 0.0
        got, ref = _pair_product(mm, a), pair_product_einsum(mm, a)
        assert got.shape == ref.shape == batch + (2, M, J)
        assert np.array_equal(got, ref)
        a = a + 1j * rng.standard_normal(a.shape)
        ref = pair_product_einsum(mm, a)
        assert np.max(np.abs(_pair_product(mm, a) - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestResidues:
    def test_single_active_mode(self, setup_small):
        s = setup_small
        J = s["basis"].J
        lin = LinearizedInput(a=np.outer(np.eye(J)[3], [1.0, 0.5]),
                              du=np.zeros((2, s["M"], J), dtype=complex))
        lin.du[:, :, 3] = 0.1
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        mags = np.max(np.abs(res), axis=(1, 2))
        assert np.argmax(mags) == 3
        others = np.delete(mags, 3)
        assert np.max(others) <= 1e-10 * mags[3]

    def test_oracle_vs_fit_agreement(self, setup_big):
        s = setup_big
        lin = random_linearized(s["basis"], s["M"], 7, decay=False)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        res_o = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        rec = reconstruct(data, s["sp"], s["basis"], s["params"])
        res_fit = residues_of(rec.a, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        rel = np.max(np.abs(res_fit - res_o)) / np.max(np.abs(res_o))
        assert rel <= 1e-8
        assert np.isfinite(rec.fit_cond)

    def test_residues_lie_in_trace_span(self):
        # rectangle side observation: residues proportional to the trace row
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 6)
        params = ModelParams.create(tau=0.5, beta=1.0, sigma0=1.0, omega=0.5,
                                    T0=np.pi, A=2.0)
        M = 24
        pulse = design_delta_pulse(params, M, 0.08, amplitude=3.0)
        sp = amplitude_modulate(pulse, 2.0)
        poles = build_pole_set(basis.lambdas, params)
        lin = random_linearized(basis, M, 11)
        data = linearized_forward(sp, params, basis, lin)
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
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        a = residue_formula(lin, data, s)
        sym = _nonresonant_symbols(s["params"], s["basis"].lambdas, s["M"])
        b = solve_states_from_coeffs(a, data.rhat, sym, s["sp"].mm)
        assert np.max(np.abs(a - lin.a)) / np.max(np.abs(lin.a)) <= 1e-9
        assert np.max(np.abs(b - lin.du)) / np.max(np.abs(lin.du)) <= 1e-9

    def test_channel_separation(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 17)
        only_sigma = LinearizedInput(a=lin.a * [1.0, 0.0], du=lin.du)
        data = linearized_forward(s["sp"], s["params"], s["basis"], only_sigma)
        assert np.max(np.abs(residue_formula(only_sigma, data, s)[:, 1])) <= 1e-10
        only_eta = LinearizedInput(a=lin.a * [0.0, 1.0], du=lin.du)
        data = linearized_forward(s["sp"], s["params"], s["basis"], only_eta)
        assert np.max(np.abs(residue_formula(only_eta, data, s)[:, 0])) <= 1e-10

    def test_homogeneous_model_channel(self, setup_small):
        # r = 0 means the coefficient pair comes from the residue term alone
        s = setup_small
        rng = np.random.default_rng(19)
        a = rng.standard_normal((s["basis"].J, 2))
        b = solve_states_from_coeffs(a, np.zeros((2, s["M"], s["basis"].J), dtype=complex),
                                     symbols_matrix(s["params"], s["basis"].lambdas, s["M"]),
                                     s["sp"].mm)
        lin = LinearizedInput(a=a, du=b)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        assert np.max(np.abs(data.rhat)) <= 1e-12
        res = oracle_residues(lin, np.zeros_like(data.rhat), s["poles"], s["sp"],
                              s["basis"], s["params"])
        a_rec, _ = recover_coefficients_loop(res, np.zeros_like(data.rhat), s["sp"], s["poles"],
                                             s["basis"], s["params"])
        assert np.max(np.abs(a_rec - a)) <= 1e-9

    def test_both_inverse_orders_agree(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 23)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        a_in, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"],
                                            s["params"], order="inside")
        a_out, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"],
                                             s["params"], order="outside")
        assert np.max(np.abs(a_in - a_out)) <= 1e-11 * max(1.0, np.max(np.abs(a_in)))

    def test_recover_states_formula_equality(self, setup_small):
        s = setup_small
        lin = random_linearized(s["basis"], s["M"], 29)
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        res = oracle_residues(lin, data.rhat, s["poles"], s["sp"], s["basis"], s["params"])
        a_rec, _ = recover_coefficients_loop(res, data.rhat, s["sp"], s["poles"], s["basis"],
                                             s["params"])
        b_direct = recover_states(res, data.rhat, s["sp"], s["poles"], s["basis"], s["params"])
        b_factored = solve_states_from_coeffs(
            a_rec, data.rhat, _nonresonant_symbols(s["params"], s["basis"].lambdas, s["M"]),
            s["sp"].mm)
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
        data = linearized_forward(s["sp"], s["params"], s["basis"], lin)
        rng = np.random.default_rng(99)
        direction = rng.standard_normal(data.phat.shape) + 1j * rng.standard_normal(data.phat.shape)
        direction /= np.linalg.norm(direction)
        errs = []
        for level in (1e-6, 1e-4, 1e-2):
            noisy = data.phat + level * np.linalg.norm(data.phat) * direction
            rec = reconstruct(LinearizedData(rhat=data.rhat, phat=noisy),
                              s["sp"], s["basis"], s["params"])
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
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 5)
        rows = trace_right_inverse(basis, np.arange(5))
        for ell in range(5):
            c = basis.trace_matrix[ell] @ rows[ell]
            assert c == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal_data_maps_to_zero(self):
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 5)
        t = basis.trace_matrix[1]
        w = basis.sigma_weights
        v = np.linspace(-1, 1, t.size)
        v = v - t * (np.sum(w * t * v) / np.sum(w * t * t))
        assert abs(v @ trace_right_inverse(basis, np.array([1]))[0]) <= 1e-12 * np.linalg.norm(v)


class TestAssemble:
    def test_constant_field_with_constant_profile(self):
        basis = build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (0.0,)), 6)
        phi = basis.phi[0]  # constant Neumann mode
        sigma_true = np.full(basis.nquad, 0.8)
        eta_true = np.full(basis.nquad, -0.3)
        a = np.stack([project(basis, phi * sigma_true), project(basis, phi**2 * eta_true)], axis=-1)
        dsig, deta = assemble_fields(basis, a, phi)
        assert np.max(np.abs(dsig - sigma_true)) <= 1e-10
        assert np.max(np.abs(deta - eta_true)) <= 1e-10

    def test_pipeline_then_assemble(self, setup_small):
        s = setup_small
        basis, phi = s["basis"], s["basis"].phi[0]
        rng = np.random.default_rng(37)
        sigma_true = synthesize(basis, rng.standard_normal(basis.J) / (1 + np.arange(basis.J)) ** 2) / phi
        eta_true = synthesize(basis, rng.standard_normal(basis.J) / (1 + np.arange(basis.J)) ** 2) / phi**2
        lin = linearized_from_fields(basis, phi, sigma_true, eta_true,
                                     np.zeros((2, s["M"], basis.J), dtype=complex))
        data = linearized_forward(s["sp"], s["params"], basis, lin)
        dsig, deta = assemble_fields(basis, residue_formula(lin, data, s), phi)
        rel = np.linalg.norm(dsig - sigma_true) / np.linalg.norm(sigma_true)
        assert rel <= 1e-8
        rel_eta = np.linalg.norm(deta - eta_true) / np.linalg.norm(eta_true)
        assert rel_eta <= 1e-8

    def test_guard_trips_on_interior_zero(self):
        basis = build_basis(DomainSpec("interval", (np.pi,), (0.0, 0.0), (0.0,)), 6)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau", [0.015, 0.012, 0.01, 0.008, 0.007, 0.006])
    def test_stability_probe_in_the_overflow_window(self, tmp_path, tau):
        # the image norms read Mtilde and rtilde at the damped poles only
        # through kernels that leave out their common factor c(p), about
        # exp(|Re p| T) here, so the probe completes with finite norms
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(_small_tau_probe("stability-probe", tau, draws=5)))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
        table = np.genfromtxt(tmp_path / "o" / "stability.csv", delimiter=",", names=True,
                              dtype=None, encoding=None)
        for key in ("x_norm", "yobs_norm", "ymod_norm", "slack"):
            assert np.all(np.isfinite(table[key]))
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["min_slack"] >= -1e-10
        assert np.isfinite(manifest["max_mtilde_cond"])

    def test_rectangle_j32(self):
        basis = build_basis(DomainSpec("rectangle", (np.pi, np.pi / GOLDEN),
                                       ((1.0, 1.0), (1.0, 1.0)), "side:y=0"), 32)
        params = ModelParams.create(tau=0.5, beta=1.0, sigma0=1.0, omega=0.5, T0=np.pi, A=2.0)
        M = 64
        sp = amplitude_modulate(design_delta_pulse(params, M, 0.08, amplitude=3.0), params.A)
        lin = random_linearized(basis, M, 41)
        data = linearized_forward(sp, params, basis, lin)
        rec = reconstruct(data, sp, basis, params)
        assert np.max(np.abs(rec.a - lin.a)) / np.max(np.abs(lin.a)) <= 1e-9
        assert rec.fit_cond <= 1e4

    def test_ill_conditioned_design_raises(self, setup_big):
        # the J = 16, M = 64 interval at tau 0.02, where the design's cond is ~1e16
        s = setup_big
        with pytest.raises(IllConditionedFitError) as err:
            build_fit_map(s["sp"], s["basis"], s["params"].with_tau(0.02), s["M"])
        assert err.value.cond > FIT_COND_LIMIT

    @pytest.mark.parametrize("data_tau, fit_tau, lo, hi", [
        (0.5, 0.5, 0.0, 5e-15), (0.1, 0.1, 0.0, 5e-15), (0.0, 0.1, 0.4, 0.9), (0.5, 0.3, 0.4, 0.9)])
    def test_fit_relative_residual(self, data_tau, fit_tau, lo, hi):
        # the shipped J = 16 round trip over 20 seeds: data fitted at their own
        # tau leave a roundoff residual (at most 2.5e-15 measured), data from
        # another tau a large one (0.47 to 0.83 measured)
        sc = load_scenario(SCENARIOS / "interval_roundtrip.json")
        params, basis = make_params(sc), make_basis(sc)
        sp = make_reference(sc, basis, params)
        fm = build_fit_map(sp, basis, params.with_tau(fit_tau), sc.M)
        for seed in range(20):
            truth = make_true_fields(sc, basis, np.random.default_rng(seed))
            rec = apply_fit_map(fm, linearized_forward(sp, params.with_tau(data_tau), basis,
                                                       truth))
            assert rec.fit_rel_residual.shape == ()
            assert lo <= rec.fit_rel_residual <= hi, seed

    def test_roundtrip_manifest_and_symbols_built_twice(self, tmp_path, monkeypatch):
        # a round-trip op builds the symbols table once for the linearized
        # forward map and once in the fit map, which the state formula reads
        from harmtomo import forward

        symbol, calls = forward.harmonic_symbol, []
        monkeypatch.setattr(forward, "harmonic_symbol",
                            lambda *a: calls.append(1) or symbol(*a))
        out, _ = run_scenario(tmp_path, json.loads(
            (SCENARIOS / "interval_roundtrip.json").read_text()))
        assert len(calls) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 <= manifest["fit_rel_residual"] <= 5e-15

    @pytest.mark.parametrize("K, raises", [(10, True), (11, False)])
    def test_underdetermined_design_raises(self, setup_small, K, raises):
        # the first K harmonics of the J = 8 interval data: 11 unknowns need 11 rows
        s = setup_small
        data = linearized_forward(s["sp"], s["params"], s["basis"],
                                  random_linearized(s["basis"], s["M"], 44))
        phat, rhat = data.phat[..., :K, :], data.rhat[..., :K, :]
        data_k = LinearizedData(rhat=rhat, phat=phat)
        if raises:
            with pytest.raises(UnderdeterminedFitError, match="the fit has 10 rows"):
                reconstruct(data_k, s["sp"], s["basis"], s["params"])
        else:
            reconstruct(data_k, s["sp"], s["basis"], s["params"])
