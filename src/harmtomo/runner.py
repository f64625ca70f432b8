"""Preset experiment implementations behind the command-line runner.

Every preset writes CSV tables plus a JSON manifest echoing the scenario,
the seed actually used, and headline numbers.  Artifacts are deterministic
for a fixed scenario and seed: rows carry the scenario hash and no
timestamps are recorded.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from . import quasirev
from .eigenbasis import check_trace_ranks, synthesize
from .fields import MaterialField
from .forward import model_residual, observe, solve_multiharmonic
from .norms import x_norm, ymod_norm, yobs_norm
from .poles import bound_slack, build_pole_set, verify_bounds
from .reconstruct import linearized_forward, oracle_residues, reconstruct
from .scenarios import (Scenario, make_basis, make_norm_spec, make_params,
                        make_reference, make_true_fields, min_symbol_magnitude,
                        quasirev_settings, scenario_hash, validate_scenario)
from .errors import ScenarioValidationError


def _write_manifest(path, payload) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def write_table(path, header, columns, scenario_hash) -> None:
    """Write one CSV artifact from its columns, the scenario hash appended last.

    Each column is flattened in C order.  Floats are written as ``.17g``, ints
    and strings as they are; columns of unequal length raise ``ValueError``.
    """
    cols = [[format(v, ".17g") if isinstance(v, float) else v
             for v in np.asarray(col).ravel().tolist()] for col in columns]
    rows = list(zip(*cols, strict=True))
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([*header, "scenario_hash"])
        w.writerows(row + (scenario_hash,) for row in rows)


def run_preset(sc: Scenario, out_dir: str | None = None, seed: int | None = None) -> dict:
    """Execute one scenario; returns the manifest payload."""
    violations = validate_scenario(sc)
    if violations:
        raise ScenarioValidationError(violations)
    out = out_dir or sc.output_dir
    os.makedirs(out, exist_ok=True)
    seed = sc.seed if seed is None else int(seed)
    shash = scenario_hash(sc)
    handler = _PRESETS[sc.preset]
    manifest = {
        "name": sc.name,
        "preset": sc.preset,
        "seed": seed,
        "scenario_hash": shash,
        "scenario": sc.raw,
    }
    manifest.update(handler(sc, out, seed, shash))
    _write_manifest(os.path.join(out, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _common(sc: Scenario):
    params = make_params(sc)
    basis = make_basis(sc)
    check_trace_ranks(basis)
    return params, basis


def _preset_basis_report(sc, out, seed, shash):
    params, basis = _common(sc)
    write_table(os.path.join(out, "basis.csv"),
                ["j", "lambda"] + [f"trace_{i}" for i in range(basis.nsigma)],
                [np.arange(basis.J), basis.lambdas, *basis.trace_matrix.T], shash)
    return {
        "modes": int(basis.J),
        "lambda_max": float(basis.lambdas[-1]),
        "min_symbol": min_symbol_magnitude(sc, basis, params),
    }


def _preset_forward_solve(sc, out, seed, shash):
    params, basis = _common(sc)
    ref = make_reference(sc, basis, params)
    rng = np.random.default_rng(seed)
    truth = make_true_fields(sc, basis, rng)
    pert = synthesize(basis, truth.a_sigma)
    pert *= float(sc.raw.get("sigma_perturbation", 0.05)) / max(float(np.max(np.abs(pert))), 1e-12)
    sigma = MaterialField.from_values(basis, params.sigma0 + pert)
    eta = MaterialField.constant(basis, float(sc.source.get("eta_forward", 1e-3)))
    sigma.check_slowness_admissible(params)
    resid_max = 0.0
    for e, pulse in enumerate((ref.source_pair.psi1, ref.source_pair.psi2)):
        rhat = np.zeros((sc.M, basis.J), dtype=complex)
        rhat[:, ref.phi_index] = pulse.psi_hat
        u = solve_multiharmonic(params, basis, sigma, eta, rhat, tol=1e-10)
        resid = model_residual(params, basis, sigma, eta, u, rhat)
        resid_max = max(resid_max, float(np.max(resid)))
        m, j = np.indices(u.shape)
        write_table(os.path.join(out, f"field_source{e + 1}.csv"), ["m", "j", "re", "im"],
                    [m + 1, j, u.real, u.imag], shash)
        obs = observe(basis, u)
        write_table(os.path.join(out, f"observations_source{e + 1}.csv"),
                    ["m"] + [f"p_re_{i}" for i in range(basis.nsigma)]
                    + [f"p_im_{i}" for i in range(basis.nsigma)],
                    [np.arange(1, sc.M + 1), *obs.real.T, *obs.imag.T], shash)
    return {"max_model_residual": resid_max}


def _preset_pole_report(sc, out, seed, shash):
    params, basis = _common(sc)
    pole_set = build_pole_set(basis.lambdas, params)
    diag = verify_bounds(pole_set, params) if params.tau > 0 and pole_set.n_ok else {}
    # without a fitted constant every slack is nan, whatever c is passed
    slack = bound_slack(pole_set, params, diag.get("fitted_c", np.nan))
    p, asym = pole_set.poles, pole_set.asymptotic
    write_table(os.path.join(out, "poles.csv"),
                ["ell", "lambda", "re_p", "im_p", "re_asym", "im_asym", "bound_slack", "ok"],
                [np.arange(p.size), pole_set.lambdas, p.real, p.imag, asym.real, asym.imag,
                 slack, pole_set.ok.astype(int)], shash)
    return {"poles_ok": int(pole_set.n_ok), **{k: float(v) for k, v in diag.items()}}


def _roundtrip(sc, seed, mode):
    params, basis = _common(sc)
    ref = make_reference(sc, basis, params)
    rng = np.random.default_rng(seed)
    truth = make_true_fields(sc, basis, rng)
    data = linearized_forward(ref, params, basis, truth)
    pole_set = build_pole_set(basis.lambdas, params)
    rec = reconstruct(data, ref, pole_set, basis, params,
                      truth=truth if mode == "oracle" else None)
    scale = max(float(np.max(np.abs(truth.a))), 1e-300)
    a_err = float(np.max(np.abs(rec.a - truth.a))) / scale
    b_scale = max(float(np.max(np.abs(truth.du))), 1e-300)
    b_err = float(np.max(np.abs(rec.b - truth.du))) / b_scale
    return params, basis, ref, truth, data, pole_set, rec, a_err, b_err


def _preset_linearized_roundtrip(sc, out, seed, shash):
    mode = sc.raw.get("residue_mode", "oracle")
    params, basis, ref, truth, data, pole_set, rec, a_err, b_err = _roundtrip(sc, seed, mode)
    a_true, a_rec = np.real(truth.a), np.real(rec.a)
    write_table(os.path.join(out, "reconstruction.csv"),
                ["j", "a_sigma_true", "a_sigma_rec", "a_eta_true", "a_eta_rec",
                 "abs_err", "mtilde_cond", "ok"],
                [np.arange(basis.J), a_true[:, 0], a_rec[:, 0], a_true[:, 1], a_rec[:, 1],
                 np.max(np.abs(rec.a - truth.a), axis=1), rec.mtilde_cond, rec.ok.astype(int)],
                shash)
    ell, q, x = np.indices(rec.residues.shape)
    write_table(os.path.join(out, "residues.csv"), ["ell", "channel", "point", "re", "im"],
                [ell, q, x, rec.residues.real, rec.residues.imag], shash)
    return {
        "residue_mode": mode,
        "max_rel_coeff_error": a_err,
        "max_rel_state_error": b_err,
        "fit_cond": None if np.isnan(rec.fit_cond) else float(rec.fit_cond),
    }


def _preset_stability_probe(sc, out, seed, shash):
    params, basis = _common(sc)
    spec = make_norm_spec(sc)
    ref = make_reference(sc, basis, params)
    pole_set = build_pole_set(basis.lambdas, params)
    rng = np.random.default_rng(seed)
    draws = int(sc.raw.get("draws", 200))
    norms = np.zeros((draws, 3))
    for i in range(draws):
        truth = make_true_fields(sc, basis, rng)
        data = linearized_forward(ref, params, basis, truth)
        res = oracle_residues(truth, data.rhat, pole_set, ref.source_pair, basis, params)
        xv = x_norm(truth.a, truth.du, basis.lambdas, params.omega, spec)
        yo = yobs_norm(res, spec, ref.source_pair, pole_set, basis, params, M=sc.M)
        ym = ymod_norm(data.rhat, spec, ref.source_pair, pole_set, basis, params)
        norms[i] = xv, yo, ym
    xv, yo, ym = norms.T
    slack = yo + ym - xv
    write_table(os.path.join(out, "stability.csv"),
                ["draw", "x_norm", "yobs_norm", "ymod_norm", "slack"],
                [np.arange(draws), xv, yo, ym, slack], shash)
    return {"draws": draws, "min_slack": float(np.min(slack, initial=np.inf))}


def _preset_qr_sweep(sc, out, seed, shash):
    params, basis = _common(sc)
    spec = make_norm_spec(sc)
    ref = make_reference(sc, basis, params)
    rng = np.random.default_rng(seed)
    truth = make_true_fields(sc, basis, rng)
    qr = quasirev_settings(sc)
    rows = quasirev.run_sweep(
        basis, ref, params, spec, truth,
        delta_list=sc.noise.get("delta_list", [1e-2, 1e-3, 1e-4]),
        tau0=qr["tau0"], seed=seed, tau_min=qr["tau_min"], tau_max=qr["tau_max"],
        ratio=qr["grid_ratio"], tolerance=qr["tolerance"],
    )
    header = ["delta", "tau", "error_x", "bound", "cbar", "ctilde", "status"]
    write_table(os.path.join(out, "sweep.csv"), header,
                [[getattr(r, k) for r in rows] for k in header], shash)
    errors = [r.error_x for r in rows if r.status == "ok"]
    over = sum(1 for r in rows if np.isfinite(r.error_x) and not r.error_x <= r.bound)
    return {
        "rows": len(rows),
        "rows_over_bound": over,
        "all_ok": over == 0 and all(r.status == "ok" for r in rows),
        "errors_decreasing": bool(all(errors[i] > errors[i + 1] for i in range(len(errors) - 1))),
        "max_error": float(max(errors)) if errors else None,
    }


def _preset_smoothing_study(sc, out, seed, shash):
    params, basis = _common(sc)
    spec = make_norm_spec(sc)
    rng = np.random.default_rng(seed)
    cutoff = int(sc.raw.get("target_cutoff", max(2, basis.J // 3)))
    coeffs = np.zeros(basis.J)
    coeffs[:cutoff] = rng.standard_normal(cutoff) / (1.0 + np.arange(cutoff)) ** 3
    exact_trace = coeffs @ basis.trace_matrix
    deltas = sc.noise.get("delta_list", [1e-2, 1e-3, 1e-4])
    rows = []
    for i, dt in enumerate(sorted(map(float, deltas), reverse=True)):
        noise = rng.standard_normal(basis.nsigma)
        noise *= dt / np.linalg.norm(np.sqrt(basis.sigma_weights) * noise)
        sm = quasirev.smooth_data(exact_trace + noise, dt, basis, spec.s)
        err = float(np.sqrt(np.sum(np.power(basis.lambdas, spec.s)
                                   * np.abs(sm.coeffs - coeffs) ** 2)))
        k = np.flatnonzero(sm.levels == sm.level)[0]
        rows.append((dt, sm.level, float(sm.kappa[k]), float(sm.residuals[k]), err))
    write_table(os.path.join(out, "smoothing.csv"),
                ["delta_tilde", "chosen_level", "kappa", "fit_residual", "hs_error"],
                list(zip(*rows)), shash)
    errs = [r[4] for r in rows]
    return {"errors_decreasing": bool(all(errs[i] > errs[i + 1] for i in range(len(errs) - 1)))}


_PRESETS = {
    "basis-report": _preset_basis_report,
    "forward-solve": _preset_forward_solve,
    "pole-report": _preset_pole_report,
    "linearized-roundtrip": _preset_linearized_roundtrip,
    "stability-probe": _preset_stability_probe,
    "qr-sweep": _preset_qr_sweep,
    "smoothing-study": _preset_smoothing_study,
}
