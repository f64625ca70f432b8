"""Preset experiment implementations behind the command-line runner.

Every preset writes CSV tables plus a JSON manifest echoing the scenario,
the seed actually used, and headline numbers.  Artifacts are deterministic
for a fixed scenario and seed: rows carry the scenario hash and no
timestamps are recorded.
"""

from __future__ import annotations

import json
import os
import re
from itertools import chain, repeat

import numpy as np

from . import csvtext, quasirev
from .eigenbasis import check_trace_ranks, synthesize
from .fields import check_slowness_admissible
from .forward import observe, solve_multiharmonic
from .norms import image_norms, pole_table, x_norm
from .poles import asymptotic_poles, bound_slack, build_pole_set, verify_bounds
from .reconstruct import linearized_forward, reconstruct
from .scenarios import (Scenario, check_seed, forward_settings, make_basis, make_norm_spec,
                        make_params, make_reference, make_true_fields, min_symbol_magnitude,
                        noise_levels, quasirev_settings, reference_pulse, scenario_hash,
                        target_cutoff, true_coefficients, true_field_settings,
                        validate_scenario)
from .errors import ScenarioValidationError


def _write_manifest(path, payload) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quote(cell) -> str:
    """One csv cell under QUOTE_MINIMAL: quoted, with `"` doubled, where it
    holds a comma, a quote or a line break."""
    s = str(cell)
    return '"' + s.replace('"', '""') + '"' if _NEEDS_QUOTES.search(s) else s


def _column(a):
    """The `%` conversion and the values of one flat column."""
    values = a.tolist()
    if a.dtype.kind == "f":
        return "%.17g", values
    if a.dtype.kind in "biu":
        return "%s", values
    return "%s", [format(v, ".17g") if isinstance(v, float) else _quote(v) for v in values]


def write_table(path, header, columns, scenario_hash) -> None:
    """Write one CSV artifact from its columns, the scenario hash appended last.

    Each column is flattened in C order.  Floats are written as ``.17g``, ints
    and strings as they are, with ``csv``'s minimal quoting and CRLF line
    ends; columns of unequal length raise ``ValueError``.  A table of at
    least ``csvtext.MIN_CELLS`` cells whose columns are all floats, or ints
    in [0, 10^16), is encoded by ``csvtext`` in one numpy pass; any other
    body is one ``%`` operation over a row format repeated once per row.
    Both give the same bytes.
    """
    arrays = [np.asarray(c).ravel() for c in columns]
    lengths = {a.size for a in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    tail = _quote(scenario_hash)
    if n * len(arrays) >= csvtext.MIN_CELLS and csvtext.encodable(arrays):
        body = csvtext.encode_rows(arrays, "," + tail + "\r\n")
    else:
        cols = [_column(a) for a in arrays]
        row = ",".join([conv for conv, _ in cols] + ["%s"]) + "\r\n"
        cells = zip(*(values for _, values in cols), repeat(tail, n))
        body = (row * n) % tuple(chain.from_iterable(cells))
    with open(path, "w", newline="") as f:
        f.write(",".join(map(_quote, [*header, "scenario_hash"])) + "\r\n" + body)


def run_preset(sc: Scenario, out_dir: str | None = None, seed: int | None = None) -> dict:
    """Execute one scenario; returns the manifest payload."""
    violations = validate_scenario(sc)
    if violations:
        raise ScenarioValidationError(violations)
    seed = sc.seed if seed is None else int(seed)
    check_seed(seed, sc.preset)
    out = out_dir or sc.output_dir
    os.makedirs(out, exist_ok=True)
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
    psi, mode = reference_pulse(sc, basis, params)
    # the leading normals of the generator, as make_true_fields draws them
    a = true_coefficients(sc, basis.J, np.random.default_rng(seed).standard_normal(
        2 * true_field_settings(sc)[0]))
    size, eta_forward = forward_settings(sc)
    pert = synthesize(basis, a[:, 0])
    pert *= size / max(float(np.max(np.abs(pert))), 1e-12)
    sigma = params.sigma0 + pert
    eta = np.full(basis.nquad, eta_forward)
    check_slowness_admissible(sigma, params)
    rhat = np.zeros((2, sc.M, basis.J), dtype=complex)
    rhat[0, :, mode] = psi
    rhat[1, :, mode] = params.A * psi
    u, report = solve_multiharmonic(params, basis, sigma, eta, rhat, tol=1e-10)
    m, j = np.indices(u.shape[1:])
    for e, ue in enumerate(u, start=1):
        write_table(os.path.join(out, f"field_source{e}.csv"), ["m", "j", "re", "im"],
                    [m + 1, j, ue.real, ue.imag], shash)
        obs = observe(basis, ue)
        write_table(os.path.join(out, f"observations_source{e}.csv"),
                    ["m"] + [f"p_re_{i}" for i in range(basis.nsigma)]
                    + [f"p_im_{i}" for i in range(basis.nsigma)],
                    [np.arange(1, sc.M + 1), *obs.real.T, *obs.imag.T], shash)
    return {"max_model_residual": float(np.max(report.residual)),
            "solver_sweeps": report.sweeps.tolist(),
            "damping_restarts": int(np.sum(report.restarts))}


def _preset_pole_report(sc, out, seed, shash):
    params, basis = _common(sc)
    pole_set = build_pole_set(basis.lambdas, params)
    diag = verify_bounds(pole_set, params) if params.tau > 0 and pole_set.n_ok else {}
    # without a fitted constant every slack is nan, whatever c is passed
    slack = bound_slack(pole_set, params, diag.get("fitted_c", np.nan))
    p, asym = pole_set.poles, asymptotic_poles(pole_set.lambdas, params)
    write_table(os.path.join(out, "poles.csv"),
                ["ell", "lambda", "re_p", "im_p", "re_asym", "im_asym", "bound_slack", "ok"],
                [np.arange(p.size), pole_set.lambdas, p.real, p.imag, asym.real, asym.imag,
                 slack, pole_set.ok.astype(int)], shash)
    return {"poles_ok": int(pole_set.n_ok), **{k: float(v) for k, v in diag.items()}}


def _preset_linearized_roundtrip(sc, out, seed, shash):
    params, basis = _common(sc)
    sp = make_reference(sc, basis, params)
    rng = np.random.default_rng(seed)
    truth = make_true_fields(sc, basis, rng)
    data = linearized_forward(sp, params, basis, truth)
    pole_set = build_pole_set(basis.lambdas, params)
    rec = reconstruct(data, sp, basis, params)
    a_true, a_rec = np.real(truth.a), np.real(rec.a)
    write_table(os.path.join(out, "reconstruction.csv"),
                ["j", "a_sigma_true", "a_sigma_rec", "a_eta_true", "a_eta_rec", "abs_err", "ok"],
                [np.arange(basis.J), a_true[:, 0], a_rec[:, 0], a_true[:, 1], a_rec[:, 1],
                 np.max(np.abs(rec.a - truth.a), axis=1), pole_set.ok.astype(int)], shash)
    return {
        "max_rel_coeff_error": float(np.max(np.abs(rec.a - truth.a)))
        / max(float(np.max(np.abs(truth.a))), 1e-300),
        "max_rel_state_error": float(np.max(np.abs(rec.b - truth.du)))
        / max(float(np.max(np.abs(truth.du))), 1e-300),
        "fit_cond": rec.fit_cond,
        "fit_rel_residual": float(rec.fit_rel_residual),
        "poles_ok": int(pole_set.n_ok),
        "modes_without_pole": np.flatnonzero(~pole_set.ok).tolist(),
    }


def _preset_stability_probe(sc, out, seed, shash):
    params, basis = _common(sc)
    spec = make_norm_spec(sc)
    sp = make_reference(sc, basis, params)
    pole_set = build_pole_set(basis.lambdas, params)
    rng = np.random.default_rng(seed)
    draws = sc.draws
    truth = make_true_fields(sc, basis, rng, draws=draws)
    data = linearized_forward(sp, params, basis, truth)
    table = pole_table(pole_set, sp, params)
    xv = x_norm(truth.a, truth.du, basis.lambdas, params.omega, spec)
    yo, ym = image_norms(truth.a, data.rhat, table, spec, sp, basis, params)
    slack = yo + ym - xv
    write_table(os.path.join(out, "stability.csv"),
                ["draw", "x_norm", "yobs_norm", "ymod_norm", "slack"],
                [np.arange(draws), xv, yo, ym, slack], shash)
    min_slack = float(np.min(slack))
    missing = np.flatnonzero(~pole_set.ok).tolist()
    return {
        "draws": draws,
        "min_slack": min_slack,
        "poles_ok": int(pole_set.n_ok),
        "modes_without_pole": missing,
        # a mode without a pole drops out of Yobs + Ymod, so no slack vouches for it;
        # a nan slack fails as well
        "estimate_holds": not missing and min_slack >= 0.0,
        "max_mtilde_cond": float(np.max(table.mt_cond)) if table.ok.size else None,
    }


def _preset_qr_sweep(sc, out, seed, shash):
    params, basis = _common(sc)
    spec = make_norm_spec(sc)
    sp = make_reference(sc, basis, params)
    rng = np.random.default_rng(seed)
    truth = make_true_fields(sc, basis, rng)
    qr = quasirev_settings(sc)
    rows = quasirev.run_sweep(
        basis, sp, params, spec, truth,
        delta_list=noise_levels(sc),
        tau0=qr["tau0"], seed=seed, tau_min=qr["tau_min"], tau_max=qr["tau_max"],
        ratio=qr["grid_ratio"], tolerance=qr["tolerance"],
    )
    header = ["delta", "tau", "error_x", "bound", "cbar", "ctilde", "status", "fit_rel_residual",
              "fit_cond"]
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
    cutoff = target_cutoff(sc)
    coeffs = np.zeros(basis.J)
    coeffs[:cutoff] = rng.standard_normal(cutoff) / (1.0 + np.arange(cutoff)) ** 3
    exact_trace = coeffs @ basis.trace_matrix
    kappas = quasirev.smoothing_gains(basis, spec.s)
    # one noise direction, scaled to each level: at a fixed chosen level
    # the noise part of the error is then linear in delta
    direction = rng.standard_normal(basis.nsigma)
    size = np.linalg.norm(np.sqrt(basis.sigma_weights) * direction)
    rows = []
    for dt in noise_levels(sc):
        sm = quasirev.smooth_data(exact_trace + direction * (dt / size), dt, basis, kappas)
        err = float(np.sqrt(np.sum(np.power(basis.lambdas, spec.s)
                                   * np.abs(sm.coeffs - coeffs) ** 2)))
        k = sm.level - 1   # candidate levels are 1..len(kappas)
        rows.append((dt, sm.level, float(kappas[k]), float(sm.residuals[k]), err))
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
