"""Every CSV artifact matches, byte for byte, the per-type writers in oracles.py.

Each case runs one preset on small inputs while recording the objects the
runner computes (basis, pole set, fields, reconstruction, norms, sweep rows,
smoothing results); the oracle writers then write the same tables from those
objects, and the two directories must hold identical files.
"""

import json
import math

import numpy as np
import pytest

import oracles
from conftest import run_scenario, small_scenario
from harmtomo import norms, quasirev, runner
from harmtomo.forward import model_residual, observe
from harmtomo.norms import PoleTable
from harmtomo.poles import build_pole_set
from harmtomo.quasirev import SweepRow
from harmtomo.runner import write_table
from harmtomo.scenarios import (make_basis, make_params, make_reference, make_true_fields,
                                scenario_hash)
from harmtomo.sources import design_delta_pulse


def _record(monkeypatch, owner, name):
    """Wrap owner.name so that every call's (args, result) is kept."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _basis_report(sc, d, shash, seen):
    oracles.basis_to_csv(seen["basis"][0][1], d / "basis.csv", scenario_hash=shash)


def _pole_report(sc, d, shash, seen):
    oracles.pole_table_csv(seen["pole_set"][0][1], seen["params"][0][1], d / "poles.csv",
                           scenario_hash=shash)


def _forward_solve(sc, d, shash, seen):
    basis = seen["basis"][0][1]
    (_, (u_both, _)), = seen["solve"]   # one solve of both sources, stacked (2, M, J)
    for e, u in enumerate(u_both):
        oracles.harmonic_field_to_csv(u, d / f"field_source{e + 1}.csv", scenario_hash=shash)
        obs = observe(basis, u)
        oracles.csv_rows(d / f"observations_source{e + 1}.csv",
                         ["m"] + [f"p_re_{i}" for i in range(basis.nsigma)]
                         + [f"p_im_{i}" for i in range(basis.nsigma)] + ["scenario_hash"],
                         [[m + 1] + [float(v) for v in obs[m].real] + [float(v) for v in obs[m].imag]
                          + [shash] for m in range(sc.M)])


def _roundtrip(sc, d, shash, seen):
    rec, truth = seen["reconstruct"][0][1], seen["truth"][0][1]
    oracles.result_to_csv(rec, truth.a, seen["pole_set"][0][1].ok, d / "reconstruction.csv",
                          scenario_hash=shash)


def _stability_probe(sc, d, shash, seen):
    # one batched call per norm: each records an array with one value per draw
    (_, xs), = seen["x"]
    (_, (yos, yms)), = seen["image"]
    rows = [[i, float(xv), float(yo), float(ym), float(yo + ym - xv), shash]
            for i, (xv, yo, ym) in enumerate(zip(xs, yos, yms))]
    oracles.csv_rows(d / "stability.csv",
                     ["draw", "x_norm", "yobs_norm", "ymod_norm", "slack", "scenario_hash"], rows)


def _qr_sweep(sc, d, shash, seen):
    oracles.sweep_to_csv(seen["sweep"][0][1], d / "sweep.csv", scenario_hash=shash)


def _smoothing_study(sc, d, shash, seen):
    basis = seen["basis"][0][1]
    s = sc.norms["s"]
    # the target coefficients are the first draws of the preset's generator
    rng = np.random.default_rng(sc.seed)
    cutoff = int(sc.raw["target_cutoff"])
    coeffs = np.zeros(basis.J)
    coeffs[:cutoff] = rng.standard_normal(cutoff) / (1.0 + np.arange(cutoff)) ** 3
    rows = []
    for (_, dt, _, kappas), sm in seen["smooth"]:
        k = sm.level - 1   # candidate levels are 1..len(kappas)
        err = float(np.sqrt(np.sum(np.power(basis.lambdas, s) * np.abs(sm.coeffs - coeffs) ** 2)))
        rows.append([dt, sm.level, float(kappas[k]), float(sm.residuals[k]), err, shash])
    oracles.csv_rows(d / "smoothing.csv",
                     ["delta_tilde", "chosen_level", "kappa", "fit_residual", "hs_error",
                      "scenario_hash"], rows)


ORACLE_TABLES = {
    "basis-report": _basis_report,
    "pole-report": _pole_report,
    "forward-solve": _forward_solve,
    "linearized-roundtrip": _roundtrip,
    "stability-probe": _stability_probe,
    "qr-sweep": _qr_sweep,
    "smoothing-study": _smoothing_study,
}


def _with_tau(raw, tau):
    raw["params"]["tau"] = tau
    return raw


QR_FULL = {"J": 8, "M": 48}
RECT_FULL = {"J": 12, "M": 8}
CASES = {
    "basis-interval": small_scenario("basis-report"),
    "basis-rectangle": small_scenario("basis-report", base="smoothing_study", **RECT_FULL),
    "poles-tau0.5": small_scenario("pole-report"),
    "poles-tau0": _with_tau(small_scenario("pole-report"), 0.0),
    "poles-rectangle": small_scenario("pole-report", base="smoothing_study", **RECT_FULL),
    "forward": small_scenario("forward-solve"),
    # -0.0 truth coefficients must be written as -0
    "roundtrip-oracle": small_scenario(
        "linearized-roundtrip", M=24,
        true_fields={"kind": "low_mode", "sigma_modes": [[1, -0.0], [2, 0.5]],
                     "eta_modes": [[0, -0.0], [3, 0.25]], "du_scale": 1.0}),
    "roundtrip-fit": small_scenario("linearized-roundtrip", M=24, residue_mode="fit"),
    "stability": small_scenario("stability-probe", M=24, draws=3),
    "qr-sweep": small_scenario("qr-sweep", base="qr_sweep", **QR_FULL),
    "smoothing": small_scenario("smoothing-study", base="smoothing_study", **RECT_FULL),
}

# A failed sweep row whose status needs csv quoting, with a -0.0 delta.
FAILED_ROW = SweepRow(delta=-0.0, tau=math.nan, error_x=math.nan, bound=math.nan, cbar=math.nan,
                      ctilde=math.nan, status='failed: SmoothingError: level "3", then 4 rejected',
                      fit_rel_residual=math.nan, fit_cond=math.nan)

# Edge values the cases must reach: (file, bytes it must contain).
EDGES = {
    "poles-tau0": ("poles.csv", b",nan,nan,nan,"),
    "roundtrip-oracle": ("reconstruction.csv", b",-0,"),
    "qr-sweep": ("sweep.csv",
                 b'\r\n-0,nan,nan,nan,nan,nan,'
                 b'"failed: SmoothingError: level ""3"", then 4 rejected",nan,nan,'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_match_oracle_writers(case, tmp_path, monkeypatch):
    raw = CASES[case]
    if raw["preset"] == "qr-sweep":
        sweep = quasirev.run_sweep
        monkeypatch.setattr(quasirev, "run_sweep", lambda *a, **k: sweep(*a, **k) + [FAILED_ROW])
    seen = {key: _record(monkeypatch, owner, name) for key, owner, name in (
        ("params", runner, "make_params"), ("basis", runner, "make_basis"),
        ("truth", runner, "make_true_fields"), ("pole_set", runner, "build_pole_set"),
        ("solve", runner, "solve_multiharmonic"), ("reconstruct", runner, "reconstruct"),
        ("x", runner, "x_norm"), ("image", runner, "image_norms"),
        ("sweep", quasirev, "run_sweep"), ("smooth", quasirev, "smooth_data"))}
    out, sc = run_scenario(tmp_path, raw)
    expected = tmp_path / "oracle"
    expected.mkdir()
    ORACLE_TABLES[sc.preset](sc, expected, scenario_hash(sc), seen)
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == sorted(p.name for p in expected.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (expected / name).read_bytes(), name
    if case in EDGES:
        name, edge = EDGES[case]
        assert edge in (out / name).read_bytes()


def test_stability_probe_calls_each_stage_once(tmp_path, monkeypatch):
    stages = ("make_true_fields", "linearized_forward", "x_norm", "image_norms")
    seen = {name: _record(monkeypatch, runner, name) for name in stages}
    out, _ = run_scenario(tmp_path, small_scenario("stability-probe", M=24, draws=7))
    assert {name: len(calls) for name, calls in seen.items()} == dict.fromkeys(stages, 1)
    yo, ym = seen["image_norms"][0][1]
    assert seen["x_norm"][0][1].shape == yo.shape == ym.shape == (7,)
    assert len((out / "stability.csv").read_text().splitlines()) == 8


def test_stability_probe_builds_one_pole_table(tmp_path, monkeypatch):
    # the op builds its table once (one kernel evaluation), evaluates the model
    # term once for both image norms, and reads max_mtilde_cond off that table
    tables = _record(monkeypatch, runner, "pole_table")
    kernels = _record(monkeypatch, norms, "interp_kernels")
    terms = _record(monkeypatch, PoleTable, "model_term_ok")
    image = _record(monkeypatch, runner, "image_norms")
    out, _ = run_scenario(tmp_path, small_scenario("stability-probe", M=24, draws=7))
    assert (len(tables), len(kernels), len(terms)) == (1, 1, 1)
    (_, table), = tables
    assert terms[0][0][0] is table and image[0][0][2] is table
    assert terms[0][1].shape == (7, table.ok.size, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["max_mtilde_cond"] == float(np.max(table.mt_cond))


@pytest.mark.parametrize("tau, poles_ok, missing", [(0.5, 8, []), (0.05, 7, [2])])
def test_stability_manifest_pole_diagnostics(tmp_path, tau, poles_ok, missing):
    raw = _with_tau(small_scenario("stability-probe", M=24, draws=2), tau)
    out, sc = run_scenario(tmp_path, raw)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["poles_ok"] == poles_ok
    assert manifest["modes_without_pole"] == missing
    params, basis = make_params(sc), make_basis(sc)
    pole_set = build_pole_set(basis.lambdas, params)
    sp = make_reference(sc, basis, params)
    cond = np.linalg.cond(oracles.evaluate_mtilde(sp, pole_set.poles[pole_set.ok], params))
    assert manifest["max_mtilde_cond"] == pytest.approx(float(np.max(cond)), rel=1e-12)
    again, _ = run_scenario(tmp_path, raw, name="again")
    for name in ("manifest.json", "stability.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_write_table_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [[1, 2, 3], [1.0, 2.0]], "h")
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros((2, 3)), np.zeros(5)], "h")
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(0), ["x"]], "h")


def test_write_table_matches_csv_module_on_edge_values(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308, 0.1,
              -1 / 3]
    ints = np.array([-3, 0, np.iinfo(np.int64).max, np.iinfo(np.int64).min, 7, -1, 2, 1, -10])
    strs = ["plain", "a,b", 'say "hi"', "two\r\nlines", "lone\rcr", "lone\nlf", "", " pad ", "é"]
    header = ["f", "i,comma", 's"q', "s"]
    write_table(tmp_path / "new.csv", header, [floats, ints, np.array(floats)[::-1], strs], "h,1")
    oracles.csv_rows(tmp_path / "old.csv", header + ["scenario_hash"],
                     [[f, int(i), g, s, "h,1"]
                      for f, i, g, s in zip(floats, ints, floats[::-1], strs)])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    # a zero-row table is its header alone
    write_table(tmp_path / "empty.csv", ["a", "b"], [np.zeros(0), []], "h")
    oracles.csv_rows(tmp_path / "empty_old.csv", ["a", "b", "scenario_hash"], [])
    assert (tmp_path / "empty.csv").read_bytes() == (tmp_path / "empty_old.csv").read_bytes()


def test_forward_manifest_residual_is_that_of_the_written_fields(tmp_path, monkeypatch):
    solves = _record(monkeypatch, runner, "solve_multiharmonic")
    out, sc = run_scenario(tmp_path, small_scenario("forward-solve"))
    manifest = json.loads((out / "manifest.json").read_text())
    ((params, basis, sigma, eta, rhat), _), = solves
    assert rhat.shape == (2, sc.M, basis.J)
    worst = 0.0
    for e in range(2):
        table = np.genfromtxt(out / f"field_source{e + 1}.csv", delimiter=",", skip_header=1,
                              usecols=(2, 3))
        # .17g round-trips every double, so u is the solver's own
        u = (table[:, 0] + 1j * table[:, 1]).reshape(sc.M, basis.J)
        worst = max(worst, float(np.max(model_residual(params, basis, sigma, eta, u, rhat[e]))))
    assert manifest["max_model_residual"] == worst


def test_forward_manifest_reports_sweeps_and_restarts(tmp_path, monkeypatch):
    solves = _record(monkeypatch, runner, "solve_multiharmonic")
    # the shipped interval scenario at its own truncation (J = 16, M = 64)
    out, _ = run_scenario(tmp_path, small_scenario("forward-solve", J=16, M=64))
    manifest = json.loads((out / "manifest.json").read_text())
    (_, (_, report)), = solves
    assert manifest["solver_sweeps"] == report.sweeps.tolist()
    assert all(n > 0 for n in manifest["solver_sweeps"]) and len(manifest["solver_sweeps"]) == 2
    assert manifest["damping_restarts"] == int(np.sum(report.restarts)) == 0


def test_forward_solve_drives_the_reference_mode(tmp_path, monkeypatch):
    # source 1 drives mode phi_mode with the pulse harmonics, source 2 with A
    # times them, and the constant eta_forward acts on every grid point
    solves = _record(monkeypatch, runner, "solve_multiharmonic")
    raw = small_scenario("forward-solve")
    raw["source"]["phi_mode"] = 2
    _, sc = run_scenario(tmp_path, raw)
    params, basis = make_params(sc), make_basis(sc)
    src = sc.source
    psi = design_delta_pulse(params, sc.M, src["pulse_width"], amplitude=src["amplitude"])
    ((_, _, _, eta, rhat), _), = solves
    expected = np.zeros((2, sc.M, basis.J), dtype=complex)
    expected[0, :, 2] = psi
    expected[1, :, 2] = params.A * psi
    assert np.array_equal(rhat, expected)
    assert eta.shape == (basis.nquad,) and np.all(eta == 1e-3)


@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("truth", [
    {"kind": "random_low_mode", "cutoff": 5, "du_scale": 1.0},
    {"kind": "random_low_mode"},
    {"kind": "low_mode", "sigma_modes": [[1, -0.5], [3, 0.25]], "eta_modes": [[0, 2.0]]},
], ids=["random-cutoff5", "random-default", "low_mode"])
def test_forward_coefficients_are_those_of_the_truth(tmp_path, monkeypatch, seed, truth):
    # the preset draws only the truth's leading normals, and its coefficient
    # pairs equal make_true_fields' bit for bit
    coeffs = _record(monkeypatch, runner, "true_coefficients")
    raw = small_scenario("forward-solve", seed=seed, true_fields=truth)
    _, sc = run_scenario(tmp_path, raw)
    (_, a), = coeffs
    expected = make_true_fields(sc, make_basis(sc), np.random.default_rng(seed)).a
    assert a.shape == expected.shape and a.tobytes() == expected.tobytes()
