import copy
import csv
import json
import math
import warnings
from pathlib import Path

import pytest

from harmtomo.cli import main
from harmtomo.errors import ScenarioValidationError
from harmtomo.runner import run_preset
from harmtomo.scenarios import load_scenario, scenario_hash, validate_scenario
from conftest import small_scenario

ROOT = Path(__file__).resolve().parents[1]
ROUNDTRIP = ROOT / "scenarios" / "interval_roundtrip.json"
QR = ROOT / "scenarios" / "qr_sweep.json"
SMOOTH = ROOT / "scenarios" / "smoothing_study.json"
FORWARD = small_scenario("forward-solve")  # raw JSON: the round trip run as a forward solve
PROBE = small_scenario("stability-probe", M=24, draws=3)
MISSING = object()  # a variant value that deletes the key; as a file, no file at the path
DIRECTORY = object()  # as a file, a directory at the path


def _write_variant(tmp_path, base, **updates):
    """`base` (a scenario path, or raw JSON) with `updates` applied, written to a file."""
    raw = copy.deepcopy(base) if isinstance(base, dict) else json.loads(Path(base).read_text())
    for key, val in updates.items():
        section = raw
        parts = key.split(".")
        for p in parts[:-1]:
            section = section[p]
        if val is MISSING:
            del section[parts[-1]]
        else:
            section[parts[-1]] = val
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


class TestValidate:
    def test_default_scenarios_clean(self):
        paths = sorted((ROOT / "scenarios").glob("*.json"))
        assert len(paths) >= 3
        for path in paths:
            assert validate_scenario(load_scenario(path)) == [], path.name

    def test_singular_modulation_named(self, tmp_path):
        path = _write_variant(tmp_path, ROUNDTRIP, **{"params.A": 1.0})
        violations = validate_scenario(load_scenario(path))
        assert any("M_m singular" in v for v in violations)

    def test_stability_requirement_named(self, tmp_path):
        path = _write_variant(tmp_path, ROUNDTRIP, **{"params.tau": 1.5})
        violations = validate_scenario(load_scenario(path))
        assert any("sigma*beta >= tau" in v for v in violations)

    def test_period_consistency(self, tmp_path):
        path = _write_variant(tmp_path, ROUNDTRIP, **{"params.T": 1.0})
        violations = validate_scenario(load_scenario(path))
        assert any("2*pi" in v for v in violations)

    def test_quasirev_defaults_shared_with_runner(self, tmp_path):
        # the runner's default tau_max = 0.5 lies above sigma0*beta = 0.4
        raw = json.loads(QR.read_text())
        raw["params"]["beta"] = 0.4
        del raw["quasirev"]["tau_max"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        sc = load_scenario(path)
        assert any("tau_max 0.5 above sigma0*beta" in v for v in validate_scenario(sc))
        with pytest.raises(ScenarioValidationError):
            run_preset(sc, out_dir=str(tmp_path / "o"))
        del raw["quasirev"]
        path.write_text(json.dumps(raw))
        assert any("tau_max" in v for v in validate_scenario(load_scenario(path)))

    def test_cli_validate_exit_codes(self, tmp_path):
        assert main(["validate", str(ROUNDTRIP)]) == 0
        bad = _write_variant(tmp_path, ROUNDTRIP, **{"params.A": 0.0})
        assert main(["validate", str(bad)]) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("params.tau", -0.1, "tau must be nonnegative"),
        ("params.omega", 0, "omega must be positive"),
        ("residue_mode", "nope", "residue_mode 'nope' is not supported"),
        ("draws", -1, "draws -1 must be at least 1"),
        ("source.eta0", 0.5, "source.eta0 0.5 is not supported"),
    ])
    def test_model_parameter_checks_are_violations(self, tmp_path, capsys, key, value, message):
        bad = _write_variant(tmp_path, ROUNDTRIP, **{key: value})
        assert any(message in v for v in validate_scenario(load_scenario(bad)))
        assert main(["validate", str(bad)]) == 2
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("base, key, value, message", [
        (QR, "quasirev.tau0", -0.1, "tau0 -0.1 must be nonnegative"),
        (QR, "quasirev.tau_min", 0.6, "empty tau grid"),
        (QR, "quasirev.tau_min", 0.0, "tau0 + tau_min = 0.0 must be positive"),
        (QR, "quasirev.grid_ratio", 1.0, "grid_ratio 1.0 must exceed 1"),
        (QR, "quasirev.grid_ratio", 0.5, "grid_ratio 0.5 must exceed 1"),
        (QR, "noise.delta_list", [-1e-3], "noise levels [-0.001] must be finite and nonnegative"),
        (SMOOTH, "target_cutoff", 99, "target_cutoff 99 outside 1..J"),
        (ROUNDTRIP, "true_fields.kind", "bogus", "unknown true_fields kind 'bogus'"),
        (ROUNDTRIP, "source.pulse_width", MISSING, "source.pulse_width must be explicit"),
        (ROUNDTRIP, "source.phi_mode", MISSING, "source.phi_mode must be explicit"),
        (ROUNDTRIP, "draws", "x", "draws 'x' must be an integer"),
        (ROUNDTRIP, "source.phi_mode", "x", "source.phi_mode 'x' must be an integer"),
        (SMOOTH, "target_cutoff", 2.5, "target_cutoff 2.5 must be an integer"),
        (ROUNDTRIP, "true_fields.sigma_modes", [["x", 0.5]],
         "sigma_modes index 'x' must be an integer"),
        (ROUNDTRIP, "true_fields.cutoff", "x", "true_fields.cutoff 'x' must be an integer"),
        (QR, "true_fields.du_band", 2.5, "true_fields.du_band 2.5 must be an integer"),
        (ROUNDTRIP, "residue_mode", "oracle",
         "residue_mode 'oracle' is not supported: the oracle mode was removed"),
        (ROUNDTRIP, "domain.robin_gamma", [0.0, 0.0],
         "source.phi_mode: reference mode 0 has eigenvalue 0 when every Robin coefficient is 0"),
        (FORWARD, "sigma_perturbation", "x", "sigma_perturbation 'x' must be a finite number"),
        (FORWARD, "source.eta_forward", "x", "source.eta_forward 'x' must be a finite number"),
        (FORWARD, "source.eta_forward", float("nan"),
         "source.eta_forward nan must be a finite number"),
        (ROUNDTRIP, "seed", -3, "seed -3 must be nonnegative"),
        (QR, "seed", -1, "seed -1 must be nonnegative"),
        (QR, "seed", 0, "seed 0: the qr-sweep's pilot draws its noise with seed - 1 = -1"),
        (ROUNDTRIP, "true_fields.cutoff", -1, "true_fields.cutoff -1 must be nonnegative"),
        (QR, "true_fields.du_band", -2, "true_fields.du_band -2 outside 0..M = 0..48"),
        (QR, "true_fields.du_band", 49, "true_fields.du_band 49 outside 0..M = 0..48"),
        (ROUNDTRIP, "true_fields.du_scale", math.nan,
         "true_fields.du_scale nan must be a finite number"),
        (ROUNDTRIP, "true_fields.du_scale", math.inf,
         "true_fields.du_scale inf must be a finite number"),
        (ROUNDTRIP, "true_fields.sigma_modes", [[1, math.inf]],
         "sigma_modes value inf must be a finite number"),
        (ROUNDTRIP, "true_fields.eta_modes", [[2, math.nan]],
         "eta_modes value nan must be a finite number"),
        (ROUNDTRIP, "params.beta", math.nan, "params.beta nan must be a finite number"),
        (ROUNDTRIP, "params.sigma0", math.inf, "params.sigma0 inf must be a finite number"),
        (ROUNDTRIP, "params.omega", math.nan, "params.omega nan must be a finite number"),
        (ROUNDTRIP, "params.T0", math.inf, "params.T0 inf must be a finite number"),
        (ROUNDTRIP, "params.A", math.nan, "params.A nan must be a finite number"),
        (ROUNDTRIP, "params.tau", "0.5", "params.tau '0.5' must be a finite number"),
        (ROUNDTRIP, "params.T", "x", "params.T 'x' must be a finite number"),
        (ROUNDTRIP, "params.T", math.inf, "params.T inf must be a finite number"),
        (ROUNDTRIP, "source.amplitude", math.nan, "source.amplitude nan must be a finite number"),
        (ROUNDTRIP, "source.amplitude", 0, "source.amplitude 0 leaves both sources zero"),
        (ROUNDTRIP, "source.pulse_width", "0.04",
         "source.pulse_width '0.04' must be a finite number"),
        (ROUNDTRIP, "params.tau", True, "params.tau True must be a finite number"),
        (ROUNDTRIP, "source.pulse_width", True, "source.pulse_width True must be a finite number"),
        (QR, "noise.delta_list", [], "noise.delta_list must hold at least one level"),
        (SMOOTH, "noise.delta_list", [], "noise.delta_list must hold at least one level"),
        (PROBE, "draws", 0, "draws 0 must be at least 1"),
        (PROBE, "norms.s", math.inf, "norms.s inf must be a finite number"),
        (QR, "norms.s", True, "norms.s True must be a finite number"),
        (SMOOTH, "norms.orti_check", math.inf, "norms.orti_check inf must be a finite number"),
        (QR, "norms.orti_check", True, "norms.orti_check True must be a finite number"),
        (QR, "quasirev.tolerance", "x", "quasirev.tolerance 'x' must be a finite number"),
        (QR, "quasirev.tolerance", -1, "quasirev schedule: tolerance -1.0 must be positive"),
        (QR, "quasirev.tolerance", math.nan, "quasirev.tolerance nan must be a finite number"),
        (QR, "quasirev.tau_max", True, "quasirev.tau_max True must be a finite number"),
        (QR, "noise.delta_list", [True, "1e-3", 1e-4],
         "noise.delta_list entry True must be a finite number"),
        (QR, "noise.delta_list", [1e-2, "1e-3"],
         "noise.delta_list entry '1e-3' must be a finite number"),
        (QR, "noise.delta_list", [math.inf], "noise.delta_list entry inf must be a finite number"),
        (ROUNDTRIP, "domain.robin_gamma", [True, "1.0"],
         "domain.robin_gamma entry True must be a number"),
        (ROUNDTRIP, "domain.lengths", ["3.14159"], "domain.lengths entry '3.14159' must be a number"),
        (QR, "domain.sigma_points", [True], "domain.sigma_points entry True must be a number"),
        (SMOOTH, "domain.robin_gamma", [[1.0, 1.0], [1.0, "x"]],
         "domain.robin_gamma entry 'x' must be a number"),
    ], ids=["tau0-negative", "tau_min-empty-grid", "tau_min-zero", "ratio-one", "ratio-below-one",
            "delta-negative", "cutoff-above-J", "truth-kind", "pulse_width-missing",
            "phi_mode-missing", "draws-not-int", "phi_mode-not-int", "target_cutoff-not-int",
            "truth-mode-not-int", "truth-cutoff-not-int", "du_band-not-int", "oracle-mode",
            "phi_mode-neumann-zero-eigenvalue", "sigma_perturbation-not-number",
            "eta_forward-not-number", "eta_forward-nan", "seed-negative", "qr-seed-negative",
            "qr-seed-zero", "truth-cutoff-negative", "du_band-negative", "du_band-above-M",
            "du_scale-nan", "du_scale-inf", "sigma-mode-value-inf", "eta-mode-value-nan",
            "beta-nan", "sigma0-inf", "omega-nan", "T0-inf", "A-nan", "tau-string", "T-string",
            "T-inf", "amplitude-nan", "amplitude-zero", "pulse_width-string", "tau-bool",
            "pulse_width-bool", "qr-no-levels",
            "smoothing-no-levels", "probe-no-draws", "norms-s-inf", "norms-s-bool",
            "orti_check-inf", "orti_check-bool", "tolerance-string", "tolerance-negative",
            "tolerance-nan", "tau_max-bool", "delta-bool", "delta-string", "delta-inf",
            "gamma-bool", "length-string", "sigma-bool", "rectangle-gamma-string"])
    def test_validate_and_run_agree(self, tmp_path, capsys, base, key, value, message):
        # one-key edits of the shipped scenarios that the run rejects: validate
        # must name the same rule, and both commands fail the same typed way
        bad = _write_variant(tmp_path, base, **{key: value})
        assert any(message in v for v in validate_scenario(load_scenario(bad)))
        assert main(["validate", str(bad)]) == 2
        validate_err = capsys.readouterr().err
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        run_err = capsys.readouterr().err
        assert message in validate_err
        assert run_err == validate_err
        assert "Traceback" not in run_err

    @pytest.mark.parametrize("base, updates, message", [
        (ROUNDTRIP, {"truncation.M": 10},
         "truncation: the fit has 10 rows (M = 10 harmonics x 1 trace points) for 19 unknowns "
         "(J = 16 modes + 3 x 1 remainder columns); it needs M >= 19"),
        (ROUNDTRIP, {"truncation.M": 18}, "it needs M >= 19"),
        (ROUNDTRIP, {"truncation.M": 4, "truncation.J": 4, "domain.sigma_points": [0.0, 3.0]},
         "the fit has 8 rows (M = 4 harmonics x 2 trace points) for 10 unknowns"),
        (QR, {"truncation.M": 10}, "the fit has 10 rows (M = 10 harmonics x 1 trace points) "
         "for 11 unknowns"),
        (small_scenario("qr-sweep", base="smoothing_study", J=4, M=3),
         {"domain.sigma_points": "side:y=0"}, "the fit has 96 rows (M = 3 harmonics x 32 trace "
         "points) for 100 unknowns"),
    ], ids=["roundtrip-M10", "roundtrip-M18", "two-points", "qr-M10", "rectangle-side-M3"])
    def test_underdetermined_fit_exits_2(self, tmp_path, capsys, base, updates, message):
        # a fitting preset with fewer (harmonic, trace point) rows than unknowns
        # has no unique fit: validate and run reject it with one message
        bad = _write_variant(tmp_path, base, **updates)
        assert main(["validate", str(bad)]) == 2
        validate_err = capsys.readouterr().err
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        run_err = capsys.readouterr().err
        assert message in validate_err
        assert run_err == validate_err

    @pytest.mark.parametrize("base, updates", [
        (ROUNDTRIP, {"truncation.M": 19}),
        (ROUNDTRIP, {"truncation.M": 5, "truncation.J": 4, "domain.sigma_points": [0.0, 3.0]}),
        (QR, {"truncation.M": 11}),
        (ROUNDTRIP, {"truncation.M": 10, "preset": "forward-solve"}),
    ], ids=["roundtrip-M19", "two-points-M5", "qr-M11", "forward-does-not-fit"])
    def test_determined_fit_passes_the_rule(self, tmp_path, base, updates):
        # as many rows as unknowns is enough, and a preset that fits nothing is exempt
        ok = _write_variant(tmp_path, base, **updates)
        assert validate_scenario(load_scenario(ok)) == []

    @pytest.mark.parametrize("base, key, value, message", [
        (ROUNDTRIP, "domain.lengths", [math.inf], "domain lengths (inf,) must be finite"),
        (ROUNDTRIP, "domain.lengths", [math.nan], "domain lengths (nan,) must be finite"),
        (SMOOTH, "domain.lengths", [math.pi, math.inf],
         "domain lengths (3.141592653589793, inf) must be finite"),
        (ROUNDTRIP, "domain.robin_gamma", [1.0, math.inf],
         "Robin coefficients (1.0, inf) must be finite"),
        (ROUNDTRIP, "domain.robin_gamma", [math.nan, 1.0],
         "Robin coefficients (nan, 1.0) must be finite"),
        (SMOOTH, "domain.robin_gamma", [[1.0, 1.0], [math.nan, 1.0]],
         "Robin coefficients ((1.0, 1.0), (nan, 1.0)) must be finite"),
        (ROUNDTRIP, "domain.sigma_points", [math.nan], "sigma_points must be finite"),
        (SMOOTH, "domain.sigma_points", [[0.5, 0.0], [math.inf, 0.0]],
         "sigma_points must be finite"),
        (SMOOTH, "domain.lengths", [1e200, 1e-200],
         "rectangle side ratio inf of lengths (1e+200, 1e-200) must be finite and nonzero"),
        (SMOOTH, "domain.lengths", [1e-200, 1e200],
         "rectangle side ratio 0.0 of lengths (1e-200, 1e+200) must be finite and nonzero"),
    ], ids=["length-inf", "length-nan", "rectangle-side-inf", "gamma-inf", "gamma-nan",
            "rectangle-gamma-nan", "sigma-nan", "rectangle-sigma-inf", "side-ratio-overflow",
            "side-ratio-underflow"])
    def test_non_finite_domain_values_exit_2(self, tmp_path, capsys, base, key, value,
                                              message):
        # JSON's Infinity and NaN reach the domain rules, which reject them
        # before any basis is built: both commands exit 2 with one message
        bad = _write_variant(tmp_path, base, **{key: value})
        assert main(["validate", str(bad)]) == 2
        validate_err = capsys.readouterr().err
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        run_err = capsys.readouterr().err
        assert f"domain invalid: {message}" in validate_err
        assert run_err == validate_err

    @pytest.mark.parametrize("base, seed, message", [
        (ROUNDTRIP, -1, "seed -1 must be nonnegative"),
        (QR, 0, "seed 0: the qr-sweep's pilot draws its noise with seed - 1 = -1"),
    ], ids=["negative", "qr-zero"])
    def test_seed_override_checked_like_the_file_seed(self, tmp_path, capsys, base, seed,
                                                      message):
        # the file is valid; the seed the run would use is not, and the run
        # rejects it by the rule validate applies to the file's seed
        assert main(["validate", str(base)]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert main(["run", str(base), "--out", str(out), "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ({"seed": "x"}, "seed 'x' must be an integer"),
        ({"seed": 1.7}, "seed 1.7 must be an integer"),
        ({"truncation": 5}, "truncation must be a JSON object, not int"),
        ({"truncation.J": 8.5}, "truncation.J 8.5 must be an integer"),
        ({"truncation.J": True}, "truncation.J True must be an integer"),
        ({"truncation.M": "24"}, "truncation.M '24' must be an integer"),
        ({"params": 5}, "params must be a JSON object, not int"),
        ({"source": [1]}, "source must be a JSON object, not list"),
        ({"true_fields": 5}, "true_fields must be a JSON object, not int"),
        ({"noise": "x"}, "noise must be a JSON object, not str"),
        ({"quasirev": 5}, "quasirev must be a JSON object, not int"),
        ("[1, 2]", "scenario must be a JSON object, not list"),
        ('{"name": ', "scenario file is not valid JSON"),
        (MISSING, "cannot read scenario file: [Errno 2] No such file or directory"),
        (DIRECTORY, "cannot read scenario file: [Errno 21] Is a directory"),
    ], ids=["seed-str", "seed-fraction", "truncation-int", "J-fraction", "J-bool", "M-str",
            "params-int", "source-list", "true_fields-int", "noise-str", "quasirev-int",
            "top-level-list", "not-json", "missing-path", "directory"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, text, message):
        # a path the loader cannot read as a scenario, a missing one included,
        # fails both commands the same typed way, before any rule is checked
        bad = tmp_path / "scenario.json"
        if isinstance(text, dict):
            _write_variant(tmp_path, ROUNDTRIP, **text)
        elif text is DIRECTORY:
            bad.mkdir()
        elif text is not MISSING:
            bad.write_text(text)
        assert main(["validate", str(bad)]) == 2
        validate_err = capsys.readouterr().err
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        run_err = capsys.readouterr().err
        assert message in validate_err
        assert run_err == validate_err
        assert "Traceback" not in run_err


class TestRun:
    def test_roundtrip_preset(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", str(ROUNDTRIP), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["max_rel_coeff_error"] <= 1e-12
        assert math.isfinite(manifest["fit_cond"])
        assert (out / "reconstruction.csv").exists()

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = _write_variant(tmp_path, ROUNDTRIP, **{"params.A": 1.0})
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2

    def test_overflowing_robin_coefficients_exit_3_without_warning(self, tmp_path, capsys):
        raw = small_scenario("basis-report")
        raw["domain"]["robin_gamma"] = [1e200, 1e200]
        path = _write_variant(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert ("Robin wavenumbers on [0, 3.141592653589793] with gamma (1e+200, 1e+200): "
                "the Newton slope overflows") in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        # every file either run writes, so an added or dropped artifact is covered
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(ROUNDTRIP), "--out", str(out1)]) == 0
        assert main(["run", str(ROUNDTRIP), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        assert {"reconstruction.csv", "manifest.json"} <= set(names)
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_override_changes_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(ROUNDTRIP), "--out", str(out1)]) == 0
        assert main(["run", str(ROUNDTRIP), "--out", str(out2), "--seed", "77"]) == 0
        assert (out1 / "reconstruction.csv").read_bytes() != (out2 / "reconstruction.csv").read_bytes()

    def test_rows_carry_scenario_hash(self, tmp_path):
        out = tmp_path / "out"
        main(["run", str(ROUNDTRIP), "--out", str(out)])
        sc = load_scenario(ROUNDTRIP)
        h = scenario_hash(sc)
        lines = (out / "reconstruction.csv").read_text().splitlines()
        assert all(line.endswith(h) for line in lines[1:])

    def test_qr_sweep_preset(self, tmp_path):
        out = tmp_path / "qr"
        assert main(["run", str(QR), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["all_ok"] and manifest["errors_decreasing"]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith(
            "delta,tau,error_x,bound,cbar,ctilde,status,fit_rel_residual,fit_cond,")
        assert len(lines) == 4
        # data at tau 0, fits at tau >= 0.1: the residual reads 1.6e-5, 1.3e-6
        # and 1.8e-7 down the noise levels, far above roundoff
        with open(out / "sweep.csv", newline="") as f:
            rel = [float(r["fit_rel_residual"]) for r in csv.DictReader(f)]
        assert all(1e-7 <= x <= 1e-4 for x in rel) and rel[0] > rel[1] > rel[2]
        # each row's fit design is factored at its own tau; the condition
        # numbers read 1.7e3, 1.9e3 and 2.3e3, growing as tau falls
        with open(out / "sweep.csv", newline="") as f:
            cond = [float(r["fit_cond"]) for r in csv.DictReader(f)]
        assert all(1e3 <= c <= 1e4 for c in cond) and cond[0] < cond[1] < cond[2]

    def test_qr_sweep_with_tau_max_at_sigma0_beta(self, tmp_path, capsys):
        # tau_max = sigma0 beta = 1 is admissible; with grid ratio sqrt(10) the
        # geometric top 0.1 sqrt(10)^2 rounds to 1.0000000000000002, which the
        # grid must not reach
        ok = _write_variant(tmp_path, QR, **{"quasirev.tau_max": 1.0,
                                              "quasirev.grid_ratio": 10**0.5})
        assert main(["validate", str(ok)]) == 0
        out = tmp_path / "o"
        assert main(["run", str(ok), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3 and all(r["status"] == "ok" for r in rows)
        assert all(0.1 <= float(r["tau"]) <= 1.0 for r in rows)

    def test_qr_sweep_manifest_agrees_with_rows(self, tmp_path):
        # several of these seeds put sweep rows above the calibrated bound
        over_seen = 0
        for seed in range(1, 9):
            out = tmp_path / f"qr{seed}"
            assert main(["run", str(QR), "--out", str(out), "--seed", str(seed)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            with open(out / "sweep.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            over = sum(1 for r in rows if math.isfinite(float(r["error_x"]))
                       and not float(r["error_x"]) <= float(r["bound"]))
            assert manifest["rows"] == len(rows)
            assert manifest["rows_over_bound"] == over, seed
            assert manifest["all_ok"] == (over == 0 and all(r["status"] == "ok" for r in rows)), seed
            over_seen += over
        assert over_seen > 0

    def test_smoothing_preset(self, tmp_path):
        out = tmp_path / "sm"
        assert main(["run", str(SMOOTH), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors_decreasing"]

    def test_basis_pole_forward_stability_presets(self, tmp_path):
        for preset, extra in (("basis-report", {}), ("pole-report", {}),
                              ("forward-solve", {}), ("stability-probe", {"draws": 10})):
            raw = json.loads(ROUNDTRIP.read_text())
            raw["preset"] = preset
            raw["truncation"] = {"J": 8, "M": 16}
            raw.update(extra)
            path = tmp_path / f"{preset}.json"
            path.write_text(json.dumps(raw))
            out = tmp_path / preset
            assert main(["run", str(path), "--out", str(out)]) == 0, preset
        probe = json.loads((tmp_path / "stability-probe" / "manifest.json").read_text())
        assert probe["min_slack"] >= -1e-10


@pytest.mark.parametrize("tau, missing", [(0.5, []), (0.05, [2])])
def test_stability_manifest_flags_failed_estimate(tmp_path, tau, missing):
    # at tau 0.05 mode 2 has no admissible pole: the slack over the other
    # modes stays positive, and the manifest still marks the estimate failed
    path = _write_variant(tmp_path, PROBE, **{"params.tau": tau})
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["min_slack"] > 0
    assert manifest["modes_without_pole"] == missing
    assert manifest["estimate_holds"] is (not missing)


def test_inadmissible_slowness_is_numerical_failure(tmp_path, capsys):
    path = tmp_path / "forward.json"
    path.write_text(json.dumps(small_scenario("forward-solve", sigma_perturbation=2.0)))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "sigma(x)*beta >= tau fails" in capsys.readouterr().err


def test_resonant_roundtrip_is_numerical_failure(tmp_path, capsys):
    # Neumann ends put lambda_1 = 1 on the resonance sigma0 m^2 omega^2 at m = 1, alpha = 0;
    # every division by the harmonic symbols (the fit's design, the image norms) trips
    for preset, extra in (("linearized-roundtrip", {}), ("stability-probe", {"draws": 2})):
        raw = small_scenario(preset, J=4, M=16, **extra)
        raw["domain"]["robin_gamma"] = [0.0, 0.0]
        raw["params"].update(tau=1.0, omega=1.0, sigma0=1.0, beta=1.0, T0=math.pi)
        raw["source"]["phi_mode"] = 1
        path = tmp_path / "resonant.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3, extra
        assert "resonant harmonic symbol at (m=1, j=1)" in capsys.readouterr().err, extra


def test_ill_conditioned_fit_is_numerical_failure(tmp_path, capsys):
    # the shipped J = 16, M = 64 round trip at tau 0.02: the fit's design has
    # condition number ~1e16, above FIT_COND_LIMIT
    path = _write_variant(tmp_path, ROUNDTRIP, **{"params.tau": 0.02})
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in preset 'linearized-roundtrip': "
                          "fit design condition number ")
    assert err.rstrip().endswith(" exceeds limit") and "residue" not in err


def test_missing_key_is_validation_failure(tmp_path):
    raw = json.loads(ROUNDTRIP.read_text())
    del raw["params"]["omega"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
