import copy
import csv
import json
import math
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
        ("draws", -1, "draws -1 must be nonnegative"),
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
    ], ids=["tau0-negative", "tau_min-empty-grid", "tau_min-zero", "ratio-one", "ratio-below-one",
            "delta-negative", "cutoff-above-J", "truth-kind", "pulse_width-missing",
            "phi_mode-missing", "draws-not-int", "phi_mode-not-int", "target_cutoff-not-int",
            "truth-mode-not-int", "truth-cutoff-not-int", "du_band-not-int", "oracle-mode",
            "phi_mode-neumann-zero-eigenvalue", "sigma_perturbation-not-number",
            "eta_forward-not-number", "eta_forward-nan"])
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
        assert lines[0].startswith("delta,tau,error_x,bound,cbar,ctilde,status")
        assert len(lines) == 4

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


def test_missing_key_is_validation_failure(tmp_path):
    raw = json.loads(ROUNDTRIP.read_text())
    del raw["params"]["omega"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
