"""The benchmark's scenarios stay valid, and its forward op stays cheap.

Every op that `perfbench/workloads.py` generates (the warm-up op, units of
each workload and the known-defect ops) must pass `validate_scenario`, so a
change to the scenario vocabulary cannot break the benchmark unnoticed.  The
nonlinear-forward op's count of eta-term evaluations is a timing-free guard
on its cost.  The stability op's norms and condition number are checked
against the oracle path.  The module is loaded from its file, as it is;
perfbench is not a package.
"""

import csv
import importlib.util
import json
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import harmtomo.forward as fw
import oracles
from harmtomo.poles import build_pole_set
from harmtomo.reconstruct import LinearizedInput, linearized_forward
from harmtomo.runner import run_preset
from harmtomo.scenarios import (load_scenario, make_basis, make_norm_spec, make_params,
                                make_reference, make_true_fields, validate_scenario)
from harmtomo.sources import interp_kernels, mtilde_from_kernels

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
UNITS = 3


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_ops_validate(name, tmp_path):
    ops = [workloads.warmup_op(name)]
    for unit in islice(workloads.unit_stream(name, seed=1, worker=0), UNITS):
        ops.extend(unit)
    ops.extend(workloads.known_defect_ops(name, seed=1))
    for k, op in enumerate(ops):
        path = tmp_path / f"op{k}.json"
        path.write_text(json.dumps(op))
        assert validate_scenario(load_scenario(path)) == [], op["name"]


# sweeps per source the forward op may take at either end of its eta range,
# plus one residual check per source
MAX_FORWARD_SWEEPS = 5


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("end", [0, 1], ids=["eta-low", "eta-high"])
def test_forward_op_eta_term_evaluations(end, seed, tmp_path, monkeypatch):
    # the eta term (one FFT pair and two grid products per member) is most of
    # a solve, so its count per source bounds the op's cost without a clock
    members = []
    real_eta_term = fw.eta_term

    def counting(cmap, u):
        members.append(int(np.prod(u.shape[:-2])))
        return real_eta_term(cmap, u)

    monkeypatch.setattr(fw, "eta_term", counting)
    op, = workloads.WORKLOADS["nonlinear-forward"](np.random.default_rng(seed))
    op["source"]["eta_forward"] = workloads.ETA_FORWARD_RANGE[end]
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    manifest = run_preset(load_scenario(path), out_dir=str(tmp_path / "out"))
    assert op["truncation"] == {"J": 16, "M": 64}
    assert len(manifest["solver_sweeps"]) == 2 and manifest["damping_restarts"] == 0
    assert sum(members) == sum(manifest["solver_sweeps"]) + 2
    assert sum(members) <= 2 * (MAX_FORWARD_SWEEPS + 1)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stability_op_matches_oracle_path(seed, tmp_path):
    # the benchmark's stability op as it is: its image norms are those of the
    # oracle's image terms and, draw by draw, of the per-pole loops, which
    # share no code with norms._image_terms; max_mtilde_cond is the largest
    # condition number of Mtilde built from the kernels at the admissible poles
    path = tmp_path / "op.json"
    path.write_text(json.dumps(workloads._STABILITY))
    sc = load_scenario(path)
    out = tmp_path / "out"
    run_preset(sc, out_dir=str(out), seed=seed)
    manifest = json.loads((out / "manifest.json").read_text())
    params, basis = make_params(sc), make_basis(sc)
    sp = make_reference(sc, basis, params)
    pole_set = build_pole_set(basis.lambdas, params)
    truth = make_true_fields(sc, basis, np.random.default_rng(seed), draws=sc.draws)
    data = linearized_forward(sp, params, basis, truth)
    spec = make_norm_spec(sc)
    terms = oracles.image_terms(truth.a, data.rhat, spec, sp, pole_set, basis, params)
    with open(out / "stability.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == sc.draws
    loops = []
    for k in range(sc.draws):
        lin = LinearizedInput(a=truth.a[k], du=truth.du[k])
        res = oracles.oracle_residues_loop(lin, data.rhat[k], pole_set, sp, basis, params)
        loops.append((oracles.yobs_terms_loop(res, spec, sp, pole_set, basis, params, M=sc.M),
                      oracles.ymod_terms_loop(data.rhat[k], spec, sp, pole_set, basis, params)))
    for i, (key, (t1, t2)) in enumerate(zip(("yobs_norm", "ymod_norm"), terms)):
        got = np.array([float(r[key]) for r in rows])
        for ref in (np.sqrt(t1 + t2), np.sqrt([sum(draw[i]) for draw in loops])):
            assert np.max(np.abs(got - ref) / ref) <= 1e-13, key
    kp, km, k0 = interp_kernels(pole_set.poles[pole_set.ok], 2 * sp.M, params.omega)
    cond = np.linalg.cond(mtilde_from_kernels(sp, kp, km, k0))
    assert manifest["max_mtilde_cond"] == float(np.max(cond))


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_qr_sweep_op_batched_passes(seed, tmp_path, monkeypatch):
    # the ladder's qr-sweep op (the shipped sweep) computes its pilot and its
    # three levels in batched passes: one stacked SVD over its three distinct
    # taus, one fit per tau, and two observation-norm passes (scale and check)
    # for the whole noise draw; counts that bound its cost without a clock
    counts = dict.fromkeys(("svd", "fit", "ytilde"), 0)

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    rc = importlib.import_module("harmtomo.reconstruct")
    qr = importlib.import_module("harmtomo.quasirev")
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    monkeypatch.setattr(rc, "fit_coefficients", counting("fit", rc.fit_coefficients))
    monkeypatch.setattr(qr, "ytilde_obs_norm", counting("ytilde", qr.ytilde_obs_norm))
    op, = (op for op in workloads.WORKLOADS["inversion-ladder"](np.random.default_rng(0))
           if op["preset"] == "qr-sweep")
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op))
    run_preset(load_scenario(path), out_dir=str(tmp_path / "out"), seed=seed)
    with open(tmp_path / "out" / "sweep.csv", newline="") as f:
        taus = {r["tau"] for r in csv.DictReader(f)}
    assert len(taus) == 3   # three levels at three taus; the pilot takes the first one's
    assert counts == {"svd": 1, "fit": 3, "ytilde": 2}
