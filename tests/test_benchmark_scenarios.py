"""The benchmark's scenarios stay valid, and its forward op stays cheap.

Every op that `perfbench/workloads.py` generates (the warm-up op, units of
each workload and the known-defect ops) must pass `validate_scenario`, so a
change to the scenario vocabulary cannot break the benchmark unnoticed.  The
nonlinear-forward op's count of eta-term evaluations is a timing-free guard
on its cost.  The module is loaded from its file, as it is; perfbench is not
a package.
"""

import importlib.util
import json
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

import harmtomo.forward as fw
from harmtomo.runner import run_preset
from harmtomo.scenarios import load_scenario, validate_scenario

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
