"""The benchmark's scenarios stay valid.

Every op that `perfbench/workloads.py` generates (the warm-up op, units of
each workload and the known-defect ops) must pass `validate_scenario`, so a
change to the scenario vocabulary cannot break the benchmark unnoticed.  The
module is loaded from its file, as it is; perfbench is not a package.
"""

import importlib.util
import json
from itertools import islice
from pathlib import Path

import pytest

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
