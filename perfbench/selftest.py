"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

1. Smoke: every workload in BENCHMARK.json, in both trace modes, with a
   one-second run; every metric the mode owes must be printed by name with
   its unit, and the last line must be the result object.
2. Injection: a NaN written into a copied artifact, and stub presets that
   raise, must each count as a failed op in ``failed_frac``.
3. A directory holding only BENCHMARK.json and the benchmark must make the
   benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int, seconds: float = 1.0):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke() -> None:
    for w in SPEC["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, w["name"], trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1
            owed = {m["name"]: m["unit"] for m in SPEC[group]}
            assert set(result["metrics"]) == set(owed), set(result["metrics"]) ^ set(owed)
            for name, unit in owed.items():
                assert result["metrics"][name]["unit"] == unit, name
                assert math.isfinite(result["metrics"][name]["value"]), name
                assert any(ln.startswith(f"{name} ") and ln.split()[2] == unit for ln in lines[:-1]), \
                    f"{name} not printed with unit {unit}"
            print(f"smoke {w['name']} trace={trace}: {len(owed)} metrics ok")


def injection() -> None:
    runner, scenarios = worker._import_harmtomo(ROOT)
    from harmtomo.errors import ConvergenceError

    work = run.OUT / "selftest"
    sc = workloads.warmup_op("stability-draws")

    def nan_in_copy(scenario, out_dir):
        manifest = runner.run_preset(scenario, out_dir=out_dir)
        table = Path(out_dir) / "stability.csv"
        shutil.copy(table, work / "stability.orig.csv")
        head, *rows = (work / "stability.orig.csv").read_text().splitlines()
        rows[0] = ",".join(["0", "nan"] + rows[0].split(",")[2:])
        table.write_text("\n".join([head, *rows]) + "\n")
        return manifest

    def raise_untyped(scenario, out_dir):
        raise ValueError("stub preset")

    def raise_typed(scenario, out_dir):
        raise ConvergenceError("stub preset")

    work.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for stub in (runner.run_preset, nan_in_copy, raise_untyped, raise_typed):
        ops = worker.OpRunner(types.SimpleNamespace(run_preset=stub), scenarios, work)
        outcomes.append(ops.execute(sc))
    shutil.rmtree(work)
    errors = [o["error"] for o in outcomes]
    assert errors[0] is None, errors
    assert errors[1].startswith("check: 1 of 20 draws non-finite"), errors
    assert errors[2:] == ["ValueError", "ConvergenceError"], errors

    for o in outcomes:
        o["ref_s"] = run.REF_NOMINAL_S
    records = [{"setup_s": 1.0, "ref_s": run.REF_NOMINAL_S, "ops": outcomes, "peak_rss_mib": 1.0}]
    metrics, notes, attempted, failed = run.end_to_end(records)
    assert (attempted, failed) == (4, 3) and notes["failed_frac"] == 0.75, (attempted, failed)
    print("injection: NaN artifact and raising presets counted in failed_frac 0.75")


def bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare, "stability-draws", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print(f"bare directory: exit code {proc.returncode}, no result printed")


if __name__ == "__main__":
    smoke()
    injection()
    bare_directory()
    print("selftest ok")
