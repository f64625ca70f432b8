"""Benchmark entry point: one workload, one closed-loop client.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a checkout and measures the harmtomo sources under
``src/``.  End-to-end timings are scaled to a reference host speed (see
REF_NOMINAL_S); the unscaled figures are printed in the detail line.  The run is split over WORKERS fresh worker processes started one
after another, so set-up (process start to first timed op) is measured once
per worker and reported as the median; each worker gets an equal share of
the measuring time.  Every op is one ``harmtomo.runner.run_preset`` call on
a scenario file generated from ``--seed`` and is checked against its
artifacts.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from the span trace.  Human-readable lines come first; the last
line of standard output is the JSON result.  A copy of the result with the
environment record goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import LAYERS, OP_SPAN

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKERS = 3
WORKER_TIMEOUT_S = 55.0
TAIL_BEYOND = 10
# About the time of worker.HostProbe on the 2-vCPU Xeon host the bounds were
# set on, when that host ran at full speed.
# Timings are reported as if measured at that host speed: each op's latency
# is multiplied by REF_NOMINAL_S / (probe time around the op).
REF_NOMINAL_S = 4e-3
NUMBER = re.compile(r"[-+]?\d[\d.]*(e[-+]?\d+)?")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def tail_percentile(values):
    """Highest percentile with at least TAIL_BEYOND values above its
    nearest-rank value; (percentile, value).  Fewer values give the maximum.

    The percentile is not rounded to a whole number: the count beyond stays
    TAIL_BEYOND whatever the op count, where a whole percentile would jump
    (p98 for 999 ops, p99 for 1000)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def end_to_end(records):
    """End-to-end metrics; timings are scaled to the reference host speed."""
    ops = [op for r in records for op in r["ops"]]
    lat = [op["latency_s"] * REF_NOMINAL_S / op["ref_s"] for op in ops]
    raw = [op["latency_s"] for op in ops]
    failed = sum(1 for op in ops if op["error"] is not None)
    p, tail = tail_percentile(lat)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * REF_NOMINAL_S / r["ref_s"] for r in records),
        "ops_per_s": (len(ops) - failed) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": max(r["peak_rss_mib"] for r in records),
    }
    notes = {"op_tail_ms": f"p{p:.4g} of {len(ops)} ops, {TAIL_BEYOND if p < 100 else 0} beyond",
             "failed_frac": failed / len(ops),
             "setup_s": f"median of {len(records)} worker set-ups",
             "unscaled": {"setup_s": statistics.median(r["setup_s"] for r in records),
                          "ops_per_s": (len(ops) - failed) / sum(raw),
                          "op_p50_ms": 1e3 * statistics.median(raw),
                          "op_tail_ms": 1e3 * tail_percentile(raw)[1],
                          "host_speed": REF_NOMINAL_S / statistics.median(r["ref_s"] for r in records)}}
    return metrics, notes, len(ops), failed


def _layer(tr, layer, key):
    return sum(tr[key].get(f"{m}.{f}", 0) for m, f in LAYERS[layer])


def per_layer(records):
    """Per-op layer metrics from the merged span totals of all workers."""
    tr = {"calls": {}, "self_s": {}, "raised": {}}
    for r in records:
        for key, value in r["trace"].items():
            if isinstance(value, dict):
                for name, v in value.items():
                    tr[key][name] = tr[key].get(name, 0) + v
            elif isinstance(value, (int, float)):
                tr[key] = tr.get(key, 0) + value
    n = tr["ops"]
    ops = [op for r in records for op in r["ops"]]

    def calls(layer):
        return _layer(tr, layer, "calls") / n

    def self_s(layer):
        return _layer(tr, layer, "self_s") / n

    solves = _layer(tr, "forward.solve", "calls")
    bm_self = _layer(tr, "forward.bm", "self_s")
    m = {
        "eigenbasis.build_self_s": self_s("eigenbasis.build"),
        "eigenbasis.project_synth_calls": calls("eigenbasis.project_synth"),
        "eigenbasis.project_synth_self_s": self_s("eigenbasis.project_synth"),
        "forward.solve_calls": calls("forward.solve"),
        "forward.solve_self_s": self_s("forward.solve"),
        "forward.damping_retries": tr["forward.damping_retries"] / n,
        "forward.bm_calls": calls("forward.bm"),
        "forward.bm_per_solve": (tr["forward.bm_in_solve"] / (solves - tr["forward.damping_retries"])
                                 if solves else 0.0),
        "forward.bm_self_s": self_s("forward.bm"),
        "forward.bm_eff_gbs": tr["forward.bm_bytes"] / bm_self / 1e9 if bm_self else 0.0,
        "forward.residual_self_s": self_s("forward.residual"),
        "forward.hprod_calls": calls("forward.hprod"),
        "forward.hprod_self_s": self_s("forward.hprod"),
        "sources.pulse_self_s": self_s("sources.pulse"),
        "sources.amod_self_s": self_s("sources.amod"),
        "sources.interp_calls": calls("sources.interp"),
        "sources.interp_self_s": self_s("sources.interp"),
        "sources.mtilde_calls": calls("sources.mtilde"),
        "sources.mtilde_self_s": self_s("sources.mtilde"),
        "poles.build_calls": calls("poles.build"),
        "poles.build_self_s": self_s("poles.build"),
        "poles.ok_frac": tr["poles.ok"] / tr["poles.modes"] if tr["poles.modes"] else 0.0,
        "reconstruct.linfwd_self_s": self_s("reconstruct.linfwd"),
        "reconstruct.oracle_calls": calls("reconstruct.oracle"),
        "reconstruct.oracle_self_s": self_s("reconstruct.oracle"),
        "reconstruct.fit_calls": calls("reconstruct.fit"),
        "reconstruct.fit_self_s": self_s("reconstruct.fit"),
        "reconstruct.fit_failures": _layer(tr, "reconstruct.fit", "raised") / n,
        "reconstruct.recover_self_s": self_s("reconstruct.recover"),
        "norms.calls": calls("norms.x") + calls("norms.yobs") + calls("norms.ymod"),
        "norms.x_self_s": self_s("norms.x"),
        "norms.yobs_self_s": self_s("norms.yobs"),
        "norms.ymod_self_s": self_s("norms.ymod"),
        "quasirev.sweep_self_s": self_s("quasirev.sweep"),
        "quasirev.noise_self_s": self_s("quasirev.noise"),
        "quasirev.choose_tau_self_s": self_s("quasirev.choose_tau"),
        "quasirev.smooth_self_s": self_s("quasirev.smooth"),
        "quasirev.sweep_rows_failed": tr["quasirev.sweep_rows_failed"] / n,
        "scenarios.self_s": self_s("scenarios"),
        "runner.preset_self_s": self_s("runner.preset"),
        "runner.write_self_s": self_s("runner.write"),
        "runner.artifact_bytes": sum(op["bytes"] for op in ops) / len(ops),
        "trace.overhead_frac": sum(op["latency_s"] for op in ops) / tr["untraced_op_s"] - 1.0,
        "trace.coverage_frac": 1.0 - (tr["self_s"].get("runner.run_preset", 0.0)
                                      + tr["self_s"][OP_SPAN]) / tr["op_wall_s"],
    }
    groups = {"bench": tr["self_s"][OP_SPAN]}
    for layer in LAYERS:
        group = layer.split(".")[0]
        groups[group] = groups.get(group, 0.0) + _layer(tr, layer, "self_s")
    total = sum(groups.values())
    notes = {
        "forward.bm_eff_gbs": "computed: minimum input+output bytes / self time",
        "self_time_share": {g: round(s / total, 4) for g, s in sorted(groups.items(), key=lambda kv: -kv[1])},
        "largest_self_s": max((k for k in m if k.endswith("self_s")), key=m.get),
        "spans": tr["spans"],
        "traced_ops": n,
        "missing": sorted({name for r in records for name in r["trace"]["missing"]}),
        "hook_errors": sorted({name for r in records for name in r["trace"]["hook_errors"]}),
    }
    return m, notes


def _git_commit():
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "harmtomo").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_workers(args, run_dir: Path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in THREAD_VARS})
    records = []
    for k in range(WORKERS):
        cmd = [sys.executable, "-B", str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--worker", str(k), "--seconds", str(args.seconds / WORKERS),
               "--trace", str(args.trace), "--root", str(ROOT), "--work", str(run_dir / f"w{k}")]
        if args.trace:
            cmd += ["--trace-out", str(run_dir / f"spans-w{k}.npz")]
        t_spawn = time.monotonic()
        cmd += ["--t-spawn", repr(t_spawn)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker {k} killed after {WORKER_TIMEOUT_S:g} s")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"worker {k} exited with code {proc.returncode}")
        records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "harmtomo" / "__init__.py").is_file():
        print(f"no harmtomo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    records = run_workers(args, run_dir)
    metrics, notes, attempted, failed = end_to_end(records)
    if args.trace:
        metrics, notes = per_layer(records)
    bad_warmups = [r["warmup_error"] for r in records if r["warmup_error"] is not None]
    failures = Counter(f"{op['name']}: {NUMBER.sub('#', op['error'])}"
                       for r in records for op in r["ops"] if op["error"])
    defects = [op for r in records for op in r.get("known_defects", [])]

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "workers": WORKERS, "clients": 1, "loop": "closed",
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "git_commit": _git_commit(), "src_sha256": _src_sha256(),
        **records[0]["env"],
        "failures": dict(sorted(failures.items())),
        "warmup_failures": bad_warmups,
        "known_defects": {op["name"]: op["error"] or "ok" for op in defects},
        "notes": notes,
    }
    if not args.trace:
        print(f"failed_frac {failed / attempted:.6g} frac  ({failed} of {attempted} ops)")
    if defects:
        print(f"known defects (untimed, not counted): {sum(op['error'] is not None for op in defects)} "
              f"of {len(defects)} ops fail")
    for name, unit in units.items():
        note = notes.get(name)
        print(f"{name} {metrics[name]:.6g} {unit}" + (f"  ({note})" if isinstance(note, str) else ""))
    print(json.dumps(detail, sort_keys=True))
    result = {
        # Every op was checked: wrong outputs and exceptions are counted in
        # `failed`, and the workloads hold only ops that are meant to succeed.
        "correct": not bad_warmups and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (run_dir / "result.json").write_text(json.dumps({**result, "detail": detail}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
