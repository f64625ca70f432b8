"""One benchmark worker process: set up, then run ops in a closed loop.

Started by ``run.py`` as a fresh interpreter with BLAS threads pinned to 1.
Set-up is everything from process start to the first timed op: imports,
generating inputs and one untimed warm-up op.  The worker then runs whole
units of ops until its time budget is spent, checks every op's artifacts,
and prints one JSON record as its last line of output.

The host's speed drifts by tens of percent over minutes on shared
machines, so a fixed reference kernel runs after every op; each op
records the median reference time around it, set-up the median of
five taken right after it, and ``run.py`` scales timings by them.

With ``--trace 1`` each op runs twice with the same scenario, first
untraced and then traced, so the tracing overhead is measured on identical
work; only the traced run's spans and checks are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import workloads


def _import_harmtomo(root: Path):
    sys.path.insert(0, str(root / "src"))
    import harmtomo
    from harmtomo import runner, scenarios

    src = Path(harmtomo.__file__).resolve().parent
    if src != (root / "src" / "harmtomo").resolve():
        raise SystemExit(f"harmtomo imported from {src}, not from the checkout under test")
    return runner, scenarios


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class HostProbe:
    """Fixed host-speed reference: small complex solves, a dense product,
    tiny-array numpy calls and scalar complex arithmetic, the mix the presets
    spend their time in."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        self.g = rng.standard_normal((64, 200))
        self.z = 0.01j * np.arange(1, 25)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        s = 0j
        for k in range(100):
            np.linalg.solve(self.a, self.a[:, k % 24])
            self.g.T @ self.g[:, :16]
            s += (np.exp(-self.z * k) / (self.z + 1.0)).sum() + np.abs(self.z).max()
            for j in range(40):
                s += complex(j, k) / (1 + j)
        return time.perf_counter() - t0


def _tree_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class OpRunner:
    """Executes one scenario dict through load_scenario and run_preset."""

    def __init__(self, runner, scenarios, work: Path):
        self.runner, self.scenarios, self.work = runner, scenarios, work

    def execute(self, sc: dict, wrap=None) -> dict:
        """Run, time and check one op; ``wrap(fn)`` runs the timed call."""
        path, out = self.work / "scenario.json", str(self.work / "out")
        path.write_text(json.dumps(sc))
        shutil.rmtree(out, ignore_errors=True)

        def call():
            return self.runner.run_preset(self.scenarios.load_scenario(path), out_dir=out)

        error = None
        t0 = time.perf_counter()
        try:
            (wrap or (lambda fn: fn()))(call)
        except Exception as exc:  # any failure of the op counts; record its class
            error = type(exc).__name__
        latency = time.perf_counter() - t0
        if error is None:
            reason = checks.check_op(sc["preset"], out)
            error = None if reason is None else f"check: {reason}"
        nbytes = _tree_bytes(out) if os.path.isdir(out) else 0
        shutil.rmtree(out, ignore_errors=True)
        return {"name": sc["name"], "latency_s": latency, "error": error, "bytes": nbytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worker", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() in the parent just before this process was started")
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    root, work = Path(args.root), Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    runner, scenarios = _import_harmtomo(root)
    ops = OpRunner(runner, scenarios, work)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    warm = ops.execute(workloads.warmup_op(args.workload))
    setup_s = time.monotonic() - args.t_spawn

    probe = HostProbe()
    setup_refs = [probe() for _ in range(5)]
    refs = setup_refs[-1:]
    results, untraced_s = [], 0.0
    start = time.perf_counter()
    for unit in workloads.unit_stream(args.workload, args.seed, args.worker):
        if time.perf_counter() - start >= args.seconds:
            break
        for sc in unit:
            if tracer is None:
                results.append(ops.execute(sc))
            else:
                untraced_s += ops.execute(sc)["latency_s"]
                tracer.enabled = True
                op_id = len(results)
                results.append(ops.execute(sc, wrap=lambda fn: tracer.run_op(op_id, fn)))
                tracer.enabled = False
            refs.append(probe())
    # The host's speed swings within tens of milliseconds, so a probe follows
    # every op.  A single probe jitters by several percent; the median of the
    # probes within two ops either side follows the swings without the jitter.
    for i, op in enumerate(results):
        op["ref_s"] = statistics.median(refs[max(0, i - 2):i + 4])

    record = {
        "worker": args.worker,
        "setup_s": setup_s,
        "ref_s": statistics.median(setup_refs),
        "warmup_error": warm["error"],
        "ops": results,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(),
    }
    if args.worker == 0:  # once per run, after timing and the RSS reading
        record["known_defects"] = [
            {k: op[k] for k in ("name", "error")}
            for op in map(ops.execute, workloads.known_defect_ops(args.workload, args.seed))]
    if tracer is not None:
        record["trace"] = {**tracer.totals(), "untraced_op_s": untraced_s,
                           "missing": tracer.missing, "hook_errors": sorted(tracer.hook_errors)}
        if args.trace_out:
            np.savez_compressed(args.trace_out, **tracer.arrays())
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
