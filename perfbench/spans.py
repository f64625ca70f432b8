"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps public ``(module, function)`` pairs of harmtomo in
every harmtomo module namespace that binds them, so calls made through
``from .x import f`` are seen as well as ``x.f``.  Each call records a span
(name, start, end, parent span, op id) in flat arrays; self times are
derived from the spans afterwards.  Pairs that no longer exist are skipped
and listed in ``Tracer.missing``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Per-layer metric prefix -> the harmtomo functions whose spans make up that layer.
LAYERS = {
    "eigenbasis.build": [("eigenbasis", "build_interval_basis"),
                         ("eigenbasis", "build_rectangle_basis")],
    "eigenbasis.project_synth": [("eigenbasis", "project"), ("eigenbasis", "synthesize")],
    "forward.solve": [("forward", "solve_multiharmonic")],
    "forward.bm": [("forward", "convolve_bm_grid")],
    "forward.residual": [("forward", "model_residual")],
    "forward.hprod": [("forward", "harmonic_product_time"), ("forward", "product_dc_time")],
    "sources.pulse": [("sources", "design_delta_pulse")],
    "sources.amod": [("sources", "amplitude_modulate")],
    "sources.interp": [("sources", "interp_periodic")],
    "sources.mtilde": [("sources", "evaluate_mtilde"), ("sources", "invert_mtilde")],
    "poles.build": [("poles", "build_pole_set")],
    "reconstruct.linfwd": [("reconstruct", "linearized_forward")],
    "reconstruct.oracle": [("reconstruct", "oracle_residues")],
    "reconstruct.fit": [("reconstruct", "fit_residues")],
    "reconstruct.recover": [("reconstruct", "recover_coefficients"),
                            ("reconstruct", "solve_states_from_coeffs")],
    "norms.x": [("norms", "x_norm")],
    "norms.yobs": [("norms", "yobs_norm")],
    "norms.ymod": [("norms", "ymod_norm")],
    "quasirev.sweep": [("quasirev", "run_sweep")],
    "quasirev.noise": [("quasirev", "add_noise")],
    "quasirev.choose_tau": [("quasirev", "choose_tau")],
    "quasirev.smooth": [("quasirev", "smooth_data")],
    "scenarios": [("scenarios", f) for f in (
        "load_scenario", "validate_scenario", "scenario_hash", "make_params", "make_norm_spec",
        "make_basis", "make_reference", "make_true_fields", "min_symbol_magnitude")],
    "runner.preset": [("runner", "run_preset")],
    "runner.write": [("eigenbasis", "basis_to_csv"), ("fields", "harmonic_field_to_csv"),
                     ("poles", "pole_table_csv"), ("reconstruct", "result_to_csv"),
                     ("quasirev", "sweep_to_csv"), ("sources", "source_pair_to_csv")],
}

OP_SPAN = "bench.op"


def _bm_bytes(args, kwargs):
    """Minimum bytes convolve_bm_grid must move: both coefficient inputs (one
    if they are the same array), the basis synthesis matrix, and the grid
    output of every requested harmonic."""
    basis, u, v = args[:3]
    u, v = np.asarray(u), np.asarray(v)
    m_out = kwargs.get("m_out", args[3] if len(args) > 3 else None) or u.shape[0]
    inputs = u.nbytes + (0 if v is u else v.nbytes) + basis.phi.nbytes
    return inputs + 16 * m_out * basis.nquad


class Tracer:
    """Records spans of wrapped calls while ``enabled`` is set."""

    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.nid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = False
        self.missing: list[str] = []
        self.hook_errors: set[str] = set()
        self.counts = {"poles.modes": 0, "poles.ok": 0, "forward.bm_bytes": 0,
                       "quasirev.sweep_rows_failed": 0}

    # -- recording --------------------------------------------------------
    def _open(self, nid: int) -> int:
        i = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int, raised: bool) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()
        self.raised[i] = raised

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` as one op: an op-level span with the given id."""
        self.op_id = op_id
        i = self._open(0)
        raised = True
        try:
            result = fn()
            raised = False
            return result
        finally:
            self._close(i, raised)
            self.op_id = -1

    def _wrap(self, nid: int, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._open(nid)
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                self._close(i, raised)
            if on_result is not None:
                try:
                    on_result(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    # A changed signature or result type must not fail the op.
                    self.hook_errors.add(self.names[nid])
            return result
        return wrapper

    # -- count hooks, run outside the span they describe -----------------
    def _on_pole_set(self, args, kwargs, pole_set):
        self.counts["poles.modes"] += int(pole_set.ok.size)
        self.counts["poles.ok"] += pole_set.n_ok

    def _on_bm(self, args, kwargs, result):
        self.counts["forward.bm_bytes"] += _bm_bytes(args, kwargs)

    def _on_sweep(self, args, kwargs, rows):
        self.counts["quasirev.sweep_rows_failed"] += sum(1 for r in rows if r.status != "ok")

    def install(self) -> None:
        """Wrap every listed function wherever a harmtomo module binds it."""
        hooks = {"build_pole_set": self._on_pole_set, "convolve_bm_grid": self._on_bm,
                 "run_sweep": self._on_sweep}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "harmtomo" or name.startswith("harmtomo.")]
        for pairs in LAYERS.values():
            for module, func in pairs:
                name = f"{module}.{func}"
                try:
                    fn = getattr(importlib.import_module(f"harmtomo.{module}"), func, None)
                except ModuleNotFoundError:
                    fn = None
                if fn is None:
                    self.missing.append(name)
                    continue
                self.names.append(name)
                wrapper = self._wrap(len(self.names) - 1, fn, hooks.get(func))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)

    # -- analysis -----------------------------------------------------------
    def arrays(self) -> dict:
        return {"names": np.array(self.names), "nid": np.frombuffer(self.nid, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "raised": np.frombuffer(self.raised, dtype=np.int8)}

    def totals(self) -> dict:
        """Additive per-name totals (calls, self seconds, raised) plus counts.

        Self time is a span's duration minus the durations of its child
        spans; children never outlive their parent, so the subtraction is
        exact.  Returned sums merge across worker processes by addition.
        """
        a = self.arrays()
        nid, parent = a["nid"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
        self_s = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        self_by_name = np.bincount(nid, weights=self_s, minlength=n)
        raised = np.bincount(nid, weights=a["raised"], minlength=n)
        solve = self.names.index("forward.solve_multiharmonic") \
            if "forward.solve_multiharmonic" in self.names else -2
        bm = self.names.index("forward.convolve_bm_grid") \
            if "forward.convolve_bm_grid" in self.names else -2
        retries = int(np.count_nonzero((nid == solve) & has_parent
                                       & (nid[np.where(has_parent, parent, 0)] == solve)))
        out = {
            "calls": {name: int(calls[k]) for k, name in enumerate(self.names)},
            "self_s": {name: float(self_by_name[k]) for k, name in enumerate(self.names)},
            "raised": {name: int(raised[k]) for k, name in enumerate(self.names)},
            "op_wall_s": float(dur[nid == 0].sum()),
            "ops": int(calls[0]),
            "forward.damping_retries": retries,
            "forward.bm_in_solve": int(sum(self._has_ancestor(i, solve, nid, parent)
                                           for i in np.flatnonzero(nid == bm))),
            "spans": int(nid.size),
        }
        out.update(self.counts)
        return out

    @staticmethod
    def _has_ancestor(i, target, nid, parent) -> bool:
        i = parent[i]
        while i >= 0:
            if nid[i] == target:
                return True
            i = parent[i]
        return False
