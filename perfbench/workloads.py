"""Seeded scenario generation for the three benchmark workloads.

A workload is a stream of units; a unit is a list of ops run back to back,
and each op is one scenario dict that the worker writes to a file and hands
to ``harmtomo.runner.run_preset`` through ``scenarios.load_scenario``, the
path ``harmtomo run`` takes.  Every op but the ladder's qr-sweep draws a
fresh preset seed from the stream, over the full non-negative 31-bit range.

The timed workloads hold only ops that succeed, so that a run's failure
count is 0 and two sets of runs agree on it.  The inputs known to fail are
kept apart in ``known_defect_ops``: run once per run, untimed, and reported
next to the result.

The templates copy the shipped ``scenarios/*.json`` files at the time the
benchmark was written, so later edits to those files do not change what the
benchmark measures.
"""

from __future__ import annotations

import copy
import math

import numpy as np

PI = math.pi

# Interval pi, Robin (1, 1), J = 16, M = 64, tau = 0.5: scenarios/interval_roundtrip.json.
_INTERVAL_16 = {
    "name": "bench-interval",
    "preset": "linearized-roundtrip",
    "seed": 0,
    "domain": {"kind": "interval", "lengths": [PI], "robin_gamma": [1.0, 1.0],
               "sigma_points": [0.0]},
    "params": {"tau": 0.5, "beta": 1.0, "sigma0": 1.0, "omega": 0.5, "T0": PI / 2, "A": 2.0},
    "norms": {"s": 1.0, "orti_check": 0.5},
    "truncation": {"J": 16, "M": 64},
    "source": {"pulse_width": 0.04, "amplitude": 6.0, "phi_mode": 0, "eta0": 0.0},
    "true_fields": {"kind": "random_low_mode", "cutoff": 16, "du_scale": 1.0},
}

# Acceptance criterion 5: interval, J = 8, M = 24, width 0.08, amplitude 3, tau = 0.5.
_STABILITY = {
    **copy.deepcopy(_INTERVAL_16),
    "name": "bench-stability",
    "preset": "stability-probe",
    "truncation": {"J": 8, "M": 24},
    "source": {"pulse_width": 0.08, "amplitude": 3.0, "phi_mode": 0, "eta0": 0.0},
    "true_fields": {"kind": "random_low_mode"},
    "draws": 20,
}

# scenarios/qr_sweep.json
_QR_SWEEP = {
    "name": "westervelt-qr-sweep",
    "preset": "qr-sweep",
    "seed": 101,
    "domain": {"kind": "interval", "lengths": [PI], "robin_gamma": [1.0, 1.0],
               "sigma_points": [0.0]},
    "params": {"tau": 0.0, "beta": 1.0, "sigma0": 1.0, "omega": 1.0, "T0": 2 * PI, "A": 2.0},
    "norms": {"s": 1.0, "orti_check": 0.5},
    "truncation": {"J": 8, "M": 48},
    "source": {"pulse_width": 0.04, "amplitude": 3.0, "phi_mode": 0, "eta0": 0.0},
    "true_fields": {"kind": "random_low_mode", "cutoff": 8, "du_scale": 1e-7, "du_band": 8},
    "noise": {"delta_list": [1e-2, 1e-3, 1e-4]},
    "quasirev": {"tau0": 0.0, "tau_min": 0.1, "tau_max": 0.5,
                 "grid_ratio": 1.189207115002721, "tolerance": 0.1},
}

# scenarios/smoothing_study.json: incommensurate rectangle pi x 1.94..., 24 side points.
_RECT_X, _RECT_Y = PI, 1.9416110387254665
_SIDE_X = [0.4084070449666731, 0.872901602825484, 1.3373961606842949,
           1.8018907185431057, 2.2663852764019165, 2.7308798342607274]
_SIDE_Y = [0.2524094350343272, 0.539468508754082, 0.8265275824738369,
           1.1135866561935918, 1.4006457299133466, 1.6877048036331015]
_SMOOTHING = {
    "name": "rectangle-smoothing-study",
    "preset": "smoothing-study",
    "seed": 5,
    "domain": {"kind": "rectangle", "lengths": [_RECT_X, _RECT_Y],
               "robin_gamma": [[1.0, 1.0], [1.0, 1.0]],
               "sigma_points": ([[x, 0.0] for x in _SIDE_X] + [[x, _RECT_Y] for x in _SIDE_X]
                                + [[0.0, y] for y in _SIDE_Y] + [[_RECT_X, y] for y in _SIDE_Y])},
    "params": {"tau": 0.5, "beta": 1.0, "sigma0": 1.0, "omega": 1.0, "T0": PI, "A": 2.0},
    "norms": {"s": 1.0, "orti_check": 0.5},
    "truncation": {"J": 12, "M": 8},
    "source": {"pulse_width": 0.2, "amplitude": 1.0, "phi_mode": 0, "eta0": 0.0},
    "noise": {"delta_list": [1e-2, 1e-3, 1e-4]},
    "target_cutoff": 5,
}

# The fit recovers the coefficients down to tau = 0.1; at 0.07 and below it
# does not (tau 0.05 is off by ~1e7, tau 0.02 and 0.01 raise
# IllConditionedFitError).
LADDER_TAUS = (0.5, 0.3, 0.2, 0.15, 0.12, 0.1)
KNOWN_DEFECT_TAUS = (0.05, 0.02, 0.01)
# With a seed drawn per op, about 31% of qr-sweeps put error_x above the
# calibrated bound; the shipped seed (101) does not.
QR_DEFECT_DRAWS = 4
ETA_FORWARD_RANGE = (5e-4, 4e-3)


def _with_seed(template: dict, rng: np.random.Generator, label: str) -> dict:
    sc = copy.deepcopy(template)
    sc["seed"] = int(rng.integers(0, 2**31))
    sc["name"] = f"{template['name']}-{label}"
    return sc


# nonlinear-forward: forward.convolve_bm_grid dominates, called ~20 times per
# op for ~90% of its time; reconstruct, poles and norms sit idle.  Each op's
# seed draws the sigma perturbation, and eta_forward is log-uniform.
def _forward_unit(rng):
    sc = _with_seed(_INTERVAL_16, rng, "forward")
    sc["preset"] = "forward-solve"
    lo, hi = ETA_FORWARD_RANGE
    sc["source"]["eta_forward"] = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
    return [sc]


# stability-draws: ~95% of each draw is per-pole scalar algebra and norms
# (interp_periodic, evaluate/invert_mtilde, oracle_residues, the X/Y norms);
# there is no grid B_m work.
def _stability_unit(rng):
    return [_with_seed(_STABILITY, rng, "probe")]


# inversion-ladder: the CLI inversion path, paying set-up on every op.  Fit
# roundtrips across the tau range use the harmonic product in
# amplitude_modulate rather than on the grid; poles, the fit, quasirev, the
# artifact writers and the rectangle basis are measured only here.  The
# qr-sweep is the shipped scenario as is, seed included.
def _fit(rng, tau):
    sc = _with_seed(_INTERVAL_16, rng, f"fit-tau{tau:g}")
    sc["residue_mode"] = "fit"
    sc["params"]["tau"] = tau
    return sc


def _ladder_unit(rng):
    ops = [_fit(rng, tau) for tau in LADDER_TAUS]
    ops.append(copy.deepcopy(_QR_SWEEP))
    ops.append(_with_seed(_SMOOTHING, rng, "study"))
    return ops


WORKLOADS = {
    "nonlinear-forward": _forward_unit,
    "stability-draws": _stability_unit,
    "inversion-ladder": _ladder_unit,
}


def unit_stream(workload: str, seed: int, worker: int):
    """Endless deterministic stream of op units for one worker process.

    The same (seed, worker) pair always yields the same sequence, whatever
    the number of units a time-bounded run ends up consuming.
    """
    rng = np.random.default_rng([seed, worker, 0])
    while True:
        yield WORKLOADS[workload](rng)


def known_defect_ops(workload: str, seed: int) -> list[dict]:
    """Ops of the workload's kind that are known to fail: the fits below
    tau = 0.1 and qr-sweeps with seeds drawn from ``seed``."""
    if workload != "inversion-ladder":
        return []
    rng = np.random.default_rng([seed, 0, 1])
    return ([_fit(rng, tau) for tau in KNOWN_DEFECT_TAUS]
            + [_with_seed(_QR_SWEEP, rng, f"sweep{k}") for k in range(QR_DEFECT_DRAWS)])


def warmup_op(workload: str) -> dict:
    """The untimed op a worker runs during set-up.  It is the same for every
    seed, so that set-up time does not vary with the inputs of the run."""
    return WORKLOADS[workload](np.random.default_rng(0))[0]
