"""Quasi-reversibility driver: relaxation-time constants, noise injection,
trace-data smoothing, the tau(delta) schedule, and the convergence sweep.

The strongly damped limit tau -> 0 loses information; reconstructing with a
small positive relaxation time regularizes it.  The two constants below
quantify the blow-up: both involve the rate x = alpha/tau with
alpha = (sigma0 beta - tau)/(2 beta), grow without bound as tau -> 0, and are
monotone on the admissible range.  Each takes a tau (and gives a float) or an
array of taus (and gives an array).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis
from .errors import HarmtomoError, NoiseCalibrationError, SmoothingError, TheoremHypothesisError
from .fields import ModelParams, NormSpec
from .norms import _per_draw, bochner_norm, rho_t, x_norm, ytilde_obs_norm
from .reconstruct import (LinearizedData, LinearizedInput, linearized_forward, reconstruct,
                          ReferenceState)
NOISE_SCALE_TOL = 1e-10
DISCREPANCY_FACTOR = 2.0   # smoothing stops at a trace-fit residual of this times delta
CALIBRATION_SAFETY = 3.0   # sweep bound = this times the pilot's error over its raw bound


def _rate_core(tau, sigma0: float, beta: float, T: float, T0: float):
    """x/(1 - e^(-2 x T0)) e^(2 x (T - T0)) at the rate x = alpha/tau.

    The factor compute_cbar and compute_ctilde share; the removable value at
    x = 0 comes from rho_t.  Callers silence the overflow to inf at tiny tau.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    alpha = (sigma0 * beta - tau) / (2.0 * beta)
    if np.any(alpha < 0):
        raise ValueError("need tau <= sigma0*beta")
    x = alpha / tau
    return rho_t(2.0 * x, T0) / 2.0 * np.exp(2.0 * x * (T - T0))


def compute_cbar(tau, sigma0: float, beta: float, T: float, T0: float,
                 orti_check: float):
    """Stability constant
    ((alpha/tau)/(1 - e^(-2(alpha/tau)T0)) e^(2(alpha/tau)(T - T0))
        (1 + (tau/beta)^orti) + 1)^(1/2);
    monotonically decreasing in tau and divergent as tau -> 0."""
    # np.float_power evaluates libm's pow per entry, as float ** does; np.power
    # may take a SIMD path whose last bit differs
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0) * (
            1.0 + np.float_power(np.divide(tau, beta), orti_check))
    return _per_draw(np.sqrt(core + 1.0))


def compute_ctilde(tau, sigma0: float, beta: float, T: float, T0: float,
                   orti_check: float):
    """Observation-norm comparison constant
    ((alpha/tau)/(1 - e^(-2(alpha/tau)T0)) e^(2(alpha/tau)(T - T0))
        ((beta/tau)^orti + 1))^(1/2)."""
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0) * (
            np.float_power(np.divide(beta, tau), orti_check) + 1.0)
    return _per_draw(np.sqrt(core))


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


def check_noise_levels(deltas) -> None:
    """Raise NoiseCalibrationError naming the levels that are not finite and
    nonnegative."""
    bad = [d for d in deltas if not (math.isfinite(d) and d >= 0)]
    if bad:
        raise NoiseCalibrationError(f"noise levels {bad} must be finite and nonnegative")


@dataclass(frozen=True, eq=False)
class NoisyData:
    phat_delta: np.ndarray
    delta: float
    seed: int


def add_noise(phat, delta: float, seed: int, basis: EigenBasis, s: float,
              omega: float) -> NoisyData:
    """Perturb trace data by exactly delta in the lifted observation norm.

    The perturbation is drawn in the span of the retained (harmonic, mode)
    pairs, its norm evaluated, and the draw rescaled so the achieved distance
    equals delta to roundoff.
    """
    phat = np.asarray(phat, dtype=complex)
    check_noise_levels([delta])
    if delta == 0.0:
        return NoisyData(phat_delta=phat.copy(), delta=0.0, seed=seed)
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(phat.shape[:-1] + (basis.J,)) \
        + 1j * rng.standard_normal(phat.shape[:-1] + (basis.J,))
    noise = eps @ basis.trace_matrix
    scale = delta / ytilde_obs_norm(noise, basis, s, omega)
    noise = noise * scale
    achieved = ytilde_obs_norm(noise, basis, s, omega)
    if not abs(achieved - delta) <= NOISE_SCALE_TOL * max(delta, 1.0):
        raise NoiseCalibrationError(
            f"rescaled noise has norm {achieved!r}, requested delta {delta!r}"
        )
    return NoisyData(phat_delta=phat + noise, delta=delta, seed=seed)


# ---------------------------------------------------------------------------
# Data smoothing by least squares over nested spectral subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SmoothingResult:
    coeffs: np.ndarray       # (J,) lifted coefficients, zero beyond chosen level
    level: int               # chosen L
    kappa: np.ndarray        # kappa_L per candidate level (read-only, shared)
    residuals: np.ndarray    # trace-fit residual per candidate level
    levels: np.ndarray       # candidate levels


@functools.lru_cache(maxsize=1)
def _smoothing_gains(basis: EigenBasis, s: float) -> np.ndarray:
    """smoothing_gain at each candidate level 1..min(J, nsigma), once per
    (basis, s).

    Bases compare by identity, so the noise levels of one study, which come
    in a row, share the gains.  Only the last entry is kept, so no finished
    study's basis stays alive.  The array is read-only.
    """
    kappas = np.array([smoothing_gain(basis, s, L)
                       for L in range(1, min(basis.J, basis.nsigma) + 1)])
    kappas.setflags(write=False)
    return kappas


def smoothing_gain(basis: EigenBasis, s: float, L: int) -> float:
    """kappa_L = max over the first L modes of the H^s norm against the
    discrete trace norm, by the generalized symmetric eigenvalue problem
    D v = k^2 G v.  With G = C C^T (Cholesky) its eigenvalues are those of
    C^-1 D C^-T, so numpy.linalg solves it without scipy."""
    t = basis.trace_matrix[:L]
    G = (t * basis.sigma_weights) @ t.T
    if np.linalg.matrix_rank(G, tol=1e-12 * max(1.0, float(np.max(np.abs(G))))) < L:
        return float("inf")
    c_inv = np.linalg.inv(np.linalg.cholesky(G))
    vals = np.linalg.eigvalsh((c_inv * np.power(basis.lambdas[:L], s)) @ c_inv.T)
    return float(np.sqrt(np.max(vals)))


def smooth_data(p_sigma, delta_tilde: float, basis: EigenBasis, s: float) -> SmoothingResult:
    """Least-squares lift of noisy trace samples over nested spectral spaces.

    For each candidate level L = 1..min(J, nsigma) the data are fitted by
    traces from the span of the first L modes; the level is chosen by
    discrepancy, the smallest L whose trace-fit residual drops below
    DISCREPANCY_FACTOR * delta_tilde, after discarding levels whose
    amplification kappa_L exceeds the data scale over delta_tilde.  Without
    such a level, the fitted level of least residual + kappa_L * delta_tilde
    is taken.  With exact data from inside a candidate space the fit is
    the inverse and the recovery exact.
    """
    v = np.asarray(p_sigma, dtype=complex)
    if v.shape[-1] != basis.nsigma:
        raise ValueError("data must be sampled on the basis Sigma points")
    sw = np.sqrt(basis.sigma_weights)
    data_norm = float(np.linalg.norm(sw * v))
    kappas = _smoothing_gains(basis, s)
    residuals = np.full(kappas.size, np.nan)
    fits = {}
    for L, kap in enumerate(kappas, start=1):
        if not np.isfinite(kap) or (delta_tilde > 0 and kap * delta_tilde > data_norm):
            continue
        A = sw[:, None] * basis.trace_matrix[:L].T
        c, *_ = np.linalg.lstsq(A, sw * v, rcond=None)
        residuals[L - 1] = float(np.linalg.norm(A @ c - sw * v))
        fits[L] = c
    if not fits:
        raise SmoothingError(
            f"all candidate levels rejected (kappa * delta_tilde above data norm {data_norm:.3e})"
        )
    threshold = max(DISCREPANCY_FACTOR * delta_tilde, 1e-12 * max(data_norm, 1.0))
    below = [L for L in fits if residuals[L - 1] <= threshold]
    chosen = below[0] if below else min(
        fits, key=lambda L: residuals[L - 1] + kappas[L - 1] * delta_tilde)
    coeffs = np.zeros(basis.J, dtype=complex)
    coeffs[:chosen] = fits[chosen]
    return SmoothingResult(coeffs=coeffs, level=chosen, kappa=kappas, residuals=residuals,
                           levels=np.arange(1, kappas.size + 1))


# ---------------------------------------------------------------------------
# tau(delta) schedule and the convergence sweep
# ---------------------------------------------------------------------------


def check_schedule(tau0: float, tau_min: float, tau_max: float, ratio: float,
                   sigma0=None, beta=None, T=None, T0=None, orti_check=None) -> None:
    """Raise TheoremHypothesisError naming every rule the tau(delta) schedule
    breaks.  The grid needs tau0 >= 0, tau0 + tau_min > 0, ratio > 1 and
    tau0 + tau_min < tau_max; with sigma0 and beta, tau_max <= sigma0*beta;
    with T, T0 and orti_check, tau0 = 0 needs T0 = T and orti_check < 1."""
    bad = []
    if not tau0 >= 0:
        bad.append(f"tau0 {tau0!r} must be nonnegative")
    elif tau0 == 0.0 and T is not None:
        if abs(T0 - T) > 1e-12 * T:
            bad.append("tau0 = 0 requires T0 = T")
        if orti_check >= 1.0:
            bad.append("tau0 = 0 requires orti_check < 1")
    lo = tau0 + tau_min
    if not lo > 0:
        bad.append(f"tau0 + tau_min = {lo!r} must be positive")
    if not ratio > 1:
        bad.append(f"grid_ratio {ratio!r} must exceed 1")
    if not lo < tau_max:
        bad.append(f"empty tau grid: tau0 + tau_min = {lo!r} is not below tau_max {tau_max!r}")
    if sigma0 is not None and not tau_max <= sigma0 * beta:
        bad.append(f"tau_max {tau_max!r} above sigma0*beta leaves the admissible range")
    if bad:
        raise TheoremHypothesisError("; ".join(bad))


def tau_grid(tau0: float, tau_min: float, tau_max: float, ratio: float = 2.0**0.25) -> np.ndarray:
    """Geometric grid from tau0 + tau_min up to tau_max."""
    check_schedule(tau0, tau_min, tau_max, ratio)
    lo = tau0 + tau_min
    n = int(np.floor(np.log(tau_max / lo) / np.log(ratio))) + 1
    grid = lo * ratio ** np.arange(n)
    if grid[-1] < tau_max * (1 - 1e-12):
        grid = np.append(grid, tau_max)
    return grid


def choose_tau(delta: float, tau0: float, sigma0: float, beta: float, T: float,
               T0: float, orti_check: float, tau_min: float, tau_max: float,
               ratio: float = 2.0**0.25, tolerance: float = 0.1) -> float:
    """Smallest grid relaxation time whose constants are compatible with the
    noise level.

    The rule max(cbar, ctilde)(tau) * sqrt(delta) <= tolerance * scale, with
    scale the constants at tau_max, sends tau(delta) monotonically to the
    bottom of the grid while max(cbar, ctilde)(tau(delta)) * delta -> 0.
    The constants are scored over the whole grid in one array pass; noiseless
    data take the bottom of the grid.  The schedule must pass check_schedule.
    """
    check_schedule(tau0, tau_min, tau_max, ratio, sigma0, beta, T, T0, orti_check)
    if delta == 0.0 and tau0 > 0.0:
        # noiseless data need no relaxation-time offset
        return float(tau0)
    grid = tau_grid(tau0, tau_min, tau_max, ratio)
    cbar = compute_cbar(grid, sigma0, beta, T, T0, orti_check)
    ctilde = compute_ctilde(grid, sigma0, beta, T, T0, orti_check)
    c = np.where(ctilde > cbar, ctilde, cbar)   # max(cbar, ctilde), nan as max() treats it
    limit = tolerance * c[-1] / np.sqrt(delta) if delta > 0 else np.inf
    below = np.flatnonzero(c <= limit)
    return float(grid[below[0] if below.size else -1])


@dataclass(frozen=True, eq=False)
class SweepRow:
    delta: float
    tau: float
    error_x: float
    bound: float
    cbar: float
    ctilde: float
    status: str


def time_derivative_norm(du, omega: float, lambdas, spec: NormSpec) -> float:
    """Bochner norm of the time derivative of the state pair: each harmonic
    coefficient is scaled by i m omega."""
    du = np.asarray(du, dtype=complex)
    m = np.arange(1, du.shape[1] + 1)
    return bochner_norm(du * (1j * m * omega)[None, :, None], omega, lambdas,
                        spec.orti_check, spec.s_check)


def run_sweep(basis: EigenBasis, ref: ReferenceState, params0: ModelParams,
              spec: NormSpec, truth: LinearizedInput, delta_list, tau0: float,
              seed: int, tau_min: float, tau_max: float, ratio: float = 2.0**0.25,
              tolerance: float = 0.1) -> list[SweepRow]:
    """Convergence experiment for the relaxation-time regularization.

    Data are generated by the linearized model at relaxation time tau0 (the
    strongly damped quadratic symbols when tau0 = 0), perturbed by exactly
    delta in the lifted observation norm, and inverted with the model at
    tau(delta) by `reconstruct`.
    Each row records the preimage-norm error and the calibrated bound
    max(cbar, ctilde)(tau) * (delta + (tau - tau0) * |du_t|); the calibration
    factor is fitted once on a pilot noise level and held fixed.  A schedule
    that fails check_schedule raises before any row is computed.
    """
    check_schedule(tau0, tau_min, tau_max, ratio, params0.sigma0, params0.beta, params0.T,
                   params0.T0, spec.orti_check)
    data = linearized_forward(ref, params0.with_tau(tau0), basis, truth)
    dt_norm = time_derivative_norm(truth.du, params0.omega, basis.lambdas, spec)
    deltas = sorted((float(d) for d in delta_list), reverse=True)

    def one(delta: float, noise_seed: int):
        tau = choose_tau(delta, tau0, params0.sigma0, params0.beta, params0.T,
                         params0.T0, spec.orti_check, tau_min, tau_max, ratio, tolerance)
        noisy = add_noise(data.phat, delta, noise_seed, basis, spec.s, params0.omega)
        rec = reconstruct(LinearizedData(rhat=data.rhat, phat=noisy.phat_delta), ref, basis,
                          params0.with_tau(tau))
        err = x_norm(rec.a - truth.a, rec.b - truth.du, basis.lambdas, params0.omega, spec)
        cbar = compute_cbar(tau, params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)
        ctil = compute_ctilde(tau, params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)
        raw = max(cbar, ctil) * (delta + (tau - tau0) * dt_norm)
        return tau, err, raw, cbar, ctil

    calibration = 1.0
    if deltas[0] > 0:
        _, err_p, raw_p, _, _ = one(3.0 * deltas[0], seed - 1)
        calibration = CALIBRATION_SAFETY * err_p / raw_p if raw_p > 0 else 1.0

    rows = []
    for i, delta in enumerate(deltas):
        try:
            tau, err, raw, cbar, ctil = one(delta, seed + i)
            rows.append(SweepRow(delta=delta, tau=tau, error_x=err,
                                 bound=calibration * raw, cbar=cbar, ctilde=ctil,
                                 status="ok"))
        except HarmtomoError as exc:  # typed numerical failures stay in the table
            rows.append(SweepRow(delta=delta, tau=float("nan"), error_x=float("nan"),
                                 bound=float("nan"), cbar=float("nan"), ctilde=float("nan"),
                                 status=f"failed: {type(exc).__name__}: {exc}"))
    return rows
