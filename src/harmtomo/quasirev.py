"""Quasi-reversibility driver: relaxation-time constants, noise injection,
trace-data smoothing, the tau(delta) schedule, and the convergence sweep.

The strongly damped limit tau -> 0 loses information; reconstructing with a
small positive relaxation time regularizes it.  The two constants below
quantify the blow-up: both involve the rate x = alpha/tau with
alpha = (sigma0 beta - tau)/(2 beta), grow without bound as tau -> 0, and are
monotone on the admissible range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis
from .errors import HarmtomoError, NoiseCalibrationError, SmoothingError, TheoremHypothesisError
from .fields import ModelParams, NormSpec
from .norms import bochner_norm, rho_t, x_norm, ytilde_obs_norm
from .poles import build_pole_set
from .reconstruct import (LinearizedData, LinearizedInput, linearized_forward,
                          reconstruct, ReferenceState)
NOISE_SCALE_TOL = 1e-10


def _rate_core(tau: float, sigma0: float, beta: float, T: float, T0: float) -> float:
    """x/(1 - e^(-2 x T0)) e^(2 x (T - T0)) at the rate x = alpha/tau.

    The factor compute_cbar and compute_ctilde share; the removable value at
    x = 0 comes from rho_t.  Callers silence the overflow to inf at tiny tau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    alpha = (sigma0 * beta - tau) / (2.0 * beta)
    if alpha < 0:
        raise ValueError("need tau <= sigma0*beta")
    x = alpha / tau
    return rho_t(2.0 * x, T0) / 2.0 * np.exp(2.0 * x * (T - T0))


def compute_cbar(tau: float, sigma0: float, beta: float, T: float, T0: float,
                 orti_check: float, C0: float = 1.0) -> float:
    """Stability constant
    C0 ((alpha/tau)/(1 - e^(-2(alpha/tau)T0)) e^(2(alpha/tau)(T - T0))
        (1 + (tau/beta)^orti) + 1)^(1/2);
    monotonically decreasing in tau and divergent as tau -> 0."""
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0) * (1.0 + (tau / beta) ** orti_check)
    return float(C0 * np.sqrt(core + 1.0))


def compute_ctilde(tau: float, sigma0: float, beta: float, T: float, T0: float,
                   orti_check: float, C1: float = 1.0) -> float:
    """Observation-norm comparison constant
    C1 ((alpha/tau)/(1 - e^(-2(alpha/tau)T0)) e^(2(alpha/tau)(T - T0))
        ((beta/tau)^orti + 1))^(1/2)."""
    with np.errstate(over="ignore"):
        core = _rate_core(tau, sigma0, beta, T, T0) * ((beta / tau) ** orti_check + 1.0)
    return float(C1 * np.sqrt(core))


@dataclass(frozen=True)
class TauConstants:
    tau: float
    alpha: float
    cbar: float
    ctilde: float
    radius: float

    @classmethod
    def at(cls, tau: float, sigma0: float, beta: float, T: float, T0: float,
           orti_check: float, C0: float = 1.0, C1: float = 1.0) -> "TauConstants":
        cbar = compute_cbar(tau, sigma0, beta, T, T0, orti_check, C0)
        ctilde = compute_ctilde(tau, sigma0, beta, T, T0, orti_check, C1)
        return cls(tau=tau, alpha=(sigma0 * beta - tau) / (2.0 * beta),
                   cbar=cbar, ctilde=ctilde, radius=1.0 / (2.0 * max(1.0, cbar)))


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------


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
    if delta < 0:
        raise ValueError("delta must be nonnegative")
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
    kappa: np.ndarray        # kappa_L per candidate level (nan where skipped)
    residuals: np.ndarray    # trace-fit residual per candidate level
    levels: np.ndarray       # candidate levels


def smoothing_gain(basis: EigenBasis, s: float, L: int) -> float:
    """kappa_L = max over the first L modes of the H^s norm against the
    discrete trace norm, by a generalized symmetric eigenvalue problem."""
    from scipy.linalg import eigh

    t = basis.trace_matrix[:L]
    G = (t * basis.sigma_weights) @ t.T
    if np.linalg.matrix_rank(G, tol=1e-12 * max(1.0, float(np.max(np.abs(G))))) < L:
        return float("inf")
    D = np.diag(np.power(basis.lambdas[:L], s))
    vals = eigh(D, G, eigvals_only=True)
    return float(np.sqrt(np.max(vals)))


def smooth_data(p_sigma, delta_tilde: float, basis: EigenBasis, s: float,
                levels=None, disc_factor: float = 2.0) -> SmoothingResult:
    """Least-squares lift of noisy trace samples over nested spectral spaces.

    For each candidate level L the data are fitted by traces from the span of
    the first L modes; the level is chosen by discrepancy, the smallest L
    whose trace-fit residual drops below disc_factor * delta_tilde, after
    discarding levels whose amplification kappa_L exceeds the data scale over
    delta_tilde.  With exact data from inside a candidate space the fit is
    the inverse and the recovery exact.
    """
    v = np.asarray(p_sigma, dtype=complex)
    ns = basis.nsigma
    if v.shape[-1] != ns:
        raise ValueError("data must be sampled on the basis Sigma points")
    levels = np.asarray(levels if levels is not None else np.arange(1, min(basis.J, ns) + 1))
    sw = np.sqrt(basis.sigma_weights)
    data_norm = float(np.linalg.norm(sw * v))
    kappas = np.full(levels.size, np.nan)
    residuals = np.full(levels.size, np.nan)
    fits = {}
    for i, L in enumerate(levels):
        kap = smoothing_gain(basis, s, int(L))
        kappas[i] = kap
        if not np.isfinite(kap):
            continue
        if delta_tilde > 0 and kap * delta_tilde > data_norm:
            continue
        A = (sw[:, None] * basis.trace_matrix[: int(L)].T)
        c, *_ = np.linalg.lstsq(A, sw * v, rcond=None)
        residuals[i] = float(np.linalg.norm(A @ c - sw * v))
        fits[int(L)] = c
    if not fits:
        raise SmoothingError(
            f"all candidate levels rejected (kappa * delta_tilde above data norm {data_norm:.3e})"
        )
    threshold = max(disc_factor * delta_tilde, 1e-12 * max(data_norm, 1.0))
    chosen = None
    for i, L in enumerate(levels):
        if int(L) in fits and residuals[i] <= threshold:
            chosen = int(L)
            break
    if chosen is None:
        usable = [i for i, L in enumerate(levels) if int(L) in fits]
        scores = [residuals[i] + kappas[i] * delta_tilde for i in usable]
        chosen = int(levels[usable[int(np.argmin(scores))]])
    coeffs = np.zeros(basis.J, dtype=complex)
    coeffs[:chosen] = fits[chosen]
    return SmoothingResult(coeffs=coeffs, level=chosen, kappa=kappas,
                           residuals=residuals, levels=levels)


# ---------------------------------------------------------------------------
# tau(delta) schedule and the convergence sweep
# ---------------------------------------------------------------------------


def tau_grid(tau0: float, tau_min: float, tau_max: float, ratio: float = 2.0**0.25) -> np.ndarray:
    """Geometric grid from tau0 + tau_min up to tau_max."""
    lo = tau0 + tau_min
    if lo >= tau_max:
        raise ValueError("empty tau grid")
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
    Requesting tau0 = 0 demands the delta-pulse centered at the period end
    (T0 = T) and orti_check < 1.
    """
    if tau0 == 0.0:
        if abs(T0 - T) > 1e-12 * T:
            raise TheoremHypothesisError("tau0 = 0 requires T0 = T")
        if orti_check >= 1.0:
            raise TheoremHypothesisError("tau0 = 0 requires orti_check < 1")
    elif tau0 < 0:
        raise ValueError("tau0 must be nonnegative")
    if delta == 0.0 and tau0 > 0.0:
        # noiseless data need no relaxation-time offset
        return float(tau0)
    grid = tau_grid(tau0, tau_min, tau_max, ratio)
    scale = max(compute_cbar(grid[-1], sigma0, beta, T, T0, orti_check),
                compute_ctilde(grid[-1], sigma0, beta, T, T0, orti_check))
    limit = tolerance * scale / np.sqrt(delta)
    for tau in grid:
        c = max(compute_cbar(tau, sigma0, beta, T, T0, orti_check),
                compute_ctilde(tau, sigma0, beta, T, T0, orti_check))
        if c <= limit:
            return float(tau)
    return float(grid[-1])


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
              tolerance: float = 0.1, calibration: float | None = None,
              calib_safety: float = 3.0) -> list[SweepRow]:
    """Convergence experiment for the relaxation-time regularization.

    Data are generated by the linearized model at relaxation time tau0 (the
    strongly damped quadratic symbols when tau0 = 0), perturbed by exactly
    delta in the lifted observation norm, and inverted with the model at
    tau(delta) through the least-squares residue fit.  Each row records the
    preimage-norm error and the calibrated bound
    max(cbar, ctilde)(tau) * (delta + (tau - tau0) * |du_t|); the calibration
    factor is fitted once on a pilot noise level and held fixed.
    """
    data = linearized_forward(ref, params0.with_tau(tau0), basis, truth)
    dt_norm = time_derivative_norm(truth.du, params0.omega, basis.lambdas, spec)
    deltas = sorted((float(d) for d in delta_list), reverse=True)

    def one(delta: float, noise_seed: int):
        tau = choose_tau(delta, tau0, params0.sigma0, params0.beta, params0.T,
                         params0.T0, spec.orti_check, tau_min, tau_max, ratio, tolerance)
        noisy = add_noise(data.phat, delta, noise_seed, basis, spec.s, params0.omega)
        params_tau = params0.with_tau(tau)
        pole_set = build_pole_set(basis.lambdas, params_tau)
        rec = reconstruct(LinearizedData(rhat=data.rhat, phat=noisy.phat_delta),
                          ref, pole_set, basis, params_tau)
        err = x_norm(rec.a - truth.a, rec.b - truth.du, basis.lambdas, params0.omega, spec)
        cbar = compute_cbar(tau, params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)
        ctil = compute_ctilde(tau, params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)
        raw = max(cbar, ctil) * (delta + (tau - tau0) * dt_norm)
        return tau, err, raw, cbar, ctil

    if calibration is None:
        pilot = 3.0 * deltas[0]
        if pilot > 0:
            _, err_p, raw_p, _, _ = one(pilot, seed - 1)
            calibration = calib_safety * err_p / raw_p if raw_p > 0 else 1.0
        else:
            calibration = 1.0

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
