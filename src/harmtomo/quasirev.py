"""Quasi-reversibility driver: relaxation-time constants, noise injection,
trace-data smoothing, the tau(delta) schedule, and the convergence sweep.

The sweep computes its pilot and every noise level in batched passes: one
noise pass over the levels, one factorization of the fit at all of their
distinct relaxation times, one fit per tau and one preimage norm.

The strongly damped limit tau -> 0 loses information; reconstructing with a
small positive relaxation time regularizes it.  The two constants below
quantify the blow-up: both involve the rate x = alpha/tau with
alpha = (sigma0 beta - tau)/(2 beta), grow without bound as tau -> 0, and are
monotone on the admissible range.  Each takes a tau (and gives a float) or an
array of taus (and gives an array).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis
from .errors import HarmtomoError, NoiseCalibrationError, SmoothingError, TheoremHypothesisError
from .fields import ModelParams, NormSpec
from .norms import _per_draw, bochner_norm, rho_t, x_norm, ytilde_obs_norm
from .reconstruct import (LinearizedData, LinearizedInput, apply_fit_map, build_fit_maps,
                          linearized_forward)
from .sources import SourcePair

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


def _noisy_rows(phat, deltas, seeds, basis: EigenBasis, s: float,
                omega: float) -> tuple[np.ndarray, list]:
    """Copies of the trace data phat (nsrc, M, ns) or (M, ns), one per noise
    level: row k perturbed by exactly deltas[k] in the lifted observation
    norm, with noise drawn from default_rng(seeds[k]); (k, ...) with, per
    row, the NoiseCalibrationError that kept it from being so perturbed, or
    None.

    Each draw lies in the span of the retained (harmonic, mode) pairs, and a
    noiseless row draws nothing.  One batched norm pass rescales every draw
    and one more checks the achieved distances.
    """
    phat = np.asarray(phat, dtype=complex)
    noisy = np.repeat(phat[None], len(deltas), axis=0)
    shape = phat.shape[:-1] + (basis.J,)
    errors, drawn, eps = [], [], []
    for k, (delta, seed) in enumerate(zip(deltas, seeds)):
        try:
            check_noise_levels([delta])
        except NoiseCalibrationError as exc:
            errors.append(exc)
            continue
        errors.append(None)
        if delta > 0:
            rng = np.random.default_rng(seed)
            eps.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            drawn.append(k)
    if not drawn:
        return noisy, errors
    d = np.array([deltas[k] for k in drawn])
    # one data set per row: (rows, nsrc, M, ns)
    noise = (np.stack(eps) @ basis.trace_matrix).reshape((len(drawn), -1) + phat.shape[-2:])
    noise = noise * (d / ytilde_obs_norm(noise, basis, s, omega))[:, None, None, None]
    achieved = ytilde_obs_norm(noise, basis, s, omega)
    for k, delta, got in zip(drawn, d, achieved):
        if not abs(got - delta) <= NOISE_SCALE_TOL * max(delta, 1.0):
            errors[k] = NoiseCalibrationError(
                f"rescaled noise has norm {float(got)!r}, requested delta {deltas[k]!r}")
    noisy[drawn] += noise.reshape((len(drawn),) + phat.shape)
    return noisy, errors


# ---------------------------------------------------------------------------
# Data smoothing by least squares over nested spectral subspaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SmoothingResult:
    coeffs: np.ndarray       # (J,) lifted coefficients, zero beyond chosen level
    level: int               # chosen L
    residuals: np.ndarray    # trace-fit residual per candidate level L = 1..len(kappas)


def _weighted_traces(basis: EigenBasis, n: int) -> np.ndarray:
    """The weighted traces A = sqrt(w) tr[:n]^T (nsigma, n).  Its first L
    columns are level L's design, so one QR serves every level:
    A[:, :L] = Q[:, :L] R[:L, :L]."""
    return np.sqrt(basis.sigma_weights)[:, None] * basis.trace_matrix[:n].T


def smoothing_gains(basis: EigenBasis, s: float) -> np.ndarray:
    """kappa_L at each candidate level L = 1..min(J, nsigma): the max over
    the first L modes of the H^s norm against the discrete trace norm, by the
    generalized symmetric eigenvalue problem Lambda^s v = k^2 G_L v with
    G_L = A_L^T A_L.

    One QR of A gives G_L = R_L^T R_L at every level, so kappa_L^2 is the
    largest eigenvalue of R_L^-T Lambda_L^s R_L^-1, the leading L x L block of
    H = R^-T Lambda^s R^-1 (R^-1 is upper triangular).  One batched eigvalsh
    over the zero-padded leading blocks of H, positive semidefinite, gives
    every gain.  From the first level with |R_LL|^2 <= 1e-12 max(1, max|G|)
    the Gram matrix is numerically singular and the gain is inf.  The gains
    depend on the basis and s alone, so a study computes them once for all
    of its noise levels."""
    n = min(basis.J, basis.nsigma)
    A = _weighted_traces(basis, n)
    r = np.linalg.qr(A, mode="r")
    tol = 1e-12 * max(1.0, float(np.max(np.sum(A * A, axis=0))))
    bad = np.flatnonzero(np.diag(r) ** 2 <= tol)
    good = int(bad[0]) if bad.size else n
    gains = np.full(n, np.inf)
    if good:
        r_inv = np.linalg.inv(r[:good, :good])
        h = (r_inv.T * np.power(basis.lambdas[:good], s)) @ r_inv
        blocks = np.tril(np.ones((good, good), dtype=bool))   # row L-1: the first L indices
        padded = h * (blocks[:, :, None] & blocks[:, None, :])
        gains[:good] = np.sqrt(np.linalg.eigvalsh(padded)[:, -1])
    return gains


def smooth_data(p_sigma, delta_tilde: float, basis: EigenBasis,
                kappas: np.ndarray) -> SmoothingResult:
    """Least-squares lift of noisy trace samples over nested spectral spaces.

    For each candidate level L = 1..len(kappas), with kappas the gains
    `smoothing_gains` gives for the basis, the data are fitted by
    traces from the span of the first L modes; the level is chosen by
    discrepancy, the smallest L whose trace-fit residual drops below
    DISCREPANCY_FACTOR * delta_tilde, after discarding levels whose
    amplification kappa_L exceeds the data scale over delta_tilde.  Without
    such a level, the fitted level of least residual + kappa_L * delta_tilde
    is taken.  With exact data from inside a candidate space the fit is
    the inverse and the recovery exact.

    One complete QR of the weighted traces serves every level: with
    beta = Q^T b, level L's residual is ||beta[L:]||, summed from the tail,
    and only the chosen level's coefficients are solved for, from
    R[:L, :L] c = beta[:L].
    """
    v = np.asarray(p_sigma, dtype=complex)
    if v.shape[-1] != basis.nsigma:
        raise ValueError("data must be sampled on the basis Sigma points")
    b = np.sqrt(basis.sigma_weights) * v
    data_norm = float(np.linalg.norm(b))
    n = kappas.size
    q, r = np.linalg.qr(_weighted_traces(basis, n), mode="complete")
    beta = q.T @ b
    tail = np.sqrt(np.append(np.cumsum(np.abs(beta[::-1]) ** 2)[::-1], 0.0))
    fitted = np.isfinite(kappas)
    if delta_tilde > 0:
        fitted &= ~(kappas * delta_tilde > data_norm)
    if not fitted.any():
        raise SmoothingError(
            f"all candidate levels rejected (kappa * delta_tilde above data norm {data_norm:.3e})"
        )
    residuals = np.where(fitted, tail[1:n + 1], np.nan)
    idx = np.flatnonzero(fitted)   # level L = idx + 1
    threshold = max(DISCREPANCY_FACTOR * delta_tilde, 1e-12 * max(data_norm, 1.0))
    below = idx[residuals[idx] <= threshold]
    chosen = 1 + int(below[0] if below.size
                     else idx[np.argmin(residuals[idx] + kappas[idx] * delta_tilde)])
    coeffs = np.zeros(basis.J, dtype=complex)
    coeffs[:chosen] = np.linalg.solve(r[:chosen, :chosen], beta[:chosen])
    return SmoothingResult(coeffs=coeffs, level=chosen, residuals=residuals)


# ---------------------------------------------------------------------------
# tau(delta) schedule and the convergence sweep
# ---------------------------------------------------------------------------


def check_schedule(tau0: float, tau_min: float, tau_max: float, ratio: float,
                   tolerance: float, sigma0: float, beta: float, T: float, T0: float,
                   orti_check: float) -> None:
    """Raise TheoremHypothesisError naming every rule the tau(delta) schedule
    breaks: tau0 >= 0, tau0 + tau_min > 0, ratio > 1, tau0 + tau_min < tau_max,
    tolerance > 0 and tau_max <= sigma0*beta; tau0 = 0 needs T0 = T and
    orti_check < 1."""
    bad = []
    if not tau0 >= 0:
        bad.append(f"tau0 {tau0!r} must be nonnegative")
    elif tau0 == 0.0:
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
    if not tolerance > 0:
        bad.append(f"tolerance {tolerance!r} must be positive")
    if not tau_max <= sigma0 * beta:
        bad.append(f"tau_max {tau_max!r} above sigma0*beta leaves the admissible range")
    if bad:
        raise TheoremHypothesisError("; ".join(bad))


def tau_grid(tau0: float, tau_min: float, tau_max: float, ratio: float) -> np.ndarray:
    """Geometric grid from tau0 + tau_min up to tau_max, for a schedule that
    passes check_schedule."""
    lo = tau0 + tau_min
    n = int(np.floor(np.log(tau_max / lo) / np.log(ratio))) + 1
    # lo * ratio**(n - 1) may round one ulp above tau_max, outside the schedule
    grid = np.minimum(lo * ratio ** np.arange(n), tau_max)
    if grid[-1] < tau_max * (1 - 1e-12):
        grid = np.append(grid, tau_max)
    return grid


def _pick_tau(delta: float, tau0: float, cbar, ctilde, tolerance: float) -> int | None:
    """Grid index of tau(delta) from the scored grid: the first tau with
    max(cbar, ctilde)(tau) * sqrt(delta) <= tolerance * max(cbar, ctilde)(tau_max),
    the top of the grid if none.  The rule sends tau(delta) monotonically to
    the bottom of the grid while max(cbar, ctilde)(tau(delta)) * delta -> 0.
    Noiseless data take the bottom, or None when tau0 > 0: they need no
    relaxation-time offset and take tau0 itself."""
    if delta == 0.0 and tau0 > 0.0:
        return None
    c = np.where(ctilde > cbar, ctilde, cbar)   # max(cbar, ctilde), nan as max() treats it
    limit = tolerance * c[-1] / np.sqrt(delta) if delta > 0 else np.inf
    below = np.flatnonzero(c <= limit)
    return int(below[0]) if below.size else c.size - 1


@dataclass(frozen=True, eq=False)
class SweepRow:
    delta: float
    tau: float
    error_x: float
    bound: float
    cbar: float
    ctilde: float
    status: str
    fit_rel_residual: float   # ||y - U U^H y|| / ||y|| of the row's fit, nan on a failed row
    fit_cond: float           # condition number of the row's fit design, nan on a failed row


def time_derivative_norm(du, omega: float, lambdas, spec: NormSpec) -> float:
    """Bochner norm of the time derivative of the state pair: each harmonic
    coefficient is scaled by i m omega."""
    du = np.asarray(du, dtype=complex)
    m = np.arange(1, du.shape[1] + 1)
    return bochner_norm(du * (1j * m * omega)[None, :, None], omega, lambdas,
                        spec.orti_check, spec.s_check)


def run_sweep(basis: EigenBasis, sp: SourcePair, params0: ModelParams,
              spec: NormSpec, truth: LinearizedInput, delta_list, tau0: float,
              seed: int, tau_min: float, tau_max: float, ratio: float,
              tolerance: float) -> list[SweepRow]:
    """Convergence experiment for the relaxation-time regularization.

    Data are generated by the linearized model at relaxation time tau0 (the
    strongly damped quadratic symbols when tau0 = 0), perturbed by exactly
    delta in the lifted observation norm, and inverted with the model at
    tau(delta).  Each row records the preimage-norm error and the calibrated
    bound max(cbar, ctilde)(tau) * (delta + (tau - tau0) * |du_t|); the
    calibration factor is fitted once on a pilot noise level, 3 delta_max
    with seed - 1, and held fixed.  A schedule that fails check_schedule
    raises before any row is computed.

    The pilot and every row are computed together in batched passes.  The
    tau grid is scored once, and each level takes tau(delta), cbar and
    ctilde from it by the rule of `_pick_tau`.  One noise pass perturbs
    every level (`_noisy_rows`); the fit is factored at all distinct taus
    at once (`build_fit_maps`) and applied once per tau to the levels
    there; one `x_norm` scores every level.  A typed failure fails only the
    rows it touches (a row's noise or a tau's factorization), as a
    `failed: ...` row; a failure of the pilot raises.
    """
    consts = (params0.sigma0, params0.beta, params0.T, params0.T0, spec.orti_check)
    check_schedule(tau0, tau_min, tau_max, ratio, tolerance, *consts)
    grid = tau_grid(tau0, tau_min, tau_max, ratio)
    # each entry equals the constant at the float grid[i] bit for bit
    cbars, ctildes = compute_cbar(grid, *consts), compute_ctilde(grid, *consts)
    data = linearized_forward(sp, params0.with_tau(tau0), basis, truth)
    dt_norm = time_derivative_norm(truth.du, params0.omega, basis.lambdas, spec)
    deltas = sorted((float(d) for d in delta_list), reverse=True)
    pilot = int(deltas[0] > 0)   # the pilot level, when there is one, is level 0
    levels = [3.0 * deltas[0]] * pilot + deltas
    seeds = [seed - 1] * pilot + [seed + i for i in range(len(deltas))]
    picks = [_pick_tau(delta, tau0, cbars, ctildes, tolerance) for delta in levels]
    taus = [float(tau0 if i is None else grid[i]) for i in picks]

    phat, errors = _noisy_rows(data.phat, levels, seeds, basis, spec.s, params0.omega)
    at_tau = {}
    for k, (tau, err) in enumerate(zip(taus, errors)):
        if err is None:
            at_tau.setdefault(tau, []).append(k)
    a = np.empty((len(levels),) + truth.a.shape, dtype=complex)
    b = np.empty((len(levels),) + truth.du.shape, dtype=complex)
    rel, cond = np.full(len(levels), np.nan), np.full(len(levels), np.nan)
    fit_maps = build_fit_maps(sp, basis, params0, data.phat.shape[-2], list(at_tau))
    for fm, rows in zip(fit_maps, at_tau.values()):
        if isinstance(fm, HarmtomoError):  # a typed failure stays in the table
            for k in rows:
                errors[k] = fm
            continue
        rec = apply_fit_map(fm, LinearizedData(rhat=data.rhat, phat=phat[rows]))
        a[rows], b[rows], rel[rows], cond[rows] = rec.a, rec.b, rec.fit_rel_residual, fm.fit_cond
    if pilot and errors[0] is not None:
        raise errors[0]
    ok = [k for k, err in enumerate(errors) if err is None]
    err_x = dict(zip(ok, map(float, x_norm(a[ok] - truth.a, b[ok] - truth.du, basis.lambdas,
                                              params0.omega, spec))))

    def raw(k: int):
        """The row's uncalibrated bound, cbar and ctilde."""
        i, tau = picks[k], taus[k]
        if i is None:
            cbar, ctil = compute_cbar(tau, *consts), compute_ctilde(tau, *consts)
        else:
            cbar, ctil = float(cbars[i]), float(ctildes[i])
        return max(cbar, ctil) * (levels[k] + (tau - tau0) * dt_norm), cbar, ctil

    calibration = 1.0
    if pilot:
        raw_p = raw(0)[0]
        calibration = CALIBRATION_SAFETY * err_x[0] / raw_p if raw_p > 0 else 1.0

    out = []
    for k in range(pilot, len(levels)):
        if errors[k] is None:
            bound, cbar, ctil = raw(k)
            out.append(SweepRow(delta=levels[k], tau=taus[k], error_x=err_x[k],
                                bound=calibration * bound, cbar=cbar, ctilde=ctil,
                                status="ok", fit_rel_residual=float(rel[k]),
                                fit_cond=float(cond[k])))
        else:
            nan, exc = float("nan"), errors[k]
            out.append(SweepRow(delta=levels[k], tau=nan, error_x=nan, bound=nan, cbar=nan,
                                ctilde=nan, status=f"failed: {type(exc).__name__}: {exc}",
                                fit_rel_residual=nan, fit_cond=nan))
    return out
