"""Norms and bounds for the stability and regularization statements.

Conventions: coefficient-space Bochner norms weight harmonic m by |m omega|
raised to the temporal order and eigenvalue lam by lam^s; the weight lam^s at
lam = 0 is 0 for s > 0 and 1 for s = 0, so the constant mode carries no
smoothness seminorm weight.  The combined image-space norm is the sum
Yobs + Ymod of the two displayed pieces, the product-space combination under
which the unit-bound linearized stability estimate is an exact triangle
inequality.
"""

from __future__ import annotations

import numpy as np

from .eigenbasis import EigenBasis, trace_right_inverse
from .fields import ModelParams, NormSpec
from .forward import _nonresonant_symbols
from .poles import PoleSet
from .reconstruct import pole_table, residue_term
from .sources import SourcePair


def rho_t(x, T: float):
    """Reciprocal exponential mass (integral_0^T exp(-x t) dt)^(-1).

    Equals x / (1 - exp(-x T)), with the removable value 1/T at x = 0;
    positive for every real x.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    small = np.abs(x) * T < 1e-9
    out[small] = 1.0 / T + x[small] / 2.0
    with np.errstate(over="ignore"):
        xt = x[~small]
        out[~small] = xt / (-np.expm1(-xt * T))
    return out if out.shape else float(out)


def _lam_weight(lambdas, s: float) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=float)
    return np.power(lam, s)  # 0**0 == 1 keeps the s = 0 case a plain l2 weight


def bochner_norm(u, omega: float, lambdas, orti: float, s: float) -> float:
    """Coefficient-space Bochner-Sobolev norm
    (sum_m |m omega|^(2 orti) sum_j lam_j^s |c_m^j|^2)^(1/2);
    leading axes (for example the source index) are summed as well."""
    c = np.asarray(u, dtype=complex)
    M = c.shape[-2]
    mw = (np.arange(1, M + 1) * omega) ** (2.0 * orti)
    lw = _lam_weight(lambdas, s)
    return float(np.sqrt(np.sum(mw[:, None] * lw[None, :] * np.abs(c) ** 2)))


def x_norm(a, du, lambdas, omega: float, spec: NormSpec) -> float:
    """Preimage norm: H^s of both coefficient channels plus the state pair in
    the mixed (orti_check, s_check) Bochner norm."""
    a = np.asarray(a)
    lw = _lam_weight(lambdas, spec.s)
    coef_sq = float(np.sum(lw[:, None] * np.abs(a) ** 2))
    state = bochner_norm(du, omega, lambdas, spec.orti_check, spec.s_check)
    return float(np.sqrt(coef_sq + state**2))


def _pole_weight(params: ModelParams, lambdas, M: int, spec: NormSpec) -> np.ndarray:
    """w[m, l] = |o_m|^(4 + 2 orti) lam_l^(s_check) / |vartheta + Theta lam|^2,
    written through the resonance-guarded harmonic symbols."""
    sym = _nonresonant_symbols(params, lambdas, M)
    mw = (np.arange(1, M + 1) * params.omega) ** (2.0 * spec.orti_check)
    lw = _lam_weight(lambdas, spec.s_check)
    return mw[:, None] * lw[None, :] / np.abs(sym) ** 2


def _image_terms(q, r, ok, M: int, spec: NormSpec, sp: SourcePair,
                 basis: EigenBasis, params: ModelParams) -> tuple[float, float]:
    """The image-norm pieces sum_l sum_m w[m, l] |M_m q_l - r_m^l|^2 and
    sum_l lam_l^s |q_l|^2 over the admissible modes ok, for pole values
    q (n_ok, 2) and model residues r (2, M, n_ok) or 0."""
    w = _pole_weight(params, basis.lambdas, M, spec)[:, ok]      # (M, n_ok)
    lam_s = _lam_weight(basis.lambdas, spec.s)[ok]
    diff = np.einsum("mef,kf->emk", sp.mm[:M], q) - r            # (2, M, n_ok)
    term1 = float(np.sum(w * np.sum(np.abs(diff) ** 2, axis=0)))
    term2 = float(np.sum(lam_s * np.sum(np.abs(q) ** 2, axis=1)))
    return term1, term2


def ymod_terms(rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
               basis: EigenBasis, params: ModelParams,
               pole_values=None) -> tuple[float, float]:
    """The two squared pieces of the model-side image norm, with
    q_l = Mtilde(p_l)^(-1) rtilde^l(p_l) and r = rhat.

    pole_values, a (J, 2) array, optionally overrides q_l on the modes with
    an admissible pole (used by the cancellation self-test)."""
    rhat = np.asarray(rhat, dtype=complex)
    t = pole_table(pole_set, sp, params)
    if pole_values is None:
        q = t.model_term(rhat)                                   # (n_ok, 2)
    else:
        q = np.asarray(pole_values, dtype=complex)[t.ok]
    return _image_terms(q, rhat[:, :, t.ok], t.ok, rhat.shape[1], spec, sp, basis, params)


def ymod_norm(rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
              basis: EigenBasis, params: ModelParams) -> float:
    t1, t2 = ymod_terms(rhat, spec, sp, pole_set, basis, params)
    return float(np.sqrt(t1 + t2))


def yobs_terms(residues, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
               basis: EigenBasis, params: ModelParams,
               M: int | None = None) -> tuple[float, float]:
    """The observation-side image-norm pieces, q_l = Theta Psi'/p^2
    TrInv[Mtilde^(-1) res_l] and r = 0.  M is the harmonic range of the first
    double sum (defaults to the source truncation)."""
    t = pole_table(pole_set, sp, params)
    return _image_terms(residue_term(residues, t, basis), 0.0, t.ok, M or sp.M,
                        spec, sp, basis, params)


def yobs_norm(residues, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
              basis: EigenBasis, params: ModelParams, M: int | None = None) -> float:
    t1, t2 = yobs_terms(residues, spec, sp, pole_set, basis, params, M=M)
    return float(np.sqrt(t1 + t2))


def ytilde_obs_norm(phat, basis: EigenBasis, s: float, omega: float) -> float:
    """Realistic observation norm: W^(1,1)-in-time, H^(s+1)-in-space surrogate
    of the lifted trace data.

    The lift extends the data eigenspace by eigenspace; the time part uses
    the harmonic weight sum_m (1 + m omega) |coefficient|, an upper bound for
    band-limited signals.  For a data pair the larger of the two per-source
    values is returned, matching the per-observation noise constraint.
    """
    phat = np.asarray(phat, dtype=complex)
    if phat.ndim == 2:
        phat = phat[None]
    lifted = phat @ trace_right_inverse(basis, np.arange(basis.J)).T   # (nsrc, M, J)
    M = phat.shape[1]
    tw = 1.0 + np.arange(1, M + 1) * omega
    lw = _lam_weight(basis.lambdas, s + 1.0)
    per_m = np.sqrt(np.sum(lw[None, None, :] * np.abs(lifted) ** 2, axis=2))  # (nsrc, M)
    vals = np.sum(tw[None, :] * per_m, axis=1)
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# Amplification bound
# ---------------------------------------------------------------------------


def j_amplification(chi: float, m: int, lam, params: ModelParams):
    """|o_m|^(4 + 2 chi) / J_m^chi(lam) with
    J_m^chi(lam) = |vartheta(o_m) + Theta(o_m) lam|^2 lam^chi."""
    lam = np.asarray(lam, dtype=float)
    om2 = (m * params.omega) ** 2
    a2 = params.beta**2 * om2 + 1.0
    b = params.tau * params.beta * om2**2 + params.sigma0 * om2
    d2 = params.tau**2 * om2**3 + params.sigma0**2 * om2**2
    jval = (a2 * lam**2 - 2.0 * b * lam + d2) * np.power(lam, chi)
    return om2 ** (2.0 + chi) / jval


def j_bound_constant(chi: float, params: ModelParams) -> float:
    """Uniform bound (2 + chi)/(2 sigma0^2) (1 + 1/(beta omega)^2)
    (1 - tau/(beta sigma0))^(-2) * (beta/tau)^chi."""
    ratio = params.tau / (params.beta * params.sigma0)
    if ratio >= 1.0:
        raise ValueError("amplification bound degenerates for tau >= beta*sigma0")
    if chi > 0 and params.tau == 0.0:
        raise ValueError("chi > 0 requires tau > 0")
    chat = ((2.0 + chi) / (2.0 * params.sigma0**2)
            * (1.0 + 1.0 / (params.beta * params.omega) ** 2)
            * (1.0 - ratio) ** -2)
    scale = 1.0 if chi == 0 else (params.beta / params.tau) ** chi
    return float(chat * scale)


def j_bound(chi: float, m: int, lam, params: ModelParams):
    """Slack of the amplification bound; nonnegative when the bound holds."""
    return j_bound_constant(chi, params) - j_amplification(chi, m, lam, params)
