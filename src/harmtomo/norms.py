"""Norms and bounds for the stability and regularization statements.

Conventions: coefficient-space Bochner norms weight harmonic m by |m omega|
raised to the temporal order and eigenvalue lam by lam^s; the weight lam^s at
lam = 0 is 0 for s > 0 and 1 for s = 0, so the constant mode carries no
smoothness seminorm weight.  The combined image-space norm is the sum
Yobs + Ymod of the two displayed pieces, the product-space combination under
which the unit-bound linearized stability estimate is an exact triangle
inequality.

The preimage and image norms take leading batch axes on their data and
return one value per draw: a float without batch axes, an array with them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis, trace_right_inverse
from .fields import ModelParams, NormSpec
from .forward import _nonresonant_symbols
from .poles import PoleSet
from .sources import SourcePair, interp_kernels, invert_mtilde, mtilde_from_kernels


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


def _per_draw(x):
    """A float for a 0-d result, the array itself for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def _bochner_sq(u, omega: float, lambdas, orti: float, s: float) -> np.ndarray:
    """Entrywise |m omega|^(2 orti) lam_j^s |c_m^j|^2 of coefficients (..., M, J)."""
    c = np.asarray(u, dtype=complex)
    mw = (np.arange(1, c.shape[-2] + 1) * omega) ** (2.0 * orti)
    return mw[:, None] * _lam_weight(lambdas, s) * np.abs(c) ** 2


def bochner_norm(u, omega: float, lambdas, orti: float, s: float) -> float:
    """Coefficient-space Bochner-Sobolev norm
    (sum_m |m omega|^(2 orti) sum_j lam_j^s |c_m^j|^2)^(1/2);
    leading axes (for example the source index) are summed as well."""
    return float(np.sqrt(np.sum(_bochner_sq(u, omega, lambdas, orti, s))))


def x_norm(a, du, lambdas, omega: float, spec: NormSpec):
    """Preimage norm of a (..., J, 2) and du (..., 2, M, J): H^s of both
    coefficient channels plus the state pair in the mixed (orti_check,
    s_check) Bochner norm, summed over the last three axes of du."""
    lw = _lam_weight(lambdas, spec.s)
    coef_sq = np.sum(lw[:, None] * np.abs(np.asarray(a)) ** 2, axis=(-2, -1))
    state_sq = np.sum(_bochner_sq(du, omega, lambdas, spec.orti_check, spec.s_check),
                      axis=(-3, -2, -1))
    return _per_draw(np.sqrt(coef_sq + state_sq))


def _pole_weight(params: ModelParams, lambdas, M: int, spec: NormSpec) -> np.ndarray:
    """w[m, l] = |o_m|^(4 + 2 orti) lam_l^(s_check) / |vartheta + Theta lam|^2,
    written through the resonance-guarded harmonic symbols."""
    sym = _nonresonant_symbols(params, lambdas, M)
    mw = (np.arange(1, M + 1) * params.omega) ** (2.0 * spec.orti_check)
    lw = _lam_weight(lambdas, spec.s_check)
    return mw[:, None] * lw[None, :] / np.abs(sym) ** 2


@dataclass(frozen=True, eq=False)
class PoleTable:
    """The data-independent algebra of the image norms at every admissible
    pole, stacked along the leading axis in the order of `ok`.

    The interpolation kernels turn rtilde^l(p_l) for every mode into one
    contraction over harmonics (see `rtilde_ok`).  Arrays are read-only: one
    table is shared by every consumer of the same pole set.
    """

    ok: np.ndarray      # (n_ok,) indices of the modes with an admissible pole
    p: np.ndarray       # (n_ok,) complex poles p_l
    mt: np.ndarray      # (n_ok, 2, 2) Mtilde(p_l)
    mt_inv: np.ndarray  # (n_ok, 2, 2) Mtilde(p_l)^(-1)
    kp: np.ndarray      # (n_ok, M) kernel of the positive harmonics at p_l
    km: np.ndarray      # (n_ok, M) kernel of their conjugates
    mt_cond: np.ndarray  # (n_ok,) condition numbers of Mtilde(p_l)

    def rtilde_ok(self, r) -> np.ndarray:
        """rtilde^l(p_l) = (2/T) integral r^l(t) exp(-p_l t) dt from the model
        residues restricted to the admissible modes, r (..., 2, M, n_ok):
        (..., n_ok, 2).

        The conjugate harmonics enter as conj(r . conj(km)), equal elementwise
        to conj(r) . km, so only the small result is conjugated."""
        M = r.shape[-2]
        return (np.einsum("...emk,km->...ke", r, self.kp[:, :M])
                + np.conj(np.einsum("...emk,km->...ke", r, np.conj(self.km[:, :M]))))

    def model_term_ok(self, r) -> np.ndarray:
        """Mtilde(p_l)^(-1) rtilde^l(p_l) on each admissible mode from the model
        residues restricted to the admissible modes, r (..., 2, M, n_ok):
        (..., n_ok, 2)."""
        return np.einsum("kef,...kf->...ke", self.mt_inv, self.rtilde_ok(r))


@functools.lru_cache(maxsize=8)
def pole_table(pole_set: PoleSet, sp: SourcePair, params: ModelParams) -> PoleTable:
    """Build the per-pole table once per (pole set, source pair, parameters).

    Pole sets and source pairs compare by identity and parameters by value,
    so repeated calls with the same objects return the same table.
    """
    ok = np.flatnonzero(pole_set.ok)
    p = pole_set.poles[ok]
    kp, km, k0 = interp_kernels(p, 2 * sp.M, params.omega, params.T)
    mt = mtilde_from_kernels(sp, kp, km, k0)
    # contiguous copies, so the einsums of rtilde_ok see the layout they always had
    kp, km = np.ascontiguousarray(kp[:, :sp.M]), np.ascontiguousarray(km[:, :sp.M])
    table = PoleTable(ok=ok, p=p, mt=mt, mt_inv=invert_mtilde(mt), kp=kp, km=km,
                      mt_cond=np.linalg.cond(mt))
    for arr in vars(table).values():
        arr.setflags(write=False)
    return table


def _image_terms(q, r, ok, M: int, spec: NormSpec, sp: SourcePair,
                 basis: EigenBasis, params: ModelParams):
    """The image-norm pieces sum_l sum_m w[m, l] |M_m q_l - r_m^l|^2 and
    sum_l lam_l^s |q_l|^2 over the admissible modes ok, for pole values
    q (..., n_ok, 2) and model residues r (..., 2, M, n_ok) or 0."""
    w = _pole_weight(params, basis.lambdas, M, spec)[:, ok]      # (M, n_ok)
    lam_s = _lam_weight(basis.lambdas, spec.s)[ok]
    diff = np.einsum("mef,...kf->...emk", sp.mm[:M], q, order="C")     # (..., 2, M, n_ok)
    diff -= r
    term1 = np.sum(w * np.sum(np.abs(diff) ** 2, axis=-3), axis=(-2, -1))
    term2 = np.sum(lam_s * np.sum(np.abs(q) ** 2, axis=-1), axis=-1)
    return _per_draw(term1), _per_draw(term2)


def ymod_terms(rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
               basis: EigenBasis, params: ModelParams):
    """The two squared pieces of the model-side image norm of rhat
    (..., 2, M, J), with q_l = Mtilde(p_l)^(-1) rtilde^l(p_l) and r = rhat."""
    rhat = np.asarray(rhat, dtype=complex)
    t = pole_table(pole_set, sp, params)
    r = rhat[..., t.ok]                                          # (..., 2, M, n_ok)
    return _image_terms(t.model_term_ok(r), r, t.ok, rhat.shape[-2], spec, sp, basis, params)


def ymod_norm(rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
              basis: EigenBasis, params: ModelParams):
    t1, t2 = ymod_terms(rhat, spec, sp, pole_set, basis, params)
    return _per_draw(np.sqrt(t1 + t2))


def yobs_terms(a, rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
               basis: EigenBasis, params: ModelParams):
    """The observation-side image-norm pieces of the coefficient pairs a
    (..., J, 2) with their model residues rhat (..., 2, M, J):
    q_l = a^l - Mtilde(p_l)^(-1) rtilde^l(p_l), which equals the residue term
    Theta Psi'/p^2 TrInv[Mtilde^(-1) res_l] of the data continuation, and r = 0."""
    rhat = np.asarray(rhat, dtype=complex)
    t = pole_table(pole_set, sp, params)
    q = np.asarray(a)[..., t.ok, :] - t.model_term_ok(rhat[..., t.ok])
    return _image_terms(q, 0.0, t.ok, rhat.shape[-2], spec, sp, basis, params)


def yobs_norm(a, rhat, spec: NormSpec, sp: SourcePair, pole_set: PoleSet,
              basis: EigenBasis, params: ModelParams):
    t1, t2 = yobs_terms(a, rhat, spec, sp, pole_set, basis, params)
    return _per_draw(np.sqrt(t1 + t2))


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
