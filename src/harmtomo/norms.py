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
    contraction over harmonics (see `rtilde_ok`).  A preset builds one table
    with `pole_table` and passes it to every norm it evaluates.
    """

    ok: np.ndarray      # (n_ok,) indices of the modes with an admissible pole
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


def pole_table(pole_set: PoleSet, sp: SourcePair, params: ModelParams) -> PoleTable:
    """The per-pole table of a pole set under a source pair and parameters."""
    ok = np.flatnonzero(pole_set.ok)
    p = pole_set.poles[ok]
    kp, km, k0 = interp_kernels(p, 2 * sp.M, params.omega, params.T)
    mt = mtilde_from_kernels(sp, kp, km, k0)
    # contiguous copies, so the einsums of rtilde_ok see the layout they always had
    kp, km = np.ascontiguousarray(kp[:, :sp.M]), np.ascontiguousarray(km[:, :sp.M])
    return PoleTable(ok=ok, mt_inv=invert_mtilde(mt), kp=kp, km=km, mt_cond=np.linalg.cond(mt))


def _image_terms(q, r, w, lam_s, mm):
    """The image-norm pieces sum_l sum_m w[m, l] |M_m q_l - r_m^l|^2 and
    sum_l lam_s[l] |q_l|^2 over the admissible modes, for pole values
    q (..., n_ok, 2), model residues r (..., 2, M, n_ok) or 0, the pole
    weights w (M, n_ok) and lam_l^s (n_ok,) of those modes, and the
    modulation matrices mm (M, 2, 2).

    The M_m are stacked source-major as a (2M, 2) matrix, so one matrix
    product gives M_m q_l for every draw, harmonic and mode; the squared
    moduli are re^2 + im^2."""
    M = mm.shape[0]
    mm2 = np.swapaxes(mm, 0, 1).reshape(2 * M, 2)                # row e M + m - 1: row e of M_m
    mq = mm2 @ np.swapaxes(q, -1, -2)                            # (..., 2M, n_ok)
    diff = mq.reshape(mq.shape[:-2] + (2, M, mq.shape[-1]))      # (..., 2, M, n_ok)
    diff -= r
    term1 = np.sum(w * np.sum(_abs2(diff), axis=-3), axis=(-2, -1))
    term2 = np.sum(lam_s * np.sum(_abs2(q), axis=-1), axis=-1)
    return _per_draw(term1), _per_draw(term2)


def _abs2(z):
    """|z|^2 of a complex array as re^2 + im^2."""
    return z.real ** 2 + z.imag ** 2


def image_norms(a, rhat, table: PoleTable, spec: NormSpec, sp: SourcePair,
                basis: EigenBasis, params: ModelParams):
    """The observation-side and model-side image norms (Yobs, Ymod) of the
    coefficient pairs a (..., J, 2) with their model residues rhat
    (..., 2, M, J), over the admissible modes of the table.

    Both read the model term Mtilde(p_l)^(-1) rtilde^l(p_l) of rhat.  Ymod
    takes q_l = that term against r = rhat; Yobs takes q_l = a^l minus it,
    which equals the residue term Theta Psi'/p^2 TrInv[Mtilde^(-1) res_l] of
    the data continuation, against r = 0."""
    rhat = np.asarray(rhat, dtype=complex)
    M, ok = rhat.shape[-2], table.ok
    r = rhat[..., ok]                                            # (..., 2, M, n_ok)
    model = table.model_term_ok(r)
    pieces = (_pole_weight(params, basis.lambdas, M, spec)[:, ok],
              _lam_weight(basis.lambdas, spec.s)[ok], sp.mm[:M])
    yobs = _image_terms(np.asarray(a)[..., ok, :] - model, 0.0, *pieces)
    ymod = _image_terms(model, r, *pieces)
    return tuple(_per_draw(np.sqrt(t1 + t2)) for t1, t2 in (yobs, ymod))


def ytilde_obs_norm(phat, basis: EigenBasis, s: float, omega: float):
    """Realistic observation norm: W^(1,1)-in-time, H^(s+1)-in-space surrogate
    of the lifted trace data.

    The lift extends the data eigenspace by eigenspace; the time part uses
    the harmonic weight sum_m (1 + m omega) |coefficient|, an upper bound for
    band-limited signals.  For a data pair the larger of the two per-source
    values is returned, matching the per-observation noise constraint.

    phat is one source's data (M, ns) or data sets (..., nsrc, M, ns) with
    leading batch axes, one value per data set: a float without batch axes,
    an array (...) with them.
    """
    phat = np.asarray(phat, dtype=complex)
    if phat.ndim == 2:
        phat = phat[None]
    lifted = phat @ trace_right_inverse(basis, np.arange(basis.J)).T   # (..., nsrc, M, J)
    M = phat.shape[-2]
    tw = 1.0 + np.arange(1, M + 1) * omega
    lw = _lam_weight(basis.lambdas, s + 1.0)
    per_m = np.sqrt(np.sum(lw * np.abs(lifted) ** 2, axis=-1))   # (..., nsrc, M)
    vals = np.sum(tw * per_m, axis=-1)
    return _per_draw(np.max(vals, axis=-1))
