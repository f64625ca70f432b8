"""Characteristic poles of the frequency-domain transfer function.

For each eigenvalue lam the poles solve vartheta(p) + Theta(p) lam = 0 with
vartheta(p) = tau p^3 + sigma0 p^2 and Theta(p) = beta p + 1, a cubic for
tau > 0 and a quadratic in the strongly damped limit tau = 0.  One upper
half-plane root per eigenvalue carries the pole-weighted image norms; its
real part is confined to [-alpha/tau, 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StabilityViolationError
from .fields import ModelParams

IMAG_SELECT_TOL = 1e-14


def characteristic_roots(lambdas, params: ModelParams) -> np.ndarray:
    """All roots of the characteristic polynomial for each eigenvalue, shape
    lambdas.shape + (3,) for tau > 0 or + (2,) for the tau = 0 quadratic.

    One np.linalg.eigvals call on the stacked companion matrices, built as
    np.roots builds them (first row -c[1:]/c[0], ones below the diagonal), so
    the roots of each eigenvalue are bit-identical to np.roots of its
    coefficients (up to order at lam = 0, where np.roots strips the zero roots).
    """
    lam = np.asarray(lambdas, dtype=float)
    if params.tau > 0:
        lead, rest = params.tau, (params.sigma0, params.beta * lam, lam)
    else:
        lead, rest = params.sigma0, (params.beta * lam, lam)
    n = len(rest)
    comp = np.zeros(lam.shape + (n, n))
    for c, coeff in enumerate(rest):
        comp[..., 0, c] = -coeff / lead
    comp[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(comp)


def asymptotic_poles(lambdas, params: ModelParams) -> np.ndarray:
    """Two-term closed-form estimate -alpha/tau + sqrt(-(beta/tau) lam
    + 2 alpha/(tau beta) + alpha^2/tau^2), upper half-plane branch, per
    eigenvalue; nan where tau = 0 or lam is below the oscillatory regime
    (the sqrt argument is >= 0)."""
    lam = np.asarray(lambdas, dtype=float)
    out = np.full(lam.shape, np.nan + 1j * np.nan, dtype=complex)
    if params.tau > 0:
        a = params.alpha / params.tau
        arg = -(params.beta / params.tau) * lam + 2.0 * params.alpha / (params.tau * params.beta) + a * a
        osc = arg < 0
        out.real[osc] = -a
        out.imag[osc] = np.sqrt(-arg[osc])
    return out


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Selected poles over a batch of eigenvalues.

    ok marks eigenvalues that carry an admissible upper half-plane pole;
    the others (for example lam = 0) are excluded from the pole-weighted
    norms.
    """

    lambdas: np.ndarray      # (L,)
    poles: np.ndarray        # (L,) complex, nan where not ok
    ok: np.ndarray           # (L,) bool

    @property
    def n_ok(self) -> int:
        return int(np.count_nonzero(self.ok))


def build_pole_set(lambdas, params: ModelParams) -> PoleSet:
    """Select the upper half-plane root of each eigenvalue's characteristic
    polynomial.

    The coefficients are real, so the roots are real or come in conjugate
    pairs (np.linalg.eigvals returns them as exact pairs): an eigenvalue has
    at most one root with positive imaginary part, and it is the root of
    largest imaginary part.  The real root is never selected (it approaches
    -1/beta, the zero of Theta, and belongs to the spurious branch).
    Eigenvalues without such a root (for example lam = 0) are not ok.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    L = lambdas.size
    roots = characteristic_roots(lambdas, params)
    scale = np.maximum(1.0, np.max(np.abs(roots), axis=-1))
    ok = np.any(roots.imag > IMAG_SELECT_TOL * scale[:, None], axis=-1)
    top = roots[np.arange(L), np.argmax(roots.imag, axis=-1)]
    poles = np.where(ok, top, np.nan + 1j * np.nan)
    return PoleSet(lambdas=lambdas, poles=poles, ok=ok)


def verify_bounds(pole_set: PoleSet, params: ModelParams) -> dict:
    """Fit the smallest constant closing both pole bounds.

    Checks Re(p) <= 0 (hard failure otherwise), fits C so that
    -Re(p_l) <= (alpha/tau)(1 + C/lam_l) and the modulus sandwich
    sqrt(beta lam / tau) (1 -+ C alpha / lam) hold for every admissible
    eigenvalue, and reports the slack.  For alpha = 0 the poles must be
    purely imaginary with modulus sqrt(beta lam / tau).
    """
    if params.tau <= 0:
        raise ValueError("pole bounds require tau > 0")
    lam = pole_set.lambdas[pole_set.ok]
    p = pole_set.poles[pole_set.ok]
    if lam.size == 0:
        raise ValueError("no admissible poles to verify")
    scale = np.maximum(np.abs(p), 1.0)
    max_re = float(np.max(p.real / scale))
    if max_re > 1e-12:
        raise StabilityViolationError(f"pole with positive real part found (relative size {max_re:.3e})")
    alpha = params.alpha
    ref_mod = np.sqrt(params.beta * lam / params.tau)
    mod_dev = np.abs(np.abs(p) / ref_mod - 1.0)
    if alpha <= 1e-14:
        return {
            "alpha": alpha,
            "fitted_c": 0.0,
            "max_re": float(np.max(p.real)),
            "max_abs_re": float(np.max(np.abs(p.real))),
            "max_mod_dev": float(np.max(mod_dev)),
        }
    need_re = np.maximum(0.0, (-p.real * params.tau / alpha - 1.0)) * lam
    need_mod = mod_dev * lam / alpha
    fitted = float(max(np.max(need_re), np.max(need_mod)))
    return {
        "alpha": alpha,
        "fitted_c": fitted,
        "max_re": float(np.max(p.real)),
        "max_need_re": float(np.max(need_re)),
        "max_need_mod": float(np.max(need_mod)),
        "max_mod_dev": float(np.max(mod_dev)),
    }


def bound_slack(pole_set: PoleSet, params: ModelParams, c: float) -> np.ndarray:
    """Per-eigenvalue slack of the real-part bound with a given constant."""
    lam = pole_set.lambdas
    out = np.full(lam.shape, np.nan)
    okm = pole_set.ok
    if params.tau > 0 and np.any(okm):
        rhs = (params.alpha / params.tau) * (1.0 + np.where(lam[okm] > 0, c / lam[okm], np.inf))
        out[okm] = rhs - (-pole_set.poles[okm].real)
    return out
