"""Characteristic poles of the frequency-domain transfer function.

For each eigenvalue lam the poles solve vartheta(p) + Theta(p) lam = 0 with
vartheta(p) = tau p^3 + sigma0 p^2 and Theta(p) = beta p + 1, a cubic for
tau > 0 and a quadratic in the strongly damped limit tau = 0.  One upper
half-plane root per eigenvalue drives the residue reconstruction; its real
part is confined to [-alpha/tau, 0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonOscillatoryError, PoleSelectionError, StabilityViolationError
from .fields import ModelParams

IMAG_SELECT_TOL = 1e-14


def vartheta(o, params: ModelParams):
    o = np.asarray(o, dtype=complex)
    return params.tau * o**3 + params.sigma0 * o**2


def big_theta(o, params: ModelParams):
    o = np.asarray(o, dtype=complex)
    return params.beta * o + 1.0


def psi_transfer_prime(o, params: ModelParams):
    """Closed-form derivative of the transfer Psi(o) = -vartheta(o)/Theta(o),
    whose level sets Psi(p_l) = lam_l are the poles:
    (vartheta Theta' - vartheta' Theta) / Theta^2."""
    o = np.asarray(o, dtype=complex)
    th = vartheta(o, params)
    th_p = 3.0 * params.tau * o**2 + 2.0 * params.sigma0 * o
    Th = big_theta(o, params)
    return (th * params.beta - th_p * Th) / Th**2


def characteristic_roots(lam: float, params: ModelParams) -> np.ndarray:
    """All roots of the characteristic polynomial, via companion-matrix
    eigenvalues (3 roots for tau > 0, 2 for the tau = 0 quadratic)."""
    if params.tau > 0:
        coeffs = [params.tau, params.sigma0, params.beta * lam, lam]
    else:
        coeffs = [params.sigma0, params.beta * lam, lam]
    return np.roots(coeffs)


def pole_asymptotic(lam: float, params: ModelParams) -> complex:
    """Two-term closed-form estimate -alpha/tau + sqrt(-(beta/tau) lam
    + 2 alpha/(tau beta) + alpha^2/tau^2), upper half-plane branch."""
    if params.tau <= 0:
        raise NonOscillatoryError("asymptotic form needs tau > 0")
    a = params.alpha / params.tau
    arg = -(params.beta / params.tau) * lam + 2.0 * params.alpha / (params.tau * params.beta) + a * a
    if arg >= 0:
        raise NonOscillatoryError(
            f"lambda={lam:.6g} below the oscillatory regime (sqrt argument {arg:.3g} >= 0)"
        )
    return complex(-a, np.sqrt(-arg))


def select_pole(roots, lam: float, params: ModelParams) -> complex:
    """Upper half-plane root nearest the asymptotic estimate.

    The real root is never selected (it approaches -1/beta, the zero of
    Theta, and belongs to the spurious branch).  Raises when no root has
    positive imaginary part, which happens for small eigenvalues.
    """
    roots = np.asarray(roots, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(roots))))
    upper = roots[roots.imag > IMAG_SELECT_TOL * scale]
    if upper.size == 0:
        raise PoleSelectionError(lam)
    if upper.size == 1:
        return complex(upper[0])
    try:
        target = pole_asymptotic(lam, params)
    except NonOscillatoryError:
        return complex(upper[np.argmax(upper.imag)])
    return complex(upper[np.argmin(np.abs(upper - target))])


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Selected poles over a batch of eigenvalues.

    ok marks eigenvalues that carry an admissible upper half-plane pole;
    the others (for example lam = 0) are excluded from residue-based
    reconstruction and from the pole-weighted norms.
    """

    lambdas: np.ndarray      # (L,)
    poles: np.ndarray        # (L,) complex, nan where not ok
    roots: np.ndarray        # (L, 3) complex (third column nan for tau = 0)
    asymptotic: np.ndarray   # (L,) complex, nan where unavailable
    ok: np.ndarray           # (L,) bool

    @property
    def n_ok(self) -> int:
        return int(np.count_nonzero(self.ok))


def build_pole_set(lambdas, params: ModelParams, strict: bool = False) -> PoleSet:
    lambdas = np.asarray(lambdas, dtype=float)
    L = lambdas.size
    poles = np.full(L, np.nan + 1j * np.nan, dtype=complex)
    allroots = np.full((L, 3), np.nan + 1j * np.nan, dtype=complex)
    asym = np.full(L, np.nan + 1j * np.nan, dtype=complex)
    ok = np.zeros(L, dtype=bool)
    for i, lam in enumerate(lambdas):
        roots = characteristic_roots(lam, params)
        allroots[i, : roots.size] = roots
        try:
            asym[i] = pole_asymptotic(lam, params)
        except NonOscillatoryError:
            pass
        try:
            poles[i] = select_pole(roots, lam, params)
            ok[i] = True
        except PoleSelectionError:
            if strict:
                raise
    return PoleSet(lambdas=lambdas, poles=poles, roots=allroots, asymptotic=asym, ok=ok)


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
