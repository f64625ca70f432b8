"""Frequency-domain multiharmonic model: diagonal symbols, the harmonic
product coupling, the nonlinear fixed-point solve, and trace observations.

A real time-periodic field u(x, t) = Re(sum_m u_m(x) exp(i m omega t)) obeys,
harmonic by harmonic,

    L_m(sigma) u_m + eta * B_m(u, u) = r_m,      m = 1..M,

where L_m acts diagonally on the eigenbasis and B_m is the m-th harmonic
coefficient of the pointwise product of the two real signals.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .eigenbasis import EigenBasis, project, synthesize
from .errors import ConvergenceError, ResonanceError
from .fields import MaterialField, ModelParams

RESONANCE_TOL = 1e-12


def harmonic_symbol(params: ModelParams, m: int, lam):
    """Diagonal symbol of L_m(sigma0) at eigenvalue lam.

    (i m^3 w^3 tau + m^2 w^2 sigma0 - lam (1 + i beta m w)) / (m^2 w^2).
    Equals (vartheta(o_m) + Theta(o_m) lam) / o_m^2 with o_m = i m w.
    """
    w = params.omega
    mw2 = (m * w) ** 2
    return (1j * m**3 * w**3 * params.tau + mw2 * params.sigma0
            - np.asarray(lam) * (1.0 + 1j * params.beta * m * w)) / mw2


def symbols_matrix(params: ModelParams, lambdas, M: int) -> np.ndarray:
    """(M, J) table of harmonic symbols."""
    lambdas = np.asarray(lambdas, dtype=float)
    return harmonic_symbol(params, np.arange(1, M + 1)[:, None], lambdas[None, :])


def harmonic_product_time(a_hat, b_hat, m_out: int | None = None) -> np.ndarray:
    """Mean and harmonics 1..m_out of the product of two real signals.

    a_hat and b_hat hold the positive-harmonic coefficients of zero-mean real
    signals along axis 0 (harmonic m at index m - 1); the other axes
    broadcast.  The result has m_out + 1 entries along axis 0 (default
    m_out = max(Ma, Mb)): the mean of the product at index 0, harmonic m at
    index m.

    Alternating frequency/time scheme: both signals are synthesized on n
    uniform samples, multiplied pointwise and transformed back.  With
    n > Ma + Mb + m_out no product frequency aliases onto a kept harmonic, so
    the result is exact for these band-limited inputs; harmonics above
    Ma + Mb are exactly zero.
    """
    a = np.asarray(a_hat, dtype=complex)
    b = a if b_hat is a_hat else np.asarray(b_hat, dtype=complex)
    Ma, Mb = a.shape[0], b.shape[0]
    m_out = max(Ma, Mb) if m_out is None else m_out
    m_top = min(m_out, Ma + Mb)
    # irfft drops input harmonics at or above n/2; with n > Ma + Mb + m_top those
    # only reach product harmonics above m_out, directly or by aliasing
    n = sfft.next_fast_len(Ma + Mb + m_top + 1, real=True)

    def samples(c):
        spec = np.zeros((c.shape[0] + 1,) + c.shape[1:], dtype=complex)
        spec[1:] = 0.5 * c
        return sfft.irfft(spec, n, axis=0, norm="forward")

    sa = samples(a)
    sb = sa if b is a else samples(b)
    prod = sfft.rfft(sa * sb, axis=0, norm="forward")[: m_top + 1]
    prod[1:] *= 2.0
    out = np.zeros((m_out + 1,) + prod.shape[1:], dtype=complex)
    out[: m_top + 1] = prod
    return out


def convolve_bm_grid(basis: EigenBasis, u, v, m_out: int | None = None) -> np.ndarray:
    """Quadrature-grid values of every harmonic of the pointwise product.

    Inputs share the basis and truncation; the coupling is symmetric and
    bilinear.  Keeping grid values lets callers multiply by a coefficient
    field before the single final projection.
    """
    uc, vc = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    if uc.shape != vc.shape:
        raise ValueError("fields must share truncation")
    ug = synthesize(basis, uc)  # (M, nq)
    vg = ug if (vc is uc or np.array_equal(vc, uc)) else synthesize(basis, vc)
    return harmonic_product_time(ug, vg, m_out)[1:]


def convolve_bm_all(basis: EigenBasis, u, v, m_out: int | None = None) -> np.ndarray:
    """All harmonics of the pointwise product, projected on the basis."""
    return project(basis, convolve_bm_grid(basis, u, v, m_out=m_out))


def _nonresonant_symbols(params: ModelParams, lambdas, M: int) -> np.ndarray:
    """symbols_matrix, raising ResonanceError where a symbol vanishes."""
    sym = symbols_matrix(params, lambdas, M)
    mag = np.abs(sym)
    if np.min(mag) <= RESONANCE_TOL:
        m_bad, j_bad = np.unravel_index(int(np.argmin(mag)), mag.shape)
        raise ResonanceError(m_bad + 1, int(j_bad), float(mag[m_bad, j_bad]))
    return sym


def solve_linear_harmonics(params: ModelParams, lambdas, rhat) -> np.ndarray:
    """Diagonal solve L_m(sigma0) u_m = r_m; raises on resonant symbols."""
    r = np.asarray(rhat, dtype=complex)
    return r / _nonresonant_symbols(params, lambdas, r.shape[0])


def _grid_term(params: ModelParams, basis: EigenBasis, sigma: MaterialField,
               eta: MaterialField, u) -> np.ndarray:
    """(sigma - sigma0) u + eta B(u, u) on the quadrature grid, every harmonic.

    The part of the model that is not diagonal on the eigenbasis; callers
    project it once.
    """
    return ((sigma.values - params.sigma0) * synthesize(basis, u)
            + eta.values * convolve_bm_grid(basis, u, u))


def nonlinear_model(params: ModelParams, basis: EigenBasis, sigma: MaterialField,
                    eta: MaterialField, u) -> np.ndarray:
    """L_m(sigma) u_m + eta B_m(u, u) for every harmonic m = 1..M.

    L_m(sigma0) acts through its diagonal symbols; the variable part of sigma
    and the eta coupling are summed on the grid and projected once.
    """
    uc = np.asarray(u, dtype=complex)
    return (symbols_matrix(params, basis.lambdas, uc.shape[0]) * uc
            + project(basis, _grid_term(params, basis, sigma, eta, uc)))


def model_residual(params: ModelParams, basis: EigenBasis, sigma: MaterialField,
                   eta: MaterialField, u, rhat) -> np.ndarray:
    """Per-harmonic residual norms of L_m(sigma) u_m + eta B_m(u,u) - r_m.

    Re-evaluates the model from u alone, so the check shares no state with
    the solver sweep.
    """
    res = nonlinear_model(params, basis, sigma, eta, u) - np.asarray(rhat, dtype=complex)
    return np.sqrt(np.sum(np.abs(res) ** 2, axis=1))


def solve_multiharmonic(params: ModelParams, basis: EigenBasis, sigma: MaterialField,
                        eta: MaterialField, rhat, tol: float = 1e-12,
                        max_iter: int = 200) -> np.ndarray:
    """Damped fixed point of L(sigma0) u = r - (sigma - sigma0) u - eta B(u, u).

    Each sweep sets u <- (1 - d) u + d L(sigma0)^(-1) (r - grid term), the
    grid term projected once.  The nonlinearity must be small enough for
    contraction: the sweep runs at d = 1 and, if it stalls, restarts from
    L(sigma0)^(-1) r at d = 0.5 before raising.
    """
    r = np.asarray(rhat, dtype=complex)
    sym = _nonresonant_symbols(params, basis.lambdas, r.shape[0])
    for d in (1.0, 0.5):
        u = r / sym
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                rhs = r - project(basis, _grid_term(params, basis, sigma, eta, u))
                u_new = (1.0 - d) * u + d * (rhs / sym)
                step = np.max(np.abs(u_new - u))
                u = u_new
                if not np.isfinite(step) or step < 0.1 * tol:
                    break
            res = model_residual(params, basis, sigma, eta, u, r)
        if np.all(np.isfinite(res)) and np.max(res) <= tol:
            return u
    raise ConvergenceError(
        f"multiharmonic fixed point stalled: max residual {np.max(res):.3e} > tol {tol:.1e}"
    )


def observe(basis: EigenBasis, u) -> np.ndarray:
    """Trace samples p_m(x0) = sum_j u_m^j phi_j(x0) for x0 in Sigma."""
    return np.asarray(u, dtype=complex) @ basis.trace_matrix


def synthesize_time(u, omega: float, t) -> np.ndarray:
    """Real time signal Re(sum_m u_m exp(i m omega t)) on a time grid."""
    c = np.asarray(u, dtype=complex)
    t = np.asarray(t, dtype=float)
    m = np.arange(1, c.shape[0] + 1)
    phases = np.exp(1j * omega * np.outer(m, t))  # (M, nt)
    return np.real(np.tensordot(c, phases, axes=([0], [0])))
