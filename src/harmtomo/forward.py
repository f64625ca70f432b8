"""Frequency-domain multiharmonic model: diagonal symbols, the harmonic
product coupling, the nonlinear fixed-point solve, and trace observations.

A real time-periodic field u(x, t) = Re(sum_m u_m(x) exp(i m omega t)) obeys,
harmonic by harmonic,

    L_m(sigma) u_m + eta * B_m(u, u) = r_m,      m = 1..M,

where L_m acts diagonally on the eigenbasis and B_m is the m-th harmonic
coefficient of the pointwise product of the two real signals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis
from .errors import ConvergenceError, ResonanceError
from .fields import ModelParams

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


@functools.lru_cache
def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length numpy's real FFT handles without a
    slow prime factor; scipy.fft.next_fast_len(n, real=True) gives the same.
    Cached, so a solve's sweeps look it up instead of recomputing it."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


def _time_samples(c, n: int) -> np.ndarray:
    """n uniform time samples of the real zero-mean signals whose positive
    harmonics c run along axis 0 (harmonic m at index m - 1)."""
    spec = np.zeros((c.shape[0] + 1,) + c.shape[1:], dtype=complex)
    spec[1:] = 0.5 * c
    return np.fft.irfft(spec, n, axis=0, norm="forward")


def _harmonics(samples, m_top: int) -> np.ndarray:
    """Mean (index 0) and harmonics 1..m_top (index m) of real uniform time
    samples along axis 0."""
    out = np.fft.rfft(samples, axis=0, norm="forward")[: m_top + 1]
    out[1:] *= 2.0
    return out


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
    n = _fast_len(Ma + Mb + m_top + 1)
    sa = _time_samples(a, n)
    sb = sa if b is a else _time_samples(b, n)
    prod = _harmonics(sa * sb, m_top)
    out = np.zeros((m_out + 1,) + prod.shape[1:], dtype=complex)
    out[: m_top + 1] = prod
    return out


@dataclass(frozen=True, eq=False)
class CouplingMap:
    """The part of the model that is not diagonal on the eigenbasis,
    u -> P[(sigma - sigma0) u + eta B(u, u)] with P the quadrature projection,
    as three matrices built once per (basis, sigma, eta), with sigma and eta
    given on the quadrature grid (nq,).

    The slowness term is linear in u, so it is one Galerkin matrix.  In the
    eta term, projection and synthesis act on the grid axis and the time
    transform on the harmonic axis, so the time transforms run on the J
    coefficient columns and the grid is visited once per time sample.
    """

    k_sigma: np.ndarray   # (J, J) phi diag(w (sigma - sigma0)) phi^T
    phi: np.ndarray       # (J, nq) synthesis onto the quadrature grid
    eta_proj: np.ndarray  # (nq, J) eta-weighted projection diag(w eta) phi^T


def coupling_map(params: ModelParams, basis: EigenBasis, sigma, eta) -> CouplingMap:
    phi, w = basis.phi, basis.weights
    return CouplingMap(k_sigma=(phi * (w * (sigma - params.sigma0))) @ phi.T,
                       phi=phi, eta_proj=(w * eta)[:, None] * phi.T)


def apply_coupling(cmap: CouplingMap, u) -> np.ndarray:
    """P[(sigma - sigma0) u + eta B(u, u)] for the coefficients u (M, J), every
    harmonic m = 1..M.

    The eta term samples u in time from its coefficients, synthesizes the
    samples on the grid, squares them, applies the eta-weighted projection and
    keeps harmonics 1..M.  The square reaches harmonic 2M, so n > 3M samples
    keep every aliased frequency off the kept harmonics.
    """
    M = u.shape[0]
    grid = _time_samples(u, _fast_len(3 * M + 1)) @ cmap.phi  # (n, nq)
    grid *= grid
    return u @ cmap.k_sigma + _harmonics(grid @ cmap.eta_proj, M)[1:]


def _nonresonant_symbols(params: ModelParams, lambdas, M: int) -> np.ndarray:
    """symbols_matrix, raising ResonanceError where a symbol vanishes."""
    sym = symbols_matrix(params, lambdas, M)
    mag = np.abs(sym)
    if np.min(mag, initial=np.inf) <= RESONANCE_TOL:
        m_bad, j_bad = np.unravel_index(int(np.argmin(mag)), mag.shape)
        raise ResonanceError(m_bad + 1, int(j_bad), float(mag[m_bad, j_bad]))
    return sym


def nonlinear_model(params: ModelParams, basis: EigenBasis, sigma, eta, u) -> np.ndarray:
    """L_m(sigma) u_m + eta B_m(u, u) for every harmonic m = 1..M, with sigma
    and eta on the quadrature grid (nq,).

    L_m(sigma0) acts through its diagonal symbols; the variable part of sigma
    and the eta coupling through the `coupling_map` built for this call.
    """
    uc = np.asarray(u, dtype=complex)
    return (symbols_matrix(params, basis.lambdas, uc.shape[0]) * uc
            + apply_coupling(coupling_map(params, basis, sigma, eta), uc))


def model_residual(params: ModelParams, basis: EigenBasis, sigma, eta, u, rhat) -> np.ndarray:
    """Per-harmonic residual norms of L_m(sigma) u_m + eta B_m(u,u) - r_m.

    Re-evaluates the model from u alone, so the check shares no state with
    the solver sweep.
    """
    res = nonlinear_model(params, basis, sigma, eta, u) - np.asarray(rhat, dtype=complex)
    return np.sqrt(np.sum(np.abs(res) ** 2, axis=1))


@dataclass(frozen=True)
class SolveReport:
    """How `solve_multiharmonic` reached its solution."""

    residual: np.ndarray  # (M,) per-harmonic model_residual the convergence check accepted
    sweeps: int           # fixed-point sweeps run, over both damping factors
    restarts: int         # 1 if the d = 0.5 restart ran, else 0


def solve_multiharmonic(params: ModelParams, basis: EigenBasis, sigma, eta, rhat,
                        tol: float = 1e-12, max_iter: int = 200) -> tuple[np.ndarray, SolveReport]:
    """Damped fixed point of L(sigma0) u = r - (sigma - sigma0) u - eta B(u, u)
    for sigma and eta on the quadrature grid (nq,).

    Each sweep sets u <- (1 - d) u + d L(sigma0)^(-1) (r - coupling), with the
    `coupling_map` built once per solve.  The nonlinearity must be small
    enough for contraction: the sweep runs at d = 1 and, if it stalls,
    restarts from L(sigma0)^(-1) r at d = 0.5 before raising.  Returns u and
    a `SolveReport` carrying its per-harmonic `model_residual`, the one the
    convergence check accepted.
    """
    r = np.asarray(rhat, dtype=complex)
    sym = _nonresonant_symbols(params, basis.lambdas, r.shape[0])
    cmap = coupling_map(params, basis, sigma, eta)
    sweeps = 0
    for restarts, d in enumerate((1.0, 0.5)):
        u = r / sym
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                u_new = (1.0 - d) * u + d * ((r - apply_coupling(cmap, u)) / sym)
                sweeps += 1
                step = np.max(np.abs(u_new - u))
                u = u_new
                if not np.isfinite(step) or step < 0.1 * tol:
                    break
            res = model_residual(params, basis, sigma, eta, u, r)
        if np.all(np.isfinite(res)) and np.max(res) <= tol:
            return u, SolveReport(residual=res, sweeps=sweeps, restarts=restarts)
    raise ConvergenceError(
        f"multiharmonic fixed point stalled: max residual {np.max(res):.3e} > tol {tol:.1e}"
    )


def observe(basis: EigenBasis, u) -> np.ndarray:
    """Trace samples p_m(x0) = sum_j u_m^j phi_j(x0) for x0 in Sigma."""
    return np.asarray(u, dtype=complex) @ basis.trace_matrix

