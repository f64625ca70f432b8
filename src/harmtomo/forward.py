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
# slowness-term applications per sweep, against one eta-term evaluation
SLOWNESS_SWEEPS = 3


def harmonic_symbol(params: ModelParams, m: int, lam, tau=None):
    """Diagonal symbol of L_m(sigma0) at eigenvalue lam.

    (i m^3 w^3 tau + m^2 w^2 sigma0 - lam (1 + i beta m w)) / (m^2 w^2).
    Equals (vartheta(o_m) + Theta(o_m) lam) / o_m^2 with o_m = i m w.
    The relaxation time is params.tau unless tau is given; an array of
    them broadcasts against m and lam like they do against each other.
    """
    w = params.omega
    mw2 = (m * w) ** 2
    tau = params.tau if tau is None else tau
    return (1j * m**3 * w**3 * tau + mw2 * params.sigma0
            - np.asarray(lam) * (1.0 + 1j * params.beta * m * w)) / mw2


def symbols_matrix(params: ModelParams, lambdas, M: int, taus=None) -> np.ndarray:
    """(M, J) table of harmonic symbols; with relaxation times taus (k,) in
    place of params.tau, the (k, M, J) table of every one, each slice equal
    bit for bit to the (M, J) table at its tau."""
    lambdas = np.asarray(lambdas, dtype=float)
    m = np.arange(1, M + 1)[:, None]
    if taus is None:
        return harmonic_symbol(params, m, lambdas[None, :])
    taus = np.asarray(taus, dtype=float)[:, None, None]
    return harmonic_symbol(params, m, lambdas[None, :], taus)


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


def eta_term(cmap: CouplingMap, u) -> np.ndarray:
    """P[eta B(u, u)] for the coefficients u (..., M, J), every harmonic
    m = 1..M.

    Samples u in time from its coefficients, synthesizes the samples on the
    grid, squares them, applies the eta-weighted projection and keeps
    harmonics 1..M.  The square reaches harmonic 2M, so n > 3M samples keep
    every aliased frequency off the kept harmonics.  Leading batch axes ride
    on the trailing axis of the time transforms, so the transforms see the
    harmonics on axis 0 and the grid is visited once per time sample and
    member.
    """
    M, J = u.shape[-2:]
    batch = u.shape[:-2]
    n = _fast_len(3 * M + 1)
    cols = np.moveaxis(u, -2, 0).reshape(M, -1)                 # (M, batch * J)
    grid = _time_samples(cols, n).reshape(-1, J) @ cmap.phi    # (n * batch, nq)
    grid *= grid
    out = _harmonics((grid @ cmap.eta_proj).reshape(n, -1), M)[1:]
    return np.moveaxis(out.reshape((M,) + batch + (J,)), 0, -2)


def apply_coupling(cmap: CouplingMap, u) -> np.ndarray:
    """P[(sigma - sigma0) u + eta B(u, u)] for the coefficients u (..., M, J),
    every harmonic m = 1..M: the slowness term `u k_sigma` plus `eta_term`."""
    return u @ cmap.k_sigma + eta_term(cmap, u)


def resonance(sym) -> ResonanceError | None:
    """The ResonanceError of a symbols table (M, J) whose smallest symbol
    vanishes, naming that symbol; None when none does."""
    mag = np.abs(sym)
    if np.min(mag, initial=np.inf) <= RESONANCE_TOL:
        m_bad, j_bad = np.unravel_index(int(np.argmin(mag)), mag.shape)
        return ResonanceError(m_bad + 1, int(j_bad), float(mag[m_bad, j_bad]))
    return None


def _nonresonant_symbols(params: ModelParams, lambdas, M: int) -> np.ndarray:
    """symbols_matrix, raising ResonanceError where a symbol vanishes."""
    sym = symbols_matrix(params, lambdas, M)
    err = resonance(sym)
    if err is not None:
        raise err
    return sym


def nonlinear_model(params: ModelParams, basis: EigenBasis, sigma, eta, u) -> np.ndarray:
    """L_m(sigma) u_m + eta B_m(u, u) for every harmonic m = 1..M of u
    (..., M, J), with sigma and eta on the quadrature grid (nq,).

    L_m(sigma0) acts through its diagonal symbols; the variable part of sigma
    and the eta coupling through the `coupling_map` built for this call.
    """
    uc = np.asarray(u, dtype=complex)
    return (symbols_matrix(params, basis.lambdas, uc.shape[-2]) * uc
            + apply_coupling(coupling_map(params, basis, sigma, eta), uc))


def model_residual(params: ModelParams, basis: EigenBasis, sigma, eta, u, rhat) -> np.ndarray:
    """Per-harmonic residual norms (..., M) of L_m(sigma) u_m + eta B_m(u,u) - r_m.

    Re-evaluates the model from u alone, so the check shares no state with
    the solver sweep.
    """
    res = nonlinear_model(params, basis, sigma, eta, u) - np.asarray(rhat, dtype=complex)
    return np.sqrt(np.sum(np.abs(res) ** 2, axis=-1))


@dataclass(frozen=True)
class SolveReport:
    """How `solve_multiharmonic` reached its solution, per member of the batch
    (0-d arrays for a single drive)."""

    residual: np.ndarray   # (..., M) per-harmonic model_residual the convergence check accepted
    sweeps: np.ndarray     # (...) fixed-point sweeps run, over both damping factors
    restarts: np.ndarray   # (...) 1 if the d = 0.5 restart ran, else 0


def _sweeps(cmap: CouplingMap, sym, r, d: float, tol: float, max_iter: int):
    """Damped fixed-point sweeps from L(sigma0)^(-1) r for the members r
    (B, M, J); a member stops on its own step and leaves the batch.  Returns
    u (B, M, J) and the sweeps each member ran.

    A sweep evaluates the eta term once and applies the slowness term
    SLOWNESS_SWEEPS times against it, each application damped by d; the last
    one sets the sweep's update, u <- (1 - d) u + d (r - eta term - v
    k_sigma) / symbol, so SLOWNESS_SWEEPS = 1 is the plain damped sweep.
    """
    u = r / sym
    count = np.zeros(len(r), dtype=int)
    live = np.arange(len(r))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            ul = u[live]
            rhs = r[live] - eta_term(cmap, ul)
            v = ul
            for _ in range(SLOWNESS_SWEEPS - 1):
                v = (1.0 - d) * v + d * ((rhs - v @ cmap.k_sigma) / sym)
            u_new = (1.0 - d) * ul + d * ((rhs - v @ cmap.k_sigma) / sym)
            step = np.max(np.abs(u_new - ul), axis=(-2, -1))
            u[live] = u_new
            count[live] += 1
            live = live[np.isfinite(step) & ~(step < 0.1 * tol)]
            if not live.size:
                break
    return u, count


def solve_multiharmonic(params: ModelParams, basis: EigenBasis, sigma, eta, rhat,
                        tol: float = 1e-12, max_iter: int = 200) -> tuple[np.ndarray, SolveReport]:
    """Damped fixed point of L(sigma0) u = r - (sigma - sigma0) u - eta B(u, u)
    for sigma and eta on the quadrature grid (nq,) and the drives rhat
    (..., M, J), each member of the leading batch axes solved on its own.

    The `coupling_map` is built once per solve.  Each sweep evaluates the eta
    term once and converges the cheap slowness term against it (`_sweeps`).
    The nonlinearity must be small enough for contraction: the sweeps run at
    d = 1 and a member that fails the residual check restarts alone from
    L(sigma0)^(-1) r at d = 0.5; if it fails again, ConvergenceError.
    Returns u and a `SolveReport` carrying each member's per-harmonic
    `model_residual`, the one the convergence check accepted.
    """
    r = np.asarray(rhat, dtype=complex)
    batch, (M, J) = r.shape[:-2], r.shape[-2:]
    r = r.reshape(-1, M, J)
    sym = _nonresonant_symbols(params, basis.lambdas, M)
    cmap = coupling_map(params, basis, sigma, eta)
    u = np.empty_like(r)
    res = np.empty(r.shape[:-1])
    sweeps = np.zeros(len(r), dtype=int)
    restarts = np.zeros(len(r), dtype=int)
    todo = np.arange(len(r))
    for k, d in enumerate((1.0, 0.5)):
        restarts[todo] = k
        u[todo], n = _sweeps(cmap, sym, r[todo], d, tol, max_iter)
        sweeps[todo] += n
        with np.errstate(over="ignore", invalid="ignore"):
            res[todo] = model_residual(params, basis, sigma, eta, u[todo], r[todo])
        worst = np.max(res[todo], axis=-1)
        todo = todo[~(np.isfinite(worst) & (worst <= tol))]
        if not todo.size:
            break
    else:
        raise ConvergenceError(f"multiharmonic fixed point stalled: max residual "
                               f"{np.max(res[todo]):.3e} > tol {tol:.1e}")
    return u.reshape(batch + (M, J)), SolveReport(res.reshape(batch + (M,)),
                                                  sweeps.reshape(batch), restarts.reshape(batch))


def observe(basis: EigenBasis, u) -> np.ndarray:
    """Trace samples p_m(x0) = sum_j u_m^j phi_j(x0) for x0 in Sigma."""
    return np.asarray(u, dtype=complex) @ basis.trace_matrix

