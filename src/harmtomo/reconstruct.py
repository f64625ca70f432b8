"""Linearized forward map and its inversion from trace data.

At the separable reference state the linearized model decouples per basis
mode j into

    (vartheta(o_m) + Theta(o_m) lam_j) b_m^j + o_m^2 (M_m a^j - r_m^j) = 0,

so trace data admit a meromorphic continuation in the frequency variable o
whose poles sit at the characteristic roots.  The inversion needs no pole: it
solves the truncated system for the coefficient pairs a^j = (a_sigma, a_eta)
directly from the traces (`fit_coefficients`), and the states follow
componentwise from the pairs (`solve_states_from_coeffs`).  Of the reference
state the map and its inverse read only the source pair's matrices M_m, so
they take the `SourcePair`.

Everything but the data's own terms depends on (basis, params, source pair,
M) alone: `build_fit_maps` factors it into one `FitMap` per relaxation time
of a list, from one symbols table over the taus and one stacked SVD, and
`apply_fit_map` inverts any data set with a map.  `build_fit_map` is the
one-tau case and `reconstruct` that map applied in one call; the sweep
factors all of its distinct taus at once and applies each map once, to the
noise levels at that tau stacked.

The linearized map, the fit and the state formula take leading batch axes on
their data, (..., 2, M, J) for model residues and states and (..., J, 2) for
coefficient pairs, and map a batch of draws in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import EigenBasis, synthesize
from .errors import (HarmtomoError, IllConditionedFitError, UnderdeterminedFitError,
                     VanishingDivisorError)
from .fields import ModelParams
from .forward import observe, resonance, symbols_matrix
from .sources import SourcePair, invert_mtilde

PHI_GUARD = 1e-6
FIT_COND_LIMIT = 1e12
ANALYTIC_DEGREE = 2        # degree in 1/o of the fit's smooth remainder


@dataclass(frozen=True, eq=False)
class LinearizedInput:
    """Perturbation pair: the coefficient pairs of (phi*dsigma, phi^2*deta)
    and the state perturbation pair du (sources x harmonics x modes)."""

    a: np.ndarray   # (..., J, 2) real
    du: np.ndarray  # (..., 2, M, J) complex


@dataclass(frozen=True, eq=False)
class LinearizedData:
    rhat: np.ndarray  # (..., 2, M, J) complex model residues
    phat: np.ndarray  # (..., 2, M, ns) complex trace observations


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    a: np.ndarray    # (..., J, 2) recovered coefficient pair
    b: np.ndarray    # (..., 2, M, J) recovered states
    fit_cond: float  # condition number of the fit's design
    fit_rel_residual: np.ndarray  # (...) ||y - U U^H y|| / ||y|| of the fitted data


def _pair_product(mm, a) -> np.ndarray:
    """M_m a^j (..., 2, M, J) for the source matrices mm (M, 2, 2) and the
    coefficient pairs a (..., J, 2): the sum of its two broadcast terms."""
    t = mm.transpose(1, 0, 2)[..., None]                     # (e, m, q, 1)
    return t[:, :, 0] * a[..., None, None, :, 0] + t[:, :, 1] * a[..., None, None, :, 1]


def linearized_forward(sp: SourcePair, params: ModelParams, basis: EigenBasis,
                       lin: LinearizedInput) -> LinearizedData:
    """Apply the derivative of the forward map at the reference state:
    r_m = L_m(sigma0) du_m + (phi dsigma) psi_m + (phi^2 deta) (psi^2)_m,
    p_m = traces of du_m."""
    du = lin.du
    M = du.shape[-2]
    sym = symbols_matrix(params, basis.lambdas, M)
    mm = sp.mm[:M]
    rhat = sym * du
    rhat += _pair_product(mm, lin.a)
    phat = observe(basis, du)
    return LinearizedData(rhat=rhat, phat=phat)


def check_fit_determined(M: int, J: int, ns: int) -> None:
    """The fit's design has M ns rows, one per (harmonic, trace point), and
    J + (ANALYTIC_DEGREE + 1) ns unknowns; with fewer rows than unknowns its
    least-squares solution is not unique, and UnderdeterminedFitError."""
    cols = J + (ANALYTIC_DEGREE + 1) * ns
    if M * ns < cols:
        raise UnderdeterminedFitError(
            f"the fit has {M * ns} rows (M = {M} harmonics x {ns} trace points) for {cols} "
            f"unknowns (J = {J} modes + {ANALYTIC_DEGREE + 1} x {ns} remainder columns); "
            f"it needs M >= {-(-cols // ns)}")


@dataclass(frozen=True, eq=False)
class FitMap:
    """The fit's data-free part for one (basis, params, source pair, M): the
    symbols, M_m^(-1) and the design's SVD factors.  `fit_coefficients`
    applies it to any number of data sets; `apply_fit_map` adds the states."""

    sym: np.ndarray           # (M, J) harmonic symbols, none resonant
    D: np.ndarray             # (M, J) 1 / sym
    mm: np.ndarray            # (M, 2, 2) source-pair matrices M_m
    mm_inv: np.ndarray        # (M, 2, 2) M_m^(-1)
    trace_matrix: np.ndarray  # (J, ns) the basis traces
    u: np.ndarray             # (M ns, k) left singular vectors U of the design
    uh: np.ndarray            # (k, M ns) U^H
    sv: np.ndarray            # (k,) singular values
    vj: np.ndarray            # (J, k) mode rows of V
    fit_cond: float           # condition number of the design


def build_fit_maps(sp: SourcePair, basis: EigenBasis, params: ModelParams, M: int,
                   taus) -> list:
    """Factor the fit's design at every relaxation time in taus, the other
    model values from params, in one pass.

    After applying M_m^(-1) and subtracting the known model-residue part, the
    trace data are y[e, m, x] = -sum_j D[m, j] tr_j(x) a^j_e with
    D = 1/symbol.  The design stacks the rows (m, x): one column
    -D[:, j] tr_j per mode, and per trace point a smooth remainder of degree
    ANALYTIC_DEGREE in 1/o_m, o_m = i m omega.  One SVD gives both the
    condition number and the map from data to coefficients; none of it
    reads the data.

    The symbols come as one (k, M, J) table over the taus and the designs
    are factored by one stacked SVD; M_m^(-1), the remainder block and the
    traces are built once.  Returns one entry per tau: its FitMap, or in
    its place the typed error its design raises, UnderdeterminedFitError at
    every tau when the design has fewer rows than columns
    (`check_fit_determined`), ResonanceError where a symbol vanishes and
    IllConditionedFitError where the condition number exceeds
    FIT_COND_LIMIT.  Each map equals bit for bit the one a call with that
    tau alone gives.
    """
    ns, J = basis.nsigma, basis.J
    try:
        check_fit_determined(M, J, ns)
    except UnderdeterminedFitError as exc:
        return [exc] * len(taus)
    sym = symbols_matrix(params, basis.lambdas, M, taus)           # (k, M, J)
    maps = [resonance(s) for s in sym]
    good = [t for t, err in enumerate(maps) if err is None]
    D = 1.0 / sym[good]                                            # (g, M, J)
    mm = sp.mm[:M]
    mm_inv = invert_mtilde(mm)
    o_m = 1j * np.arange(1, M + 1) * params.omega
    powers = (1.0 / o_m)[:, None] ** np.arange(ANALYTIC_DEGREE + 1)      # (M, deg + 1)
    remainder = np.kron(powers, np.eye(ns))
    G = np.empty((len(good), M * ns, J + remainder.shape[1]), dtype=complex)   # rows (m, x)
    G[..., :J] = (-D[:, :, None, :] * basis.trace_matrix.T).reshape(len(good), M * ns, J)
    G[..., J:] = remainder
    u, sv, vh = np.linalg.svd(G, full_matrices=False)
    for k, t in enumerate(good):
        cond = float(sv[k, 0] / sv[k, -1])
        maps[t] = IllConditionedFitError(cond) if cond > FIT_COND_LIMIT else FitMap(
            sym=sym[t], D=D[k], mm=mm, mm_inv=mm_inv, trace_matrix=basis.trace_matrix,
            u=u[k], uh=np.conj(u[k]).T, sv=sv[k], vj=np.conj(vh[k, :, :J]).T, fit_cond=cond)
    return maps


def build_fit_map(sp: SourcePair, basis: EigenBasis, params: ModelParams, M: int) -> FitMap:
    """The fit's design factored once at params.tau: the one-tau case of
    `build_fit_maps`, raising the error it reports in place of the map."""
    fm, = build_fit_maps(sp, basis, params, M, [params.tau])
    if isinstance(fm, HarmtomoError):
        raise fm
    return fm


def fit_coefficients(fm: FitMap, phat, rhat) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient pairs a (..., J, 2) by linear least squares on the
    truncated system, and the fit's relative residual ||y - U U^H y|| / ||y||
    per draw (...).  Leading batch axes of the data are further right-hand
    sides of the one factored design."""
    phat = np.asarray(phat, dtype=complex)
    rhat = np.asarray(rhat, dtype=complex)
    M, ns = fm.D.shape[0], fm.trace_matrix.shape[1]
    s = np.einsum("mef,...fmj->...emj", fm.mm_inv, rhat)        # (..., 2, M, J)
    known = np.einsum("mj,...emj,jx->...emx", fm.D, s, fm.trace_matrix)
    y = np.einsum("mef,...fmx->...emx", fm.mm_inv, phat) - known  # (..., 2, M, ns)
    rhs = np.moveaxis(y, -3, -1).reshape(y.shape[:-3] + (M * ns, 2))
    c = fm.uh @ rhs
    y_norm = np.linalg.norm(rhs, axis=(-2, -1))
    rel = np.linalg.norm(rhs - fm.u @ c, axis=(-2, -1)) / np.where(y_norm > 0, y_norm, 1.0)
    return fm.vj @ (c / fm.sv[:, None]), rel


def solve_states_from_coeffs(a, rhat, sym, mm) -> np.ndarray:
    """Componentwise state formula b_m^j = (r_m^j - M_m a^j) / symbol(m, lam_j),
    with the nonresonant symbols `sym` (M, J) of the fit's map.

    Pole-free: the denominators vartheta(o_m) + Theta(o_m) lam_j never vanish
    for admissible parameters off the resonance set.
    """
    rhat = np.asarray(rhat, dtype=complex)
    a = np.asarray(a, dtype=complex)
    return (rhat - _pair_product(mm, a)) / sym


def assemble_fields(basis: EigenBasis, a, phi_grid, guard: float = PHI_GUARD):
    """Pointwise division to pull dsigma and deta off the recovered fields."""
    phi_grid = np.asarray(phi_grid, dtype=float)
    if np.min(np.abs(phi_grid)) < guard:
        raise VanishingDivisorError(
            f"reference profile passes within {np.min(np.abs(phi_grid)):.2e} of zero; "
            "coefficient division is unreliable"
        )
    a = np.asarray(a)
    dsig = np.real(synthesize(basis, a[:, 0])) / phi_grid
    deta = np.real(synthesize(basis, a[:, 1])) / phi_grid**2
    return dsig, deta


def apply_fit_map(fm: FitMap, data: LinearizedData) -> ReconstructionResult:
    """Inversion of one data set, or a batch, with a factored fit: the
    coefficient pairs fitted to the traces, and the states from them."""
    a, rel = fit_coefficients(fm, data.phat, data.rhat)
    b = solve_states_from_coeffs(a, data.rhat, fm.sym, fm.mm)
    return ReconstructionResult(a=a, b=b, fit_cond=fm.fit_cond, fit_rel_residual=rel)


def reconstruct(data: LinearizedData, sp: SourcePair, basis: EigenBasis,
                params: ModelParams) -> ReconstructionResult:
    """Full inversion: the fit factored for these data's M, then applied."""
    return apply_fit_map(build_fit_map(sp, basis, params, data.phat.shape[-2]), data)
