"""Truncated eigensystems of the Robin Laplacian on interval and rectangle domains.

The operator is the negative Laplacian with boundary condition
d_nu(u) + gamma*u = 0 (gamma = 0 encodes Neumann).  Domains are restricted
to an interval and a rectangle with incommensurate sides, so every retained
eigenvalue is simple, eigenfunctions are closed-form trigonometric profiles,
and the trace restricted to each eigenspace is explicitly invertible.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import GridMismatchError, SpectrumError, TraceRankError

SPECTRAL_GAP_TOL = 1e-9
TRACE_RANK_TOL = 1e-9
MIN_QUAD_NODES = 32
OVERSAMPLING = 4
COMMENSURATE_QMAX = 64
COMMENSURATE_TOL = 1e-9


def commensurate(ratio: float) -> bool:
    """True if ratio is within COMMENSURATE_TOL of p/q for integers
    p, q <= COMMENSURATE_QMAX."""
    for q in range(1, COMMENSURATE_QMAX + 1):
        p = round(ratio * q)
        if 1 <= p <= COMMENSURATE_QMAX and abs(ratio - p / q) < COMMENSURATE_TOL:
            return True
    return False


@dataclass(frozen=True)
class DomainSpec:
    """Separable domain with Robin data and observation points.

    kind          "interval" or "rectangle"
    lengths       side lengths, one per dimension
    robin_gamma   interval: (gamma_left, gamma_right);
                  rectangle: ((gx0, gx1), (gy0, gy1))
    sigma_points  interval: boundary x values; rectangle: (x, y) pairs on the
                  boundary, or the string "side:y=0" for the full bottom side
    """

    kind: str
    lengths: tuple
    robin_gamma: tuple
    sigma_points: tuple | str

    def __post_init__(self):
        if self.kind not in ("interval", "rectangle"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not all(math.isfinite(L) and L > 0 for L in self.lengths):
            raise ValueError(f"domain lengths {self.lengths!r} must be finite and positive")
        if self.kind == "interval":
            if len(self.lengths) != 1 or len(self.robin_gamma) != 2:
                raise ValueError("interval needs one length and two Robin coefficients")
            gammas = self.robin_gamma
        else:
            if len(self.lengths) != 2:
                raise ValueError("rectangle needs two lengths")
            ratio = self.lengths[0] / self.lengths[1]
            if not (math.isfinite(ratio) and ratio > 0):
                raise ValueError(f"rectangle side ratio {ratio!r} of lengths {self.lengths!r} "
                                 "must be finite and nonzero")
            gx, gy = self.robin_gamma
            gammas = (*gx, *gy)
        if not all(math.isfinite(g) and g >= 0 for g in gammas):
            raise ValueError(f"Robin coefficients {self.robin_gamma!r} must be finite and "
                             "nonnegative")
        if self.kind == "rectangle" and commensurate(ratio):
            raise ValueError(
                f"rectangle side ratio is commensurate (p/q with p,q <= {COMMENSURATE_QMAX}); "
                "the truncated spectrum would not be simple"
            )
        if isinstance(self.sigma_points, str):
            if self.kind != "rectangle" or self.sigma_points != "side:y=0":
                raise ValueError("string sigma_points supports only rectangle 'side:y=0'")
        elif len(self.sigma_points) == 0:
            raise ValueError("sigma_points must be nonempty")
        elif not all(map(math.isfinite, self.sigma_points if self.kind == "interval"
                         else itertools.chain.from_iterable(self.sigma_points))):
            raise ValueError("sigma_points must be finite")


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Truncated orthonormal eigensystem with quadrature and trace data.

    phi holds eigenfunction values on the quadrature grid.  All eigenvalues
    are simple by domain choice.
    """

    domain: DomainSpec
    lambdas: np.ndarray        # (J,)
    phi: np.ndarray            # (J, nq)
    nodes: np.ndarray          # (nq, d)
    weights: np.ndarray        # (nq,)
    trace_matrix: np.ndarray   # (J, ns)
    sigma_nodes: np.ndarray    # (ns, d)
    sigma_weights: np.ndarray  # (ns,)

    @property
    def J(self) -> int:
        return self.lambdas.size

    @property
    def nquad(self) -> int:
        return self.weights.size

    @property
    def nsigma(self) -> int:
        return self.sigma_weights.size


# ---------------------------------------------------------------------------
# 1D Robin modes on [0, L]:  -phi'' = lam * phi,  -phi'(0) + g0 phi(0) = 0,
# phi'(L) + g1 phi(L) = 0.  Wavenumbers solve the secular equation
# (g0 + g1) k cos(kL) + (g0 g1 - k^2) sin(kL) = 0.
# ---------------------------------------------------------------------------


def _secular(k, L, g0, g1):
    return (g0 + g1) * k * np.cos(k * L) + (g0 * g1 - k * k) * np.sin(k * L)


def _secular_at(k: float, L: float, g0: float, g1: float) -> float:
    """_secular at one float through math.cos and math.sin, without numpy's
    per-call overhead.  The roots must equal those polished with _secular,
    which holds where numpy's float64 cos and sin are libm's bit for bit;
    test_wavenumber_scan_matches_loop checks it."""
    return (g0 + g1) * k * math.cos(k * L) + (g0 * g1 - k * k) * math.sin(k * L)


def _brentq(f, xa, xb, args, xtol, rtol, maxiter=100):
    """Root of f(x, *args) in [xa, xb] by Brent's method.

    Takes the steps of scipy.optimize.brentq (its brentq.c) one for one, in
    Python floats, so both return the same root; an in-package copy keeps
    scipy out of the import graph.  Raises SpectrumError if f is nan or has
    one sign at both ends, or if maxiter steps do not converge.
    """
    def call(x):
        fx = float(f(x, *args))
        if fx != fx:
            raise SpectrumError(f"secular function is nan at k={x!r}")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SpectrumError(f"no sign change of the secular function on [{xa!r}, {xb!r}]")
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):  # true on the first pass
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic extrapolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise SpectrumError(f"Robin wavenumber on [{xa!r}, {xb!r}] not converged in {maxiter} steps")


def _interval_wavenumbers(L, g0, g1, count, scan_density=64):
    """First `count` nonnegative wavenumbers: sign changes of the secular
    function on a scan grid bracket the roots, and Brent's method (`_brentq`)
    polishes each to xtol 1e-12."""
    if g0 == 0.0 and g1 == 0.0:
        return [j * np.pi / L for j in range(count)]
    kmax = (count + 3) * np.pi / L
    grid = np.linspace(1e-12, kmax, int(scan_density * (count + 3)) + 1)
    vals = _secular(grid, L, g0, g1)
    fa, fb = vals[:-1], vals[1:]
    brackets = np.flatnonzero((fa == 0.0) | (fa * fb < 0.0))[:count]
    if brackets.size < count:
        raise SpectrumError(
            f"found only {brackets.size} of {count} Robin wavenumbers up to k={kmax:.3g}; "
            "root scan too coarse or truncation too large"
        )
    return [float(grid[i]) if fa[i] == 0.0
            else _brentq(_secular_at, grid[i], grid[i + 1], (L, g0, g1), xtol=1e-12, rtol=8.9e-16)
            for i in brackets]


def _robin_modes(L, gamma, count):
    """The first `count` 1D Robin modes phi(x) = norm (cos(kx) + a sin(kx))
    as arrays (k, a, norm), with exact L2 normalization.

    sin(kL)^2 goes through np.float_power, libm's pow, as a float `**` does;
    an array's `** 2` squares by x * x, which can differ in the last bit."""
    g0, g1 = gamma
    k = np.array(_interval_wavenumbers(L, g0, g1, count))
    pos = k != 0.0
    kp = k[pos]
    ap = g0 / kp
    s2 = np.sin(2 * kp * L) / (4 * kp)
    cross = np.float_power(np.sin(kp * L), 2) / (2 * kp)
    sq = L / 2 + s2 + 2 * ap * cross + ap * ap * (L / 2 - s2)
    a = np.zeros_like(k)
    a[pos] = ap
    norm = np.full_like(k, 1.0 / np.sqrt(L))
    norm[pos] = 1.0 / np.sqrt(sq)
    return k, a, norm


def _mode_values(modes, x) -> np.ndarray:
    """Values of the modes (k, a, norm) at the points x: (count, len(x))."""
    k, a, norm = modes
    kx = k[:, None] * x
    return norm[:, None] * (np.cos(kx) + a[:, None] * np.sin(kx))


@functools.lru_cache
def _leggauss(n):
    """Legendre-Gauss nodes and weights on [-1, 1], computed once per n and
    shared read-only."""
    x, w = leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_nodes(L, n):
    x, w = _leggauss(n)
    return 0.5 * L * (x + 1.0), 0.5 * L * w


def _nodes_per_axis(J: int) -> int:
    """Gauss nodes per axis of a basis of J modes."""
    return max(OVERSAMPLING * J, MIN_QUAD_NODES)


def trace_point_count(domain: DomainSpec, J: int) -> int:
    """The number of trace points ns of the basis of J modes on the domain,
    without building it; the rectangle's 'side:y=0' observes at the x nodes."""
    if isinstance(domain.sigma_points, str):
        return _nodes_per_axis(J)
    return len(domain.sigma_points)


def build_interval_basis(L_x: float, gamma, J: int, sigma_points=(0.0,)) -> EigenBasis:
    """Lowest J Robin modes on [0, L_x] with quadrature and trace samples."""
    if L_x <= 0 or J < 1:
        raise ValueError("need L_x > 0 and J >= 1")
    domain = DomainSpec("interval", (float(L_x),), tuple(float(g) for g in gamma),
                        tuple(float(s) for s in sigma_points))
    modes = _robin_modes(L_x, domain.robin_gamma, J)
    nq = _nodes_per_axis(J)
    xq, wq = _gauss_nodes(L_x, nq)
    sig = np.array(domain.sigma_points, dtype=float).reshape(-1, 1)
    return EigenBasis(
        domain=domain,
        lambdas=modes[0] * modes[0],
        phi=_mode_values(modes, xq),
        nodes=xq.reshape(-1, 1),
        weights=wq,
        trace_matrix=_mode_values(modes, sig[:, 0]),
        sigma_nodes=sig,
        sigma_weights=np.ones(sig.shape[0]),
    )


def build_rectangle_basis(L_x: float, L_y: float, gamma, J: int,
                          sigma_points="side:y=0") -> EigenBasis:
    """Lowest J tensor-product modes on [0,Lx] x [0,Ly], sorted by eigenvalue.

    Raises SpectrumError when two retained eigenvalues collide within 1e-9,
    which signals commensurate sides (a square always trips this for J >= 2).
    """
    if J < 1:
        raise ValueError("need J >= 1")
    gx, gy = gamma
    try:
        domain = DomainSpec("rectangle", (float(L_x), float(L_y)),
                            (tuple(map(float, gx)), tuple(map(float, gy))),
                            sigma_points if isinstance(sigma_points, str)
                            else tuple((float(a), float(b)) for a, b in sigma_points))
    except ValueError as exc:
        if "commensurate" in str(exc):
            raise SpectrumError(str(exc)) from exc
        raise

    mx = _robin_modes(L_x, domain.robin_gamma[0], J)
    my = _robin_modes(L_y, domain.robin_gamma[1], J)
    # the J smallest of the J x J sums; a stable sort keeps (i, j) order on ties
    sums = np.add.outer(mx[0] * mx[0], my[0] * my[0]).ravel()
    order = np.argsort(sums, kind="stable")[:J]
    ix, iy = np.divmod(order, J)
    lambdas = sums[order]
    gaps = np.diff(lambdas)
    if np.any(gaps <= SPECTRAL_GAP_TOL):
        bad = int(np.argmin(gaps))
        raise SpectrumError(
            f"degenerate eigenvalue collision: lambda[{bad}]={lambdas[bad]:.12g} vs "
            f"lambda[{bad + 1}]={lambdas[bad + 1]:.12g}; sides are too commensurate"
        )

    n1 = _nodes_per_axis(J)
    xq, wx = _gauss_nodes(L_x, n1)
    yq, wy = _gauss_nodes(L_y, n1)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    weights = np.outer(wx, wy).ravel()

    phi = (_mode_values(mx, xq)[ix, :, None] * _mode_values(my, yq)[iy, None, :]).reshape(J, -1)

    if isinstance(domain.sigma_points, str):
        sig = np.column_stack([xq, np.zeros_like(xq)])
        sig_w = wx.copy()
    else:
        sig = np.array(domain.sigma_points, dtype=float)
        sig_w = np.ones(sig.shape[0])
    trace = _mode_values(mx, sig[:, 0])[ix] * _mode_values(my, sig[:, 1])[iy]

    return EigenBasis(
        domain=domain,
        lambdas=lambdas,
        phi=phi,
        nodes=nodes,
        weights=weights,
        trace_matrix=trace,
        sigma_nodes=sig,
        sigma_weights=sig_w,
    )


# ---------------------------------------------------------------------------
# Projection, synthesis, traces
# ---------------------------------------------------------------------------


def project(basis: EigenBasis, samples: np.ndarray) -> np.ndarray:
    """Spectral coefficients <f, phi_j> of a grid function (quadrature)."""
    samples = np.asarray(samples)
    if samples.shape[-1] != basis.nquad:
        raise GridMismatchError(
            f"grid function has {samples.shape[-1]} samples, basis quadrature has {basis.nquad}"
        )
    return samples @ (basis.weights[:, None] * basis.phi.T)


def synthesize(basis: EigenBasis, coeffs: np.ndarray) -> np.ndarray:
    """Grid values of sum_j c_j phi_j on the basis quadrature grid."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape[-1] != basis.J:
        raise GridMismatchError(f"coefficient vector has {coeffs.shape[-1]} entries, basis has {basis.J}")
    return coeffs @ basis.phi


def trace_right_inverse(basis: EigenBasis, ell) -> np.ndarray:
    """Rows w tr(phi_l) / |tr(phi_l)|_w^2 of the trace right-inverse for the
    index array ell (samples on Sigma . row = least-squares coefficient);
    raises TraceRankError naming the first eigenspace whose trace vanishes."""
    row = basis.trace_matrix[ell]
    norm2 = np.sum(basis.sigma_weights * row * row, axis=-1)
    bad = np.flatnonzero(np.sqrt(norm2) <= TRACE_RANK_TOL)
    if bad.size:
        raise TraceRankError(int(np.reshape(ell, -1)[bad[0]]))
    return basis.sigma_weights * row / norm2[..., None]


def check_trace_ranks(basis: EigenBasis) -> None:
    trace_right_inverse(basis, np.arange(basis.J))
