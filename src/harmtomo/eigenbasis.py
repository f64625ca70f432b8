"""Truncated eigensystems of the Robin Laplacian on interval and rectangle domains.

The operator is the negative Laplacian with boundary condition
d_nu(u) + gamma*u = 0 (gamma = 0 encodes Neumann).  Domains are restricted
to an interval and a rectangle with incommensurate sides, so every retained
eigenvalue is simple, eigenfunctions are closed-form trigonometric profiles,
and the trace restricted to each eigenspace is explicitly invertible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq

from .errors import GridMismatchError, SpectrumError, TraceRankError

ORTHO_TOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-8
SPECTRAL_GAP_TOL = 1e-9
TRACE_RANK_TOL = 1e-9
MIN_QUAD_NODES = 32
OVERSAMPLING = 4


def commensurate(ratio: float, qmax: int = 64, tol: float = 1e-9) -> bool:
    """True if ratio is within tol of p/q for integers p, q <= qmax."""
    for q in range(1, qmax + 1):
        p = round(ratio * q)
        if 1 <= p <= qmax and abs(ratio - p / q) < tol:
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
        if any(L <= 0 for L in self.lengths):
            raise ValueError("domain lengths must be positive")
        if self.kind == "interval":
            if len(self.lengths) != 1 or len(self.robin_gamma) != 2:
                raise ValueError("interval needs one length and two Robin coefficients")
            if any(g < 0 for g in self.robin_gamma):
                raise ValueError("Robin coefficients must be nonnegative")
        else:
            if len(self.lengths) != 2:
                raise ValueError("rectangle needs two lengths")
            gx, gy = self.robin_gamma
            if any(g < 0 for g in gx) or any(g < 0 for g in gy):
                raise ValueError("Robin coefficients must be nonnegative")
            if commensurate(self.lengths[0] / self.lengths[1]):
                raise ValueError(
                    "rectangle side ratio is commensurate (p/q with p,q <= 64); "
                    "the truncated spectrum would not be simple"
                )
        if isinstance(self.sigma_points, str):
            if self.kind != "rectangle" or self.sigma_points != "side:y=0":
                raise ValueError("string sigma_points supports only rectangle 'side:y=0'")
        elif len(self.sigma_points) == 0:
            raise ValueError("sigma_points must be nonempty")


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Truncated orthonormal eigensystem with quadrature and trace data.

    phi holds eigenfunction values on the quadrature grid, phi_lap the
    closed-form values of the operator applied to each mode (used for the
    eigen-residual check).  All eigenvalues are simple by domain choice.
    """

    domain: DomainSpec
    lambdas: np.ndarray        # (J,)
    phi: np.ndarray            # (J, nq)
    phi_lap: np.ndarray        # (J, nq)
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


def _interval_wavenumbers(L, g0, g1, count, scan_density=64):
    """First `count` nonnegative wavenumbers, bracketed bisection to 1e-12."""
    ks = []
    if g0 == 0.0 and g1 == 0.0:
        return [j * np.pi / L for j in range(count)]
    kmax = (count + 3) * np.pi / L
    grid = np.linspace(1e-12, kmax, int(scan_density * (count + 3)) + 1)
    vals = _secular(grid, L, g0, g1)
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            ks.append(float(a))
        elif fa * fb < 0.0:
            ks.append(brentq(_secular, a, b, args=(L, g0, g1), xtol=1e-12, rtol=8.9e-16))
        if len(ks) >= count:
            return ks[:count]
    raise SpectrumError(
        f"found only {len(ks)} of {count} Robin wavenumbers up to k={kmax:.3g}; "
        "root scan too coarse or truncation too large"
    )


class _Mode1D:
    """phi(x) = norm * (cos(kx) + (g0/k) sin(kx)) with exact L2 normalization."""

    def __init__(self, L, g0, k):
        self.k = k
        if k == 0.0:
            self.a = 0.0
            self.norm = 1.0 / np.sqrt(L)
        else:
            a = g0 / k
            s2 = np.sin(2 * k * L) / (4 * k)
            cross = np.sin(k * L) ** 2 / (2 * k)
            sq = L / 2 + s2 + 2 * a * cross + a * a * (L / 2 - s2)
            self.a = a
            self.norm = 1.0 / np.sqrt(sq)
        self.lam = k * k

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.k == 0.0:
            return np.full_like(x, self.norm)
        return self.norm * (np.cos(self.k * x) + self.a * np.sin(self.k * x))

    def lap(self, x):
        """Value of the operator (-d^2/dx^2) on this mode: lam * phi."""
        return self.lam * self(x)


def _interval_modes(L, gamma, count):
    g0, g1 = gamma
    ks = _interval_wavenumbers(L, g0, g1, count)
    return [_Mode1D(L, g0, k) for k in ks]


def interval_eigenvalues(L: float, gamma, J: int) -> np.ndarray:
    """Lowest J eigenvalues of the 1D Robin Laplacian (no eigenfunctions)."""
    g0, g1 = gamma
    ks = _interval_wavenumbers(L, g0, g1, J)
    return np.array([k * k for k in ks])


def _gauss_nodes(L, n):
    x, w = leggauss(n)
    return 0.5 * L * (x + 1.0), 0.5 * L * w


def build_interval_basis(L_x: float, gamma, J: int, sigma_points=(0.0,), nquad=None) -> EigenBasis:
    """Lowest J Robin modes on [0, L_x] with quadrature and trace samples."""
    if L_x <= 0 or J < 1:
        raise ValueError("need L_x > 0 and J >= 1")
    domain = DomainSpec("interval", (float(L_x),), tuple(float(g) for g in gamma),
                        tuple(float(s) for s in sigma_points))
    modes = _interval_modes(L_x, domain.robin_gamma, J)
    nq = nquad or max(OVERSAMPLING * J, MIN_QUAD_NODES)
    xq, wq = _gauss_nodes(L_x, nq)
    phi = np.array([m(xq) for m in modes])
    phi_lap = np.array([m.lap(xq) for m in modes])
    lambdas = np.array([m.lam for m in modes])
    sig = np.array(domain.sigma_points, dtype=float).reshape(-1, 1)
    trace = np.array([m(sig[:, 0]) for m in modes])
    return EigenBasis(
        domain=domain,
        lambdas=lambdas,
        phi=phi,
        phi_lap=phi_lap,
        nodes=xq.reshape(-1, 1),
        weights=wq,
        trace_matrix=trace,
        sigma_nodes=sig,
        sigma_weights=np.ones(sig.shape[0]),
    )


def build_rectangle_basis(L_x: float, L_y: float, gamma, J: int, sigma_points="side:y=0",
                          nquad1d=None) -> EigenBasis:
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

    mx = _interval_modes(L_x, domain.robin_gamma[0], J)
    my = _interval_modes(L_y, domain.robin_gamma[1], J)
    pairs = sorted(
        ((mx[i].lam + my[j].lam, i, j) for i in range(J) for j in range(J)),
        key=lambda t: t[0],
    )[:J]
    lambdas = np.array([p[0] for p in pairs])
    gaps = np.diff(lambdas)
    if np.any(gaps <= SPECTRAL_GAP_TOL):
        bad = int(np.argmin(gaps))
        raise SpectrumError(
            f"degenerate eigenvalue collision: lambda[{bad}]={lambdas[bad]:.12g} vs "
            f"lambda[{bad + 1}]={lambdas[bad + 1]:.12g}; sides are too commensurate"
        )

    n1 = nquad1d or max(OVERSAMPLING * J, MIN_QUAD_NODES)
    xq, wx = _gauss_nodes(L_x, n1)
    yq, wy = _gauss_nodes(L_y, n1)
    X, Y = np.meshgrid(xq, yq, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    weights = np.outer(wx, wy).ravel()

    phi = np.empty((J, nodes.shape[0]))
    phi_lap = np.empty_like(phi)
    for r, (_, i, j) in enumerate(pairs):
        fx, fy = mx[i](xq), my[j](yq)
        phi[r] = np.outer(fx, fy).ravel()
        phi_lap[r] = np.outer(mx[i].lap(xq), fy).ravel() + np.outer(fx, my[j].lap(yq)).ravel()

    if isinstance(domain.sigma_points, str):
        sig = np.column_stack([xq, np.zeros_like(xq)])
        sig_w = wx.copy()
    else:
        sig = np.array(domain.sigma_points, dtype=float)
        sig_w = np.ones(sig.shape[0])
    trace = np.empty((J, sig.shape[0]))
    for r, (_, i, j) in enumerate(pairs):
        trace[r] = mx[i](sig[:, 0]) * my[j](sig[:, 1])

    return EigenBasis(
        domain=domain,
        lambdas=lambdas,
        phi=phi,
        phi_lap=phi_lap,
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
