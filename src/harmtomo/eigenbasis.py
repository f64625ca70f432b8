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
# phi'(L) + g1 phi(L) = 0.  For g0 + g1 > 0 the wavenumbers solve the phase
# form of the secular equation,
#     k L = theta(k) + j pi,   theta(k) = atan2((g0 + g1) k, k^2 - g0 g1),
# where theta = atan(g0/k) + atan(g1/k) lies in (0, pi) for k > 0 and is
# convex and decreasing.  So f(k) = k L - theta(k) - j pi is concave with
# slope L + (g0 + g1)(k^2 + g0 g1) / ((k^2 - g0 g1)^2 + (g0 + g1)^2 k^2) >= L,
# root j is the only one in the bracket (j pi / L, (j + 1) pi / L), and
# Newton's method, after at most one step from the right, climbs to it from
# the left without leaving the bracket but for rounding.  Neumann ends on
# both sides (g0 = g1 = 0) give k = j pi / L in closed form.
# ---------------------------------------------------------------------------

ROBIN_MAXITER = 100        # Newton iterations per wavenumber before SpectrumError
ROBIN_RTOL = 4.5e-16       # a wavenumber has converged once its step is at most this, relative
PI_TAIL = 1.2246467991473532e-16   # pi - np.pi, rounded to a double
ROBIN_BIG = 2.0 ** 510     # the largest Robin term the modes square: twice its square is finite


def _first_start(L, s, p, k):
    """The start of root 0: `k`, or its small-gamma asymptote sqrt((g0 + g1) / L)
    where that lies in the bracket and has the smaller |f|.  For a small Robin
    sum the root is about sqrt((g0 + g1) / L) while `k` is about g0 + g1, and
    Newton only doubles its way up from there."""
    k0 = math.sqrt(s / L)
    if k0 < math.pi / L and abs(k0 * L - math.atan2(s * k0, k0 * k0 - p)) \
            < abs(k * L - math.atan2(s * k, k * k - p)):
        return k0
    return k


def _interval_wavenumbers(L, g0, g1, count) -> np.ndarray:
    """First `count` nonnegative wavenumbers, all solved at once.

    Each root starts at (j pi + theta(midpoint)) / L, inside its bracket, and
    takes Newton steps on f, evaluated as (k L - j np.pi) - (theta + j PI_TAIL):
    the first difference is exact, its terms being within a factor 2 of each
    other, and PI_TAIL carries the part of pi that np.pi rounds off.  The
    bracket shrinks to the last iterate on each side of the root, and a step
    that would leave it bisects instead, so iterates stay strictly inside,
    off k = 0, where the slope is 0/0 when g0 g1 = 0.  A root stops once its
    step is at most ROBIN_RTOL of it, and keeps its value while the others go
    on, so it takes the same steps in any company; one not stopped after
    ROBIN_MAXITER steps raises SpectrumError, as does a slope whose
    denominator underflows to 0, before it can give 0/0: near a root of a
    Robin sum below about 2e-162 L.  Root 0 may start at its small-gamma
    asymptote instead (`_first_start`).

    Iterates stay in [0, K], K = count pi / L, so the slope's terms are at
    most K^2 + g0 g1, (g0 + g1) K and (g0 + g1)(K^2 + g0 g1).  Where one
    exceeds ROBIN_BIG, from g0 g1 or (g0 + g1) K above about 3e153, its
    square could overflow, and SpectrumError is raised before numpy can
    warn: the end is Dirichlet to the last bit well before that."""
    j = np.arange(count)
    if g0 == 0.0 and g1 == 0.0:
        return j * np.pi / L
    s, p = g0 + g1, g0 * g1
    kmax = count * math.pi / L
    if max(kmax * kmax + p, s * kmax, s * (kmax * kmax + p)) > ROBIN_BIG:
        raise SpectrumError(f"Robin wavenumbers on [0, {L!r}] with gamma ({g0!r}, {g1!r}): "
                            "the Newton slope overflows")
    jpi, lo, hi = j * np.pi, j * np.pi / L, (j + 1) * np.pi / L
    mid = (j + 0.5) * np.pi / L
    k = (jpi + np.arctan2(s * mid, mid * mid - p)) / L
    k[0] = _first_start(L, s, p, k[0])
    done = np.zeros(count, dtype=bool)
    for _ in range(ROBIN_MAXITER):
        kk, q = k * k, s * k
        d = kk - p
        f = (k * L - jpi) - (np.arctan2(q, d) + j * PI_TAIL)
        lo = np.where(f < 0.0, k, lo)
        hi = np.where(f > 0.0, k, hi)
        den = d * d + q * q
        if np.count_nonzero(den) < count:
            raise SpectrumError(f"Robin wavenumbers on [0, {L!r}] with gamma ({g0!r}, {g1!r}): "
                                "the Newton slope underflows")
        newton = k - f / (L + s * (kk + p) / den)
        stop = np.abs(newton - k) <= ROBIN_RTOL * newton
        step = np.where(stop | ((lo < newton) & (newton < hi)), newton, 0.5 * (lo + hi))
        k = np.where(done, k, step)
        done |= stop
        if done.all():
            return k
    raise SpectrumError(f"Robin wavenumbers {j[~done].tolist()} on [0, {L!r}] with gamma "
                        f"({g0!r}, {g1!r}) not converged in {ROBIN_MAXITER} Newton steps")


def _robin_modes(L, gamma, count):
    """The first `count` 1D Robin modes phi(x) = norm (cos(kx) + a sin(kx))
    as arrays (k, a, norm), with exact L2 normalization.

    sin(kL)^2 goes through np.float_power, libm's pow, as a float `**` does;
    an array's `** 2` squares by x * x, which can differ in the last bit."""
    g0, g1 = gamma
    k = _interval_wavenumbers(L, g0, g1, count)
    pos = k != 0.0
    kp = k[pos]
    ap = g0 / kp
    # each term of sq is at most max(L, 1) (1 + ap + ap^2)
    if float(ap.max(initial=0.0)) * math.sqrt(max(L, 1.0)) > ROBIN_BIG:
        raise SpectrumError(f"Robin modes on [0, {L!r}] with gamma ({g0!r}, {g1!r}): "
                            "the normalization overflows")
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


def _lowest_sums(lams, J: int):
    """The J smallest eigenvalue sums of the per-axis eigenvalues `lams`, in
    ascending order, and for each the mode index per axis.  On one axis the
    modes themselves, already ascending and simple.  On more, a stable sort
    keeps the index order on ties, and SpectrumError is raised when two
    retained sums collide within SPECTRAL_GAP_TOL."""
    if len(lams) == 1:
        return lams[0], (slice(None),)
    sums = functools.reduce(np.add.outer, lams).ravel()
    order = np.argsort(sums, kind="stable")[:J]
    lambdas = sums[order]
    gaps = np.diff(lambdas)
    if np.any(gaps <= SPECTRAL_GAP_TOL):
        bad = int(np.argmin(gaps))
        raise SpectrumError(
            f"degenerate eigenvalue collision: lambda[{bad}]={lambdas[bad]:.12g} vs "
            f"lambda[{bad + 1}]={lambdas[bad + 1]:.12g}; sides are too commensurate"
        )
    return lambdas, np.unravel_index(order, (J,) * len(lams))


def build_basis(domain: DomainSpec, J: int) -> EigenBasis:
    """Lowest J Robin modes of the domain, with quadrature and trace samples.

    The domain is a product of 1D Robin factors, one per axis: a mode is a
    product of one 1D mode per axis, its eigenvalue the sum of theirs, and
    the quadrature the tensor product of each axis's Gauss rule.  Raises
    SpectrumError when two retained eigenvalues collide (`_lowest_sums`).
    """
    if J < 1:
        raise ValueError("need J >= 1")
    n1 = _nodes_per_axis(J)
    gammas = (domain.robin_gamma,) if domain.kind == "interval" else domain.robin_gamma
    axes = [(_robin_modes(L, g, J), *_gauss_nodes(L, n1)) for L, g in zip(domain.lengths, gammas)]
    lambdas, index = _lowest_sums([k * k for (k, _, _), _, _ in axes], J)
    if isinstance(domain.sigma_points, str):  # "side:y=0": the x nodes, with their weights
        _, sig_x, sig_w = axes[0]
        sig = np.column_stack([sig_x, np.zeros_like(sig_x)])
    else:
        sig = np.array(domain.sigma_points, dtype=float).reshape(-1, len(axes))
        sig_w = np.ones(sig.shape[0])

    # the rows of each axis's factors that the retained modes use
    values = [_mode_values(m, x)[i] for (m, x, _), i in zip(axes, index)]
    traces = [_mode_values(m, sig[:, a])[i] for a, ((m, _, _), i) in enumerate(zip(axes, index))]
    # the first axis alone is a 1D basis; each further axis multiplies in
    phi, trace, nodes, weights = values[0], traces[0], axes[0][1][:, None], axes[0][2]
    for v, t, (_, x, w) in zip(values[1:], traces[1:], axes[1:]):
        phi = (phi[:, :, None] * v[:, None, :]).reshape(J, -1)
        trace = trace * t
        nodes = np.column_stack([np.repeat(nodes, x.size, axis=0), np.tile(x, len(nodes))])
        weights = np.multiply.outer(weights, w).ravel()
    return EigenBasis(domain=domain, lambdas=lambdas, phi=phi, nodes=nodes, weights=weights,
                      trace_matrix=trace, sigma_nodes=sig, sigma_weights=sig_w)


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
