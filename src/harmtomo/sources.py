"""Excitation design: delta-like pulses, amplitude modulation, the 2x2 source
matrices with their analytic interpolant, and the rule for the reference mode.

The inversion is linearized at the separable state u0 = phi psi_e with the
sources psi_1 = psi and psi_2 = A psi.  It reads only the pair's matrices M_m
and their interpolant data, so the linearized map, the fit and the sweep take
a `SourcePair`.  The reference profile phi is the basis mode that
`check_reference_mode` admits; the forward-solve preset places each pulse on
it, and no step of the inversion reads it.

The working pulse is the zero-mean band-limited projection (harmonics 1..M) of
a raised-cosine bump.  With that convention the harmonic coefficients of the
squared signal are exactly the truncated product coefficients, so the
interpolation identity Mtilde(i m omega) = M_m and the determinant identity
det Mtilde(o) = A (A - 1) psi~(o) psi^2~(o) hold to roundoff.

The interpolant's kernels (`interp_kernels`) leave out the factor
c(o) = (1 - exp(-o T)) / T that all of them share.  It cancels in
Mtilde(p)^(-1) rtilde(p) and in the condition number of Mtilde(p), the only
things the package computes from them, and at a strongly damped pole it is
about exp(|Re p| T), past the float range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import DomainSpec
from .errors import PulseSupportError, ReferenceProfileError, SingularInterpolantError
from .fields import ModelParams
from .forward import harmonic_product_time

MTILDE_SINGULAR_TOL = 1e-14


# ---------------------------------------------------------------------------
# Raised-cosine bump and its transform
# ---------------------------------------------------------------------------


def _sym_kernel(z, w: float):
    """integral_{-w}^{w} exp(-z s) ds = 2 sinh(z w) / z, removable at z = 0."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) * w < 1e-6
    zs = z[small] * w
    out[small] = 2.0 * w * (1.0 + zs**2 / 6.0 + zs**4 / 120.0)
    out[~small] = 2.0 * np.sinh(z[~small] * w) / z[~small]
    return out


def hann_transform(o, width: float):
    """integral_{-w}^{w} (1 + cos(pi s / w))/2 * exp(-o s) ds for complex o,
    assembled from three shifted symmetric kernels so every removable point
    stays well conditioned; one kernel pass takes the points and both shifts
    stacked."""
    o = np.asarray(o, dtype=complex)
    a = np.pi / width
    k0, km, kp = _sym_kernel(np.stack([o, o - 1j * a, o + 1j * a]), width)
    return 0.5 * k0 + 0.25 * km + 0.25 * kp


def check_pulse_support(width: float, T0: float, T: float) -> None:
    """Raise PulseSupportError unless a bump of half-width `width` centered at
    T0 keeps its support inside one period; a bump at T0 = T wraps."""
    if not width > 0:
        raise PulseSupportError("width must be positive")
    if T0 >= T:
        if width >= T / 2:
            raise PulseSupportError(f"width {width:.3g} too large for period {T:.3g}")
    elif width > min(T0, T - T0):
        raise PulseSupportError(
            f"width {width:.3g} pushes the bump support outside (0, {T:.3g}) around T0={T0:.3g}"
        )


def design_delta_pulse(params: ModelParams, M: int, width: float,
                       amplitude: float = 1.0) -> np.ndarray:
    """Harmonics 1..M (M,) of a raised-cosine bump of half-width `width`
    centered at T0: the signal is zero-mean and band-limited by construction,
    with time samples Re(sum_m psi_hat_m exp(i m omega t)).

    Coefficients are (2/T) amplitude exp(-i m omega T0) H(m omega) with H the
    closed-form bump transform; as width -> 0 the modulus becomes flat in m
    and the phases are those of a delta at T0.  A bump centered at T0 = T
    wraps periodically; the width must keep the support inside one period.
    """
    T, T0 = params.T, params.T0
    check_pulse_support(width, T0, T)
    m = np.arange(1, M + 1)
    nu = m * params.omega
    return (2.0 / T) * amplitude * np.exp(-1j * nu * T0) * hann_transform(1j * nu, width)


# ---------------------------------------------------------------------------
# Amplitude modulation and the source matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SourcePair:
    """Two amplitude-modulated excitations psi_1 = psi, psi_2 = A psi with the
    per-harmonic 2x2 matrices M_m = [[psi_m, (psi^2)_m], [A psi_m, A^2 (psi^2)_m]].

    psi_hat holds the harmonics 1..M of psi.  psi_sq_hat carries the exact
    harmonics 1..2M of the squared signal plus its mean psi_sq_dc; both feed
    the analytic interpolant Mtilde(o).
    """

    psi_hat: np.ndarray      # (M,) complex
    A: float
    mm: np.ndarray           # (M, 2, 2) complex
    psi_sq_hat: np.ndarray   # (2M,) complex
    psi_sq_dc: float

    @property
    def M(self) -> int:
        return self.psi_hat.size


def amplitude_modulate(psi: np.ndarray, A: float) -> SourcePair:
    """The source pair of the pulse harmonics psi (M,) and its copy A psi."""
    if A in (0.0, 1.0):
        raise ValueError("A in {0, 1} makes det M_m = A(A-1) psi_m (psi^2)_m vanish")
    M = psi.size
    sq = harmonic_product_time(psi, psi, m_out=2 * M)
    dc, psisq = float(sq[0].real), sq[1:]
    mm = np.empty((M, 2, 2), dtype=complex)
    mm[:, 0, 0] = psi
    mm[:, 0, 1] = psisq[:M]
    mm[:, 1, 0] = A * psi
    mm[:, 1, 1] = A * A * psisq[:M]
    return SourcePair(psi_hat=psi, A=A, mm=mm, psi_sq_hat=psisq, psi_sq_dc=dc)


# ---------------------------------------------------------------------------
# Analytic interpolant of periodic signals and the matrix Mtilde(o)
# ---------------------------------------------------------------------------


def interp_kernels(o, n: int, omega: float):
    """Kernels (kp, km, k0) = (1/(o - i m omega), 1/(o + i m omega), 2/o),
    m = 1..n, of the analytic interpolant at the points o: kp, km of shape
    o.shape + (n,), k0 of shape o.shape.

    For the real signal with positive harmonics hat (length n) and mean dc,
    (2/T) integral_0^T g(t) exp(-o t) dt equals
    c(o) (hat . kp + conj(hat) . km + dc k0), c(o) = (1 - exp(-o T)) / T;
    c is never formed (module docstring).  The kernels are elementwise, so a
    point's kernels are the same bits in any company.  A pole on the lattice
    i m omega would divide by zero; `norms.pole_table` raises ResonanceError
    first.
    """
    o = np.asarray(o, dtype=complex)[..., None]
    mw = np.arange(1, n + 1) * omega
    return 1.0 / (o - 1j * mw), 1.0 / (o + 1j * mw), 2.0 / o[..., 0]


def _contract_kernels(hat, dc: float, kp, km, k0):
    """hat . kp + conj(hat) . km + dc k0 over the first hat.shape[-1] kernel
    columns; kernels evaluated for more harmonics than hat carries give the
    same value."""
    n = hat.shape[-1]
    kp, km = kp[..., :n], km[..., :n]
    # elementwise products and a pairwise sum per point, so a point gives the
    # same value whether it comes alone or in an array
    h = hat.reshape(hat.shape[:-1] + (1,) * (kp.ndim - 1) + hat.shape[-1:])
    val = (h * kp).sum(axis=-1) + (np.conj(h) * km).sum(axis=-1) + dc * k0
    return val[()]


def mtilde_from_kernels(sp: SourcePair, kp, km, k0) -> np.ndarray:
    """Mtilde / c from the interpolant kernels at 2M harmonics
    (`interp_kernels`), which carry the common factor c divided out: psi~
    contracts their first M columns and psi^2~ all 2M, so one kernel
    evaluation serves both entries and the table's kp and km."""
    p1 = _contract_kernels(sp.psi_hat, 0.0, kp, km, k0)
    p2 = _contract_kernels(sp.psi_sq_hat, sp.psi_sq_dc, kp, km, k0)
    A = sp.A
    return np.stack([np.stack([p1, p2], axis=-1), np.stack([A * p1, A * A * p2], axis=-1)],
                    axis=-2)


def invert_mtilde(mt) -> np.ndarray:
    """Cramer inverse of stacked 2x2 complex matrices (..., 2, 2), with a
    determinant guard on every member of the stack; a member whose entries or
    determinant are not finite fails the guard as well."""
    mt = np.asarray(mt, dtype=complex)
    det = mt[..., 0, 0] * mt[..., 1, 1] - mt[..., 0, 1] * mt[..., 1, 0]
    scale = np.max(np.abs(mt), axis=(-2, -1)) ** 2
    # not-above rather than at-most, so that a nan determinant fails the guard
    singular = ~(np.abs(det) > MTILDE_SINGULAR_TOL * np.maximum(scale, 1e-300))
    if np.any(singular):
        i = np.unravel_index(int(np.argmax(singular)), singular.shape)
        where = f" at stack index {tuple(map(int, i))}" if i else ""
        what = ("is numerically singular" if np.isfinite(det[i])
                else "has non-finite entries or determinant")
        raise SingularInterpolantError(
            f"Mtilde {what}{where}: |det| = {np.abs(det[i]):.3e}, "
            f"entry scale {scale[i]:.3e}"
        )
    inv = np.empty_like(mt)
    inv[..., 0, 0] = mt[..., 1, 1]
    inv[..., 0, 1] = -mt[..., 0, 1]
    inv[..., 1, 0] = -mt[..., 1, 0]
    inv[..., 1, 1] = mt[..., 0, 0]
    return inv / det[..., None, None]


# ---------------------------------------------------------------------------
# The reference mode
# ---------------------------------------------------------------------------


def check_reference_mode(domain: DomainSpec, phi_index: int) -> None:
    """The reference profile must be an eigenfunction with nonzero eigenvalue.

    Robin coefficients are nonnegative, so only a domain whose coefficients
    are all zero (Neumann) has eigenvalue 0, and only on mode 0."""
    if phi_index == 0 and not np.any(domain.robin_gamma):
        raise ReferenceProfileError(
            "reference mode 0 has eigenvalue 0 when every Robin coefficient is 0; "
            "the reference profile needs a nonzero eigenvalue")
