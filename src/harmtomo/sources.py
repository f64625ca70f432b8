"""Excitation design: delta-like pulses, amplitude modulation, the 2x2 source
matrices with their analytic interpolant, and the separable reference state
the inversion is linearized around.

The working pulse is the zero-mean band-limited projection (harmonics 1..M) of
a raised-cosine bump.  With that convention the harmonic coefficients of the
squared signal are exactly the truncated product coefficients, so the
interpolation identity Mtilde(i m omega) = M_m and the determinant identity
det Mtilde(o) = A (A - 1) psi~(o) psi^2~(o) hold to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigenbasis import DomainSpec, EigenBasis
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
    return out if out.shape else complex(out)


def hann_transform(o, width: float):
    """integral_{-w}^{w} (1 + cos(pi s / w))/2 * exp(-o s) ds for complex o,
    assembled from three shifted symmetric kernels so every removable point
    stays well conditioned."""
    o = np.asarray(o, dtype=complex)
    a = np.pi / width
    val = (0.5 * _sym_kernel(o, width)
           + 0.25 * _sym_kernel(o - 1j * a, width)
           + 0.25 * _sym_kernel(o + 1j * a, width))
    return val


@dataclass(frozen=True, eq=False)
class PulseSpec:
    """Band-limited excitation pulse.

    psi_hat holds the closed-form bump coefficients for harmonics 1..M, so
    the signal is zero-mean and band-limited by construction: its time
    samples are Re(sum_m psi_hat_m exp(i m omega t)).
    """

    psi_hat: np.ndarray   # (M,) complex
    T0: float
    width: float
    amplitude: float

    @property
    def M(self) -> int:
        return self.psi_hat.size


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
                       amplitude: float = 1.0) -> PulseSpec:
    """Raised-cosine bump of half-width `width` centered at T0, band-limited.

    Coefficients are (2/T) amplitude exp(-i m omega T0) H(m omega) with H the
    closed-form bump transform; as width -> 0 the modulus becomes flat in m
    and the phases are those of a delta at T0.  A bump centered at T0 = T
    wraps periodically; the width must keep the support inside one period.
    """
    T, T0 = params.T, params.T0
    check_pulse_support(width, T0, T)
    m = np.arange(1, M + 1)
    nu = m * params.omega
    psi_hat = (2.0 / T) * amplitude * np.exp(-1j * nu * T0) * hann_transform(1j * nu, width)
    return PulseSpec(psi_hat=psi_hat, T0=T0, width=width, amplitude=amplitude)


# ---------------------------------------------------------------------------
# Amplitude modulation and the source matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SourcePair:
    """Two amplitude-modulated excitations psi_1 = psi, psi_2 = A psi with the
    per-harmonic 2x2 matrices M_m = [[psi_m, (psi^2)_m], [A psi_m, A^2 (psi^2)_m]].

    psi_sq_hat carries the exact harmonics 1..2M of the squared signal plus
    its mean psi_sq_dc; both feed the analytic interpolant Mtilde(o).
    """

    psi1: PulseSpec
    psi2: PulseSpec
    A: float
    mm: np.ndarray           # (M, 2, 2) complex
    psi_sq_hat: np.ndarray   # (2M,) complex
    psi_sq_dc: float

    @property
    def M(self) -> int:
        return self.psi1.M


def amplitude_modulate(pulse: PulseSpec, A: float) -> SourcePair:
    if A in (0.0, 1.0):
        raise ValueError("A in {0, 1} makes det M_m = A(A-1) psi_m (psi^2)_m vanish")
    psi = pulse.psi_hat
    M = psi.size
    sq = harmonic_product_time(psi, psi, m_out=2 * M)
    dc, psisq = float(sq[0].real), sq[1:]
    mm = np.empty((M, 2, 2), dtype=complex)
    mm[:, 0, 0] = psi
    mm[:, 0, 1] = psisq[:M]
    mm[:, 1, 0] = A * psi
    mm[:, 1, 1] = A * A * psisq[:M]
    pulse2 = PulseSpec(psi_hat=A * psi, T0=pulse.T0, width=pulse.width,
                       amplitude=A * pulse.amplitude)
    return SourcePair(psi1=pulse, psi2=pulse2, A=A, mm=mm, psi_sq_hat=psisq,
                      psi_sq_dc=dc)


# ---------------------------------------------------------------------------
# Analytic interpolant of periodic signals and the matrix Mtilde(o)
# ---------------------------------------------------------------------------


def _period_kernel(z, T: float):
    """E(z) = integral_0^T exp(-z t) dt = (1 - exp(-z T)) / z, E(0) = T."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    small = np.abs(z) * T < 1e-4
    zs = z[small] * T
    out[small] = T * (1.0 - zs / 2.0 + zs**2 / 6.0 - zs**3 / 24.0 + zs**4 / 120.0)
    out[~small] = (1.0 - np.exp(-z[~small] * T)) / z[~small]
    return out if out.shape else complex(out)


def interp_kernels(o, n: int, omega: float, T: float):
    """Kernel vectors of the analytic interpolant at the points o.

    Returns (kp, km, k0) with kp, km of shape o.shape + (n,) and k0 of shape
    o.shape such that (2/T) integral_0^T g(t) exp(-o t) dt equals
    hat . kp + conj(hat) . km + dc * k0 for the real signal with positive
    harmonics hat (length n) and mean dc.  Away from the harmonic lattice the
    shared numerator (1 - exp(-o T)) / T multiplies 1/(o -+ i m omega) and
    2/o, which keeps the huge exponentials of strongly damped poles in one
    place; near the lattice the per-term kernel with its removable limit is
    used instead.
    """
    o = np.asarray(o, dtype=complex)
    shape = o.shape
    o = o.reshape(-1, 1)
    mw = np.arange(1, n + 1) * omega
    zp = o - 1j * mw
    zm = o + 1j * mw
    near = np.minimum(np.minimum(np.abs(zp).min(axis=1), np.abs(zm).min(axis=1)),
                      np.abs(o[:, 0])) * T < 1e-4
    far = ~near
    kp = np.empty(zp.shape, dtype=complex)
    km = np.empty(zp.shape, dtype=complex)
    k0 = np.empty(o.shape[0], dtype=complex)
    common = (1.0 - np.exp(-o[far] * T)) / T
    kp[far] = common / zp[far]
    km[far] = common / zm[far]
    k0[far] = 2.0 * common[:, 0] / o[far, 0]
    kp[near] = _period_kernel(zp[near], T) / T
    km[near] = _period_kernel(zm[near], T) / T
    k0[near] = (2.0 / T) * _period_kernel(o[near, 0], T)
    return kp.reshape(shape + (n,)), km.reshape(shape + (n,)), k0.reshape(shape)


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
    """Mtilde from the interpolant kernels at 2M harmonics (`interp_kernels`):
    psi~ contracts their first M columns and psi^2~ all 2M, so one kernel
    evaluation serves both entries and the table's kp and km.  Only a point
    within 1e-4/T of i m omega with M < m <= 2M gets another psi~ than from
    kernels at M harmonics: there every column takes the near-lattice form."""
    p1 = _contract_kernels(sp.psi1.psi_hat, 0.0, kp, km, k0)
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
# The separable reference state
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReferenceState:
    """Linearization point: u0_{nu, m} = phi(x) psi_{nu, m} with phi a fixed
    eigenfunction (nonzero a.e.)."""

    phi_index: int
    phi_grid: np.ndarray        # (nq,)
    source_pair: SourcePair


def check_reference_mode(domain: DomainSpec, phi_index: int) -> None:
    """The reference profile must be an eigenfunction with nonzero eigenvalue.

    Robin coefficients are nonnegative, so only a domain whose coefficients
    are all zero (Neumann) has eigenvalue 0, and only on mode 0."""
    if phi_index == 0 and not np.any(domain.robin_gamma):
        raise ReferenceProfileError(
            "reference mode 0 has eigenvalue 0 when every Robin coefficient is 0; "
            "the reference profile needs a nonzero eigenvalue")


def build_reference_state(basis: EigenBasis, phi_index: int, sp: SourcePair) -> ReferenceState:
    check_reference_mode(basis.domain, phi_index)
    return ReferenceState(phi_index=phi_index, phi_grid=basis.phi[phi_index], source_pair=sp)
