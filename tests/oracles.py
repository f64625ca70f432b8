"""Loop implementations of the harmonic product, kept as independent references.

These are the direct harmonic-pair sums over the real-signal convention
u(t) = Re(sum_m u_m exp(i m omega t)).  The package computes the same
quantities with one FFT kernel (`harmonic_product_time`); the tests compare
the two.
"""

from __future__ import annotations

import numpy as np

from harmtomo.eigenbasis import EigenBasis, synthesize
from harmtomo.fields import as_coeffs


def harmonic_product_loop(a_hat, b_hat, m_out: int | None = None) -> np.ndarray:
    """Harmonic coefficients 1..m_out of the product of two real scalar signals.

    For real signals with positive-harmonic coefficients a_hat, b_hat this is

        c_m = 1/2 sum_{l=1}^{m-1} a_l b_{m-l}
            + 1/2 sum_k conj(a_k) b_{k+m} + 1/2 sum_k a_{m+k} conj(b_k),

    the tail sums truncated at the stored length.
    """
    a = np.asarray(a_hat, dtype=complex)
    b = np.asarray(b_hat, dtype=complex)
    Ma, Mb = a.size, b.size
    m_out = m_out or max(Ma, Mb)
    out = np.zeros(m_out, dtype=complex)
    for m in range(1, m_out + 1):
        s = 0.0 + 0.0j
        for l in range(max(1, m - Mb), min(m - 1, Ma) + 1):
            s += 0.5 * a[l - 1] * b[m - l - 1]
        for k in range(1, min(Ma, Mb - m) + 1):
            s += 0.5 * np.conj(a[k - 1]) * b[k + m - 1]
        for k in range(1, min(Mb, Ma - m) + 1):
            s += 0.5 * a[m + k - 1] * np.conj(b[k - 1])
        out[m - 1] = s
    return out


def product_dc_loop(a_hat, b_hat) -> complex:
    """Mean value of the product of two real zero-mean signals: 1/2 sum conj(a) b."""
    a = np.asarray(a_hat, dtype=complex)
    b = np.asarray(b_hat, dtype=complex)
    n = min(a.size, b.size)
    return 0.5 * np.real(np.vdot(a[:n], b[:n])) + 0.0j


def convolve_bm_grid_loop(basis: EigenBasis, u, v, m_out: int | None = None) -> np.ndarray:
    """Quadrature-grid values of harmonics 1..m_out of the pointwise product."""
    uc, vc = as_coeffs(u), as_coeffs(v)
    if uc.shape != vc.shape:
        raise ValueError("fields must share truncation")
    M = uc.shape[0]
    m_out = m_out or M
    ug = synthesize(basis, uc)  # (M, nq)
    vg = ug if (vc is uc or np.array_equal(vc, uc)) else synthesize(basis, vc)
    out_grid = np.zeros((m_out, basis.nquad), dtype=complex)
    for m in range(1, m_out + 1):
        acc = np.zeros(basis.nquad, dtype=complex)
        for l in range(max(1, m - M), min(m - 1, M) + 1):
            acc += 0.5 * ug[l - 1] * vg[m - l - 1]
        for k in range(1, M - m + 1):
            acc += 0.5 * np.conj(ug[k - 1]) * vg[k + m - 1]
            acc += 0.5 * ug[m + k - 1] * np.conj(vg[k - 1])
        out_grid[m - 1] = acc
    return out_grid
