"""Physical parameters, smoothness settings, and spectral field containers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eigenbasis import EigenBasis, project
from .errors import InadmissibleSlownessError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class ModelParams:
    """Scalar model data: relaxation time tau, attenuation beta, reference
    squared slowness sigma0, fundamental angular frequency omega, period T,
    pulse center T0, and modulation amplitude A.

    Admissibility requires sigma0*beta >= tau, so that
    alpha = (sigma0*beta - tau) / (2*beta) is nonnegative.
    """

    tau: float
    beta: float
    sigma0: float
    omega: float
    T: float
    T0: float
    A: float

    def __post_init__(self):
        if self.beta <= 0 or self.sigma0 <= 0 or self.omega <= 0:
            raise ValueError("beta, sigma0, omega must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.sigma0 * self.beta < self.tau:
            raise ValueError(
                f"stability requirement sigma*beta >= tau violated "
                f"(sigma0*beta = {self.sigma0 * self.beta:.6g} < {self.tau:.6g})"
            )
        if abs(self.T * self.omega - TWO_PI) > 1e-14 * TWO_PI:
            raise ValueError(f"T*omega = {self.T * self.omega!r} differs from 2*pi")
        if not (0.0 < self.T0 <= self.T):
            raise ValueError("T0 must lie in (0, T]")
        if self.A in (0.0, 1.0):
            raise ValueError("modulation amplitude A in {0, 1} makes the source matrices M_m singular")

    @classmethod
    def create(cls, tau, beta, sigma0, omega, T0, A) -> "ModelParams":
        if not omega > 0:
            raise ValueError("beta, sigma0, omega must be positive")
        return cls(tau=tau, beta=beta, sigma0=sigma0, omega=omega,
                   T=TWO_PI / omega, T0=T0, A=A)

    @property
    def alpha(self) -> float:
        return (self.sigma0 * self.beta - self.tau) / (2.0 * self.beta)

    def with_tau(self, tau: float) -> "ModelParams":
        return replace(self, tau=tau)


@dataclass(frozen=True)
class NormSpec:
    """Smoothness setting: spatial order s > 1/2, temporal order
    orti_check in [0, min(s, 1)], and the reduced order s_check = s - orti_check.
    """

    s: float
    orti_check: float

    def __post_init__(self):
        if self.s <= 0.5:
            raise ValueError("need s > 1/2")
        if not (0.0 <= self.orti_check <= min(self.s, 1.0)):
            raise ValueError("need 0 <= orti_check <= min(s, 1)")

    @property
    def s_check(self) -> float:
        return self.s - self.orti_check


@dataclass(frozen=True, eq=False)
class MaterialField:
    """Real coefficient field known both on the quadrature grid and spectrally."""

    values: np.ndarray  # (nq,)
    coeffs: np.ndarray  # (J,)

    @classmethod
    def from_values(cls, basis: EigenBasis, values) -> "MaterialField":
        values = np.asarray(values, dtype=float)
        return cls(values=values, coeffs=project(basis, values))

    @classmethod
    def constant(cls, basis: EigenBasis, value: float) -> "MaterialField":
        return cls.from_values(basis, np.full(basis.nquad, float(value)))

    def check_slowness_admissible(self, params: ModelParams) -> None:
        """Pointwise sigma(x)*beta >= tau on the grid."""
        if np.min(self.values) * params.beta < params.tau - 1e-14:
            raise InadmissibleSlownessError("sigma(x)*beta >= tau fails somewhere on the grid")
