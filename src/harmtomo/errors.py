"""Exception types shared across the package."""


class HarmtomoError(Exception):
    """Base class for numerical and configuration failures."""


class SpectrumError(HarmtomoError):
    """Eigenvalue computation failed (bracket failure, degenerate spectrum)."""


class GridMismatchError(HarmtomoError):
    """Grid function does not match the basis quadrature grid."""


class TraceRankError(HarmtomoError):
    """Restricted trace on an eigenspace is rank deficient."""

    def __init__(self, ell, message=None):
        self.ell = ell
        super().__init__(message or f"restricted trace rank deficient on eigenspace {ell}")


class InadmissibleSlownessError(HarmtomoError, ValueError):
    """A squared-slowness field breaks sigma(x)*beta >= tau somewhere on the grid."""


class VanishingDivisorError(HarmtomoError, ZeroDivisionError):
    """A divisor came too close to zero for the division to be trusted."""


class ResonanceError(HarmtomoError):
    """A harmonic symbol vanished; the diagonal solve is singular."""

    def __init__(self, m, j, magnitude):
        self.m = m
        self.j = j
        self.magnitude = magnitude
        super().__init__(f"resonant harmonic symbol at (m={m}, j={j}), |symbol|={magnitude:.3e}")


class ConvergenceError(HarmtomoError):
    """Fixed-point iteration left the contraction regime."""


class ReferenceProfileError(HarmtomoError, ValueError):
    """The reference profile's eigenfunction has eigenvalue zero."""


class PulseSupportError(HarmtomoError):
    """Pulse width too large for its support to fit the period."""


class SingularInterpolantError(HarmtomoError):
    """Source interpolant matrix is numerically singular at the requested point."""


class IllConditionedFitError(HarmtomoError):
    """The fit's design is too ill conditioned to trust."""

    def __init__(self, cond, message=None):
        self.cond = cond
        super().__init__(message or f"fit design condition number {cond:.3e} exceeds limit")


class UnderdeterminedFitError(HarmtomoError):
    """The fit's design has fewer rows than unknowns, so its solution is not unique."""


class StabilityViolationError(HarmtomoError):
    """A pole with positive real part was found; the damping structure is broken."""


class TheoremHypothesisError(HarmtomoError):
    """Requested regularization schedule violates the convergence hypotheses."""


class SmoothingError(HarmtomoError):
    """Every candidate subspace level was rejected by the discrepancy rule."""


class NoiseCalibrationError(HarmtomoError):
    """A noise level is not finite and nonnegative, or the rescaled noise
    missed it in the observation norm."""


class ScenarioValidationError(HarmtomoError):
    """Scenario file failed validation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("scenario validation failed:\n" + "\n".join(f"  - {v}" for v in self.violations))
