"""Exception types shared across the package."""


class LevelCurveError(Exception):
    """Base class for all errors raised by this package."""


class FunctionSpecError(LevelCurveError):
    """Malformed function/domain specification string or illegal construction."""


class RootFindingError(LevelCurveError):
    """No radius certifies a polynomial's root cluster."""


class TraceError(LevelCurveError):
    """Level-curve tracing failed (seed divergence, step underflow, runaway arc)."""


class TopologyError(LevelCurveError):
    """Extracted graph/order structure violates a structural law it must satisfy."""


class CertificateError(LevelCurveError):
    """A numerical certificate of a theorem-level property failed."""
