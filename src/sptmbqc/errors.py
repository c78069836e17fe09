"""Exception hierarchy shared across the package."""


class SptMbqcError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SptMbqcError):
    """A model or state violates one of its declared invariants."""


class ParseError(SptMbqcError):
    """A serialized file is malformed or missing required fields."""


class SchemaVersionError(ParseError):
    """A serialized file carries an unsupported schema tag."""


class DimensionMismatch(SptMbqcError):
    """Operands act on incompatible spaces."""


class InjectivityFailure(SptMbqcError):
    """A generated model failed the blocked-tensor injectivity check."""


class NotInjective(SptMbqcError):
    """No block length up to K_max makes the site tensors injective."""

    def __init__(self, k_max: int):
        super().__init__(f"blocked tensors do not span the bond-operator space for any K <= {k_max}")
        self.k_max = k_max


class DegenerateLeadingEigenvalue(SptMbqcError):
    """The channel's top eigenvalue is (numerically) degenerate; the fixed point is not unique."""


class NonPositiveFixedPoint(SptMbqcError):
    """Neither sign of the computed fixed-point operator is positive semidefinite."""


class MaxDimExceeded(SptMbqcError):
    """Lie-algebra closure grew past the allowed dimension."""


class SymmetryConditionViolated(SptMbqcError):
    """Byproduct operators are not elements of the projective symmetry representation."""


class ClosureTooSmall(SptMbqcError):
    """The realizable gate algebra cannot produce the requested correction or target."""


class ZeroOffDiagonal(SptMbqcError):
    """The relevant off-diagonal coupling vanishes; the measurement cost diverges."""


class SizeCapExceeded(SptMbqcError):
    """A dense-simulation request exceeds the configured amplitude budget."""


class VanishingProbability(SptMbqcError):
    """Every outcome of a sampling step has zero (or non-finite) probability."""
