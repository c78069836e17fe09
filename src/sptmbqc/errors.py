"""Exception hierarchy shared across the package; the two bases fix the CLI exit code."""


class SptMbqcError(Exception):
    """Base class for all package-specific errors."""


class InputError(SptMbqcError):
    """A model, file or parameter is invalid (CLI exit code 2)."""


class NumericalFailure(SptMbqcError):
    """A computation cannot proceed on the given model or parameters (CLI exit code 3)."""


class ValidationError(InputError):
    """A model or state violates one of its declared invariants."""


class ParseError(InputError):
    """A serialized file is malformed or missing required fields."""


class SchemaVersionError(ParseError):
    """A serialized file carries an unsupported schema tag."""


class DimensionMismatch(InputError):
    """Operands act on incompatible spaces."""


class InjectivityFailure(NumericalFailure):
    """A generated model failed the blocked-tensor injectivity check."""


class NotInjective(NumericalFailure):
    """No block length up to K_max makes the site tensors injective."""

    def __init__(self, k_max: int):
        super().__init__(f"blocked tensors do not span the bond-operator space for any K <= {k_max}")
        self.k_max = k_max


class DegenerateLeadingEigenvalue(NumericalFailure):
    """The channel's top eigenvalue is (numerically) degenerate; the fixed point is not unique."""


class NonPositiveFixedPoint(NumericalFailure):
    """Neither sign of the computed fixed-point operator is positive semidefinite."""


class MaxDimExceeded(NumericalFailure):
    """Lie-algebra closure grew past the allowed dimension."""


class SymmetryConditionViolated(NumericalFailure):
    """Byproduct operators are not elements of the projective symmetry representation."""


class ClosureTooSmall(NumericalFailure):
    """The realizable gate algebra cannot produce the requested correction or target."""


class ZeroOffDiagonal(NumericalFailure):
    """The relevant off-diagonal coupling vanishes; the measurement cost diverges."""


class SizeCapExceeded(NumericalFailure):
    """A dense-simulation request exceeds the configured amplitude budget."""


class VanishingProbability(NumericalFailure):
    """Every outcome of a sampling step has zero (or non-finite) probability."""
