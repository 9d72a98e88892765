"""Exception types shared across the package."""


class CoconvexError(Exception):
    """Base class for all package errors."""


class NotFullDimensional(CoconvexError):
    """The generating set spans a proper subspace of the ambient space."""


class NotStronglyConvex(CoconvexError):
    """The cone contains a line through the origin."""


class DegeneratePolytope(CoconvexError):
    """The polytope is lower-dimensional than the ambient space."""


class NotCobounded(CoconvexError):
    """The complement of the region inside its cone is unbounded."""


class ConeMismatch(CoconvexError):
    """Operands live over different cones or incompatible level functionals."""


class WrongArity(CoconvexError):
    """Number of arguments does not match the ambient dimension."""


class NonpositiveScalar(CoconvexError):
    """Scaling factor must be strictly positive."""


class NotPrimary(CoconvexError):
    """The ideal's complement in the semigroup is not finite."""


class NotPrimaryWithinCap(NotPrimary):
    """No power of the maximal ideal below the cap is contained in the ideal."""


class ZeroPolynomial(CoconvexError):
    """The zero polynomial has no valuation."""


class MonotonicityViolation(CoconvexError):
    """A certified non-increasing sequence increased; implementation bug."""


class InvariantViolation(CoconvexError):
    """A computed value breaks a certified invariant; implementation bug."""


class SingularSystem(CoconvexError):
    """The interpolation nodes do not determine a unique polynomial."""


class InputFormatError(CoconvexError):
    """Malformed JSON input for the command-line interface."""
