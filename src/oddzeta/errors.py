"""Exception hierarchy shared by all oddzeta modules.

Every domain error raised by the library derives from ``OddZetaError``
through the base that gives its command-line exit code: ``ConfigError``
2, ``PreconditionError`` 3, ``NumericalError`` 4.
"""


class OddZetaError(Exception):
    """Base class for all library errors."""


class ConfigError(OddZetaError):
    """Malformed or inconsistent run configuration (exit 2)."""


class PreconditionError(OddZetaError):
    """The input violates a precondition of the computation (exit 3)."""


class NumericalError(OddZetaError):
    """The computation does not converge or hits a singularity (exit 4)."""


# --- moebius ---------------------------------------------------------------

class NotLoxodromic(PreconditionError):
    """Operation requires a loxodromic element."""


class DegenerateConfiguration(PreconditionError):
    """Points that must be distinct are not (normalization anchors, a
    scan stencil), or anchors are not set."""


# --- words -----------------------------------------------------------------

class CutoffTooLarge(PreconditionError):
    """Enumeration would exceed the configured memory budget."""


class IndexOutOfRange(PreconditionError):
    """Word refers to a generator index outside the given family."""


class NonConvergent(NumericalError):
    """No exponent estimate: too low a determinant order, or no zero."""


# --- kernels / special functions -------------------------------------------

class PoleAtC(NumericalError):
    """Hypergeometric series undefined: c is a nonpositive integer."""


class NoConvergence(NumericalError):
    """Series or transformation does not converge on the requested input."""


class PoleAt(NumericalError):
    """Evaluation requested exactly at a pole of the function."""


class AtDiagonal(PreconditionError):
    """Kernel is singular on the diagonal r = 0."""


class PoleOfGamma(NumericalError):
    """Spectral parameter sits on the excluded gamma-factor pole set."""


class DivergentIntegral(NumericalError):
    """Time integral diverges: Re(lambda^2) <= 0."""


# --- zeta / zograf ----------------------------------------------------------

class ConvergenceViolation(NumericalError):
    """Zeta sum requested at Re(lambda) at or below the convergence abscissa."""


class DeltaNotNegative(PreconditionError):
    """Operation requires the (shifted) Poincare exponent to be negative."""


class NonPrimitiveInput(PreconditionError):
    """Only primitive conjugacy classes (power index j = 1) are allowed."""


class LeftSchottkyDomain(PreconditionError):
    """A scan step left the region where all preconditions hold."""
