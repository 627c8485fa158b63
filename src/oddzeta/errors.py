"""Exception hierarchy shared by all oddzeta modules.

Every domain error raised by the library derives from ``OddZetaError`` so
callers (in particular the CLI) can map failures onto exit codes without
string matching.
"""


class OddZetaError(Exception):
    """Base class for all library errors."""


class ConfigError(OddZetaError):
    """Malformed or inconsistent run configuration."""


# --- moebius ---------------------------------------------------------------

class NotLoxodromic(OddZetaError):
    """Operation requires a loxodromic element."""


class BoundaryPoint(OddZetaError):
    """Interior half-space point required (height x > 0)."""


class DegenerateConfiguration(OddZetaError):
    """Anchor fixed points for normalization are not three distinct points."""


# --- words -----------------------------------------------------------------

class CutoffTooLarge(OddZetaError):
    """Enumeration would exceed the configured memory budget."""


class IndexOutOfRange(OddZetaError):
    """Word refers to a generator index outside the given family."""


class NonConvergent(OddZetaError):
    """No exponent estimate: too low a determinant order, or no zero."""


# --- kernels / special functions -------------------------------------------

class PoleAtC(OddZetaError):
    """Hypergeometric series undefined: c is a nonpositive integer."""


class NoConvergence(OddZetaError):
    """Series or transformation does not converge on the requested input."""


class PoleAt(OddZetaError):
    """Evaluation requested exactly at a pole of the function."""


class AtDiagonal(OddZetaError):
    """Kernel is singular on the diagonal r = 0."""


class PoleOfGamma(OddZetaError):
    """Spectral parameter sits on the excluded gamma-factor pole set."""


class DivergentIntegral(OddZetaError):
    """Time integral diverges: Re(lambda^2) <= 0."""


# --- transport --------------------------------------------------------------

class UndefinedAtCorner(OddZetaError):
    """Parallel transport undefined: both points on the boundary and equal."""


class NotInvertible(OddZetaError):
    """Clifford element is not an invertible versor."""


# --- zeta / zograf ----------------------------------------------------------

class ConvergenceViolation(OddZetaError):
    """Zeta sum requested at Re(lambda) at or below the convergence abscissa."""


class DeltaNotNegative(OddZetaError):
    """Operation requires the (shifted) Poincare exponent to be negative."""


class NonPrimitiveInput(OddZetaError):
    """Only primitive conjugacy classes (power index j = 1) are allowed."""


class LeftSchottkyDomain(OddZetaError):
    """A scan step left the region where all preconditions hold."""
