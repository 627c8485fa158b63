"""Dense real Clifford algebra Cl(d+1) and closed-form parallel transport
in the half-space model: the spin-holonomy oracle of the tests.

No subcommand reads any of this.  ``test_spin_holonomy`` composes the
spinor transport along a class's axis with the spin lift of the class's
differential and checks the holonomy against the class's ``spin_phase``,
sign included; ``test_transport`` and acceptance criterion 07 pin the
algebra and the transport themselves.

Sign convention, fixed and load-bearing: every frame vector squares to +1
(positive-definite metric).  This is the unique choice under which the
closed-form spinor transport (x+x')/rho - (r/rho) X R projects onto the
stated SO(d+1) transport matrix via pi(u)v = u v u^(-1); the spin-cover
test pins it observationally.  With e_i^2 = -1 the same formula projects
onto the inverse rotation.

Blades are indexed by bitmask over the orthonormal frame {X, e_1, ..., e_d}
(bit 0 is X).  Dense storage, fine for d <= 6.

Tangent-bundle transport between m = (x, y) and m' = (x', y') along the
connecting geodesic is the special orthogonal matrix tau(m, m') built from
r = |y - y'| and rho = sqrt((x + x')^2 + r^2); its spin lift is the even
Clifford element u = (x + x')/rho - (r/rho) X R with R the unit radial
vector (y - y')/r.  Both extend smoothly down to boundary points (x = 0),
which are admitted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from oddzeta.errors import PreconditionError

_MAX_DIM = 7


class BoundaryPoint(PreconditionError):
    """Interior half-space point required (height x > 0)."""


class UndefinedAtCorner(PreconditionError):
    """Parallel transport undefined: both points on the boundary and equal."""


class NotInvertible(PreconditionError):
    """Clifford element is not an invertible versor."""


@dataclass(frozen=True)
class HalfSpacePoint:
    """Point (x, y) of the half-space model, x the height, y in R^d."""

    x: float
    y: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if self.x < 0:
            raise BoundaryPoint(f"height x = {self.x} negative")


# --- Clifford algebra ----------------------------------------------------------


def _reorder_sign(mask_a: int, mask_b: int) -> float:
    """Sign from sorting the concatenated blade into canonical order."""
    a = mask_a >> 1
    swaps = 0
    while a:
        swaps += bin(a & mask_b).count("1")
        a >>= 1
    return -1.0 if swaps & 1 else 1.0


@dataclass(frozen=True)
class CliffordElement:
    """Coefficient vector over the 2^dim blade basis of Cl(dim)."""

    dim: int
    coeffs: Tuple[float, ...]

    def __post_init__(self):
        if not 1 <= self.dim <= _MAX_DIM:
            raise ValueError(f"dim {self.dim} outside 1..{_MAX_DIM}")
        if len(self.coeffs) != 1 << self.dim:
            raise ValueError("coefficient vector has wrong length")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    # ---- constructors -----------------------------------------------------

    @staticmethod
    def scalar(dim: int, value: float) -> "CliffordElement":
        coeffs = [0.0] * (1 << dim)
        coeffs[0] = value
        return CliffordElement(dim, tuple(coeffs))

    @staticmethod
    def from_vector(components: Sequence[float]) -> "CliffordElement":
        dim = len(components)
        coeffs = [0.0] * (1 << dim)
        for i, v in enumerate(components):
            coeffs[1 << i] = float(v)
        return CliffordElement(dim, tuple(coeffs))

    @staticmethod
    def basis_vector(dim: int, i: int) -> "CliffordElement":
        coeffs = [0.0] * (1 << dim)
        coeffs[1 << i] = 1.0
        return CliffordElement(dim, tuple(coeffs))

    # ---- algebra ----------------------------------------------------------

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(
            self.dim, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        return CliffordElement(
            self.dim, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other) -> "CliffordElement":
        if isinstance(other, (int, float)):
            return CliffordElement(self.dim, tuple(c * other for c in self.coeffs))
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        out = [0.0] * (1 << self.dim)
        for ma, ca in enumerate(self.coeffs):
            if ca == 0.0:
                continue
            for mb, cb in enumerate(other.coeffs):
                if cb == 0.0:
                    continue
                out[ma ^ mb] += _reorder_sign(ma, mb) * ca * cb
        return CliffordElement(self.dim, tuple(out))

    def __rmul__(self, other) -> "CliffordElement":
        return self.__mul__(other)

    def reverse(self) -> "CliffordElement":
        out = list(self.coeffs)
        for mask in range(len(out)):
            k = bin(mask).count("1")
            if (k * (k - 1) // 2) & 1:
                out[mask] = -out[mask]
        return CliffordElement(self.dim, tuple(out))

    def grade(self, k: int) -> "CliffordElement":
        out = [
            c if bin(mask).count("1") == k else 0.0
            for mask, c in enumerate(self.coeffs)
        ]
        return CliffordElement(self.dim, tuple(out))

    def scalar_part(self) -> float:
        return self.coeffs[0]

    def vector_part(self) -> Tuple[float, ...]:
        return tuple(self.coeffs[1 << i] for i in range(self.dim))

    def norm(self) -> float:
        """Euclidean coefficient norm; equals the versor norm in Cl(n, 0)."""
        return math.sqrt(sum(c * c for c in self.coeffs))

    def off_grade_norm(self, k: int) -> float:
        return math.sqrt(sum(
            c * c for mask, c in enumerate(self.coeffs)
            if bin(mask).count("1") != k
        ))

    def inverse(self, tol: float = 1e-10) -> "CliffordElement":
        """Inverse of a versor: reverse / squared norm.

        Raises NotInvertible when self * reverse(self) is not a nonzero
        scalar, i.e. when self is not (numerically) a versor.
        """
        rev = self.reverse()
        prod = self * rev
        n2 = prod.scalar_part()
        if abs(n2) < tol or prod.off_grade_norm(0) > tol * max(1.0, abs(n2)):
            raise NotInvertible("element is not an invertible versor")
        return rev * (1.0 / n2)


# --- parallel transport --------------------------------------------------------


@dataclass(frozen=True)
class TransportPair:
    """Ordered pair of half-space points with the derived (r, rho) data."""

    m: HalfSpacePoint
    m_prime: HalfSpacePoint
    r: float = field(init=False)
    rho: float = field(init=False)

    def __post_init__(self):
        if len(self.m.y) != len(self.m_prime.y):
            raise ValueError("boundary dimensions differ")
        r = math.sqrt(sum((u - v) ** 2 for u, v in zip(self.m.y, self.m_prime.y)))
        x_sum = self.m.x + self.m_prime.x
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rho", math.hypot(x_sum, r))

    @property
    def boundary_dim(self) -> int:
        return len(self.m.y)


def tau_matrix(pair: TransportPair) -> np.ndarray:
    """(d+1) x (d+1) transport matrix in the frames {x dx, x dy_1, ...}.

    Row/column 0 is the vertical direction X.  Defined for boundary points;
    only the corner x = x' = 0 with y = y' has no limit.
    """
    if pair.rho == 0.0:
        raise UndefinedAtCorner("both points on the boundary and equal")
    d = pair.boundary_dim
    x_sum = pair.m.x + pair.m_prime.x
    dy = [u - v for u, v in zip(pair.m.y, pair.m_prime.y)]
    rho2 = pair.rho ** 2
    tau = np.eye(d + 1)
    tau[0, 0] = 1.0 - 2.0 * pair.r ** 2 / rho2
    for j in range(1, d + 1):
        tau[0, j] = -2.0 * x_sum * dy[j - 1] / rho2
        tau[j, 0] = 2.0 * x_sum * dy[j - 1] / rho2
        for l in range(1, d + 1):
            tau[j, l] -= 2.0 * dy[j - 1] * dy[l - 1] / rho2
    return tau


def spinor_transport(pair: TransportPair) -> CliffordElement:
    """Spin(d+1) lift of tau_matrix: (x+x')/rho - (r/rho) X R.

    Unit norm, u(m, m) = 1, and pi(u) = tau under the adjoint action.
    """
    if pair.rho == 0.0:
        raise UndefinedAtCorner("both points on the boundary and equal")
    d = pair.boundary_dim
    alpha = (pair.m.x + pair.m_prime.x) / pair.rho
    if pair.r == 0.0:
        return CliffordElement.scalar(d + 1, 1.0)
    beta = pair.r / pair.rho
    x_vec = CliffordElement.basis_vector(d + 1, 0)
    radial = CliffordElement.from_vector(
        [0.0] + [(u - v) / pair.r for u, v in zip(pair.m.y, pair.m_prime.y)]
    )
    return CliffordElement.scalar(d + 1, alpha) - (x_vec * radial) * beta


def adjoint_action(u: CliffordElement, v: Sequence[float],
                   tol: float = 1e-10) -> np.ndarray:
    """pi(u) v = u v u^(-1), extracted from the grade-1 part."""
    w = u * CliffordElement.from_vector(list(v)) * u.inverse(tol)
    return np.array(w.vector_part())


def boundary_limit_transport(omega: Sequence[float], r: float) -> CliffordElement:
    """Transport u(m, m') for m = (0, r*omega) on the boundary, m' = (1, 0).

    Converges to -X R as r grows, at rate bounded by 2/r for r >= 2.
    """
    d = len(omega)
    m = HalfSpacePoint(0.0, tuple(r * w for w in omega))
    m_prime = HalfSpacePoint(1.0, (0.0,) * d)
    return spinor_transport(TransportPair(m, m_prime))
