"""SL(2, C) Moebius maps: classification and geodesic data.

Matrices are kept in SL(2, C), not PSL(2, C): the overall sign is preserved
through products, inverses and conjugation, because it carries the spin
lift that the spinor zeta variant needs.  Geodesic invariants themselves
(multiplier q, length, holonomy angle) are sign-blind; the sign surfaces
only through the ``spin_phase`` invariant.

Discreteness of generator families is trusted input everywhere in this
package: no Schottky (Jordan curve) condition is checked.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotLoxodromic

EPS_CLASS = 1e-9

#: Point at infinity on the Riemann sphere.
INFINITY = complex(math.inf, 0.0)


def is_infinite(z: complex) -> bool:
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


@dataclass(frozen=True)
class MoebiusMap:
    """Row-major entries of a unit-determinant 2x2 complex matrix.

    Entries are stored as Python ``complex`` whatever number type they
    are given in, so every product follows complex arithmetic.  The
    determinant constraint is enforced relative to the squared entry
    scale: for a matrix with entries of size K, the value a*d - b*c is
    only determined to about eps_machine * K^2 in floating point, so an
    absolute det tolerance would spuriously reject long word products of
    large loxodromic matrices (whose expanding eigenvalue remains
    relatively accurate throughout).  Entries whose squared scale is past
    the float range are refused: their tolerance would be infinite.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, complex(getattr(self, name)))
        scale = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        # a product, not ** 2: a square past the float range is inf, not an
        # OverflowError; written so that a NaN determinant fails too
        if not abs(self.det() - 1.0) <= 1e-6 * max(1.0, scale * scale):
            raise ValueError(
                f"determinant {self.det():.6g} too far from 1; "
                "renormalize with MoebiusMap.normalized(...)"
            )
        # an infinite entry passes the check above: its tolerance is infinite
        for name, z in zip("abcd", (self.a, self.b, self.c, self.d)):
            if not cmath.isfinite(z):
                raise ValueError(f"entry {name} = {z} is not finite")
        if math.isinf(scale * scale):
            raise ValueError(
                f"entry scale {scale:.6g} squares past the float range; "
                "the determinant cannot be checked"
            )

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def normalized(a: complex, b: complex, c: complex, d: complex) -> "MoebiusMap":
        """Scale entries by the principal 1/sqrt(det); keeps signs near det = 1.

        Below the determinant noise floor (eps * scale^2) the division is
        skipped: there the computed det is cancellation noise and dividing
        by its square root would contaminate the entries.  A product that
        overflowed to a non-finite entry raises OverflowError.
        """
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise OverflowError(f"entries {(a, b, c, d)} are not all finite")
        det = a * d - b * c
        floor = 1e-12 * max(1.0, max(abs(a), abs(b), abs(c), abs(d)) ** 2)
        if abs(det - 1.0) <= floor:
            return MoebiusMap(a, b, c, d)
        if det == 0:
            raise ValueError("singular matrix")
        s = cmath.sqrt(det)
        return MoebiusMap(a / s, b / s, c / s, d / s)

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        """The one-block case of ``_products``."""
        (a, b), (c, d) = _products(
            np.array([[[self.a], [self.b]], [[self.c], [self.d]]]),
            np.array([[[other.a], [other.b]], [[other.c], [other.d]]]),
        )[..., 0].tolist()
        return MoebiusMap(a, b, c, d)

    def inverse(self) -> "MoebiusMap":
        # adjugate equals inverse at det = 1 and preserves the sign lift
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "MoebiusMap":
        return MoebiusMap(-self.a, -self.b, -self.c, -self.d)

    def apply(self, z: complex) -> complex:
        """Action on the Riemann sphere C u {inf}."""
        if is_infinite(z):
            return self.a / self.c if self.c != 0 else INFINITY
        den = self.c * z + self.d
        if den == 0:
            return INFINITY
        return (self.a * z + self.b) / den


@np.errstate(over="ignore", invalid="ignore")
def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right of each pair of matrices, renormalized as
    ``MoebiusMap.normalized`` does it: the one definition of a product.

    ``left`` and ``right`` are complex arrays of shape (2, 2, ...) with
    the row-major entries of each matrix on the first two axes; the
    product is formed in numpy complex arithmetic.  Squared parts settle
    the common case, a product below the determinant noise floor and
    clear of the float range, which ``normalized`` keeps as it is; every
    other product goes through ``normalized`` itself, in row-major order
    of the trailing axes, which renormalizes it or raises its refusal.
    numpy warns of nothing.
    """
    # new[r, c] = left[r, 0] right[0, c] + left[r, 1] right[1, c]
    prod = left[:, 0, None] * right[None, 0] + left[:, 1, None] * right[None, 1]
    off = prod[0, 0] * prod[1, 1] - prod[0, 1] * prod[1, 0] - 1.0
    # normalized's |det - 1| <= 1e-12 max(1, max|entry| ** 2), squared:
    # squared parts are within a relative 1e-6 of its hypot and pow, a
    # finite floor keeps max|entry| ** 2 far from overflow, and NaN fails
    size = np.maximum(1.0, (prod.real ** 2 + prod.imag ** 2).max(axis=(0, 1)))
    floor = 1e-24 * size * size
    settled = ((off.real ** 2 + off.imag ** 2 < floor * (1.0 - 1e-6))
               & (floor < np.inf))
    for col in map(tuple, np.argwhere(~settled).tolist()):
        at = (Ellipsis, *col)
        m = MoebiusMap.normalized(*prod[at].ravel().tolist())
        prod[at] = [[m.a, m.b], [m.c, m.d]]
    return prod


@dataclass(frozen=True)
class GeodesicInvariants:
    """Per-element geodesic data of a loxodromic map.

    q = mu^(-2) with |mu| > 1, length = -log|q| > 0 and theta the unique
    angle in (-pi, pi] with q = exp(-(length + i*theta)).  ``spin_phase``
    is mu/|mu| for the given SL(2, C) lift; it flips sign with the matrix
    sign while everything else stays put.
    """

    length: float
    theta: float
    q: complex
    mu: complex
    attracting: complex
    repelling: complex
    spin_phase: complex


@np.errstate(over="ignore", invalid="ignore")
def class_invariants(entries, eps_class: float = EPS_CLASS):
    """The kind and multiplier invariants of a block of matrices.

    ``entries`` is a complex array of shape (2, 2, ...): the row-major
    entries of each matrix on the first two axes.  This is the one
    definition of both: ``classify``, ``geodesic_invariants`` and the
    class spectrum all call it.  Returns ``(kind, mu, q, length, theta,
    spin_phase)``, each of the trailing shape: ``kind`` the ``classify``
    name of each matrix, and for the loxodromic ones mu, the eigenvalue
    with |mu| > 1, sign included, q = mu^(-2), length = 2 log|mu|,
    theta = -arg q in (-pi, pi] and the spin phase mu/|mu| (NaN
    elsewhere).
    The first matrix, in row-major order, that tr^2 calls loxodromic but
    that has no eigenvalue above 1 in modulus raises NotLoxodromic, and
    one whose squared trace overflows raises OverflowError, unless a
    matrix before it is not loxodromic: the caller refuses that one.
    numpy warns of nothing.
    """
    entries = np.asarray(entries, dtype=complex)
    shape = entries.shape[2:]
    a, b, c, d = entries.reshape(4, -1)
    # min(max(|a - 1|, |b|, |c|, |d - 1|), the same for -m)
    off = np.maximum(np.abs(b), np.abs(c))
    near_id = np.maximum(off, np.minimum(
        np.maximum(np.abs(a - 1.0), np.abs(d - 1.0)),
        np.maximum(np.abs(a + 1.0), np.abs(d + 1.0))))
    t = a + d
    tr2 = t * t
    kind = np.select(
        [near_id < eps_class, np.abs(tr2 - 4.0) < eps_class,
         (np.abs(tr2.imag) < eps_class) & (-eps_class < tr2.real)
         & (tr2.real < 4.0)],
        ["identity", "parabolic", "elliptic"], "loxodromic")
    lox = kind == "loxodromic"
    s = np.sqrt(tr2 - 4.0)
    # align the root with t to avoid cancellation in t + s
    s = np.where(t.real * s.real + t.imag * s.imag < 0, -s, s)
    mu = 0.5 * (t + s)
    modulus = np.abs(mu)
    refused = np.flatnonzero(lox & (~np.isfinite(tr2) | (modulus <= 1.0)))
    if refused.size and lox[:refused[0]].all():
        first = refused[0]
        if not np.isfinite(tr2[first]):
            raise OverflowError("complex exponentiation")
        raise NotLoxodromic(
            f"no expanding eigenvalue, trace {complex(t[first])}")
    q = 1.0 / (mu * mu)
    theta = -np.angle(q)
    theta[theta <= -math.pi] = math.pi
    phase = np.empty_like(mu)
    phase.real, phase.imag = mu.real / modulus, mu.imag / modulus
    return (kind.reshape(shape),
            *(np.where(lox, x, np.nan).reshape(shape)
              for x in (mu, q, 2.0 * np.log(modulus), theta, phase)))


def classify(m: MoebiusMap, eps_class: float = EPS_CLASS) -> str:
    """One of 'identity' | 'parabolic' | 'elliptic' | 'loxodromic'.

    Decided from tr^2: identity iff m = +-Id, parabolic iff tr^2 = 4
    otherwise, elliptic iff tr^2 real in [0, 4), loxodromic otherwise.
    Near-boundary cases are resolved by ``eps_class``, which is a
    documented limitation: there is no exact classification threshold
    in floating point.  The 0-d case of ``class_invariants``, so a
    matrix it calls loxodromic with no eigenvalue above 1 in modulus
    (possible at eps_class = 0) raises NotLoxodromic, and one whose
    squared trace overflows OverflowError.
    """
    return class_invariants([[m.a, m.b], [m.c, m.d]], eps_class)[0].item()


def geodesic_invariants(m: MoebiusMap, eps_class: float = EPS_CLASS) -> GeodesicInvariants:
    """Multiplier, length, holonomy and fixed points of a loxodromic map.

    The multiplier invariants are the 0-d case of ``class_invariants``;
    the fixed points are computed here.
    """
    kind, mu, q, length, theta, phase = (
        x.item()
        for x in class_invariants([[m.a, m.b], [m.c, m.d]], eps_class))
    if kind != "loxodromic":
        raise NotLoxodromic(f"classify() = {kind}")
    a, b, c, d = m.a, m.b, m.c, m.d
    t = a + d
    mu_small = 1.0 / mu
    if c != 0:
        # roots of c z^2 + (d - a) z - b: take the large-numerator root
        # directly and recover the other from the product -b/c
        s = cmath.sqrt(t * t - 4.0)
        if ((a - d).conjugate() * s).real < 0:
            s = -s
        root1 = (a - d + s) / (2.0 * c)
    if c == 0 or is_infinite(root1):
        # upper triangular, or a c so small that the large root overflowed;
        # then the other root, -b/c over it, is -2b / (a - d + s)
        finite = b / (d - a) if c == 0 else -2.0 * b / (a - d + s)
        if abs(a) > 1.0:
            att, rep = INFINITY, finite
        else:
            att, rep = finite, INFINITY
    else:
        if root1 != 0:
            root2 = (-b / c) / root1
        else:
            root2 = (a - d - s) / (2.0 * c)
        # attracting root satisfies c z + d = mu (expanding eigenvector)
        if abs(c * root1 + d - mu) <= abs(c * root1 + d - mu_small):
            att, rep = root1, root2
        else:
            att, rep = root2, root1
    return GeodesicInvariants(
        length=length, theta=theta, q=q, mu=mu,
        attracting=att, repelling=rep, spin_phase=phase,
    )


def loxodromic(attracting: complex, repelling: complex,
               q: complex) -> MoebiusMap:
    """The map with finite, distinct fixed points ``attracting`` and
    ``repelling`` and multiplier q, 0 < |q| < 1: the inverse of
    ``geodesic_invariants``.  It is diag(sqrt q, 1/sqrt q), principal
    root, conjugated by the map taking attracting to 0, repelling to inf.
    """
    if not 0.0 < abs(q) < 1.0:
        raise ValueError(f"q = {q} must satisfy 0 < |q| < 1")
    conj = MoebiusMap.normalized(1.0, -attracting, 1.0, -repelling)
    root = cmath.sqrt(q)
    return conj.inverse() @ MoebiusMap(root, 0.0, 0.0, 1.0 / root) @ conj


def _map_to_0_inf_1(p1: complex, p2: complex, p3: complex) -> MoebiusMap:
    """Unique Moebius map with p1 -> 0, p2 -> inf, p3 -> 1."""
    if is_infinite(p1):
        a, b, c, d = 0.0, p3 - p2, 1.0, -p2
    elif is_infinite(p2):
        a, b, c, d = 1.0, -p1, 0.0, p3 - p1
    elif is_infinite(p3):
        a, b, c, d = 1.0, -p1, 1.0, -p2
    else:
        a, b = p3 - p2, -p1 * (p3 - p2)
        c, d = p3 - p1, -p2 * (p3 - p1)
    try:
        return MoebiusMap.normalized(a, b, c, d)
    except OverflowError:
        # a point so far out that the squared entries overflow: the same
        # map, its entries scaled exactly by a power of two
        scale = 2.0 ** -math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
        return MoebiusMap.normalized(*(z * scale for z in (a, b, c, d)))


def _points_distinct(points: Sequence[complex], tol: float = 1e-12) -> bool:
    for zi, zk in itertools.combinations(points, 2):
        if is_infinite(zi) and is_infinite(zk):
            return False
        if is_infinite(zi) or is_infinite(zk):
            continue
        if abs(zi - zk) <= tol * (1.0 + abs(zi) + abs(zk)):
            return False
    return True
