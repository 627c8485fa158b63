"""Free-group words, conjugacy classes and the Poincare exponent estimate.

Words are tuples of signed generator indices (+k for the k-th generator,
-k for its inverse).  Conjugacy classes of nontrivial elements correspond
to cyclically reduced words up to rotation; the canonical representative
is the lexicographically minimal rotation under the integer order on
letters, which makes every enumeration deterministic.

gamma and gamma^(-1) are distinct classes in a free group and both are
enumerated; they carry identical multipliers, which is what the zeta sums
expect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import BoundaryPoint, CutoffTooLarge, IndexOutOfRange, NonConvergent
from .moebius import HalfSpacePoint, MoebiusMap

GroupWord = Tuple[int, ...]

DEFAULT_WORD_BUDGET = 10_000_000


def free_reduce(letters: Sequence[int]) -> GroupWord:
    """Cancel adjacent inverse pairs until none remain."""
    out: List[int] = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def is_reduced(w: Sequence[int]) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def is_cyclically_reduced(w: Sequence[int]) -> bool:
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def cyclic_reduce(w: Sequence[int]) -> GroupWord:
    w = list(free_reduce(w))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def canonical_rotation(w: Sequence[int]) -> GroupWord:
    """Lexicographically minimal rotation; identity on the empty word."""
    w = tuple(w)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def power_index(w: Sequence[int]) -> int:
    """j such that w is a j-th power of a primitive cyclic word."""
    w = tuple(w)
    k = len(w)
    for p in range(1, k + 1):
        if k % p == 0 and w == w[p:] + w[:p]:
            return k // p
    return 1


@dataclass(frozen=True)
class ConjugacyClass:
    representative: GroupWord
    primitive: bool
    j: int
    word_length: int


def _reduced_word_count(g: int, length: int) -> int:
    if length == 0:
        return 1
    return 2 * g * (2 * g - 1) ** (length - 1)


def enumerate_classes(g: int, L: int,
                      budget: int = DEFAULT_WORD_BUDGET) -> List[ConjugacyClass]:
    """All conjugacy classes with cyclically reduced length <= L.

    Output is sorted by (length, representative) and contains exactly one
    entry per class; gamma and gamma^(-1) appear separately.  The budget
    caps the retained class count (roughly words-of-length-k / k per
    shell); rank 2 at L = 16 fits the default.
    """
    if g < 1 or L < 1:
        raise ValueError("need g >= 1 and L >= 1")
    predicted = sum(_reduced_word_count(g, k) // k for k in range(1, L + 1))
    if predicted > budget:
        raise CutoffTooLarge(
            f"about {predicted} classes at L = {L} exceeds the budget {budget}"
        )
    letters = [s for s in range(-g, g + 1) if s != 0]
    classes: List[ConjugacyClass] = []
    for length in range(1, L + 1):
        seen = set()
        word = [0] * length

        def fill(pos: int):
            for s in letters:
                if pos > 0 and s == -word[pos - 1]:
                    continue
                word[pos] = s
                if pos + 1 == length:
                    if length >= 2 and word[0] == -word[-1]:
                        continue
                    rep = canonical_rotation(word)
                    if rep not in seen:
                        seen.add(rep)
                else:
                    fill(pos + 1)

        fill(0)
        for rep in sorted(seen):
            j = power_index(rep)
            classes.append(ConjugacyClass(rep, j == 1, j, length))
    return classes


def evaluate_word(generators: Sequence[MoebiusMap], w: Sequence[int]) -> MoebiusMap:
    """Ordered product of (inverses of) generators, determinant renormalized.

    The sign of the product is the spin lift determined by the generator
    lifts; the running renormalization uses the principal square root and
    cannot flip it for determinant drifts below unity.
    """
    result = MoebiusMap.identity()
    for s in w:
        if s == 0 or abs(s) > len(generators):
            raise IndexOutOfRange(f"letter {s} outside 1..{len(generators)}")
        gen = generators[abs(s) - 1]
        result = result @ (gen if s > 0 else gen.inverse())
    return result


def word_to_str(w: Sequence[int]) -> str:
    """Compact letters: a, b, ... for generators, A, B, ... for inverses."""
    if not w:
        return "e"
    return "".join(
        chr(ord("a") + abs(s) - 1) if s > 0 else chr(ord("A") + abs(s) - 1)
        for s in w
    )


# --- Poincare exponent -------------------------------------------------------

BASE_POINT = HalfSpacePoint(1.0, (0.0, 0.0))


@dataclass(frozen=True)
class PoincareEstimate:
    """Shifted exponent estimate (usual exponent minus n)."""

    delta_hat: float
    bracket: Tuple[float, float]
    cutoff: int
    method: str


#: Parents expanded per block in shell_displacements.  At rank 2 a
#: block's temporaries stay within a few hundred kilobytes, so memory is
#: the retained frontier plus the output, whatever the cutoff; larger
#: blocks run no faster and raise the peak resident size.
_SHELL_BLOCK = 1024


def _det(e: np.ndarray) -> np.ndarray:
    return e[0] * e[3] - e[1] * e[2]


def _drifted(e: np.ndarray, det: np.ndarray, tol: float) -> np.ndarray:
    """|det - 1| > tol * max(1, scale^2), as in MoebiusMap."""
    a, b, c, d = np.abs(e)
    scale = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return np.abs(det - 1.0) > tol * np.maximum(1.0, scale ** 2)


def _renormalize(e: np.ndarray) -> None:
    """MoebiusMap.normalized and its determinant check, in place.

    ``e`` holds the entries a, b, c, d of a stack of matrices as rows.
    """
    det = _det(e)
    fix = _drifted(e, det, 1e-12)
    if not fix.any():
        return
    det = det[fix]
    if not det.all():
        raise ValueError("singular matrix")
    fixed = e[:, fix] / np.sqrt(det)
    det = _det(fixed)
    drift = _drifted(fixed, det, 1e-6)
    if drift.any():
        raise ValueError(
            f"determinant {complex(det[drift][0]):.6g} too far from 1; "
            "renormalize with MoebiusMap.normalized(...)"
        )
    e[:, fix] = fixed


def _displacements(e: np.ndarray, base: HalfSpacePoint) -> np.ndarray:
    """hyperbolic_distance(base, apply_h3(base)) per matrix, entries as rows."""
    a, b, c, d = e
    t = base.x
    u, v = base.y
    z = complex(u, v)
    cz_d = c * z + d
    den = np.abs(cz_d) ** 2 + np.abs(c) ** 2 * t * t
    num = (a * z + b) * cz_d.conj() + a * c.conj() * t * t
    x = t / den
    if (x <= 0).any():
        raise BoundaryPoint("distance needs interior points (x > 0)")
    dy2 = (u - num.real / den) ** 2 + (v - num.imag / den) ** 2
    val = (dy2 + (t + x) ** 2) / (4.0 * t * x)
    return 2.0 * np.arccosh(np.sqrt(np.maximum(val, 1.0)))


def shell_displacements(generators: Sequence[MoebiusMap], L: int,
                        base: HalfSpacePoint = BASE_POINT,
                        budget: int = DEFAULT_WORD_BUDGET) -> List[np.ndarray]:
    """Orbit displacements d(o, w o) for all reduced words, per length shell.

    Returns shells[k-1] for k = 1..L, each a 1-D float64 array in the
    depth-first (lexicographic) order of the words under the integer
    order on letters.  Shells are expanded breadth-first: each parent
    word times each letter, one batched product per letter, with the
    inverse of the parent's last letter masked out; products are
    renormalized above the same noise floor, and refused on the same
    determinant drift, as in ``MoebiusMap.__matmul__``, and agree with
    the scalar product and distance within a few ulps.  Parents are
    expanded in blocks of ``_SHELL_BLOCK``, and the matrices of the last
    shell are never kept, so memory is the shell-(L-1) matrices plus the
    output.
    """
    g = len(generators)
    predicted = sum(_reduced_word_count(g, k) for k in range(1, L + 1))
    if predicted > budget:
        raise CutoffTooLarge(
            f"about {predicted} words at L = {L} exceeds the budget {budget}"
        )
    if len(base.y) != 2:
        raise ValueError("H^3 action needs 2-dimensional boundary points")
    if base.x <= 0:
        raise BoundaryPoint("distance needs interior points (x > 0)")
    # letters -g..-1, 1..g by index; the inverse of letter j is 2g-1-j
    maps = [gen.inverse() for gen in reversed(generators)] + list(generators)
    mats = np.array([[[m.a, m.b], [m.c, m.d]] for m in maps], dtype=complex)
    frontier = np.eye(2, dtype=complex)[None]
    last = np.array([-1])  # the root's "inverse letter" 2g matches no letter
    shells: List[np.ndarray] = []
    for depth in range(L):
        children = 2 * g - (depth > 0)
        out = np.empty(len(frontier) * children)
        keep = depth + 1 < L
        if keep:
            next_frontier = np.empty((len(out), 2, 2), dtype=complex)
            next_last = np.empty(len(out), dtype=np.int32)
        for start in range(0, len(frontier), _SHELL_BLOCK):
            block = frontier[start:start + _SHELL_BLOCK]
            # parents[r, k] is the row of (r, k) entries across the block
            parents = block.transpose(1, 2, 0)[:, :, None]
            kids = np.empty((2, 2, len(block), 2 * g), dtype=complex)
            for j, m in enumerate(mats):
                # kid[r, col] = p[r, 0] m[0, col] + p[r, 1] m[1, col],
                # the arithmetic of MoebiusMap.__matmul__
                kids[..., j] = (parents[:, 0] * m[0, :, None]
                                + parents[:, 1] * m[1, :, None])
            inverse = 2 * g - 1 - last[start:start + _SHELL_BLOCK]
            allowed = inverse[:, None] != np.arange(2 * g)
            entries = kids.reshape(4, len(block), 2 * g)[:, allowed]
            _renormalize(entries)
            lo = start * children
            hi = lo + entries.shape[1]
            out[lo:hi] = _displacements(entries, base)
            if keep:
                next_frontier.reshape(-1, 4)[lo:hi] = entries.T
                next_last[lo:hi] = np.nonzero(allowed)[1]
        shells.append(out)
        if keep:
            frontier, last = next_frontier, next_last
    return shells


def shell_sum(displacements: Sequence[float], s: float,
              n: float = 1.0) -> float:
    """S_s(k) = sum over the shell of exp(-(s + n) r), correctly rounded."""
    return math.fsum(math.exp(-(s + n) * r) for r in displacements)


def _log_shell_sum(displacements: np.ndarray, s: float, n: float) -> float:
    # log-sum-exp; plain summation underflows for large s
    exps = -(s + n) * displacements
    m = exps.max()
    exps -= m
    return float(m + math.log(np.exp(exps, out=exps).sum()))


def estimate_delta(generators: Sequence[MoebiusMap], L: int, n: float = 1.0,
                   base: HalfSpacePoint = BASE_POINT,
                   budget: int = DEFAULT_WORD_BUDGET,
                   bisect_tol: float = 1e-12,
                   bracket_tol: float = None) -> PoincareEstimate:
    """Shell-bisection estimate of the shifted Poincare exponent.

    For each of the last two shell pairs (k, k+1) the shell growth rate
    log(S_s(k+1)/S_s(k)) crosses zero at some s; the latest crossing is
    the estimate and the two crossings bracket it.  The accuracy of this
    scheme is reported via the bracket, not guaranteed.  By default a wide
    bracket is returned rather than treated as failure; pass
    ``bracket_tol`` to insist on stabilized growth rates.

    The shells come from ``shell_displacements`` as arrays, and each
    bisection step takes one numpy log-sum-exp per shell, so the cost is
    the word expansion plus a few array passes per step.
    """
    if L < 4:
        raise NonConvergent(f"need at least 4 shells, got L = {L}")
    shells = shell_displacements(generators, L, base, budget)

    def crossing(k: int) -> float:
        # growth rate between shells k+1 and k+2 (1-based), decreasing in s
        def f(s: float) -> float:
            return (_log_shell_sum(shells[k + 1], s, n)
                    - _log_shell_sum(shells[k], s, n))

        lo, hi = -n - 3.0, 8.0
        tries = 0
        while f(lo) <= 0.0:
            lo -= 4.0
            tries += 1
            if tries > 8:
                raise NonConvergent("growth rate never positive; shells unusable")
        tries = 0
        while f(hi) >= 0.0:
            hi += 4.0
            tries += 1
            if tries > 8:
                raise NonConvergent("growth rate never negative; shells unusable")
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    s_prev = crossing(L - 3)
    s_last = crossing(L - 2)
    low, high = min(s_prev, s_last), max(s_prev, s_last)
    if bracket_tol is not None and high - low > bracket_tol:
        raise NonConvergent(
            f"bracket width {high - low:.3g} exceeds {bracket_tol:.3g}"
        )
    return PoincareEstimate(
        delta_hat=s_last, bracket=(low, high), cutoff=L, method="shell-bisection"
    )
