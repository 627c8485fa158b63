"""Free-group words, conjugacy classes and the Poincare exponent estimate.

Words are tuples of signed generator indices (+k for the k-th generator,
-k for its inverse).  Conjugacy classes of nontrivial elements correspond
to cyclically reduced words up to rotation; the canonical representative
is the lexicographically minimal rotation under the integer order on
letters, which makes every enumeration deterministic.  The class spectrum
is computed on arrays: representatives as integer codes
(``canonical_words``), their matrices in exact batched products
(``word_products``), and the two combined in ``class_spectrum``, which
returns one ``Spectrum`` of 1-D arrays.

gamma and gamma^(-1) are distinct classes in a free group and both are
enumerated; they carry identical multipliers, which is what the zeta sums
expect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CutoffTooLarge,
    IndexOutOfRange,
    NonConvergent,
    NotLoxodromic,
)
from .moebius import (
    EPS_CLASS,
    MoebiusMap,
    _classify,
    _multiplier_invariants,
)

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


def _reduced_word_count(g: int, length: int) -> int:
    if length == 0:
        return 1
    return 2 * g * (2 * g - 1) ** (length - 1)


#: Parents expanded per block in canonical_words.  At rank 2 a block's
#: temporaries stay within a few megabytes.
_CLASS_BLOCK = 8192

#: Words multiplied and reduced per block in class_spectrum.  A block's
#: product temporaries and per-class Python values take about 1 MB,
#: beside the 72 bytes a class that the returned arrays hold.
_PRODUCT_BLOCK = 2048


def canonical_words(g: int, L: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Canonical representatives of all classes of length <= L, as codes.

    Returns shells[k-1] = (codes, j) for k = 1..L: int64 arrays with one
    entry per class of cyclically reduced length k, ascending.  A word's
    code is its letter indices (0..2g-1 for the letters -g..-1, 1..g, so
    index 2g-1-i is the inverse of index i) read as base-2g digits, so
    numeric order is lexicographic order under the integer order on
    letters, and ``_letter_indices`` recovers the letters.  j is the
    power index.

    A representative is the minimal rotation of a cyclically reduced
    word, so it and each of its prefixes are prenecklaces.  The shells
    grow as the reduced prenecklaces, each extended by every letter that
    keeps it reduced and a prenecklace (Fredricksen-Kessler-Maiorana:
    with p the period of the longest Lyndon prefix, the next letter must
    be >= the letter p places back, and p stays when it is equal, else
    becomes the new length).  A prenecklace of length k is a necklace
    when p divides k, and then j = k/p; it is a class when its first and
    last letters are not inverse.  Parents go through in blocks of
    ``_CLASS_BLOCK``, and only prenecklaces are kept (at rank 2 about
    twice as many as classes), never all reduced words of a shell.
    More than ``DEFAULT_WORD_BUDGET`` predicted classes, or codes beyond
    int64, raise CutoffTooLarge.
    """
    if g < 1 or L < 1:
        raise ValueError("need g >= 1 and L >= 1")
    predicted = sum(_reduced_word_count(g, k) // k for k in range(1, L + 1))
    if predicted > DEFAULT_WORD_BUDGET:
        raise CutoffTooLarge(
            f"about {predicted} classes at L = {L} exceeds the budget "
            f"{DEFAULT_WORD_BUDGET}"
        )
    base = 2 * g
    if base ** L > np.iinfo(np.int64).max:
        raise CutoffTooLarge(
            f"words of length {L} in {base} letters do not fit int64 codes"
        )
    letters = np.arange(base)
    powers = base ** np.arange(L, dtype=np.int64)
    codes = letters.astype(np.int64)
    period = np.ones(base, dtype=np.int64)
    shells = [(codes, period)]
    for n in range(2, L + 1):
        kept_codes, kept_j, grown_codes, grown_period = [], [], [], []
        for start in range(0, len(codes), _CLASS_BLOCK):
            parent = codes[start:start + _CLASS_BLOCK, None]
            p = period[start:start + _CLASS_BLOCK, None]
            back = parent // powers[p - 1] % base
            allowed = (letters >= back) & (letters != base - 1 - parent % base)
            child = (parent * base + letters)[allowed]
            child_p = np.where(letters == back, p, n)[allowed]
            cls = ((n % child_p == 0)
                   & (child // powers[n - 1] != base - 1 - child % base))
            kept_codes.append(child[cls])
            kept_j.append(n // child_p[cls])
            if n < L:
                grown_codes.append(child)
                grown_period.append(child_p)
        shells.append((np.concatenate(kept_codes), np.concatenate(kept_j)))
        if n < L:
            codes = np.concatenate(grown_codes)
            period = np.concatenate(grown_period)
    return shells


def _letter_indices(codes: np.ndarray, k: int, g: int) -> np.ndarray:
    """(N, k) letter indices of length-k word codes."""
    base = 2 * g
    return codes[:, None] // base ** np.arange(k - 1, -1, -1, dtype=np.int64) % base


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


# --- exact batched word products ---------------------------------------------
#
# word_products repeats evaluate_word's arithmetic on whole blocks of
# words, one letter position at a time, with real and imaginary parts in
# separate float64 arrays: every complex product, sum, square root and
# quotient is spelled out in the operations CPython uses, because numpy's
# own complex loops round differently.  Entries that evaluate_word holds
# as Python floats (real-typed generators stay real through their
# products) are tracked, since float and complex arithmetic differ in the
# sign of zero imaginary parts.


def _mul(xr, xi, yr, yi):
    return xr * yr - xi * yi, xr * yi + xi * yr


def _split_det(re: np.ndarray, im: np.ndarray):
    """a d - b c of (2, 2, N) matrices."""
    ad = _mul(re[0, 0], im[0, 0], re[1, 1], im[1, 1])
    bc = _mul(re[0, 1], im[0, 1], re[1, 0], im[1, 0])
    return ad[0] - bc[0], ad[1] - bc[1]


def _exact_scale_sq(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """max(1, max|entry| ** 2) per matrix, as MoebiusMap computes it."""
    # float_power is the C pow that Python's ** calls; x * x rounds
    # differently in about one case in a thousand
    return np.maximum(
        1.0, np.float_power(np.hypot(re, im).max(axis=(0, 1)), 2.0))


def _above_noise_floor(re, im, det_re, det_im) -> np.ndarray:
    """Where |det - 1| <= 1e-12 max(1, max|entry|^2) fails, as in
    MoebiusMap.normalized.

    Squared moduli settle every matrix whose |det - 1|^2 is not within a
    relative 1e-6 of the squared floor; only those near it pay for hypot
    and pow (about 20 ns an entry), which decide them exactly.
    """
    size = np.maximum(1.0, (re * re + im * im).max(axis=(0, 1)))
    gap = (det_re - 1.0) ** 2 + det_im ** 2
    floor = 1e-24 * size * size
    above = gap > floor * (1.0 + 1e-6)
    unsure = ~above & ~(gap < floor * (1.0 - 1e-6))
    if unsure.any():
        rows = np.flatnonzero(unsure)
        above[rows] = ~(np.hypot(det_re[rows] - 1.0, det_im[rows])
                        <= 1e-12 * _exact_scale_sq(re[:, :, rows],
                                                   im[:, :, rows]))
    return above


def _sqrt(re: np.ndarray, im: np.ndarray):
    """cmath.sqrt of nonzero finite values."""
    ax, ay = np.abs(re), np.abs(im)
    tiny = (ax < np.finfo(float).tiny) & (ay < np.finfo(float).tiny)
    s = np.empty_like(ax)
    # subnormal moduli: scale up by 2^53, back down by 2^-27
    up = np.ldexp(ax[tiny], 53)
    s[tiny] = np.ldexp(np.sqrt(up + np.hypot(up, np.ldexp(ay[tiny], 53))),
                       -27)
    ax8 = ax[~tiny] / 8.0
    s[~tiny] = 2.0 * np.sqrt(ax8 + np.hypot(ax8, ay[~tiny] / 8.0))
    d = ay / (2.0 * s)
    pos = re >= 0.0
    return np.where(pos, s, d), np.copysign(np.where(pos, d, s), im)


def _divide(ar, ai, br, bi):
    """Python's complex quotient (ar + i ai) / (br + i bi), br + i bi != 0:
    both parts are divided by the larger part of the divisor."""
    br, bi = np.broadcast_to(br, ar.shape), np.broadcast_to(bi, ar.shape)
    qr, qi = np.empty_like(ar), np.empty_like(ar)
    rows = np.abs(br) >= np.abs(bi)
    xr, xi, yr, yi = ar[rows], ai[rows], br[rows], bi[rows]
    ratio = yi / yr
    denom = yr + yi * ratio
    qr[rows] = (xr + xi * ratio) / denom
    qi[rows] = (xi - xr * ratio) / denom
    rows = ~rows
    xr, xi, yr, yi = ar[rows], ai[rows], br[rows], bi[rows]
    ratio = yr / yi
    denom = yr * ratio + yi
    qr[rows] = (xr * ratio + xi) / denom
    qi[rows] = (xi * ratio - xr) / denom
    return qr, qi


def _letter_table(generators: Sequence[MoebiusMap]):
    """Entries of the letter matrices by letter index, as MoebiusMap holds
    them (inverses are the adjugates that ``inverse`` builds): real and
    imaginary parts as (2, 2, 2g) arrays, and which entries are floats."""
    rows = ([(m.d, -m.b, -m.c, m.a) for m in reversed(generators)]
            + [(m.a, m.b, m.c, m.d) for m in generators])
    table = np.array(rows, dtype=complex).T.reshape(2, 2, -1)
    real = np.array([[not isinstance(x, complex) for x in r] for r in rows])
    return table.real.copy(), table.imag.copy(), real.T.reshape(2, 2, -1)


def word_products(generators: Sequence[MoebiusMap], words: np.ndarray):
    """Products of a block of words, bit for bit those of ``evaluate_word``.

    ``words`` is an (N, k) array of letter indices (see
    ``canonical_words``).  Returns ``(entries, real)``: the entries a, b,
    c, d of each product as the rows of a (4, N) complex array, and a
    (4, N) bool array marking the entries that ``evaluate_word`` returns
    as Python floats.  The products are renormalized above the same
    noise floor and refused with the same ``ValueError`` on a singular
    or drifting determinant as ``MoebiusMap.__matmul__``, raised at the
    earliest letter position where any word fails.
    """
    tab_re, tab_im, tab_real = _letter_table(generators)
    n = len(words)
    eye = np.eye(2)[:, :, None]
    re = np.repeat(eye, n, axis=2)
    im = np.zeros_like(re)
    real = np.ones(re.shape, dtype=bool)
    for col in words.T:
        m_re, m_im, m_real = (np.take(t, col, axis=2)
                              for t in (tab_re, tab_im, tab_real))
        # new[r, c] = p[r, 0] m[0, c] + p[r, 1] m[1, c], as in __matmul__;
        # it is a float when all four factors are
        x = _mul(re[:, 0, None], im[:, 0, None], m_re[None, 0], m_im[None, 0])
        y = _mul(re[:, 1, None], im[:, 1, None], m_re[None, 1], m_im[None, 1])
        re, im = x[0] + y[0], x[1] + y[1]
        real = ((real[:, 0, None] & real[:, 1, None])
                & (m_real[None, 0] & m_real[None, 1]))
        im[real] = 0.0
        det_re, det_im = _split_det(re, im)
        det_im[real.all(axis=(0, 1))] = 0.0
        fix = _above_noise_floor(re, im, det_re, det_im)
        if not fix.any():
            continue
        det_re, det_im = det_re[fix], det_im[fix]
        if ((det_re == 0.0) & (det_im == 0.0)).any():
            raise ValueError("singular matrix")
        root = _sqrt(det_re, det_im)
        re[:, :, fix], im[:, :, fix] = _divide(re[:, :, fix], im[:, :, fix],
                                               *root)
        real[:, :, fix] = False
        det_re, det_im = _split_det(re[:, :, fix], im[:, :, fix])
        drift = (np.hypot(det_re - 1.0, det_im)
                 > 1e-6 * _exact_scale_sq(re[:, :, fix], im[:, :, fix]))
        if drift.any():
            first = np.argmax(drift)
            det = complex(det_re[first], det_im[first])
            raise ValueError(
                f"determinant {det:.6g} too far from 1; "
                "renormalize with MoebiusMap.normalized(...)"
            )
    entries = np.empty((4, n), dtype=complex)
    entries.real = re.reshape(4, n)
    entries.imag = im.reshape(4, n)
    return entries, real.reshape(4, n)


@dataclass(frozen=True)
class Spectrum:
    """The closed-geodesic spectrum up to a word cutoff, as 1-D arrays.

    One entry per conjugacy class, in (length, representative) order:
    ``codes`` the representative as in ``canonical_words``,
    ``word_length`` its length, ``j`` its power index, and the geodesic
    invariants ``ell`` (length), ``theta`` (holonomy), ``q``
    (multiplier) and ``spin_phase`` of the class, each equal to the
    field of ``geodesic_invariants(evaluate_word(...))``.  ``rank`` is
    the number of generators, which the truncation-tail model needs.
    ``rank``, ``codes`` and ``word_length`` are None for hand-built
    spectra with no words.
    """

    rank: Optional[int]
    codes: Optional[np.ndarray]
    word_length: Optional[np.ndarray]
    j: np.ndarray
    ell: np.ndarray
    theta: np.ndarray
    q: np.ndarray
    spin_phase: np.ndarray

    def __len__(self) -> int:
        return len(self.j)

    @property
    def cutoff(self) -> int:
        """The largest word length present; 0 without words."""
        if self.word_length is None or not len(self):
            return 0
        return int(self.word_length.max())

    def select(self, rows):
        """The same kind of object restricted to ``rows`` (a mask, slice
        or index array) of every array field."""
        return replace(self, **{
            f.name: getattr(self, f.name)[rows] for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)})


def class_spectrum(generators: Sequence[MoebiusMap], L: int,
                   eps_class: float = EPS_CLASS) -> Spectrum:
    """The ``Spectrum`` of every class of length <= L.

    Classes come from ``canonical_words``; their matrices come from
    ``word_products`` in blocks of ``_PRODUCT_BLOCK`` words, and each is
    classified and reduced to its multiplier with the scalar arithmetic
    of ``classify`` and ``geodesic_invariants`` (fixed points are not
    computed), so every value equals the one evaluate_word followed by
    those two gives.  Raises NotLoxodromic naming the first class, in
    that order, that is not loxodromic.
    """
    g = len(generators)
    shells = canonical_words(g, L)
    n = sum(len(codes) for codes, _ in shells)
    ell, theta = np.empty(n), np.empty(n)
    q, phase = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
    lo = 0
    for k, (codes, _) in enumerate(shells, start=1):
        for start in range(0, len(codes), _PRODUCT_BLOCK):
            block = codes[start:start + _PRODUCT_BLOCK]
            entries, real = word_products(generators,
                                          _letter_indices(block, k, g))
            columns = [
                [z.real if f else z for z, f in zip(e.tolist(), r.tolist())]
                if r.any() else e.tolist()
                for e, r in zip(entries, real)]
            rows = []
            for i, (a, b, c, d) in enumerate(zip(*columns)):
                kind = _classify(a, b, c, d, eps_class)
                if kind != "loxodromic":
                    word = word_strings(block[i:i + 1], np.array([k]), g)[0]
                    raise NotLoxodromic(
                        f"word {word} is {kind}, not loxodromic")
                rows.append(_multiplier_invariants(a + d))
            hi = lo + len(rows)
            _, q[lo:hi], ell[lo:hi], theta[lo:hi], phase[lo:hi] = zip(*rows)
            lo = hi
    return Spectrum(
        rank=g,
        codes=np.concatenate([codes for codes, _ in shells]),
        word_length=np.concatenate([np.full(len(codes), k) for k, (codes, _)
                                    in enumerate(shells, start=1)]),
        j=np.concatenate([js for _, js in shells]),
        ell=ell, theta=theta, q=q, spin_phase=phase)


def word_strings(codes: np.ndarray, word_length: np.ndarray,
                 g: int) -> List[str]:
    """``word_to_str`` of each word code (see ``canonical_words``)."""
    base = 2 * g
    width = int(word_length.max())
    # shift[r, p]: the power of the base of letter p, < 0 past the end
    shift = word_length[:, None] - 1 - np.arange(width)
    digits = codes[:, None] // base ** np.maximum(shift, 0) % base
    alphabet = np.array([word_to_str((s,)) for s in range(-g, g + 1) if s])
    letters = np.where(shift >= 0, alphabet[digits], "")
    # numpy drops trailing empty characters, so each row is its word
    return letters.view(f"U{width}").ravel().tolist()


def word_to_str(w: Sequence[int]) -> str:
    """Compact letters: a, b, ... for generators, A, B, ... for inverses."""
    if not w:
        return "e"
    return "".join(
        chr(ord("a") + abs(s) - 1) if s > 0 else chr(ord("A") + abs(s) - 1)
        for s in w
    )


# --- Poincare exponent -------------------------------------------------------


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


def _displacements(e: np.ndarray) -> np.ndarray:
    """d(o, g o) at o = (1, 0) per matrix, entries as rows.

    2 cosh d = |a|^2 + |b|^2 + |c|^2 + |d|^2 for g in SL(2, C), so
    cosh^2(d/2) = (sum of |entries|^2 + 2) / 4.
    """
    cosh2 = ((e.real ** 2 + e.imag ** 2).sum(axis=0) + 2.0) / 4.0
    return 2.0 * np.arccosh(np.sqrt(np.maximum(cosh2, 1.0)))


def shell_displacements(generators: Sequence[MoebiusMap],
                        L: int) -> List[np.ndarray]:
    """Orbit displacements d(o, w o) for all reduced words, per length shell.

    The base point is o = (1, 0), the point j of the upper half-space,
    where 2 cosh d(o, g o) = |a|^2 + |b|^2 + |c|^2 + |d|^2 for g in
    SL(2, C) (the squared Frobenius norm of the matrix; Beardon, The
    Geometry of Discrete Groups, 4.2), so no point is moved.

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
    output.  More than ``DEFAULT_WORD_BUDGET`` words raise
    CutoffTooLarge.
    """
    g = len(generators)
    predicted = sum(_reduced_word_count(g, k) for k in range(1, L + 1))
    if predicted > DEFAULT_WORD_BUDGET:
        raise CutoffTooLarge(
            f"about {predicted} words at L = {L} exceeds the budget "
            f"{DEFAULT_WORD_BUDGET}"
        )
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
            out[lo:hi] = _displacements(entries)
            if keep:
                next_frontier.reshape(-1, 4)[lo:hi] = entries.T
                next_last[lo:hi] = np.nonzero(allowed)[1]
        shells.append(out)
        if keep:
            frontier, last = next_frontier, next_last
    return shells


def _log_shell_sum(displacements: np.ndarray, s: float) -> float:
    """log S_s(k) for n = 1, by log-sum-exp (plain sums underflow for
    large s)."""
    exps = -(s + 1.0) * displacements
    m = exps.max()
    exps -= m
    return float(m + math.log(np.exp(exps, out=exps).sum()))


def estimate_delta(generators: Sequence[MoebiusMap],
                   L: int) -> PoincareEstimate:
    """Shell-bisection estimate of the shifted Poincare exponent.

    For each of the last two shell pairs (k, k+1) the shell growth rate
    log(S_s(k+1)/S_s(k)) crosses zero at some s, found by bisection to
    1e-12; the latest crossing is the estimate and the two crossings
    bracket it.  The accuracy of this scheme is reported via the
    bracket, not guaranteed: a wide bracket is returned, not refused.

    The shells come from ``shell_displacements`` as arrays, and each
    bisection step takes one numpy log-sum-exp per shell, so the cost is
    the word expansion plus a few array passes per step.
    """
    if L < 4:
        raise NonConvergent(f"need at least 4 shells, got L = {L}")
    shells = shell_displacements(generators, L)

    def crossing(k: int) -> float:
        # growth rate between shells k+1 and k+2 (1-based), decreasing in s
        def f(s: float) -> float:
            return (_log_shell_sum(shells[k + 1], s)
                    - _log_shell_sum(shells[k], s))

        lo, hi = -4.0, 8.0
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
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if f(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    s_prev = crossing(L - 3)
    s_last = crossing(L - 2)
    return PoincareEstimate(
        delta_hat=s_last, bracket=(min(s_prev, s_last), max(s_prev, s_last)),
        cutoff=L, method="shell-bisection"
    )
