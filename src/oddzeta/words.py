"""Free-group words, conjugacy classes and the Poincare exponent estimate.

Words are tuples of signed generator indices (+k for the k-th generator,
-k for its inverse).  Conjugacy classes of nontrivial elements correspond
to cyclically reduced words up to rotation; the canonical representative
is the lexicographically minimal rotation under the integer order on
letters, which makes every enumeration deterministic.  The class spectrum
is computed on arrays in one walk of the prenecklace tree
(``_prenecklaces``, which ``canonical_words`` also reads): each
prenecklace, held as an integer code, carries its matrix, its parent's
times one letter in an exact batched product (``word_products``); the
class matrices are classified and reduced to their invariants in blocks
(``class_invariants``), and ``class_spectrum`` returns one ``Spectrum``
of 1-D arrays.

gamma and gamma^(-1) are distinct classes in a free group and both are
enumerated; they carry identical multipliers, which is what the zeta sums
expect.
"""

from __future__ import annotations

import cmath
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
from .moebius import EPS_CLASS, MoebiusMap

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


#: Prenecklaces expanded (and their children multiplied) per block of
#: the walk.  At rank 2 a block's product temporaries take under a
#: megabyte, and a shell's products are held in chunks of this many
#: parents' children.
_PRODUCT_BLOCK = 1024

#: Classes classified and reduced to their invariants per pass in
#: class_spectrum; a pass spans shells, so a small spectrum is one pass.
_CLASS_BLOCK = 2048


def _prenecklaces(g: int, L: int):
    """The tree of reduced prenecklaces of length 1..L, breadth first.

    A class representative is the minimal rotation of a cyclically
    reduced word, so it and each of its prefixes are prenecklaces.  The
    tree grows each reduced prenecklace by every letter that keeps it
    reduced and a prenecklace (Fredricksen-Kessler-Maiorana: with p the
    period of the longest Lyndon prefix, the next letter must be >= the
    letter p places back, and p stays when it is equal, else becomes the
    new length).  A prenecklace of length n is a necklace when p divides
    n, and then j = n/p; it is a class when its first and last letters
    are not inverse.

    Words are codes as in ``canonical_words``.  The prenecklaces of each
    length are held in chunks, one per block of their parents, and each
    chunk is expanded in blocks of at most ``_PRODUCT_BLOCK`` parents and
    dropped once expanded.  Yields, for n = 1..L and each block,
    ``(n, chunk, parent, letter, codes, cls, j)``: per child, the index
    of its parent within chunk ``chunk`` of the prenecklaces of length
    n - 1 (chunks numbered in yield order of the blocks that grew them;
    at n = 1 the parent is the empty word, chunk 0, row 0), its last
    letter and its code; ``cls`` marks the children that are classes
    and ``j`` holds their power indices.  Only prenecklaces are kept (at
    rank 2 about twice as many as classes), never all reduced words of
    a shell.  More than ``DEFAULT_WORD_BUDGET`` predicted classes, or
    codes beyond int64, raise CutoffTooLarge.
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
    chunks = [(letters.astype(np.int64), np.ones(base, dtype=np.int64))]
    yield (1, 0, np.zeros(base, dtype=np.intp), letters, chunks[0][0],
           np.ones(base, dtype=bool), chunks[0][1])
    for n in range(2, L + 1):
        grown = []
        for c in range(len(chunks)):
            (codes, period), chunks[c] = chunks[c], None
            for start in range(0, len(codes), _PRODUCT_BLOCK):
                parent = codes[start:start + _PRODUCT_BLOCK, None]
                p = period[start:start + _PRODUCT_BLOCK, None]
                back = parent // powers[p - 1] % base
                allowed = ((letters >= back)
                           & (letters != base - 1 - parent % base))
                rows, letter = np.nonzero(allowed)
                child = (parent * base + letters)[allowed]
                child_p = np.where(letters == back, p, n)[allowed]
                cls = ((n % child_p == 0)
                       & (child // powers[n - 1] != base - 1 - child % base))
                yield n, c, start + rows, letter, child, cls, n // child_p[cls]
                if n < L:
                    grown.append((child, child_p))
        chunks = grown


def canonical_words(g: int, L: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Canonical representatives of all classes of length <= L, as codes.

    Returns shells[k-1] = (codes, j) for k = 1..L: int64 arrays with one
    entry per class of cyclically reduced length k, ascending.  A word's
    code is its letter indices (0..2g-1 for the letters -g..-1, 1..g, so
    index 2g-1-i is the inverse of index i) read as base-2g digits, so
    numeric order is lexicographic order under the integer order on
    letters.  j is the power index.  The classes are the class nodes of
    the prenecklace walk ``_prenecklaces``, which also refuses cutoffs
    over budget.
    """
    shells: List[Tuple[list, list]] = [([], []) for _ in range(L)]
    for n, _, _, _, codes, cls, j in _prenecklaces(g, L):
        shells[n - 1][0].append(codes[cls])
        shells[n - 1][1].append(j)
    return [(np.concatenate(codes), np.concatenate(js))
            for codes, js in shells]


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


# --- exact batched word products and invariants -----------------------------
#
# word_products takes one letter step of evaluate_word's arithmetic on a
# whole block of prefix products, and class_invariants repeats classify
# and geodesic_invariants on a block of class matrices, with real and
# imaginary parts in separate float64 arrays: every complex product, sum,
# power, square root and quotient is spelled out in the operations
# CPython uses, because numpy's own complex loops round differently.


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


def _letter_table(generators: Sequence[MoebiusMap]) -> np.ndarray:
    """The letter matrices by letter index (see ``canonical_words``), as
    one complex (2, 2, 2g) array of MoebiusMap entries; an inverse is the
    adjugate that ``MoebiusMap.inverse`` builds."""
    rows = ([(m.d, -m.b, -m.c, m.a) for m in reversed(generators)]
            + [(m.a, m.b, m.c, m.d) for m in generators])
    return np.array(rows, dtype=complex).T.reshape(2, 2, -1)


def word_products(parents, letters: np.ndarray, table):
    """Each parent product times one letter, as ``MoebiusMap.__matmul__``.

    ``parents`` is a split product ``(re, im)``: real and imaginary parts
    of the entries as (2, 2, N) float arrays.  ``letters`` holds N letter
    indices (see ``canonical_words``) and ``table`` is
    ``_letter_table(generators)`` split the same way.  Returns the split
    products, renormalized above the same noise floor and refused with the
    same ``ValueError`` on a singular or drifting determinant as
    ``MoebiusMap.__matmul__`` (the first failing column names the
    determinant).  Applied to the prefix product of a word, this is the
    next prefix product ``evaluate_word`` forms, bit for bit.
    """
    re, im = parents
    m_re, m_im = (np.take(t, letters, axis=2) for t in table)
    # new[r, c] = p[r, 0] m[0, c] + p[r, 1] m[1, c], as in __matmul__
    x = _mul(re[:, 0, None], im[:, 0, None], m_re[None, 0], m_im[None, 0])
    y = _mul(re[:, 1, None], im[:, 1, None], m_re[None, 1], m_im[None, 1])
    re, im = x[0] + y[0], x[1] + y[1]
    det_re, det_im = _split_det(re, im)
    fix = _above_noise_floor(re, im, det_re, det_im)
    if not fix.any():
        return re, im
    det_re, det_im = det_re[fix], det_im[fix]
    if ((det_re == 0.0) & (det_im == 0.0)).any():
        raise ValueError("singular matrix")
    root = _sqrt(det_re, det_im)
    re[:, :, fix], im[:, :, fix] = _divide(re[:, :, fix], im[:, :, fix],
                                           *root)
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
    return re, im


#: What ``class_invariants`` reports per product, as ``classify`` names it.
KINDS = ("identity", "parabolic", "elliptic", "loxodromic")


def class_invariants(products, eps_class: float):
    """``classify`` and the multiplier invariants of a block of products.

    ``products`` is a split product as in ``word_products``.  Returns
    ``(kind, ell, theta, q, spin_phase)``: ``kind`` the ``classify`` name
    of each product, and for the loxodromic ones the length, holonomy,
    multiplier and spin phase, bit for bit those of
    ``geodesic_invariants`` on the same matrix (NaN elsewhere).
    The arithmetic is ``_classify`` and ``_multiplier_invariants`` in
    split form: ``**`` is two complex products, ``cmath.sqrt`` is
    ``_sqrt`` and quotients are ``_divide``; only
    ``math.log`` and ``cmath.phase`` run per value.  Raises NotLoxodromic
    as ``_expanding_eigenvalue`` does when a loxodromic product has no
    eigenvalue above 1 in modulus and no product before it failed to be
    loxodromic.
    """
    re, im = products
    a_re, b_re, c_re, d_re = re.reshape(4, -1)
    a_im, b_im, c_im, d_im = im.reshape(4, -1)
    # max(|a - 1|, |b|, |c|, |d - 1|) and the same for -m, the larger
    # entries identical in both
    off = np.maximum(np.hypot(b_re, b_im), np.hypot(c_re, c_im))
    near_id = np.minimum(
        np.maximum(off, np.maximum(np.hypot(a_re - 1.0, a_im),
                                   np.hypot(d_re - 1.0, d_im))),
        np.maximum(off, np.maximum(np.hypot(-a_re - 1.0, a_im),
                                   np.hypot(-d_re - 1.0, d_im))))
    t_re, t_im = a_re + d_re, a_im + d_im
    tt_re, tt_im = _mul(t_re, t_im, t_re, t_im)
    # (a + d) ** 2 is c_prod(1, t * t)
    tr2_re, tr2_im = _mul(1.0, 0.0, tt_re, tt_im)
    code = np.select(
        [near_id < eps_class,
         np.hypot(tr2_re - 4.0, tr2_im) < eps_class,
         (np.abs(tr2_im) < eps_class) & (-eps_class < tr2_re)
         & (tr2_re < 4.0)],
        [0, 1, 2], 3)
    kind = np.array(KINDS)[code]
    n = len(code)
    ell, theta = np.full(n, np.nan), np.full(n, np.nan)
    q, phase = np.full(n, np.nan + 0j), np.full(n, np.nan + 0j)
    lox = code == 3
    if not lox.any():
        return kind, ell, theta, q, phase
    rows = slice(None) if lox.all() else lox
    t_re, t_im = t_re[rows], t_im[rows]
    # _expanding_eigenvalue: s = sqrt(t * t - 4), aligned with t
    s_re, s_im = _sqrt(tt_re[rows] - 4.0, tt_im[rows])
    flip = t_re * s_re - (-t_im) * s_im < 0
    s_re, s_im = np.where(flip, -s_re, s_re), np.where(flip, -s_im, s_im)
    mu_re, mu_im = _mul(0.5, 0.0, t_re + s_re, t_im + s_im)
    modulus = np.hypot(mu_re, mu_im)
    weak = modulus <= 1.0
    if weak.any():
        first = np.flatnonzero(lox)[np.argmax(weak)]
        if lox[:first].all():
            t = complex(a_re[first] + d_re[first], a_im[first] + d_im[first])
            raise NotLoxodromic(f"no expanding eigenvalue, trace {t}")
    # mu ** -2 = 1 / c_prod(1, mu * mu)
    sq_re, sq_im = _mul(1.0, 0.0, *_mul(mu_re, mu_im, mu_re, mu_im))
    q_re, q_im = _divide(np.ones_like(sq_re), np.zeros_like(sq_im),
                         sq_re, sq_im)
    q_lox = np.empty(len(q_re), dtype=complex)
    q_lox.real, q_lox.imag = q_re, q_im
    ell[rows] = 2.0 * np.array(list(map(math.log, modulus.tolist())))
    angle = -np.array(list(map(cmath.phase, q_lox.tolist())))
    theta[rows] = np.where(angle <= -math.pi, math.pi, angle)
    q[rows] = q_lox
    phase_re, phase_im = _divide(mu_re, mu_im, modulus, 0.0)
    phase.real[rows], phase.imag[rows] = phase_re, phase_im
    return kind, ell, theta, q, phase


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
            if np.ndim(getattr(self, f.name))})


def _class_products(generators: Sequence[MoebiusMap], L: int):
    """The split products of every class of length <= L, in blocks.

    One walk of ``_prenecklaces``: each prenecklace carries its product,
    its parent's times its last letter through ``word_products``, so the
    product of a class is bit for bit ``evaluate_word``'s.  At length L
    only the classes are multiplied.  Products are held in the walk's
    chunks, and a chunk's are dropped once its children are multiplied,
    so the shell being expanded shrinks as the next one grows.  Yields
    ``(codes, word_length, j, products)`` for blocks of at least
    ``_CLASS_BLOCK`` classes in class order (the last block may be
    smaller); blocks span shells.
    """
    table = _letter_table(generators)
    split = table.real, table.imag
    eye = np.eye(2)[:, :, None]
    # the product of the empty word, MoebiusMap.identity()
    frontier = [(eye, np.zeros_like(eye))]
    grown, shell = [], 1
    pending: List[tuple] = []
    count = 0
    for n, chunk, parent, letter, codes, cls, j in _prenecklaces(
            len(generators), L):
        if n != shell:
            frontier, grown, shell = grown, [], n
        if chunk:
            frontier[chunk - 1] = None  # expanded: its products are done
        if n == L:
            parent, letter, codes = parent[cls], letter[cls], codes[cls]
        products = word_products(
            tuple(np.take(x, parent, axis=2) for x in frontier[chunk]),
            letter, split)
        if n < L:
            grown.append(products)
            codes = codes[cls]
            products = tuple(x[:, :, cls] for x in products)
        pending.append((codes, np.full(len(codes), n), j, products))
        count += len(codes)
        if count >= _CLASS_BLOCK:
            yield _join(pending)
            pending, count = [], 0
    if pending:
        yield _join(pending)


def _join(pending):
    """One (codes, word_length, j, products) from a list of them."""
    codes, lengths, js, products = zip(*pending)
    return (np.concatenate(codes), np.concatenate(lengths),
            np.concatenate(js),
            tuple(np.concatenate(part, axis=2) for part in zip(*products)))


def class_spectrum(generators: Sequence[MoebiusMap], L: int,
                   eps_class: float = EPS_CLASS) -> Spectrum:
    """The ``Spectrum`` of every class of length <= L.

    One walk of the prenecklace tree that ``canonical_words`` reads:
    each prenecklace's matrix is its parent's times one letter
    (``word_products``), so a class costs one product step, not one per
    letter, and equals ``evaluate_word`` bit for bit.  The class
    matrices are classified and reduced to their multipliers by
    ``class_invariants`` in blocks of ``_CLASS_BLOCK`` classes that span
    shells (fixed points are not computed), so every value equals the
    one ``classify`` and ``geodesic_invariants`` give.  Raises
    NotLoxodromic naming the first class, in class order, that is not
    loxodromic.  A product refused on any prenecklace raises its
    ValueError when the walk reaches it, before the classes still
    waiting for their invariants pass are classified.
    """
    g = len(generators)
    columns: dict = {name: [] for name in (
        "codes", "word_length", "j", "ell", "theta", "q", "spin_phase")}
    for codes, lengths, j, products in _class_products(generators, L):
        kind, ell, theta, q, phase = class_invariants(products, eps_class)
        bad = np.flatnonzero(kind != "loxodromic")
        if bad.size:
            row = bad[:1]
            word = word_strings(codes[row], lengths[row], g)[0]
            raise NotLoxodromic(
                f"word {word} is {kind[row[0]]}, not loxodromic")
        for name, value in zip(columns, (codes, lengths, j, ell, theta, q,
                                         phase)):
            columns[name].append(value)
    # one field at a time, so the blocks and the result overlap by one field
    return Spectrum(rank=g, **{name: np.concatenate(columns.pop(name))
                               for name in list(columns)})


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
    # the letter matrices by index; the inverse of letter j is 2g-1-j
    mats = _letter_table(generators).transpose(2, 0, 1)
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
        delta_hat=s_last, bracket=(min(s_prev, s_last), max(s_prev, s_last)))
