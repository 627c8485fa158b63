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
of 1-D arrays.  The batched code decides only the common case: a product
or class outside it goes through the scalar ``moebius`` code it mirrors,
which renormalizes or refuses it.

``estimate_delta`` reads the Poincare exponent off a class spectrum too,
as the zero of a determinant whose traces are sums over its classes.

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
    # 2g (2g - 1)^(k - 1) reduced words of length k, about 1/k of them classes
    predicted = sum(2 * g * (2 * g - 1) ** (k - 1) // k
                    for k in range(1, L + 1))
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


@np.errstate(over="ignore", invalid="ignore")
def word_products(parents, letters: np.ndarray, table):
    """Each parent product times one letter, as ``MoebiusMap.__matmul__``.

    ``parents`` is a split product ``(re, im)``: real and imaginary parts
    of the entries as (2, 2, N) float arrays.  ``letters`` holds N letter
    indices (see ``canonical_words``) and ``table`` the (2, 2, 2g) letter
    matrices by index, split the same way.  Returns the split products.
    Squared parts settle the common case, a product below the
    determinant noise floor and clear of the float range, which
    ``MoebiusMap.normalized`` keeps as it is; every other product goes
    through ``normalized`` itself, which renormalizes or refuses it.
    Applied to the prefix product of a word, this is the next prefix
    product ``evaluate_word`` forms, bit for bit, refusals included;
    numpy warns of nothing.
    """
    re, im = parents
    m_re, m_im = (np.take(t, letters, axis=2) for t in table)
    # new[r, c] = p[r, 0] m[0, c] + p[r, 1] m[1, c], as in __matmul__
    x = _mul(re[:, 0, None], im[:, 0, None], m_re[None, 0], m_im[None, 0])
    y = _mul(re[:, 1, None], im[:, 1, None], m_re[None, 1], m_im[None, 1])
    re, im = x[0] + y[0], x[1] + y[1]
    det_re, det_im = _split_det(re, im)
    # normalized's |det - 1| <= 1e-12 max(1, max|entry| ** 2), squared:
    # squared parts are within a relative 1e-6 of its hypot and pow, a
    # finite floor keeps max|entry| ** 2 far from overflow, and NaN fails
    size = np.maximum(1.0, (re * re + im * im).max(axis=(0, 1)))
    floor = 1e-24 * size * size
    settled = (((det_re - 1.0) ** 2 + det_im ** 2 < floor * (1.0 - 1e-6))
               & (floor < np.inf))
    for col in np.flatnonzero(~settled).tolist():
        m = MoebiusMap.normalized(*map(
            complex, re[:, :, col].ravel().tolist(),
            im[:, :, col].ravel().tolist()))
        re[:, :, col] = [[m.a.real, m.b.real], [m.c.real, m.d.real]]
        im[:, :, col] = [[m.a.imag, m.b.imag], [m.c.imag, m.d.imag]]
    return re, im


#: What ``class_invariants`` reports per product, as ``classify`` names it.
KINDS = ("identity", "parabolic", "elliptic", "loxodromic")


@np.errstate(over="ignore", invalid="ignore")
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
    ``math.log`` and ``cmath.phase`` run per value.  A loxodromic product
    whose t * t overflows, or with no eigenvalue above 1 in modulus, goes
    to ``_classify`` and ``_multiplier_invariants`` themselves, which
    refuse it as ``geodesic_invariants`` does, unless a product before it
    is not loxodromic; numpy warns of nothing.
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
    # outside the common case, where t * t overflows or no eigenvalue
    # exceeds 1 in modulus, the scalar code decides: it refuses such a
    # row unless a row before it is not loxodromic, which is refused first
    odd = ~(np.isfinite(tt_re[rows]) & np.isfinite(tt_im[rows])) | (
        modulus <= 1.0)
    for row in np.flatnonzero(lox)[odd].tolist():
        if not lox[:row].all():
            break
        a, b, c, d = map(complex, re[:, :, row].ravel().tolist(),
                         im[:, :, row].ravel().tolist())
        _classify(a, b, c, d, eps_class)
        _, q[row], ell[row], theta[row], phase[row] = (
            _multiplier_invariants(a + d))
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
    # the letter matrices by letter index (see canonical_words); an
    # inverse is the adjugate that MoebiusMap.inverse builds
    table = np.array([(m.d, -m.b, -m.c, m.a) for m in reversed(generators)]
                     + [(m.a, m.b, m.c, m.d) for m in generators],
                     dtype=complex).T.reshape(2, 2, -1)
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
        try:
            products = word_products(
                tuple(np.take(x, parent, axis=2) for x in frontier[chunk]),
                letter, split)
        except (OverflowError, ValueError):
            # the classes waiting here precede the refused product's
            if pending:
                yield _join(pending)
            raise
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
    OverflowError or ValueError when the walk reaches it, after the
    classes walked before its block are classified: a class-by-class
    ``evaluate_word`` reaches those first.
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


#: Intervals of the downward grid scan, and its highest start: Z_N tends
#: to 1 as lambda grows, so a Z_N not positive there has no usable zero.
_SCAN_INTERVALS, _SCAN_TOP = 64, 1024.0

#: Terms e^(-lambda ell) held at once when Z_N is evaluated on a grid.
_TRACE_BLOCK = 1 << 14


def _illinois(f, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """A zero of f in [lo, hi], f(lo) <= 0 < f(hi), by regula falsi with
    the Illinois step: the value at an end kept twice is halved.  An exact
    zero becomes the end hi, with value 0, and the steps close on it."""
    kept = 0
    while True:
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:  # the bracket is down to adjacent floats
            return lo if -f_lo <= f_hi else hi
        fx = f(x)
        if fx < 0.0:
            lo, f_lo = x, fx
            f_hi *= 0.5 if kept == -1 else 1.0
            kept = -1
        else:
            hi, f_hi = x, fx
            f_lo *= 0.5 if kept == 1 else 1.0
            kept = 1


def estimate_delta(spectrum: Spectrum, N: int) -> PoincareEstimate:
    """delta_hat = delta - 1 as the largest real zero of the order-N
    trivial-character determinant det(1 - L_lambda) (Ruelle 1976;
    McMullen 1998; Jenkinson-Pollicott 2002), read off the classes of
    ``spectrum`` of word length <= N.

    The shell traces are t_n = sum (n/j) e^(-lambda ell) |q| / |1 - q|^2
    over the classes of length n; Newton's identities, c_0 = 1 and
    n c_n = -sum_k t_k c_(n-k), give Z_N = sum_(n <= N) c_n.  Its first
    sign change on a grid scanned down to -1 from lambda = 2 (doubled
    while Z_N <= 0) is refined by ``_illinois``.  The zeros of Z_(N-1)
    and Z_N bracket the estimate; a wide bracket is reported, not
    refused.  Rank 1 gives exactly -1 (a double zero, no sign change).
    N < 4 or no zero raise NonConvergent.
    """
    if N < 4:
        raise NonConvergent(f"need at least 4 shells, got N = {N}")
    if spectrum.cutoff < N:
        raise ValueError(
            f"spectrum reaches word length {spectrum.cutoff}, need {N}")
    if spectrum.rank == 1:
        return PoincareEstimate(delta_hat=-1.0, bracket=(-1.0, -1.0))
    # reduceat runs each shell up to the next start, so longer shells
    # would fold into t_N
    part = spectrum.select(spectrum.word_length <= N)
    q = part.q
    weight = part.word_length / part.j * np.abs(q) / np.abs(1.0 - q) ** 2
    starts = np.searchsorted(part.word_length, np.arange(1, N + 1))
    step = max(1, _TRACE_BLOCK // len(part))

    def truncations(lam) -> np.ndarray:
        """Z_(N-1) and Z_N at each lambda, as rows."""
        lam = np.atleast_1d(lam)
        t = np.concatenate([np.add.reduceat(
            weight * np.exp(-np.multiply.outer(lam[k:k + step], part.ell)),
            starts, axis=1) for k in range(0, len(lam), step)]).T
        c = [np.ones(len(lam))]
        for n in range(1, N + 1):
            c.append(-sum(t[k - 1] * c[n - k] for k in range(1, n + 1)) / n)
        return np.cumsum(c, axis=0)[N - 1:]

    top = 2.0
    while not (truncations(top) > 0.0).all():
        top *= 2.0
        if top > _SCAN_TOP:
            raise NonConvergent(
                f"Z_{N - 1} and Z_{N} not both positive up to {_SCAN_TOP:g}")
    grid = np.linspace(top, -1.0, _SCAN_INTERVALS + 1).tolist()
    zeros = []
    for row, values in enumerate(truncations(grid).tolist()):
        i = next((i for i, v in enumerate(values) if v <= 0.0), None)
        if i is None:
            raise NonConvergent(
                f"Z_{N - 1 + row} has no zero on [-1, {top:g}]")
        zeros.append(_illinois(lambda lam: truncations(lam)[row, 0].item(),
                               grid[i], values[i], grid[i - 1], values[i - 1]))
    return PoincareEstimate(delta_hat=zeros[1],
                            bracket=(min(zeros), max(zeros)))
