"""Free-group words, conjugacy classes and the Poincare exponent estimate.

Words are tuples of signed generator indices (+k for the k-th generator,
-k for its inverse).  Conjugacy classes of nontrivial elements correspond
to cyclically reduced words up to rotation; the canonical representative
is the lexicographically minimal rotation under the integer order on
letters, which makes every enumeration deterministic.  The class spectrum
is computed on arrays in one walk of the prenecklace tree
(``_class_products``): each prenecklace, held as an integer code,
carries its matrix, its parent's times one letter (``word_products``,
one call of ``moebius._products``, the one array definition of a
product, whose one-block case is ``MoebiusMap.__matmul__``); the class
matrices are classified and reduced to their invariants in blocks by
``moebius.class_invariants``, the one array definition of both, whose
0-d case is ``classify`` and ``geodesic_invariants``, and each group
gets one ``Spectrum`` of 1-D arrays.  The words do not depend on the group, so ``class_spectra``
walks the tree once for one or more groups of one rank, their matrices
side by side on a trailing group axis.

``estimate_deltas`` reads the Poincare exponent off a class spectrum too,
as the zero of a determinant whose ``cycle_expansion`` sums its classes,
solving for one or more spectra with the same words in lockstep.

gamma and gamma^(-1) are distinct classes in a free group and both are
enumerated; they carry identical multipliers, which is what the zeta sums
expect.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CutoffTooLarge,
    IndexOutOfRange,
    NonConvergent,
    NotLoxodromic,
)
from .moebius import EPS_CLASS, MoebiusMap, _products, class_invariants

DEFAULT_WORD_BUDGET = 10_000_000


#: (prenecklace, group) products expanded (and their children
#: multiplied) per block of the walk: a walk of G groups expands
#: _PRODUCT_BLOCK // G prenecklaces at a time.  At rank 2 a block's
#: product temporaries take under a megabyte, and a shell's prenecklaces
#: are held in chunks of one block's children.
_PRODUCT_BLOCK = 1024

#: (class, group) entries classified and reduced to their invariants per
#: pass of class_spectra; a pass spans shells, so a small spectrum is one
#: pass.
_CLASS_BLOCK = 2048


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


def word_products(parents: np.ndarray, letters: np.ndarray,
                  table: np.ndarray) -> np.ndarray:
    """Each parent product times one letter, as ``MoebiusMap.__matmul__``.

    ``parents`` holds the entries of N products, a complex (2, 2, N)
    array, or (2, 2, N, G) for the same words in G groups; ``letters``
    holds N letter indices (see ``_class_products``) and ``table`` the
    (2, 2, 2g) or (2, 2, 2g, G) letter matrices by index.  One
    ``moebius._products`` call, whose one-block case is ``__matmul__``:
    applied to the prefix product of a word, this is the next prefix
    product ``evaluate_word`` forms, bit for bit, refusals included.
    """
    return _products(parents, np.take(table, letters, axis=2))


@dataclass(frozen=True)
class Spectrum:
    """The closed-geodesic spectrum up to a word cutoff, as 1-D arrays.

    One entry per conjugacy class, in (length, representative) order:
    ``codes`` the representative as in ``_class_products``,
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


def _class_products(generator_sets: Sequence[Sequence[MoebiusMap]],
                    L: int):
    """The products of every class of length <= L, in blocks, for
    G groups of one rank at once.

    One breadth-first walk of the tree of reduced prenecklaces of length
    1..L.  A class representative is the minimal rotation of a
    cyclically reduced word, so it and each of its prefixes are
    prenecklaces.  The tree grows each reduced prenecklace by every
    letter that keeps it reduced and a prenecklace
    (Fredricksen-Kessler-Maiorana: with p the period of the longest
    Lyndon prefix, the next letter must be >= the letter p places back,
    and p stays when it is equal, else becomes the new length).  A
    prenecklace of length n is a necklace when p divides n, and then
    j = n/p; it is a class when its first and last letters are not
    inverse.

    A word's code is its letter indices (0..2g-1 for the letters
    -g..-1, 1..g, so index 2g-1-i is the inverse of index i) read as
    base-2g digits, so numeric order is lexicographic order under the
    integer order on letters.  Each prenecklace carries its product, its
    parent's times its last letter through ``word_products``, so the
    product of a class is bit for bit ``evaluate_word``'s; at length L
    only the classes are multiplied.  The words do not depend on the
    group: codes, periods and j are shared, and each product carries a
    trailing group axis, (2, 2, N, G).  A shell is held in chunks
    ``(codes, period, products)``, one per block of at most
    ``_PRODUCT_BLOCK // G`` parents, and a chunk is dropped once its
    children are grown, so only prenecklaces are kept (at rank 2 about
    twice as many as classes), never all reduced words of a shell.

    Yields ``(codes, word_length, j, products)`` for blocks of at least
    ``_CLASS_BLOCK / G`` classes in class order (the last block may be
    smaller); blocks span shells.  More than ``DEFAULT_WORD_BUDGET``
    predicted classes, or codes beyond int64, raise CutoffTooLarge.
    """
    groups = len(generator_sets)
    g = len(generator_sets[0])
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
    block = max(1, _PRODUCT_BLOCK // groups)
    # the letter matrices by letter index and group; an inverse is the
    # adjugate that MoebiusMap.inverse builds
    table = np.array([[(m.d, -m.b, -m.c, m.a) for m in reversed(gens)]
                      + [(m.a, m.b, m.c, m.d) for m in gens]
                      for gens in generator_sets],
                     dtype=complex).T.reshape(2, 2, base, groups)
    # the letters are the first shell, each MoebiusMap.identity() times it
    eye = np.zeros((2, 2, base, groups), dtype=complex)
    eye[0, 0] = eye[1, 1] = 1.0
    codes, ones = letters.astype(np.int64), np.ones(base, dtype=np.int64)
    products = word_products(eye, letters, table)
    chunks = deque([(codes, ones, products)])
    pending = [(codes, ones, ones, products)]
    count = base
    for n in range(2, L + 1):
        grown = deque()
        while chunks:
            codes, period, products = chunks.popleft()
            for start in range(0, len(codes), block):
                parent = codes[start:start + block, None]
                p = period[start:start + block, None]
                back = parent // powers[p - 1] % base
                allowed = ((letters >= back)
                           & (letters != base - 1 - parent % base))
                rows, letter = np.nonzero(allowed)
                child = (parent * base + letters)[allowed]
                child_p = np.where(letters == back, p, n)[allowed]
                cls = ((n % child_p == 0)
                       & (child // powers[n - 1] != base - 1 - child % base))
                if n == L:
                    rows, letter = rows[cls], letter[cls]
                try:
                    child_products = word_products(
                        np.take(products, start + rows, axis=2), letter,
                        table)
                except (OverflowError, ValueError):
                    # the classes waiting here precede the refused product's
                    if pending:
                        yield _join(pending)
                    raise
                if n < L:
                    grown.append((child, child_p, child_products))
                    child_products = child_products[:, :, cls]
                j = n // child_p[cls]
                pending.append((child[cls], np.full(len(j), n), j,
                                child_products))
                count += len(j)
                if count * groups >= _CLASS_BLOCK:
                    yield _join(pending)
                    pending, count = [], 0
        chunks = grown
    if pending:
        yield _join(pending)


def _join(pending):
    """One (codes, word_length, j, products) from a list of them."""
    codes, lengths, js, products = zip(*pending)
    return (np.concatenate(codes), np.concatenate(lengths),
            np.concatenate(js),
            np.concatenate(products, axis=2))


def class_spectra(generator_sets: Sequence[Sequence[MoebiusMap]], L: int,
                  eps_class: float = EPS_CLASS) -> List[Spectrum]:
    """The ``Spectrum`` of every class of length <= L of each of several
    groups of one rank, from one walk of the prenecklace tree.

    The walk (``_class_products``) grows the words once and multiplies
    every group's matrices side by side: each prenecklace's matrix is its
    parent's times one letter (``word_products``), so a class costs one
    product step, not one per letter, and equals ``evaluate_word`` bit
    for bit.  The class matrices are classified and reduced to their
    multipliers by ``moebius.class_invariants`` in blocks of
    ``_CLASS_BLOCK`` (class, group) entries that span shells (fixed
    points are not computed); ``classify`` and ``geodesic_invariants``
    are its 0-d case, so every value equals the one they give.  The spectra share their ``codes``,
    ``word_length`` and ``j`` arrays.

    Refusals: one group raises NotLoxodromic naming its first class, in
    class order, that is not loxodromic; a product refused on any
    prenecklace raises its OverflowError or ValueError when the walk
    reaches it, after the classes walked before its block are
    classified: a class-by-class ``evaluate_word`` reaches those first.
    A batch raises the refusal of its first refused (class, group)
    entry in the walk, which that group raises on its own unless it has
    both a refused product and a refused class: which comes first can
    depend on the walk's blocks, smaller in a batch.
    Generator sets of different ranks raise ValueError.
    """
    sets = [tuple(gens) for gens in generator_sets]
    if len({len(gens) for gens in sets}) > 1:
        raise ValueError("the generator sets differ in rank")
    if not sets:
        return []
    g = len(sets[0])
    shared: dict = {name: [] for name in ("codes", "word_length", "j")}
    per_group: dict = {name: [] for name in ("ell", "theta", "q",
                                             "spin_phase")}
    for codes, lengths, j, entries in _class_products(sets, L):
        kind, _, q, ell, theta, phase = class_invariants(entries, eps_class)
        bad = np.argwhere(kind != "loxodromic")
        if bad.size:
            row, group = bad[0].tolist()
            word = word_strings(codes[row:row + 1], lengths[row:row + 1],
                                g)[0]
            raise NotLoxodromic(
                f"word {word} is {kind[row, group]}, not loxodromic")
        for name, value in zip(shared, (codes, lengths, j)):
            shared[name].append(value)
        # C-ordered group-major blocks, so each group's field is one
        # contiguous row
        for name, value in zip(per_group, (ell, theta, q, phase)):
            per_group[name].append(value.T.copy())
    # one field at a time, so the blocks and the result overlap by one field
    arrays = {name: np.concatenate(shared.pop(name)) for name in list(shared)}
    rows = {name: np.concatenate(per_group.pop(name), axis=1)
            for name in list(per_group)}
    return [Spectrum(rank=g, **arrays,
                     **{name: field[k] for name, field in rows.items()})
            for k in range(len(sets))]


def word_strings(codes: np.ndarray, word_length: np.ndarray,
                 g: int) -> List[str]:
    """``word_to_str`` of each word code (see ``_class_products``)."""
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


#: Intervals of the downward grid scan from lambda = 2 to -1.  Every
#: Kleinian group in H^3 has delta <= 2, so delta_hat <= 1, and a Z_N
#: not positive at 2 has no zero that can be delta_hat.
_SCAN_INTERVALS = 64

#: Terms w e^(-x y) that ``_traces`` holds at once.
_TRACE_BLOCK = 1 << 14


def cycle_expansion(spectrum: Spectrum, weight: np.ndarray, lam,
                    N: int) -> np.ndarray:
    """The coefficients c_0..c_N of the cycle expansion of a determinant
    det(1 - L_lambda) at each lambda, as rows.

    ``weight`` holds each class's trace weight, its factor n/j included:
    the shell traces are t_n(lambda) = sum weight e^(-lambda ell) over the
    classes of word length n, and Newton's identities give c_0 = 1 and
    n c_n = -sum_k t_k c_(n-k).  Weights and lambda may be complex.
    Longer classes are not read; an empty shell n <= N raises ValueError.
    An empty lam gives shape (N + 1, 0).
    """
    starts, end = _shells(spectrum.word_length, N)
    return _expansion_rows(spectrum.ell[None, :end], weight[None, :end],
                           starts, np.atleast_1d(lam)[None], N)[:, 0]


def _shells(word_length: np.ndarray, N: int):
    """The first index of each shell 1..N of sorted word lengths, and the
    end of shell N; an empty shell raises ValueError."""
    starts = np.searchsorted(word_length, np.arange(1, N + 2))
    full = starts[1:] > starts[:-1]
    if not full.all():
        raise ValueError(f"no class of word length {full.argmin() + 1}")
    return starts[:-1], starts[-1]


def _traces(y: np.ndarray, weight: np.ndarray, starts,
            x: np.ndarray) -> np.ndarray:
    """Sums of weight[r] e^(-x[r, k] y[r]) over the runs of row r of the
    stacked (R, n) ``y`` and ``weight`` that begin at ``starts``, for an
    (R, K) ``x``: shape (R, K, len(starts)).  Each x is its own row of
    ``np.add.reduceat`` over views of its row, in blocks of at most
    ``_TRACE_BLOCK`` terms (whole rows of x, or chunks of one row's), so
    its bits depend on no batch or block size; no x or no term gives 0."""
    rows, count = x.shape
    t = np.zeros((rows, count, len(starts)), np.result_type(weight, x, y))
    if y.shape[1] and count:
        step = max(1, _TRACE_BLOCK // y.shape[1])
        slab, chunk = max(1, step // count), min(step, count)
        for r in range(0, rows, slab):
            for k in range(0, count, chunk):
                t[r:r + slab, k:k + chunk] = np.add.reduceat(
                    weight[r:r + slab, None]
                    * np.exp(-x[r:r + slab, k:k + chunk, None]
                             * y[r:r + slab, None]),
                    starts, axis=2)
    return t


def _expansion_rows(ell: np.ndarray, weight: np.ndarray, starts: np.ndarray,
                    lam: np.ndarray, N: int) -> np.ndarray:
    """``cycle_expansion`` at each lam[r, k] of the spectrum in row r of
    the stacked (R, n) ``ell`` and ``weight`` (word lengths <= N), with
    shells beginning at ``starts``: Newton's identities on ``_traces``,
    shape (N + 1, R, K).  The traces are copied shell-major, so each
    product of Newton's identities runs on contiguous rows."""
    t = _traces(ell, weight, starts, lam).transpose(2, 0, 1).copy()
    c = [np.ones(lam.shape)]
    for n in range(1, N + 1):
        c.append(-sum(t[k - 1] * c[n - k] for k in range(1, n + 1)) / n)
    return np.array(c)


def estimate_deltas(spectra: Sequence[Spectrum],
                    N: int) -> List[PoincareEstimate]:
    """delta_hat = delta - 1 of each of one or more spectra with the same
    word lengths (such as one ``class_spectra``), solved in lockstep.

    Each estimate is the largest real zero of the order-N
    trivial-character determinant det(1 - L_lambda) (Ruelle 1976;
    McMullen 1998; Jenkinson-Pollicott 2002), read off the classes of its
    spectrum of word length <= N.  Its ``cycle_expansion`` has the trace
    weight (n/j) |q| / |1 - q|^2, and Z_N = sum_(n <= N) c_n.  The first
    sign change of Z_N on a grid scanned down to -1 from lambda = 2 is
    refined by regula falsi with the Illinois step.  The zeros of Z_(N-1)
    and Z_N bracket the estimate; a wide bracket is reported, not
    refused.  Rank 1 gives exactly -1 (a double zero, no sign change).
    N < 4, Z_(N-1) or Z_N not positive at 2, no zero, or an estimate
    above 1 (delta <= 2 for every Kleinian group in H^3) raise
    NonConvergent.

    Each spectrum's truncations Z_(N-1) and Z_N are the two entries of
    its row of one solve, held in (R, 2) arrays.  One ``_expansion_rows``
    call scans every row's grid, and each round of regula falsi with the
    Illinois step (the value at an end kept twice is halved) evaluates
    every entry in one more, a finished one at its lo, value ignored.  An
    entry keeps its own bracket, halving state and stop test (the
    bracket down to adjacent floats; an exact zero becomes the end hi,
    with value 0, and the steps close on it), so each estimate has the
    bits of a solve on its own.  A batch raises the refusal of its first
    spectrum whose grid scan fails (not positive at 2, else no zero),
    else that of its first estimate above 1.  Spectra whose word lengths
    differ raise ValueError.
    """
    spectra = list(spectra)
    if N < 4:
        raise NonConvergent(f"need at least 4 shells, got N = {N}")
    if not spectra:
        return []
    lengths = spectra[0].word_length
    if not all(np.array_equal(other.word_length, lengths)
               for other in spectra[1:]):
        raise ValueError("the spectra differ in their word lengths")
    if spectra[0].cutoff < N:
        raise ValueError(
            f"spectrum reaches word length {spectra[0].cutoff}, need {N}")
    estimates = [PoincareEstimate(delta_hat=-1.0, bracket=(-1.0, -1.0))
                 ] * len(spectra)
    solve = [i for i, spectrum in enumerate(spectra) if spectrum.rank != 1]
    if not solve:
        return estimates
    starts, end = _shells(lengths, N)
    ell = np.array([spectra[i].ell[:end] for i in solve])
    weight = np.array([
        lengths[:end] / spectra[i].j[:end] * np.abs(spectra[i].q[:end])
        / np.abs(1.0 - spectra[i].q[:end]) ** 2 for i in solve])

    def truncations(lam) -> np.ndarray:
        """Z_(N-1) and Z_N of stacked spectrum r at lam[r, k]: (R, 2, K)."""
        return np.cumsum(_expansion_rows(ell, weight, starts, lam, N),
                         axis=0)[N - 1:].swapaxes(0, 1)

    grid = np.linspace(2.0, -1.0, _SCAN_INTERVALS + 1)
    scans = truncations(np.tile(grid, (len(solve), 1)))
    crossed = scans <= 0.0
    for positive, zero in zip((scans[:, :, 0] > 0.0).all(axis=1).tolist(),
                              crossed.any(axis=2).tolist()):
        if not positive:
            raise NonConvergent(f"Z_{N - 1} and Z_{N} not both positive at 2")
        if not all(zero):
            raise NonConvergent(
                f"Z_{N - 1 + zero.index(False)} has no zero on [-1, 2]")
    # entry [r, k] is Z_(N-1+k) of spectrum r: its bracket, the values
    # there, the end kept last round (-1 hi, 1 lo, 0 none), whether live
    at = crossed.argmax(axis=2)[..., None] - np.arange(2)
    lo, hi = grid[at].transpose(2, 0, 1)
    f_lo, f_hi = np.take_along_axis(scans, at, axis=2).transpose(2, 0, 1)
    kept, live = np.zeros(lo.shape, dtype=int), np.ones(lo.shape, dtype=bool)
    while True:
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        # a trial outside its bracket: the bracket is down to adjacent floats
        live &= (lo < x) & (x < hi)
        if not live.any():
            break
        # a finished entry is evaluated at its lo, and the value ignored
        fx = np.diagonal(truncations(np.where(live, x, lo)), axis1=1, axis2=2)
        below, above = live & (fx < 0.0), live & ~(fx < 0.0)
        f_hi[below & (kept == -1)] *= 0.5
        f_lo[above & (kept == 1)] *= 0.5
        lo[below], f_lo[below], kept[below] = x[below], fx[below], -1
        hi[above], f_hi[above], kept[above] = x[above], fx[above], 1
    roots = np.where(-f_lo <= f_hi, lo, hi).tolist()
    for (low, high), i in zip(roots, solve):
        if high > 1.0:
            raise NonConvergent(
                f"delta_hat = {high!r} exceeds 1, the bound of every "
                "Kleinian group in H^3")
        estimates[i] = PoincareEstimate(delta_hat=high,
                                        bracket=(min(low, high),
                                                 max(low, high)))
    return estimates
