import cmath
import functools
import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_moebius import max_abs_diff

from oddzeta import words
from oddzeta.errors import (
    CutoffTooLarge,
    IndexOutOfRange,
    NonConvergent,
    NotLoxodromic,
)
from oddzeta.moebius import (MoebiusMap, classify, geodesic_invariants,
                             loxodromic)
from oddzeta.sample_groups import sample_group
from oddzeta.config import load_config
from oddzeta.words import (
    _class_products,
    class_spectra,
    estimate_deltas,
    evaluate_word,
    word_products,
    word_strings,
    word_to_str,
)
from oddzeta.zograf import (chart_params, pluriharmonicity_scan,
                            schottky_from_params)

CYCLIC_GEN = [MoebiusMap(2.0, 0.0, 0.0, 0.5)]

ROOT = Path(__file__).resolve().parents[1]

#: The thick chart point of the benchmark (shifted exponent about -0.476).
THICK_POINT = (0.06 + 0.05j, 0.07 - 0.03j, -0.9 + 0.6j)


def ring_group(rank: int = 5, q: float = 0.35, spread: float = 0.3):
    """Rank-``rank`` Schottky family with fixed points spread on the circle.

    The defaults give a discrete group whose limit set is big enough that
    the order-4 shifted exponent estimate lands above zero (0.949); used
    with ``delta_cutoff = 4`` to exercise the DeltaNotNegative refusal
    paths.  At order 5 its truncated determinant is not positive at
    lambda = 2, and the estimate is refused.
    """
    centers = (cmath.exp(2j * math.pi * k / rank) for k in range(rank))
    return tuple(loxodromic(c * (1.0 - spread), c * (1.0 + spread), q)
                 for c in centers)


def free_reduce(letters):
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def is_reduced(w):
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1))


def is_cyclically_reduced(w):
    if not is_reduced(w):
        return False
    return len(w) < 2 or w[0] != -w[-1]


def cyclic_reduce(w):
    w = list(free_reduce(w))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def canonical_rotation(w):
    """Lexicographically minimal rotation; identity on the empty word."""
    w = tuple(w)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def power_index(w):
    """j such that w is a j-th power of a primitive cyclic word."""
    w = tuple(w)
    k = len(w)
    for p in range(1, k + 1):
        if k % p == 0 and w == w[p:] + w[:p]:
            return k // p
    return 1


def decode_words(codes, k, g):
    """Signed-letter tuples of length-k word codes."""
    base = 2 * g
    indices = (codes[:, None] // base ** np.arange(k - 1, -1, -1, dtype=np.int64)
               % base)
    return [tuple(w) for w in (indices - g + (indices >= g)).tolist()]


def walk_spectrum(g, L):
    """The class spectrum of a rank-g group whose classes are all
    loxodromic, for the words and power indices of the walk."""
    return class_spectra([ring_group(g, 0.01)], L)[0]


def canonical_classes(g, L):
    """(representative, j) of every class, in order, from the walk."""
    spectrum = walk_spectrum(g, L)
    classes = []
    for k in range(1, L + 1):
        rows = spectrum.word_length == k
        classes.extend(zip(decode_words(spectrum.codes[rows], k, g),
                           spectrum.j[rows].tolist()))
    return classes


def recursive_classes(g, L):
    """Reference for the walk's classes: every cyclically reduced word of
    each length by a recursive fill, reduced to its minimal rotation;
    (representative, j) per class."""
    letters = [s for s in range(-g, g + 1) if s != 0]
    classes = []
    for length in range(1, L + 1):
        seen = set()
        word = [0] * length

        def fill(pos):
            for s in letters:
                if pos > 0 and s == -word[pos - 1]:
                    continue
                word[pos] = s
                if pos + 1 == length:
                    if length >= 2 and word[0] == -word[-1]:
                        continue
                    seen.add(canonical_rotation(word))
                else:
                    fill(pos + 1)

        fill(0)
        classes.extend((rep, power_index(rep)) for rep in sorted(seen))
    return classes


def scalar_class_spectrum(generators, L, eps_class=1e-9):
    """Reference for class_spectra: the recursive enumeration, then
    evaluate_word, classify and geodesic_invariants class by class."""
    for rep, j in recursive_classes(len(generators), L):
        m = evaluate_word(generators, rep)
        kind = classify(m, eps_class)
        if kind != "loxodromic":
            raise NotLoxodromic(f"word {word_to_str(rep)} "
                                f"is {kind}, not loxodromic")
        yield rep, j, geodesic_invariants(m, eps_class)


def cmath_invariants(m, eps_class=1e-9):
    """Reference for ``moebius.class_invariants`` on one matrix, entries
    (a, b, c, d), in CPython's scalar complex arithmetic: its kind, and
    (length, theta, q, spin_phase) if it is loxodromic, else None.  A
    squared trace that overflows raises OverflowError from ``**``."""
    a, b, c, d = m
    if min(max(abs(a - 1.0), abs(b), abs(c), abs(d - 1.0)),
           max(abs(-a - 1.0), abs(b), abs(c), abs(-d - 1.0))) < eps_class:
        return "identity", None
    t = a + d
    tr2 = t ** 2
    if abs(tr2 - 4.0) < eps_class:
        return "parabolic", None
    if abs(tr2.imag) < eps_class and -eps_class < tr2.real < 4.0:
        return "elliptic", None
    s = cmath.sqrt(t * t - 4.0)
    if (t.conjugate() * s).real < 0:
        s = -s
    mu = 0.5 * (t + s)
    if abs(mu) <= 1.0:
        raise NotLoxodromic(f"no expanding eigenvalue, trace {t}")
    q = mu ** -2
    theta = -cmath.phase(q)
    if theta <= -math.pi:
        theta = math.pi
    return "loxodromic", (2.0 * math.log(abs(mu)), theta, q, mu / abs(mu))


def cmath_spectrum(generators, L, eps_class=1e-9):
    """Reference for class_spectra: ``cmath_invariants`` class by class
    on the walk's class matrices, which are ``evaluate_word``'s; a dict
    of the fields ell, theta, q and spin_phase.  Refusals as
    class_spectra states them, the first refused class's."""
    rows = []
    for codes, lengths, _, entries in _class_products([generators], L):
        for k, matrix in enumerate(entries.reshape(4, -1).T.tolist()):
            kind, inv = cmath_invariants(matrix, eps_class)
            if inv is None:
                word = word_strings(codes[k:k + 1], lengths[k:k + 1],
                                    len(generators))[0]
                raise NotLoxodromic(f"word {word} is {kind}, not loxodromic")
            rows.append(inv)
    return {field: np.array(column) for field, column in
            zip(("ell", "theta", "q", "spin_phase"), zip(*rows))}


def python_product(x, y):
    """x @ y in Python complex arithmetic, renormalized by
    ``MoebiusMap.normalized``: the arithmetic ``MoebiusMap.__matmul__``
    had before it became the one-block case of the array product."""
    return MoebiusMap.normalized(
        x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d)


def python_words(generators):
    """``evaluate_word`` with ``python_product``, memoized by prefix: the
    reference for the array products."""
    @functools.lru_cache(maxsize=None)
    def word(w):
        if not w:
            return MoebiusMap.identity()
        gen = generators[abs(w[-1]) - 1]
        return python_product(word(w[:-1]),
                              gen if w[-1] > 0 else gen.inverse())
    return word


#: How far a class matrix of the walk may lie from ``python_words``: per
#: letter, in eps times its largest entry, times max(1, 1e12 D) for
#: generators whose determinants are off 1 by up to D.  A step that
#: renormalizes divides by the square root of a determinant whose
#: rounding grows as the entries squared, and a product is renormalized
#: only while |det - 1| > 1e-12 max|entry|^2, so only while that square
#: is below about 1e12 D.  Measured at most 0.69 per letter (ring5) on
#: the families of TestWordProducts and seeds 0-10 of the eta_thick box,
#: and 0.18 on det_drift (numpy 2.4, x86-64 AVX-512).
PRODUCT_EPS_PER_LETTER = 2.0


def ulps(got, want):
    """|got - want| in units of the float spacing at |want|, per value."""
    return np.abs(got - want) / np.spacing(np.abs(want))


#: How far each field of class_spectra may lie from ``cmath_spectrum``,
#: in ``ulps``.  Measured at most 1, 6, 6.3 and 3.2 on the families of
#: TestClassSpectrum and the eta_thick box (numpy 2.4, x86-64 AVX-512);
#: the bounds leave an ulp or two for other numpy builds.
ULP_BOUNDS = {"ell": 2, "theta": 8, "q": 8, "spin_phase": 4}


def bits(x):
    """Type and repr of a Python number: equal iff bit-identical."""
    return type(x), repr(x)


def same_spectrum(got, want):
    """Every field of two spectra bit-identical, compared as int64."""
    assert got.rank == want.rank
    for field in ("codes", "word_length", "j", "ell", "theta", "q",
                  "spin_phase"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        if x.dtype == complex:
            x, y = x.view(np.float64), y.view(np.float64)
        assert np.array_equal(x.view(np.int64), y.view(np.int64)), field


def unchecked_map(a, b, c, d):
    """A MoebiusMap that skips the determinant check, for refusal tests."""
    m = object.__new__(MoebiusMap)
    for name, value in zip("abcd", (a, b, c, d)):
        object.__setattr__(m, name, value)
    return m


#: A rank-1 family whose word a^36 has finite entries of 9.2e153 but a
#: trace whose square overflows.
TRACE_OVERFLOW = (MoebiusMap(9641.700978869623, 9641.700927011552,
                             9641.700927011552, 9641.700978869623),)


#: A real-typed family (Python float entries) whose length-2 classes ab
#: and BA have trace 1, so are elliptic; BA comes first in class order.
ELLIPTIC_AB = (MoebiusMap(2.0, 0.0, 0.0, 0.5), MoebiusMap(-1.0, 1.0, -7.0, 6.0))


def brute_force_classes(g, L):
    """Group all reduced words of length <= L by cyclic canonical form.

    Independent of the walk: builds every reduced word, cyclically
    reduces, and counts self-rotations for the power index.
    """
    letters = [s for s in range(-g, g + 1) if s]
    classes = {}

    def visit(word):
        if word:
            core = cyclic_reduce(word)
            if core:
                key = canonical_rotation(core)
                k = len(key)
                classes[key] = sum(
                    1 for i in range(k) if key[i:] + key[:i] == key
                )
        if len(word) < L:
            for s in letters:
                if word and s == -word[-1]:
                    continue
                visit(word + (s,))

    visit(())
    return classes


class TestEnumeration:
    def test_rank2_length1(self):
        classes = canonical_classes(2, 1)
        assert len(classes) == 4
        assert all(j == 1 for _, j in classes)
        assert sorted(word_to_str(w) for w, _ in classes) == [
            "A", "B", "a", "b"
        ]

    def test_rank2_length2(self):
        classes = canonical_classes(2, 2)
        assert len(classes) == 12
        squares = {word_to_str(w) for w, j in classes if j == 2}
        assert squares == {"aa", "AA", "bb", "BB"}
        mixed = {word_to_str(w) for w, j in classes if len(w) == 2 and j == 1}
        assert mixed == {"ab", "Ab", "Ba", "BA"}

    def test_rank1_powers(self):
        classes = canonical_classes(1, 3)
        assert [(word_to_str(w), j) for w, j in classes] == [
            ("A", 1), ("a", 1), ("AA", 2), ("aa", 2), ("AAA", 3), ("aaa", 3)
        ]

    def test_representatives_cyclically_reduced(self):
        for w, _ in canonical_classes(2, 5):
            assert is_cyclically_reduced(w)
            assert w[0] != -w[-1] or len(w) == 1

    def test_matches_brute_force_midsize(self):
        assert dict(canonical_classes(2, 6)) == brute_force_classes(2, 6)

    def test_budget_guard(self):
        # about 4.3e7 classes at L = 18, over the default budget
        with pytest.raises(CutoffTooLarge, match="budget"):
            walk_spectrum(2, 18)

    def test_deterministic_order(self):
        a = canonical_classes(2, 4)
        assert a == canonical_classes(2, 4)
        lengths = [len(w) for w, _ in a]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("g, L", [(1, 4), (2, 5), (3, 3)])
    def test_word_strings(self, g, L):
        spectrum = walk_spectrum(g, L)
        for k in range(1, L + 1):
            codes = spectrum.codes[spectrum.word_length == k]
            assert word_strings(codes, np.full(len(codes), k), g) == [
                word_to_str(w) for w in decode_words(codes, k, g)]
        assert word_strings(spectrum.codes, spectrum.word_length, g) == [
            word_to_str(w) for w, _ in canonical_classes(g, L)]


def necklace_class_count(g, L):
    """Classes of cyclically reduced length 1..L in the free group of rank
    g, by Burnside's lemma over rotations of cyclic words."""
    def cyclically_reduced(n):
        return (2 * g - 1) ** n + 1 + (g - 1) * (1 + (-1) ** n)

    return sum(
        sum(sum(1 for i in range(n // d) if math.gcd(i, n // d) == 1)
            * cyclically_reduced(d) for d in range(1, n + 1) if n % d == 0)
        // n
        for n in range(1, L + 1)
    )


class TestCanonicalWords:
    @pytest.mark.parametrize("g, L", [(1, 8), (2, 7), (3, 6)])
    def test_matches_recursive_and_brute_force(self, g, L):
        # rank 3 has base-6 codes
        classes = canonical_classes(g, L)
        assert classes == recursive_classes(g, L)
        assert dict(classes) == brute_force_classes(g, L)

    def test_codes_ascend_and_count_every_class_at_depth(self):
        spectrum = walk_spectrum(2, 14)
        assert spectrum.codes.dtype == np.int64 and spectrum.j.min() >= 1
        for k in range(1, 15):
            codes = spectrum.codes[spectrum.word_length == k]
            assert np.all(np.diff(codes) > 0)
        assert len(spectrum) == 534_444
        assert necklace_class_count(2, 14) == 534_444

    def test_int64_guard(self):
        # rank 1 has 2 classes a shell, so the budget never stops it first
        with pytest.raises(CutoffTooLarge, match="int64"):
            walk_spectrum(1, 63)


def _families():
    point = sample_group("real_pair")
    drift = math.sqrt(1.0 + 1e-9)
    return {
        "g2_complex_a": (sample_group("g2_complex_a").generators, 9),
        "thick": (schottky_from_params(*THICK_POINT).generators, 8),
        "ring5": (ring_group(), 4),
        # Python float entries, which MoebiusMap stores as complex with
        # +0.0 imaginary parts: the same matrices as complex_real_pair
        "float_real_pair": (tuple(
            MoebiusMap(*(z.real for z in (m.a, m.b, m.c, m.d)))
            for m in point.generators), 6),
        "complex_real_pair": (tuple(
            MoebiusMap(*(complex(z.real) for z in (m.a, m.b, m.c, m.d)))
            for m in point.generators), 6),
        # det = 1 + 1e-9, above the noise floor of short products
        "det_drift": (tuple(
            MoebiusMap(m.a * drift, m.b * drift, m.c * drift, m.d * drift)
            for m in schottky_from_params(*THICK_POINT).generators), 7),
        "elliptic_ab": (ELLIPTIC_AB, 6),
    }


def _family_or_box(name, tmp_path):
    """(generators, L) of a family of ``_families``, or of the benchmark's
    eta_thick box at L = 9 for a name ``eta_thick-<seed>``."""
    if not name.startswith("eta_thick"):
        return _families()[name]
    path = tmp_path / "eta_thick.cfg"
    seed = int(name.split("-")[1])
    path.write_text(_workloads().generate(seed)["eta_thick.cfg"])
    return load_config(str(path)).generators, 9


class TestWordProducts:
    @pytest.mark.parametrize("name", list(_families()))
    def test_bit_identical_to_evaluate_word(self, name):
        # the walk's product of every class, each its parent's times one
        # letter, against the class word multiplied letter by letter
        gens, L = _families()[name]
        g = len(gens)
        count = 0
        for codes, lengths, _, entries in _class_products([gens], L):
            for k in np.unique(lengths).tolist():
                rows = np.flatnonzero(lengths == k)
                words_k = decode_words(codes[rows], k, g)
                for w, r in zip(words_k, rows.tolist()):
                    got = entries[:, :, r, 0].ravel().tolist()
                    m = evaluate_word(gens, w)
                    assert (list(map(bits, got))
                            == list(map(bits, (m.a, m.b, m.c, m.d))))
            count += len(codes)
        assert count == len(canonical_classes(g, L))

    def test_non_finite_product_raises_overflow(self):
        # det M = det N = 0 passes the relative determinant check, and
        # the entries of M @ N overflow to infinity
        A, delta = 1.3e154, 1e150
        M = MoebiusMap(A, A, -A + delta, -A + delta)
        N = MoebiusMap(A, -A + delta, A, -A + delta)
        with pytest.raises(OverflowError):
            M @ N
        table = np.array([(m.a, m.b, m.c, m.d) for m in (M, N)],
                         dtype=complex).T.reshape(2, 2, -1)
        with pytest.raises(OverflowError):
            word_products(table[:, :, :1], np.array([1]), table)

    @pytest.mark.parametrize("name", [
        *_families(), *(f"eta_thick-{seed}" for seed in range(11))])
    def test_within_eps_of_python_products(self, name, tmp_path):
        gens, L = _family_or_box(name, tmp_path)
        g = len(gens)
        drift = max(abs(m.det() - 1.0) for m in gens)
        scale = PRODUCT_EPS_PER_LETTER * np.finfo(float).eps * max(
            1.0, 1e12 * drift)
        word = python_words(gens)
        for codes, lengths, _, entries in _class_products([gens], L):
            got = entries[..., 0].reshape(4, -1).T
            for k in np.unique(lengths).tolist():
                rows = np.flatnonzero(lengths == k)
                want = np.array([(m.a, m.b, m.c, m.d) for m in
                                 map(word, decode_words(codes[rows], k, g))])
                error = np.abs(got[rows] - want).max(axis=1)
                assert (error <= scale * k * np.abs(want).max(axis=1)).all()

    def test_drifting_generators_are_renormalized(self):
        # the family above exercises the renormalization on the first
        # product of every word, and the bit-identity test covers it
        gens, _ = _families()["det_drift"]
        for s in (-2, -1, 1, 2):
            gen = gens[abs(s) - 1]
            assert abs(gen.det() - 1.0) > 9e-10
            assert abs(evaluate_word(gens, (s,)).det() - 1.0) < 1e-15

    @pytest.mark.parametrize("gen, message", [
        (unchecked_map(1.0, 1.0, 1.0, 1.0), "singular matrix"),
        # det = 1e-320 is subnormal: renormalizing leaves it off by 1e-5
        (unchecked_map(1e-160, 0.0, 0.0, 1e-160), "determinant 1.00001"),
        (unchecked_map(1e-160 + 0j, 0j, 0j, 1e-160 + 0j), "determinant 1.00001"),
    ])
    def test_same_refusals_as_evaluate_word(self, gen, message):
        gens = (MoebiusMap(2.0, 0.0, 0.0, 0.5), gen)
        with pytest.raises(ValueError, match=message) as scalar:
            evaluate_word(gens, (1, 2))
        with pytest.raises(ValueError) as batched:
            class_spectra([gens], 2)[0]
        assert str(batched.value) == str(scalar.value)


class TestClassSpectrum:
    @pytest.mark.parametrize("name", [
        "g2_complex_a", "real_pair", "float", "thick", "ring5", "det_drift"])
    def test_matches_scalar_reference(self, name):
        if name in ("g2_complex_a", "real_pair"):
            gens, L = sample_group(name).generators, 6
        elif name == "float":
            gens, L = _families()["float_real_pair"][0], 6
        else:
            gens, L = _families()[name]
        g = len(gens)
        spectrum = class_spectra([gens], L)[0]
        want = list(scalar_class_spectrum(gens, L))
        assert [(w, j) for w, j, _ in want] == canonical_classes(g, L)
        assert spectrum.codes.tolist() == walk_spectrum(g, L).codes.tolist()
        assert spectrum.word_length.tolist() == [len(w) for w, _, _ in want]
        assert spectrum.j.tolist() == [j for _, j, _ in want]
        for field, got in (("length", spectrum.ell),
                           ("theta", spectrum.theta), ("q", spectrum.q),
                           ("spin_phase", spectrum.spin_phase)):
            assert (list(map(bits, got.tolist()))
                    == [bits(getattr(inv, field)) for _, _, inv in want])

    @pytest.mark.parametrize("name", ["thick", "ring5", "float_real_pair"])
    def test_blocks_straddling_shells_change_nothing(self, name, monkeypatch):
        # 7 parents a walk block and at least 7 classes an invariants pass:
        # blocks end mid-shell and passes span shells
        gens, L = _families()[name]
        L = min(L, 6)
        default = class_spectra([gens], L)[0]
        monkeypatch.setattr(words, "_PRODUCT_BLOCK", 7)
        monkeypatch.setattr(words, "_CLASS_BLOCK", 7)
        blocks = [len(codes) for codes, *_ in _class_products([gens], L)]
        assert len(blocks) > L and max(blocks) < len(default)
        small = class_spectra([gens], L)[0]
        same_spectrum(small, default)
        want = list(scalar_class_spectrum(gens, L))
        for field, got in (("length", small.ell), ("theta", small.theta),
                           ("q", small.q), ("spin_phase", small.spin_phase)):
            assert (list(map(bits, got.tolist()))
                    == [bits(getattr(inv, field)) for _, _, inv in want])
        assert canonical_classes(len(gens), L) == recursive_classes(
            len(gens), L)

    @pytest.mark.parametrize("name", ["elliptic_ab", "complex_ab", "thick",
                                      "overflow", "trace_overflow"])
    @pytest.mark.parametrize("eps_class", [0.0, 0.5, 3.0])
    def test_refusals_match_scalar_reference(self, name, eps_class):
        # eps_class = 0 leaves nothing elliptic, so BA reaches the
        # eigenvalue and has none above 1; 3 makes the generators identity.
        # The overflow family's words of length 6 have entries of 1e180,
        # whose square overflows; at eps_class = 3 its generator b is
        # identity, and that refusal comes first.  The trace_overflow
        # family's entries stay finite, but the trace of a^36 squared
        # overflows
        L = 4
        if name == "complex_ab":
            gens = tuple(MoebiusMap(*(complex(z) for z in (m.a, m.b, m.c, m.d)))
                         for m in ELLIPTIC_AB)
        elif name == "overflow":
            gens = (MoebiusMap(1e30, 0.0, 0.0, 1e-30),
                    MoebiusMap(2.0, 1.0, 1.0, 1.0))
            L = 7
        elif name == "trace_overflow":
            gens, L = TRACE_OVERFLOW, 36
        else:
            gens = _families()[name][0]

        def outcome(rows):
            try:
                return [bits(x) for row in rows() for x in row]
            except NotLoxodromic as exc:
                return str(exc)
            except OverflowError:
                return "OverflowError"

        def batched():
            s = class_spectra([gens], L, eps_class)[0]
            return zip(s.ell.tolist(), s.theta.tolist(), s.q.tolist(),
                       s.spin_phase.tolist())

        def scalar():
            return ((inv.length, inv.theta, inv.q, inv.spin_phase)
                    for _, _, inv in scalar_class_spectrum(gens, L, eps_class))

        assert outcome(batched) == outcome(scalar)

    @pytest.mark.parametrize("name", [
        "g2_complex_a", "thick", "ring5", "float_real_pair",
        "complex_real_pair", "det_drift",
        *(f"eta_thick-{seed}" for seed in range(11))])
    def test_within_ulps_of_cmath_reference(self, name, tmp_path):
        gens, L = _family_or_box(name, tmp_path)
        spectrum = class_spectra([gens], L)[0]
        want = cmath_spectrum(gens, L)
        for field, bound in ULP_BOUNDS.items():
            assert ulps(getattr(spectrum, field), want[field]).max() <= bound, (
                field)

    @pytest.mark.parametrize("name", ["elliptic_ab", "trace_overflow"])
    @pytest.mark.parametrize("eps_class", [0.0, 0.5, 3.0])
    def test_refusals_match_cmath_reference(self, name, eps_class):
        gens, L = ((TRACE_OVERFLOW, 36) if name == "trace_overflow"
                   else (ELLIPTIC_AB, 4))

        def refusal(call):
            with pytest.raises((NotLoxodromic, OverflowError)) as exc:
                call()
            return type(exc.value), str(exc.value)

        assert (refusal(lambda: class_spectra([gens], L, eps_class))
                == refusal(lambda: cmath_spectrum(gens, L, eps_class)))

    def test_float_entries_change_nothing(self):
        floats, L = _families()["float_real_pair"]
        complexes, _ = _families()["complex_real_pair"]
        same_spectrum(*class_spectra([floats], L),
                      *class_spectra([complexes], L))

    def test_refusal_survives_small_blocks(self, monkeypatch):
        monkeypatch.setattr(words, "_PRODUCT_BLOCK", 7)
        monkeypatch.setattr(words, "_CLASS_BLOCK", 7)
        with pytest.raises(NotLoxodromic,
                           match="^word BA is elliptic, not loxodromic$"):
            class_spectra([ELLIPTIC_AB], 4)[0]

    def test_memory_ceiling(self):
        # multiplying each class word letter by letter peaked at 3.4 MiB on
        # this input and the walk at 3.5 MiB; 8192-class invariants passes
        # need 6.4 MiB
        gens = sample_group("g2_complex_a").generators
        tracemalloc.start()
        try:
            class_spectra([gens], 11)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20

    def test_first_non_loxodromic_class_refused(self):
        with pytest.raises(NotLoxodromic) as reference:
            list(scalar_class_spectrum(ELLIPTIC_AB, 3))
        with pytest.raises(NotLoxodromic) as batched:
            class_spectra([ELLIPTIC_AB], 3)[0]
        assert str(batched.value) == str(reference.value) == (
            "word BA is elliptic, not loxodromic")

    def test_select_keeps_every_field(self):
        (spectrum,) = class_spectra(
            [sample_group("g2_complex_a").generators], 4)
        primitive = spectrum.select(spectrum.j == 1)
        assert len(primitive) == int((spectrum.j == 1).sum())
        assert primitive.cutoff == spectrum.cutoff == 4
        assert primitive.q.tolist() == spectrum.q[spectrum.j == 1].tolist()
        assert primitive.codes.tolist() == (
            spectrum.codes[spectrum.j == 1].tolist())

    @pytest.mark.parametrize("family,L,rank", [
        ("cyclic", 4, 1), ("g2_complex_a", 4, 2), ("ring", 3, 5)])
    def test_rank_is_generator_count(self, family, L, rank):
        gens = {"cyclic": CYCLIC_GEN, "ring": ring_group()}.get(family)
        if gens is None:
            gens = sample_group(family).generators
        spectrum = class_spectra([gens], L)[0]
        assert spectrum.rank == len(gens) == rank
        assert spectrum.select(spectrum.j == 1).rank == rank


#: A rank-2 family whose words of length 6 have entries of 1e180, whose
#: squares overflow: at L = 7 its walk is refused partway.
OVERFLOW_AB = (MoebiusMap(1e30, 0.0, 0.0, 1e-30),
               MoebiusMap(2.0, 1.0, 1.0, 1.0))


def outcome(call):
    """What a call gives: its value, or its exception's type and message."""
    try:
        return "ok", call()
    except Exception as exc:
        return type(exc), str(exc)


#: Genus-2 chart points (q1, q2, b2) of small multipliers, b2 clear of
#: the anchors 0 and 1.
small_q = st.builds(complex, st.floats(-0.05, 0.05), st.floats(-0.05, 0.05)
                    ).filter(lambda q: 1e-4 < abs(q) < 0.05)
chart_points = st.tuples(small_q, small_q,
                         st.builds(complex, st.floats(-2.0, -0.5),
                                   st.floats(0.3, 1.0)))


class TestClassSpectra:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([1, 2, 9]).flatmap(
        lambda G: st.lists(chart_points, min_size=G, max_size=G)))
    def test_equals_a_loop_of_class_spectrum(self, points):
        sets = [schottky_from_params(*p).generators for p in points]
        batch = class_spectra(sets, 5)
        assert len(batch) == len(sets)
        for got, gens in zip(batch, sets):
            same_spectrum(got, class_spectra([gens], 5)[0])
            assert got.ell.flags.c_contiguous and got.q.flags.c_contiguous

    def test_small_blocks_change_nothing(self, monkeypatch):
        # 9 groups and blocks of 7 entries: one parent a walk block, and
        # passes of a single class span shells
        sets = [schottky_from_params(THICK_POINT[0] * (1 + 0.1 * k),
                                     *THICK_POINT[1:]).generators
                for k in range(9)]
        want = [class_spectra([gens], 6)[0] for gens in sets]
        monkeypatch.setattr(words, "_PRODUCT_BLOCK", 7)
        monkeypatch.setattr(words, "_CLASS_BLOCK", 7)
        for got, spectrum in zip(class_spectra(sets, 6), want):
            same_spectrum(got, spectrum)

    @pytest.mark.parametrize("names", [
        ("thick", "elliptic", "thick"),
        ("thick", "overflow"),
        # the walk meets BA, elliptic, at length 2, long before the
        # overflow family's products at length 6: in any order the batch
        # refuses the elliptic family, a loop the first refused one
        ("thick", "overflow", "elliptic"),
        ("elliptic", "overflow"),
    ])
    def test_refusals_match_the_loop(self, names):
        # in every order the batch raises the refusal of one of its
        # families on its own
        families = {"thick": schottky_from_params(*THICK_POINT).generators,
                    "elliptic": ELLIPTIC_AB, "overflow": OVERFLOW_AB}
        alone = {name: outcome(lambda: class_spectra([families[name]], 7))
                 for name in names}
        refusals = [got for got in alone.values() if got[0] != "ok"]
        assert refusals
        for order in itertools.permutations(names):
            batched = outcome(
                lambda: class_spectra([families[name] for name in order], 7))
            assert batched in refusals
            assert batched[0] in (NotLoxodromic, OverflowError)

    def test_ranks_must_agree(self):
        with pytest.raises(ValueError, match="differ in rank"):
            class_spectra([CYCLIC_GEN, ELLIPTIC_AB], 3)
        assert class_spectra([], 3) == []


@functools.cache
def _workloads():
    """The benchmark's seeded config generator, ``perfbench/workloads.py``."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "perfbench" / "workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _scan_stencils(seed, tmp_path):
    """The chart points of the benchmark's scan at ``seed``, one list per
    chart parameter, in the order the scan asks for them."""
    path = tmp_path / f"scan{seed}.cfg"
    path.write_text(_workloads().generate(seed)["scan.cfg"])
    config = load_config(str(path))
    base = schottky_from_params(*chart_params(config.generators))
    stencils = []

    def record(points):
        stencils.append(list(points))
        return [(0.0, 0.0)] * len(points)

    for idx in range(3):
        pluriharmonicity_scan(base, idx, config.scan_h, record)
    return stencils, config.delta_cutoff



def estimate_bits(estimate):
    return [bits(x) for x in (estimate.delta_hat, *estimate.bracket)]


class TestEstimateDeltas:
    @pytest.mark.parametrize("seed", range(11))
    def test_scan_stencils_match_one_at_a_time(self, seed, tmp_path):
        stencils, N = _scan_stencils(seed, tmp_path)
        assert [len(points) for points in stencils] == [9, 9, 9]
        for points in stencils:
            spectra = class_spectra(
                [schottky_from_params(*p).generators for p in points], N)
            batch = estimate_deltas(spectra, N)
            assert ([estimate_bits(e) for e in batch]
                    == [estimate_bits(estimate_deltas([s], N)[0])
                        for s in spectra])
            assert all(e.delta_hat < 0 for e in batch)

    def test_rank_one_is_minus_one(self):
        spectra = [class_spectra([gens], 6)[0] for gens in (
            CYCLIC_GEN, [MoebiusMap(3.0, 0.0, 0.0, 1.0 / 3.0)])]
        minus_one = words.PoincareEstimate(delta_hat=-1.0,
                                           bracket=(-1.0, -1.0))
        assert estimate_deltas(spectra, 6) == [minus_one, minus_one]
        assert [estimate_deltas([s], 6)[0] for s in spectra] == [minus_one] * 2

    @pytest.fixture(scope="class")
    def rings(self):
        """Rank-4 rings at N = 4: an estimate, one above 1, one whose Z_3
        and Z_4 are not positive at 2, and one whose Z_4 has no zero
        though Z_3 has."""
        rings = {"ok": (0.3, 0.4), "above one": (0.4, 0.3),
                 "not positive": (0.45, 0.2), "no zero": (0.3, 0.2)}
        return {name: class_spectra([ring_group(4, q, spread)], 4)[0]
                for name, (q, spread) in rings.items()}

    def test_refusals_match_the_loop(self, rings):
        # in every order of two or more of them the batch raises the
        # refusal of one of its spectra on its own
        alone = {name: outcome(lambda: estimate_deltas([spectrum], 4))
                 for name, spectrum in rings.items()}
        messages = set()
        for k in range(2, len(rings) + 1):
            for order in itertools.permutations(rings, k):
                got = outcome(lambda: estimate_deltas(
                    [rings[name] for name in order], 4))
                assert got in [alone[name] for name in order if name != "ok"]
                assert got[0] is NonConvergent
                messages.add(got[1])
        assert len(messages) == 3
        ok = estimate_deltas([rings["ok"]] * 2, 4)
        assert ok == [estimate_deltas([rings["ok"]], 4)[0]] * 2

    def test_refusal_order(self, rings):
        # a batch raises the refusal of its first spectrum whose grid
        # scan fails (not positive at 2, or no zero), else that of its
        # first estimate above 1, whatever the order
        alone = {name: outcome(lambda: estimate_deltas([spectrum], 4))
                 for name, spectrum in rings.items()}
        assert alone["not positive"][1] == "Z_3 and Z_4 not both positive at 2"
        assert alone["no zero"][1] == "Z_4 has no zero on [-1, 2]"
        assert alone["above one"][1].endswith("exceeds 1, the bound of "
                                              "every Kleinian group in H^3")
        for k in range(1, len(rings) + 1):
            for order in itertools.permutations(rings, k):
                scan_fails = [name for name in order
                              if name in ("not positive", "no zero")]
                first = (scan_fails or [name for name in order
                                        if name == "above one"] or ["ok"])[0]
                got = outcome(lambda: estimate_deltas(
                    [rings[name] for name in order], 4))
                if first == "ok":
                    assert got == ("ok", alone["ok"][1] * k)
                else:
                    assert got == alone[first]

    def test_word_lengths_must_agree(self):
        gens = sample_group("g2_complex_a").generators
        with pytest.raises(ValueError, match="differ in their word lengths"):
            estimate_deltas([*class_spectra([gens], 6),
                             *class_spectra([gens], 7)], 6)
        assert estimate_deltas([], 6) == []


class TestEvaluateWord:
    def test_empty_is_identity(self):
        m = evaluate_word(CYCLIC_GEN, ())
        assert max_abs_diff(m, MoebiusMap.identity()) == 0.0

    def test_cancelling_pair_is_identity(self):
        m = evaluate_word(CYCLIC_GEN, (1, -1))
        assert max_abs_diff(m, MoebiusMap.identity()) < 1e-15

    def test_square(self):
        gens = [MoebiusMap(2.0, 0.0, 0.0, 0.5), MoebiusMap(1.0, 1.0, 0.5, 1.5)]
        m = evaluate_word(gens, (1, 1))
        assert max_abs_diff(m, MoebiusMap(4.0, 0.0, 0.0, 0.25)) < 1e-14

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            evaluate_word(CYCLIC_GEN, (2,))
        with pytest.raises(IndexOutOfRange):
            evaluate_word(CYCLIC_GEN, (0,))

    def test_rotations_share_invariants(self):
        point = sample_group("g2_complex_a")
        for w, _ in canonical_classes(2, 4):
            base = geodesic_invariants(evaluate_word(point.generators, w))
            for i in range(1, len(w)):
                rotated = geodesic_invariants(
                    evaluate_word(point.generators, w[i:] + w[:i])
                )
                assert abs(rotated.q - base.q) < 1e-10
                assert abs(rotated.length - base.length) < 1e-10


class TestReduction:
    def test_free_reduce(self):
        assert free_reduce((1, 2, -2, -1, 1)) == (1,)
        assert free_reduce((1, -1)) == ()

    def test_cyclic_reduce(self):
        assert cyclic_reduce((2, 1, -2)) == (1,)
        assert cyclic_reduce((1, 2, 1, -1)) == (1, 2)

    def test_canonical_rotation_minimal(self):
        w = (2, -1, 1, 1)  # not reduced as cyclic input; use a reduced one
        w = (2, 1, -2, 1)
        rotations = {w[i:] + w[:i] for i in range(len(w))}
        assert canonical_rotation(w) == min(rotations)


class TestPoincareEstimate:
    def test_cyclic_group_exponent(self):
        # delta = 0 is a double zero of the determinant, with no sign
        # change, so it is returned exactly
        est = estimate_deltas([class_spectra([CYCLIC_GEN], 6)[0]], 6)[0]
        assert est.bracket[0] - 1e-9 <= -1.0 <= est.bracket[1] + 1e-9
        assert abs(est.delta_hat + 1.0) < 1e-9
        assert est == words.PoincareEstimate(delta_hat=-1.0,
                                             bracket=(-1.0, -1.0))

    def test_well_separated_group_negative(self):
        point = sample_group("g2_complex_a")
        est = estimate_deltas([class_spectra([point.generators], 8)[0]], 8)[0]
        assert est.delta_hat < 0
        # achieved value, frozen loosely for regression visibility
        assert -0.9 < est.delta_hat < -0.7

    def test_ring_group_positive(self):
        est = estimate_deltas([class_spectra([ring_group()], 4)[0]], 4)[0]
        assert 0 < est.delta_hat <= 1

    @pytest.mark.parametrize("gens, N", [
        # Z_5 of ring_group() has its largest zero at 2.19
        (ring_group(), 5),
        # q1 near the unit circle: Z_4 has its largest zero at 587.4
        (schottky_from_params(0.985, 0.0012, -1 + 0.5j).generators, 4)])
    def test_estimate_above_one_refused(self, gens, N):
        # delta <= 2 for every Kleinian group in H^3, so delta_hat <= 1
        with pytest.raises(NonConvergent, match="not both positive at 2"):
            estimate_deltas([class_spectra([gens], N)[0]], N)[0]

    def test_zero_between_one_and_two_refused(self):
        # Z_4 of this rank-4 ring is positive at 2 with its largest zero
        # at 1.497
        with pytest.raises(NonConvergent, match="exceeds 1"):
            estimate_deltas([class_spectra([ring_group(4, 0.4)], 4)[0]], 4)[0]

    def test_too_few_shells(self):
        with pytest.raises(NonConvergent):
            estimate_deltas([class_spectra([CYCLIC_GEN], 2)[0]], 2)[0]

    def test_spectrum_shorter_than_order_refused(self):
        gens = sample_group("g2_complex_a").generators
        with pytest.raises(ValueError, match="word length 5"):
            estimate_deltas([class_spectra([gens], 5)[0]], 6)[0]

    def test_longer_spectrum_changes_nothing(self):
        # only the shells up to N are read: folding the longer shells into
        # the last trace would move the estimate
        gens = sample_group("g2_complex_a").generators
        long = estimate_deltas([class_spectra([gens], 10)[0]], 8)[0]
        short = estimate_deltas([class_spectra([gens], 8)[0]], 8)[0]
        assert np.array_equal(
            np.array([long.delta_hat, *long.bracket]).view(np.int64),
            np.array([short.delta_hat, *short.bracket]).view(np.int64))

    def test_estimate_pinned_to_determinant_values(self):
        (spectrum,) = class_spectra(
            [sample_group("g2_complex_a").generators], 10)
        est = estimate_deltas([spectrum], 8)[0]
        assert abs(est.delta_hat - -0.8257790279463342) < 1e-12
        assert abs(est.bracket[0] - -0.8257790279463342) < 1e-12
        assert abs(est.bracket[1] - -0.8257790279462478) < 1e-12
        at_10 = estimate_deltas([spectrum], 10)[0].delta_hat
        assert abs(at_10 - -0.8257790279463342) < 1e-12
        # orders 8 and 10 agree
        assert abs(est.delta_hat - at_10) <= 1e-12


class TestCycleExpansion:
    def test_empty_shell_refused(self):
        # reduceat gives an empty shell the next shell's first term, not 0:
        # the primitive classes of a cyclic group all have length 1
        spectrum = class_spectra([CYCLIC_GEN], 6)[0]
        primitive = spectrum.select(spectrum.j == 1)
        with pytest.raises(ValueError, match="no class of word length 2"):
            words.cycle_expansion(primitive, np.ones(len(primitive)), 0.0, 6)
        with pytest.raises(ValueError, match="no class of word length 7"):
            words.cycle_expansion(spectrum, np.ones(len(spectrum)), 0.0, 7)

    def test_empty_lambda_gives_no_columns(self):
        # as the eta integrands give shape-(0, ...) arrays for no nodes
        (spectrum,) = class_spectra(
            [sample_group("g2_complex_a").generators], 5)
        for weight in (spectrum.word_length / spectrum.j,
                       spectrum.word_length * spectrum.q):
            got = words.cycle_expansion(spectrum, weight, np.zeros(0), 5)
            assert got.shape == (6, 0) and got.dtype == weight.dtype

    def test_longer_classes_not_read(self):
        (spectrum,) = class_spectra(
            [sample_group("g2_complex_a").generators], 8)
        weight = spectrum.word_length / spectrum.j
        lam = [0.0, 0.5 + 1j]
        part = spectrum.select(spectrum.word_length <= 6)
        long = words.cycle_expansion(spectrum, weight, lam, 6)
        short = words.cycle_expansion(part, weight[:len(part)], lam, 6)
        assert long.shape == (7, 2)
        assert np.array_equal(long.view(np.int64), short.view(np.int64))


class TestTraces:
    @pytest.mark.parametrize("complex_x", [False, True])
    @pytest.mark.parametrize("rows", [
        # (stacked rows, x per row): a run of x per row, as the grid scan
        # stacks them
        (3, 7),
        # two x per row, as the root-finding rounds stack them
        (3, 2),
        (1, 1),
        (3, 0),
    ])
    def test_stacked_call_equals_per_row_calls(self, rows, complex_x,
                                               monkeypatch):
        # three rows of 40 terms in shells of 3, 7, 10 and 20: every x of
        # a stacked call gets the bits of a one-row call at that x alone,
        # whether a row's x are split across blocks or several rows share
        # one
        (spectrum,) = class_spectra(
            [sample_group("g2_complex_a").generators], 6)
        rng = np.random.default_rng(7)
        R, K = rows
        y = np.abs(spectrum.ell[None, :40] + rng.random((R, 40)))
        weight = (spectrum.word_length[None, :40] * rng.random((R, 40))
                  * (1.0 + 0.5j))
        starts = np.array([0, 3, 10, 20])
        x = rng.random((R, K)) + (0.3j if complex_x else 0.0)
        alone = [[words._traces(y[r:r + 1], weight[r:r + 1], starts,
                                x[r:r + 1, k:k + 1])[0, 0]
                  for k in range(K)] for r in range(R)]
        # one x to a block, then two whole rows of x to a block
        for block in (40, 2 * max(K, 1) * 40):
            monkeypatch.setattr(words, "_TRACE_BLOCK", block)
            stacked = words._traces(y, weight, starts, x)
            assert stacked.shape == (R, K, len(starts))
            for r in range(R):
                for k in range(K):
                    assert np.array_equal(stacked[r, k].view(np.int64),
                                          alone[r][k].view(np.int64))


def unguarded_traces(y, weight, starts, x):
    """``words._traces`` with every term through ``exp``: the reference
    for the guard that makes a term below log(DBL_MIN) weight * 0."""
    rows, count = x.shape
    t = np.zeros((rows, count, len(starts)), np.result_type(weight, x, y))
    if y.shape[1] and count:
        step = max(1, words._TRACE_BLOCK // y.shape[1])
        slab, chunk = max(1, step // count), min(step, count)
        for r in range(0, rows, slab):
            for k in range(0, count, chunk):
                t[r:r + slab, k:k + chunk] = np.add.reduceat(
                    weight[r:r + slab, None]
                    * np.exp(-x[r:r + slab, k:k + chunk, None]
                             * y[r:r + slab, None]),
                    starts, axis=2)
    return t


def same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.int64), want.view(np.int64)))


@functools.cache
def _thick_terms(L):
    """The benchmark's seed-0 thick point's terms at word cutoff L."""
    from oddzeta.zeta import terms_from_group
    config = load_config(str(ROOT / "perfbench" / "configs" / "eta_thick.cfg"))
    return terms_from_group(config.generators, L, config.delta_cutoff)


def _route_calls(terms, route, monkeypatch):
    """The (y, weight, starts, x) of each ``_traces`` call of an eta route."""
    from oddzeta import zeta
    calls = []

    def record(y, weight, starts, x):
        calls.append((y, weight, starts, x))
        return words._traces(y, weight, starts, x)

    monkeypatch.setattr(zeta, "_traces", record)
    zeta.eta(terms, route)
    monkeypatch.undo()
    return calls


class TestUnderflowGuard:
    @pytest.mark.parametrize("L", [9, 11])
    @pytest.mark.parametrize("route", ["lambda_integral", "heat_quadrature"])
    def test_route_nodes_equal_the_unguarded_kernel(self, L, route,
                                                    monkeypatch):
        # the seed-0 thick point: at L = 9 and 11 the heat route's deepest
        # nodes lose 13 % and 20 % of their terms below log(DBL_MIN), the
        # lambda route's none, and every sum keeps its bits
        calls = _route_calls(_thick_terms(L), route, monkeypatch)
        deep = 0
        for y, weight, starts, x in calls:
            deep += np.count_nonzero(-x * y.max() < words._LOG_TINY)
            assert same_bits(words._traces(y, weight, starts, x),
                             unguarded_traces(y, weight, starts, x))
        assert (deep > 0) == (route == "heat_quadrature")

    def test_row_of_only_underflowing_terms(self):
        # every term's exp is 0: each shell sums to the zero of the
        # unguarded kernel, -0 where every weight is negative
        y = np.linspace(1.0, 2.0, 12)[None]
        weight = np.array([[-1.0, -2.0, -3.0, 1.0, 2.0, 3.0,
                            -1.0, 2.0, -3.0, 4.0, -5.0, 6.0]])
        x = np.array([[800.0, 1e4, np.inf]])
        got = words._traces(y, weight, [0, 3, 6], x)
        assert same_bits(got, unguarded_traces(y, weight, [0, 3, 6], x))
        assert np.signbit(got[0, :, 0]).all()
        assert not np.signbit(got[0, :, 1:]).any()

    def test_masked_terms_lie_below_the_stated_bound(self):
        # exponents from -715 to -766 give subnormal or zero exp values,
        # which the guard drops: each sum moves by at most
        # 2^-1022 sum |weight|; at x = 600 no term is dropped
        y = np.linspace(1.0, 1.05, 50)[None]
        weight = np.linspace(0.5, 5.0, 50)[None]
        x = np.array([[600.0, 715.0, 730.0]])
        got = words._traces(y, weight, [0], x)
        want = unguarded_traces(y, weight, [0], x)
        assert want[0, 1:, 0].all() and not got[0, 1:, 0].any()
        bound = 2.0 ** -1022 * np.abs(weight).sum()
        assert np.all(np.abs(got - want) <= bound)
        assert same_bits(got[:, :1], want[:, :1])

    @pytest.mark.parametrize("x", [
        # complex x: the complex exp, never masked
        np.array([[0.5 + 1.0j, 400.0 - 2.0j, 900.0 + 0.3j, 1e4 + 1e3j]]),
        # negative and zero x beside deep ones
        np.array([[-0.75, 0.0, -3.0, 650.0, 2e3]]),
    ])
    def test_complex_and_negative_x(self, x):
        spectrum = class_spectra([sample_group("g2_complex_a").generators],
                                 6)[0]
        y = spectrum.ell[None]
        weight = spectrum.word_length[None] * (1.0 - 0.5j)
        starts = np.searchsorted(spectrum.word_length, np.arange(1, 7))
        assert same_bits(words._traces(y, weight, starts, x),
                         unguarded_traces(y, weight, starts, x))

    def test_deep_and_shallow_x_share_a_block(self, monkeypatch):
        # a block holding an x that can underflow and one that cannot:
        # both keep the unguarded bits, real and complex weights alike,
        # and a NaN x beside them stays NaN
        y = np.linspace(0.5, 30.0, 40)[None]
        x = np.array([[0.25, 40.0, 3.0, 60.0, np.nan, 45.0]])
        deep = -x * y.max() < words._LOG_TINY
        assert deep.any() and not deep.all()
        for weight in (np.sin(np.arange(40.0))[None],
                       np.exp(1j * np.arange(40.0))[None]):
            for block in (2 * 40, 6 * 40):
                monkeypatch.setattr(words, "_TRACE_BLOCK", block)
                got = words._traces(y, weight, [0, 7, 19], x)
                assert same_bits(got, unguarded_traces(y, weight, [0, 7, 19],
                                                       x))
                assert np.isnan(got[0, 4]).all()
