import math
import tracemalloc

import numpy as np
import pytest

from oddzeta import words
from oddzeta.errors import (
    CutoffTooLarge,
    IndexOutOfRange,
    NonConvergent,
    NotLoxodromic,
)
from oddzeta.moebius import MoebiusMap, classify, geodesic_invariants
from oddzeta.sample_groups import ring_group, sample_group
from oddzeta.words import (
    _class_products,
    canonical_words,
    class_spectrum,
    cyclic_reduce,
    estimate_delta,
    evaluate_word,
    free_reduce,
    is_cyclically_reduced,
    word_products,
    word_strings,
    word_to_str,
)
from oddzeta.zograf import schottky_from_params

CYCLIC_GEN = [MoebiusMap(2.0, 0.0, 0.0, 0.5)]

#: The thick chart point of the benchmark (shifted exponent about -0.476).
THICK_POINT = (0.06 + 0.05j, 0.07 - 0.03j, -0.9 + 0.6j)


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


def canonical_classes(g, L):
    """(representative, j) of every class, in order, from canonical_words."""
    classes = []
    for k, (codes, js) in enumerate(canonical_words(g, L), start=1):
        classes.extend(zip(decode_words(codes, k, g), js.tolist()))
    return classes


def recursive_classes(g, L):
    """Reference for canonical_words: every cyclically reduced word of
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
    """Reference for class_spectrum: the recursive enumeration, then
    evaluate_word, classify and geodesic_invariants class by class."""
    for rep, j in recursive_classes(len(generators), L):
        m = evaluate_word(generators, rep)
        kind = classify(m, eps_class)
        if kind != "loxodromic":
            raise NotLoxodromic(f"word {word_to_str(rep)} "
                                f"is {kind}, not loxodromic")
        yield rep, j, geodesic_invariants(m, eps_class)


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

    Independent of canonical_words: builds every reduced word, cyclically
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
            canonical_words(2, 18)

    def test_deterministic_order(self):
        a = canonical_classes(2, 4)
        assert a == canonical_classes(2, 4)
        lengths = [len(w) for w, _ in a]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("g, L", [(1, 4), (2, 5), (3, 3)])
    def test_word_strings(self, g, L):
        for k, (codes, _) in enumerate(canonical_words(g, L), start=1):
            assert word_strings(codes, np.full(len(codes), k), g) == [
                word_to_str(w) for w in decode_words(codes, k, g)]
        spectrum = class_spectrum(ring_group(g, 0.01), L)
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
        shells = canonical_words(2, 14)
        for codes, js in shells:
            assert codes.dtype == np.int64 and np.all(np.diff(codes) > 0)
            assert len(js) == len(codes) and js.min() >= 1
        assert sum(len(codes) for codes, _ in shells) == 534_444
        assert necklace_class_count(2, 14) == 534_444

    def test_int64_guard(self):
        # rank 1 has 2 classes a shell, so the budget never stops it first
        with pytest.raises(CutoffTooLarge, match="int64"):
            canonical_words(1, 63)


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


class TestWordProducts:
    @pytest.mark.parametrize("name", list(_families()))
    def test_bit_identical_to_evaluate_word(self, name):
        # the walk's product of every class, each its parent's times one
        # letter, against the class word multiplied letter by letter
        gens, L = _families()[name]
        g = len(gens)
        count = 0
        for codes, lengths, _, (re, im) in _class_products(gens, L):
            for k in np.unique(lengths).tolist():
                rows = np.flatnonzero(lengths == k)
                words_k = decode_words(codes[rows], k, g)
                for w, r in zip(words_k, rows.tolist()):
                    got = [complex(x, y) for x, y in zip(
                        re[:, :, r].ravel().tolist(),
                        im[:, :, r].ravel().tolist())]
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
        parents = (table.real[:, :, :1].copy(), table.imag[:, :, :1].copy())
        with pytest.raises(OverflowError):
            word_products(parents, np.array([1]), (table.real, table.imag))

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
            class_spectrum(gens, 2)
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
        spectrum = class_spectrum(gens, L)
        want = list(scalar_class_spectrum(gens, L))
        assert [(w, j) for w, j, _ in want] == canonical_classes(g, L)
        assert spectrum.codes.tolist() == np.concatenate(
            [codes for codes, _ in canonical_words(g, L)]).tolist()
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
        default = class_spectrum(gens, L)
        monkeypatch.setattr(words, "_PRODUCT_BLOCK", 7)
        monkeypatch.setattr(words, "_CLASS_BLOCK", 7)
        blocks = [len(codes) for codes, *_ in _class_products(gens, L)]
        assert len(blocks) > L and max(blocks) < len(default)
        small = class_spectrum(gens, L)
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
            s = class_spectrum(gens, L, eps_class)
            return zip(s.ell.tolist(), s.theta.tolist(), s.q.tolist(),
                       s.spin_phase.tolist())

        def scalar():
            return ((inv.length, inv.theta, inv.q, inv.spin_phase)
                    for _, _, inv in scalar_class_spectrum(gens, L, eps_class))

        assert outcome(batched) == outcome(scalar)

    def test_float_entries_change_nothing(self):
        floats, L = _families()["float_real_pair"]
        complexes, _ = _families()["complex_real_pair"]
        same_spectrum(class_spectrum(floats, L), class_spectrum(complexes, L))

    def test_refusal_survives_small_blocks(self, monkeypatch):
        monkeypatch.setattr(words, "_PRODUCT_BLOCK", 7)
        monkeypatch.setattr(words, "_CLASS_BLOCK", 7)
        with pytest.raises(NotLoxodromic,
                           match="^word BA is elliptic, not loxodromic$"):
            class_spectrum(ELLIPTIC_AB, 4)

    def test_memory_ceiling(self):
        # multiplying each class word letter by letter peaked at 3.4 MiB on
        # this input and the walk at 3.5 MiB; 8192-class invariants passes
        # need 6.4 MiB
        gens = sample_group("g2_complex_a").generators
        tracemalloc.start()
        try:
            class_spectrum(gens, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 2 ** 20

    def test_first_non_loxodromic_class_refused(self):
        with pytest.raises(NotLoxodromic) as reference:
            list(scalar_class_spectrum(ELLIPTIC_AB, 3))
        with pytest.raises(NotLoxodromic) as batched:
            class_spectrum(ELLIPTIC_AB, 3)
        assert str(batched.value) == str(reference.value) == (
            "word BA is elliptic, not loxodromic")

    def test_select_keeps_every_field(self):
        spectrum = class_spectrum(sample_group("g2_complex_a").generators, 4)
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
        spectrum = class_spectrum(gens, L)
        assert spectrum.rank == len(gens) == rank
        assert spectrum.select(spectrum.j == 1).rank == rank


class TestEvaluateWord:
    def test_empty_is_identity(self):
        m = evaluate_word(CYCLIC_GEN, ())
        assert m.max_abs_diff(MoebiusMap.identity()) == 0.0

    def test_cancelling_pair_is_identity(self):
        m = evaluate_word(CYCLIC_GEN, (1, -1))
        assert m.max_abs_diff(MoebiusMap.identity()) < 1e-15

    def test_square(self):
        gens = [MoebiusMap(2.0, 0.0, 0.0, 0.5), MoebiusMap(1.0, 1.0, 0.5, 1.5)]
        m = evaluate_word(gens, (1, 1))
        assert m.max_abs_diff(MoebiusMap(4.0, 0.0, 0.0, 0.25)) < 1e-14

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
        est = estimate_delta(class_spectrum(CYCLIC_GEN, 6), 6)
        assert est.bracket[0] - 1e-9 <= -1.0 <= est.bracket[1] + 1e-9
        assert abs(est.delta_hat + 1.0) < 1e-9
        assert est == words.PoincareEstimate(delta_hat=-1.0,
                                             bracket=(-1.0, -1.0))

    def test_well_separated_group_negative(self):
        point = sample_group("g2_complex_a")
        est = estimate_delta(class_spectrum(point.generators, 8), 8)
        assert est.delta_hat < 0
        # achieved value, frozen loosely for regression visibility
        assert -0.9 < est.delta_hat < -0.7

    def test_ring_group_positive(self):
        est = estimate_delta(class_spectrum(ring_group(), 5), 5)
        assert est.delta_hat > 0

    def test_too_few_shells(self):
        with pytest.raises(NonConvergent):
            estimate_delta(class_spectrum(CYCLIC_GEN, 2), 2)

    def test_spectrum_shorter_than_order_refused(self):
        gens = sample_group("g2_complex_a").generators
        with pytest.raises(ValueError, match="word length 5"):
            estimate_delta(class_spectrum(gens, 5), 6)

    def test_longer_spectrum_changes_nothing(self):
        # only the shells up to N are read: folding the longer shells into
        # the last trace would move the estimate
        gens = sample_group("g2_complex_a").generators
        long = estimate_delta(class_spectrum(gens, 10), 8)
        short = estimate_delta(class_spectrum(gens, 8), 8)
        assert np.array_equal(
            np.array([long.delta_hat, *long.bracket]).view(np.int64),
            np.array([short.delta_hat, *short.bracket]).view(np.int64))

    def test_estimate_pinned_to_determinant_values(self):
        spectrum = class_spectrum(sample_group("g2_complex_a").generators, 10)
        est = estimate_delta(spectrum, 8)
        assert abs(est.delta_hat - -0.8257790279463342) < 1e-12
        assert abs(est.bracket[0] - -0.8257790279463342) < 1e-12
        assert abs(est.bracket[1] - -0.8257790279462478) < 1e-12
        at_10 = estimate_delta(spectrum, 10).delta_hat
        assert abs(at_10 - -0.8257790279463342) < 1e-12
        # orders 8 and 10 agree
        assert abs(est.delta_hat - at_10) <= 1e-12
