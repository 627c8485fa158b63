import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oddzeta.errors import CutoffTooLarge, IndexOutOfRange, NonConvergent
from oddzeta.moebius import MoebiusMap, geodesic_invariants, hyperbolic_distance
from oddzeta.sample_groups import ring_group, sample_group
from oddzeta.words import (
    BASE_POINT,
    _renormalize,
    canonical_rotation,
    cyclic_reduce,
    enumerate_classes,
    estimate_delta,
    evaluate_word,
    free_reduce,
    is_cyclically_reduced,
    shell_displacements,
    shell_sum,
    word_to_str,
)
from oddzeta.zograf import schottky_from_params

CYCLIC_GEN = [MoebiusMap(2.0, 0.0, 0.0, 0.5)]

#: The thick chart point of the benchmark (shifted exponent about -0.476).
THICK_POINT = (0.06 + 0.05j, 0.07 - 0.03j, -0.9 + 0.6j)


def scalar_shell_displacements(generators, L, base=BASE_POINT):
    """Reference for shell_displacements: a recursive walk over reduced
    words, one MoebiusMap product and one scalar distance per word."""
    g = len(generators)
    mats = {}
    for i, gen in enumerate(generators, start=1):
        mats[i] = gen
        mats[-i] = gen.inverse()
    letters = [s for s in range(-g, g + 1) if s != 0]
    shells = [[] for _ in range(L)]

    def walk(depth, last, mat):
        for s in letters:
            if last != 0 and s == -last:
                continue
            m = mat @ mats[s]
            shells[depth].append(hyperbolic_distance(base, m.apply_h3(base)))
            if depth + 1 < L:
                walk(depth + 1, s, m)

    walk(0, 0, MoebiusMap.identity())
    return shells


def brute_force_classes(g, L):
    """Group all reduced words of length <= L by cyclic canonical form.

    Independent of enumerate_classes: builds every reduced word, cyclically
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
        classes = enumerate_classes(2, 1)
        assert len(classes) == 4
        assert all(c.primitive and c.j == 1 for c in classes)
        assert sorted(word_to_str(c.representative) for c in classes) == [
            "A", "B", "a", "b"
        ]

    def test_rank2_length2(self):
        classes = enumerate_classes(2, 2)
        assert len(classes) == 12
        squares = {word_to_str(c.representative) for c in classes if c.j == 2}
        assert squares == {"aa", "AA", "bb", "BB"}
        mixed = {word_to_str(c.representative)
                 for c in classes if c.word_length == 2 and c.primitive}
        assert mixed == {"ab", "Ab", "Ba", "BA"}

    def test_rank1_powers(self):
        classes = enumerate_classes(1, 3)
        assert [(word_to_str(c.representative), c.j) for c in classes] == [
            ("A", 1), ("a", 1), ("AA", 2), ("aa", 2), ("AAA", 3), ("aaa", 3)
        ]

    def test_representatives_cyclically_reduced(self):
        for c in enumerate_classes(2, 5):
            assert is_cyclically_reduced(c.representative)
            assert c.representative[0] != -c.representative[-1] or len(
                c.representative) == 1

    def test_matches_brute_force_midsize(self):
        mine = {c.representative: c.j for c in enumerate_classes(2, 6)}
        assert mine == brute_force_classes(2, 6)

    def test_budget_guard(self):
        with pytest.raises(CutoffTooLarge):
            enumerate_classes(2, 16, budget=10_000)

    def test_deterministic_order(self):
        a = enumerate_classes(2, 4)
        b = enumerate_classes(2, 4)
        assert a == b
        lengths = [c.word_length for c in a]
        assert lengths == sorted(lengths)


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
        for cls in enumerate_classes(2, 4):
            w = cls.representative
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
        est = estimate_delta(CYCLIC_GEN, 6)
        assert est.bracket[0] - 1e-9 <= -1.0 <= est.bracket[1] + 1e-9
        assert abs(est.delta_hat + 1.0) < 1e-9
        assert est.method == "shell-bisection"

    def test_well_separated_group_negative(self):
        point = sample_group("g2_complex_a")
        est = estimate_delta(point.generators, 8)
        assert est.delta_hat < 0
        # shell-sum oracle at s = 0 decays shell over shell
        shells = shell_displacements(point.generators, 6)
        sums = [shell_sum(s, 0.0) for s in shells]
        assert all(b < a for a, b in zip(sums, sums[1:]))
        # achieved value, frozen loosely for regression visibility
        assert -0.9 < est.delta_hat < -0.7

    def test_too_few_shells(self):
        with pytest.raises(NonConvergent):
            estimate_delta(CYCLIC_GEN, 2)

    def test_shell_sums_monotone_in_s(self):
        point = sample_group("g2_complex_b")
        shells = shell_displacements(point.generators, 5)
        for k in (1, 3, 4):
            values = [shell_sum(shells[k], s) for s in (-0.5, 0.0, 0.7, 1.5)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_shell_sum_correctly_rounded_over_wide_range(self):
        # terms spread over 24 decades: the sum is the exact rational sum
        # rounded once, whatever the order of the displacements
        rng = random.Random(11)
        displacements = [math.log(rng.uniform(0.01, 1.0))
                         + rng.randint(-8, 16) * math.log(10.0)
                         for _ in range(5000)]
        terms = [math.exp(r) for r in displacements]
        exact = float(sum(Fraction(x) for x in terms))
        assert sum(terms) != exact  # plain left-to-right summation misses
        total = shell_sum(displacements, 0.0, n=-1.0)
        assert total == math.fsum(terms) == exact
        assert shell_sum(displacements[::-1], 0.0, n=-1.0) == total

    def test_budget_guard(self):
        with pytest.raises(CutoffTooLarge):
            shell_displacements(sample_group("g2_complex_a").generators, 16,
                                budget=1000)


class TestArrayShells:
    @pytest.mark.parametrize("name, L", [
        ("g2_complex_a", 7), ("thick", 7), ("ring5", 4),
    ])
    def test_matches_scalar_walk(self, name, L):
        if name == "thick":
            gens = schottky_from_params(*THICK_POINT).generators
        elif name == "ring5":
            gens = ring_group()
        else:
            gens = sample_group(name).generators
        shells = shell_displacements(gens, L)
        oracle = scalar_shell_displacements(gens, L)
        assert [len(s) for s in shells] == [len(s) for s in oracle]
        for got, want in zip(shells, oracle):
            assert got.dtype == np.float64 and got.ndim == 1
            want = np.array(want)
            # element by element, so the depth-first order is checked too
            ulps = np.spacing(np.maximum(np.abs(want), 1.0))
            assert np.all(np.abs(got - want) <= 4 * ulps)

    def test_estimate_pinned_to_scalar_walk_values(self):
        gens = sample_group("g2_complex_a").generators
        est = estimate_delta(gens, 8)
        assert abs(est.delta_hat - -0.8257790299954877) < 1e-12
        assert abs(est.bracket[0] - -0.8257790299954877) < 1e-12
        assert abs(est.bracket[1] - -0.825779009898838) < 1e-12
        assert abs(estimate_delta(gens, 10).delta_hat
                   - -0.8257790283597615) < 1e-12

    def test_memory_ceiling(self):
        # the recursive scalar walk peaked at 11.0 MiB on this input; an
        # expansion that is not blocked needs well over 12 MiB
        gens = sample_group("g2_complex_a").generators
        tracemalloc.start()
        try:
            shell_displacements(gens, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2 ** 20

    def test_renormalize_matches_moebius_normalized(self):
        raw = [(2.0, 1.0j, 0.5, 3.0), (1.0 + 1e-9, 0.0, 0.0, 1.0),
               (1.0, 0.0, 0.0, 1.0)]
        entries = np.array(raw, dtype=complex).T.copy()
        _renormalize(entries)
        for got, row in zip(entries.T, raw):
            m = MoebiusMap.normalized(*row)
            want = np.array([m.a, m.b, m.c, m.d])
            # numpy divides through a reciprocal, so allow a few ulps
            assert np.all(np.abs(got - want) <= 4 * np.spacing(1.0))
        assert list(entries[:, 2]) == [1.0, 0.0, 0.0, 1.0]

    def test_renormalize_refuses_singular(self):
        with pytest.raises(ValueError, match="singular"):
            MoebiusMap.normalized(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="singular"):
            _renormalize(np.zeros((4, 1), dtype=complex))
