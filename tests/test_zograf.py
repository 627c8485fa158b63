import cmath
import itertools
import math
import time
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from test_words import THICK_POINT, _workloads, ring_group
from toyterms import power_class_terms, primitive_term, toy_list

import oddzeta.words
import oddzeta.zeta
import oddzeta.zograf
from oddzeta.config import load_config
from oddzeta.errors import (DegenerateConfiguration, DeltaNotNegative,
                            LeftSchottkyDomain, NonPrimitiveInput)
from oddzeta.moebius import MoebiusMap, geodesic_invariants
from oddzeta.sample_groups import sample_group
from oddzeta.zeta import eta, terms_from_group, zeta_odd
from oddzeta.zograf import (
    chart_params,
    check_eta_F_identity,
    eta_on_chart,
    pluriharmonicity_scan,
    schottky_from_params,
    zograf_F,
)


class TestSchottkyChart:
    def test_builder_places_anchors(self):
        point = schottky_from_params(0.001 + 0.0005j, 0.002 - 0.001j, -1.0 + 0.5j)
        inv1 = geodesic_invariants(point.generators[0])
        inv2 = geodesic_invariants(point.generators[1])
        assert abs(inv1.attracting) < 1e-12
        assert not math.isfinite(inv1.repelling.real)
        assert abs(inv2.attracting - 1.0) < 1e-10
        assert abs(inv2.repelling - (-1.0 + 0.5j)) < 1e-10
        assert abs(inv1.q - (0.001 + 0.0005j)) < 1e-14
        assert abs(inv2.q - (0.002 - 0.001j)) < 1e-14

    def test_roundtrip_params(self):
        params = (0.0012 + 0.0004j, 0.0009 - 0.0011j, 2.0 + 1.5j)
        point = schottky_from_params(*params)
        recovered = chart_params(point.generators)
        assert all(abs(a - b) < 1e-10 for a, b in zip(params, recovered))

    def test_chart_point_of_conjugated_generators(self):
        # the chart point is read off the fixed points, so a conjugate of
        # the normalized pair has the same one
        params = (0.0012 + 0.0004j, 0.0009 - 0.0011j, 2.0 + 1.5j)
        h = MoebiusMap.normalized(1.0 + 2j, 0.3, -0.5j, 2.0)
        gens = tuple(h @ m @ h.inverse()
                     for m in schottky_from_params(*params).generators)
        recovered = chart_params(gens)
        assert all(abs(a - b) < 1e-10 for a, b in zip(params, recovered))
        with pytest.raises(DegenerateConfiguration):
            chart_params((gens[0], gens[0] @ gens[0]))

    def test_far_fixed_point(self):
        # conjugating by h = [[1, 0], [v, 1]] sends the repelling point inf
        # of the first generator to 1/v = 2.8e176, where the squared
        # entries of the anchoring map overflow
        params = (0.002, 0.002, -0.4 + 0.9j)
        v = 3.6e-177j
        h = MoebiusMap(1.0, 0.0, v, 1.0)
        gens = tuple(h @ m @ h.inverse()
                     for m in schottky_from_params(*params).generators)
        recovered = chart_params(gens)
        assert all(abs(a - b) < 1e-12 for a, b in zip(params, recovered))

    def test_rejects_anchor_collisions(self):
        with pytest.raises(ValueError):
            schottky_from_params(0.001, 0.001, 1.0)
        with pytest.raises(ValueError):
            schottky_from_params(1.2, 0.001, -1.0)


def fixed_point_product(q: complex, factors: int, bits: int = 160):
    """prod_(m < factors) (1 - q^(m+1)) in Python integers scaled by
    2^bits, each product truncated, as an mpmath number: every step is
    off by below 2^-bits."""
    one = 1 << bits
    q_re, q_im = (int(math.ldexp(x, bits)) for x in (q.real, q.imag))
    p_re, p_im, re, im = one, 0, one, 0
    for _ in range(factors):
        p_re, p_im = ((p_re * q_re - p_im * q_im) >> bits,
                      (p_re * q_im + p_im * q_re) >> bits)
        re, im = (((re * (one - p_re) + im * p_im) >> bits),
                  ((im * (one - p_re) - re * p_im) >> bits))
    return mpmath.mpc(mpmath.ldexp(re, -bits), mpmath.ldexp(im, -bits))


class TestZografF:
    def test_empty_product(self):
        ev = zograf_F(toy_list([]), 10)
        assert ev.log_value == 0.0
        assert ev.value == 1.0
        assert ev.tail_bound == 0.0

    def test_single_small_multiplier(self):
        ev = zograf_F(primitive_term(0.01), 10)
        expect = 1.0
        for m in range(11):
            expect *= 1.0 - 0.01 ** (1 + m)
        assert abs(ev.value - expect) < 1e-15
        assert abs(ev.value - 0.9899000001000099) < 1e-15  # frozen from the loop

    def test_real_multipliers_give_real_value(self):
        ev = zograf_F(toy_list([0.3, 0.05, 0.12], max_power=1), 40)
        assert ev.value.imag == 0.0

    def test_rejects_powers(self):
        base = primitive_term(0.2)
        with pytest.raises(NonPrimitiveInput):
            zograf_F(power_class_terms(base, 2), 10)

    def test_conjugating_multipliers_conjugates_f(self):
        qs = [0.2 * cmath.exp(0.7j), 0.05 * cmath.exp(-1.2j)]
        forward = zograf_F(toy_list(qs, max_power=1), 50)
        backward = zograf_F(toy_list([q.conjugate() for q in qs], max_power=1),
                            50)
        assert abs(forward.value.conjugate() - backward.value) < 1e-12

    def test_inner_tail_bound_validity(self):
        terms = primitive_term(0.3 * cmath.exp(0.4j))
        coarse = zograf_F(terms, 20)
        fine = zograf_F(terms, 30)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound

    def test_central_value_identity_on_symmetric_toy(self):
        # Z_odd(0) = conj(F)/F through two independent code paths
        q = 0.2 * cmath.exp(1j * math.pi / 4)
        sum_terms = toy_list([q, q.conjugate()], max_power=70)
        z0 = zeta_odd(sum_terms, 0.0).value
        f = zograf_F(toy_list([q, q.conjugate()], max_power=1), 90)
        assert abs(z0 - f.value.conjugate() / f.value) < 1e-10

    def test_log_value_is_the_40_digit_product(self, tmp_path):
        # the benchmark's thick point at seeds 0-10, L = 9, M = 40: the log
        # of the same M-truncated product on the same float q, at 40
        # digits (the products in 160-bit fixed point).  Every |q| < 2/3, so each class's principal log of its
        # product is its sum of logs; a factor 1 - z with |z| < 1e-45
        # moves that log by below 1e-44 and is skipped.
        # The bound is the rounding of the series terms: the term k of a
        # class, of size at most 2 |q|^k / (k (1 - |q|)), takes about k + 5
        # roundings, so is off by at most (2k + 6) eps of its size; summed
        # over k that is 4 eps / (1 - |q|) (|q| / (1 - |q|) - 3 log(1 - |q|))
        # per class.  The correctly rounded sum and the rounding of the
        # 40-digit value add an ulp.  Measured at most 3 ulps (5.6e-17),
        # under 4% of the rounding bound (numpy 2.4, x86-64)
        eps = np.finfo(float).eps
        for seed in range(11):
            path = tmp_path / f"eta_thick{seed}.cfg"
            path.write_text(_workloads().generate(seed)["eta_thick.cfg"])
            config = load_config(str(path))
            terms = terms_from_group(config.generators, config.word_cutoff,
                                     config.delta_cutoff)
            primitive = terms.select(terms.j == 1)
            M = config.inner_cutoff
            aq = np.abs(primitive.q)
            assert len(primitive) == 3504 and aq.max() < 2 / 3
            with mpmath.workdps(40):
                total = mpmath.mpc(0)
                for q in primitive.q.tolist():
                    factors = min(M + 1,
                                  math.ceil(45 / -math.log10(abs(q))) + 1)
                    total += mpmath.log(fixed_point_product(q, factors))
                expected = complex(total)
            rounding = float((4 * eps / (1 - aq)
                              * (aq / (1 - aq) - 3 * np.log1p(-aq))).sum())
            got = zograf_F(primitive, M).log_value
            for part in ("real", "imag"):
                want = getattr(expected, part)
                assert (abs(getattr(got, part) - want)
                        <= math.ulp(want) + rounding), (seed, part)

    @pytest.mark.parametrize("M", [0, 1, 40])
    @pytest.mark.parametrize("modulus", [0.05, 0.35, 0.9])
    @pytest.mark.parametrize("phase", [0.0, 0.7, -2.5])
    def test_single_class_is_the_40_digit_product(self, modulus, M, phase):
        # sum_{m <= M} log(1 - q^(m+1)) at 40 digits; the series terms are
        # rounded one by one, which costs a few ulps of |log F|
        q = modulus * cmath.exp(1j * phase)
        with mpmath.workdps(40):
            expected = mpmath.fsum(mpmath.log(1 - mpmath.mpc(q) ** (m + 1))
                                   for m in range(M + 1))
            got = zograf_F(primitive_term(q), M).log_value
            error = float(abs(mpmath.mpc(got) - expected))
        assert error <= 4 * math.ulp(abs(complex(expected)))
        if phase == 0.0:
            assert got.imag == 0.0

    def test_cost_does_not_grow_with_inner_cutoff(self, eta_thick_config):
        # the series has about 2 terms per class whatever M; a buffer of
        # classes x (M + 1) would need 56 TB at M = 10^9
        config = eta_thick_config
        terms = terms_from_group(config.generators, config.word_cutoff,
                                 config.delta_cutoff)
        primitive = terms.select(terms.j == 1)
        coarse = zograf_F(primitive, config.inner_cutoff)
        start = time.perf_counter()
        deep = zograf_F(primitive, 10 ** 9)
        assert time.perf_counter() - start < 1.0
        assert deep.inner_cutoff == 10 ** 9
        assert abs(deep.value - coarse.value) <= coarse.tail_bound
        assert abs(deep.log_value - coarse.log_value) <= coarse.tail_bound

    def test_series_cut_is_in_the_tail_bound(self):
        # one class, no shells: the bound is the inner tail plus the
        # series cut, K + 1 = ceil(70 / -log2|q|) = 31 at |q| = 0.2
        q = 0.2 * cmath.exp(0.4j)
        ev = zograf_F(primitive_term(q), 20)
        inner = 0.2 ** 22 / 0.8 ** 2
        cut = 2 * 0.2 ** 31 / (31 * 0.8 ** 2)
        assert ev.tail_bound == pytest.approx(inner + cut, rel=1e-12)

    def test_rejects_negative_cutoff_and_multipliers_off_the_disc(self):
        with pytest.raises(ValueError, match="inner_cutoff"):
            zograf_F(primitive_term(0.2), -1)
        for q in (1.2, 1.0, 0.0, complex(math.nan, 0.0)):
            terms = replace(primitive_term(0.2), q=np.array([q], complex))
            with pytest.raises(ValueError, match="multiplier"):
                zograf_F(terms, 10)


def identity_report(generators, L, M, delta_cutoff=None):
    """check_eta_F_identity on the group's signature terms at cutoff L."""
    delta_cutoff = delta_cutoff or max(6, L)
    terms = terms_from_group(generators, L, delta_cutoff, "signature")
    return check_eta_F_identity(terms, M)


class TestEtaFIdentity:
    def test_real_group_residual_zero(self):
        point = sample_group("real_pair")
        report = identity_report(point.generators, L=5, M=30)
        assert report.residual < 1e-14
        assert abs(report.eta) < 1e-14
        assert report.f_value.imag == 0.0

    def test_complex_group_identity(self, complex_groups):
        point, _, _ = complex_groups["g2_complex_b"]
        report = identity_report(point.generators, L=6, M=40)
        assert report.residual < 1e-9
        assert report.central_cross_check < 1e-12
        assert report.error_budget < 1e-9

    def test_delta_guard(self):
        with pytest.raises(DeltaNotNegative):
            identity_report(ring_group(), L=3, M=10, delta_cutoff=4)

    def test_central_value_evaluated_once(self, complex_groups, monkeypatch):
        # eta, its budget and Z_odd(0) all come from one odd sum at 0
        point, _, terms = complex_groups["g2_complex_b"]
        calls = []
        for module in (oddzeta.zeta, oddzeta.zograf):
            original = module.log_zeta_odd

            def counted(*args, original=original, **kwargs):
                calls.append(args[1])
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "log_zeta_odd", counted)
        report = check_eta_F_identity(terms, 40)
        assert calls == [0.0]
        monkeypatch.undo()
        assert report.z_central == zeta_odd(terms, 0.0).value
        assert report.eta == eta(terms, "central_value")

    def test_central_cross_check_is_twice_the_sine_of_the_residual(
            self, complex_groups, eta_thick_config):
        # |exp(i pi eta) - conj(F)/F| = |exp(2i (arg F + (pi/2) eta)) - 1|
        config = eta_thick_config
        cases = [(terms_from_group(config.generators, config.word_cutoff,
                                   config.delta_cutoff), config.inner_cutoff)]
        cases += [(terms, 40) for _, _, terms in complex_groups.values()]
        for terms, M in cases:
            report = check_eta_F_identity(terms, M)
            assert abs(report.central_cross_check
                       - 2 * abs(math.sin(report.residual))) <= 1e-15

    @pytest.mark.parametrize("variant, spin_sign", [("spinor", "plus"),
                                                    ("spinor", "minus"),
                                                    ("signature", "minus")])
    def test_any_terms_give_the_signature_plus_report(self, complex_groups,
                                                      variant, spin_sign):
        # the identity's characters are the check's own: terms of another
        # variant or sign of the same spectrum give the same report
        point, _, _ = complex_groups["g2_complex_b"]
        want = terms_from_group(point.generators, 4, 6)
        other = terms_from_group(point.generators, 4, 6, variant, spin_sign)
        assert eta(other) != eta(want)
        assert check_eta_F_identity(other, 20) == check_eta_F_identity(want, 20)

    def test_identity_selects_character_convention(self, complex_groups):
        # with the swapped sigma assignment eta flips sign and the
        # factorization identity misses by pi * |eta|
        from oddzeta.zograf import zograf_F as f_eval
        point, _, terms = complex_groups["g2_complex_b"]
        flipped = terms_from_group(point.generators, 6, 8, "signature",
                                   spin_sign="minus")
        eta_flipped = eta(flipped, "central_value")
        f = f_eval(terms.select(terms.j == 1), 40)
        residual = abs(f.log_value.imag + 0.5 * math.pi * eta_flipped)
        assert residual > 1e-3  # fails decisively for the wrong choice


class TestPluriharmonicityScan:
    def test_harmonic_oracle(self):
        base = sample_group("scan_base")
        rep = pluriharmonicity_scan(
            base, 2, 1e-2, lambda points: [((p[2] ** 3).real, 0.0)
                                           for p in points])
        assert abs(rep.fd_laplacian) < 1e-8
        assert rep.error_budget > 0.0

    def test_nonharmonic_oracle(self):
        base = sample_group("scan_base")
        rep = pluriharmonicity_scan(
            base, 1, 1e-2, lambda points: [(abs(p[1]) ** 2, 0.0)
                                           for p in points])
        assert abs(rep.fd_laplacian - 4.0) < 1e-7

    def test_eta_is_pluriharmonic_at_base_point(self):
        base = sample_group("scan_base")
        for idx in range(3):
            rep = pluriharmonicity_scan(base, idx, 5e-3, eta_on_chart(4, 5))
            assert abs(rep.fd_laplacian) < rep.error_budget

    @pytest.mark.parametrize("point", ["thick", "scan_base"])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_eta_laplacian_is_the_stencils_h2_term(self, point, L):
        # each class adds the imaginary part of a holomorphic function of
        # the chart point, so eta_L is pluriharmonic at every L and the
        # reported Laplacian falls by 4 per halving of h: the O(h^2) term
        base = (schottky_from_params(*THICK_POINT) if point == "thick"
                else sample_group("scan_base"))
        shared = eta_on_chart(L, 8)
        laplacians = [pluriharmonicity_scan(base, 0, h, shared).fd_laplacian
                      for h in (4e-3, 2e-3, 1e-3)]
        for coarse, fine in zip(laplacians, laplacians[1:]):
            assert abs(coarse / fine - 4.0) <= 0.05

    def test_shared_eta_gives_the_same_reports(self):
        base = sample_group("scan_base")
        shared = eta_on_chart(4, 5)
        for idx in range(3):
            assert (pluriharmonicity_scan(base, idx, 5e-3, shared)
                    == pluriharmonicity_scan(base, idx, 5e-3,
                                             eta_on_chart(4, 5)))

    def test_stencil_asked_for_in_one_call(self):
        base = sample_group("scan_base")
        calls = []

        def oracle(points):
            calls.append(list(points))
            return [((p[0] ** 3).real, 0.0) for p in points]

        pluriharmonicity_scan(base, 0, 1e-2, oracle)
        (points,) = calls
        q1 = base.params[0]
        assert points[0] == base.params
        assert [p[0] - q1 for p in points[1:]] == pytest.approx(
            [1e-2, -1e-2, 1e-2j, -1e-2j, 5e-3, -5e-3, 5e-3j, -5e-3j])
        assert all(p[1:] == base.params[1:] for p in points)

    def test_batch_values_are_each_points_own(self):
        # one batch of points, and each point alone, give the same bits
        points = [sample_group(name).params for name in (
            "scan_base", "g2_complex_a", "g2_complex_b", "g2_complex_c")]
        batch = eta_on_chart(4, 6)(points)
        alone = [eta_on_chart(4, 6)([p])[0] for p in points]
        assert list(map(repr, batch)) == list(map(repr, alone))

    def test_memo_evaluates_each_point_once(self, monkeypatch):
        seen = []
        terms_from_groups = oddzeta.zograf.terms_from_groups

        def counted(generator_sets, *args, **kwargs):
            seen.append(len(generator_sets))
            return terms_from_groups(generator_sets, *args, **kwargs)

        monkeypatch.setattr(oddzeta.zograf, "terms_from_groups", counted)
        fn = eta_on_chart(3, 5)
        a, b = (sample_group(name).params
                for name in ("scan_base", "g2_complex_a"))
        first = fn([a, a])
        assert first == fn([a]) * 2
        assert fn([b, a, b])[1] == first[0]
        assert seen == [1, 1]

    def test_refusal_is_the_first_failing_points(self):
        # a point with delta_hat >= 0 (refused after the solve), one with
        # q1 outside the unit disk (refused before the walk) and one with
        # q1 near the unit circle (refused in the solve): in every order
        # the refusal is the first failing point's, as each point alone
        # gives
        points = {"ok": sample_group("scan_base").params,
                  "delta": (0.16 + 0.128j, 0.176 - 0.08j, -0.9 + 0.6j),
                  "chart": (1.2, 0.0012, -1.0 + 0.5j),
                  "solve": (0.985, 0.0012, -1.0 + 0.5j)}

        def refusal(call):
            with pytest.raises(LeftSchottkyDomain) as exc:
                call()
            return str(exc.value)

        alone = {name: refusal(lambda: eta_on_chart(3, 5)([p]))
                 for name, p in points.items() if name != "ok"}
        assert len(set(alone.values())) == 3
        for order in itertools.permutations(points):
            first = next(name for name in order if name != "ok")
            got = refusal(lambda: eta_on_chart(3, 5)(
                [points[name] for name in order]))
            assert got == alone[first]

    @pytest.mark.parametrize("k", [0, 4, 8])
    def test_refused_batch_walks_once_per_point_to_the_first_failing(
            self, monkeypatch, k):
        # a point whose class Baaaa is elliptic at index k of nine: the
        # batch walk is refused, then points 0..k are walked one at a time
        base = sample_group("scan_base").params
        good = [(base[0] * (1 + 0.01 * n), *base[1:]) for n in range(8)]
        points = good[:k] + [(0.9j, 0.9, 2.0)] + good[k:]
        walks = []
        walk = oddzeta.words._class_products

        def counted(generator_sets, L):
            walks.append(len(generator_sets))
            return walk(generator_sets, L)

        monkeypatch.setattr(oddzeta.words, "_class_products", counted)
        with pytest.raises(LeftSchottkyDomain, match="Baaaa is elliptic"):
            eta_on_chart(3, 5)(points)
        assert walks == [9] + [1] * (k + 1)

    def test_batch_past_the_cap_walks_in_chunks(self, monkeypatch):
        # four points more than a walk may take: a full walk, then one of
        # four, and every value is the point's own, bit for bit
        cap = oddzeta.zograf._WALK_POINTS
        assert cap >= 16  # a scan stencil's 9 points stay one walk
        base = sample_group("scan_base").params
        points = [(base[0] * (1 + 0.01 * n), *base[1:])
                  for n in range(cap + 4)]
        walks = []
        walk = oddzeta.words._class_products

        def counted(generator_sets, L):
            walks.append(len(generator_sets))
            return walk(generator_sets, L)

        monkeypatch.setattr(oddzeta.words, "_class_products", counted)
        batch = eta_on_chart(3, 5)(points)
        assert walks == [cap, 4]
        alone = [eta_on_chart(3, 5)([p])[0] for p in points]
        assert list(map(repr, batch)) == list(map(repr, alone))

    @pytest.mark.parametrize("first", ["first chunk", "second chunk"])
    def test_refusal_past_the_cap_is_a_loops(self, first):
        # a point whose class Baaaa is elliptic, in the first or the
        # second chunk, and a point with delta_hat >= 0 last: the refusal
        # is the one a point-by-point loop meets first
        cap = oddzeta.zograf._WALK_POINTS
        base = sample_group("scan_base").params
        good = [(base[0] * (1 + 0.01 * n), *base[1:]) for n in range(cap + 4)]
        k = 3 if first == "first chunk" else cap + 2
        points = (good[:k] + [(0.9j, 0.9, 2.0)] + good[k:]
                  + [(0.16 + 0.128j, 0.176 - 0.08j, -0.9 + 0.6j)])
        loop = eta_on_chart(3, 5)
        for point in points:
            try:
                loop([point])
            except LeftSchottkyDomain as exc:
                expected = str(exc)
                break
        assert "Baaaa is elliptic" in expected
        with pytest.raises(LeftSchottkyDomain) as exc:
            eta_on_chart(3, 5)(points)
        assert str(exc.value) == expected

    def test_leaving_domain_raises(self):
        # q1 + h crosses |q| = 1
        base = schottky_from_params(0.995, 0.0012, -1.0 + 0.5j)
        with pytest.raises(LeftSchottkyDomain):
            pluriharmonicity_scan(base, 0, 1e-2, eta_on_chart(3, 4))

    def test_parameter_index_validation(self):
        base = sample_group("scan_base")
        with pytest.raises(ValueError):
            pluriharmonicity_scan(base, 3, 1e-2, eta_on_chart(3, 6))
        # h = inf would give fd_laplacian 0.0 within a budget of 0.0, a
        # false pass, and h = nan a report of NaNs
        for h in (-1e-2, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                pluriharmonicity_scan(base, 0, h, eta_on_chart(3, 6))
