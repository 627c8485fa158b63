"""Holomorphic factorization function F, the eta identity, and scans.

F is the absolutely convergent double product over primitive classes

    F = prod over classes prod_{m >= 0} (1 - q^(1+m)),

defined on the locus where the shifted Poincare exponent is negative.
Its accumulated-log argument satisfies arg F = -(pi/2) eta exactly for
the signature-variant eta with the default character convention, and
Z_odd(0) = conj(F)/F; both are checked numerically here.  The log of
each class's factor, truncated at m = M, is summed as its power series
in q, -sum_k (1/k) q^k (1 - q^(k(M+1))) / (1 - q^k), exact for the same
M and cut after the first K with |q|^(K+1) <= 2^-70, so the work does
not grow with M.

The genus-2 chart after normalization is (q1, q2, b2): the multipliers
of the two generators and the free repelling fixed point of the second
(the other anchors are pinned at 0, inf, 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import (DegenerateConfiguration, DeltaNotNegative,
                     LeftSchottkyDomain, NonConvergent, NonPrimitiveInput,
                     NotLoxodromic, OddZetaError)
from .moebius import (EPS_CLASS, MoebiusMap, _map_to_0_inf_1,
                      _points_distinct, geodesic_invariants, loxodromic)
from .zeta import (
    ZetaTerms,
    _check_delta_negative,
    _fsum,
    log_zeta_odd,
    shell_tail_bound,
    terms_from_groups,
    terms_from_spectrum,
)

_MACHINE_FLOOR = 1e-15
#: each class's F series is cut once |q|^(K+1) <= 2^-_SERIES_CUT_BITS
_SERIES_CUT_BITS = 70.0
#: the most chart points ``eta_on_chart`` walks at once; a scan stencil's
#: 9 points are one walk
_WALK_POINTS = 16


@dataclass(frozen=True)
class SchottkyPoint:
    """Normalized genus-2 group together with its chart coordinates."""

    generators: Tuple[MoebiusMap, ...]
    params: Tuple[complex, complex, complex]


def schottky_from_params(q1: complex, q2: complex, b2: complex) -> SchottkyPoint:
    """Marked normalized group from the chart (q1, q2, b2).

    Generator 1 fixes (0, inf) with multiplier q1; generator 2 fixes
    (1, b2) with multiplier q2.  Whether the result is actually free and
    discrete is trusted input, as everywhere in this package.
    """
    q1, q2, b2 = complex(q1), complex(q2), complex(b2)
    for name, q in (("q1", q1), ("q2", q2)):
        if not 0.0 < abs(q) < 1.0:
            raise ValueError(f"{name} = {q} must satisfy 0 < |q| < 1")
    if not cmath.isfinite(b2) or abs(b2 - 1.0) < 1e-12 or abs(b2) < 1e-12:
        raise ValueError(f"b2 = {b2} collides with an anchor point")
    root1 = cmath.sqrt(q1)
    gen1 = MoebiusMap(root1, 0.0, 0.0, 1.0 / root1)
    return SchottkyPoint(generators=(gen1, loxodromic(1.0, b2, q2)),
                         params=(q1, q2, b2))


def chart_params(generators: Sequence[MoebiusMap]) -> Tuple[complex, complex, complex]:
    """The chart point (q1, q2, b2) of a pair of loxodromic generators.

    q1 and q2 are their multipliers; b2 is where the conjugation taking
    the attracting and repelling fixed points of the first and the
    attracting fixed point of the second to 0, inf and 1 sends the
    repelling fixed point of the second.  Another number of generators,
    or four fixed points not distinct, raise DegenerateConfiguration.
    """
    if len(generators) != 2:
        raise DegenerateConfiguration(
            f"the chart needs exactly 2 generators, got {len(generators)}")
    inv1, inv2 = (geodesic_invariants(m) for m in generators)
    fixed = (inv1.attracting, inv1.repelling, inv2.attracting, inv2.repelling)
    if not _points_distinct(fixed):
        raise DegenerateConfiguration(f"fixed points {fixed} not distinct")
    return inv1.q, inv2.q, _map_to_0_inf_1(*fixed[:3]).apply(fixed[3])


@dataclass(frozen=True)
class FEvaluation:
    """Truncated F with the accumulated log (arg F without mod ambiguity)."""

    value: complex
    log_value: complex
    tail_bound: float
    inner_cutoff: int


def zograf_F(primitive_terms: ZetaTerms, inner_cutoff: int) -> FEvaluation:
    """prod over primitive classes of prod_{m=0}^{M} (1 - q^(1+m)).

    The log is summed as the power series of each class, exact for the
    same M:

        sum_{m=0}^{M} log(1 - q^(m+1))
            = -sum_{k>=1} (1/k) q^k (1 - q^(k(M+1))) / (1 - q^k).

    A class is cut after its first K with |q|^(K+1) <= 2^-70, that is
    K + 1 = ceil(70 / -log2|q|), so the work is sum K over the classes,
    whatever M.  The classes are sorted by K, descending, the running
    power q^k advances on the prefix still active, and all the terms are
    one ``_fsum``.  K grows like 48.5 / (1 - |q|), so a class near
    |q| = 1 costs many loop passes.

    ``tail_bound`` adds three bounds: per class the inner tail
    sum_{m>M} |q|^(1+m) / (1 - |q|) <= |q|^(M+2) / (1 - |q|)^2 and the
    series cut 2 |q|^(K+1) / ((K+1) (1 - |q|)^2), and the outer (missing
    shells) bound of the zeta shell model.  Raises NonPrimitiveInput when
    a j > 1 term sneaks in, and ValueError for M < 0 or a multiplier
    outside 0 < |q| < 1.
    """
    if inner_cutoff < 0:
        raise ValueError(f"inner_cutoff = {inner_cutoff} must be >= 0")
    powers = primitive_terms.j[primitive_terms.j != 1]
    if len(powers):
        raise NonPrimitiveInput(f"term with j = {powers[0]} is not primitive")
    q = primitive_terms.q
    aq = np.abs(q)
    inside = (aq > 0.0) & (aq < 1.0)
    if not inside.all():
        raise ValueError(
            f"multiplier {q[~inside][0]} must satisfy 0 < |q| < 1")
    # K + 1 per class
    cut = np.ceil(_SERIES_CUT_BITS / -np.log2(aq)).astype(np.int64)
    q = q[np.argsort(-cut, kind="stable")]
    # active[k - 1]: the classes with K >= k, for k = 1 .. max K, which
    # are a prefix of the classes sorted by descending K
    active = len(q) - np.cumsum(np.bincount(cut))[1:-1]
    series = np.empty(active.sum(), complex)
    power = np.ones(len(q), complex)
    start = 0
    for k, n in enumerate(active.tolist(), start=1):
        power = power[:n] * q[:n]
        # (1/k) q^k (q^(k(M+1)) - 1) / (1 - q^k), a term of the log
        series[start:start + n] = (power * (power ** (inner_cutoff + 1) - 1.0)
                                   / (k * (1.0 - power)))
        start += n
    log_value = _fsum(series)
    inner_tail = aq ** (inner_cutoff + 2) / (1.0 - aq) ** 2
    series_tail = 2.0 * aq ** cut / (cut * (1.0 - aq) ** 2)
    tail = (_fsum(np.concatenate((inner_tail, series_tail))).real
            + shell_tail_bound(primitive_terms, 0.0))
    return FEvaluation(cmath.exp(log_value), log_value, tail, inner_cutoff)


@dataclass(frozen=True)
class IdentityReport:
    """Numerical check of arg F = -(pi/2) eta and Z_odd(0) = conj(F)/F."""

    residual: float
    eta: float
    arg_f: float
    f_value: complex
    z_central: complex
    central_cross_check: float
    error_budget: float
    cutoff_L: int
    inner_cutoff: int


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def check_eta_F_identity(terms: ZetaTerms, M: int) -> IdentityReport:
    """Residual |arg F + (pi/2) eta| mod 2 pi on a concrete group.

    The identity is stated for the signature variant under the default
    ("plus") character convention, so the check builds those characters
    of the spectrum of ``terms``, whatever their variant and sign, and
    keeps their delta_hat; delta_hat >= 0 is refused.
    eta, its budget and Z_odd(0) come from one odd sum, log Z_odd(0) =
    -2i sum Im(chi_+ / (j D)): eta is its imaginary part over pi, Z_odd(0)
    its exponential; F is the product over the primitive classes.  They
    agree class by class, so the residual (and |Z_odd(0) - conj(F)/F|)
    measures only the powers gamma^k, k |gamma| > L, that F has and the
    length-L sum lacks, F's cutoff M, and rounding.
    """
    _check_delta_negative(terms)
    terms = replace(terms_from_spectrum(terms), estimate=terms.estimate)
    log_odd = log_zeta_odd(terms, 0.0)
    eta_value = log_odd.value.imag / math.pi
    eta_budget = log_odd.tail_bound / math.pi
    f_eval = zograf_F(terms.select(terms.j == 1), M)
    arg_f = f_eval.log_value.imag
    residual = abs(_wrap_angle(arg_f + 0.5 * math.pi * eta_value))
    z_central = cmath.exp(log_odd.value)
    ratio = f_eval.value.conjugate() / f_eval.value
    cross = abs(z_central - ratio)
    budget = (0.5 * math.pi * eta_budget + 2.0 * f_eval.tail_bound
              + _MACHINE_FLOOR)
    return IdentityReport(
        residual=residual, eta=eta_value, arg_f=arg_f, f_value=f_eval.value,
        z_central=z_central, central_cross_check=cross, error_budget=budget,
        cutoff_L=log_odd.cutoff_L, inner_cutoff=M,
    )


@dataclass(frozen=True)
class PluriharmonicityReport:
    param_index: int
    h: float
    fd_laplacian: float
    error_budget: float


ChartPoint = Tuple[complex, complex, complex]

#: fn(points) -> [(value, truncation budget) per point]
EtaFn = Callable[[Sequence[ChartPoint]], List[Tuple[float, float]]]


def eta_on_chart(L: int, delta_cutoff: int,
                 eps_class: float = EPS_CLASS) -> EtaFn:
    """points -> [(eta, truncation budget) per chart point], memoized.

    One function serves several ``pluriharmonicity_scan`` calls, so a
    point they share, such as the base point, is evaluated once.  The
    points a call has not seen build their class spectra, at
    max(L, delta_cutoff), ``_WALK_POINTS`` at a time in the order given,
    each chunk in one ``terms_from_groups``: one walk of the word tree
    and one lockstep delta_hat solve, whose memory grows with the chunk.
    ``eps_class`` classifies the words, as in ``moebius.classify``.
    A point without a negative delta_hat, or with a word that is not
    loxodromic, raises LeftSchottkyDomain.  A
    refusal is the one the first refused point, in the order given,
    raises on its own: a refused chunk, whose refusal is only some
    point's, is evaluated again one point at a time.
    """
    memo: dict = {}

    def evaluate(points: List[ChartPoint]) -> List[Tuple[float, float]]:
        try:
            terms = terms_from_groups(
                [schottky_from_params(*params).generators
                 for params in points], L, delta_cutoff, eps_class=eps_class)
        except (NotLoxodromic, NonConvergent, ValueError) as exc:
            raise LeftSchottkyDomain(str(exc)) from exc
        values = []
        for params, point_terms in zip(points, terms):
            try:
                _check_delta_negative(point_terms)
            except DeltaNotNegative as exc:
                raise LeftSchottkyDomain(f"{exc} at params {params}") from exc
            log_odd = log_zeta_odd(point_terms, 0.0)
            values.append((log_odd.value.imag / math.pi,
                           log_odd.tail_bound / math.pi))
        return values

    def fn(points: Sequence[ChartPoint]) -> List[Tuple[float, float]]:
        misses = [p for p in dict.fromkeys(points) if p not in memo]
        for start in range(0, len(misses), _WALK_POINTS):
            chunk = misses[start:start + _WALK_POINTS]
            try:
                values = evaluate(chunk)
            except (OddZetaError, ArithmeticError):
                if len(chunk) == 1:
                    raise
                values = [evaluate([params])[0] for params in chunk]
            memo.update(zip(chunk, values))
        return [memo[params] for params in points]
    return fn


def pluriharmonicity_scan(base: SchottkyPoint, param_index: int, h: float,
                          fn: EtaFn) -> PluriharmonicityReport:
    """Five-point complex-direction Laplacian of f in one chart parameter.

    fd_laplacian = (f(p+h) + f(p-h) + f(p+ih) + f(p-ih) - 4 f(p)) / h^2
    evaluated at step h; the error budget combines the Richardson h vs h/2
    discretization estimate, the truncation budgets divided by h^2 and a
    rounding floor.  ``fn`` maps a list of chart points to their
    (f, truncation budget) pairs and is called once, with the nine
    stencil points in the order p, p + h, p - h, p + ih, p - ih, then the
    same at h/2: eta is ``eta_on_chart(L, delta_cutoff)``, whose memo
    lets several scans of one base point evaluate it once; a
    harness-validation oracle returns (value, 0.0) per point.  An h whose
    square, or whose half's square, leaves (0, inf), or that leaves some
    stencil point equal to p in floating point, raises
    DegenerateConfiguration before ``fn`` is called.
    """
    if not 0 <= param_index < 3:
        raise ValueError("param_index must be 0, 1 or 2")
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"h = {h} must be positive and finite")

    def shifted(delta: complex) -> ChartPoint:
        params = list(base.params)
        params[param_index] = params[param_index] + delta
        return tuple(params)

    steps = (h, 0.5 * h)
    stencil = [shifted(offset) for step in steps
               for offset in (step, -step, 1j * step, -1j * step)]
    if not all(0.0 < step * step < math.inf for step in steps):
        raise DegenerateConfiguration(
            f"h = {h!r}: the squared stencil step in chart parameter "
            f"{param_index} is not positive and finite")
    if base.params in stencil:
        raise DegenerateConfiguration(
            f"h = {h!r}: a stencil point equals chart parameter "
            f"{param_index} = {base.params[param_index]!r} in floating point")
    (center, center_budget), *shifts = fn([base.params] + stencil)

    def laplacian(step: float, pairs) -> Tuple[float, float, float]:
        values = [v for v, _ in pairs]
        budgets = [b for _, b in pairs]
        lap = (sum(values) - 4.0 * center) / step ** 2
        trunc = (sum(budgets) + 4.0 * center_budget) / step ** 2
        scale = max(1.0, max(abs(v) for v in values), abs(center))
        floor = 8.0 * _MACHINE_FLOOR * scale / step ** 2
        return lap, trunc, floor

    lap_h, trunc_h, floor_h = laplacian(steps[0], shifts[:4])
    lap_h2, _, _ = laplacian(steps[1], shifts[4:])
    discretization = 4.0 / 3.0 * abs(lap_h - lap_h2)
    return PluriharmonicityReport(
        param_index=param_index, h=h, fd_laplacian=lap_h,
        error_budget=discretization + trunc_h + floor_h,
    )
