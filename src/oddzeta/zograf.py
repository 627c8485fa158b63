"""Holomorphic factorization function F, the eta identity, and scans.

F is the absolutely convergent double product over primitive classes

    F = prod over classes prod_{m >= 0} (1 - q^(1+m)),

defined on the locus where the shifted Poincare exponent is negative.
Its accumulated-log argument satisfies arg F = -(pi/2) eta exactly for
the signature-variant eta with the default character convention, and
Z_odd(0) = conj(F)/F; both are checked numerically here.

The genus-2 chart after normalization is (q1, q2, b2): the multipliers
of the two generators and the free repelling fixed point of the second
(the other anchors are pinned at 0, inf, 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DeltaNotNegative, LeftSchottkyDomain, NonPrimitiveInput, NotLoxodromic
from .moebius import MoebiusMap, geodesic_invariants
from .words import estimate_delta
from .zeta import (
    ClassTerm,
    eta_central_with_budget,
    shell_tail_bound,
    terms_from_group,
    zeta_odd,
)

_MACHINE_FLOOR = 1e-15


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
    if abs(b2 - 1.0) < 1e-12 or abs(b2) < 1e-12 or not (
        math.isfinite(b2.real) and math.isfinite(b2.imag)
    ):
        raise ValueError(f"b2 = {b2} collides with an anchor point")
    root1 = cmath.sqrt(q1)
    gen1 = MoebiusMap(root1, 0.0, 0.0, 1.0 / root1)
    root2 = cmath.sqrt(q2)
    to_0_inf = MoebiusMap.normalized(1.0, -1.0, 1.0, -b2)  # 1 -> 0, b2 -> inf
    gen2 = to_0_inf.inverse() @ MoebiusMap(root2, 0.0, 0.0, 1.0 / root2) @ to_0_inf
    return SchottkyPoint(generators=(gen1, gen2), params=(q1, q2, b2))


def point_params(point: SchottkyPoint, tol: float = 1e-12) -> Tuple[complex, complex, complex]:
    """Recover (q1, q2, b2) and verify the normalization anchors."""
    inv1 = geodesic_invariants(point.generators[0])
    inv2 = geodesic_invariants(point.generators[1])
    if (abs(inv1.attracting) > tol or abs(inv2.attracting - 1.0) > tol
            or (math.isfinite(inv1.repelling.real)
                and abs(inv1.repelling) < 1.0 / tol)):
        raise ValueError("generators are not in normalized position")
    return inv1.q, inv2.q, inv2.repelling


@dataclass(frozen=True)
class FEvaluation:
    """Truncated F with the accumulated log (arg F without mod ambiguity)."""

    value: complex
    log_value: complex
    tail_bound: float
    inner_cutoff: int


def zograf_F(primitive_terms: Sequence[ClassTerm], inner_cutoff: int,
             rank: Optional[int] = None) -> FEvaluation:
    """prod over primitive classes of prod_{m=0}^{M} (1 - q^(1+m)).

    The inner tail is bounded by sum_{m>M} |q|^(1+m) / (1 - |q|) per
    class; the outer (missing shells) bound reuses the zeta shell model.
    Raises NonPrimitiveInput when a j > 1 term sneaks in.
    """
    logs_re: List[float] = []
    logs_im: List[float] = []
    inner_tail = 0.0
    for t in primitive_terms:
        if t.j != 1:
            raise NonPrimitiveInput(f"term with j = {t.j} is not primitive")
        aq = abs(t.q)
        power = t.q
        for _ in range(inner_cutoff + 1):
            val = cmath.log(1.0 - power)
            logs_re.append(val.real)
            logs_im.append(val.imag)
            power *= t.q
        inner_tail += aq ** (inner_cutoff + 2) / (1.0 - aq) ** 2
    log_value = complex(math.fsum(logs_re), math.fsum(logs_im))
    tail = inner_tail + shell_tail_bound(primitive_terms, rank, 0.0)
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
    delta_hat: float
    error_budget: float
    cutoff_L: int
    inner_cutoff: int


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def check_eta_F_identity(terms: Sequence[ClassTerm], M: int,
                         delta_hat: float, rank: int) -> IdentityReport:
    """Residual |arg F + (pi/2) eta| mod 2 pi on a concrete group.

    ``terms`` are the group's signature-variant class terms with the
    default ("plus") character convention, ``delta_hat`` its exponent
    estimate and ``rank`` its number of generators.  eta comes from the
    central-value route, F from the double product over the same
    primitive classes; the report also carries the direct comparison of
    Z_odd(0) with conj(F)/F, which exercises two independent code paths
    end to end.
    """
    if delta_hat >= 0:
        raise DeltaNotNegative(f"delta_hat = {delta_hat:.6g} >= 0")
    if any(t.variant != "signature" for t in terms):
        raise ValueError("the eta-F identity needs signature-variant terms")
    eta_value, eta_budget = eta_central_with_budget(
        terms, rank=rank, delta_hat=delta_hat
    )
    primitives = [t for t in terms if t.j == 1]
    f_eval = zograf_F(primitives, M, rank=rank)
    arg_f = f_eval.log_value.imag
    residual = abs(_wrap_angle(arg_f + 0.5 * math.pi * eta_value))
    z_central = zeta_odd(terms, 0.0, rank=rank, delta_hat=delta_hat)
    ratio = f_eval.value.conjugate() / f_eval.value
    cross = abs(z_central.value - ratio)
    budget = (0.5 * math.pi * eta_budget + 2.0 * f_eval.tail_bound
              + _MACHINE_FLOOR)
    return IdentityReport(
        residual=residual, eta=eta_value, arg_f=arg_f, f_value=f_eval.value,
        z_central=z_central.value, central_cross_check=cross,
        delta_hat=delta_hat, error_budget=budget,
        cutoff_L=z_central.cutoff_L, inner_cutoff=M,
    )


@dataclass(frozen=True)
class PluriharmonicityReport:
    param_index: int
    h: float
    fd_laplacian: float
    error_budget: float


ValueFn = Callable[[Tuple[complex, complex, complex]], float]


def _eta_value_fn(L: int, delta_cutoff: int):
    def value(params: Tuple[complex, complex, complex]):
        try:
            point = schottky_from_params(*params)
            terms = terms_from_group(point.generators, L, "signature")
        except (NotLoxodromic, ValueError) as exc:
            raise LeftSchottkyDomain(str(exc)) from exc
        est = estimate_delta(point.generators, delta_cutoff)
        if est.delta_hat >= 0:
            raise LeftSchottkyDomain(
                f"delta_hat = {est.delta_hat:.6g} >= 0 at params {params}"
            )
        return eta_central_with_budget(terms, rank=2,
                                       delta_hat=est.delta_hat)
    return value


def pluriharmonicity_scan(base: SchottkyPoint, param_index: int, h: float,
                          L: int, delta_cutoff: Optional[int] = None,
                          value_fn: Optional[ValueFn] = None
                          ) -> PluriharmonicityReport:
    """Five-point complex-direction Laplacian of eta in one chart parameter.

    fd_laplacian = (f(p+h) + f(p-h) + f(p+ih) + f(p-ih) - 4 f(p)) / h^2
    evaluated at step h; the error budget combines the Richardson h vs h/2
    discretization estimate, the eta truncation bounds divided by h^2 and
    a rounding floor.  ``value_fn`` (params -> float) replaces eta for
    harness-validation oracles.
    """
    if not 0 <= param_index < 3:
        raise ValueError("param_index must be 0, 1 or 2")
    if h <= 0:
        raise ValueError("h must be positive")
    if value_fn is None:
        fn = _eta_value_fn(L, delta_cutoff or 6)
    else:
        fn = lambda params: (value_fn(params), 0.0)

    def shifted(delta: complex) -> Tuple[complex, complex, complex]:
        params = list(base.params)
        params[param_index] = params[param_index] + delta
        return tuple(params)

    def laplacian(step: float) -> Tuple[float, float, float]:
        values = []
        budgets = []
        for offset in (step, -step, 1j * step, -1j * step):
            v, b = fn(shifted(offset))
            values.append(v)
            budgets.append(b)
        lap = (sum(values) - 4.0 * center) / step ** 2
        trunc = (sum(budgets) + 4.0 * center_budget) / step ** 2
        scale = max(1.0, max(abs(v) for v in values), abs(center))
        floor = 8.0 * _MACHINE_FLOOR * scale / step ** 2
        return lap, trunc, floor

    center, center_budget = fn(base.params)
    lap_h, trunc_h, floor_h = laplacian(h)
    lap_h2, _, _ = laplacian(0.5 * h)
    discretization = 4.0 / 3.0 * abs(lap_h - lap_h2)
    return PluriharmonicityReport(
        param_index=param_index, h=h, fd_laplacian=lap_h,
        error_budget=discretization + trunc_h + floor_h,
    )
