"""Adaptive Gauss-Kronrod (G7/K15) quadrature with a reported error bound.

Single-threaded and deterministic: the subdivision order depends only on
the integrand values, with panel insertion order as the tie-breaker.  The
integrand may be real- or complex-valued; the error estimate is the sum of
per-panel |K15 - G7| differences, which is conservative for the smooth,
exponentially decaying integrands this package produces.
"""

from __future__ import annotations

import heapq
from typing import Callable, Tuple

from .errors import NoConvergence

# (node, Gauss-7 weight, Kronrod-15 weight); nodes are the K15 abscissae
# on [-1, 1], the seven with nonzero Gauss weight form the embedded G7 rule.
_NODES = (
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.0, 0.022935322010529),
    (-0.991455371120813, 0.0, 0.022935322010529),
    (+0.864864423359769, 0.0, 0.104790010322250),
    (-0.864864423359769, 0.0, 0.104790010322250),
    (+0.586087235467691, 0.0, 0.169004726639267),
    (-0.586087235467691, 0.0, 0.169004726639267),
    (+0.207784955007898, 0.0, 0.204432940075298),
    (-0.207784955007898, 0.0, 0.204432940075298),
)

#: Panels ``integrate`` may use before it gives up.
MAX_PANELS = 4096


def _panel(f: Callable[[float], complex], a: float, b: float) -> Tuple[complex, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g7 = 0.0 + 0.0j
    k15 = 0.0 + 0.0j
    for x, wg, wk in _NODES:
        fx = f(mid + half * x)
        g7 += wg * fx
        k15 += wk * fx
    return k15 * half, abs(k15 - g7) * abs(half)


def integrate(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol_abs: float = 1e-12,
    tol_rel: float = 1e-12,
) -> Tuple[complex, float]:
    """Integrate ``f`` over [a, b]; returns (value, error_bound).

    Bisects the panel with the largest error estimate until the summed
    estimate meets ``tol_abs`` or ``tol_rel`` (whichever is looser), and
    raises :class:`NoConvergence` if ``MAX_PANELS`` run out first.
    """
    if a == b:
        return 0.0 + 0.0j, 0.0
    value, err = _panel(f, a, b)
    heap = [(-err, 0, a, b, value, err)]
    count = 1
    while True:
        total = sum(item[4] for item in heap)
        total_err = sum(item[5] for item in heap)
        if total_err <= max(tol_abs, tol_rel * abs(total)):
            return total, total_err
        if count >= MAX_PANELS:
            raise NoConvergence(
                f"quadrature did not reach tolerance: error {total_err:.3e} "
                f"with {count} panels"
            )
        _, _, pa, pb, _, _ = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, pm)
        v2, e2 = _panel(f, pm, pb)
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, count + 1, pm, pb, v2, e2))
        count += 2
