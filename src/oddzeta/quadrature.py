"""Adaptive Gauss-Kronrod (G7/K15) quadrature with a reported error bound.

One adaptive core, :func:`integrate_batch`, runs m integrals in lockstep.
Each integral keeps its own heap of panels, keyed on the panel's error
estimate with its own insertion counter as the tie-breaker, its own
stopping test and its own ``MAX_PANELS`` budget.  A round pops the worst
panel of every integral that has not converged, bisects it, and evaluates
the 2 x 15 Kronrod nodes of all those halves in one call of a vectorised
integrand ``f(rows, x)``.  The G7 and K15 sums run over the nodes in
``_NODES`` order, one node column at a time, with the real and imaginary
parts kept apart, so each panel gets the same value and estimate as a
panel evaluated on its own with Python complex arithmetic; the estimate
uses ``np.hypot``, as ``abs`` of a Python complex uses the C ``hypot``.
An integral's subdivision order therefore depends only on its own
integrand values: batching changes how many integrals share a numpy call,
never which panels an integral splits.

Single-threaded and deterministic.  The integrand may be real- or
complex-valued; the error estimate is the sum of per-panel |K15 - G7|
differences, which is conservative for the smooth, exponentially decaying
integrands this package produces.  A panel whose value or estimate is not
finite is refused at once: no subdivision can make the sum finite.
"""

from __future__ import annotations

import cmath
import heapq
import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

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
_X = np.array([node for node, _, _ in _NODES])
# weights indexed (node, rule, 1): rule 0 is G7, rule 1 is K15
_W = np.array([[[wg], [wk]] for _, wg, wk in _NODES])

#: Panels one integral may evaluate before it gives up.
MAX_PANELS = 4096

#: ``f(rows, x)``: integrand values at the nodes ``x`` (shape (k, 15)) of k
#: panels, where ``rows[i]`` is the integral that panel i belongs to.
BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _panels(f: BatchIntegrand, rows: np.ndarray, a: np.ndarray,
            b: np.ndarray) -> Tuple[list, list]:
    """K15 values and |K15 - G7| estimates of the panels [a_i, b_i].

    numpy's floating-point warnings are off: a panel that meets an
    overflow or an invalid operation is not finite, and the caller
    refuses it."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    with np.errstate(all="ignore"):
        fx = np.ascontiguousarray(f(rows, mid[:, None] + half[:, None] * _X),
                                  dtype=complex)
        # (panel, node, 1, re/im) times (node, rule, 1): each product is a
        # part of the Python product weight * f(x), and the running sum
        # over the node axis adds in _NODES order, one node at a time
        parts = fx.view(np.float64).reshape(len(rows), len(_X), 1, 2)
        sums = np.add.accumulate(parts * _W, axis=1)[:, -1]
        g7, k15 = sums[:, 0], sums[:, 1]
        diff = k15 - g7
        err = np.hypot(diff[:, 0], diff[:, 1]) * np.abs(half)
        value = k15 * half[:, None]
    return value.view(complex).ravel().tolist(), err.tolist()


def integrate_batch(
    f: BatchIntegrand,
    a: Sequence[float],
    b: Sequence[float],
    tol_abs: float = 1e-12,
    tol_rel: float = 1e-12,
) -> Tuple[List[complex], List[float], List[int]]:
    """Integrate m integrals over [a_i, b_i] in lockstep; returns lists
    (values, error_bounds, panels), one entry per integral, ``panels``
    counting the panels each evaluated.

    Each integral bisects its panel with the largest error estimate until
    its summed estimate meets ``tol_abs`` or ``tol_rel`` (whichever is
    looser).  Raises :class:`NoConvergence` if an integral would need more
    than ``MAX_PANELS`` panels, or at once for a panel whose value or
    estimate is not finite.
    """
    a, b = [float(x) for x in a], [float(x) for x in b]
    m = len(a)
    values: List[complex] = [0.0 + 0.0j] * m
    errors = [0.0] * m
    panels = [0] * m
    heaps: List[list] = [[] for _ in range(m)]
    active = [i for i in range(m) if a[i] != b[i]]
    pending = [(i, a[i], b[i]) for i in active]
    while active:
        rows, lo, hi = zip(*pending)
        vals, errs = _panels(f, np.array(rows), np.array(lo), np.array(hi))
        for (i, pa, pb), value, err in zip(pending, vals, errs):
            if not (math.isfinite(err) and cmath.isfinite(value)):
                raise NoConvergence(
                    f"quadrature over [{a[i]!r}, {b[i]!r}]: panel "
                    f"[{pa!r}, {pb!r}] has value {value!r} and error "
                    f"estimate {err!r}, not finite")
            heapq.heappush(heaps[i], (-err, panels[i], pa, pb, value, err))
            panels[i] += 1
        pending = []
        still = []
        for i in active:
            heap = heaps[i]
            total = sum(item[4] for item in heap)
            total_err = sum(item[5] for item in heap)
            if total_err <= max(tol_abs, tol_rel * abs(total)):
                values[i], errors[i] = total, total_err
                continue
            if panels[i] + 2 > MAX_PANELS:
                raise NoConvergence(
                    f"quadrature over [{a[i]!r}, {b[i]!r}] did not reach "
                    f"tolerance: error {total_err:.3e} with {panels[i]} "
                    f"panels, limit {MAX_PANELS}")
            _, _, pa, pb, _, _ = heapq.heappop(heap)
            pm = 0.5 * (pa + pb)
            pending += [(i, pa, pm), (i, pm, pb)]
            still.append(i)
        active = still
    return values, errors, panels

