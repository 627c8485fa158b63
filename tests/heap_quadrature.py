"""The heap reference of the adaptive G7/K15 core.

``oddzeta.quadrature.integrate_batch`` keeps each integral's panels in
a numpy row in creation order and sums them there.  It replaced this
core, which kept a heap of panels per integral, keyed on the error
estimate with an insertion counter as the tie-breaker, and re-summed
each heap with Python's ``sum`` in heap-list order every round.  Both
split the same panel in every round, so the panel counts agree; the
totals differ only in the order of their sums.  Kept as it was, with its
list-returning panel evaluation; the node table and ``MAX_PANELS`` are
the package's.
"""

import cmath
import heapq
import math
from typing import List, Sequence, Tuple

import numpy as np

from oddzeta import quadrature
from oddzeta.errors import NoConvergence
from oddzeta.quadrature import BatchIntegrand, _W, _X


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
    tol_abs=1e-12,
    tol_rel: float = 1e-12,
) -> Tuple[List[complex], List[float], List[int]]:
    """Integrate m integrals over [a_i, b_i] in lockstep; returns lists
    (values, error_bounds, panels), one entry per integral, ``panels``
    counting the panels each evaluated.

    Each integral bisects its panel with the largest error estimate until
    its summed estimate meets ``tol_abs`` or ``tol_rel`` (whichever is
    looser); ``tol_abs`` is one value for every integral or one value
    each.  Raises :class:`NoConvergence` if an integral would need more
    than ``MAX_PANELS`` panels, or at once for a panel whose value or
    estimate is not finite.
    """
    MAX_PANELS = quadrature.MAX_PANELS
    a, b = [float(x) for x in a], [float(x) for x in b]
    m = len(a)
    floors = np.broadcast_to(np.asarray(tol_abs, dtype=float), m).tolist()
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
            if total_err <= max(floors[i], tol_rel * abs(total)):
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
