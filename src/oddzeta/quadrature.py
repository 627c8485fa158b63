"""Adaptive Gauss-Kronrod (G7/K15) quadrature with a reported error bound.

One adaptive core, :func:`integrate_batch`, runs m integrals in lockstep,
each with its own stopping test and its own ``MAX_PANELS`` budget.  A
numpy store holds one row per integral that has not converged: its
panels' endpoints, K15 values and |K15 - G7| estimates, one slot a panel
in creation order.  A round takes every row's worst panel by ``argmax``
(its first maximum is the oldest panel, so ties split the oldest),
zeroes that slot in place, bisects the panel, and evaluates the 2 x 15
Kronrod nodes of all those halves in one call of a vectorised integrand
``f(rows, x)``.  A row's totals are a sequential sum over its own slots
in creation order (``np.add.accumulate`` along the row), and a row leaves
the store once it converges.  The G7 and K15 sums run over the nodes in
``_NODES`` order, one node at a time, on the node values laid out
node-major, with the real and imaginary parts kept apart, so each panel
gets the same value and estimate as a panel evaluated on its own with
Python complex arithmetic; the estimate uses ``np.hypot``, as ``abs`` of
a Python complex uses the C ``hypot``.  An integral's panels, totals and
panel count therefore depend only on its own integrand values: batching
changes how many integrals share a numpy call, never a bit of an
integral's result.

Single-threaded and deterministic.  The integrand may be real- or
complex-valued; the error estimate is the sum of per-panel |K15 - G7|
differences, which is conservative for the smooth, exponentially decaying
integrands this package produces.  A panel whose value or estimate is not
finite is refused at once: no subdivision can make the sum finite.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, Union

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
            b: np.ndarray) -> np.ndarray:
    """(|K15 - G7| estimate, K15 value's real part, its imaginary part)
    of each panel [a_i, b_i], an array of shape (k, 3).

    numpy's floating-point warnings are off: a panel that meets an
    overflow or an invalid operation is not finite, and the caller
    refuses it."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    out = np.empty((len(rows), 3))
    with np.errstate(all="ignore"):
        fx = np.asarray(f(rows, mid[:, None] + half[:, None] * _X),
                        dtype=complex)
        # node-major (node, 1, panel re/im) times (node, rule, 1): each
        # product is a part of the Python product weight * f(x), and the
        # sums add the node terms in _NODES order, one node at a time
        terms = np.ascontiguousarray(fx.T).view(np.float64)[:, None] * _W
        sums = terms[0]
        for term in terms[1:]:
            sums += term
        g7, k15 = sums.reshape(2, len(rows), 2)
        diff = k15 - g7
        out[:, 0] = np.hypot(diff[:, 0], diff[:, 1]) * np.abs(half)
        out[:, 1:] = k15 * half[:, None]
    return out


def integrate_batch(
    f: BatchIntegrand,
    a: Sequence[float],
    b: Sequence[float],
    tol_abs: Union[float, Sequence[float]] = 1e-12,
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
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    floor = np.broadcast_to(np.asarray(tol_abs, dtype=float), a.shape)
    # per integral: (error bound, re value, im value) and its panel count
    totals = np.zeros((len(a), 3))
    panels = np.zeros(len(a), dtype=int)
    # the integrals still running, and the panels (lo, hi) they evaluate
    # next, the same number for each, in row order
    rows = np.flatnonzero(a != b)
    ends = np.stack([a[rows], b[rows]], axis=1)
    # each running integral's panels in creation order, one slot a panel:
    # (error estimate, re value, im value, lo, hi); a bisected panel's
    # slot is zeroed in place
    store = np.empty((len(rows), 0, 5))
    while len(rows):
        k = len(ends) // len(rows)
        est = _panels(f, rows.repeat(k), ends[:, 0], ends[:, 1])
        if not np.isfinite(est).all():
            j = int(np.argmin(np.isfinite(est).all(axis=1)))
            i = rows[j // k]
            err, re, im = est[j].tolist()
            raise NoConvergence(
                f"quadrature over [{a[i].item()!r}, {b[i].item()!r}]: panel "
                f"[{ends[j, 0].item()!r}, {ends[j, 1].item()!r}] has value "
                f"{complex(re, im)!r} and error estimate {err!r}, not finite")
        new = np.concatenate([est, ends], axis=1).reshape(len(rows), k, 5)
        store = np.concatenate([store, new], axis=1)
        # each row's sums run over its own slots in creation order, so
        # neither other rows nor zeroed slots can move a bit of them
        sums = np.add.accumulate(store[:, :, :3], axis=1)[:, -1]
        done = sums[:, 0] <= np.maximum(
            floor[rows], tol_rel * np.hypot(sums[:, 1], sums[:, 2]))
        if done.any():
            finished = rows[done]
            totals[finished] = sums[done]
            panels[finished] = store.shape[1]
            rows, store, sums = rows[~done], store[~done], sums[~done]
            if not len(rows):
                break
        if store.shape[1] + 2 > MAX_PANELS:
            i = rows[0]
            raise NoConvergence(
                f"quadrature over [{a[i].item()!r}, {b[i].item()!r}] did not "
                f"reach tolerance: error {sums[0, 0].item():.3e} with "
                f"{store.shape[1]} panels, limit {MAX_PANELS}")
        # bisect each row's worst panel: argmax takes the first maximum,
        # so a tie splits the oldest panel
        worst = (np.arange(len(rows)), store[:, :, 0].argmax(axis=1))
        span = store[worst][:, 3:]
        store[worst] = 0.0
        mid = 0.5 * (span[:, 0] + span[:, 1])
        ends = span.repeat(2, axis=0)
        ends[0::2, 1] = mid
        ends[1::2, 0] = mid
    values = totals[:, 1:].copy().view(complex).ravel()
    return values.tolist(), totals[:, 0].tolist(), panels.tolist()
