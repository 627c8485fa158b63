"""Seeded generator for the benchmark's oddzeta config files.

Every workload is a list of operations; one pass over that list is a
*cycle*.  An operation is one ``oddzeta <subcommand> --config <file>`` run.
The seed moves the chart points of ``eta_thick`` and ``scan_chart`` inside
the boxes below and jitters the kernel grid; ``spectrum_deep`` depends
only on rank and word cutoff, so its config ignores the seed.  The same
seed always gives byte-identical files.

The configs use only keys that every version of the config format in
this repository accepts and never a ``threads`` key, so removing the
thread pool cannot turn the workloads into config errors.

Generator matrices are computed here from the genus-2 chart
(q1, q2, b2) with plain complex arithmetic rather than through the
package, so a change to the package's own chart code cannot change the
benchmark's inputs.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

# Thick chart point of the paper's identity check (delta_hat ~ -0.476).
ETA_THICK_POINT = (0.06 + 0.05j, 0.07 - 0.03j, -0.9 + 0.6j)
# Half-widths of the seed box around ETA_THICK_POINT, per chart coordinate,
# applied independently to the real and imaginary parts.
ETA_THICK_BOX = (0.002, 0.002, 0.02)
# Re(lambda) >= 0 grid of the zeta operation; lambda = 0 stays exact so the
# run can compare Z_odd(0) with exp(i pi eta).
ETA_THICK_LAMBDA = (0.0 + 0.0j, 0.25 + 0.1j, 0.5 + 0.0j, 1.0 - 0.5j,
                    2.0 + 1.0j)
ETA_THICK_LAMBDA_JITTER = 0.02
# Near-abscissa probe, always at the unperturbed ETA_THICK_POINT: there
# delta_hat < -0.4 < 0, so the sum converges, but the finite log tail bound
# exceeds 709 and exp overflows (a known defect, exit 4).  Nearby points
# give an infinite tail bound instead, so the probe is not perturbed.
NEAR_ABSCISSA_LAMBDA = (-0.4 + 0.0j,)

# The package's scan_base preset; its chart steps of h = 5e-3 stay inside
# the loxodromic locus.  The box keeps q1, q2 away from +-h and +-h/2 on
# the axes, where a shifted multiplier would vanish.
SCAN_POINT = (0.0012 + 0.0009j, 0.0014 - 0.0006j, -1.1 + 0.7j)
SCAN_BOX = (0.0002, 0.0002, 0.02)

# Kernel grids: r spans the series/jets crossover at r = 0.45 on both
# sides; every lambda has Re(lambda^2) > 0 and avoids the gamma poles.
KERNEL_T_COUNT = 28
KERNEL_R_COUNT = 32
KERNEL_LAMBDA_COUNT = 12
KERNEL_JITTER = 0.01


@dataclass(frozen=True)
class Operation:
    """One CLI run: subcommand plus config file name.

    ``probe`` marks the known-failure probe: it is attempted and gated
    on every cycle, but its time never enters the command metrics.
    """

    subcommand: str
    config: str
    probe: bool = False


WORKLOADS: Dict[str, Tuple[Operation, ...]] = {
    "spectrum_deep": (Operation("spectrum", "spectrum.cfg"),),
    "eta_thick": (
        Operation("zeta", "eta_thick.cfg"),
        Operation("eta", "eta_thick.cfg"),
        Operation("zeta", "near_abscissa.cfg", probe=True),
    ),
    "scan_chart": (Operation("scan", "scan.cfg"),),
    "kernels_grid": (Operation("kernels", "kernels.cfg"),),
}


def _fmt(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _normalized(a, b, c, d):
    s = cmath.sqrt(a * d - b * c)
    return (a / s, b / s, c / s, d / s)


def _mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return _normalized(a * e + b * g, a * f + b * h, c * e + d * g,
                       c * f + d * h)


def chart_generators(q1: complex, q2: complex, b2: complex):
    """Generator 1 fixes (0, inf) with multiplier q1, generator 2 fixes
    (1, b2) with multiplier q2; both as unit-determinant 2x2 entries."""
    r1 = cmath.sqrt(q1)
    gen1 = (r1, 0j, 0j, 1 / r1)
    r2 = cmath.sqrt(q2)
    conj = _normalized(1 + 0j, -1 + 0j, 1 + 0j, -b2)
    conj_inv = (conj[3], -conj[1], -conj[2], conj[0])
    gen2 = _mul(_mul(conj_inv, (r2, 0j, 0j, 1 / r2)), conj)
    return gen1, gen2


def _perturb(rng: random.Random, point, box):
    return tuple(
        p + complex(rng.uniform(-w, w), rng.uniform(-w, w))
        for p, w in zip(point, box)
    )


def _group_lines(point) -> List[str]:
    lines = ["[group]"]
    for i, gen in enumerate(chart_generators(*point), start=1):
        lines.append(f"generator{i} = " + " ".join(_fmt(z) for z in gen))
    return lines


def _header(workload: str, seed: int, why: str) -> List[str]:
    return [f"# perfbench workload {workload}, seed {seed}", f"# {why}"]


def _spaced_grid(rng: random.Random, lo: float, hi: float, count: int,
                 geometric: bool) -> List[float]:
    out = []
    for k in range(count):
        frac = k / (count - 1)
        v = lo * (hi / lo) ** frac if geometric else lo + (hi - lo) * frac
        out.append(v * (1.0 + rng.uniform(-KERNEL_JITTER, KERNEL_JITTER)))
    return out


def generate(seed: int) -> Dict[str, str]:
    """Config file name -> text for every workload at this seed."""
    rng = random.Random(seed)
    files: Dict[str, str] = {}

    files["spectrum.cfg"] = "\n".join(
        _header("spectrum_deep", seed, "class enumeration plus word "
                "products at L = 11 (25626 classes); seed-independent")
        + ["[group]", "preset = g2_complex_a", "[run]", "word_cutoff = 11"]
    ) + "\n"

    thick = _perturb(rng, ETA_THICK_POINT, ETA_THICK_BOX)
    lam = [ETA_THICK_LAMBDA[0]] + [
        z + complex(0.0, rng.uniform(-ETA_THICK_LAMBDA_JITTER,
                                     ETA_THICK_LAMBDA_JITTER))
        for z in ETA_THICK_LAMBDA[1:]
    ]
    run = ["[run]", "word_cutoff = 9", "delta_cutoff = 9",
           "inner_cutoff = 40"]
    chart = "chart point (" + ", ".join(_fmt(p) for p in thick) + ")"
    files["eta_thick.cfg"] = "\n".join(
        _header("eta_thick", seed, chart) + _group_lines(thick) + run
        + ["[grids]", "lambda = " + " ".join(_fmt(z) for z in lam)]
    ) + "\n"
    files["near_abscissa.cfg"] = "\n".join(
        _header("eta_thick", seed, "near-abscissa probe at the unperturbed "
                "chart point")
        + _group_lines(ETA_THICK_POINT) + run
        + ["[grids]",
           "lambda = " + " ".join(_fmt(z) for z in NEAR_ABSCISSA_LAMBDA)]
    ) + "\n"

    scan = _perturb(rng, SCAN_POINT, SCAN_BOX)
    files["scan.cfg"] = "\n".join(
        _header("scan_chart", seed, "chart point ("
                + ", ".join(_fmt(p) for p in scan) + ")")
        + _group_lines(scan)
        + ["[run]", "delta_cutoff = 8",
           "[scan]", "h = 5e-3", "scan_cutoff = 4", "oracle = none"]
    ) + "\n"

    t_grid = _spaced_grid(rng, 0.05, 20.0, KERNEL_T_COUNT, geometric=True)
    r_grid = _spaced_grid(rng, 0.04, 4.0, KERNEL_R_COUNT, geometric=True)
    lam_re = _spaced_grid(rng, 0.3, 3.0, KERNEL_LAMBDA_COUNT, geometric=False)
    kernel_lam = [complex(x, x * rng.uniform(-0.4, 0.4)) for x in lam_re]
    files["kernels.cfg"] = "\n".join(
        _header("kernels_grid", seed, "dense (t, r) and (lambda, r) grids, "
                "r on both sides of 0.45")
        + ["[grids]",
           "lambda = " + " ".join(_fmt(z) for z in kernel_lam),
           "t = " + " ".join(repr(v) for v in t_grid),
           "r = " + " ".join(repr(v) for v in r_grid),
           "[kernels]", "n = 2", "m = 2"]
    ) + "\n"
    return files
