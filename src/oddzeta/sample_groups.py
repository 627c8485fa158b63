"""Recorded genus-2 Schottky parameter points used by the verification suite.

Every complex point below has generator multipliers |q| < e^-6 (so both
core geodesics are longer than 6) and fixed-point sets {0, inf} and
{1, b2} that are far apart on the sphere.  In this regime the isometric
circles are tiny and disjoint, the groups are classical Schottky, and the
shifted Poincare exponent sits well below -0.05; the test suite measures
it rather than assuming it.  ``real_pair`` has all-real matrices, hence a
Fuchsian-symmetric manifold with vanishing eta.
"""

from __future__ import annotations

from .zograf import SchottkyPoint, schottky_from_params

COMPLEX_POINTS = {
    "g2_complex_a": (0.0009 + 0.0007j, 0.0011 - 0.0005j, -0.9 + 0.6j),
    "g2_complex_b": (0.0015 + 0.0004j, 0.0006 + 0.0009j, 2.2 + 1.1j),
    "g2_complex_c": (0.0007 - 0.0011j, -0.0012 + 0.0008j, -1.5 - 0.8j),
}

REAL_POINT = (0.002 + 0.0j, 0.0018 + 0.0j, -1.0 + 0.0j)

#: Interior scan point for the pluriharmonicity check; steps of 5e-3 in
#: every complex chart direction stay inside the loxodromic locus.
SCAN_BASE_POINT = (0.0012 + 0.0009j, 0.0014 - 0.0006j, -1.1 + 0.7j)


def sample_group(name: str) -> SchottkyPoint:
    points = {**COMPLEX_POINTS, "real_pair": REAL_POINT,
              "scan_base": SCAN_BASE_POINT}
    return schottky_from_params(*points[name])

