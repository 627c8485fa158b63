"""The spin phase of a class against the holonomy of the spinor bundle.

For a loxodromic gamma = [[a, b], [c, d]] and a point m on its axis, the
spin lift L of d(gamma) at m carries the spin frame at m to the one at
gamma.m; the spinor transport u(m, gamma.m) along the axis carries it
back.  So h = u L is the spin holonomy of the closed geodesic: a rotation
by its holonomy angle about the axis direction t, lifted to Spin(3), and
its sign is the spin lift's.  It must equal

    Re s - Im s t X e1 e2,    s = spin_phase = mu/|mu|,

which checks ``moebius.class_invariants``' spin phase, sign included,
against the Clifford algebra and the closed-form transport of
``clifford_transport``, which share no code with it.
"""

import math
import random

import pytest
from clifford_transport import (
    CliffordElement,
    HalfSpacePoint,
    TransportPair,
    spinor_transport,
)
from test_moebius import apply_h3, random_sl2
from test_words import decode_words

from oddzeta.moebius import classify, geodesic_invariants, is_infinite
from oddzeta.sample_groups import sample_group
from oddzeta.words import class_spectra, evaluate_word

EPS = 2.0 ** -52

#: The bound on |h - (Re s - Im s t X e1 e2)|, Clifford coefficient norm
HOLONOMY_TOL = 16 * EPS

X, E1, E2 = (CliffordElement.basis_vector(3, i) for i in range(3))
ONE = CliffordElement.scalar(3, 1.0)
PSEUDOSCALAR = X * E1 * E2


def axis_point(inv):
    """m = (x, z), the top of the axis semicircle, or (1, the finite
    fixed point) on a vertical axis, and t, the unit axis direction at m
    from the repelling toward the attracting fixed point."""
    att, rep = inv.attracting, inv.repelling
    if is_infinite(att):
        return 1.0, rep, X
    if is_infinite(rep):
        return 1.0, att, X * -1.0
    u = (att - rep) / abs(att - rep)
    return 0.5 * abs(att - rep), 0.5 * (att + rep), E1 * u.real + E2 * u.imag


def spin_lift(gamma, x, z):
    """The spin lift of d(gamma) at m = (x, z): with w = cz + d and
    N = |w|^2 + |c|^2 x^2,
    (Re w + Im w e1e2 - x Re c Xe1 - x Im c e2X) / sqrt(N)."""
    c = gamma.c
    w = c * z + gamma.d
    norm = abs(w) ** 2 + abs(c) ** 2 * x * x
    return (ONE * w.real + (E1 * E2) * w.imag - (X * E1) * (x * c.real)
            - (E2 * X) * (x * c.imag)) * (1.0 / math.sqrt(norm))


def holonomy_error(gamma, spin_phase: complex) -> float:
    """|u(m, gamma.m) L - (Re s - Im s t X e1 e2)| at the axis point m."""
    x, z, t = axis_point(geodesic_invariants(gamma))
    m = HalfSpacePoint(x, (z.real, z.imag))
    h = spinor_transport(TransportPair(m, apply_h3(gamma, m))) * spin_lift(
        gamma, x, z)
    expect = ONE * spin_phase.real - (t * PSEUDOSCALAR) * spin_phase.imag
    return (h - expect).norm()


@pytest.mark.parametrize("group", ["eta_thick", "g2_complex_a"])
def test_spin_phase_is_the_holonomy_of_every_class(group, eta_thick_config):
    generators = (eta_thick_config.generators if group == "eta_thick"
                  else sample_group(group).generators)
    L = 6
    (spectrum,) = class_spectra([generators], L)
    words = [w for k in range(1, L + 1) for w in decode_words(
        spectrum.codes[spectrum.word_length == k], k, len(generators))]
    assert len(words) == 234
    worst, vertical = 0.0, 0
    for word, phase in zip(words, spectrum.spin_phase.tolist()):
        gamma = evaluate_word(generators, word)
        inv = geodesic_invariants(gamma)
        vertical += is_infinite(inv.attracting) or is_infinite(inv.repelling)
        worst = max(worst, holonomy_error(gamma, phase))
    assert vertical > 0  # the generator with fixed points 0 and inf, its powers
    assert worst <= HOLONOMY_TOL, f"{group}: {worst:.3e}"


def test_spin_phase_is_the_holonomy_of_random_elements():
    rng = random.Random(32)
    worst, tested = 0.0, 0
    while tested < 200:
        gamma = random_sl2(rng)
        if classify(gamma) != "loxodromic":
            continue
        # both lifts of the map: the phase and the holonomy flip together
        for lift in (gamma, -gamma):
            phase = geodesic_invariants(lift).spin_phase
            worst = max(worst, holonomy_error(lift, phase))
        tested += 1
    assert worst <= HOLONOMY_TOL, f"{worst:.3e}"
