"""Hand-built class terms for identity tests that need no actual group."""

import cmath
import math
from dataclasses import replace

import numpy as np

from oddzeta.errors import NonPrimitiveInput
from oddzeta.moebius import GeodesicInvariants
from oddzeta.words import Spectrum
from oddzeta.zeta import (
    ZetaEvaluation,
    _value_scale_tail,
    shell_tail_bound,
    terms_from_spectrum,
)


def invariants_from_q(q: complex) -> GeodesicInvariants:
    mu = q ** -0.5
    theta = -cmath.phase(q)
    if theta <= -math.pi:
        theta = math.pi
    return GeodesicInvariants(
        length=-math.log(abs(q)), theta=theta, q=q, mu=mu,
        attracting=0.0, repelling=complex(math.inf, 0.0),
        spin_phase=mu / abs(mu),
    )


def class_terms(rows, variant: str = "signature", spin_sign: str = "plus"):
    """Terms of hand-built classes, one per (GeodesicInvariants, j) row,
    with no words or rank (so no shell tail model)."""
    rows = list(rows)
    spectrum = Spectrum(
        rank=None, codes=None, word_length=None,
        j=np.array([j for _, j in rows], dtype=np.int64),
        ell=np.array([inv.length for inv, _ in rows], dtype=float),
        theta=np.array([inv.theta for inv, _ in rows], dtype=float),
        q=np.array([inv.q for inv, _ in rows], dtype=complex),
        spin_phase=np.array([inv.spin_phase for inv, _ in rows],
                            dtype=complex),
    )
    return terms_from_spectrum(spectrum, variant, spin_sign)


def primitive_term(q: complex, variant: str = "signature", spin_sign: str = "plus"):
    """Terms of the single primitive class with multiplier q."""
    return class_terms([(invariants_from_q(q), 1)], variant, spin_sign)


def _power_rows(base, max_power: int):
    """(invariants, p) of gamma^p, p = 1..P, for each class of ``base``."""
    rows = []
    for q, ell, phase in zip(base.q.tolist(), base.ell.tolist(),
                             base.spin_phase.tolist()):
        for p in range(1, max_power + 1):
            q_p = q ** p
            theta_p = -cmath.phase(q_p)
            if theta_p <= -math.pi:
                theta_p = math.pi
            rows.append((GeodesicInvariants(
                length=p * ell, theta=theta_p, q=q_p,
                mu=(q ** -0.5) ** p, attracting=0.0,
                repelling=complex(math.inf, 0.0), spin_phase=phase ** p,
            ), p))
    return rows


def power_class_terms(base, max_power: int, spin_sign: str = "plus"):
    """Terms for gamma, gamma^2, ..., gamma^P of primitive classes.

    Used to close a toy list under powers so that sum-form and
    product-form evaluations see the same data.
    """
    if (base.j != 1).any():
        raise NonPrimitiveInput("power closure starts from a primitive class")
    return class_terms(_power_rows(base, max_power), base.variant, spin_sign)


def toy_list(qs, max_power: int = 60, variant: str = "signature",
             spin_sign: str = "plus"):
    """Each q spawns its class and all powers up to max_power."""
    base = class_terms([(invariants_from_q(q), 1) for q in qs])
    return class_terms(_power_rows(base, max_power), variant, spin_sign)


def conjugated_terms(terms):
    """Terms of the complex-conjugated group: q -> conj(q) termwise."""
    return replace(
        terms,
        theta=np.where(terms.theta != math.pi, -terms.theta, math.pi),
        q=terms.q.conj(),
        chi=terms.chi.conj(),
        spin_phase=terms.spin_phase.conj(),
    )


def zeta_odd_signature_product(terms, lam: complex,
                               inner_cutoff: int) -> ZetaEvaluation:
    """Oracle for Z_odd of the signature variant: the double product over
    primitive classes

    prod over (k, l) in [0, K]^2 of
        (1 - e^(i theta) q^k conj(q)^l |q|^(lambda+1))
      / (1 - e^(-i theta) q^k conj(q)^l |q|^(lambda+1)),

    with the (k, l) outside the box and the shell model's classes beyond
    the cutoff as its tail bound.  It telescopes to the sum form over the
    powers of the same classes, so it checks the sums' bookkeeping, not
    their truncation.
    """
    lam = complex(lam)
    if (terms.j != 1).any():
        raise NonPrimitiveInput("the product form needs primitive classes")
    if terms.variant != "signature":
        raise ValueError("product form applies to the signature variant")
    log_total = 0.0 + 0.0j
    inner_tail = 0.0
    for q, theta in zip(terms.q.tolist(), terms.theta.tolist()):
        aq = abs(q)
        scale = cmath.exp((lam + 1.0) * math.log(aq))
        phase = cmath.exp(1j * theta)
        parts = []
        for k in range(inner_cutoff + 1):
            qk = q ** k
            for l in range(inner_cutoff + 1):
                w = qk * q.conjugate() ** l * scale
                parts.append(cmath.log(1.0 - phase * w)
                             - cmath.log(1.0 - w / phase))
        log_total += math.fsum(p.real for p in parts) + 1j * math.fsum(
            p.imag for p in parts
        )
        # (k, l) outside the box, both product factors
        inner_tail += 4.0 * aq ** (inner_cutoff + 2 + lam.real) / (1.0 - aq) ** 3
    value = cmath.exp(log_total)
    outer = shell_tail_bound(terms, lam.real)
    tail = _value_scale_tail(value, inner_tail + outer)
    return ZetaEvaluation(value, tail, terms.cutoff, "signature", lam)
