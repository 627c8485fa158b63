import random

import pytest

from oddzeta.sample_groups import all_complex_groups, sample_group
from oddzeta.words import class_spectrum, estimate_delta
from oddzeta.zeta import terms_from_group


@pytest.fixture(scope="session")
def complex_groups():
    """(point, delta estimate, signature terms at L=6) per sample group."""
    out = {}
    for name, point in all_complex_groups().items():
        est = estimate_delta(class_spectrum(point.generators, 8), 8)
        terms = terms_from_group(point.generators, 6)
        out[name] = (point, est, terms)
    return out


@pytest.fixture(scope="session")
def real_group():
    point = sample_group("real_pair")
    est = estimate_delta(class_spectrum(point.generators, 8), 8)
    terms = terms_from_group(point.generators, 6)
    return point, est, terms


@pytest.fixture
def rng():
    return random.Random(20250808)
