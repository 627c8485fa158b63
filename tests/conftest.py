import random
from pathlib import Path

import pytest

from oddzeta.config import load_config
from oddzeta.sample_groups import COMPLEX_POINTS, sample_group
from oddzeta.zeta import terms_from_group


@pytest.fixture(scope="session")
def complex_groups():
    """(point, delta estimate, signature terms at L=6) per sample group;
    the terms carry the estimate, of order 8."""
    out = {}
    for name in COMPLEX_POINTS:
        point = sample_group(name)
        terms = terms_from_group(point.generators, 6, 8)
        out[name] = (point, terms.estimate, terms)
    return out


@pytest.fixture(scope="session")
def real_group():
    point = sample_group("real_pair")
    terms = terms_from_group(point.generators, 6, 8)
    return point, terms.estimate, terms


@pytest.fixture(scope="session")
def eta_thick_config():
    """The benchmark's seed-0 thick chart point (delta_hat about -0.473),
    L = delta_cutoff = 9, inner_cutoff = 40."""
    root = Path(__file__).resolve().parents[1]
    return load_config(str(root / "perfbench" / "configs" / "eta_thick.cfg"))


@pytest.fixture(scope="session")
def kernels_config():
    """The benchmark's seed-0 kernels grid: 12 lambda by 32 r values,
    r on both sides of the 0.45 series/jets switch."""
    root = Path(__file__).resolve().parents[1]
    return load_config(str(root / "perfbench" / "configs" / "kernels.cfg"))


@pytest.fixture
def rng():
    return random.Random(20250808)
