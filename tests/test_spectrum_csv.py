"""spectrum.csv from numpy byte matrices: the float cells against
``repr``, and the whole file against the per-row f-string writer the
matrices replaced."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import (COMPLEX_A, CYCLIC, PERFBENCH_CONFIGS, ROOT,
                      group_lines, write)
from test_words import ring_group

import oddzeta.cli as cli
import oddzeta.floatrepr as floatrepr
from oddzeta.config import load_config
from oddzeta.words import class_spectra, word_strings


def cell_strings(values):
    """The text of each ``float_cells`` row, its NULs dropped."""
    cells = floatrepr.float_cells(np.asarray(values, np.float64))
    assert cells.dtype == np.uint8 and cells.shape == (len(values),
                                                       floatrepr.CELL_WIDTH)
    return [row.tobytes().replace(b"\0", b"").decode() for row in cells]


def reprs(values):
    return [repr(v) for v in np.asarray(values, np.float64).tolist()]


#: Values where the layout or Ryu's path changes: the smallest subnormal,
#: DBL_MIN and DBL_MAX, the ends of the exact integers, the switches to
#: exponent notation at 1e-4 and 1e16, 1e23 (the smallest power of ten
#: no double equals), and 0.1 and 1/3, whose reprs take 1 and 16 of the
#: 17 digits that name any double
EDGES = [5e-324, sys.float_info.min, sys.float_info.max, 2.0 ** 53,
         2.0 ** 54, 1e16, 9999999999999998.0, 1e-4, 1e-5, 1e23, 0.1, 1 / 3]


class TestFloatCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_subnormal=True), min_size=1,
                    max_size=40))
    def test_equal_repr_on_hypothesis_floats(self, values):
        # subnormals, +-0, inf and nan among them, mixed in one block
        assert cell_strings(values) == reprs(values)

    def test_equal_repr_on_the_edges(self):
        edges = np.array(EDGES)
        # each edge, its neighbours one ulp away (DBL_MAX's above is inf),
        # and their negations
        with np.errstate(over="ignore"):
            values = np.concatenate([edges, np.nextafter(edges, 0),
                                     np.nextafter(edges, np.inf)])
        values = np.concatenate([values, -values,
                                 [0.0, -0.0, np.inf, -np.inf, np.nan]])
        assert cell_strings(values) == reprs(values)

    def test_equal_repr_on_random_bit_patterns(self):
        bits = np.random.default_rng(36).integers(
            0, 2 ** 64, 200_000, np.uint64, endpoint=False)
        values = bits.view(np.float64)
        assert cell_strings(values) == reprs(values)
        # the common path settles all but about 1 in 24 of them: the
        # exponents of e2 >= 0 with q <= 21 (2^54 <= |v| < about 1e23), 77
        # of the 2048, inf and nan, and a few values whose interval may
        # end on an exact decimal
        settled = floatrepr.shortest_decimal(values)[2]
        assert int((~settled).sum()) == 8269

    def test_bench_spectrum_needs_no_fallback(self):
        config = load_config(str(PERFBENCH_CONFIGS / "spectrum.cfg"))
        (spectrum,) = class_spectra([cli._group_generators(config)],
                                    config.word_cutoff, config.eps_class)
        fallbacks = {
            name: int((~floatrepr.shortest_decimal(values)[2]).sum())
            for name, values in (("ell", spectrum.ell),
                                 ("theta", spectrum.theta),
                                 ("q_re", spectrum.q.real),
                                 ("q_im", spectrum.q.imag))}
        assert fallbacks == dict.fromkeys(fallbacks, 0)

    def test_loaded_and_built_on_first_use(self):
        # the CLI does not import the module, nor the module build its
        # tables, before a spectrum is written
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys, oddzeta.cli; "
             "print('oddzeta.floatrepr' in sys.modules); "
             "import oddzeta.floatrepr as f; "
             "print(f._tables.cache_info().currsize)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "0"]


def reference_spectrum_csv(config) -> bytes:
    """spectrum.csv as ``oddzeta spectrum`` wrote it row by row, through
    f-strings and the repr of each float, from the same class spectrum:
    the writer the byte matrices replaced, kept as their reference."""
    gens = cli._group_generators(config)
    (spectrum,) = class_spectra([gens], config.word_cutoff, config.eps_class)
    lines = cli._metadata_lines(config, cutoff_L=config.word_cutoff)
    lines.append("word,length,j,primitive,ell,theta,q_re,q_im")
    lines.extend(
        f"{word},{k},{j},{int(j == 1)},{ell!r},{theta!r},{q_re!r},{q_im!r}"
        for word, k, j, ell, theta, q_re, q_im in zip(
            word_strings(spectrum.codes, spectrum.word_length, len(gens)),
            spectrum.word_length.tolist(), spectrum.j.tolist(),
            spectrum.ell.tolist(), spectrum.theta.tolist(),
            spectrum.q.real.tolist(), spectrum.q.imag.tolist()))
    return ("\n".join(lines) + "\n").encode()


class TestSpectrumFile:
    @pytest.mark.parametrize("group", [
        "bench",  # g2_complex_a at L = 11, 25 626 classes
        "real_pair",  # L = 6, every theta -0.0
        "cyclic",  # rank 1
        "ring",  # rank 5
    ])
    def test_equal_the_reference_writer(self, tmp_path, group):
        if group == "bench":
            cfg = str(PERFBENCH_CONFIGS / "spectrum.cfg")
        elif group == "real_pair":
            cfg = write(tmp_path, "r.cfg", COMPLEX_A.replace(
                "g2_complex_a", "real_pair").replace("word_cutoff = 4",
                                                     "word_cutoff = 6"))
        elif group == "cyclic":
            cfg = write(tmp_path, "c.cfg", CYCLIC)
        else:
            cfg = write(tmp_path, "g.cfg", "\n".join(
                group_lines(ring_group()) + ["", "[run]",
                                             "word_cutoff = 4", ""]))
        config = load_config(cfg)
        if group == "real_pair":
            (spectrum,) = class_spectra([cli._group_generators(config)],
                                        config.word_cutoff)
            assert all(theta == 0 and math.copysign(1, theta) < 0
                       for theta in spectrum.theta.tolist())
        assert cli.main(["spectrum", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "spectrum.csv").read_bytes()
                == reference_spectrum_csv(config))
