"""The benchmark's traced path against the library's return types.

``perfbench/child.py`` runs one CLI operation in a fresh interpreter,
with (``trace``) or without (``run``) its per-layer call tracer.  Both
must succeed with byte-identical outputs, and the tracer's counters must
read the class spectrum, the term set and the F product correctly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from oddzeta.sample_groups import sample_group
from oddzeta.words import class_spectra

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"

CONFIGS = {
    "eta": """\
[group]
preset = g2_complex_a

[run]
word_cutoff = 4
delta_cutoff = 6
inner_cutoff = 10

[grids]
lambda = 0+0i
""",
    "spectrum": """\
[group]
preset = g2_complex_a

[run]
word_cutoff = 5
""",
}


def run_child(tmp_path, mode, subcommand):
    config = tmp_path / f"{subcommand}.cfg"
    config.write_text(CONFIGS[subcommand])
    out = tmp_path / mode / "out"
    result = tmp_path / mode / "result.json"
    result.parent.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(result), mode, subcommand,
         "--config", str(config), "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    doc = json.loads(result.read_text())
    assert proc.returncode == doc["rc"] == 0, proc.stderr
    return doc, {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.mark.parametrize("subcommand", ["eta", "spectrum"])
def test_traced_run_matches_plain_run(tmp_path, subcommand):
    plain, plain_files = run_child(tmp_path, "run", subcommand)
    traced, traced_files = run_child(tmp_path, "trace", subcommand)
    assert "trace" not in plain
    assert plain_files and traced_files == plain_files
    layers = traced["trace"]["layers"]
    # the products run inside the class_spectra span, the walk behind
    # every class spectrum, so its time is the spectrum's, not only a
    # call's set-up
    assert layers["words.class_spectra"]["total_s"] > 0
    products = [edge for edge in traced["trace"]["edges"]
                if edge[1] == "words.word_products"]
    assert products and all(edge[0] == "words.class_spectra"
                            for edge in products)
    if subcommand == "eta":
        # the terms are read off one spectrum, at max(word_cutoff,
        # delta_cutoff) = 6, up to word_cutoff = 4, and F takes their
        # primitive classes
        (spectrum,) = class_spectra(
            [sample_group("g2_complex_a").generators], 6)
        assert layers["zeta.terms_from_group"]["terms"] == int(
            (spectrum.word_length <= 4).sum())
        primitives = int(((spectrum.j == 1) & (spectrum.word_length <= 4)).sum())
        assert layers["zograf.zograf_F"]["factors"] == primitives * (10 + 1)
