import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from test_words import ring_group, scalar_class_spectrum

import oddzeta
import oddzeta.cli as cli
import oddzeta.errors as errors
import oddzeta.special as special
import oddzeta.zeta as zeta
import oddzeta.zograf as zograf
from oddzeta.cli import main
from oddzeta.config import (
    _KEYS,
    RunConfig,
    _raw_sections,
    load_config,
    parse_complex,
    parse_config,
)
from oddzeta.kernels import (dirac_resolvent_scalar, gaussian_time_integral,
                             gaussian_time_integral_quadrature,
                             heat_signature_batch, heat_spinor_batch,
                             resolvent_scalar)
from oddzeta.kernels import _resolvent
from oddzeta.moebius import loxodromic
from oddzeta.sample_groups import sample_group
from oddzeta.words import class_spectra, estimate_deltas, word_to_str
from oddzeta.zograf import schottky_from_params

CYCLIC = """\
[group]
generator1 = 2+0i 0+0i 0+0i 0.5+0i

[run]
word_cutoff = 3
delta_cutoff = 6

[grids]
lambda = 0+0i 0.5+0i
"""

REAL_PAIR = """\
[group]
preset = real_pair

[run]
word_cutoff = 4
delta_cutoff = 6

[grids]
lambda = 0+0i 0.3+0i 1+0i
"""


COMPLEX_A = """\
[group]
preset = g2_complex_a

[run]
word_cutoff = 4
delta_cutoff = 6

[grids]
lambda = 0+0i
"""


ELLIPTIC_AB = """\
[group]
generator1 = 2+0i 0+0i 0+0i 0.5+0i
generator2 = -1+0i 1+0i -7+0i 6+0i

[run]
word_cutoff = 3
"""

# products of length 6 have entries of 1e180, whose square overflows
OVERFLOWING = """\
[group]
generator1 = 1e30+0i 0+0i 0+0i 1e-30+0i
generator2 = 2+0i 1+0i 1+0i 1+0i

[run]
word_cutoff = 12
"""

# a rank-1 group whose trace at word length 36 is 1.8e154, so (a + d) ** 2
# overflows; before the walk deferred to the scalar code, its two rows of
# length 36 came out with ell = inf and theta, q = nan, and exit 0
TRACE_OVERFLOW = """\
[group]
generator1 = 9641.700978869623+0i 9641.700927011552+0i 9641.700927011552+0i 9641.700978869623+0i

[run]
word_cutoff = 36
"""

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH_CONFIGS = ROOT / "perfbench" / "configs"

#: The exit code of every library error class
EXIT_CODES = {
    "ConfigError": 2,
    **dict.fromkeys([
        "AtDiagonal", "CutoffTooLarge", "DegenerateConfiguration",
        "DeltaNotNegative", "IndexOutOfRange", "LeftSchottkyDomain",
        "NonPrimitiveInput", "NotLoxodromic"], 3),
    **dict.fromkeys([
        "ConvergenceViolation", "DivergentIntegral", "NoConvergence",
        "NonConvergent", "PoleAt", "PoleAtC", "PoleOfGamma"], 4),
}

#: Half the tracemalloc peak (9 248 660 bytes) of ``cmd_spectrum`` on
#: g2_complex_a at L = 11 when it held every CSV line and their join
SPECTRUM_PEAK_BOUND = 4_624_330


def format_complex(z: complex) -> str:
    """The config syntax of a complex number, every bit kept."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


def group_lines(generators):
    """The [group] section of a config given by its generator matrices."""
    return ["[group]"] + [
        f"generator{i} = " + " ".join(format_complex(z)
                                      for z in (m.a, m.b, m.c, m.d))
        for i, m in enumerate(generators, start=1)]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_note_config(tmp_path):
    """The bench kernels.cfg with r = 1e-9 prepended, lambda = -0.5 and
    0.2+0.5i added and d = 3: gamma poles, odd-d near-diagonal refusals
    and divergent Gaussians, so every note a config can give."""
    lines = []
    for line in (PERFBENCH_CONFIGS / "kernels.cfg").read_text().splitlines():
        if line.startswith("r = "):
            line = "r = 1e-9 " + line[len("r = "):]
        elif line.startswith("lambda = "):
            grid = line.split()[2:] + ["-0.5+0i", "0.2+0.5i"]
            grid.sort(key=lambda z: (parse_complex(z).real,
                                     parse_complex(z).imag))
            line = "lambda = " + " ".join(grid)
        lines.append(line)
        if line == "[kernels]":
            lines.append("d = 3")
    return write(tmp_path, "notes.cfg", "\n".join(lines) + "\n")


class TestExitCodes:
    def test_every_error_class_pinned(self):
        bases = (errors.OddZetaError, errors.PreconditionError,
                 errors.NumericalError)
        classes = [name for name, obj in vars(errors).items()
                   if isinstance(obj, type)
                   and issubclass(obj, errors.OddZetaError)
                   and obj not in bases]
        assert sorted(classes) == sorted(EXIT_CODES)
        assert sorted(EXIT_CODES.values()) == [2] + [3] * 8 + [4] * 7

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_exit_code_from_the_base(self, tmp_path, monkeypatch, capsys,
                                     name):
        cls = getattr(errors, name)
        bases = [base for base in (errors.ConfigError,
                                   errors.PreconditionError,
                                   errors.NumericalError)
                 if issubclass(cls, base)]
        assert len(bases) == 1

        def refuse(config, out_dir):
            raise cls("refused here")

        monkeypatch.setitem(cli._COMMANDS, "spectrum", refuse)
        cfg = write(tmp_path, "c.cfg", CYCLIC)
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path)]) == EXIT_CODES[name]
        assert "refused here" in capsys.readouterr().err


class TestComplexSyntax:
    def test_roundtrip(self):
        for z in (1.5 - 2.25j, 0.0 + 0.0j, -3e-5 + 7e2j):
            assert parse_complex(format_complex(z)) == z

    def test_plain_real_accepted(self):
        assert parse_complex("2.5") == 2.5 + 0.0j

    def test_spaces_rejected(self):
        with pytest.raises(ValueError):
            parse_complex("1 + 2i")


class TestSpectrum:
    def test_cyclic_rows(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CYCLIC)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "spectrum.csv").read_text().splitlines()
        rows = [l for l in body if not l.startswith("#")][1:]
        assert len(rows) == 6  # a^{+-1}, a^{+-2}, a^{+-3}

    def test_rank2_rows(self, tmp_path):
        cfg = write(tmp_path, "r.cfg", REAL_PAIR.replace("word_cutoff = 4",
                                                         "word_cutoff = 2"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "spectrum.csv").read_text().splitlines()
        rows = [l for l in body if not l.startswith("#")][1:]
        assert len(rows) == 12
        assert body[0].startswith("# config_sha256=")

    @pytest.mark.parametrize("preset, L", [("g2_complex_a", 8),
                                           ("real_pair", 6)])
    def test_rows_match_scalar_reference(self, tmp_path, preset, L):
        cfg = write(tmp_path, "s.cfg", COMPLEX_A.replace(
            "g2_complex_a", preset).replace("word_cutoff = 4",
                                            f"word_cutoff = {L}"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        body = (tmp_path / "spectrum.csv").read_text().splitlines()
        rows = [l for l in body if not l.startswith("#")][1:]
        gens = sample_group(preset).generators
        assert rows == [
            f"{word_to_str(w)},{len(w)},{j},{int(j == 1)},{inv.length!r},"
            f"{inv.theta!r},{inv.q.real!r},{inv.q.imag!r}"
            for w, j, inv in scalar_class_spectrum(gens, L)]

    def test_overflowing_products_refused_with_exit_4(self, tmp_path,
                                                      capsys):
        cfg = write(tmp_path, "o.cfg", OVERFLOWING)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: OverflowError: ")
        assert not (out / "spectrum.csv").exists()

    def test_overflowing_trace_refused_with_exit_4(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.cfg", TRACE_OVERFLOW)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err == "error: OverflowError: complex exponentiation\n"
        assert not (out / "spectrum.csv").exists()

    def test_memory_peak_below_half_of_joined_rows(self, tmp_path):
        config = load_config(str(PERFBENCH_CONFIGS / "spectrum.cfg"))
        assert config.word_cutoff == 11
        tracemalloc.start()
        try:
            cli.cmd_spectrum(config, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= SPECTRUM_PEAK_BOUND

    def test_non_loxodromic_family_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "e.cfg", ELLIPTIC_AB)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "word BA is elliptic" in capsys.readouterr().err
        assert not (tmp_path / "spectrum.csv").exists()

    def test_malformed_entry_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", CYCLIC.replace("0.5+0i", "zz"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "generator1" in err and "entry 4" in err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "u.cfg", CYCLIC + "\n[run]\nwrd_cutoff = 3\n")
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_threads_key_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.cfg", CYCLIC.replace(
            "word_cutoff = 3", "word_cutoff = 3\nthreads = 1"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'threads'" in capsys.readouterr().err

    def test_threads_flag_rejected(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.cfg", CYCLIC)
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", cfg, "--out", str(tmp_path),
                  "--threads", "4"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


#: (section, key line, commands) of values outside the config bounds;
#: before the bounds they ended in exit 1, 0 (h = inf: NaN rows; eps_class
#: = nan: a spectrum), 3, 4 or a silent default
OUT_OF_BOUNDS = [
    ("kernels", "n = 0", ("kernels",)),
    ("scan", "h = -0.01", ("scan",)),
    ("kernels", "d = -3", ("kernels",)),
    ("scan", "scan_cutoff = 0", ("scan",)),
    ("run", "delta_cutoff = 3", ("zeta", "eta")),
    ("run", "delta_cutoff = 0", ("scan",)),
    ("scan", "h = inf", ("scan",)),
    ("grids", "r = nan", ("kernels",)),
    ("tolerances", "eps_class = nan", ("spectrum",)),
]


#: (config text, what the refusal names) of malformed configs
MALFORMED = {
    "unknown_section": (COMPLEX_A + "\n[bogus]\nx = 1\n",
                        "line 11: unknown section [bogus]"),
    "key_outside_section": ("word_cutoff = 4\n" + COMPLEX_A,
                            "line 1: key outside any section"),
    "line_without_equals": (COMPLEX_A + "delta_cutoff 8\n",
                            "line 10: expected 'key = value'"),
    "duplicate_key": (COMPLEX_A.replace("delta_cutoff = 6",
                                        "delta_cutoff = 6\nword_cutoff = 5"),
                      "line 7: duplicate key 'word_cutoff' in [run]"),
    "preset_and_generators": (COMPLEX_A.replace(
        "preset = g2_complex_a",
        "preset = g2_complex_a\ngenerator1 = 2+0i 0+0i 0+0i 0.5+0i"),
        "[group] give either preset or generator matrices"),
    "unknown_preset": (COMPLEX_A.replace("g2_complex_a", "no_such_group"),
                       "[group] unknown preset 'no_such_group'"),
    "generator2_alone": (COMPLEX_A.replace(
        "preset = g2_complex_a", "generator2 = 2+0i 0+0i 0+0i 0.5+0i"),
        "[group] generators must be numbered consecutively, "
        "got ['generator2']"),
    "three_entries": (COMPLEX_A.replace(
        "preset = g2_complex_a", "generator1 = 2+0i 0+0i 0.5+0i"),
        "[group] generator1: expected 4 complex entries, got 3"),
}


class TestMalformedConfig:
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_exits_2_naming_the_line_or_key(self, tmp_path, capsys, name):
        text, named = MALFORMED[name]
        cfg = write(tmp_path, "m.cfg", text)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()


class TestReadmeConfig:
    def test_example_parses_to_the_defaults_and_names_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        text = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        got = parse_config(text)
        assert got.lambda_grid == (0j, 0.5 + 0j, 1 + 0j)
        # every other value the example sets is the default
        assert got == RunConfig(generators=None, preset="g2_complex_a",
                                lambda_grid=got.lambda_grid, sha256=got.sha256)
        named = {(section, key) for section, keys in
                 _raw_sections(text).items() for key in keys}
        assert named == set(_KEYS) | {("group", "preset")}


class TestConfigBounds:
    @pytest.mark.parametrize(
        "section, line, commands", OUT_OF_BOUNDS,
        ids=[f"{s}.{line.replace(' ', '')}" for s, line, _ in OUT_OF_BOUNDS])
    def test_out_of_bounds_exits_2(self, tmp_path, capsys, section, line,
                                   commands):
        if section == "run":
            text = COMPLEX_A.replace("delta_cutoff = 6", line)
        else:
            text = COMPLEX_A + f"\n[{section}]\n{line}\n"
        cfg = write(tmp_path, "b.cfg", text)
        key = line.split(" = ")[0]
        for command in commands:
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
            assert f"[{section}] {key}" in capsys.readouterr().err
            assert not out.exists()


#: (command, config text, the entry named) of literals that overflow to
#: inf; before the finiteness check the first two exited 0 with NaN in
#: their output and the third failed inside hyp2f1
NON_FINITE = [
    ("spectrum", CYCLIC.replace(
        "generator1 = 2+0i 0+0i 0+0i 0.5+0i",
        "generator1 = 1e400+0i 1e400+0i 1+0i 1+0i\n"
        "generator2 = 2+0i 0+0i 0+0i 0.5+0i"), "[group] generator1 entry 1"),
    ("zeta", COMPLEX_A.replace("lambda = 0+0i", "lambda = 1+0i 1+1e400i"),
     "[grids] lambda entry 2"),
    ("kernels", COMPLEX_A.replace("lambda = 0+0i", "lambda = 1e400+0i"),
     "[grids] lambda entry 1"),
]


class TestNonFiniteInput:
    @pytest.mark.parametrize("command, text, where", NON_FINITE,
                             ids=[c for c, _, _ in NON_FINITE])
    def test_exits_2_naming_the_entry(self, tmp_path, capsys, command, text,
                                      where):
        cfg = write(tmp_path, "n.cfg", text)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert where in err and "not finite" in err
        assert not out.exists()


class TestHugeEntries:
    def test_exits_2_naming_the_generator(self, tmp_path, capsys):
        # a valid SL(2, C) matrix whose squared entry scale overflows; it
        # used to exit 4 with an OverflowError from inside load_config
        text = CYCLIC.replace("generator1 = 2+0i 0+0i 0+0i 0.5+0i",
                              "generator1 = 1e200+0i 0+0i 0+0i 1e-200+0i")
        cfg = write(tmp_path, "h.cfg", text)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: [group] generator1: entries too large\n")
        assert not out.exists()


class TestZetaCommand:
    def test_real_group_values_are_one(self, tmp_path):
        cfg = write(tmp_path, "r.cfg", REAL_PAIR)
        assert main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "zeta.json").read_text())
        assert len(doc["evaluations"]) == 3
        for ev in doc["evaluations"]:
            assert ev["value"] == [1.0, 0.0]

    def test_empty_grid(self, tmp_path):
        cfg = write(tmp_path, "e.cfg", REAL_PAIR.replace(
            "lambda = 0+0i 0.3+0i 1+0i", "lambda ="))
        assert main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "zeta.json").read_text())
        assert doc["evaluations"] == []

    def test_grid_crossing_delta_is_flagged(self, tmp_path):
        cfg = write(tmp_path, "x.cfg", REAL_PAIR.replace(
            "lambda = 0+0i 0.3+0i 1+0i", "lambda = -2+0i 0+0i 1+0i"))
        assert main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "zeta.json").read_text())
        flags = [ev.get("nonconvergent", False) for ev in doc["evaluations"]]
        assert flags == [True, False, False]

    def test_near_abscissa_tail_overflow_reports_infinite_bound(self, tmp_path):
        # at the thick chart point the log tail bound at lambda = -0.4 is
        # finite but beyond expm1's range
        gens = schottky_from_params(0.06 + 0.05j, 0.07 - 0.03j,
                                    -0.9 + 0.6j).generators
        lines = group_lines(gens)
        lines += ["", "[run]", "word_cutoff = 9", "delta_cutoff = 9",
                  "", "[grids]", "lambda = -0.4+0i"]
        cfg = write(tmp_path, "thick.cfg", "\n".join(lines) + "\n")
        assert main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "zeta.json").read_text()
        # no finite bound is known, and strict JSON writes that as null
        assert '"tail_bound": null' in text
        (ev,) = json.loads(text)["evaluations"]
        assert ev["tail_bound"] is None
        assert all(math.isfinite(v) for v in ev["value"])


class TestRunTerms:
    def test_terms_selected_from_the_delta_spectrum(self):
        # delta_cutoff = 6 > L = 4: one spectrum, at length 6
        gens = sample_group("g2_complex_a").generators
        terms = zeta.terms_from_group(gens, 4, 6)
        want = zeta.terms_from_spectrum(class_spectra([gens], 4)[0])
        assert len(terms) == len(want) and terms.rank == want.rank
        assert terms.variant == want.variant
        for field in fields(want):
            x, y = getattr(terms, field.name), getattr(want, field.name)
            if not np.ndim(y):
                continue
            if x.dtype == complex:
                x, y = x.view(np.float64), y.view(np.float64)
            assert x.dtype == y.dtype, field.name
            assert np.array_equal(x.view(np.int64), y.view(np.int64)), (
                field.name)
        (spectrum,) = class_spectra([gens], 6)
        assert [terms.estimate] == estimate_deltas([spectrum], 6)

    @pytest.mark.parametrize("command", ["zeta", "eta"])
    def test_non_loxodromic_below_delta_cutoff_exits_3(self, tmp_path, capsys,
                                                       command):
        # BA, of length 2, is elliptic: past word_cutoff, but the
        # estimate's spectrum reaches it
        text = ELLIPTIC_AB.replace("word_cutoff = 3",
                                   "word_cutoff = 1\ndelta_cutoff = 4")
        cfg = write(tmp_path, "e.cfg", text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "word BA is elliptic" in capsys.readouterr().err
        assert not out.exists()


class TestEtaCommand:
    def test_real_group_zero(self, tmp_path):
        cfg = write(tmp_path, "r.cfg", REAL_PAIR)
        assert main(["eta", "--config", cfg, "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "eta.json").read_text())
        for value in doc["eta_by_route"].values():
            assert abs(value) < 1e-12
        assert abs(doc["residual_F_identity"]) < 1e-12

    def test_positive_delta_refused_with_exit_3(self, tmp_path, capsys):
        lines = group_lines(ring_group())
        lines += ["", "[run]", "word_cutoff = 2", "delta_cutoff = 4"]
        cfg = write(tmp_path, "ring.cfg", "\n".join(lines) + "\n")
        assert main(["eta", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "DeltaNotNegative" in capsys.readouterr().err

    @pytest.mark.parametrize("run_keys", [pytest.param("", id="default"),
                                          "variant = spinor",
                                          "spin_sign = minus"])
    def test_group_data_built_once(self, tmp_path, monkeypatch, run_keys):
        # the identity terms of a spinor or "minus" run come from the
        # run's own spectrum, not from a second class-spectrum build
        calls = {"zeta.estimate_deltas": 0, "zeta.class_spectra": 0,
                 "cli.class_spectra": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((zeta, "estimate_deltas"),
                             (cli, "class_spectra"),
                             (zeta, "class_spectra")):
            key = f"{module.__name__.split('.')[-1]}.{name}"
            monkeypatch.setattr(module, name,
                                counted(key, getattr(module, name)))
        cfg = write(tmp_path, "a.cfg",
                    COMPLEX_A.replace("[grids]", run_keys + "\n\n[grids]"))
        assert main(["eta", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == {"zeta.estimate_deltas": 1, "zeta.class_spectra": 1,
                         "cli.class_spectra": 0}

    @pytest.mark.parametrize("run_keys", ["variant = spinor",
                                          "spin_sign = minus"])
    def test_identity_uses_signature_plus_terms(self, tmp_path, run_keys):
        docs = {}
        for name, extra in (("default", ""), ("other", run_keys)):
            cfg = write(tmp_path, f"{name}.cfg",
                        COMPLEX_A.replace("[grids]", extra + "\n\n[grids]"))
            out = tmp_path / name
            assert main(["eta", "--config", cfg, "--out", str(out)]) == 0
            docs[name] = json.loads((out / "eta.json").read_text())
        assert docs["default"]["residual_F_identity"] > 0.0
        for key in ("residual_F_identity", "identity_error_budget",
                    "central_cross_check"):
            assert docs["other"][key] == docs["default"][key]
        assert docs["other"]["eta_by_route"] != docs["default"]["eta_by_route"]


class TestKernelsCommand:
    def test_columns_and_identities(self, tmp_path):
        cfg = write(tmp_path, "k.cfg", REAL_PAIR + "\n[grids]\nt = 0.5 1\nr = 1 2\n")
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        heat = [r for r in rows if r["kind"].startswith("heat")]
        assert heat and all(float(r["plus_plus_minus"]) == 0.0 for r in heat)
        sig = [r for r in rows if r["kind"] == "heat_signature"]
        assert all(float(r["p_middle"]) == 0.0 for r in sig)
        gauss = [r for r in rows if r["kind"] == "gaussian" and r["gaussian_absdiff"]]
        assert gauss
        for r in gauss:
            assert float(r["gaussian_absdiff"]) < 1e-8
        # lambda = 0 resolvent rows carry the pole marker instead of values
        poles = [r for r in rows
                 if r["kind"] == "resolvent" and r["lam_re"] == "0.0"]
        assert all(r["note"] == "PoleOfGamma" for r in poles)

    def test_overflow_refused(self, tmp_path, capsys):
        # sinh r overflows at r = 800: a refusal, never a NaN row, also
        # when the point shares its array pass with finite ones, and never
        # a numpy warning on the way
        for name, grid in (("one", "t = 1\nr = 800\n"),
                           ("mixed", "t = 0.5 1\nr = 1 800\n")):
            cfg = write(tmp_path, f"{name}.cfg",
                        REAL_PAIR + "\n[grids]\n" + grid)
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["kernels", "--config", cfg,
                             "--out", str(out)]) == 4
            assert "OverflowError" in capsys.readouterr().err
            assert not (out / "kernels.csv").exists()

    def test_heat_rows_equal_one_point_functions(self, tmp_path):
        # the rows come from one array pass per kind; each cell must be
        # the repr of a 0-d call at its (t, r)
        cfg = str(PERFBENCH_CONFIGS / "kernels.cfg")
        config = load_config(cfg)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        heat = [r for r in rows if r["kind"].startswith("heat")]
        assert len(heat) == 2 * len(config.t_grid) * len(config.r_grid)
        for row in heat:
            t, r = float(row["t"]), float(row["r"])
            if row["kind"] == "heat_spinor":
                pp = heat_spinor_batch(t, r, config.kernel_n).item()
                mid = ""
            else:
                pp = heat_signature_batch(t, r, config.kernel_m).item()
                mid = repr(0.0)
            pm = -pp
            assert (row["p_plus_im"], row["p_minus_im"],
                    row["plus_plus_minus"], row["p_middle"]) == (
                repr(pp.imag), repr(pm.imag), repr(abs(pp + pm)), mid), row


    def test_resolvent_rows_equal_one_point_functions(self, tmp_path):
        # each kind's rows come from one call over every pair; each cell
        # must be the repr of a 0-d call at its (lambda, r), checked on
        # every 7th row, which meets both kinds and every r
        cfg = str(PERFBENCH_CONFIGS / "kernels.cfg")
        config = load_config(cfg)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        kernels = {"resolvent": resolvent_scalar,
                   "dirac_resolvent": dirac_resolvent_scalar}
        resolvent = [r for r in rows if r["kind"] in kernels]
        assert len(resolvent) == 2 * 12 * 32
        for row in resolvent[::7]:
            lam = complex(float(row["lam_re"]), float(row["lam_im"]))
            value = kernels[row["kind"]](lam, float(row["r"]),
                                         config.kernel_d).item()
            assert (row["value_re"], row["value_im"], row["note"]) == (
                repr(value.real), repr(value.imag), ""), row

    @pytest.mark.parametrize("notes", [False, True], ids=["bench", "notes"])
    def test_hyp2f1_branches_decided_once_per_kind(self, tmp_path, notes):
        # each resolvent kind decides every pair's refusal, hyp2f1's
        # branch included, in one pass and evaluates the rest from it:
        # one special._branches call per kind, however it is imported
        cfg = (write_note_config(tmp_path) if notes
               else str(PERFBENCH_CONFIGS / "kernels.cfg"))
        code, calls = special._branches.__code__, []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(event)

        sys.setprofile(profile)
        try:
            status = main(["kernels", "--config", cfg,
                           "--out", str(tmp_path)])
        finally:
            sys.setprofile(None)
        assert status == 0
        assert len(calls) == 2

    def test_note_config_gives_every_note(self, tmp_path):
        # at d = 3 the 5 r below 0.063 are refused by hyp2f1 for the 13
        # lambdas off the pole, lambda = -1/2 is a gamma pole at every r,
        # and lambda = 0.2+0.5i has Re(lambda^2) < 0
        cfg = write_note_config(tmp_path)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        notes = [l.split(",")[-1] for l in lines[1:]]
        assert {note: notes.count(note) for note in set(notes) if note} == {
            "NoConvergence": 130, "PoleOfGamma": 66, "DivergentIntegral": 33}

    def test_odd_d_near_the_diagonal_gets_a_note(self, tmp_path):
        # with d odd, c - a - b of the resolvent's 2F1 is an integer, and
        # hyp2f1 refuses z = sech^2(r/2) > 0.999 (r below about 0.063):
        # those rows name the refusal, as a gamma pole's do, and the run
        # exits 0; it used to exit 4 and lose every row
        import mpmath as mp
        cfg = write(tmp_path, "k.cfg", REAL_PAIR.replace(
            "lambda = 0+0i 0.3+0i 1+0i", "lambda = 1+0.2i")
            + "t = 1\nr = 0.04 0.5 2.0\n[kernels]\nd = 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kernels", "--config", cfg,
                         "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        resolvent = {(r["kind"], r["r"]): r for r in rows
                     if r["kind"] in ("resolvent", "dirac_resolvent")}
        assert len(resolvent) == 6
        for kind in ("resolvent", "dirac_resolvent"):
            near = resolvent[kind, "0.04"]
            assert (near["value_re"], near["value_im"], near["note"]) == (
                "", "", "NoConvergence")
            assert resolvent[kind, "2.0"]["value_re"]
            row = resolvent[kind, "0.5"]
            assert row["note"] == ""
            with mp.workdps(40):
                lam, r, d = mp.mpc(1, 0.2), mp.mpf(0.5), 3
                a, c = mp.mpf(d + 1) / 2 + lam, 2 * lam + 1
                b = lam + 1 if kind == "dirac_resolvent" else lam
                exact = (mp.mpf(2) ** -(d + 1) * mp.pi ** (-mp.mpf(d + 1) / 2)
                         * mp.gamma(a) * mp.gamma(b) / mp.gamma(c)
                         * mp.hyp2f1(a, b, c, mp.sech(r / 2) ** 2))
                if kind == "dirac_resolvent":
                    exact *= -mp.cosh(r / 2) ** -(d + 1 + 2 * lam) * mp.sinh(r / 2)
                else:
                    exact *= mp.cosh(r / 2) ** -(d + 2 * lam)
                got = mp.mpc(float(row["value_re"]), float(row["value_im"]))
                assert abs(got - exact) <= 1e-12 * abs(exact)

    def test_gaussian_within_reported_error_on_bench_grid(self, tmp_path):
        # the benchmark gate's rule: |closed form - quadrature| <= reported
        cfg = str(PERFBENCH_CONFIGS / "kernels.cfg")
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        gauss = [r for r in rows if r["kind"] == "gaussian"]
        assert len(gauss) == 12 * 32
        for r in gauss:
            assert not r["note"]
            assert float(r["gaussian_absdiff"]) <= float(r["reported_err"]), r

    def test_underflowing_lambda_square_exits_4(self, tmp_path, capsys):
        # lambda^2 = 1e-320 > 0 puts the quadrature's upper limit at inf;
        # in u = log t the first panel starts where r^2/4t = 700, at r = 1
        cfg = write(tmp_path, "k.cfg", REAL_PAIR.replace(
            "lambda = 0+0i 0.3+0i 1+0i", "lambda = 1e-160+0i")
            + "t = 1\nr = 1 2\n")
        out = tmp_path / "out"
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 4
        assert (f"panel [{-math.log(2800.0)!r}, inf]"
                in capsys.readouterr().err)
        assert not (out / "kernels.csv").exists()

    def test_cancelling_gaussian_pair_exits_0(self, tmp_path):
        # lambda = 3+2.9i at r = 20, whose value cancels far below its
        # integrand, converges on the absolute floor; under pure relative
        # control the run exited 4 with NoConvergence at 4 095 panels.
        # Its reported_err exceeds the value, so the row says it verifies
        # nothing; the r = 0.5 row's error is far below its value
        cfg = write(tmp_path, "k.cfg", REAL_PAIR.replace(
            "lambda = 0+0i 0.3+0i 1+0i", "lambda = 3+2.9i")
            + "t = 1\nr = 0.5 20\n")
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l for l in (tmp_path / "kernels.csv").read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        near, far = [dict(zip(header, l.split(","))) for l in lines[1:]
                     if l.startswith("gaussian,")]
        assert (near["r"], far["r"]) == ("0.5", "20.0")
        value = abs(complex(float(far["value_re"]), float(far["value_im"])))
        assert float(far["reported_err"]) > value
        assert far["note"] == "AbsoluteFloor"
        assert not near["note"]
        for row in near, far:
            assert (float(row["gaussian_absdiff"])
                    <= float(row["reported_err"]))

    @pytest.mark.parametrize("grids", [
        None,  # the bench config
        # gamma poles, odd-d near-diagonal refusals, divergent Gaussians
        "lambda = -0.5+0i 0+0i 0.2+0.5i 0.3+0i 1+1.2i\n"
        "t = 0.5 1\nr = 0.04 0.5 2.0\n[kernels]\nd = 3\n",
        # negative zeros, a heat row past the Gaussian's underflow
        "lambda = 0.5-0.1i 2+0i\nt = 0.01 3\nr = 1e-300 0.1 30\n",
        # a Gaussian row stopped on the absolute floor: AbsoluteFloor
        "lambda = 3+2.9i\nt = 1\nr = 0.5 20\n",
        # the bench config with every note
        pytest.param("notes", id="notes"),
    ])
    def test_rows_equal_the_reference_writer(self, tmp_path, grids):
        # each row kind's template against the per-cell writer it
        # replaced, byte for byte
        if grids is None:
            cfg = str(PERFBENCH_CONFIGS / "kernels.cfg")
        elif grids == "notes":
            cfg = write_note_config(tmp_path)
        else:
            cfg = write(tmp_path, "k.cfg", REAL_PAIR.split("[grids]")[0]
                        + "[grids]\n" + grids)
        assert main(["kernels", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert ((tmp_path / "kernels.csv").read_text()
                == reference_kernels_csv(load_config(cfg)))


def _kernel_row(kind: str, at, heat=(None,) * 4, value=(None,) * 2,
                gaussian=(None,) * 4, note=None) -> str:
    """One kernels.csv line from the ordered cells of
    ``cli._KERNEL_COLUMNS`` (``at`` is t, r, lam_re, lam_im): None is an
    empty cell, a number its repr.  The per-cell writer the CLI's row
    templates replaced, kept as their reference."""
    cells = [kind, *at, *heat, *value, *gaussian, note]
    return ",".join("" if c is None else c if isinstance(c, str) else repr(c)
                    for c in cells)


def reference_kernels_csv(config) -> str:
    """kernels.csv as ``oddzeta kernels`` wrote it cell by cell through
    ``_kernel_row``, from the same kernel calls."""
    lines = cli._metadata_lines(config, n=config.kernel_n,
                                m=config.kernel_m, d=config.kernel_d)
    lines.append(",".join(cli._KERNEL_COLUMNS))
    heat_t = [t for t in config.t_grid for _ in config.r_grid]
    heat_r = list(config.r_grid) * len(config.t_grid)
    spinor = heat_spinor_batch(heat_t, heat_r, config.kernel_n).tolist()
    signature = heat_signature_batch(heat_t, heat_r, config.kernel_m).tolist()
    for t, r, pp, sp in zip(heat_t, heat_r, spinor, signature):
        at = (t, r, None, None)
        pm, sm = -pp, -sp
        lines.append(_kernel_row(
            "heat_spinor", at, (pp.imag, pm.imag, abs(pp + pm), None)))
        lines.append(_kernel_row(
            "heat_signature", at, (sp.imag, sm.imag, abs(sp + sm), 0.0)))
    pairs = [(lam, r) for lam in config.lambda_grid for r in config.r_grid]
    kinds = (("resolvent", resolvent_scalar, False),
             ("dirac_resolvent", dirac_resolvent_scalar, True))
    gaussian, lams, rs = [], [], []
    for lam, r in pairs:
        at = (None, r, lam.real, lam.imag)
        for kind, kernel, dirac in kinds:
            _, (refusal,) = _resolvent([lam], [r], config.kernel_d, dirac,
                                       keep=Exception)
            if refusal is None:
                val = kernel(lam, r, config.kernel_d).item()
                lines.append(_kernel_row(kind, at,
                                         value=(val.real, val.imag)))
            else:
                lines.append(_kernel_row(kind, at,
                                         note=type(refusal).__name__))
        try:
            closed = gaussian_time_integral(lam, r)
        except errors.DivergentIntegral:
            lines.append(_kernel_row("gaussian", at,
                                     note="DivergentIntegral"))
            continue
        gaussian.append((len(lines), at, closed))
        lams.append(lam)
        rs.append(r)
        lines.append(None)
    quads, errs = gaussian_time_integral_quadrature(lams, rs,
                                                   tol=config.quad_tol)
    for (index, at, closed), quad, err in zip(gaussian, quads.tolist(),
                                               errs.tolist()):
        lines[index] = _kernel_row(
            "gaussian", at, value=(closed.real, closed.imag),
            gaussian=(quad.real, quad.imag, abs(closed - quad), err),
            note="AbsoluteFloor" if err > abs(closed) else None)
    return "\n".join(lines) + "\n"


class TestScanCommand:
    def test_harmonic_oracle_flag(self, tmp_path):
        for oracle, laplacian, tol in (("harmonic", 0.0, 1e-8),
                                       ("nonharmonic", 4.0, 1e-6)):
            cfg = write(tmp_path, f"{oracle}.cfg", REAL_PAIR.replace(
                "preset = real_pair", "preset = scan_base")
                + f"\n[scan]\nh = 1e-2\nscan_cutoff = 3\noracle = {oracle}\n")
            out = tmp_path / oracle
            assert main(["scan", "--config", cfg, "--out", str(out)]) == 0
            doc = json.loads((out / "scan.json").read_text())
            for row in doc["rows"]:
                assert abs(row["fd_laplacian"] - laplacian) < tol
                assert row["fd_laplacian"] == row[f"oracle_{oracle}"]
                assert abs(row["oracle_harmonic"]) < 1e-8
                assert abs(row["oracle_nonharmonic"] - 4.0) < 1e-6

    def test_scan_points_evaluated_once_in_three_batches(self, tmp_path,
                                                         monkeypatch):
        # three parameters, each the base point and 8 shifted points: the
        # base point is shared, so the scans evaluate 9, 8 and 8 new
        # points, each set in one batched call
        batches = []
        terms_from_groups = zograf.terms_from_groups

        def counted(generator_sets, *args, **kwargs):
            batches.append([tuple(gens) for gens in generator_sets])
            return terms_from_groups(generator_sets, *args, **kwargs)

        monkeypatch.setattr(zograf, "terms_from_groups", counted)
        cfg = str(PERFBENCH_CONFIGS / "scan.cfg")
        assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert [len(batch) for batch in batches] == [9, 8, 8]
        points = [gens for batch in batches for gens in batch]
        assert len(points) == len(set(points)) == 25

    def test_anchor_missed_by_rounding_scans(self, tmp_path):
        # conjugating this pair to normal position leaves its anchors off
        # by more than 1e-12 (2.8e-11 for the first attracting point); the
        # chart point is read off the fixed points, so the pair needs no
        # normalized position and scans
        gens = (loxodromic(0.3 + 0.1j, 0.301 + 0.1j, 0.01 + 0.002j),
                loxodromic(-2 + 1j, 5 - 1j, 0.02 - 0.01j))
        cfg = write(tmp_path, "s.cfg", "\n".join(group_lines(gens)) + "\n")
        assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "scan.json").read_text())["rows"]
        assert len(rows) == 3
        for row in rows:
            assert abs(row["fd_laplacian"]) <= row["error_budget"]


class TestScanRefusals:
    def test_shared_fixed_point_exits_3(self, tmp_path, capsys):
        # a generator and its square fix the same two points
        gen = sample_group("scan_base").generators[1]
        cfg = write(tmp_path, "s.cfg",
                    "\n".join(group_lines((gen, gen @ gen))) + "\n")
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: DegenerateConfiguration: fixed points ")
        assert not out.exists()

    @pytest.mark.parametrize("count", [1, 3])
    def test_other_ranks_exit_3(self, tmp_path, capsys, count):
        cfg = write(tmp_path, "s.cfg",
                    "\n".join(group_lines(ring_group(count, 0.01))) + "\n")
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: DegenerateConfiguration: the chart needs exactly 2 "
            f"generators, got {count}\n")
        assert not out.exists()

    def test_eps_class_classifies_the_scan_words(self, tmp_path, capsys):
        # at eps_class = 1e6 every word reads as the identity, as it does
        # for ``oddzeta eta``; the scan once ignored the key and exited 0
        cfg = write(tmp_path, "s.cfg",
                    (PERFBENCH_CONFIGS / "scan.cfg").read_text()
                    + "[tolerances]\neps_class = 1e6\n")
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: LeftSchottkyDomain: word ")
        assert not (out / "scan.json").exists()


#: ``oddzeta scan`` on scan_base: ``h = {h}`` is the only free value
SCAN_STEP = """\
[group]
preset = scan_base

[run]
delta_cutoff = 4

[scan]
h = {h}
scan_cutoff = 3
"""


class TestScanStep:
    @pytest.mark.parametrize("h", ["1e-150", "1e-160", "1e-200", "1e300"])
    def test_collapsed_stencil_exits_3(self, tmp_path, capsys, h):
        # p + h rounds to p at 1e-150 and 1e-160, which reads as a
        # Laplacian of 0, also for the |p|^2 oracle; h^2 is 0 at 1e-200
        # and inf at 1e300
        cfg = write(tmp_path, "s.cfg", SCAN_STEP.format(h=h))
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: DegenerateConfiguration: h = {float(h)!r}: ")
        assert not (out / "scan.json").exists()

    @pytest.mark.parametrize("oracle", ["none", "harmonic", "nonharmonic"])
    def test_huge_step_leaves_the_domain(self, tmp_path, capsys, oracle):
        # q1 + h leaves the unit disk: the eta scan refuses it before the
        # harmonic oracle's p ** 3 can overflow, whichever oracle is asked
        cfg = write(tmp_path, "s.cfg", SCAN_STEP.format(h="1e150")
                    + f"oracle = {oracle}\n")
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: LeftSchottkyDomain: q1 = (1e+150+")
        assert not (out / "scan.json").exists()

    @pytest.mark.parametrize("h", ["1e-4", "1e-8"])
    def test_oracles_within_their_budgets(self, tmp_path, h):
        # small steps show rounding: at 1e-8 the |p|^2 oracle of parameter
        # 2 reads 8.88, not 4, and at 1e-4 the harmonic oracle 2.2e-8, not
        # 0; each oracle's budget must cover its error
        cfg = write(tmp_path, "s.cfg", SCAN_STEP.format(h=h))
        assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "scan.json").read_text())["rows"]
        assert len(rows) == 3
        for row in rows:
            for name, exact in (("harmonic", 0.0), ("nonharmonic", 4.0)):
                assert (abs(row[f"oracle_{name}"] - exact)
                        <= row[f"oracle_{name}_budget"]), (name, row)

    def test_usual_step_unchanged(self, tmp_path):
        # (fd_laplacian, error_budget, harmonic oracle, |p|^2 oracle) per
        # parameter, frozen; the step check must not move them
        frozen = [
            (4.8389203581578055e-06, 0.058852005343545795,
             -1.6874484496081765e-18, 3.9999999999999996),
            (7.5838748302137216e-06, 0.057843165579078176,
             1.1911400820763599e-18, 4.0),
            (-1.2598429244281562e-10, 0.004492658456641827,
             0.0, 4.000000000026205),
        ]
        cfg = write(tmp_path, "s.cfg", SCAN_STEP.format(h="5e-3"))
        assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "scan.json").read_text())["rows"]
        for row, (lap, budget, harmonic, nonharmonic) in zip(rows, frozen):
            assert row["h"] == 5e-3
            assert abs(row["fd_laplacian"] - lap) < 1e-10
            assert abs(row["error_budget"] - budget) < 1e-9 * budget
            assert abs(row["oracle_harmonic"] - harmonic) < 1e-15
            assert abs(row["oracle_nonharmonic"] - nonharmonic) < 1e-9
        assert len(rows) == 3


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = write(tmp_path, "d.cfg", REAL_PAIR)
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        for out in (out1, out2):
            for command in ("spectrum", "zeta", "eta"):
                assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in ("spectrum.csv", "zeta.json", "eta.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def refuse_constant(name):
    """parse_constant for json.loads: Infinity and NaN are not JSON."""
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("command, config", [
        ("zeta", "eta_thick"), ("eta", "eta_thick"),
        ("zeta", "near_abscissa"), ("scan", "scan")])
    def test_bench_outputs_are_strict_json(self, tmp_path, command, config):
        # the check the CI smoke runs make on the same commands and configs
        cfg = str(PERFBENCH_CONFIGS / f"{config}.cfg")
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("*.json")
        json.loads(path.read_text(), parse_constant=refuse_constant)


#: Every subcommand in one interpreter, then the top-level names of the
#: test and optional packages it imported, the tests' Clifford algebra and
#: transport oracle among them
RUN_EVERY_SUBCOMMAND = """
import sys
from oddzeta.cli import main
config, out = sys.argv[1:]
for command in ("spectrum", "zeta", "eta", "kernels", "scan"):
    assert main([command, "--config", config, "--out", out]) == 0, command
print(sorted({name.split(".")[0] for name in sys.modules}
             & {"mpmath", "hypothesis", "pytest", "scipy",
                "clifford_transport"}))
"""


class TestRuntimeImports:
    def test_subcommands_need_only_numpy(self, tmp_path):
        # the README promises numpy as the one runtime dependency
        cfg = write(tmp_path, "small.cfg", REAL_PAIR.replace(
            "preset = real_pair", "preset = scan_base")
            + "t = 1\nr = 1\n\n[scan]\nscan_cutoff = 3\n")
        done = subprocess.run(
            [sys.executable, "-c", RUN_EVERY_SUBCOMMAND, cfg,
             str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


def test_public_surface():
    # a name added to or dropped from the package is a deliberate edit here
    assert sorted(oddzeta.__all__) == [
        "GeodesicInvariants", "MoebiusMap", "OddZetaError",
        "PoincareEstimate", "SchottkyPoint", "Spectrum", "ZetaEvaluation",
        "ZetaTerms", "c_lambda", "check_eta_F_identity", "class_spectra",
        "classify", "cycle_expansion", "dirac_resolvent_scalar",
        "dlog_zeta_odd", "errors", "estimate_deltas", "eta",
        "evaluate_word", "gaussian_time_integral",
        "gaussian_time_integral_quadrature", "geodesic_invariants",
        "heat_signature_batch", "heat_spinor_batch", "hyp2f1", "kernels",
        "log_zeta_half", "log_zeta_odd", "loxodromic", "moebius",
        "odd_heat_trace", "pluriharmonicity_scan", "quadrature",
        "resolvent_scalar", "schottky_from_params", "special",
        "terms_from_group", "terms_from_groups", "words", "zeta", "zeta_odd",
        "zograf", "zograf_F",
    ]
