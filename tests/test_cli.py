import cmath
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from test_words import scalar_class_spectrum

import oddzeta.cli as cli
import oddzeta.errors as errors
import oddzeta.zeta as zeta
import oddzeta.zograf as zograf
from oddzeta.cli import main
from oddzeta.config import (
    _KEYS,
    RunConfig,
    _raw_sections,
    format_complex,
    load_config,
    parse_complex,
    parse_config,
)
from oddzeta.moebius import MoebiusMap
from oddzeta.sample_groups import ring_group, sample_group
from oddzeta.words import class_spectrum, estimate_delta, word_to_str
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

PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

#: The exit code of every library error class
EXIT_CODES = {
    "ConfigError": 2,
    **dict.fromkeys([
        "AtDiagonal", "BoundaryPoint", "CutoffTooLarge",
        "DegenerateConfiguration", "DeltaNotNegative", "IndexOutOfRange",
        "LeftSchottkyDomain", "NonPrimitiveInput", "NotInvertible",
        "NotLoxodromic", "UndefinedAtCorner"], 3),
    **dict.fromkeys([
        "ConvergenceViolation", "DivergentIntegral", "NoConvergence",
        "NonConvergent", "PoleAt", "PoleAtC", "PoleOfGamma"], 4),
}

#: Half the tracemalloc peak (9 248 660 bytes) of ``cmd_spectrum`` on
#: g2_complex_a at L = 11 when it held every CSV line and their join
SPECTRUM_PEAK_BOUND = 4_624_330


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_every_error_class_pinned(self):
        bases = (errors.OddZetaError, errors.PreconditionError,
                 errors.NumericalError)
        classes = [name for name, obj in vars(errors).items()
                   if isinstance(obj, type)
                   and issubclass(obj, errors.OddZetaError)
                   and obj not in bases]
        assert sorted(classes) == sorted(EXIT_CODES)
        assert sorted(EXIT_CODES.values()) == [2] + [3] * 11 + [4] * 7

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
        lines = ["[group]"]
        for i, gen in enumerate(gens, start=1):
            entries = " ".join(format_complex(z)
                               for z in (gen.a, gen.b, gen.c, gen.d))
            lines.append(f"generator{i} = {entries}")
        lines += ["", "[run]", "word_cutoff = 9", "delta_cutoff = 9",
                  "", "[grids]", "lambda = -0.4+0i"]
        cfg = write(tmp_path, "thick.cfg", "\n".join(lines) + "\n")
        assert main(["zeta", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "zeta.json").read_text()
        assert '"tail_bound": Infinity' in text
        (ev,) = json.loads(text)["evaluations"]
        assert all(math.isfinite(v) for v in ev["value"])


class TestRunTerms:
    def test_terms_selected_from_the_delta_spectrum(self):
        # delta_cutoff = 6 > L = 4: one spectrum, at length 6
        gens = sample_group("g2_complex_a").generators
        terms = zeta.terms_from_group(gens, 4, 6)
        want = zeta.terms_from_spectrum(class_spectrum(gens, 4))
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
        assert terms.estimate == estimate_delta(class_spectrum(gens, 6), 6)

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
        lines = ["[group]"]
        for i, gen in enumerate(ring_group(), start=1):
            entries = " ".join(format_complex(z)
                               for z in (gen.a, gen.b, gen.c, gen.d))
            lines.append(f"generator{i} = {entries}")
        lines += ["", "[run]", "word_cutoff = 2", "delta_cutoff = 5"]
        cfg = write(tmp_path, "ring.cfg", "\n".join(lines) + "\n")
        assert main(["eta", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "DeltaNotNegative" in capsys.readouterr().err

    @pytest.mark.parametrize("run_keys", [pytest.param("", id="default"),
                                          "variant = spinor",
                                          "spin_sign = minus"])
    def test_group_data_built_once(self, tmp_path, monkeypatch, run_keys):
        # the identity terms of a spinor or "minus" run come from the
        # run's own spectrum, not from a second class-spectrum build
        calls = {"estimate_delta": 0, "class_spectrum": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in ((zeta, "estimate_delta"), (cli, "class_spectrum"),
                             (zeta, "class_spectrum")):
            monkeypatch.setattr(module, name,
                                counted(name, getattr(module, name)))
        cfg = write(tmp_path, "a.cfg",
                    COMPLEX_A.replace("[grids]", run_keys + "\n\n[grids]"))
        assert main(["eta", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == {"estimate_delta": 1, "class_spectrum": 1}

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
        # sinh r overflows at r = 800: a refusal, never a NaN row
        cfg = write(tmp_path, "k.cfg", REAL_PAIR + "\n[grids]\nt = 1\nr = 800\n")
        out = tmp_path / "out"
        assert main(["kernels", "--config", cfg, "--out", str(out)]) == 4
        assert "OverflowError" in capsys.readouterr().err
        assert not (out / "kernels.csv").exists()


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

    def test_base_point_evaluated_once(self, tmp_path, monkeypatch):
        # three parameters, each the base point and 8 shifted points
        points = []
        terms_from_group = zograf.terms_from_group

        def counted(generators, *args, **kwargs):
            points.append(tuple(generators))
            return terms_from_group(generators, *args, **kwargs)

        monkeypatch.setattr(zograf, "terms_from_group", counted)
        cfg = str(PERFBENCH_CONFIGS / "scan.cfg")
        assert main(["scan", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(points) == len(set(points)) == 25


class TestScanRefusals:
    def test_anchor_missed_by_rounding_exits_3(self, tmp_path, capsys):
        # normalize_schottky leaves the anchors of this pair off by more
        # than the chart's absolute tolerance
        def loxodromic(attracting, repelling, q):
            root = cmath.sqrt(q)
            frame = MoebiusMap.normalized(repelling, attracting, 1.0, 1.0)
            return (frame @ MoebiusMap(root, 0.0, 0.0, 1.0 / root)
                    @ frame.inverse())

        gens = (loxodromic(0.3 + 0.1j, 0.301 + 0.1j, 0.01 + 0.002j),
                loxodromic(-2 + 1j, 5 - 1j, 0.02 - 0.01j))
        lines = ["[group]"]
        for i, gen in enumerate(gens, start=1):
            entries = " ".join(format_complex(z)
                               for z in (gen.a, gen.b, gen.c, gen.d))
            lines.append(f"generator{i} = {entries}")
        cfg = write(tmp_path, "s.cfg", "\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["scan", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: DegenerateConfiguration: generators are not in "
            "normalized position\n")
        assert not out.exists()


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
