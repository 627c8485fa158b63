import json
import math

import pytest

import oddzeta.cli as cli
import oddzeta.zograf as zograf
from oddzeta.cli import main
from oddzeta.config import format_complex, parse_complex
from oddzeta.sample_groups import ring_group
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


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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

    def test_group_data_built_once(self, tmp_path, monkeypatch):
        calls = {"estimate_delta": 0, "terms_from_group": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (cli, zograf):
            for name in calls:
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
        cfg = write(tmp_path, "a.cfg", COMPLEX_A)
        assert main(["eta", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls == {"estimate_delta": 1, "terms_from_group": 1}

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
