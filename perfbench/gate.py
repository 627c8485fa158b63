"""Correctness gate and physics record for one benchmark operation.

Each ``check_<subcommand>`` reads the files an operation wrote and returns
``(problems, physics)``: a list of gate failures (empty when the operation
is correct) and the values a later change must leave alone.  CSV physics
records hash only the data rows, never the ``#`` metadata lines, so that
dropping a metadata stamp is not a value change.
"""

from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

Result = Tuple[List[str], dict]


def data_rows(text: str) -> List[str]:
    return [line for line in text.splitlines() if not line.startswith("#")]


def rows_sha256(text: str) -> str:
    return hashlib.sha256("\n".join(data_rows(text)).encode()).hexdigest()


def _csv(text: str) -> List[Dict[str, str]]:
    return list(csv.DictReader(data_rows(text)))


def class_count(g: int, L: int) -> int:
    """Conjugacy classes of cyclically reduced length 1..L in the free group
    of rank g, by Burnside's lemma over rotations of cyclic words."""
    def cyclically_reduced(n: int) -> int:
        return (2 * g - 1) ** n + 1 + (g - 1) * (1 + (-1) ** n)

    def phi(n: int) -> int:
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    return sum(
        sum(phi(n // d) * cyclically_reduced(d)
            for d in range(1, n + 1) if n % d == 0) // n
        for n in range(1, L + 1)
    )


def _letters(word: str) -> Tuple[int, ...]:
    return tuple(ord(c) - ord("a") + 1 if c.islower()
                 else -(ord(c) - ord("A") + 1) for c in word)


def _power_index(w: Tuple[int, ...]) -> int:
    for p in range(1, len(w) + 1):
        if len(w) % p == 0 and w == w[p:] + w[:p]:
            return len(w) // p
    return 1


def _close(x: float, y: float, ulps: float = 4.0, scale: float = 0.0) -> bool:
    return abs(x - y) <= ulps * math.ulp(max(abs(x), abs(y), scale))


def check_spectrum(text: str, word_cutoff: int, generators: Sequence,
                   sample_seed: int, sample_size: int = 64) -> Result:
    """Row count against the class-count formula, every row's word,
    length, power index and primitivity, and a seeded sample of rows
    against scalar ``evaluate_word`` and ``geodesic_invariants``."""
    from oddzeta.moebius import geodesic_invariants
    from oddzeta.words import evaluate_word

    problems: List[str] = []
    rows = _csv(text)
    expected = class_count(len(generators), word_cutoff)
    if len(rows) != expected:
        problems.append(f"spectrum.csv has {len(rows)} rows, "
                        f"expected {expected} classes")
    previous = None
    for row in rows:
        w = _letters(row["word"])
        key = (len(w), w)
        if previous is not None and key <= previous:
            problems.append(f"row {row['word']} out of order or repeated")
            break
        previous = key
        j = _power_index(w)
        if (int(row["length"]) != len(w) or int(row["j"]) != j
                or row["primitive"] != str(int(j == 1))
                or w != min(w[i:] + w[:i] for i in range(len(w)))):
            problems.append(f"row {row['word']}: bad length/j/primitive/"
                            "representative")
            break
    rng = random.Random(sample_seed)
    for row in rng.sample(rows, min(sample_size, len(rows))):
        inv = geodesic_invariants(evaluate_word(generators,
                                                _letters(row["word"])))
        ok = (_close(float(row["ell"]), inv.length)
              and _close(float(row["theta"]), inv.theta, scale=math.pi)
              and _close(float(row["q_re"]), inv.q.real, scale=abs(inv.q))
              and _close(float(row["q_im"]), inv.q.imag, scale=abs(inv.q)))
        if not ok:
            problems.append(f"row {row['word']} differs from the scalar "
                            "evaluate_word/geodesic_invariants oracle")
    return problems, {"rows": len(rows), "rows_sha256": rows_sha256(text)}


def check_zeta(doc: dict, lambda_grid: Sequence[complex]) -> Result:
    """Every grid point evaluated (all lie right of delta_hat) with a
    finite value and tail bound."""
    problems: List[str] = []
    evals = doc["evaluations"]
    if [complex(*e["lambda"]) for e in evals] != list(lambda_grid):
        problems.append("zeta.json lambda points differ from the config grid")
    for e in evals:
        if e.get("nonconvergent") or not all(
                math.isfinite(v) for v in e["value"] + [e["tail_bound"]]):
            problems.append(f"zeta at lambda {e['lambda']} not finite: {e}")
    physics = {
        "delta_hat": doc["delta_hat"],
        "delta_bracket": doc["delta_bracket"],
        "values": [[e["lambda"], e.get("value"), e.get("tail_bound")]
                   for e in evals],
    }
    return problems, physics


# The three eta routes read one truncated spectrum, so truncation cannot
# separate them, only quadrature error can: they must also agree within
# this multiple of quad_tol, which covers the gap between the quadrature's
# error estimate and its true error.
ROUTE_QUAD_FACTOR = 100.0


def check_eta(doc: dict, quad_tol: float) -> Result:
    """Three routes agree within the run's own identity budget plus the
    quadrature tolerance, and within ROUTE_QUAD_FACTOR * quad_tol; the F
    identity residual is within budget."""
    problems: List[str] = []
    routes = doc["eta_by_route"]
    budget = doc["identity_error_budget"]
    spread = max(routes.values()) - min(routes.values())
    if not spread <= min(budget + quad_tol, ROUTE_QUAD_FACTOR * quad_tol):
        problems.append(f"eta routes spread {spread:.3e} exceeds budget "
                        f"{budget:.3e} + quad_tol {quad_tol:.1e} or "
                        f"{ROUTE_QUAD_FACTOR:g} quad_tol")
    if not doc["residual_F_identity"] <= budget:
        problems.append(f"residual_F_identity {doc['residual_F_identity']:.3e}"
                        f" exceeds budget {budget:.3e}")
    if not doc["delta_hat"] < 0:
        problems.append(f"delta_hat {doc['delta_hat']} not negative")
    physics = {
        "eta_by_route": routes,
        "residual_F_identity": doc["residual_F_identity"],
        "identity_error_budget": budget,
        "central_cross_check": doc["central_cross_check"],
        "delta_hat": doc["delta_hat"],
        "delta_bracket": doc["delta_bracket"],
    }
    return problems, physics


def check_central_identity(zeta_doc: dict, eta_doc: dict) -> List[str]:
    """exp(i pi eta) = Z_odd(0) across the zeta and eta operations."""
    at_zero = [e for e in zeta_doc["evaluations"] if e["lambda"] == [0.0, 0.0]]
    if not at_zero:
        return ["zeta.json has no lambda = 0 evaluation"]
    z0 = complex(*at_zero[0]["value"])
    eta = eta_doc["eta_by_route"]["central_value"]
    gap = abs(z0 - cmath.exp(1j * math.pi * eta))
    if not gap <= at_zero[0]["tail_bound"] + 1e-12:
        return [f"|Z_odd(0) - exp(i pi eta)| = {gap:.3e} exceeds the tail "
                f"bound {at_zero[0]['tail_bound']:.3e}"]
    return []


def check_probe(rc: int, stderr: str, out_dir: Path) -> Tuple[str, List[str]]:
    """Outcome of the near-abscissa probe: 'known_failure' for the exit-4
    exp overflow recorded at this benchmark's introduction, 'ok' once it
    returns a finite value, otherwise gate problems."""
    if rc == 4 and "OverflowError" in stderr:
        return "known_failure", []
    if rc == 0:
        doc = json.loads((out_dir / "zeta.json").read_text())
        values = [v for e in doc["evaluations"] for v in e.get("value", [])]
        if values and all(math.isfinite(v) for v in values):
            return "ok", []
        return "failed", ["near-abscissa probe returned no finite value"]
    return "failed", [f"near-abscissa probe exit {rc}: {stderr.strip()[-200:]}"]


def check_scan(text: str) -> Result:
    """Every chart direction passes |fd_laplacian| <= error_budget, and the
    harness oracles give 0 (harmonic) and 4 (|p|^2)."""
    problems: List[str] = []
    rows = _csv(text)
    if [r["param_index"] for r in rows] != ["0", "1", "2"]:
        problems.append("scan.csv does not hold parameters 0, 1, 2")
    for r in rows:
        if not abs(float(r["fd_laplacian"])) <= float(r["error_budget"]):
            problems.append(f"param {r['param_index']}: |fd_laplacian| "
                            f"{r['fd_laplacian']} > budget {r['error_budget']}")
        if not (abs(float(r["oracle_harmonic"])) < 1e-6
                and abs(float(r["oracle_nonharmonic"]) - 4.0) < 1e-6):
            problems.append(f"param {r['param_index']}: oracle columns off")
    physics = {"rows_sha256": rows_sha256(text),
               "fd_laplacian": [float(r["fd_laplacian"]) for r in rows],
               "error_budget": [float(r["error_budget"]) for r in rows]}
    return problems, physics


def check_kernels(text: str, n_t: int, n_r: int, n_lambda: int) -> Result:
    """Row counts per kind, the exact odd-kernel identities, and the
    Gaussian closed form within the quadrature's reported error."""
    problems: List[str] = []
    rows = _csv(text)
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["kind"]] = counts.get(r["kind"], 0) + 1
    expected = {"heat_spinor": n_t * n_r, "heat_signature": n_t * n_r,
                "resolvent": n_lambda * n_r, "dirac_resolvent": n_lambda * n_r,
                "gaussian": n_lambda * n_r}
    if counts != expected:
        problems.append(f"kernels.csv rows {counts}, expected {expected}")
    for r in rows:
        bad = (
            r["note"]
            or (r["kind"] == "heat_spinor" and float(r["plus_plus_minus"]) != 0)
            or (r["kind"] == "heat_signature" and float(r["p_middle"]) != 0)
            or (r["kind"] == "gaussian" and not float(r["gaussian_absdiff"])
                <= float(r["reported_err"]))
        )
        if bad:
            problems.append(f"kernels row fails its identity: {r}")
            break
    return problems, {"rows": len(rows), "rows_sha256": rows_sha256(text)}
