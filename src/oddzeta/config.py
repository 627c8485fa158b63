"""Strict sectioned run configuration for the command-line tools.

The format is flat "key = value" lines under [section] headers.  Parsing
is strict on purpose: unknown sections or keys are errors, because a
silently ignored misspelled tolerance would invalidate the numbers this
tool exists to produce.  Complex values use the spaceless "a+bi" / "a-bi"
syntax so they round-trip through CSV unambiguously.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import ConfigError
from .moebius import EPS_CLASS, MoebiusMap

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)

_KNOWN_KEYS = {
    "group": {"preset"} | {f"generator{i}" for i in range(1, 27)},
    "run": {"word_cutoff", "inner_cutoff", "delta_cutoff", "variant",
            "spin_sign"},
    "grids": {"lambda", "t", "r"},
    "kernels": {"n", "m", "d"},
    "scan": {"h", "scan_cutoff", "oracle"},
    "tolerances": {"eps_class", "quad_tol"},
}


def parse_complex(token: str) -> complex:
    m = _COMPLEX_RE.match(token)
    if not m:
        raise ValueError(f"invalid complex literal {token!r}")
    re_part = float(m.group("re"))
    im_part = float(m.group("im")) if m.group("im") else 0.0
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise ValueError(f"complex literal {token!r} is not finite")
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration with the raw text hash for output stamping."""

    generators: Optional[Tuple[MoebiusMap, ...]]
    preset: Optional[str]
    word_cutoff: int = 6
    inner_cutoff: int = 40
    delta_cutoff: int = 8
    variant: str = "signature"
    spin_sign: str = "plus"
    lambda_grid: Tuple[complex, ...] = (0.0 + 0.0j,)
    t_grid: Tuple[float, ...] = (0.1, 1.0, 10.0)
    r_grid: Tuple[float, ...] = (0.5, 1.0, 2.0)
    kernel_n: int = 1
    kernel_m: int = 1
    kernel_d: int = 2
    scan_h: float = 5e-3
    scan_cutoff: int = 4
    scan_oracle: str = "none"
    eps_class: float = EPS_CLASS
    quad_tol: float = 1e-11
    sha256: str = ""


def _raw_sections(text: str) -> Dict[str, Dict[str, str]]:
    sections: Dict[str, Dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _KNOWN_KEYS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


def _parse_generators(group: Dict[str, str]) -> Optional[Tuple[MoebiusMap, ...]]:
    names = sorted(k for k in group if k.startswith("generator"))
    if not names:
        return None
    expected = [f"generator{i}" for i in range(1, len(names) + 1)]
    if names != expected:
        raise ConfigError(
            f"[group] generators must be numbered consecutively, got {names}"
        )
    gens = []
    for name in names:
        tokens = group[name].split()
        if len(tokens) != 4:
            raise ConfigError(
                f"[group] {name}: expected 4 complex entries, got {len(tokens)}"
            )
        entries = []
        for col, tok in enumerate(tokens, start=1):
            try:
                entries.append(parse_complex(tok))
            except ValueError as exc:
                raise ConfigError(f"[group] {name} entry {col}: {exc}") from exc
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if not abs(det - 1.0) <= 1e-6:
            raise ConfigError(
                f"[group] {name}: determinant {det:.8g} is not 1 "
                "(normalize the matrix; the sign is the spin lift)"
            )
        gens.append(MoebiusMap.normalized(*entries))
    return tuple(gens)


def _typed(section: Dict[str, str], key: str, kind, where: str):
    value = section[key]
    try:
        return kind(value)
    except ValueError as exc:
        raise ConfigError(f"[{where}] {key}: {exc}") from exc


def _float_grid(section: Dict[str, str], key: str, where: str) -> Tuple[float, ...]:
    values = []
    for col, tok in enumerate(section[key].split(), start=1):
        try:
            values.append(float(tok))
        except ValueError as exc:
            raise ConfigError(f"[{where}] {key} entry {col}: {exc}") from exc
    if sorted(values) != values:
        raise ConfigError(f"[{where}] {key}: grid must be sorted ascending")
    return tuple(values)


def parse_config(text: str) -> RunConfig:
    sections = _raw_sections(text)
    group = sections.get("group", {})
    generators = _parse_generators(group)
    preset = group.get("preset")
    if preset is not None and generators is not None:
        raise ConfigError("[group] give either preset or generator matrices")

    values: Dict[str, object] = {}
    run = sections.get("run", {})
    for key, kind, target in (
        ("word_cutoff", int, "word_cutoff"),
        ("inner_cutoff", int, "inner_cutoff"),
        ("delta_cutoff", int, "delta_cutoff"),
    ):
        if key in run:
            values[target] = _typed(run, key, kind, "run")
    if "variant" in run:
        if run["variant"] not in ("signature", "spinor"):
            raise ConfigError("[run] variant must be 'signature' or 'spinor'")
        values["variant"] = run["variant"]
    if "spin_sign" in run:
        if run["spin_sign"] not in ("plus", "minus"):
            raise ConfigError("[run] spin_sign must be 'plus' or 'minus'")
        values["spin_sign"] = run["spin_sign"]

    grids = sections.get("grids", {})
    if "lambda" in grids:
        lam = []
        for col, tok in enumerate(grids["lambda"].split(), start=1):
            try:
                lam.append(parse_complex(tok))
            except ValueError as exc:
                raise ConfigError(f"[grids] lambda entry {col}: {exc}") from exc
        key_fn = lambda z: (z.real, z.imag)
        if sorted(lam, key=key_fn) != lam:
            raise ConfigError("[grids] lambda: grid must be sorted by (re, im)")
        values["lambda_grid"] = tuple(lam)
    for key, target in (("t", "t_grid"), ("r", "r_grid")):
        if key in grids:
            grid = _float_grid(grids, key, "grids")
            if not grid:
                raise ConfigError(f"[grids] {key}: grid must be nonempty")
            if not all(0 < v < math.inf for v in grid):
                raise ConfigError(
                    f"[grids] {key}: entries must be positive and finite")
            values[target] = grid

    kernels = sections.get("kernels", {})
    for key, target in (("n", "kernel_n"), ("m", "kernel_m"), ("d", "kernel_d")):
        if key in kernels:
            values[target] = _typed(kernels, key, int, "kernels")

    scan = sections.get("scan", {})
    if "h" in scan:
        values["scan_h"] = _typed(scan, "h", float, "scan")
    if "scan_cutoff" in scan:
        values["scan_cutoff"] = _typed(scan, "scan_cutoff", int, "scan")
    if "oracle" in scan:
        if scan["oracle"] not in ("none", "harmonic", "nonharmonic"):
            raise ConfigError(
                "[scan] oracle must be 'none', 'harmonic' or 'nonharmonic'"
            )
        values["scan_oracle"] = scan["oracle"]

    tolerances = sections.get("tolerances", {})
    for key, target in (("eps_class", "eps_class"), ("quad_tol", "quad_tol")):
        if key in tolerances:
            val = _typed(tolerances, key, float, "tolerances")
            if not 0 < val < math.inf:
                raise ConfigError(
                    f"[tolerances] {key}: must be positive and finite")
            values[target] = val

    config = RunConfig(
        generators=generators,
        preset=preset,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        **values,
    )
    for where, key, value, least in (
        ("run", "word_cutoff", config.word_cutoff, 1),
        ("run", "inner_cutoff", config.inner_cutoff, 1),
        # the order of estimate_delta's determinant
        ("run", "delta_cutoff", config.delta_cutoff, 4),
        ("scan", "scan_cutoff", config.scan_cutoff, 1),
        ("kernels", "n", config.kernel_n, 1),
        ("kernels", "m", config.kernel_m, 1),
        ("kernels", "d", config.kernel_d, 1),
    ):
        if value < least:
            raise ConfigError(f"[{where}] {key} must be >= {least}")
    if not 0 < config.scan_h < math.inf:
        raise ConfigError("[scan] h must be positive and finite")
    return config


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
