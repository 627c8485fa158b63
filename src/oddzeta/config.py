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
from typing import Callable, Dict, Optional, Tuple

from .errors import ConfigError
from .moebius import EPS_CLASS, MoebiusMap

_COMPLEX_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?:(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i)?$"
)

#: The keys of [group], which ``_parse_generators`` reads.
_GROUP_KEYS = {"preset"} | {f"generator{i}" for i in range(1, 27)}


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
            if current not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not (key in _GROUP_KEYS if current == "group"
                else (current, key) in _KEYS):
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


def _at_least(least: int) -> Callable[[str], int]:
    def parse(value: str) -> int:
        number = int(value)
        if number < least:
            raise ValueError(f"must be >= {least}")
        return number
    return parse


def _positive(value: str) -> float:
    number = float(value)
    if not 0 < number < math.inf:
        raise ValueError("must be positive and finite")
    return number


def _one_of(*names: str) -> Callable[[str], str]:
    def parse(value: str) -> str:
        if value not in names:
            raise ValueError("must be " + " or ".join(map(repr, names)))
        return value
    return parse


class _EntryError(ValueError):
    """A grid entry refused; args are its 1-based position and the error."""


def _grid(entry: Callable[[str], object], nonempty: bool = True):
    """A parser of a grid of ``entry`` values in ascending order, complex
    ones by real part, then imaginary part."""
    def parse(value: str) -> tuple:
        grid = []
        for col, token in enumerate(value.split(), start=1):
            try:
                grid.append(entry(token))
            except ValueError as exc:
                raise _EntryError(col, exc) from exc
        if nonempty and not grid:
            raise ValueError("grid must be nonempty")
        if sorted(grid, key=lambda z: (z.real, z.imag)) != grid:
            raise ValueError("grid must be sorted ascending")
        return tuple(grid)
    return parse


#: (section, key) -> (RunConfig field, parser) of every key outside
#: [group]; a parser raises ValueError on a value it refuses.
_KEYS: Dict[Tuple[str, str], Tuple[str, Callable[[str], object]]] = {
    ("run", "word_cutoff"): ("word_cutoff", _at_least(1)),
    ("run", "inner_cutoff"): ("inner_cutoff", _at_least(1)),
    # the order of estimate_delta's determinant
    ("run", "delta_cutoff"): ("delta_cutoff", _at_least(4)),
    ("run", "variant"): ("variant", _one_of("signature", "spinor")),
    ("run", "spin_sign"): ("spin_sign", _one_of("plus", "minus")),
    ("grids", "lambda"): ("lambda_grid", _grid(parse_complex,
                                               nonempty=False)),
    ("grids", "t"): ("t_grid", _grid(_positive)),
    ("grids", "r"): ("r_grid", _grid(_positive)),
    ("kernels", "n"): ("kernel_n", _at_least(1)),
    ("kernels", "m"): ("kernel_m", _at_least(1)),
    ("kernels", "d"): ("kernel_d", _at_least(1)),
    ("scan", "h"): ("scan_h", _positive),
    ("scan", "scan_cutoff"): ("scan_cutoff", _at_least(1)),
    ("scan", "oracle"): ("scan_oracle",
                         _one_of("none", "harmonic", "nonharmonic")),
    ("tolerances", "eps_class"): ("eps_class", _positive),
    ("tolerances", "quad_tol"): ("quad_tol", _positive),
}

_SECTIONS = {"group"} | {section for section, _ in _KEYS}


def parse_config(text: str) -> RunConfig:
    sections = _raw_sections(text)
    group = sections.pop("group", {})
    generators = _parse_generators(group)
    preset = group.get("preset")
    if preset is not None and generators is not None:
        raise ConfigError("[group] give either preset or generator matrices")
    values: Dict[str, object] = {}
    for section, entries in sections.items():
        for key, value in entries.items():
            field, parse = _KEYS[section, key]
            try:
                values[field] = parse(value)
            except _EntryError as exc:
                col, error = exc.args
                raise ConfigError(
                    f"[{section}] {key} entry {col}: {error}") from exc
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    return RunConfig(
        generators=generators,
        preset=preset,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        **values,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config(handle.read())
