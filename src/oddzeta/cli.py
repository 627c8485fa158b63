"""Command-line surface: spectrum | zeta | eta | kernels | scan.

Every output file embeds the sha256 of the config text plus the cutoffs
that produced it, and contains nothing time- or machine-dependent, so
identical configs give byte-identical files.

Exit codes: 0 ok, 2 config or I/O error, 3 precondition violation,
4 numerical nonconvergence; each library error class has its code from
its base class in ``errors``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import sample_groups
from .config import RunConfig, load_config
from .errors import (
    AtDiagonal,
    ConfigError,
    ConvergenceViolation,
    DivergentIntegral,
    NoConvergence,
    NumericalError,
    PoleOfGamma,
    PreconditionError,
)
from .kernels import (
    _resolvent,
    gaussian_time_integral,
    gaussian_time_integral_quadrature,
    heat_signature_batch,
    heat_spinor_batch,
)
from .moebius import MoebiusMap
from .words import class_spectra, word_letters
from .zeta import ETA_ROUTES, ZetaTerms, eta, terms_from_group, zeta_odd
from .zograf import (
    SchottkyPoint,
    chart_params,
    check_eta_F_identity,
    eta_on_chart,
    pluriharmonicity_scan,
    schottky_from_params,
)

def _preset(config: RunConfig) -> SchottkyPoint:
    try:
        return sample_groups.sample_group(config.preset)
    except KeyError as exc:
        raise ConfigError(f"[group] unknown preset {config.preset!r}") from exc


def _group_generators(config: RunConfig) -> Sequence[MoebiusMap]:
    if config.preset is not None:
        return _preset(config).generators
    if config.generators is None:
        raise ConfigError("[group] needs a preset or generator matrices")
    return config.generators


def _scan_point(config: RunConfig) -> SchottkyPoint:
    # a preset keeps its exact chart parameters, which chart_params reads
    # back only to rounding
    if config.preset is not None:
        return _preset(config)
    return schottky_from_params(*chart_params(_group_generators(config)))


def _metadata_lines(config: RunConfig, **extra) -> List[str]:
    items = {
        "config_sha256": config.sha256,
        **extra,
    }
    return [f"# {key}={items[key]}" for key in sorted(items)]


def _write_text(path: Path, text: str) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def _write_json(path: Path, doc: dict) -> Path:
    """Strict JSON: a non-finite number raises instead of being written
    as Infinity or NaN."""
    return _write_text(path, json.dumps(doc, indent=2, sort_keys=True,
                                        allow_nan=False) + "\n")


def _bound(value: float) -> Optional[float]:
    """A tail bound or error budget as JSON holds it: null when no finite
    bound is known."""
    return value if math.isfinite(value) else None


#: spectrum.csv rows formatted and written per chunk: the command's
#: tracemalloc peak on the benchmark config is 3.6 MB at 1 024 rows and
#: 5.3 MB at 2 048, and 1 024 runs no slower
_SPECTRUM_CHUNK = 1024


def cmd_spectrum(config: RunConfig, out_dir: Path) -> Path:
    """CSV table of conjugacy classes with their geodesic invariants.

    One row per class in (length, representative) order, from the
    arrays of ``words.class_spectra``, whose invariants equal those of
    ``evaluate_word`` plus ``geodesic_invariants``.  The spectrum is
    complete (or refused) before the file is opened, and the rows are
    written ``_SPECTRUM_CHUNK`` at a time: each field of a chunk is a
    uint8 matrix of its cells, NUL-padded (the floats' from
    ``floatrepr.float_cells``, byte for byte their repr), and a chunk is
    their rows joined with the NULs dropped.
    """
    # imported here, so no other subcommand compiles or loads it
    from .floatrepr import float_cells

    gens = _group_generators(config)
    (spectrum,) = class_spectra([gens], config.word_cutoff, config.eps_class)
    lines = _metadata_lines(config, cutoff_L=config.word_cutoff)
    lines.append("word,length,j,primitive,ell,theta,q_re,q_im")
    # str(k) of every length and power index, and so of the 0/1 flag
    top = max(int(spectrum.word_length.max(initial=0)), 1)
    integers = np.array([str(k) for k in range(top + 1)], "S")
    integers = integers.view(np.uint8).reshape(top + 1, -1)
    path = out_dir / "spectrum.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as out:
        out.write(("\n".join(lines) + "\n").encode())
        for start in range(0, len(spectrum), _SPECTRUM_CHUNK):
            part = spectrum.select(slice(start, start + _SPECTRUM_CHUNK))
            rows = len(part)
            floats = float_cells(np.concatenate(
                [part.ell, part.theta, part.q.real, part.q.imag]))
            fields = [
                word_letters(part.codes, part.word_length, len(gens)),
                integers.take(part.word_length, axis=0),
                integers.take(part.j, axis=0),
                integers.take((part.j == 1).astype(np.intp), axis=0),
                *(floats[k * rows:(k + 1) * rows] for k in range(4)),
            ]
            comma = np.full((rows, 1), ord(","), np.uint8)
            table = np.concatenate(
                [cell for field in fields for cell in (field, comma)][:-1]
                + [np.full((rows, 1), ord("\n"), np.uint8)], axis=1).ravel()
            out.write(table[table != 0])
    return path


def _terms(config: RunConfig) -> ZetaTerms:
    """The run's class terms, with its delta_hat estimate."""
    return terms_from_group(_group_generators(config), config.word_cutoff,
                            config.delta_cutoff, config.variant,
                            config.spin_sign, config.eps_class)


def cmd_zeta(config: RunConfig, out_dir: Path) -> Path:
    """JSON array of truncated zeta evaluations over the lambda grid,
    ``"nonconvergent"`` where the terms refuse the sum; a tail bound that
    is not finite is null."""
    terms = _terms(config)
    evaluations = []
    for lam in config.lambda_grid:
        try:
            evaluation = zeta_odd(terms, lam).to_json_dict()
            evaluations.append(
                dict(evaluation, tail_bound=_bound(evaluation["tail_bound"])))
        except ConvergenceViolation:
            evaluations.append(
                {"lambda": [lam.real, lam.imag], "nonconvergent": True}
            )
    doc = {
        "config_sha256": config.sha256,
        "variant": config.variant,
        "cutoff_L": config.word_cutoff,
        "delta_hat": terms.estimate.delta_hat,
        "delta_bracket": list(terms.estimate.bracket),
        "evaluations": evaluations,
    }
    return _write_json(out_dir / "zeta.json", doc)


def cmd_eta(config: RunConfig, out_dir: Path) -> Path:
    """JSON with the three eta routes and the factorization residual."""
    terms = _terms(config)
    est = terms.estimate
    # the identity check first: its F product is the command's memory
    # peak, and the routes' per-class factors, cached on the terms, need
    # not sit under it
    report = check_eta_F_identity(terms, config.inner_cutoff)
    routes = {
        route: eta(terms, route, quad_tol=config.quad_tol)
        for route in ETA_ROUTES
    }
    doc = {
        "config_sha256": config.sha256,
        "variant": config.variant,
        "cutoff_L": config.word_cutoff,
        "inner_cutoff": config.inner_cutoff,
        "delta_hat": est.delta_hat,
        "delta_bracket": list(est.bracket),
        "eta_by_route": routes,
        "residual_F_identity": report.residual,
        "identity_error_budget": _bound(report.error_budget),
        "central_cross_check": report.central_cross_check,
    }
    return _write_json(out_dir / "eta.json", doc)


#: kernels.csv columns: the row kind, where it is evaluated (t, r, lambda),
#: the heat-kernel parts, the kernel value, the Gaussian quadrature check
#: and a note naming a refusal, or ``AbsoluteFloor`` on a Gaussian row
#: whose reported_err exceeds |value| and so verifies no digit of the
#: closed form.  Each row kind is written from its own template, an empty
#: cell where the kind has no value and a number's repr where it has one.
_KERNEL_COLUMNS = (
    "kind", "t", "r", "lam_re", "lam_im",
    "p_plus_im", "p_minus_im", "plus_plus_minus", "p_middle",
    "value_re", "value_im",
    "gaussian_quad_re", "gaussian_quad_im", "gaussian_absdiff", "reported_err",
    "note",
)


#: the refusals a resolvent row of kernels.csv records as its note
_RESOLVENT_NOTES = (PoleOfGamma, AtDiagonal, NoConvergence)


def _resolvent_rows(lams, rs, at, d: int):
    """The resolvent and Dirac resolvent rows of kernels.csv at each
    (lambda, r) pair, whose formatted r, lam_re and lam_im cells ``at``
    holds, from one kernel pass per kind: a pair the kind refuses with
    one of ``_RESOLVENT_NOTES`` gets a note row, every other pair its
    value.  Any other refusal raises, the first in row order: only the r
    checks give one, and both kinds make them alike."""
    columns = []
    for kind, dirac in (("resolvent", False), ("dirac_resolvent", True)):
        values, refusals = _resolvent(lams, rs, d, dirac,
                                      keep=_RESOLVENT_NOTES)
        rows = []
        # tolist gives Python complex numbers: a numpy scalar's repr is not
        # a CSV cell
        for where, val, refusal in zip(at, values.tolist(), refusals):
            if refusal is None:
                rows.append(f"{kind},,{where},,,,,{val.real!r},{val.imag!r}"
                            ",,,,,")
            else:
                rows.append(f"{kind},,{where},,,,,,,,,,,"
                            f"{type(refusal).__name__}")
        columns.append(rows)
    return list(zip(*columns))


def cmd_kernels(config: RunConfig, out_dir: Path) -> Path:
    """CSV of kernel scalar values over the (t, r) and (lambda, r) grids."""
    lines = _metadata_lines(config, n=config.kernel_n, m=config.kernel_m,
                            d=config.kernel_d)
    lines.append(",".join(_KERNEL_COLUMNS))
    # each grid coordinate's cell, formatted once
    t_cells = [repr(t) for t in config.t_grid]
    r_cells = [repr(r) for r in config.r_grid]
    lam_cells = [f"{lam.real!r},{lam.imag!r}" for lam in config.lambda_grid]
    # p_plus of both kinds at every (t, r), t-major, from one call per kind;
    # tolist gives Python complex numbers, as the one-point functions do
    heat_t = [t for t in config.t_grid for _ in config.r_grid]
    heat_r = list(config.r_grid) * len(config.t_grid)
    spinor = heat_spinor_batch(heat_t, heat_r, config.kernel_n).tolist()
    signature = heat_signature_batch(heat_t, heat_r, config.kernel_m).tolist()
    heat_at = [f"{t},{r}" for t in t_cells for r in r_cells]
    for at, pp, sp in zip(heat_at, spinor, signature):
        pm, sm = -pp, -sp
        lines.append(f"heat_spinor,{at},,,{pp.imag!r},{pm.imag!r},"
                     f"{abs(pp + pm)!r},,,,,,,,")
        lines.append(f"heat_signature,{at},,,{sp.imag!r},{sm.imag!r},"
                     f"{abs(sp + sm)!r},0.0,,,,,,,")
    # every (lambda, r) pair, lambda-major: its two resolvent rows, then its
    # Gaussian row, which waits for one quadrature over every convergent
    # pair (its line index, where it is evaluated, its closed form)
    pair_lam = [lam for lam in config.lambda_grid for _ in config.r_grid]
    pair_r = list(config.r_grid) * len(config.lambda_grid)
    pair_at = [f"{r},{lam}" for lam in lam_cells for r in r_cells]
    resolvent = _resolvent_rows(pair_lam, pair_r, pair_at, config.kernel_d)
    gaussian, lams, rs = [], [], []
    for lam, r, at, rows in zip(pair_lam, pair_r, pair_at, resolvent):
        lines.extend(rows)
        try:
            closed = gaussian_time_integral(lam, r)
            gaussian.append((len(lines), at, closed))
            lams.append(lam)
            rs.append(r)
            lines.append(None)
        except DivergentIntegral:
            lines.append(f"gaussian,,{at},,,,,,,,,,,DivergentIntegral")
    quads, errs = gaussian_time_integral_quadrature(lams, rs,
                                                   tol=config.quad_tol)
    # Python numbers: a numpy scalar's repr is not a CSV cell
    for (index, at, closed), quad, err in zip(gaussian, quads.tolist(),
                                               errs.tolist()):
        note = "AbsoluteFloor" if err > abs(closed) else ""
        lines[index] = (f"gaussian,,{at},,,,,{closed.real!r},"
                        f"{closed.imag!r},{quad.real!r},{quad.imag!r},"
                        f"{abs(closed - quad)!r},{err!r},{note}")
    return _write_text(out_dir / "kernels.csv", "\n".join(lines) + "\n")


def cmd_scan(config: RunConfig, out_dir: Path) -> Path:
    """Pluriharmonicity scan over the three chart parameters.

    Writes scan.csv (one row per parameter, with harness-validation
    oracle columns and each oracle's error budget) and scan.json with the
    same content.
    """
    base = _scan_point(config)
    # one memoized eta for the three parameters: they share the base point,
    # so the scans evaluate 9, 8 and 8 new points, each set in one batch
    eta_fn = eta_on_chart(config.scan_cutoff, config.delta_cutoff,
                          config.eps_class)
    rows = []
    for idx in range(3):
        # the eta scan first: a step that leaves the Schottky domain is
        # refused before an oracle can overflow on it
        rep = pluriharmonicity_scan(base, idx, config.scan_h, eta_fn)
        oracles = {
            "harmonic": pluriharmonicity_scan(
                base, idx, config.scan_h,
                lambda points, i=idx: [((p[i] ** 3).real, 0.0)
                                       for p in points]),
            "nonharmonic": pluriharmonicity_scan(
                base, idx, config.scan_h,
                lambda points, i=idx: [(abs(p[i]) ** 2, 0.0)
                                       for p in points]),
        }
        if config.scan_oracle != "none":
            rep = oracles[config.scan_oracle]
        rows.append({
            "param_index": idx,
            "h": rep.h,
            "fd_laplacian": rep.fd_laplacian,
            "error_budget": rep.error_budget,
            **{f"oracle_{name}": report.fd_laplacian
               for name, report in oracles.items()},
            **{f"oracle_{name}_budget": report.error_budget
               for name, report in oracles.items()},
        })
    lines = _metadata_lines(config, scan_cutoff=config.scan_cutoff,
                            oracle=config.scan_oracle)
    lines.append(",".join(rows[0]))
    lines.extend(",".join(map(repr, r.values())) for r in rows)
    _write_text(out_dir / "scan.csv", "\n".join(lines) + "\n")
    doc = {
        "config_sha256": config.sha256,
        "scan_cutoff": config.scan_cutoff,
        "oracle": config.scan_oracle,
        "base_params": [[p.real, p.imag] for p in base.params],
        "rows": [{key: _bound(value) if key.endswith("budget") else value
                  for key, value in r.items()} for r in rows],
    }
    return _write_json(out_dir / "scan.json", doc)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "zeta": cmd_zeta,
    "eta": cmd_eta,
    "kernels": cmd_kernels,
    "scan": cmd_scan,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="oddzeta",
        description="Odd-type Selberg zeta, eta invariant and factorization "
                    "checks for Schottky hyperbolic 3-manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config")
        p.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        out_path = _COMMANDS[args.command](config, Path(args.out))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
