"""Command-line surface: spectrum | zeta | eta | kernels | scan.

Every output file embeds the sha256 of the config text plus the cutoffs
that produced it, and contains nothing time- or machine-dependent, so
identical configs give byte-identical files.

Exit codes: 0 ok, 2 config or I/O error, 3 precondition violation,
4 numerical nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from . import sample_groups
from .config import RunConfig, load_config
from .errors import (
    AtDiagonal,
    BoundaryPoint,
    ConfigError,
    ConvergenceViolation,
    CutoffTooLarge,
    DegenerateConfiguration,
    DeltaNotNegative,
    DivergentIntegral,
    IndexOutOfRange,
    LeftSchottkyDomain,
    NoConvergence,
    NonConvergent,
    NonPrimitiveInput,
    NotInvertible,
    NotLoxodromic,
    PoleAt,
    PoleAtC,
    PoleOfGamma,
    UndefinedAtCorner,
)
from .kernels import (
    KernelPoint,
    dirac_resolvent_scalar,
    gaussian_time_integral,
    gaussian_time_integral_quadrature,
    heat_scalar_signature,
    heat_scalar_spinor,
    resolvent_scalar,
)
from .moebius import MoebiusMap, classify, geodesic_invariants, normalize_schottky
from .words import enumerate_classes, estimate_delta, evaluate_word, word_to_str
from .zeta import eta, terms_from_group, zeta_odd
from .zograf import (
    SchottkyPoint,
    check_eta_F_identity,
    pluriharmonicity_scan,
    point_params,
)

_PRECONDITION_ERRORS = (
    DeltaNotNegative, NotLoxodromic, DegenerateConfiguration, BoundaryPoint,
    NonPrimitiveInput, LeftSchottkyDomain, IndexOutOfRange, CutoffTooLarge,
    NotInvertible, UndefinedAtCorner, AtDiagonal,
)
_NUMERICAL_ERRORS = (
    NonConvergent, NoConvergence, ConvergenceViolation, DivergentIntegral,
    PoleAt, PoleAtC, PoleOfGamma, ArithmeticError,
)


def _group_generators(config: RunConfig) -> Sequence[MoebiusMap]:
    if config.preset is not None:
        try:
            return sample_groups.sample_group(config.preset).generators
        except KeyError as exc:
            raise ConfigError(f"[group] unknown preset {config.preset!r}") from exc
    if config.generators is None:
        raise ConfigError("[group] needs a preset or generator matrices")
    return config.generators


def _scan_point(config: RunConfig) -> SchottkyPoint:
    if config.preset is not None:
        try:
            return sample_groups.sample_group(config.preset)
        except KeyError as exc:
            raise ConfigError(f"[group] unknown preset {config.preset!r}") from exc
    gens = _group_generators(config)
    if len(gens) != 2:
        raise ConfigError("[group] the scan chart needs exactly 2 generators")
    normalized = normalize_schottky(gens)
    point = SchottkyPoint(generators=tuple(normalized),
                          params=(0j, 0j, 0j))
    params = point_params(point)
    return SchottkyPoint(generators=tuple(normalized), params=params)


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


def cmd_spectrum(config: RunConfig, out_dir: Path) -> Path:
    """CSV table of conjugacy classes with their geodesic invariants."""
    gens = _group_generators(config)
    classes = enumerate_classes(len(gens), config.word_cutoff)
    lines = _metadata_lines(config, cutoff_L=config.word_cutoff)
    lines.append("word,length,j,primitive,ell,theta,q_re,q_im")
    for cls in classes:
        m = evaluate_word(gens, cls.representative)
        kind = classify(m, config.eps_class)
        if kind != "loxodromic":
            raise NotLoxodromic(
                f"word {word_to_str(cls.representative)} is {kind}"
            )
        inv = geodesic_invariants(m, config.eps_class)
        lines.append(
            f"{word_to_str(cls.representative)},{cls.word_length},{cls.j},"
            f"{int(cls.primitive)},{inv.length!r},{inv.theta!r},"
            f"{inv.q.real!r},{inv.q.imag!r}"
        )
    return _write_text(out_dir / "spectrum.csv", "\n".join(lines) + "\n")


def cmd_zeta(config: RunConfig, out_dir: Path) -> Path:
    """JSON array of truncated zeta evaluations over the lambda grid."""
    gens = _group_generators(config)
    est = estimate_delta(gens, config.delta_cutoff)
    terms = terms_from_group(gens, config.word_cutoff, config.variant,
                             config.spin_sign, eps_class=config.eps_class)
    evaluations = []
    for lam in config.lambda_grid:
        if lam.real <= est.delta_hat:
            evaluations.append(
                {"lambda": [lam.real, lam.imag], "nonconvergent": True}
            )
        else:
            ev = zeta_odd(terms, lam, rank=len(gens), delta_hat=est.delta_hat)
            evaluations.append(ev.to_json_dict())
    doc = {
        "config_sha256": config.sha256,
        "variant": config.variant,
        "cutoff_L": config.word_cutoff,
        "delta_hat": est.delta_hat,
        "delta_bracket": list(est.bracket),
        "evaluations": evaluations,
    }
    return _write_text(out_dir / "zeta.json",
                       json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_eta(config: RunConfig, out_dir: Path) -> Path:
    """JSON with the three eta routes and the factorization residual."""
    gens = _group_generators(config)
    est = estimate_delta(gens, config.delta_cutoff)
    if est.delta_hat >= 0:
        raise DeltaNotNegative(f"delta_hat = {est.delta_hat:.6g} >= 0")
    terms = terms_from_group(gens, config.word_cutoff, config.variant,
                             config.spin_sign, eps_class=config.eps_class)
    routes = {
        route: eta(terms, route, delta_hat=est.delta_hat, rank=len(gens),
                   quad_tol=config.quad_tol)
        for route in ("central_value", "lambda_integral", "heat_quadrature")
    }
    # the identity is stated for the signature variant under "plus"
    if (config.variant, config.spin_sign) == ("signature", "plus"):
        identity_terms = terms
    else:
        identity_terms = terms_from_group(gens, config.word_cutoff,
                                          eps_class=config.eps_class)
    report = check_eta_F_identity(identity_terms, config.inner_cutoff,
                                  est.delta_hat, len(gens))
    doc = {
        "config_sha256": config.sha256,
        "variant": config.variant,
        "cutoff_L": config.word_cutoff,
        "inner_cutoff": config.inner_cutoff,
        "delta_hat": est.delta_hat,
        "delta_bracket": list(est.bracket),
        "eta_by_route": routes,
        "residual_F_identity": report.residual,
        "identity_error_budget": report.error_budget,
        "central_cross_check": report.central_cross_check,
    }
    return _write_text(out_dir / "eta.json",
                       json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_kernels(config: RunConfig, out_dir: Path) -> Path:
    """CSV of kernel scalar values over the (t, r) and (lambda, r) grids."""
    lines = _metadata_lines(config, n=config.kernel_n, m=config.kernel_m,
                            d=config.kernel_d)
    lines.append(
        "kind,t,r,lam_re,lam_im,p_plus_im,p_minus_im,plus_plus_minus,"
        "p_middle,value_re,value_im,gaussian_quad_re,gaussian_quad_im,"
        "gaussian_absdiff,reported_err,note"
    )

    def row(kind, t="", r="", lam=None, fields=None, note=""):
        lam_re = f"{lam.real!r}" if lam is not None else ""
        lam_im = f"{lam.imag!r}" if lam is not None else ""
        cells = {name: "" for name in (
            "p_plus_im", "p_minus_im", "plus_plus_minus", "p_middle",
            "value_re", "value_im", "gaussian_quad_re", "gaussian_quad_im",
            "gaussian_absdiff", "reported_err")}
        cells.update(fields or {})
        return (f"{kind},{t},{r},{lam_re},{lam_im},{cells['p_plus_im']},"
                f"{cells['p_minus_im']},{cells['plus_plus_minus']},"
                f"{cells['p_middle']},{cells['value_re']},{cells['value_im']},"
                f"{cells['gaussian_quad_re']},{cells['gaussian_quad_im']},"
                f"{cells['gaussian_absdiff']},{cells['reported_err']},{note}")

    for t in config.t_grid:
        for r in config.r_grid:
            pp, pm = heat_scalar_spinor(KernelPoint(r=r, t=t, n=config.kernel_n))
            lines.append(row("heat_spinor", f"{t!r}", f"{r!r}", fields={
                "p_plus_im": f"{pp.imag!r}", "p_minus_im": f"{pm.imag!r}",
                "plus_plus_minus": f"{abs(pp + pm)!r}",
            }))
            sp, sm, mid = heat_scalar_signature(
                KernelPoint(r=r, t=t, n=config.kernel_n), config.kernel_m
            )
            lines.append(row("heat_signature", f"{t!r}", f"{r!r}", fields={
                "p_plus_im": f"{sp.imag!r}", "p_minus_im": f"{sm.imag!r}",
                "plus_plus_minus": f"{abs(sp + sm)!r}",
                "p_middle": f"{mid!r}",
            }))
    for lam in config.lambda_grid:
        for r in config.r_grid:
            point = KernelPoint(r=r, lam=lam)
            try:
                val = resolvent_scalar(point, config.kernel_d)
                lines.append(row("resolvent", "", f"{r!r}", lam, {
                    "value_re": f"{val.real!r}", "value_im": f"{val.imag!r}"}))
            except (PoleOfGamma, AtDiagonal) as exc:
                lines.append(row("resolvent", "", f"{r!r}", lam,
                                 note=type(exc).__name__))
            try:
                val = dirac_resolvent_scalar(point, config.kernel_d)
                lines.append(row("dirac_resolvent", "", f"{r!r}", lam, {
                    "value_re": f"{val.real!r}", "value_im": f"{val.imag!r}"}))
            except (PoleOfGamma, AtDiagonal) as exc:
                lines.append(row("dirac_resolvent", "", f"{r!r}", lam,
                                 note=type(exc).__name__))
            try:
                closed = gaussian_time_integral(lam, r)
                quad, err = gaussian_time_integral_quadrature(
                    lam, r, tol=config.quad_tol
                )
                lines.append(row("gaussian", "", f"{r!r}", lam, {
                    "value_re": f"{closed.real!r}",
                    "value_im": f"{closed.imag!r}",
                    "gaussian_quad_re": f"{quad.real!r}",
                    "gaussian_quad_im": f"{quad.imag!r}",
                    "gaussian_absdiff": f"{abs(closed - quad)!r}",
                    "reported_err": f"{err!r}",
                }))
            except DivergentIntegral:
                lines.append(row("gaussian", "", f"{r!r}", lam,
                                 note="DivergentIntegral"))
    return _write_text(out_dir / "kernels.csv", "\n".join(lines) + "\n")


def cmd_scan(config: RunConfig, out_dir: Path) -> Path:
    """Pluriharmonicity scan over the three chart parameters.

    Writes scan.csv (one row per parameter, with harness-validation
    oracle columns) and scan.json with the same content.
    """
    base = _scan_point(config)
    rows = []
    for idx in range(3):
        oracles = {
            "harmonic": pluriharmonicity_scan(
                base, idx, config.scan_h, config.scan_cutoff,
                value_fn=lambda params, i=idx: (params[i] ** 3).real,
            ),
            "nonharmonic": pluriharmonicity_scan(
                base, idx, config.scan_h, config.scan_cutoff,
                value_fn=lambda params, i=idx: abs(params[i]) ** 2,
            ),
        }
        if config.scan_oracle == "none":
            rep = pluriharmonicity_scan(base, idx, config.scan_h,
                                        config.scan_cutoff,
                                        delta_cutoff=config.delta_cutoff)
        else:
            rep = oracles[config.scan_oracle]
        rows.append({
            "param_index": idx,
            "h": rep.h,
            "fd_laplacian": rep.fd_laplacian,
            "error_budget": rep.error_budget,
            "oracle_harmonic": oracles["harmonic"].fd_laplacian,
            "oracle_nonharmonic": oracles["nonharmonic"].fd_laplacian,
        })
    lines = _metadata_lines(config, scan_cutoff=config.scan_cutoff,
                            oracle=config.scan_oracle)
    lines.append("param_index,h,fd_laplacian,error_budget,"
                 "oracle_harmonic,oracle_nonharmonic")
    for r in rows:
        lines.append(
            f"{r['param_index']},{r['h']!r},{r['fd_laplacian']!r},"
            f"{r['error_budget']!r},{r['oracle_harmonic']!r},"
            f"{r['oracle_nonharmonic']!r}"
        )
    _write_text(out_dir / "scan.csv", "\n".join(lines) + "\n")
    doc = {
        "config_sha256": config.sha256,
        "scan_cutoff": config.scan_cutoff,
        "oracle": config.scan_oracle,
        "base_params": [[p.real, p.imag] for p in base.params],
        "rows": rows,
    }
    return _write_text(out_dir / "scan.json",
                       json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
