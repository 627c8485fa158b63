"""End-to-end and per-layer benchmark of the ``oddzeta`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark is a closed loop with one
caller: it runs one operation at a time, each an ``oddzeta`` subcommand in
a fresh interpreter (``child.py``), so no in-memory state survives between
repeats.  One pass over a workload's operations is a cycle; cycles repeat
for about ``--seconds`` seconds (at least two, so repeats can be compared).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over cycles of the command time (set-up excluded) and of the peak RSS,
and the median set-up time.  ``--trace 1`` runs every cycle once untraced
and once with the per-layer tracer (``tracer.py``) and reports the
per-layer metrics, plus the traced-minus-untraced command time as
``trace.overhead_s``.

Every operation passes the correctness gate in ``gate.py``; outputs of
one config must be byte-identical across repeats and between traced and
untraced runs.  A human-readable report precedes the final line, which
is one JSON object.  Run records, spans and outputs go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

MIN_CYCLES = 2
SETUP_PROBES = 5
OP_TIMEOUT_S = 120.0
# layers whose call counts the trace report lists per operation
CALL_REPORT = ("words.enumerate_classes", "words.estimate_delta",
               "zeta.terms_from_group", "zograf.check_eta_F_identity",
               "zograf.pluriharmonicity_scan", "quadrature.integrate")


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(label, value) of the highest percentile with at least ten samples
    above it, or None with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return f"p{100 * k // n}", sorted(values)[k - 1]


def tree_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def run_child(work: Path, tag: str, mode: str, cli_args) -> dict:
    """Run child.py to completion; its result plus exit code and peak RSS."""
    result_path = work / f"{tag}.result.json"
    with open(work / f"{tag}.stdout", "wb") as out, \
            open(work / f"{tag}.stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(result_path), mode,
             *cli_args], stdout=out, stderr=err, cwd=work)
        deadline = time.monotonic() + OP_TIMEOUT_S
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                timed_out = True
                break
            time.sleep(0.01)
    # reaped by wait4 above (for its rusage); tell Popen so it never waits
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = (json.loads(result_path.read_text())
              if result_path.exists() else {})
    result["exit"] = proc.returncode
    result["timed_out"] = timed_out
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["stderr"] = (work / f"{tag}.stderr").read_text(errors="replace")
    return result


class Run:
    def __init__(self, workload: str, seed: int, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.work = work
        self.configs = work / "configs"
        self.ops = WORKLOADS[workload]
        self.digests = {}
        self.problems = []
        self.physics = {}
        self.attempted = 0
        self.failed = 0
        self.known_failures = 0
        self.cycles = []
        self.setup_samples = []
        self.spans = []

    def run_op(self, cycle: int, index: int, traced: bool) -> dict:
        from oddzeta.config import load_config

        op = self.ops[index]
        tag = f"c{cycle}-op{index}" + ("-traced" if traced else "")
        out = self.work / "out" / tag
        config_path = self.configs / op.config
        cli_args = [op.subcommand, "--config", str(config_path),
                    "--out", str(out)]
        res = run_child(self.work, tag, "trace" if traced else "run", cli_args)
        res.update(subcommand=op.subcommand, probe=op.probe, traced=traced)
        self.attempted += 1
        problems = []
        physics = None
        config = load_config(str(config_path))
        if res["timed_out"]:
            problems.append(f"timed out after {OP_TIMEOUT_S:.0f} s")
        elif op.probe:
            outcome, problems = gate.check_probe(res["exit"], res["stderr"],
                                                 out)
            res["outcome"] = outcome
            self.known_failures += outcome == "known_failure"
        elif res["exit"] != 0:
            problems.append(f"exit {res['exit']}: {res['stderr'][-300:]}")
        else:
            try:
                problems, physics = self.check_output(op.subcommand, config,
                                                      out, cycle, res)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if res["exit"] == 0 and not res["timed_out"]:
            key = (op.subcommand, op.config)
            digest = tree_digest(out)
            first = self.digests.setdefault(key, digest)
            if digest != first:
                problems.append(
                    f"{op.subcommand} {op.config} output differs from the "
                    f"first repeat{' (traced run)' if traced else ''}")
        if physics is not None:
            self.physics.setdefault(f"{op.subcommand} {op.config}", physics)
        if problems:
            self.failed += 1
            self.problems.append(
                f"{tag} {op.subcommand}: " + "; ".join(problems))
        res["ok"] = not problems and res["exit"] == 0
        if traced and "trace" in res:
            self.spans.append({"cycle": cycle, "subcommand": op.subcommand,
                               "config": op.config, **res["trace"]})
        if cycle > 0:
            shutil.rmtree(out, ignore_errors=True)
        return res

    def check_output(self, subcommand, config, out: Path, cycle: int, res):
        if subcommand == "spectrum":
            from oddzeta import sample_groups

            gens = sample_groups.sample_group(config.preset).generators
            return gate.check_spectrum(
                (out / "spectrum.csv").read_text(), config.word_cutoff, gens,
                sample_seed=self.seed * 1000 + cycle)
        if subcommand == "zeta":
            res["doc"] = json.loads((out / "zeta.json").read_text())
            return gate.check_zeta(res["doc"], config.lambda_grid)
        if subcommand == "eta":
            res["doc"] = json.loads((out / "eta.json").read_text())
            return gate.check_eta(res["doc"], config.quad_tol)
        if subcommand == "scan":
            return gate.check_scan((out / "scan.csv").read_text())
        return gate.check_kernels((out / "kernels.csv").read_text(),
                                  len(config.t_grid), len(config.r_grid),
                                  len(config.lambda_grid))

    def run_cycle(self, cycle: int):
        plain = [self.run_op(cycle, i, False) for i in range(len(self.ops))]
        docs = {r["subcommand"]: r.get("doc") for r in plain
                if not r["probe"] and r["ok"]}
        if docs.get("zeta") and docs.get("eta"):
            for text in gate.check_central_identity(docs["zeta"], docs["eta"]):
                self.problems.append(f"cycle {cycle}: {text}")
        traced = []
        if self.trace:
            traced = [self.run_op(cycle, i, True)
                      for i, op in enumerate(self.ops) if not op.probe]
        self.cycles.append({"plain": plain, "traced": traced})


def machine_facts() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def timed(ops):
    return [r for r in ops if not r["probe"]]


def good_cycles(run: Run, traced: bool = False):
    return [c for c in run.cycles
            if all(r["ok"] for r in timed(c["plain"]))
            and (not traced or (c["traced"]
                                and all(r["ok"] for r in c["traced"])))]


def cycle_time(ops) -> float:
    return sum(r["command_ref_s"] for r in timed(ops))


def end_to_end(run: Run) -> dict:
    good = good_cycles(run)
    return {
        "command_s": median([cycle_time(c["plain"]) for c in good]),
        "setup_s": median([r["setup_ref_s"] for r in run.setup_samples]),
        "peak_rss_mb": median([max(r["peak_rss_mb"] for r in timed(c["plain"]))
                               for c in good]),
    }


def per_layer(run: Run, names) -> dict:
    """Per-cycle sums over the traced operations, median over cycles.
    Times are rescaled to reference seconds with each operation's own
    probe factor, like the end-to-end times."""
    good = good_cycles(run, traced=True)
    sums = []
    for c in good:
        total = {}
        for r in c["traced"]:
            scale = r["command_ref_s"] / r["command_s"]
            for layer, fields in r["trace"]["layers"].items():
                for field, value in fields.items():
                    key = f"{layer}.{field}"
                    if field.endswith("_s"):
                        value *= scale
                    total[key] = total.get(key, 0) + value
        sums.append(total)
    counts = [{k: v for k, v in s.items() if not k.endswith("_s")}
              for s in sums]
    if any(c != counts[0] for c in counts):
        run.problems.append("traced cycles disagree on call counts")
    values = {name: (median if name.endswith("_s") else statistics.median_low)(
                  [s.get(name, 0) for s in sums])
              for name in names if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (
        median([cycle_time(c["traced"]) for c in good])
        - median([cycle_time(c["plain"]) for c in good]))
    return values


def report_lines(run: Run, metrics: dict, units: dict) -> list:
    lines = [f"workload {run.workload}  seed {run.seed}  trace "
             f"{int(run.trace)}  cycles {len(run.cycles)}  operations "
             f"{run.attempted}  (times in reference seconds; raw wall "
             "seconds in brackets)"]
    for name, value in metrics.items():
        lines.append(f"  {name:<50} {value:>14.6g} {units[name]}")
    by_sub = {}
    for c in run.cycles:
        for r in timed(c["plain"]):
            if r["ok"]:
                by_sub.setdefault(r["subcommand"], []).append(r)
    rows = sorted(by_sub.items())
    if not run.trace:
        rows.append(("setup", run.setup_samples))
    for sub, ops in rows:
        phase = "setup" if sub == "setup" else "command"
        ref = [r[f"{phase}_ref_s"] for r in ops]
        raw = [r[f"{phase}_s"] for r in ops]
        t, t_raw = tail(ref), tail(raw)
        t_text = (f"{t[0]} {t[1]:.4f} s [{t_raw[1]:.4f}]" if t
                  else "no tail percentile")
        lines.append(f"  {sub + '_s':<50} median {median(ref):.4f} s "
                     f"[{median(raw):.4f}], {t_text}, n={len(ops)}")
    if run.trace:
        for c in run.cycles[:1]:
            for r in c["traced"]:
                calls = {k: v["calls"]
                         for k, v in sorted(r["trace"]["layers"].items())
                         if k in CALL_REPORT}
                lines.append(f"  calls per {r['subcommand']} operation: "
                             + ", ".join(f"{k} {v}" for k, v in calls.items()))
    errors = run.failed + run.known_failures
    lines.append(f"  {'error_rate':<50} {errors / max(run.attempted, 1):>14.6g}"
                 f" ratio ({errors}/{run.attempted}: {run.known_failures} "
                 f"known near-abscissa failures, {run.failed} gate failures)")
    for key, physics in sorted(run.physics.items()):
        lines.append(f"  physics {key}: {json.dumps(physics, sort_keys=True)}")
    for text in run.problems:
        lines.append(f"  PROBLEM {text}")
    return lines


def baseline_lines(run: Run) -> list:
    """Compare the physics record with the committed baseline's record for
    the same workload and seed, when there is one."""
    path = HERE / "baseline.json"
    if not path.is_file():
        return []
    known = (json.loads(path.read_text())["workloads"].get(run.workload, {})
             .get("physics", {}).get(str(run.seed)))
    if known is None:
        return []
    current = json.loads(json.dumps(run.physics))
    differ = sorted(k for k in set(known) | set(current)
                    if known.get(k) != current.get(k))
    return [f"  physics vs baseline.json, seed {run.seed}: "
            + (f"DIFFERS in {', '.join(differ)}" if differ else "identical")]


def check_configs(run: Run, files: dict):
    if generate(run.seed) != files:
        run.problems.append(
            "config generation is not deterministic for this seed")
    committed = HERE / "configs"
    reference = generate(0)
    for name, text in reference.items():
        path = committed / name
        if not path.is_file() or path.read_text() != text:
            run.problems.append(
                f"perfbench/configs/{name} differs from generate(0)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "oddzeta" / "cli.py").is_file() \
            or not spec_path.is_file():
        print(f"error: no oddzeta checkout at {ROOT} (need src/oddzeta and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    work = (ROOT / ".perfbench_work"
            / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    run = Run(args.workload, args.seed, bool(args.trace), work)
    files = generate(args.seed)
    for name, text in files.items():
        (work / "configs" / name).write_text(text)
    check_configs(run, files)

    setup_args = ["setup", "--config",
                  str(run.configs / run.ops[0].config), "--out", str(work)]
    run_child(work, "warmup", "setup", setup_args)  # byte-compiles src/
    start = time.monotonic()
    for i in range(SETUP_PROBES):
        res = run_child(work, f"setup{i}", "setup", setup_args)
        if res["exit"] == 0:
            run.setup_samples.append(res)
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        if len(run.cycles) >= MIN_CYCLES and \
                elapsed + 0.5 * last > args.seconds:
            break
        cycle_start = time.monotonic()
        run.run_cycle(len(run.cycles))
        last = time.monotonic() - cycle_start
        run.setup_samples.extend(
            r for r in timed(run.cycles[-1]["plain"]) if r["ok"])
        if run.failed:
            break

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(run, names)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = end_to_end(run)
    correct = not run.problems
    for line in report_lines(run, metrics, units) + baseline_lines(run):
        print(line)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(), "correct": correct,
        "attempted": run.attempted, "failed": run.failed,
        "known_failures": run.known_failures, "cycles": len(run.cycles),
        "metrics": {k: {"value": v if v == v else None, "unit": units[k]}
                    for k, v in metrics.items()},
        "physics": run.physics, "problems": run.problems,
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        (work / "spans.json").write_text(json.dumps(run.spans) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
