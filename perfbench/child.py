"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py RESULT_JSON {setup|run|trace} CLI_ARGS...

Times the set-up (importing ``oddzeta.cli``, loading the config, building
the generators) and then ``oddzeta.cli.main(CLI_ARGS)`` separately, and
writes both times and the exit code to RESULT_JSON.  ``setup`` stops
after set-up.  ``trace`` installs the per-layer call tracer after set-up
and adds its aggregate to RESULT_JSON.  The package is imported from
``src/`` of the checkout this file sits in.

The machine this runs on changes speed by up to ~1.9x within seconds
(other tenants share its cores), and process CPU time moves with wall
time, so neither is steady.  A speed probe therefore runs a fixed piece
of pure-Python work at the start and end of each timed phase and every
``PROBE_INTERVAL_S`` inside it (from a SIGALRM handler, so it interleaves
with the operation in this process).  Each phase reports its wall time
net of the probes (``*_s``) and that time rescaled to a machine on which
one probe takes ``NOMINAL_PROBE_S`` (``*_ref_s``).  The rescaling is done
per interval: the stretch of phase between two consecutive probes counts
its wall length times the mean of ``NOMINAL_PROBE_S / probe time`` of
those two probes, so work done while the machine is slow or fast is
weighted by the time it actually took (a trapezoid rule for the integral
of dt / slowdown).
"""

import json
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

PROBE_ITERATIONS = 2000
PROBE_INTERVAL_S = 0.1
# one probe on an otherwise idle 2-core Intel Xeon, Python 3.11
NOMINAL_PROBE_S = 0.0008


def _probe_step(k: int) -> float:
    z = complex(k % 7, 1.0) * (0.5 - 0.25j)
    return abs(z * z.conjugate() - 1.0) + math.sqrt(k + 1.0)


class SpeedProbe:
    def __init__(self):
        self.samples = []  # (start, duration)

    def sample(self, *_signal_args):
        start = time.perf_counter()
        acc = 0.0
        for k in range(PROBE_ITERATIONS):
            acc += _probe_step(k)
        self.samples.append((start, time.perf_counter() - start))

    def timed(self, phase):
        """Run ``phase()``; return (result, net seconds, reference seconds)."""
        self.sample()
        first = len(self.samples)
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = phase()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
        stop = start + wall
        inside = self.samples[first:]
        self.sample()
        net = wall - sum(d for _, d in inside)
        # probes bounding each stretch of phase, and the stretches' ends
        rates = [NOMINAL_PROBE_S / d for _, d in
                 [self.samples[first - 1], *inside, self.samples[-1]]]
        edges = [start, *(x for s, d in inside for x in (s, s + d)), stop]
        ref = sum((edges[2 * i + 1] - edges[2 * i])
                  * 0.5 * (rates[i] + rates[i + 1])
                  for i in range(len(rates) - 1))
        return result, net, ref


def main(result_path: str, mode: str, cli_args) -> int:
    result = {"rc": None}
    probe = SpeedProbe()
    probe.sample()  # warm the probe's code path before the first phase
    try:
        def setup():
            sys.path.insert(0, str(HERE.parent / "src"))
            import oddzeta.cli as cli
            from oddzeta import sample_groups
            from oddzeta.config import load_config

            config = load_config(cli_args[cli_args.index("--config") + 1])
            if config.preset is not None:
                sample_groups.sample_group(config.preset)
            return cli

        cli, result["setup_s"], result["setup_ref_s"] = probe.timed(setup)
        if mode == "setup":
            result["rc"] = 0
            return 0
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(HERE))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        rc, result["command_s"], result["command_ref_s"] = probe.timed(
            lambda: cli.main(cli_args))
        result["rc"] = rc
        if tracer is not None:
            result["trace"] = tracer.report()
        return rc
    finally:
        sys.stdout.flush()
        Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
