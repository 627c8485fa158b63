"""Per-layer call tracer for the ``oddzeta`` package.

``Tracer.install()`` wraps every public function defined in an
``oddzeta.<module>`` and rebinds the wrapper in *every* module namespace
(and the ``cli`` subcommand table) that holds the original, so calls made
through ``from .moebius import classify`` are traced as well.  A layer is
named ``<module>.<function>``; the CLI subcommands are ``cli.<name>`` and
``zeta.eta`` is split by route into ``zeta.eta.<route>``.

Spans are aggregated in memory per layer and per (parent, layer) edge:
calls, total time (outermost call only, so recursion is not counted
twice) and self time (duration minus the time of child spans).  A few
layers also count the work they are handed; see ``_COUNTERS``.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# layer -> (counter name, (bound arguments, result) -> amount)
_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "words.enumerate_classes": ("classes", lambda a, r: len(r)),
    "zeta.terms_from_group": ("terms", lambda a, r: len(r)),
    "words.shell_displacements": (
        "words", lambda a, r: sum(len(shell) for shell in r)),
    "summation.chunked_sum_complex": ("items", lambda a, r: len(a["items"])),
    "zograf.zograf_F": (
        "factors",
        lambda a, r: len(a["primitive_terms"]) * (a["inner_cutoff"] + 1)),
}


class Tracer:
    def __init__(self):
        self.layers: Dict[str, Dict[str, float]] = {}
        self.edges: Dict[Tuple[Optional[str], str], List[float]] = {}
        self._stack: List[list] = []
        self._active: Dict[str, int] = {}

    def _span(self, name: str, call: Callable):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            self._active[name] = depth
            if self._stack:
                self._stack[-1][1] += elapsed
            layer = self.layers.get(name)
            if layer is None:
                layer = self.layers[name] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0}
            layer["calls"] += 1
            layer["self_s"] += elapsed - frame[1]
            if depth == 0:
                layer["total_s"] += elapsed
            edge = self.edges.setdefault((parent, name), [0, 0.0])
            edge[0] += 1
            edge[1] += elapsed

    def _count(self, name: str, counter: str, amount: int):
        layer = self.layers[name]
        layer[counter] = layer.get(counter, 0) + amount

    def _wrap(self, name: str, fn: Callable) -> Callable:
        sig = inspect.signature(fn)
        counter = _COUNTERS.get(name)

        if name == "quadrature.integrate":
            def integrate(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                integrand = bound.arguments["f"]
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return integrand(x)

                bound.arguments["f"] = counted
                try:
                    return self._span(
                        name, lambda: fn(*bound.args, **bound.kwargs))
                finally:
                    self._count(name, "integrand_evals", evals[0])
            return integrate

        if name == "zeta.eta":
            def eta(*args, **kwargs):
                route = sig.bind(*args, **kwargs).arguments.get(
                    "route", sig.parameters["route"].default)
                return self._span(f"zeta.eta.{route}",
                                  lambda: fn(*args, **kwargs))
            return eta

        if counter is not None:
            label, measure = counter

            def counting(*args, **kwargs):
                result = self._span(name, lambda: fn(*args, **kwargs))
                arguments = sig.bind(*args, **kwargs)
                arguments.apply_defaults()
                self._count(name, label, measure(arguments.arguments, result))
                return result
            return counting

        def plain(*args, **kwargs):
            return self._span(name, lambda: fn(*args, **kwargs))
        return plain

    def install(self) -> None:
        """Wrap and rebind every public function of the loaded package."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "oddzeta" or name.startswith("oddzeta.")}
        wrappers = {}
        for modname, mod in modules.items():
            if modname == "oddzeta":
                continue
            short = modname.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != modname):
                    continue
                if short == "cli" and attr.startswith("cmd_"):
                    name = f"cli.{attr[4:]}"
                else:
                    name = f"{short}.{attr}"
                wrappers[obj] = self._wrap(name, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]

    def report(self) -> dict:
        return {
            "layers": self.layers,
            "edges": [[parent, name, calls, total]
                      for (parent, name), (calls, total)
                      in sorted(self.edges.items(),
                                key=lambda kv: (kv[0][0] or "", kv[0][1]))],
        }
