"""Outside-in layer trace of the program, installed from the benchmark.

Nothing in the program is edited.  The tracer replaces, for the duration of
the traced rounds only:

* every function in a layer module's ``__all__`` where another layer module
  (or ``cli``) has imported it, so only cross-layer calls become spans;
* the ``apply`` method of every exported assignment class;
* ``numpy.linalg.eigvalsh``, counting each matrix of a stacked call;
* ``cli.run`` and ``cli.render_report``, the calls the benchmark makes.

Counts are read from the values the wrapped calls return.  A name that a
later version of the program no longer exports is listed in ``missing`` and
the metrics that depend on it read ``None``.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict

SPAN_FIELDS = ("name_id", "start_ns", "end_ns", "parent_index", "count")
LAYERS = ("operators", "assignments", "compatibility", "dynamics")
CALLERS = ("assignments", "compatibility", "dynamics", "cli")
EIGVALSH = "numpy.linalg.eigvalsh"


def _one(result, args):
    return 1


# counter name and how to read it from a call's result and arguments
COUNTERS = {
    "random_density": ("draws", _one),
    "random_pure": ("draws", _one),
    "random_unitary": ("draws", _one),
    "positivity_certificate": ("probes", lambda r, a: r.probes),
    "equal_env_certificate": ("probes", lambda r, a: r.positivity.probes),
    "boundary_along_ray": ("bisection_steps", lambda r, a: r.iterations),
    "domain_volume": ("domain_samples", lambda r, a: r.samples),
    "simplex_domain_check": ("domain_samples", lambda r, a: r.probes),
    "induced_map": ("induced_maps", _one),
    "classical_cp_sweep": ("induced_maps", lambda r, a: r.maps_checked),
    "find_noncp_unitary": ("induced_maps", lambda r, a: r.attempts),
    EIGVALSH: ("eig_matrices", lambda r, a: r.size // r.shape[-1]),
}

# names each per-layer metric needs; it reads None when one is missing
REQUIRES = {
    "operators.draws": ("random_density", "random_pure", "random_unitary"),
    "assignments.apply_calls": ("apply",),
    "assignments.probes": ("positivity_certificate", "equal_env_certificate"),
    "assignments.probes_per_s": ("positivity_certificate", "equal_env_certificate"),
    "compatibility.bisection_steps": ("boundary_along_ray",),
    "compatibility.bisection_steps_per_s": ("boundary_along_ray",),
    "compatibility.domain_samples": ("domain_volume", "simplex_domain_check"),
    "dynamics.induced_maps": ("induced_map", "classical_cp_sweep", "find_noncp_unitary"),
    "dynamics.maps_per_s": ("induced_map", "classical_cp_sweep", "find_noncp_unitary"),
}


class Tracer:
    """Wraps the layer boundaries of a loaded ``assignlab`` package."""

    def __init__(self, cli):
        self.cli = cli
        self.names: list = []  # span name by id
        self.layers: list = []  # layer by name id
        self.counters: list = []  # counter name (or None) by name id
        self.spans: list = []  # spans of the current round
        self.rounds: list = []  # finished rounds, packed by end_round
        self.missing: set = set()
        self._stack = [-1]
        self._patches: list = []
        self._found: set = set()  # exported names the program still has

    # -- installing -------------------------------------------------------

    def _wrapper(self, name: str, layer: str, fn, key: str | None = None):
        """``fn`` recording one span per call; ``key`` selects its counter."""
        counter, count = COUNTERS.get(key, (None, None))
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.counters.append(counter)
        spans, stack, clock, missing = self.spans, self._stack, time.perf_counter, self.missing

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, 0)
            if count is not None:
                try:
                    spans[index] = (name_id, start, end, parent, count(result, args))
                except (AttributeError, TypeError, IndexError, ZeroDivisionError):
                    missing.add(key)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary listed in the module docstring; ``uninstall`` undoes it."""
        package = self.cli.__name__.rpartition(".")[0]
        modules = {}
        for name in LAYERS + CALLERS:
            try:
                modules[name] = importlib.import_module(f"{package}.{name}")
            except ImportError:
                self.missing.add(f"module {name}")
        for layer in LAYERS:
            module = modules.get(layer)
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._found.add(name)
                    for caller in CALLERS:
                        other = modules.get(caller)
                        if other is not None and other is not module \
                                and getattr(other, name, None) is fn:
                            self._patch(other, name,
                                        self._wrapper(f"{caller}->{layer}.{name}", layer, fn, name))
        assignments = modules.get("assignments")
        for name in getattr(assignments, "__all__", ()):
            cls = getattr(assignments, name, None)
            if inspect.isclass(cls) and inspect.isfunction(cls.__dict__.get("apply")):
                self._found.add("apply")
                self._patch(cls, "apply", self._wrapper(f"{name}.apply", "assignments",
                                                        cls.__dict__["apply"]))
        import numpy.linalg

        self._patch(numpy.linalg, "eigvalsh",
                    self._wrapper(EIGVALSH, "operators", numpy.linalg.eigvalsh, EIGVALSH))
        self._patch(self.cli, "run", self._wrapper("cli.run", "cli", self.cli.run))
        self._patch(self.cli, "render_report",
                    self._wrapper("cli.render_report", "cli", self.cli.render_report))
        for names in REQUIRES.values():
            self.missing.update(name for name in names if name not in self._found)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_round(self) -> list:
        """Close the current round, keep its spans packed and return them."""
        spans = list(self.spans)
        self.spans.clear()
        t0 = spans[0][1] if spans else 0.0
        packed = array("q")
        for name_id, start, end, parent, count in spans:
            packed.extend((name_id, round((start - t0) * 1e9), round((end - t0) * 1e9),
                           parent, count))
        self.rounds.append(packed)
        return spans

    # -- reading ----------------------------------------------------------

    def summarise(self, spans: list) -> dict:
        """Per-round raw counts and seconds, keyed by per-layer metric name."""
        names, layers, counters = self.names, self.layers, self.counters
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s = defaultdict(float)
        counts = defaultdict(int)
        busy = defaultdict(float)  # seconds inside the spans that carry a count
        calls = defaultdict(int)
        for i, (name_id, start, end, parent, count) in enumerate(spans):
            name, layer = names[name_id], layers[name_id]
            dur = end - start
            self_s[layer] += dur - child_s[i]
            counter = counters[name_id]
            if counter is not None:
                counts[counter] += count
                busy[counter] += dur
            if name == EIGVALSH:
                calls["eig"] += 1
                if parent >= 0 and layers[spans[parent][0]] == "dynamics":
                    counts["choi"] += count
                    busy["choi"] += dur
            elif name.endswith(".apply"):
                calls["apply"] += 1
            elif name == "cli.run":
                self_s["cli.run"] += dur - child_s[i]
            elif name == "cli.render_report":
                busy["render"] += dur
            if layer == "dynamics" and (parent < 0 or layers[spans[parent][0]] != "dynamics"):
                busy["dynamics"] += dur
        return {
            "operators.eig_calls": ("count", calls["eig"]),
            "operators.eig_matrices": ("count", counts["eig_matrices"]),
            "operators.eig_s": ("s", busy["eig_matrices"]),
            "operators.draws": ("count", counts["draws"]),
            "operators.self_s": ("s", self_s["operators"]),
            "assignments.apply_calls": ("count", calls["apply"]),
            "assignments.probes": ("count", counts["probes"]),
            "assignments.probes_per_s": ("1/s", _rate(counts["probes"], busy["probes"])),
            "assignments.self_s": ("s", self_s["assignments"]),
            "compatibility.bisection_steps": ("count", counts["bisection_steps"]),
            "compatibility.bisection_steps_per_s":
                ("1/s", _rate(counts["bisection_steps"], busy["bisection_steps"])),
            "compatibility.domain_samples": ("count", counts["domain_samples"]),
            "compatibility.self_s": ("s", self_s["compatibility"]),
            "dynamics.induced_maps": ("count", counts["induced_maps"]),
            "dynamics.maps_per_s": ("1/s", _rate(counts["induced_maps"], busy["dynamics"])),
            "dynamics.choi_per_s": ("1/s", _rate(counts["choi"], busy["choi"])),
            "dynamics.self_s": ("s", self_s["dynamics"]),
            "cli.runner_self_s": ("s", self_s["cli.run"]),
            "cli.render_s": ("s", busy["render"]),
        }

    def unavailable(self, metric: str) -> bool:
        """True when a name the metric needs was not found in the program."""
        return any(name in self.missing for name in REQUIRES.get(metric, ()))

    def span_count(self) -> int:
        return sum(len(packed) for packed in self.rounds) // len(SPAN_FIELDS)

    def write(self, path: str) -> None:
        """All spans as JSON: per round, one flat list of ``span_fields`` groups.

        Times are in ns from the round's first span; ``parent_index`` counts
        spans within the round, -1 for a call made by the benchmark itself.
        """
        head = json.dumps({
            "names": self.names,
            "layers": self.layers,
            "span_fields": SPAN_FIELDS,
        }, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-1] + ',"rounds":[')
            for i, packed in enumerate(self.rounds):
                fh.write(("," if i else "") + json.dumps(packed.tolist(), separators=(",", ":")))
            fh.write("]}\n")


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
