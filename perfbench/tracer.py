"""Per-layer spans recorded from outside the package.

The tracer replaces a package function with a wrapper that records a span
(name, start, end, parent) for each call, plus optional work counts taken
from the call's arguments. Modules bind names with ``from .x import y``, so a
function is looked up in several module namespaces; :data:`LAYERS` lists every
namespace that binds each traced function, and :func:`check_layer_map` fails
loudly when the package no longer matches that list. Spans stay in memory
until :meth:`Tracer.metrics` aggregates them.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Layer:
    """A traced package function and the metrics reported for it.

    ``name`` is the metric prefix, ``module``/``func`` locate the original
    definition, ``namespaces`` are the modules (relative to the package) that
    bind it, ``metrics`` are reported as ``<name>.<metric>``, and ``counts``
    maps a count metric to a function of the call's bound arguments.
    """

    name: str
    module: str
    func: str
    namespaces: tuple[str, ...]
    metrics: tuple[str, ...]
    counts: dict[str, Callable[[dict], int]] = field(default_factory=dict)


def _n(args: dict) -> int:
    return int(args["n"])


LAYERS = (
    Layer("rates.cb_db", "rates", "cb_db", ("rates", "montecarlo"),
          ("calls", "points", "busy_s"), {"points": lambda a: int(np.size(a["b"]))}),
    Layer("rates.omega", "rates", "omega", ("rates", "spacing"),
          ("calls", "busy_s", "self_s")),
    Layer("spacing.omega_sweep", "spacing", "omega_sweep", ("spacing",),
          ("busy_s", "self_s")),
    Layer("kernels.response_batch", "_kernels", "response_batch",
          ("_kernels", "polarization", "channel"),
          ("calls", "pairs", "busy_s", "pairs_per_s"),
          {"pairs": lambda a: int(np.shape(a["pos"])[0] * np.shape(a["elem"])[0])}),
    Layer("channel.channel_matrix", "channel", "channel_matrix", ("channel", "mission"),
          ("calls", "busy_s", "self_s")),
    Layer("geometry.rotation_matrices", "geometry", "rotation_matrices", ("geometry",),
          ("calls", "rows", "busy_s"),
          {"rows": lambda a: int(np.broadcast(a["roll"], a["pitch"], a["yaw"]).size)}),
    Layer("mission.run_mission", "mission", "run_mission", ("mission",),
          ("busy_s", "self_s")),
    Layer("mission.trajectory_position", "mission", "trajectory_position", ("mission",),
          ("calls", "busy_s")),
    Layer("mission.instantaneous_power", "mission", "instantaneous_power", ("mission",),
          ("calls",)),
    Layer("polarization.chi_batch", "polarization", "chi_batch",
          ("polarization", "montecarlo"), ("calls", "busy_s")),
    Layer("polarization.worst_case_gain", "polarization", "worst_case_gain",
          ("polarization",), ("busy_s", "self_s")),
    *(
        Layer(f"montecarlo.{func}", "montecarlo", func, ("montecarlo",),
              ("busy_s", "self_s", "samples"), {"samples": _n})
        for func in ("gain_cdf", "estimate_interference_moment",
                     "estimate_ergodic_rate", "validate_expectations")
    ),
    Layer("channel.instantaneous_sinr_mrc", "channel", "instantaneous_sinr_mrc",
          ("channel", "montecarlo", "mission"), ("calls", "busy_s")),
    Layer("channel.ml_estimate", "channel", "ml_estimate", ("channel", "mission"),
          ("calls", "busy_s")),
    Layer("geometry.sample_shell_positions", "geometry", "sample_shell_positions",
          ("geometry",), ("calls", "points", "busy_s"), {"points": _n}),
    Layer("cli.run_experiment", "cli", "run_experiment", ("cli",), ("busy_s", "self_s")),
    Layer("cli.parse_config", "cli", "parse_config", ("cli",), ("busy_s",)),
)


class LayerMapError(RuntimeError):
    "The package no longer binds a traced function where the layer map says."


def _modules(package: str) -> dict[str, object]:
    pkg = importlib.import_module(package)
    mods = {"": pkg}
    for info in pkgutil.walk_packages(pkg.__path__, package + "."):
        mods[info.name[len(package) + 1:]] = importlib.import_module(info.name)
    return mods


def check_layer_map(package: str, layers=LAYERS) -> None:
    """Raise :class:`LayerMapError` unless every layer's function exists and is
    bound in exactly the namespaces the layer lists.

    A missing binding means a refactor moved or renamed the function; an
    unlisted one means some caller's calls would escape the wrapper. Either
    way the layer's numbers would be wrong, so the map must be updated.
    """
    mods = _modules(package)
    problems = []
    for layer in layers:
        original = getattr(mods.get(layer.module), layer.func, None)
        if not callable(original):
            problems.append(f"{layer.name}: {package}.{layer.module}.{layer.func} is gone")
            continue
        for ns in layer.namespaces:
            if ns not in mods:
                problems.append(f"{layer.name}: module {package}.{ns} is gone")
            elif getattr(mods[ns], layer.func, None) is not original:
                problems.append(
                    f"{layer.name}: {package}.{ns} no longer binds {layer.func}")
        for ns, mod in mods.items():
            if ns in layer.namespaces:
                continue
            for attr, value in vars(mod).items():
                if value is original:
                    problems.append(
                        f"{layer.name}: {package}.{ns}.{attr} binds {layer.func} "
                        "but is not in the layer map")
    if problems:
        raise LayerMapError("layer map out of date:\n  " + "\n  ".join(problems))


class Tracer:
    """Records spans in memory; ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, parent = self.spans[idx]
            self.spans[idx] = (name, start, self.clock(), parent)

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if layer.counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, count in layer.counts.items():
                    key = f"{layer.name}.{metric}"
                    self.counts[key] = self.counts.get(key, 0) + count(bound.arguments)
            with self.span(layer.name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self, package: str, layers=LAYERS):
        "Wrap every layer's function in all its namespaces; restore on exit."
        check_layer_map(package, layers)
        mods = _modules(package)
        originals = []
        try:
            for layer in layers:
                fn = getattr(mods[layer.module], layer.func)
                wrapper = self._wrap(layer, fn)
                for ns in layer.namespaces:
                    originals.append((mods[ns], layer.func, fn))
                    setattr(mods[ns], layer.func, wrapper)
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)

    def top_level_s(self) -> float:
        "Summed duration of the spans that have no parent."
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def metrics(self, layers=LAYERS) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.

        ``calls`` counts spans, ``busy_s`` sums the spans not nested in a span
        of the same name, ``self_s`` sums each span minus its child spans, and
        ``pairs_per_s`` divides the pair count by ``busy_s``. A layer that was
        never called reports zeros.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + (end - start) - child[i]
            if not self._inside(parent, name):
                busy[name] = busy.get(name, 0.0) + (end - start)
        out: dict[str, float] = {}
        for layer in layers:
            b = busy.get(layer.name, 0.0)
            values = {
                "calls": calls.get(layer.name, 0),
                "busy_s": b,
                "self_s": own.get(layer.name, 0.0),
                **{m: self.counts.get(f"{layer.name}.{m}", 0) for m in layer.counts},
            }
            if "pairs_per_s" in layer.metrics:
                values["pairs_per_s"] = values["pairs"] / b if b > 0 else 0.0
            for metric in layer.metrics:
                out[f"{layer.name}.{metric}"] = values[metric]
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False


def metric_units(layers=LAYERS) -> dict[str, str]:
    "Unit of every per-layer metric :meth:`Tracer.metrics` reports."
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "pairs_per_s": "1/s"}
    return {
        f"{layer.name}.{metric}": units.get(metric, "count")
        for layer in layers
        for metric in layer.metrics
    }
