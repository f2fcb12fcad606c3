"""Span tracer that wraps kernelgauge's public functions from outside.

Modules import each other with `from .x import y`, so every module keeps
its own binding of a function.  `Tracer.install` therefore replaces the
original object in every loaded kernelgauge module that holds it (and
class attributes on their class), so no call path escapes its span.

Each wrapped call adds one to its span's call count and its self time,
its duration minus the durations of the wrapped calls it directly made on
the same thread, to the span's total; calls made in sweep pool threads
start a fresh stack of their own.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _gram_counts(tracer, args, kwargs, result, start, end):
    basis = args[0] if args else kwargs["basis"]
    measure = args[1] if len(args) > 1 else kwargs["measure"]
    nodes = len(measure.points)
    nb = len(basis.exponents)
    tracer.add("kernels.gram.nodes", nodes)
    tracer.add("kernels.gram.flop_computed", 8 * nodes * nb * nb)


def _area_counts(tracer, args, kwargs, result, start, end):
    tracer.add("geometry.area_nodes", len(result.nodes))


def _laurent_counts(tracer, args, kwargs, result, start, end):
    series, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    tracer.add("potential.laurent_terms", len(series.coeffs) * np.size(z))


def _verify_counts(tracer, args, kwargs, result, start, end):
    tracer.add(f"verifier.verdict.{result.verdict}", 1)
    tracer.sweep_point(start, end)


# (defining module, attribute path, span name, counter hook)
TARGETS = (
    ("kernelgauge.kernels", "gram", "kernels.gram", _gram_counts),
    ("kernelgauge.kernels", "BasisDescriptor.matrix", "kernels.basis_matrix", None),
    ("kernelgauge.kernels", "kernel_diag", "verifier.kernel_diag", None),
    ("kernelgauge.geometry", "area_quadrature", "geometry.area_quadrature", _area_counts),
    ("kernelgauge.geometry", "mask_quadrature", "geometry.mask_quadrature", None),
    ("kernelgauge.geometry", "boundary_quadrature", "geometry.boundary_quadrature", None),
    ("kernelgauge.potential", "LaurentSeries.__call__", "potential.laurent_eval", _laurent_counts),
    ("kernelgauge.potential", "green", "potential.green", None),
    ("kernelgauge.weights", "WeightConfig.rho", "weights.rho", None),
    ("kernelgauge.weights", "WeightConfig.boundary_lambda", "weights.boundary_lambda", None),
    ("kernelgauge.weights", "validate_config", "weights.validate_config", None),
    ("kernelgauge.weights", "CProfile.h", "weights.profile_tail", None),
    ("kernelgauge.numerics", "constrained_min", "numerics.constrained_min", None),
    ("kernelgauge.numerics", "cho_factor", "numerics.cholesky", None),
    ("kernelgauge.gfunctional", "g_of_t", "gfunctional.g_of_t", None),
    ("kernelgauge.gfunctional", "f0_construct", "gfunctional.f0_construct", None),
    ("kernelgauge.verifier", "verify", "verifier.verify", _verify_counts),
    ("kernelgauge.cli", "cmd_sweep", "cli.sweep", None),
)

# Reported as <span>.calls, as <span>.self_s, and counters as they are.
CALLS = ("kernels.gram", "geometry.area_quadrature", "geometry.mask_quadrature", "potential.laurent_eval",
         "potential.green", "weights.profile_tail", "numerics.constrained_min", "numerics.cholesky",
         "gfunctional.g_of_t", "verifier.verify", "verifier.kernel_diag")
SELF = ("kernels.gram", "kernels.basis_matrix", "geometry.area_quadrature", "geometry.mask_quadrature",
        "geometry.boundary_quadrature", "potential.laurent_eval", "potential.green", "weights.rho",
        "weights.boundary_lambda", "weights.validate_config", "numerics.constrained_min", "numerics.cholesky",
        "gfunctional.g_of_t", "gfunctional.f0_construct", "verifier.verify")
COUNTERS = ("kernels.gram.nodes", "kernels.gram.flop_computed", "geometry.area_nodes", "potential.laurent_terms",
            "verifier.verdict.pass", "verifier.verdict.inconclusive", "verifier.verdict.fail")


class Tracer:
    """In-memory call counts, self times and counters; safe to use from the sweep's pool threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._sweep_start: float | None = None
        self.sweep_points: list[tuple[float, float]] = []   # (wait, duration)
        self.sweep_threads: set[int] = set()

    # -- recording ---------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)   # time covered by direct children
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
                with tracer._lock:
                    tracer.calls[name] += 1
                    tracer.self_s[name] += end - start - children
            if hook is not None:
                hook(tracer, args, kwargs, result, start, end)
            return result

        return traced

    def marking_sweep(self, fn):
        """Wrap cmd_sweep so verify calls inside it are recorded as sweep points."""

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            self._sweep_start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._sweep_start = None

        return marked

    def sweep_point(self, start: float, end: float) -> None:
        if self._sweep_start is not None:
            with self._lock:
                self.sweep_points.append((start - self._sweep_start, end - start))
                self.sweep_threads.add(threading.get_ident())

    # -- installing --------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target in the loaded kernelgauge modules."""
        for module_name, *_ in TARGETS:
            importlib.import_module(module_name)
        modules = [m for n, m in sorted(sys.modules.items()) if n == "kernelgauge" or n.startswith("kernelgauge.")]
        for module_name, path, span, hook in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(span, original, hook)
            if span == "cli.sweep":
                wrapped = self.marking_sweep(wrapped)
            if cls_path:
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting ---------------------------------------------------

    def originals_left(self) -> list[str]:
        """Bindings in loaded kernelgauge modules that still hold an unwrapped target."""
        originals = {id(original) for _, _, original in self._patches}
        return [f"{name}.{key}" for name, module in sorted(sys.modules.items())
                if name == "kernelgauge" or name.startswith("kernelgauge.")
                for key, value in vars(module).items() if id(value) in originals]

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s = self.calls, self.self_s
        out: dict[str, float] = {}
        for name in CALLS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF:
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTERS:
            out[name] = self.counters.get(name, 0)
        chol = calls["numerics.cholesky"]
        out["numerics.cholesky_first_try_ratio"] = calls["numerics.constrained_min"] / chol if chol else 0.0
        waits = [w for w, _ in self.sweep_points]
        durations = [d for _, d in self.sweep_points]
        out["cli.sweep.point_s"] = statistics.median(durations) if durations else 0.0
        out["cli.sweep.wait_s"] = statistics.median(waits) if waits else 0.0
        return out
