"""Per-layer tracing from outside the program.

The tracer replaces public lzsim callables at the module attributes their
callers look up (``lzsim.spectra.bessel_j``, ``lzsim.cli.write_table``, ...)
and, for the two ``SpectralEvolution`` methods, on the class.  No program
file changes.  Each wrapper records calls and self time: the call's
duration minus the time spent in wrapped callees.  Some layers also record a
computed work count (substeps, matrix dimension, ...), derived from the
arguments with the same formula the program uses; counts repeat exactly from
run to run, so they show whether a change did less work.

A name that no longer exists is reported as absent instead of failing, so a
later change that deletes a wrapped function does not have to edit the
benchmark.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

# (module, attribute, metric name).  An attribute "Class.method" is wrapped
# on the class.
LAYERS = (
    ("cli", "main", "cli.main"),
    ("config", "resolve", "config.resolve"),
    ("output", "write_table", "output.write_table"),
    ("dynamics", "propagate_semiclassical", "dynamics.propagate_semiclassical"),
    ("dynamics", "SpectralEvolution.__init__", "dynamics.SpectralEvolution.init"),
    ("dynamics", "SpectralEvolution.traces", "dynamics.SpectralEvolution.traces"),
    ("dynamics", "dominant_frequency", "dynamics.dominant_frequency"),
    ("dynamics", "estimate_decay_time", "dynamics.estimate_decay_time"),
    ("models", "rabi_hamiltonian", "models.rabi_hamiltonian"),
    ("models", "coherent_state", "models.coherent_state"),
    ("models", "grwa_state", "models.grwa_state"),
    ("specfun", "assoc_laguerre_scaled", "specfun.assoc_laguerre_scaled"),
    ("specfun", "displaced_fock_overlap", "specfun.displaced_fock_overlap"),
    ("specfun", "bessel_j", "specfun.bessel_j"),
    ("spectra", "bessel_laguerre_identity_error", "spectra.bessel_laguerre_identity_error"),
    ("spectra", "comparison_grid", "spectra.comparison_grid"),
    ("spectra", "fit_amplitude_shift", "spectra.fit_amplitude_shift"),
    ("spectra", "exact_splitting", "spectra.exact_splitting"),
)


def _substeps(bound, result):
    # the stepper's own subdivision rule: ceil(dt / base - 1e-12) per interval
    base = 2.0 * math.pi / bound.arguments["steps_per_period"]
    times = bound.arguments["grid"].times()
    total = 0
    for dt in (times[1:] - times[:-1]).tolist():
        total += max(1, math.ceil(dt / base - 1e-12))
    return total


def _path_bytes(bound, result):
    path = bound.arguments["path"]
    if path is None or path == "-":
        return 0
    return os.path.getsize(path)


# metric name -> (count name, function of the bound arguments and the result)
COUNTERS = {
    "dynamics.propagate_semiclassical": (
        "dynamics.propagate_semiclassical.substeps", _substeps),
    "dynamics.SpectralEvolution.init": (
        "dynamics.SpectralEvolution.dim",
        lambda bound, result: bound.arguments["cavity"].dim),
    "dynamics.SpectralEvolution.traces": (
        "dynamics.SpectralEvolution.traces.mode_samples",
        lambda bound, result: bound.arguments["self"].cavity.dim
        * bound.arguments["grid"].samples),
    "specfun.assoc_laguerre_scaled": (
        "specfun.assoc_laguerre_scaled.degree_sum",
        lambda bound, result: bound.arguments["n"]),
    "output.write_table": ("output.bytes", _path_bytes),
}


def metric_names(layers=LAYERS):
    """Every per-layer metric a traced job reports, in a stable order."""
    names = []
    for _, _, name in layers:
        names += [f"{name}.calls", f"{name}.self_s"]
        if name in COUNTERS:
            names.append(COUNTERS[name][0])
    return names


class Tracer:
    """Wraps the listed layers while installed; records only while active."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.active = False
        self.absent: list[str] = []
        self.counts = dict.fromkeys(metric_names(layers), 0)
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every count, in place (the wrappers hold this dict)."""
        for name in self.counts:
            self.counts[name] = 0.0 if name.endswith(".self_s") else 0

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "lzsim" or key.startswith("lzsim."))]
        for module_name, attr, name in self.layers:
            owner = sys.modules.get(f"lzsim.{module_name}")
            owner_attr = attr
            if owner is not None and "." in attr:
                cls_name, owner_attr = attr.split(".", 1)
                owner = getattr(owner, cls_name, None)
            original = None if owner is None else getattr(owner, owner_attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, owner_attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name, fn):
        table = self.counts
        stack = self._stack
        calls_key, self_key = f"{name}.calls", f"{name}.self_s"
        counter_key, count = COUNTERS.get(name, (None, None))
        signature = inspect.signature(fn) if count else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                elapsed = clock() - start
                stack.pop()
                table[calls_key] += 1
                table[self_key] += elapsed - child[0]
                if done and count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    table[counter_key] += count(bound, result)
                if stack:
                    # the caller's self time excludes this call and its
                    # bookkeeping, so counting work costs no layer any time
                    stack[-1][0] += clock() - start
            return result

        return wrapper
