"""Per-layer spans recorded from outside the package.

The tracer replaces layer functions at the module attributes their callers
look up (``scenarios.evolve``, ``cli.compile``, ``optics.FockState``, the
entries of ``verify.CHECKS``, ...) with wrappers that record a span, and puts
the originals back afterwards.  Spans stay in memory as
``[name, start, end, parent index, operation id, raised, counts]`` until
the run writes them out.  A layer whose function no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

MODULES = ("mzsim", "mzsim.circuit", "mzsim.optics", "mzsim.fock",
           "mzsim.measurement", "mzsim.scenarios", "mzsim.cli", "mzsim.verify")


def _kets(_args, _kwargs, result):
    return {"kets": len(result)}


def _evolve_kets(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return {"kets_in": len(state), "kets_out": len(result)}


def _density_entries(_args, _kwargs, result):
    return {"entries": len(result.entries)}


def _trace_entries(args, kwargs, result):
    rho = args[0] if args else kwargs["rho"]
    return {"entries_in": len(rho.entries), "entries_out": len(result.entries)}


#: (span name, defining module, attribute, counter, wrap every importer).
#: A layer function is wrapped in every mzsim module that holds the same
#: object, so calls through ``from .x import f`` are seen too.  FockState is
#: wrapped only where evolve constructs it: it is a class, and other modules
#: use it for isinstance checks and class methods.
LAYERS = (
    ("circuit.compile", "mzsim.circuit", "compile", None, True),
    ("optics.evolve", "mzsim.optics", "evolve", _evolve_kets, True),
    ("fock.FockState", "mzsim.optics", "FockState", _kets, False),
    ("optics.transition_amplitude", "mzsim.optics", "transition_amplitude",
     None, True),
    ("measurement.pattern_probability", "mzsim.measurement",
     "pattern_probability", None, True),
    ("measurement.density_from_pure", "mzsim.measurement",
     "density_from_pure", _density_entries, True),
    ("measurement.partial_trace", "mzsim.measurement", "partial_trace",
     _trace_entries, True),
    ("scenarios.scan", "mzsim.scenarios", "_scan_values", None, True),
    ("scenarios.scan", "mzsim.scenarios", "run_projection_scan", None, True),
    ("scenarios.scan", "mzsim.cli", "_run_sweep", None, True),
    ("scenarios.fit", "mzsim.scenarios", "_fit_samples", None, True),
    ("cli.main", "mzsim.cli", "main", None, True),
)

#: The counters each counting span reports, zero when it was never called.
COUNTS = {"optics.evolve": ("kets_in", "kets_out"), "fock.FockState": ("kets",),
          "measurement.density_from_pure": ("entries",),
          "measurement.partial_trace": ("entries_in", "entries_out")}

SCAN = "scenarios.scan"
EVOLVE = "optics.evolve"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = None

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op,
                    False, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[6] = counter(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    span[6] = False
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                pass
        self.present = set()
        for span, home, attr, counter, everywhere in LAYERS:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                continue
            self.present.add(span)
            wrapped = self.wrap(span, original, counter)
            sites = modules.values() if everywhere else [modules[home]]
            for module in sites:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        verify = modules.get("mzsim.verify")
        checks = getattr(verify, "CHECKS", None)
        if checks is not None:
            self.present.update(f"verify.{name}" for name, _ in checks)
            self._patch(verify, "CHECKS", tuple(
                (name, self.wrap(f"verify.{name}", fn)) for name, fn in checks))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self, op_id):
        """Trace one operation; the package is back to normal on exit."""
        self._op = op_id
        self.install()
        try:
            yield
        finally:
            self.restore()
            self._op = None


def aggregate(spans, present, ops: int) -> dict:
    """Per-operation layer metrics: calls, self time, errors and counts.

    Every span in ``present`` is reported, with zeros if it never ran; a
    counter that could not read its span's result is left out.  Self time
    is a span's duration minus the durations of its child spans; calls on
    one thread nest, so children never overlap.
    """
    layers = {name: dict.fromkeys(("calls", "self_s", "errors")
                                  + COUNTS.get(name, ()), 0)
              for name in present}
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    uncounted = set()
    for i, (name, start, end, _parent, _op, raised, counts) in enumerate(spans):
        entry = layers[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child[i]
        entry["errors"] += raised
        if counts is False:
            uncounted.add(name)
        for key, value in (counts or {}).items():
            entry[key] += value
    metrics = {}
    for name, entry in layers.items():
        for key, value in entry.items():
            if key in COUNTS.get(name, ()) and name in uncounted:
                continue
            metrics[f"{name}.{key}"] = value / ops
    if SCAN in present and EVOLVE in present:
        scans = layers[SCAN]["calls"]
        scanned = sum(1 for i, span in enumerate(spans)
                      if span[0] == EVOLVE and _under(spans, i, SCAN))
        metrics["scenarios.evolves_per_scan"] = scanned / scans if scans else 0.0
    return metrics


def _under(spans, index: int, name: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False
