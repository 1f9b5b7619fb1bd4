"""Timing spans swapped onto ginprod's public functions from outside.

The benchmark never edits the package. Instead :func:`install` replaces
every public function of the traced modules with a wrapper that records a
span (start, end, parent on the same thread) and rebinds the wrapper
wherever another ginprod module imported the function by name, so calls
made through ``from .x import f`` bindings are seen too. It returns a
callable that puts every original back.

Spans are aggregated as they close: per-name call counts, total
(inclusive) time and self time, where self time is the span's duration
minus the durations of its direct children on the same thread. Each
thread keeps its own span stack, and the shared totals are updated under
one lock, so the recorder stays exact under ``--workers 2`` thread pools.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

#: Modules traced, as (short layer name, module path).
LAYERS = (
    ("combinatorics", "ginprod.combinatorics"),
    ("beta_poly", "ginprod.beta_poly"),
    ("moment_engine", "ginprod.moment_engine"),
    ("edge_analysis", "ginprod.edge_analysis"),
    ("verify", "ginprod.verify"),
    ("montecarlo", "ginprod.montecarlo"),
    ("cli", "ginprod.cli"),
)

#: One-line integer helpers (math.comb and friends behind a type check).
#: A span costs more than their bodies, so they stay inside their callers.
LEAF_HELPERS = frozenset({
    "combinatorics.binomial",
    "combinatorics.factorial",
    "combinatorics.falling_factorial",
})


class Recorder:
    """Aggregates closed spans; safe to share between threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.sample_product_s: list[float] = []
        self.counters: dict[str, float] = {}

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, on_close=None):
        stack = self._stack()
        frame = [0.0]  # time covered by direct children
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + duration
                self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
                if name == "montecarlo.sample_product":
                    self.sample_product_s.append(duration)
        if on_close is not None:
            extra = on_close(args, kwargs, result, duration)
            with self._lock:
                for key, value in extra.items():
                    self.counters[key] = self.counters.get(key, 0.0) + value
        return result

    def summary(self) -> dict:
        with self._lock:
            return {
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "sample_product_ms": [d * 1e3 for d in self.sample_product_s],
                "counters": dict(self.counters),
            }


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _draw_factors_extra(args, kwargs, result, duration):
    return {"montecarlo.draw_factors.bytes": sum(w.nbytes for w in result)}


def _sample_product_extra(args, kwargs, result, duration):
    spec = _arg(args, kwargs, 0, "spec")
    # (m - 1) dense n x n products; a complex multiply-add is 8 real flops.
    per_product = (8 if spec.field == "complex" else 2) * spec.n**3
    return {"montecarlo.sample_product.flop": (spec.m - 1) * per_product}


def _collect_spectra_extra(args, kwargs, result, duration):
    config = _arg(args, kwargs, 1, "config")
    return {"montecarlo.collect_spectra.capacity_s": duration * config.workers}


_EXTRAS = {
    "montecarlo.draw_factors": _draw_factors_extra,
    "montecarlo.sample_product": _sample_product_extra,
    "montecarlo.collect_spectra": _collect_spectra_extra,
}


def _wrap(recorder: Recorder, name: str, fn):
    on_close = _EXTRAS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, on_close)

    wrapper.span_name = name
    return wrapper


def _ginprod_modules():
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module is not None and (module_name == "ginprod" or module_name.startswith("ginprod."))
    ]


def _public_functions() -> dict[str, object]:
    """Span name -> original function for every traced public function."""
    found = {}
    for layer, module_name in LAYERS:
        module = sys.modules[module_name]
        for attr in module.__all__:
            obj = getattr(module, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and obj.__module__ == module_name and name not in LEAF_HELPERS:
                found[name] = obj
    return found


def install(recorder: Recorder):
    """Swap wrappers in everywhere the originals are bound; return the undo."""
    originals = _public_functions()
    wrappers = {id(fn): _wrap(recorder, name, fn) for name, fn in originals.items()}
    swapped = []
    for module in _ginprod_modules():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
                swapped.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in swapped:
            setattr(module, attr, value)

    return restore


def wrapped_bindings() -> list[str]:
    """Module attributes that still hold a span wrapper (empty after restore)."""
    return [
        f"{module.__name__}.{attr}"
        for module in _ginprod_modules()
        for attr, value in vars(module).items()
        if hasattr(value, "span_name")
    ]
