"""Outside-in tracing of impact_game: spans and counts at module-global names.

The package calls its layers through module-global names (``thresholds``
calls ``build_matrices``, ``cli`` calls ``sweep``, ...).  `Tracer.install`
rebinds those names to timing wrappers, so every call the package makes
through them is recorded without touching its source:

* a span {id, name, start, end, parent, op} per call of a SPANNED name;
* a count {name, parent, op, size} per call of a COUNTED name (per-iteration
  functions, too frequent to span).

Span names are ``<defining module>.<function>`` whatever namespace the call
came through.  Classes are rebound to a proxy that spans construction
(including ``TimeGrid.equidistant``) and still answers isinstance checks.
A name a later package version no longer has is skipped, so its spans are
simply absent.  Spans are kept in memory; the worker derives per-layer
metrics from them at exit.

Worker threads (``sweep`` runs searches in a thread pool) keep their own
span stack; a span opened on an empty worker stack takes the innermost
span open on the main thread as its parent, which for a single caller is
the ``sweep`` call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time

#: module -> names rebound to span-recording wrappers
SPANNED = {
    "impact_game": [
        "GameParams", "TimeGrid", "nash_equilibrium", "best_response",
        "solve_stationary", "v_identity_deviation", "w_identity_deviation",
    ],
    "impact_game.cli": [
        "main", "GameParams", "TimeGrid", "nash_equilibrium", "sweep",
        "validate_moments", "validate_cara", "solve_stationary", "infinite_nash",
    ],
    "impact_game.finite_game": ["build_matrices", "kernel_eval"],
    "impact_game.thresholds": [
        "GameParams", "TimeGrid", "build_matrices", "critical_theta_v", "critical_theta_w",
    ],
    "impact_game.simulation": [
        "GameParams", "build_matrices", "realized_costs", "impacted_path", "kernel_eval",
    ],
    "impact_game.infinite_game": [
        "GameParams", "TimeGrid", "build_matrices", "solve_alpha", "solve_beta",
    ],
}

#: module -> names rebound to call counters
COUNTED = {
    "impact_game.thresholds": ["oscillation_report"],
    "impact_game.infinite_game": ["alpha_residual", "beta_residual"],
}


def _matrices_info(result, args, kwargs):
    return {"size": int(result.full.shape[0])}


def _equilibrium_info(result, args, kwargs):
    return {
        "size": int(result.v.size),
        "foc_residual": float(result.foc_residual),
        "condition": float(max(result.condition_v, result.condition_w)),
    }


def _best_response_info(result, args, kwargs):
    return {"size": len(result)}


def _search_info(result, args, kwargs):
    steps = kwargs.get("steps", args[1] if result.which == "v" else args[0])
    return {"steps": int(steps), "evaluations": int(result.evaluations), "converged": bool(result.converged)}


#: span name -> function(result, args, kwargs) giving extra span fields
EXTRACT = {
    "finite_game.build_matrices": _matrices_info,
    "finite_game.nash_equilibrium": _equilibrium_info,
    "finite_game.best_response": _best_response_info,
    "thresholds.critical_theta_v": _search_info,
    "thresholds.critical_theta_w": _search_info,
}


def _canonical(obj) -> str:
    return f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__qualname__}"


class _ClassProxy:
    """Stand-in for a class: constructors are spanned, isinstance still works."""

    def __init__(self, cls, wrap):
        self._cls = cls
        self._wrap = wrap
        self._construct = wrap(cls)

    def __call__(self, *args, **kwargs):
        return self._construct(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self._cls, attr)
        if callable(value) and not attr.startswith("_"):
            return self._wrap(value)
        return value

    def __instancecheck__(self, obj):
        return isinstance(obj, self._cls)

    def __subclasscheck__(self, sub):
        return issubclass(sub, self._cls)


class Tracer:
    """Span and count recorder; `op` tags records with the current operation."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.op = None
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._installed: list = []

    def _parent(self, stack):
        if stack:
            return stack[-1]["id"]
        main = self._stacks.get(self._main)
        return main[-1]["id"] if main else None

    def _span_wrapper(self, fn, name: str):
        extract = EXTRACT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            record = {"id": next(self._ids), "name": name, "parent": self._parent(stack), "op": self.op}
            stack.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(record)
            if extract is not None:
                try:
                    record.update(extract(result, args, kwargs))
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the extra fields, not the span
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stacks.get(threading.get_ident())
            size = getattr(args[0], "size", None) if args else None
            self.counts.append({"name": name, "parent": self._parent(stack), "op": self.op, "size": size})
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every SPANNED and COUNTED name that exists in this package version."""
        wrappers: dict[int, object] = {}

        def span(fn):
            # a bound classmethod such as TimeGrid.equidistant is named after its class
            return self._span_wrapper(fn, _canonical(getattr(fn, "__self__", fn)))

        for table, make in ((SPANNED, None), (COUNTED, self._count_wrapper)):
            for module_name, names in table.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    original = getattr(module, attr, None)
                    if original is None:
                        continue
                    if id(original) not in wrappers:
                        if make is not None:
                            wrappers[id(original)] = make(original, _canonical(original))
                        elif isinstance(original, type):
                            wrappers[id(original)] = _ClassProxy(original, span)
                        else:
                            wrappers[id(original)] = span(original)
                    self._installed.append((module, attr, original))
                    setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children.get(s["id"], [])):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def max_concurrency(intervals) -> int:
    """Largest number of simultaneously open intervals."""
    events = sorted([(a, 1) for a, _ in intervals] + [(b, -1) for _, b in intervals])
    level = peak = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak
