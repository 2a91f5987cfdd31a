"""Per-layer timers installed around the public functions of each layer.

A traced run replaces every binding of a layer's public functions with a
wrapper that records self time (time inside the call minus time inside
nested traced calls), call counts, evaluation steps for calls that take
an ``EvalBudget``, and characters parsed.  The package's modules import
names with ``from ... import``, so a function can have several bindings;
every binding the callers look up is replaced by one shared wrapper and
restored to the original object afterwards.  Nothing under ``src/`` is
edited: the wrappers exist only between ``Tracer.install`` and
``Tracer.uninstall``.
"""

from __future__ import annotations

import fnmatch
import functools
import inspect
import sys
import time
from dataclasses import dataclass

from retargeter.met.syntax import EvalBudget

# Layer name -> (module that defines the functions, name patterns).
LAYERS = {
    "met.interp": ("retargeter.met.interp", ("eval_met", "apply_met_function")),
    "domains": ("retargeter.domains", ("abs_add", "abs_mul", "abs_eq", "join", "filter_*",
                                       "eta*", "abs_proj*", "met_value_to_abs")),
    "peval": ("retargeter.peval", ("specialize", "residual_stats")),
    "met.parser": ("retargeter.met.parser", ("parse_met",)),
    "met.printer": ("retargeter.met.printer", ("print_met",)),
    "analyzer": ("retargeter.analyzer", ("analyze_meta*",)),
    "retargeting": ("retargeter.retargeting", ("run_specialized*", "retarget", "check_*")),
    "srclang": ("retargeter.srclang", ("embed_src_*", "eval_src", "random_src_expr")),
    "tgtlang": ("retargeter.tgtlang", ("parse_tgt_program", "encode_*", "eval_tgt",
                                       "random_tgt_program")),
    "cli": ("retargeter.cli", ("main",)),
}

MARKER = "__perfbench_layer__"


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    steps: int = 0
    step_calls: int = 0
    chars: int = 0
    counting: bool = False


def layer_functions(layer: str) -> list:
    """The functions of ``layer``: those defined in its module whose
    names match one of its patterns."""
    module_name, patterns = LAYERS[layer]
    module = sys.modules[module_name]
    return [obj for name, obj in sorted(vars(module).items())
            if inspect.isfunction(obj) and obj.__module__ == module_name
            and any(fnmatch.fnmatchcase(name, p) for p in patterns)]


def bindings_of(functions) -> list[tuple[object, str, object]]:
    """Every ``(module, attribute, function)`` in a loaded ``retargeter``
    module whose value is one of ``functions``."""
    wanted = {id(f) for f in functions}
    found = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "retargeter" or name.startswith("retargeter.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in wanted and inspect.isfunction(value):
                found.append((module, attr, value))
    return found


def installed_wrappers() -> list[str]:
    """Names of bindings that currently hold a wrapper (for hygiene checks)."""
    return [f"{module.__name__}.{attr}"
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "retargeter" or name.startswith("retargeter."))
            for attr, value in vars(module).items()
            if getattr(value, MARKER, None) is not None]


class Tracer:
    """Self-time accounting over the wrapped layers of one process."""

    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        functions = {layer: layer_functions(layer) for layer in LAYERS}
        self._wrappers = {id(f): self._wrap(f, layer)
                          for layer, fs in functions.items() for f in fs}
        self._bindings = bindings_of([f for fs in functions.values() for f in fs])

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, original in self._bindings:
            setattr(module, attr, self._wrappers[id(original)])
            self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in self._saved:
            setattr(module, attr, original)
        self._saved.clear()

    def originals(self) -> list[tuple[object, str, object]]:
        return list(self._bindings)

    def _wrap(self, fn, layer: str):
        signature = inspect.signature(fn)
        takes_budget = "budget" in signature.parameters
        counts_chars = layer == "met.parser"
        stack = self._stack
        stats = self.stats[layer]
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            budget = None
            # Count steps at the outermost budgeted call of the layer only;
            # nested calls share its budget.
            if takes_budget and not stats.counting:
                bound = signature.bind(*args, **kwargs)
                budget = bound.arguments.get("budget")
                if budget is None:
                    # The callee would make the same default budget itself.
                    budget = bound.arguments["budget"] = EvalBudget()
                args, kwargs = bound.args, bound.kwargs
                before = budget.steps_used
                stats.counting = True
            if counts_chars:
                stats.chars += len(args[0])
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stats.self_s += elapsed - stack.pop()
                stats.calls += 1
                if stack:
                    stack[-1] += elapsed
                if budget is not None:
                    stats.counting = False
                    stats.steps += budget.steps_used - before
                    stats.step_calls += 1

        setattr(wrapper, MARKER, layer)
        return wrapper

    def layer_metrics(self, ops: int, busy_s: float) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics over ``ops`` traced ops that took ``busy_s``."""
        s = self.stats

        def per_op_ms(layer):
            return 1e3 * s[layer].self_s / ops

        def steps_per_call(layer):
            return s[layer].steps / s[layer].step_calls if s[layer].step_calls else 0.0

        interp, dom = s["met.interp"], s["domains"]
        parser_ms = 1e3 * s["met.parser"].self_s
        eval_s = interp.self_s + dom.self_s
        attributed = sum(st.self_s for st in s.values())
        out = {f"{layer}.self_ms": (per_op_ms(layer), "ms/op") for layer in LAYERS}
        out.update({
            "met.interp.steps": (interp.steps / ops, "steps/op"),
            "met.interp.us_per_step": (1e6 * interp.self_s / interp.steps if interp.steps else 0.0,
                                       "us/step"),
            "domains.calls": (dom.calls / ops, "calls/op"),
            "domains.share": (dom.self_s / eval_s if eval_s else 0.0, "fraction"),
            "peval.calls": (s["peval"].calls / ops, "calls/op"),
            "met.parser.chars_per_ms": (s["met.parser"].chars / parser_ms if parser_ms else 0.0,
                                        "chars/ms"),
            "analyzer.steps_per_call": (steps_per_call("analyzer"), "steps/call"),
            "retargeting.steps_per_call": (steps_per_call("retargeting"), "steps/call"),
            "trace.wall_ms": (1e3 * busy_s / ops, "ms/op"),
            "unattributed.self_ms": (1e3 * (busy_s - attributed) / ops, "ms/op"),
        })
        return out
