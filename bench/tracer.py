"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces, in every ``dethodge`` namespace that binds
them, the public functions of the eight layer modules, the public methods
of their classes, and the arithmetic methods of ``LaurentPoly`` and
``ExactPoly`` with wrappers that count calls and record spans. The two
generators ``dominant_tuples`` and ``partitions_of`` get one span per
resumption, so the time spent producing tuples is charged to ``weights``
and the time spent consuming them to the caller. ``matrixspace`` and
``reporting`` are too thin to time and are left unwrapped, so their time
counts towards whichever layer called them. ``uninstall()`` restores every
original binding.

Self time is accounted online: when a span ends, its duration minus the
durations of its direct child spans is added to its layer. The gaps with
no span open are the harness time, so for one pass

    sum(self time over layers) + harness time == pass time

holds exactly in integer nanoseconds. The first ``MAX_SPANS`` spans of a
pass to start are kept in memory (the ``ideals`` workload makes about
900,000 calls per pass); later spans still count towards every total but
are not stored.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = (
    "cli",
    "hodgeideals",
    "repsets",
    "weights",
    "qseries",
    "characters",
    "mhmweights",
    "oracle",
)
GENERATORS = frozenset({"weights.dominant_tuples", "weights.partitions_of"})
ARITHMETIC_CLASSES = frozenset({"qseries.LaurentPoly", "oracle.ExactPoly"})
ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__pow__",
    "__eq__",
)
MAX_SPANS = 50_000

# Counters built from the call counts of named functions.
COUNT_SUMS = {
    "qseries.mul_calls": ("qseries.LaurentPoly.__mul__",),
    "qseries.divexact_calls": ("qseries.LaurentPoly.divexact",),
    "qseries.q_binomial_calls": ("qseries.q_binomial",),
    "weights.leq_calls": ("weights.leq",),
    "hodgeideals.predicate_calls": (
        "hodgeideals.in_hodge_ideal",
        "hodgeideals.in_Fk_Sdet",
        "hodgeideals.in_symbolic_power",
    ),
    "repsets.predicate_calls": (
        "repsets.in_Wp",
        "repsets.in_Wpd",
        "repsets.in_Ukp",
        "repsets.classify",
    ),
    "characters.dim_irrep_calls": ("characters.dim_irrep",),
    "characters.lr_calls": ("characters.lr_coefficient",),
    "oracle.derivative_calls": ("oracle.ExactPoly.derivative",),
    "oracle.evaluate_calls": ("oracle.ExactPoly.evaluate",),
    "oracle.samples": ("oracle.RankConstrainedSampler.sample",),
    "oracle.retries": ("oracle.RankConstrainedSampler.reseeded",),
}


def _terms(x) -> int:
    items = getattr(x, "items", None)
    return len(items()) if items is not None else 1


def _count_mul_terms(tracer, args):
    tracer.work["qseries.mul_term_products"] += _terms(args[0]) * _terms(args[1])


def _count_evaluate_terms(tracer, args):
    tracer.work["oracle.evaluate_terms"] += _terms(args[0])


def _note_q_binomial(tracer, args):
    if args in tracer.q_binomial_seen:
        tracer.work["qseries.q_binomial_repeats"] += 1
    else:
        tracer.q_binomial_seen.add(args)


HOOKS = {
    "qseries.LaurentPoly.__mul__": _count_mul_terms,
    "oracle.ExactPoly.evaluate": _count_evaluate_terms,
    "qseries.q_binomial": _note_q_binomial,
}


class Tracer:
    """Counts and spans for one pass. Create one per pass process."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.inclusive_ns: Counter = Counter()
        self.q_binomial_seen: set = set()
        self.spans: list = []
        self.dropped_spans = 0
        self.request = None
        self.harness_ns = 0
        self.pass_ns = 0
        self._stack: list = []
        self._next_id = 0
        self._idle_since = None
        self._pass_start = 0
        self._patches: list = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, key, layer):
        now = perf_counter_ns()
        stack = self._stack
        if not stack and self._idle_since is not None:
            self.harness_ns += now - self._idle_since
        self._next_id += 1
        parent = stack[-1][3] if stack else None
        # Spans are kept in order of their start, so every kept span's
        # parent is kept too.
        keep = self._next_id <= self.max_spans
        stack.append([now, 0, key, self._next_id, parent, layer, keep])

    def _exit(self):
        end = perf_counter_ns()
        start, child_ns, key, span_id, parent, layer, keep = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.inclusive_ns[key] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self._idle_since = end
        if keep:
            self.spans.append((span_id, parent, self.request, key, layer, start, end))
        else:
            self.dropped_spans += 1

    def begin_pass(self):
        self._pass_start = self._idle_since = perf_counter_ns()

    def end_pass(self):
        end = perf_counter_ns()
        if self._stack:
            raise RuntimeError("pass ended inside an open span")
        self.harness_ns += end - self._idle_since
        self._idle_since = None
        self.pass_ns = end - self._pass_start

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, fn, key, layer):
        tracer, calls, hook = self, self.calls, HOOKS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if hook is not None:
                hook(tracer, args)
            tracer._enter(key, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    def _wrap_generator(self, fn, key, layer):
        tracer, calls, work = self, self.calls, self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            gen = fn(*args, **kwargs)
            while True:
                tracer._enter(key, layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                work["weights.tuples_yielded"] += 1
                yield item

        return traced

    def _wrapper_for(self, fn, layer, qualname, made):
        if id(fn) not in made:
            key = f"{layer}.{qualname}"
            wrap = self._wrap_generator if key in GENERATORS else self._wrap_call
            made[id(fn)] = wrap(fn, key, layer)
        return made[id(fn)]

    def _patch(self, target, name, value):
        self._patches.append((target, name, target.__dict__[name]))
        setattr(target, name, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"dethodge.{layer}")
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "dethodge" or name.startswith("dethodge.")
        }
        layer_of = {f"dethodge.{layer}": layer for layer in LAYERS}
        made: dict = {}
        for mod_name, layer in layer_of.items():
            for cls in vars(modules[mod_name]).values():
                if isinstance(cls, type) and cls.__module__ == mod_name:
                    self._wrap_methods(cls, layer, made)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                layer = layer_of.get(getattr(obj, "__module__", None))
                if (
                    layer is not None
                    and callable(obj)
                    and not isinstance(obj, type)
                    and not name.startswith("_")
                ):
                    qualname = getattr(obj, "__qualname__", name)
                    self._patch(mod, name, self._wrapper_for(obj, layer, qualname, made))

    def _wrap_methods(self, cls, layer, made):
        arithmetic = f"{layer}.{cls.__qualname__}" in ARITHMETIC_CLASSES
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and not (arithmetic and name in ARITHMETIC):
                continue
            if isinstance(attr, classmethod):
                fn = attr.__func__
                wrapped = classmethod(self._wrapper_for(fn, layer, fn.__qualname__, made))
            elif callable(attr) and not isinstance(attr, type):
                wrapped = self._wrapper_for(attr, layer, attr.__qualname__, made)
            else:
                continue
            self._patch(cls, name, wrapped)

    def uninstall(self):
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """This pass's per-layer metrics, by name (see README.md)."""
        values = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = sum(
                n for key, n in self.calls.items() if key.split(".", 1)[0] == layer
            )
            values[f"{layer}.self_s"] = self.self_ns[layer] / 1e9
        for name, keys in COUNT_SUMS.items():
            values[name] = sum(self.calls[key] for key in keys)
        for name in ("qseries.mul_term_products", "oracle.evaluate_terms", "weights.tuples_yielded"):
            values[name] = self.work[name]
        q_calls = values["qseries.q_binomial_calls"]
        repeats = self.work["qseries.q_binomial_repeats"]
        values["qseries.q_binomial_repeat_share"] = repeats / q_calls if q_calls else 0.0
        values["qseries.solver_s"] = self.inclusive_ns["qseries.solve_pushforward_OYp"] / 1e9
        values["qseries.closed_s"] = self.inclusive_ns["qseries.closed_form_OYp"] / 1e9
        values["trace.harness_s"] = self.harness_ns / 1e9
        return values

    def write_spans(self, path):
        fields = ("id", "parent", "request", "name", "layer", "start_ns", "end_ns")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
