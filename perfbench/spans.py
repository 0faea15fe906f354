"""Span tracer that times the package's public functions from outside.

`instrument(tracer)` replaces every traced function on each module name
it is bound to inside the package (the name its callers look up), and
every traced method on its class, with a wrapper that opens a span for
the duration of the call. Leaving the context restores the originals.

Spans nest by call order on one thread: a span's parent is the span open
when it starts, and its self time is its duration minus the durations of
its direct children. Spans are folded into per-name totals as they close,
so memory stays flat however many calls a run makes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

PACKAGE = "poisson_deconv"

#: (span name, module, attribute); `Class.method` attributes are patched on
#: the class. Ordered by layer: operators, solvers, metrics, core, simulate,
#: experiments, io.
TARGETS = (
    ("conv_forward", "operators", "conv_forward"),
    ("conv_adjoint", "operators", "conv_adjoint"),
    ("haar.synthesize", "operators", "HaarBoxDictionary.synthesize"),
    ("haar.adjoint", "operators", "HaarBoxDictionary.adjoint"),
    ("spline.synthesize", "operators", "SplineDictionary.synthesize"),
    ("spline.adjoint", "operators", "SplineDictionary.adjoint"),
    ("patch.synthesize", "operators", "PatchDictionary.synthesize"),
    ("patch.adjoint", "operators", "PatchDictionary.adjoint"),
    ("model.forward", "operators", "ForwardModel.forward"),
    ("model.adjoint", "operators", "ForwardModel.adjoint"),
    ("model.init", "operators", "ForwardModel.__init__"),
    ("run_solver", "solvers", "run_solver"),
    ("rl_step", "solvers", "rl_step"),
    ("srl_step", "solvers", "srl_step"),
    ("rltv_step", "solvers", "rltv_step"),
    ("ml_objective", "solvers", "ml_objective"),
    ("map_objective", "solvers", "map_objective"),
    ("nmse", "metrics", "nmse"),
    ("ssim", "metrics", "ssim"),
    ("safe_div", "core", "safe_div"),
    ("log_inner", "core", "log_inner"),
    ("make_phantom", "simulate", "make_phantom"),
    ("poisson_sample", "simulate", "poisson_sample"),
    ("synth_sparse_signal", "simulate", "synth_sparse_signal"),
    ("build_problem", "experiments", "build_problem"),
    ("run_trial", "experiments", "run_trial"),
    ("run_experiment", "experiments", "run_experiment"),
    ("load_atoms", "io", "load_atoms"),
)

SPAN_NAMES = tuple(span for span, _, _ in TARGETS)


class Tracer:
    """Collects nested spans into per-name [calls, total_s, self_s] totals.

    `edges` counts calls per (parent, child) pair, with parent None for a
    span opened at top level. `in_scope` counts, per name, the spans opened
    while a span named `scope` was open. `missing` lists the targets that
    `instrument` could not find.
    """

    def __init__(self, clock=time.perf_counter, scope: str = "run_solver"):
        self.clock = clock
        self.scope = scope
        self.stats: dict[str, list] = {}
        self.edges: Counter = Counter()
        self.in_scope: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []  # frames: [name, child_s, start]
        self._scope_depth = 0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.edges[(parent, name)] += 1
        if self._scope_depth:
            self.in_scope[name] += 1
        if name == self.scope:
            self._scope_depth += 1
        self._stack.append([name, 0.0, self.clock()])

    def exit(self) -> None:
        end = self.clock()
        name, child_s, start = self._stack.pop()
        duration = end - start
        totals = self.stats.setdefault(name, [0, 0.0, 0.0])
        totals[0] += 1
        totals[1] += duration
        totals[2] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration
        if name == self.scope:
            self._scope_depth -= 1

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _resolve(module_name: str, attr: str):
    """(owner, name, function) for a target, or None if the package lacks it."""
    owner = sys.modules.get(f"{PACKAGE}.{module_name}")
    cls_name, _, name = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
    original = vars(owner).get(name) if owner is not None else None
    return None if original is None else (owner, name, original)


@contextmanager
def instrument(tracer: Tracer, targets=TARGETS):
    """Route every call to the target functions through `tracer` spans.

    A target the package no longer has is listed in `tracer.missing` and
    reports no calls, so the benchmark outlives a refactor of its layers.
    """
    modules = _package_modules()
    undo = []
    try:
        for span, module_name, attr in targets:
            found = _resolve(module_name, attr)
            if found is None:
                tracer.missing.append(span)
                continue
            owner, name, original = found
            wrapped = tracer.wrap(span, original)
            if "." in attr:
                setattr(owner, name, wrapped)
                undo.append((owner, name, original))
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)
                        undo.append((module, binding, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
