"""Span tracing around the calls into each irlobs layer, from outside.

The tracer rebinds, for the duration of a ``with tracer.installed():``
block, the module- and class-level names that the irlobs modules look up
at call time (``irlobs.experiment.data_select``,
``ParamHistoryStack.record``, ...) to wrappers that record one span per
call: name, parent span, start and end.  Nothing in ``src/`` is edited and
every original binding is restored on exit, even when the run raises.
Spans stay in memory until the run ends and are aggregated afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module or class path, attribute, span name, record the truthiness of
# the return value).  A span name shared by several bindings counts as one
# function: purge.smooth_velocity is called both by the runner and from
# inside quality_eta2.
TARGETS = (
    ("irlobs.experiment", "run_experiment", "experiment.run_experiment", False),
    ("irlobs.experiment", "prerecord_param_stack", "experiment.prerecord_param_stack", False),
    ("irlobs.experiment", "write_report", "experiment.write_report", False),
    ("irlobs.experiment", "rk4_step", "numerics.rk4_step", False),
    ("irlobs.numerics:SampledSignal", "append", "numerics.SampledSignal.append", False),
    ("irlobs.irl", "least_squares", "numerics.least_squares", False),
    ("irlobs.plant", "solve_are", "numerics.solve_are", False),
    ("irlobs.experiment", "make_demonstrator", "plant.make_demonstrator", False),
    ("irlobs.experiment", "optimal_action", "plant.optimal_action", False),
    ("irlobs.experiment", "query", "plant.query", False),
    ("irlobs.experiment", "integral_residual", "estimator.integral_residual", False),
    ("irlobs.experiment", "integral_regressor", "estimator.integral_regressor", False),
    ("irlobs.estimator:ParamHistoryStack", "record", "estimator.ParamHistoryStack.record", True),
    ("irlobs.estimator:AdaptiveObserver", "update_parameters",
     "estimator.AdaptiveObserver.update_parameters", False),
    ("irlobs.estimator:AdaptiveObserver", "step", "estimator.AdaptiveObserver.step", False),
    ("irlobs.experiment", "data_select", "irl.data_select", True),
    ("irlobs.purge", "solve_weights", "irl.solve_weights", False),
    ("irlobs.experiment", "smooth_velocity", "purge.smooth_velocity", False),
    ("irlobs.purge", "smooth_velocity", "purge.smooth_velocity", False),
    ("irlobs.experiment", "quality_eta1", "purge.quality_eta1", False),
    ("irlobs.experiment", "quality_eta2", "purge.quality_eta2", False),
    ("irlobs.experiment", "purge_policy", "purge.purge_policy", False),
)

ROOT = -1


def resolve(path):
    """The module or class named by ``package.module[:Class]``."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Collects spans as ``(name, parent_index, start, end)`` tuples.

    ``parent_index`` is the index of the enclosing span in ``spans``, or
    ``ROOT``.  ``truthy[name]`` counts calls of a function recorded with an
    outcome whose return value was true (a committed record, a stored
    offer).
    """

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.spans = []
        self.truthy = {}
        self._open = []

    def wrap(self, name, fn, outcome=False):
        spans, open_stack, clock = self.spans, self._open, self.clock
        truthy = self.truthy
        truthy.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_stack[-1] if open_stack else ROOT
            open_stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_stack.pop()
                spans[index] = (name, parent, start, end)
            if outcome and result:
                truthy[name] += 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to its wrapper; restore the originals on exit."""
        saved = []
        try:
            for path, attr, name, outcome in self.targets:
                owner = resolve(path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, outcome))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Per span: its duration minus the part covered by its child spans."""
    children = [[] for _ in spans]
    for index, (_, parent, _, _) in enumerate(spans):
        if parent != ROOT:
            children[parent].append(index)
    out = []
    for index, (_, _, start, end) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        # children were opened in order, so they come sorted by start
        for child in children[index]:
            c_start = max(spans[child][2], start)
            c_end = min(spans[child][3], end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out
