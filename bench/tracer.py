"""Span tracing around the public entry points of each commitsched layer.

The program is not changed: ``install`` replaces entry points at the
sites where callers look them up (module attributes such as
``commitsched.simulator.exec_post`` and class attributes such as
``Scheduler.submit``) with wrappers that record one span per call
(name, start, end, parent id). Spans stay in memory until the run ends.
Pairwise scope checks are called millions of times, so they are counted,
not timed, and their time stays inside the scheduler span that made them.

A span's name is ``<layer>.<entry point>``. Its self time is its
duration minus that of its direct children, so the self times of all
spans add up exactly to the duration of the root spans.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import time
from collections import Counter

# Span name suffix -> the world function the simulator calls.
WORLD_EXEC = {
    "collect": "exec_collect",
    "post": "exec_post",
    "tamper": "exec_tamper_guard",
    "signoff": "exec_signoff",
    "reveal": "exec_reveal",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result`` sees each result."""
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name: str, fn):
        """``fn`` counting its calls under ``name``."""
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    def self_times(self) -> dict[int, int]:
        """Self time in ns of every span, by span id."""
        own = {sid: end - start for sid, _, start, end, _ in self.spans}
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path: str) -> None:
        """Write the spans, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    import commitsched.model as model
    import commitsched.scenario as scenario
    import commitsched.scheduler as scheduler
    import commitsched.simulator as simulator
    import commitsched.trace as trace
    import commitsched.world as world

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def retired(activated):
        tracer.counts["scheduler.retire_activations"] += len(activated)

    made = tracer.wrap("model.new_commitment", model.new_commitment)
    patch(model, "new_commitment", made)
    patch(simulator, "new_commitment", made)
    patch(scenario, "parse", tracer.wrap("scenario.parse", scenario.parse))
    patch(simulator, "run", tracer.wrap("simulator.run", simulator.run))
    sched = scheduler.Scheduler
    patch(sched, "submit", tracer.wrap("scheduler.submit", sched.submit))
    patch(sched, "on_complete", tracer.wrap("scheduler.retire", sched.on_complete, retired))
    patch(sched, "on_violation", tracer.wrap("scheduler.retire", sched.on_violation, retired))
    patch(sched, "snapshot", tracer.wrap("scheduler.snapshot", sched.snapshot))
    if hasattr(scheduler, "same_scope"):  # an indexed scheduler may not call it
        patch(scheduler, "same_scope", tracer.count("relations.same_scope", scheduler.same_scope))
    for verb, attr in WORLD_EXEC.items():
        patch(simulator, attr, tracer.wrap(f"world.exec.{verb}", getattr(simulator, attr)))
    state = world.WorldState
    for attr in sorted(vars(state)):
        if attr.startswith(("with_", "without_")):
            patch(state, attr, tracer.wrap("world.update", getattr(state, attr)))
    patch(state, "detail_privacy", tracer.wrap("world.detail_privacy", state.detail_privacy))
    patch(trace.Trace, "text", tracer.wrap("trace.text", trace.Trace.text))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


SCHEDULER_CALLS = ("submit", "on_complete", "on_violation")


@contextlib.contextmanager
def scheduler_call_latencies(into: list[int]):
    """Append the duration in ns of every ``Scheduler`` submit or retire call to ``into``.

    The untraced ``run()`` workloads use this for ``op_p50_us``/``op_p99_us``:
    two clock reads per call, a fraction of a percent of the timed phase.
    """
    from commitsched.scheduler import Scheduler

    clock = time.perf_counter_ns
    originals = {attr: getattr(Scheduler, attr) for attr in SCHEDULER_CALLS}

    def timed(fn):
        def call(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            into.append(clock() - start)
            return result
        return call

    for attr, fn in originals.items():
        setattr(Scheduler, attr, timed(fn))
    try:
        yield into
    finally:
        for attr, fn in originals.items():
            setattr(Scheduler, attr, fn)
