"""Outside-in tracing of pcodelay's public entry points.

Nothing in the package is edited.  A Tracer replaces each entry point in the
namespace of the module that calls it (for example `pcodelay.cli.load_config`
or `pcodelay.analysis.jump`) with a wrapper that records the call count,
inclusive time and self time (inclusive time minus the time of wrapped
callees).  Methods of NetworkState are replaced on the class.  Everything is
restored when the `installed()` block exits.

An entry point that no longer exists (a module deleted, a function renamed)
is skipped and listed in `Tracer.absent`; the metrics that depend on it are
then reported as absent and the run goes on.

Hooks run after a span has closed.  Their time is excluded from the span and
from every enclosing span, so sampling the engine state does not inflate the
layer it samples.
"""

from __future__ import annotations

import hashlib
import importlib
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Iterator

import numpy as np

STEP = "engine.NetworkState.step"

# (span name, module, attribute path).  One span may have several bindings:
# each call site resolves its own module's global, so a call passes through
# exactly one wrapper.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("cli.main", "pcodelay.cli", "main"),
    ("config.load_config", "pcodelay.cli", "load_config"),
    ("rng.sample_phases", "pcodelay.config", "sample_phases"),
    ("curves.validate_assumptions", "pcodelay.cli", "validate_assumptions"),
    ("curves.validate_assumptions", "pcodelay.analysis", "validate_assumptions"),
    ("curves.jump", "pcodelay.analysis", "jump"),
    ("engine.NetworkState.__init__", "pcodelay.engine", "NetworkState.__init__"),
    (STEP, "pcodelay.engine", "NetworkState.step"),
    ("engine.NetworkState.next_event_time", "pcodelay.engine",
     "NetworkState.next_event_time"),
    ("engine.NetworkState.drift_to", "pcodelay.engine", "NetworkState.drift_to"),
    ("engine.NetworkState.run_until_time", "pcodelay.engine",
     "NetworkState.run_until_time"),
    ("kernel.step_once", "pcodelay._kernel", "step_once"),
    ("analysis.is_completely_synchronized", "pcodelay.cli", "is_completely_synchronized"),
    ("analysis.is_completely_synchronized", "pcodelay.analysis",
     "is_completely_synchronized"),
    ("analysis.cluster_partition", "pcodelay.cli", "cluster_partition"),
    ("analysis.cluster_partition", "pcodelay.analysis", "cluster_partition"),
    ("analysis.phase_spread", "pcodelay.cli", "phase_spread"),
    ("analysis.phase_spread", "pcodelay.analysis", "phase_spread"),
    ("analysis.audit_run", "pcodelay.cli", "audit_run"),
    ("analysis.desync_trial", "pcodelay.cli", "desync_trial"),
    ("analysis.iterate_return_map", "pcodelay.cli", "iterate_return_map"),
    ("analysis.two_clique_map", "pcodelay.analysis", "two_clique_map"),
    ("analysis.small_gap_branch", "pcodelay.analysis", "small_gap_branch"),
    ("analysis.large_gap_branch", "pcodelay.analysis", "large_gap_branch"),
    ("analysis.two_clique_oracle_step", "pcodelay.cli", "two_clique_oracle_step"),
)

Hook = Callable[[tuple, object], None]


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class StepRecorder:
    """Hook on NetworkState.step: event-stream digest, counts, state samples.

    The digest covers every event's time, fired count and fired indices, in
    order, then the event and firing totals.  With sample_every > 0, every
    sample_every-th event also samples the number of distinct phases (the
    groups) and the pending-pulse queue depth through the public `phases`
    and `pipeline` views, and the last stepped network is kept for
    groups_final().
    """

    def __init__(self, sample_every: int = 0) -> None:
        self._hash = hashlib.sha256()
        self.sample_every = sample_every
        self.events = 0
        self.firings = 0
        self.arrival_events = 0
        self.group_ratio_sum = 0.0
        self.samples = 0
        self.queue_depth_max = 0
        self.last_state = None

    def __call__(self, args: tuple, report) -> None:
        fired = np.asarray(report.fired, dtype=np.int64)
        self._hash.update(struct.pack("<dq", report.event_time, fired.size))
        self._hash.update(fired.tobytes())
        self.events += 1
        self.firings += int(fired.size)
        self.arrival_events += len(report.arrival_sources) > 0
        if not self.sample_every:
            return
        state = self.last_state = args[0]
        if self.events % self.sample_every == 0:
            phases = state.phases
            self.group_ratio_sum += np.unique(phases).size / phases.size
            self.samples += 1
            self.queue_depth_max = max(self.queue_depth_max, len(state.pipeline))

    def digest(self) -> str:
        h = self._hash.copy()
        h.update(struct.pack("<qq", self.events, self.firings))
        return h.hexdigest()

    def groups_final(self) -> int:
        if self.last_state is None:
            return 0
        return int(np.unique(self.last_state.phases).size)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, current value) or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if value is None or not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Per-span call counts, inclusive and self times while installed."""

    def __init__(
        self,
        entry_points=ENTRY_POINTS,
        hooks: dict[str, Hook] | None = None,
    ) -> None:
        self.entry_points = tuple(entry_points)
        self.hooks = dict(hooks or {})
        self.spans: dict[str, SpanStats] = {}
        self.absent: set[str] = set()
        # One frame per open span: [child_ns, excluded_ns].
        self._stack: list[list[int]] = []

    def _wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        hook = self.hooks.get(name)

        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                total = t1 - t0 - frame[1]
                stats.calls += 1
                stats.total_ns += total
                stats.self_ns += total - frame[0]
                if stack:
                    stack[-1][0] += total
                    stack[-1][1] += frame[1]
            if hook is not None:
                h0 = perf_counter_ns()
                hook(args, result)
                if stack:
                    stack[-1][1] += perf_counter_ns() - h0
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every entry point that exists; restore them all on exit."""
        saved = []
        found: set[str] = set()
        try:
            for name, module_name, path in self.entry_points:
                target = _resolve(module_name, path)
                if target is None:
                    continue
                owner, attr, value = target
                saved.append((owner, attr, value))
                setattr(owner, attr, self._wrap(name, value))
                found.add(name)
            self.absent |= {name for name, _, _ in self.entry_points} - found
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)
            self._stack.clear()

    def get(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())


# ----------------------------------------------------------------------
# per-layer metrics


@dataclass(frozen=True)
class RepContext:
    """What a metric needs besides spans: the traced call and its network."""

    tracer: Tracer
    steps: StepRecorder
    n: int
    output_bytes: int


def _per_call(span: str, scale: float) -> Callable[[RepContext], float]:
    def value(ctx: RepContext) -> float:
        s = ctx.tracer.get(span)
        return s.total_ns / s.calls / scale if s.calls else 0.0
    return value


def _calls(span: str) -> Callable[[RepContext], float]:
    return lambda ctx: ctx.tracer.get(span).calls


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


SYNC = "analysis.is_completely_synchronized"
CLUSTERS = "analysis.cluster_partition"
VALIDATE = "curves.validate_assumptions"
JUMP = "curves.jump"
ORACLE = "analysis.two_clique_oracle_step"
KERNEL = "kernel.step_once"
MAIN = "cli.main"


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric of a traced subcommand call.

    needs: spans it is computed from; when any is absent, so is the metric.
    exact: a count that repeats exactly for the same config, so a later
        change may rest a count-based claim on it.  The benchmark checks that
        it does repeat.
    """

    name: str
    unit: str
    needs: tuple[str, ...]
    value: Callable[[RepContext], float]
    exact: bool = False


# Time metrics ending in _us or _ms are mean inclusive times per call, except
# engine.step_self_us (self time per event: NetworkState.step minus the kernel)
# and the kernel's ns per oscillator-event (self time / (calls * n)).
LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("kernel.calls", "count", (KERNEL,), _calls(KERNEL), exact=True),
    LayerMetric(
        "kernel.ns_per_osc_event", "ns", (KERNEL,),
        lambda c: _ratio(c.tracer.get(KERNEL).self_ns, c.tracer.get(KERNEL).calls * c.n),
    ),
    LayerMetric(
        "kernel.share", "ratio", (KERNEL, MAIN),
        lambda c: _ratio(c.tracer.get(KERNEL).total_ns, c.tracer.get(MAIN).total_ns),
    ),
    LayerMetric("engine.events", "count", (STEP,), lambda c: c.steps.events, exact=True),
    LayerMetric("engine.firings", "count", (STEP,), lambda c: c.steps.firings, exact=True),
    LayerMetric(
        "engine.arrival_events", "count", (STEP,), lambda c: c.steps.arrival_events,
        exact=True,
    ),
    LayerMetric(
        "engine.step_self_us", "us", (STEP,),
        lambda c: _ratio(c.tracer.get(STEP).self_ns, c.tracer.get(STEP).calls * 1e3),
    ),
    LayerMetric(
        "engine.next_event_time_us", "us", ("engine.NetworkState.next_event_time",),
        _per_call("engine.NetworkState.next_event_time", 1e3),
    ),
    LayerMetric(
        "engine.group_ratio", "ratio", (STEP,),
        lambda c: _ratio(c.steps.group_ratio_sum, c.steps.samples),
    ),
    LayerMetric(
        "engine.groups_final", "count", (STEP,), lambda c: c.steps.groups_final(),
        exact=True,
    ),
    LayerMetric(
        "engine.queue_depth_max", "count", (STEP,), lambda c: c.steps.queue_depth_max,
        exact=True,
    ),
    LayerMetric("analysis.sync_check_calls", "count", (SYNC,), _calls(SYNC), exact=True),
    LayerMetric("analysis.sync_check_us", "us", (SYNC,), _per_call(SYNC, 1e3)),
    LayerMetric(
        "analysis.cluster_partition_calls", "count", (CLUSTERS,), _calls(CLUSTERS),
        exact=True,
    ),
    LayerMetric("analysis.cluster_partition_ms", "ms", (CLUSTERS,), _per_call(CLUSTERS, 1e6)),
    LayerMetric(
        "analysis.audit_us_per_event", "us", ("analysis.audit_run", STEP),
        lambda c: _ratio(c.tracer.get("analysis.audit_run").total_ns, c.steps.events * 1e3),
    ),
    LayerMetric(
        "analysis.return_map_us_per_step", "us",
        ("analysis.iterate_return_map", "analysis.two_clique_map"),
        lambda c: _ratio(
            c.tracer.get("analysis.iterate_return_map").total_ns,
            c.tracer.get("analysis.two_clique_map").calls * 1e3,
        ),
    ),
    LayerMetric("curves.validate_calls", "count", (VALIDATE,), _calls(VALIDATE), exact=True),
    LayerMetric("curves.validate_us", "us", (VALIDATE,), _per_call(VALIDATE, 1e3)),
    LayerMetric("curves.jump_calls", "count", (JUMP,), _calls(JUMP), exact=True),
    LayerMetric("curves.jump_us", "us", (JUMP,), _per_call(JUMP, 1e3)),
    LayerMetric("analysis.oracle_calls", "count", (ORACLE,), _calls(ORACLE), exact=True),
    LayerMetric("analysis.oracle_ms", "ms", (ORACLE,), _per_call(ORACLE, 1e6)),
    LayerMetric(
        "config.load_config_ms", "ms", ("config.load_config",),
        _per_call("config.load_config", 1e6),
    ),
    LayerMetric(
        "rng.sample_phases_ms", "ms", ("rng.sample_phases",),
        _per_call("rng.sample_phases", 1e6),
    ),
    LayerMetric("cli.self_s", "s", (MAIN,), lambda c: c.tracer.get(MAIN).self_ns / 1e9),
    LayerMetric("cli.output_bytes", "bytes", (), lambda c: c.output_bytes, exact=True),
)

# Not computed from one traced call: traced run_s over untraced run_s.
OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")


def layer_values(ctx: RepContext) -> dict[str, float | None]:
    """Every per-layer metric of one traced call; None marks an absent one."""
    return {
        m.name: None if ctx.tracer.absent.intersection(m.needs) else float(m.value(ctx))
        for m in LAYER_METRICS
    }
