"""Spans and counters timed from outside the program.

Every hook wraps a public entry point where the engine looks it up, so
nothing inside ``src/`` changes:

* the engine binds layer functions with ``from ... import``, so sensing,
  fusion, collab, offload and metrics functions are patched in the
  ``fusionsim.scenario.engine`` globals;
* ``Tracker.step`` calls ``gate``/``predict``/``update`` through the
  ``fusionsim.tracker`` globals, ``covi_step`` calls ``align``,
  ``t2t_associate``, ``ci_omega`` and ``ci_fuse`` through the
  ``fusionsim.collab`` globals, and the engine calls ``bus.encode`` and
  friends through the ``fusionsim.bus`` module;
* methods are patched on their class, which every instance resolves at
  call time.

A hook whose target no longer exists is reported as absent and skipped.
A span's self time is its inclusive time minus that of its direct child
spans; self times inside the loop root are summed per layer (the first
dotted component of the span name), so the layer self times add up to
the loop time exactly.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

_ns = time.perf_counter_ns

ENGINE = "fusionsim.scenario.engine"
TRACKER = "fusionsim.tracker"
COLLAB = "fusionsim.collab"
BUS = "fusionsim.bus"

LAYERS = ("sensing", "fusion", "tracker", "collab", "offload", "bus",
          "metrics", "engine", "replay")

# Loop handlers whose per-call host time is the event latency.
EVENT_HANDLERS = ("on_tick", "on_deliver", "on_task_complete", "on_metric")

LOOP_SPAN = "engine.loop"

# Spans reported as ``<span>.ms`` (inclusive) and ``<span>.calls``.
SPAN_MS = (
    "sensing.camera_observe", "sensing.radar_observe",
    "fusion.frustum_associate", "fusion.synthesize",
    "tracker.process_batch", "tracker.step", "tracker.gate", "tracker.predict",
    "tracker.update", "tracker.rollback",
    "collab.covi_step", "collab.align", "collab.t2t_associate", "collab.ci_omega",
    "collab.ci_fuse",
    "offload.emulate_worker", "offload.on_result",
    "bus.encode", "bus.decode", "bus.deliver",
    "metrics.sample", "metrics.prediction_error",
    "engine.serialize", LOOP_SPAN, "engine.init",
    "model.load_scenario", "replay.load_replay", "replay.truth_at",
)
SPAN_CALLS = (
    "sensing.camera_observe", "sensing.radar_observe", "fusion.synthesize",
    "tracker.process_batch", "tracker.step", "tracker.gate", "tracker.predict",
    "tracker.update", "tracker.rollback", "collab.covi_step", "collab.ci_omega",
    "offload.on_result", "metrics.sample", "replay.truth_at",
)
# Work counted in domain units, so it survives a refactor that removes a
# function.
COUNTS = (
    "sensing.detections", "fusion.detections3d", "tracker.pairs",
    "tracker.replayed_steps", "collab.remote_tracks", "collab.fused",
    "collab.stale", "offload.submitted", "offload.ok_integrated",
    "offload.dropped", "bus.frames", "bus.bytes", "bus.dropped",
    "engine.events", "engine.output_bytes",
)


class Tracer:
    """Inclusive time and call count per span, self time per layer."""

    def __init__(self):
        self.ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.rollback_depth = 0
        self._stack: list[list[int]] = []   # per open span: [child ns]
        self._in_loop = False

    def call(self, name: str, fn, args, kwargs):
        frame = [0]
        self._stack.append(frame)
        t0 = _ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _ns() - t0
            self._stack.pop()
            self.ns[name] += dt
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][0] += dt
            if self._in_loop:
                self.self_ns[name.split(".", 1)[0]] += dt - frame[0]

    def run_loop(self, fn):
        """Call ``fn`` as the root span of the measured loop; self times
        are summed per layer only under this span."""
        if self._stack:
            raise RuntimeError("the loop span must be a root span")
        self._in_loop = True
        try:
            return self.call(LOOP_SPAN, fn, (), {})
        finally:
            self._in_loop = False


# -- hook table ----------------------------------------------------------------
#
# (span name, module, class or None, attribute, wrapper factory).  A factory
# takes (tracer, span name, original) and returns the replacement.


def _span(count=None):
    """Plain span; ``count(args, result)`` gives (counter, increment) for
    work counted in domain units."""
    def make(tracer: Tracer, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if count is not None:
                key, n = count(args, result)
                tracer.counts[key] += n
            return result
        return wrapper
    return make


def _count_len(counter):
    return lambda args, result: (counter, len(result))


def _count_remote(args, result):
    # covi_step(tracker, msgs, ...)
    return "collab.remote_tracks", sum(len(m.tracks) for m in args[1])


def _process_batch_span(tracer: Tracer, name: str, fn):
    """A call whose key is at or before the tracker's newest key is a
    rollback and gets a nested ``tracker.rollback`` span."""

    def rollback(self, key, *args, **kwargs):
        tracer.rollback_depth += 1
        try:
            return tracer.call("tracker.rollback", fn, (self, key) + args, kwargs)
        finally:
            tracer.rollback_depth -= 1

    @functools.wraps(fn)
    def wrapper(self, key, *args, **kwargs):
        newest = getattr(self, "newest_key", None)
        inner = rollback if newest is not None and key <= newest else fn
        return tracer.call(name, inner, (self, key) + args, kwargs)
    return wrapper


def _step_span(tracer: Tracer, name: str, fn):
    """Counts tracks x detections per step, and steps replayed in rollbacks."""

    @functools.wraps(fn)
    def wrapper(self, detections, *args, **kwargs):
        tracer.counts["tracker.pairs"] += len(self.tracks) * len(detections)
        if tracer.rollback_depth:
            tracer.counts["tracker.rollback_steps"] += 1
        return tracer.call(name, fn, (self, detections) + args, kwargs)
    return wrapper


HOOKS = (
    ("sensing.camera_observe", ENGINE, None, "camera_observe",
     _span(_count_len("sensing.detections"))),
    ("sensing.radar_observe", ENGINE, None, "radar_observe",
     _span(_count_len("sensing.detections"))),
    ("fusion.frustum_associate", ENGINE, None, "frustum_associate", _span()),
    ("fusion.synthesize", ENGINE, None, "synthesize", _span(_count_len("fusion.detections3d"))),
    ("tracker.process_batch", TRACKER, "Tracker", "process_batch", _process_batch_span),
    ("tracker.step", TRACKER, "Tracker", "step", _step_span),
    ("tracker.gate", TRACKER, None, "gate", _span()),
    ("tracker.predict", TRACKER, None, "predict", _span()),
    ("tracker.update", TRACKER, None, "update", _span()),
    ("collab.covi_step", ENGINE, None, "covi_step", _span(_count_remote)),
    ("collab.align", COLLAB, None, "align", _span()),
    ("collab.t2t_associate", COLLAB, None, "t2t_associate", _span()),
    ("collab.ci_omega", COLLAB, None, "ci_omega", _span()),
    ("collab.ci_fuse", COLLAB, None, "ci_fuse", _span()),
    ("offload.emulate_worker", ENGINE, None, "emulate_worker", _span()),
    ("offload.on_result", "fusionsim.offload", "Broker", "on_result", _span()),
    ("bus.encode", BUS, None, "encode", _span(_count_len("bus.bytes"))),
    ("bus.decode", BUS, None, "decode", _span()),
    ("bus.deliver", BUS, None, "deliver", _span()),
    ("metrics.sample", "fusionsim.metrics", "MetricsAggregator", "sample", _span()),
    ("metrics.prediction_error", ENGINE, None, "prediction_error", _span()),
    ("engine.init", ENGINE, "Engine", "__init__", _span()),
    ("engine.serialize", ENGINE, "RunReport", "report_bytes", _span()),
    ("engine.serialize", ENGINE, "RunReport", "track_jsonl", _span()),
    ("engine.serialize", ENGINE, "RunReport", "replay_jsonl", _span()),
    ("replay.truth_at", "fusionsim.scenario.replay", "ReplayData", "truth_at", _span()),
)


def _owner(module: str, cls: str | None):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None
    return mod if cls is None else getattr(mod, cls, None)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install_spans(tracer: Tracer) -> Patches:
    """Wrap every hook target that exists; the rest are listed as absent."""
    patches = Patches()
    for name, module, cls, attr, make in HOOKS:
        owner = _owner(module, cls)
        if owner is None or attr not in vars(owner):
            patches.absent.append(f"{name}:{module}.{cls + '.' if cls else ''}{attr}")
            continue
        patches.replace(owner, attr, lambda fn, name=name, make=make: make(tracer, name, fn))
    tracker = _owner(TRACKER, "Tracker")
    if tracker is not None and not hasattr(tracker, "newest_key"):
        # rollbacks are told apart by the key they arrive with
        patches.absent.append(f"tracker.rollback:{TRACKER}.Tracker.newest_key")
    return patches


def install_event_timer(samples: list[int], after) -> Patches:
    """Append each loop handler call's host time (ns) to ``samples``, then
    call ``after()`` outside the timed region.

    ``Engine.run`` resolves the handlers through ``self`` on every call,
    so class-level wrappers see every event.
    """
    patches = Patches()
    engine_cls = _owner(ENGINE, "Engine")
    for attr in EVENT_HANDLERS:
        if engine_cls is None or attr not in vars(engine_cls):
            patches.absent.append(f"event:{ENGINE}.Engine.{attr}")
            continue

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = _ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    samples.append(_ns() - t0)
                    after()
            return timed
        patches.replace(engine_cls, attr, make)
    return patches
