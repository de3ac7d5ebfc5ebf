"""Deterministic discrete-event loop driving the three pipeline modes.

Every source of randomness draws from its own stream, seeded by hashing
the master seed with a stable string key ("agent:ego/sensor:0",
"link:ego->rsu1", ...), so adding an agent never shifts another agent's
noise.  Events are totally ordered by (time, lane, n).  Periodic events,
in lane 0, come from one source per (agent id, sensor index), then one
metric sampler, then in ``cr-dist`` one heartbeat source per edge worker,
ranked in that order as ``n``: each source holds only its next event in
the heap and pushes the one after when it pops, so a run starts with one
pending event per source, however long it is.  An agent's last tick at
one time, found when it pops, carries the pipeline step; a heartbeat
event sends its worker's HEARTBEAT frame.  Bus deliveries and task
completions, in lane 1, are numbered as they are created, so at one time
they follow every periodic event.

All pipeline code consumes event timestamps, never wall clocks, so a live
driver could replace the loop without touching the pipelines.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import itertools
from dataclasses import dataclass

import numpy as np

from .. import __version__, bus
from ..bus import BusFrame, canonical_dumps, canonical_loads, link_key
from ..collab import CollabState, RemoteTrackMsg, RemoteTracks, covi_step
from ..fusion import Association, frustum_associate, synthesize
from ..geometry import (
    OPTICAL_FROM_BODY,
    Pose,
    inverse,
    symmetrize,
    transform_gaussian,
)
from ..metrics import MetricsAggregator, prediction_error
from ..offload import Broker, TaskRequest, TaskResult, emulate_worker
from ..sensing import (
    SensorNoiseConfig,
    Truth,
    camera_observe,
    radar_observe,
    visible_object_ids,
)
from ..tracker import LANE_LOCAL, Tracker, Tracks, predict_waypoints
from .model import Scenario, World, rate_grid, world_at
from .replay import ReplayData, detection_line, track_lines, truth_line

KIND_TICK = "SensorTick"
KIND_DELIVER = "BusDeliver"
KIND_TASK = "TaskComplete"
KIND_METRIC = "MetricSample"
KIND_HEARTBEAT = "Heartbeat"

# The rows a flush reads for a sensor that did not tick, or that the agent
# does not have.
_NO_ROWS = np.empty((0, 5))
_NO_ROWS.setflags(write=False)


def stream_rng(master_seed: int, key: str) -> np.random.Generator:
    """Independent generator for a named stream under one master seed."""
    digest = hashlib.sha256(f"{master_seed}:{key}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class RunReport:
    """Everything a run produces; serialization is canonical and stable.

    Track and replay lines are held as compact records until they are
    serialised: a line's ints and strings as they are, and its numbers in
    one float64 array that the record owns.  ``track_jsonl`` and
    ``replay_jsonl`` write each record with its line writer in
    ``replay`` (``track_lines``, ``detection_line`` or ``truth_line``),
    which gives the bytes ``canonical_dumps`` gives the line's dict: keys
    in sorted order, floats as ``float.__repr__`` writes them, and a
    ``ValueError`` for a non-finite number, found with one
    ``np.isfinite`` test per record array.  Each record's bytes go into
    one ``io.BytesIO``, so the output is never held twice as text.  The
    writers run only when bytes are asked for, never in an event handler.

    * a track record, per flush with tracks: ``(t, agent, ids, confirmed,
      (n, 2, 6) means and covariance diagonals)``, the ids and confirmed
      flags as tuples: held as the ``Tracks`` batch's own small arrays,
      they raised peak memory;
    * a detection record, per ``LiveSource`` tick (a replay run has none):
      ``(t, agent, sensor, type, rows)``, where ``rows`` is the tick's
      sensing array itself (camera or radar rows, see ``sensing``): sensing
      makes a new array on every call and nothing writes to it, so the
      record owns it;
    * a truth record, per ``LiveSource`` ground-truth time: ``(t, truth)``,
      where ``truth`` is the ``sensing.Truth`` batch itself: ``world_at``
      evaluates the run's stacked ``World`` into new arrays on every call,
      extents copied too, and nothing writes to them, so the record owns
      them.

    A tick without detections or a time without objects records an empty
    array, and its line an empty list.
    """

    report: dict
    track_records: list[tuple]
    replay_records: list[tuple]

    def report_bytes(self) -> bytes:
        return canonical_dumps(self.report) + b"\n"

    def track_jsonl(self) -> bytes:
        out = io.BytesIO()
        for record in self.track_records:
            out.write(track_lines(*record))
        return out.getvalue()

    def replay_jsonl(self) -> bytes:
        out = io.BytesIO()
        for record in self.replay_records:
            out.write(truth_line(*record) if len(record) == 2 else detection_line(*record))
        return out.getvalue()


def _track_record(t: float, agent: str, tracks: Tracks) -> tuple:
    return (t, agent, tuple(tracks.ids.tolist()), tuple(tracks.confirmed.tolist()),
            np.stack((tracks.means, tracks.covs.diagonal(axis1=1, axis2=2)), axis=1))


class _AgentRT:
    """Per-agent mutable pipeline state confined to the event loop."""

    def __init__(self, spec, tracker_cfg):
        self.spec = spec
        self.tracker = Tracker(tracker_cfg)
        self.staging: dict[int, np.ndarray] = {}
        self.msg_queue: list[RemoteTrackMsg] = []
        self.collab = CollabState()
        self.last_broadcast: float | None = None
        types = [s.type for s in spec.sensors]
        self.cam_idx = types.index("camera") if "camera" in types else None
        self.radar_idx = types.index("radar") if "radar" in types else None
        self.cam_spec = spec.sensors[self.cam_idx] if self.cam_idx is not None else None
        self.radar_spec = spec.sensors[self.radar_idx] if self.radar_idx is not None else None
        if self.cam_spec is not None:
            # optical frame sits inside the camera body mount
            agent_from_opt = self.cam_spec.mount.compose(Pose(OPTICAL_FROM_BODY.T, np.zeros(3)))
            if self.radar_spec is not None:
                self.cam_from_radar = inverse(agent_from_opt).compose(self.radar_spec.mount)


class LiveSource:
    """A run's live input, sensing over the scenario's objects: the twin
    of a replay's ``ReplayData``.  It holds the run's ``World``, a stream
    per sensor and the truth at the last time read, and keeps the run's
    replay records (see ``RunReport``): one per tick, and one per truth
    time later than every earlier one, which are the ticks' and metric
    samples' times, as a task reads its tick's.  Sensing is called
    through this module's globals, where the benchmark's hooks wrap it."""

    def __init__(self, scenario: Scenario):
        self.world = World(scenario.objects)
        self.positions = self.world.positions
        self.duration = scenario.duration
        self.sensors = {(a.id, i): (a, spec, stream_rng(scenario.seed, f"agent:{a.id}/sensor:{i}"))
                        for a in scenario.agents for i, spec in enumerate(a.sensors)}
        self.truth_cache: dict[float, Truth] = {}   # truth is a pure function of time
        self.records: list[tuple] = []
        self._last_truth_line = -np.inf

    def ticks(self, sensors: dict) -> dict:
        """Each of ``sensors``' tick times, on its rate's grid, generated
        one by one as the run reaches them."""
        return {key: rate_grid(sensor.rate, self.duration) for key, sensor in sensors.items()}

    def detections_at(self, t: float, agent: str, sidx: int, sensor_pose: Pose) -> np.ndarray:
        owner, spec, rng = self.sensors[(agent, sidx)]
        if spec.type == "camera":
            rows = camera_observe(spec.intrinsics, sensor_pose, self.truth_at(t), spec.noise, rng)
        else:
            rows = radar_observe(sensor_pose, self.truth_at(t), spec.noise, rng,
                                 sensor_velocity=owner.trajectory.velocity(t))
        self.records.append((t, agent, sidx, spec.type, rows))
        return rows

    def truth_at(self, t: float) -> Truth:
        if t not in self.truth_cache:
            self.truth_cache = {t: world_at(self.world, t, self.duration)}
            if t > self._last_truth_line:
                self._last_truth_line = t
                self.records.append((t, self.truth_cache[t]))
        return self.truth_cache[t]


class Engine:
    """One run of a scenario on one input source: a ``LiveSource``, or a
    replay's ``ReplayData``, whose ``ticks`` refuses a replay that gives a
    scenario sensor another type when the engine is built.  The heap holds
    one pending event per periodic source (see the module docstring) and
    the bus deliveries and task completions in flight.  Flushes record
    each track line as a compact record (see ``RunReport``) that copies
    its numbers out of the tracker, and a live source the replay lines;
    nothing is serialised until ``RunReport`` is asked for bytes.

    Agents talk over the bus (see ``bus`` for each type's payload): in
    ``cr-covi`` sensor agents broadcast TRACKS; in ``cr-dist`` the ego
    sends TASK_REQ frames to edge workers, which answer with TASK_RESP and
    send empty HEARTBEATs.
    """

    def __init__(self, scenario: Scenario, replay=None):
        self.sc = scenario
        self.source = LiveSource(scenario) if replay is None else replay
        self.net = scenario.network
        self.mode = scenario.pipeline.mode
        self.seq = itertools.count()
        self.heap: list = []
        # the last time asked for only: poses are pure functions of time
        self._pose_cache: dict[float, dict[str, Pose]] = {}
        self.link_rngs: dict[str, np.random.Generator] = {}
        self.frames_log: list[dict] = []
        self.bus_counts = {"sent": 0, "delivered": 0, "dropped": 0,
                           "by_type": {name: 0 for name in bus.MSG_TYPES.values()}}
        self._track_records: list[tuple] = []
        self.events_processed = 0

        order = sorted(scenario.agents, key=lambda a: a.id)
        self.agents = {a.id: _AgentRT(a, scenario.tracker) for a in order if a.sensors}
        self.ego_id = scenario.ego.id
        self.agg = MetricsAggregator(radius=scenario.metrics.radius,
                                     ospa_cutoff=scenario.metrics.ospa_cutoff)

        self.broker: Broker | None = None
        self.workers: dict[str, str] = {}   # worker id -> edge agent id
        self.worker_rngs: dict[str, np.random.Generator] = {}
        self.task_counter = itertools.count(1)
        if self.mode == "cr-dist":
            p = scenario.pipeline
            # a sensor-less ego has no agent state, but the broker still
            # reads a tracker's cutoff
            ego = self.agents.get(self.ego_id)
            self.broker = Broker(tracker=ego.tracker if ego else Tracker(scenario.tracker),
                                 timeout=p.timeout, queue_bound=p.queue_bound,
                                 heartbeat_interval=p.heartbeat_interval)
            for a in order:
                if a.kind == "edge-server":
                    for i in range(a.workers):
                        wid = f"{a.id}/w{i}"
                        self.broker.workers[wid] = 0.0
                        self.workers[wid] = a.id
                        self.worker_rngs[wid] = stream_rng(scenario.seed, f"worker:{wid}")

        self._start_periodic(order)

    # -- scheduling ----------------------------------------------------------

    def _push(self, time: float, kind: str, data) -> None:
        heapq.heappush(self.heap, (time, 1, next(self.seq), kind, data))

    def _start_periodic(self, order) -> None:
        """Rank the periodic sources, each sensor's in (agent id, sensor
        index) order, then the metric sampler, then each edge worker's
        heartbeat in worker id order, and push each one's first event.  A
        source's times are its input's (``ticks``), or the grid of the
        metric rate or of one heartbeat per ``heartbeat_interval``, and it
        ends at its first time past the run's end."""
        sc = self.sc
        sensors = {(a.id, i): sensor for a in order for i, sensor in enumerate(a.sensors)}
        ticks = self.source.ticks(sensors)
        keys = list(sensors)
        # a tick's data is its agent, its sensor index and the ranks of the
        # agent's later sensors, whose pending times decide its flush
        self._sources = [(iter(ticks[(aid, i)]), KIND_TICK,
                          (aid, i, tuple(r for r, (a, j) in enumerate(keys)
                                         if a == aid and j > i)))
                         for aid, i in keys]
        self._sources.append((rate_grid(sc.metrics.rate, sc.duration), KIND_METRIC, None))
        self._sources += [(rate_grid(1.0 / sc.pipeline.heartbeat_interval, sc.duration),
                           KIND_HEARTBEAT, wid) for wid in sorted(self.workers)]
        self._end = sc.duration + 1e-9
        self._pending: list[float | None] = [None] * len(self._sources)
        for rank in range(len(self._sources)):
            self._schedule(rank)

    def _schedule(self, rank: int) -> None:
        """Push periodic source ``rank``'s next event, if it has one, and
        keep its time as the source's pending one (None once it ends)."""
        times, kind, data = self._sources[rank]
        t = next(times, None)
        if t is not None and t <= self._end:
            heapq.heappush(self.heap, (t, 0, rank, kind, data))
        else:
            t = None
        self._pending[rank] = t

    # -- shared plumbing -----------------------------------------------------

    def _link_rng(self, link: str) -> np.random.Generator:
        if link not in self.link_rngs:
            self.link_rngs[link] = stream_rng(self.sc.seed, f"link:{link}")
        return self.link_rngs[link]

    def _agent_pose(self, rt: _AgentRT, t: float) -> Pose:
        if t not in self._pose_cache:
            self._pose_cache = {t: {}}
        poses = self._pose_cache[t]
        if rt.spec.id not in poses:
            poses[rt.spec.id] = rt.spec.trajectory.pose(t)
        return poses[rt.spec.id]

    def _send(self, src: str, dst: str, t: float, msg_type: int, topic: str,
              payload: bytes = b"") -> None:
        frame = BusFrame(msg_type, int(round(t * 1e9)), topic, payload)
        data = bus.encode(frame)
        link = link_key(src, dst)
        at = bus.deliver(self.net, link, t, self._link_rng(link))
        self.bus_counts["sent"] += 1
        self.bus_counts["by_type"][bus.MSG_TYPES[frame.msg_type]] += 1
        entry = {
            "t_send": t, "src": src, "dst": dst,
            "type": bus.MSG_TYPES[frame.msg_type], "topic": frame.topic,
            "payload_sha256": hashlib.sha256(frame.payload).hexdigest()[:16],
            "delivered_at": at,
        }
        self.frames_log.append(entry)
        if at is None:
            self.bus_counts["dropped"] += 1
            return
        self._push(at, KIND_DELIVER, (dst, data))

    # -- event handlers ------------------------------------------------------

    def on_tick(self, t: float, aid: str, sidx: int, flush: bool) -> None:
        rt = self.agents[aid]
        sensor_pose = self._agent_pose(rt, t).compose(rt.spec.sensors[sidx].mount)
        rt.staging[sidx] = self.source.detections_at(t, aid, sidx, sensor_pose)
        if flush:
            self._flush(rt, t)

    def _flush(self, rt: _AgentRT, t: float) -> None:
        spec = rt.spec
        # staging is keyed by sensor index, so a missing sensor's None finds nothing
        staging, rt.staging = rt.staging, {}
        boxes = staging.get(rt.cam_idx, _NO_ROWS)
        points = staging.get(rt.radar_idx, _NO_ROWS)

        agent_pose = self._agent_pose(rt, t)
        if rt.cam_spec is not None and rt.radar_spec is not None:
            assoc = frustum_associate(boxes, points, rt.cam_spec.intrinsics,
                                      rt.cam_from_radar)
        else:
            assoc = Association([], list(range(len(points))))
        radar_noise, radar_mount = (rt.radar_spec.noise, rt.radar_spec.mount) \
            if rt.radar_spec is not None else (SensorNoiseConfig(), Pose.identity())
        detections = synthesize(assoc, points, radar_mount, radar_noise).to_parent(agent_pose)
        rt.tracker.process_batch((t, LANE_LOCAL, 0), detections)

        if self.mode == "cr-covi":
            msgs, rt.msg_queue = rt.msg_queue, []
            covi_step(rt.tracker, msgs, t, rt.collab,
                      staleness=self.sc.pipeline.staleness)
            self._maybe_broadcast(rt, t, agent_pose)

        if self.mode == "cr-dist" and spec.id == self.ego_id:
            if rt.cam_idx in staging:  # the camera ticked
                self._submit_task(rt, t, agent_pose)
            for req, wid in self.broker.reap(t):
                self._send_task_req(req, wid, t)

        if len(rt.tracker.tracks):
            self._track_records.append(_track_record(t, spec.id, rt.tracker.tracks))

    def _maybe_broadcast(self, rt: _AgentRT, t: float, agent_pose: Pose) -> None:
        period = 1.0 / self.sc.pipeline.broadcast_hz
        if rt.last_broadcast is not None and t - rt.last_broadcast < period - 1e-9:
            return
        rt.last_broadcast = t
        confirmed = rt.tracker.confirmed()
        means, covs = transform_gaussian(inverse(agent_pose), confirmed.means,
                                         symmetrize(confirmed.covs))
        tracks = RemoteTracks(tuple(confirmed.ids.tolist()), means, covs)
        payload = canonical_dumps(RemoteTrackMsg(rt.spec.id, agent_pose, t, tracks).to_payload())
        for other in sorted(self.agents):
            if other != rt.spec.id:
                self._send(rt.spec.id, other, t, bus.MSG_TRACKS, f"tracks/{rt.spec.id}", payload)

    def _submit_task(self, rt: _AgentRT, t: float, agent_pose: Pose) -> None:
        cam = rt.cam_spec
        rig_pose = agent_pose.compose(cam.mount)
        visible = sorted(visible_object_ids(cam.intrinsics, rig_pose, self.source.truth_at(t)))
        req = TaskRequest(next(self.task_counter), t, tuple(visible), rig_pose)
        wid = self.broker.submit(req, t)
        if wid is not None:
            self._send_task_req(req, wid, t)

    def _send_task_req(self, req: TaskRequest, wid: str, t: float) -> None:
        self._send(self.ego_id, self.workers[wid], t, bus.MSG_TASK_REQ, f"tasks/{wid}",
                   canonical_dumps(req.to_payload()))

    def on_deliver(self, t: float, dst: str, data: bytes) -> None:
        """Handle one frame off the bus: parse its payload, then act on it.
        A malformed frame (not exactly one frame, a payload its parser
        refuses by the bus's rule, a topic naming no worker this engine
        runs, TRACKS whose topic names no sensor agent of the run, or
        TRACKS that no flush reads: outside ``cr-covi`` or to an agent
        without sensors) is counted under ``malformed`` and skipped; the
        key is reported only once it is non-zero."""
        self.bus_counts["delivered"] += 1
        try:
            frame = bus.decode(data)
            parse, act = _DELIVERY[frame.msg_type]
            args = parse(self, frame)
        except ValueError:
            self._count_malformed()
            return
        act(self, t, dst, *args)

    def _count_malformed(self) -> None:
        self.bus_counts["malformed"] = self.bus_counts.get("malformed", 0) + 1

    def _parse_tracks(self, frame: BusFrame) -> tuple[RemoteTrackMsg]:
        sender = _named(frame.topic, "tracks/", self.agents)
        return (RemoteTrackMsg.from_payload(canonical_loads(frame.payload), sender),)

    def _on_tracks(self, t: float, dst: str, msg: RemoteTrackMsg) -> None:
        # only _maybe_broadcast sends TRACKS: in cr-covi, to other sensor
        # agents; only a cr-covi flush, which only a sensor agent runs,
        # drains the queue
        if self.mode != "cr-covi" or dst not in self.agents:
            self._count_malformed()
            return
        self.agents[dst].msg_queue.append(msg)

    def _parse_task_req(self, frame: BusFrame) -> tuple[str, TaskRequest]:
        req = TaskRequest.from_payload(canonical_loads(frame.payload))
        # the worker reads the truth at frame_time, which world_at has
        # only inside the scenario
        if not -1e-9 <= req.frame_time <= self.sc.duration + 1e-9:
            raise ValueError(f"frame_time {req.frame_time} outside the scenario")
        return _named(frame.topic, "tasks/", self.workers), req

    def _on_task_req(self, t: float, dst: str, wid: str, req: TaskRequest) -> None:
        truth = self.source.truth_at(req.frame_time)
        rows = [i for i, oid in enumerate(truth.ids) if oid in req.visible_ids]
        latency, result = emulate_worker(req, truth.positions[rows], self.sc.pipeline.worker,
                                         self.worker_rngs[wid])
        self._push(t + latency, KIND_TASK, (wid, result))

    def _parse_task_resp(self, frame: BusFrame) -> tuple[TaskResult]:
        # a result from no worker of ours is malformed
        _named(frame.topic, f"results/{self.ego_id}/", self.workers)
        return (TaskResult.from_payload(canonical_loads(frame.payload)),)

    def _on_task_resp(self, t: float, dst: str, result: TaskResult) -> None:
        _, sends = self.broker.on_result(result, t)
        for req, target in sends:
            self._send_task_req(req, target, t)

    def _parse_heartbeat(self, frame: BusFrame) -> tuple[str]:
        if frame.payload:
            raise ValueError("a heartbeat's payload is empty")
        return (_named(frame.topic, "hb/", self.workers),)

    def _on_heartbeat(self, t: float, dst: str, wid: str) -> None:
        # the parser admits only this engine's workers, so this is cr-dist,
        # which has a broker
        for req, target in self.broker.heartbeat(wid, t):
            self._send_task_req(req, target, t)

    def _send_heartbeat(self, t: float, wid: str) -> None:
        self._send(self.workers[wid], self.ego_id, t, bus.MSG_HEARTBEAT, f"hb/{wid}")

    def on_task_complete(self, t: float, wid: str, result: TaskResult) -> None:
        self._send(self.workers[wid], self.ego_id, t, bus.MSG_TASK_RESP,
                   f"results/{self.ego_id}/{wid}", canonical_dumps(result.to_payload()))

    def on_metric(self, t: float) -> None:
        truth = self.source.truth_at(t)  # read even unscored: a live source records it
        if self.ego_id not in self.agents:  # sensor-less ego: nothing to score
            return
        tracker = self.agents[self.ego_id].tracker
        # every estimate is at the tracker's clock; an ego that has not
        # stepped yet (a replay can start it late) has no clock and no tracks
        stamp = t if tracker.last_time is None else tracker.last_time
        confirmed = tracker.confirmed()
        ids, means = confirmed.ids.tolist(), confirmed.means
        positions = means[:, :3] + means[:, 3:] * (t - stamp)
        matches = self.agg.sample(t, truth.ids, truth.positions, ids, positions)
        mc = self.sc.metrics
        if matches and t + mc.prediction_horizon <= self.sc.duration + 1e-9:
            row = {tid: n for n, tid in enumerate(ids)}
            gids, eids, _ = zip(*matches)
            rows = [row[eid] for eid in eids]
            times, waypoints = predict_waypoints(means[rows], stamp,
                                                 mc.prediction_horizon, mc.prediction_dt)
            truth, found = self.source.positions(gids, times)
            ade, fde, scored = prediction_error(waypoints, times, truth, self.sc.duration)
            for a, f, ok in zip(ade.tolist(), fde.tolist(), (scored & found).tolist()):
                if ok:
                    self.agg.add_prediction(a, f)

    # -- main loop -----------------------------------------------------------

    def run(self) -> RunReport:
        # glibc's malloc hands a freed heap top back to the OS once it passes
        # the trim threshold (128 KiB at start) and faults it in again for the
        # next large temporary: about 3,000 minor page faults in a crowd-60
        # run, 5% of its speed.  Freeing one block above the mmap threshold
        # raises both thresholds (mmap to the block's size, trim to twice
        # that) for the rest of the process, unless MALLOC_MMAP_THRESHOLD_ or
        # MALLOC_TRIM_THRESHOLD_ fixes them.  Other allocators ignore it.
        np.empty(1 << 20, dtype=np.uint8)
        pending = self._pending
        last = (-np.inf, -1, -1)
        while self.heap:
            time, lane, n, kind, data = heapq.heappop(self.heap)
            if (time, lane, n) <= last:
                raise RuntimeError("event order violated")  # pragma: no cover
            last = (time, lane, n)
            if time > self._end:
                continue
            self.events_processed += 1
            if lane == 0:  # a periodic source's event: its next one goes in
                self._schedule(n)
            if kind == KIND_TICK:
                aid, sidx, later = data
                # a tick flushes unless a later sensor of its agent is
                # pending at this time too
                for r in later:
                    if pending[r] == time:
                        flush = False
                        break
                else:
                    flush = True
                self.on_tick(time, aid, sidx, flush)
            elif kind == KIND_METRIC:
                self.on_metric(time)
            elif kind == KIND_DELIVER:
                self.on_deliver(time, *data)
            elif kind == KIND_HEARTBEAT:
                self._send_heartbeat(time, data)
            else:
                self.on_task_complete(time, *data)
        return self._build_report()

    def _build_report(self) -> RunReport:
        counters: dict = {"bus": self.bus_counts}
        if self.mode == "cr-covi":
            counters["collab"] = {aid: rt.collab.counters()
                                  for aid, rt in sorted(self.agents.items())}
        if self.mode == "cr-dist":
            c = dict(self.broker.counters)
            c["pending_at_end"] = len(self.broker.pending)
            counters["offload"] = c
        # reported only when non-zero, so healthy runs report the same keys
        singular = {aid: {"singular": rt.tracker.singular}
                    for aid, rt in sorted(self.agents.items()) if rt.tracker.singular}
        if singular:
            counters["tracker"] = singular
        report = {
            "fusionsim_version": __version__,
            "scenario": self.sc.to_dict(),
            "mode": self.mode,
            "seed": self.sc.seed,
            "replay": isinstance(self.source, ReplayData),
            "metrics": self.agg.report(),
            "ospa_series": [[t, v] for t, v in self.agg.ospa_series],
            "counters": counters,
            "events_processed": self.events_processed,
            "confirmed_tracks_final": {
                aid: rt.tracker.confirmed().ids.tolist()
                for aid, rt in sorted(self.agents.items())
            },
            "frames": self.frames_log,
        }
        return RunReport(report, self._track_records, self.source.records)


def _named(topic: str, prefix: str, names) -> str:
    """The name ``topic`` gives after ``prefix``, if ``names`` holds it:
    a sensor agent of the run, or a worker (only a ``cr-dist`` engine runs
    any).  ValueError if not."""
    name = topic[len(prefix):]
    if not topic.startswith(prefix) or name not in names:
        raise ValueError(f"topic {topic!r} names nothing this run holds")
    return name


# The (parser, handler) pair of each message type an engine acts on.
_DELIVERY = {
    bus.MSG_TRACKS: (Engine._parse_tracks, Engine._on_tracks),
    bus.MSG_TASK_REQ: (Engine._parse_task_req, Engine._on_task_req),
    bus.MSG_TASK_RESP: (Engine._parse_task_resp, Engine._on_task_resp),
    bus.MSG_HEARTBEAT: (Engine._parse_heartbeat, Engine._on_heartbeat),
}
