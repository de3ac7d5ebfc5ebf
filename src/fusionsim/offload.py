"""Edge offloading: broker, emulated workers, delayed-result integration.

The ego submits compute-heavy perception tasks to edge workers and gets
results back later.  A task (``TaskRequest``) names the ground-truth
objects in view of the ego's camera rig and the rig's pose, and its
result (``TaskResult``) is one stack of detections in the tracking frame;
the bus carries both as exactly these fields (see ``bus``).  Results are
folded into the tracker by rollback and replay against the tracker's
keyed batch history, which reproduces in-order processing exactly for
any delay inside the snapshot horizon.  A result is its task's only if
it echoes the ``frame_time`` of the pending request; the batch it makes
is keyed, and so stepped, at that time.
The ego's ``Broker`` holds the ego's tracker, the workers, the pending
tasks and the terminal counters.  Its whole surface is ``submit``,
``on_result``, ``heartbeat``, ``reap`` and ``conserved``.  A queued task
whose frame is before the tracker's cutoff when the queue drains to it
is settled stale without being sent: once the tracker has pruned its
history, it refuses a result that old.
The worker itself is an emulation: a configurable latency plus a
high-accuracy sensor profile over ground truth standing in for stereo
depth inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bus import TASK_REQ_PAYLOAD, TASK_RESP_PAYLOAD
from .fusion import Detections, radar_measurement_cov
from .geometry import Pose, inverse
from .sensing import (SensorNoiseConfig, detected, from_polar, in_range, polar_angles,
                      polar_sigmas)
from .tracker import LANE_EDGE, Tracker

STATUS_OK = "ok"
STATUS_FAILED = "failed"
# a status as its wire byte indexes it
_STATUSES = (STATUS_FAILED, STATUS_OK)

DEFAULT_TIMEOUT = 1.0
DEFAULT_QUEUE_BOUND = 16
DEFAULT_HEARTBEAT = 0.5
HEARTBEAT_MISSES = 3


@dataclass(frozen=True)
class TaskRequest:
    """A perception task: the ground-truth ids in view of the ego camera
    rig at ``frame_time``, and the rig's pose in the tracking frame."""

    task_id: int
    frame_time: float
    visible_ids: tuple[int, ...]
    rig_pose: Pose

    def to_payload(self) -> bytes:
        pose = self.rig_pose
        return TASK_REQ_PAYLOAD.write((self.task_id, self.frame_time, len(self.visible_ids)),
                                      (pose.rotation, pose.translation, self.visible_ids))

    @staticmethod
    def from_payload(data: bytes) -> "TaskRequest":
        (task_id, frame_time, _), (rotation, translation, ids) = TASK_REQ_PAYLOAD.read(data)
        return TaskRequest(task_id, frame_time, tuple(ids.tolist()), Pose(rotation, translation))


@dataclass(frozen=True)
class TaskResult:
    task_id: int
    status: str
    frame_time: float
    detections: Detections      # in the tracking frame

    def to_payload(self) -> bytes:
        dets = self.detections
        return TASK_RESP_PAYLOAD.write((self.task_id, self.frame_time,
                                        _STATUSES.index(self.status), len(dets)),
                                       (dets.positions, dets.covs))

    @staticmethod
    def from_payload(data: bytes) -> "TaskResult":
        (task_id, frame_time, status, _), (positions, covs) = TASK_RESP_PAYLOAD.read(data)
        if status >= len(_STATUSES):
            raise ValueError(f"task status byte {status} is neither 1 (ok) nor 0 (failed)")
        return TaskResult(task_id, _STATUSES[status], frame_time, Detections(positions, covs))


@dataclass(frozen=True)
class WorkerConfig:
    lat_min: float = 0.1
    lat_max: float = 0.3
    p_fail: float = 0.0
    profile: SensorNoiseConfig = field(default_factory=lambda: SensorNoiseConfig(
        range_sigma=0.05, azimuth_sigma=0.005, p_detect=0.99, max_range=150.0,
        fov_azimuth=math.tau))

    def __post_init__(self):
        if not 0 <= self.lat_min <= self.lat_max:
            raise ValueError("need 0 <= lat_min <= lat_max")
        if not 0.0 <= self.p_fail <= 1.0:
            raise ValueError("p_fail must be in [0, 1]")


def emulate_worker(req: TaskRequest, positions: np.ndarray, cfg: WorkerConfig,
                   rng: np.random.Generator) -> tuple[float, TaskResult]:
    """The simulated compute latency and the result: high-accuracy
    detections of the ground-truth objects at the ``(n, 3)`` world
    ``positions``.

    Draws, as in ``sensing``: ``rng.random()`` for the latency, then for
    failure, then ``sensing.detected``'s, the objects in range being the
    candidates and their range, azimuth and elevation the noisy values.
    Detections come back in the parent frame of the request's
    ``rig_pose``, the tracking frame.
    Body-frame positions and ranges, the noisy points, and the output
    positions and covariances are each one stacked computation.
    """
    latency = cfg.lat_min + (cfg.lat_max - cfg.lat_min) * rng.random()
    if rng.random() < cfg.p_fail:
        return latency, TaskResult(req.task_id, STATUS_FAILED, req.frame_time,
                                   Detections(np.empty((0, 3)), np.empty((0, 3, 3))))
    prof = cfg.profile
    _, p_body, ranges = in_range(inverse(req.rig_pose), positions, prof.max_range)
    polar = np.array([ranges, *polar_angles(p_body)]).T
    pos_body = from_polar(detected(polar, prof.p_detect, polar_sigmas(prof), rng))
    detections = Detections(pos_body, radar_measurement_cov(pos_body, prof))
    return latency, TaskResult(req.task_id, STATUS_OK, req.frame_time,
                               detections.to_parent(req.rig_pose))


@dataclass
class PendingTask:
    req: TaskRequest
    sent: float | None          # when it was last sent to a worker; None while queued
    worker_id: str | None       # None while queued
    retries: int = 0


@dataclass
class Broker:
    """Ego-side bookkeeping of workers, in-flight tasks and terminal counters.

    Its whole surface is five calls: ``submit`` a task, settle one
    ``on_result``, note a worker's ``heartbeat``, ``reap`` overdue tasks
    and dead workers, and check that tasks are ``conserved``.  The calls
    that may free or register a worker return the (request, worker id)
    pairs to transmit.  ``tracker`` is the ego's, which ok results are
    folded into and whose cutoff decides when a queued task is stale.
    ``workers`` maps each registered worker to its last heartbeat, in
    registration order, and ``rr_cursor`` is the position in that order
    where the next round-robin scan starts.

    Every task terminates in exactly one counter; their sum always equals
    the number of submissions (the conservation invariant the tests pin).
    A worker's busy state is not stored: it is busy while a pending task
    names it, so settling a task frees its worker, and a result that is
    not a pending task's (see ``on_result``) changes nothing.  No
    registered worker is idle while a task waits: each call that frees or
    registers a worker ends by draining the queue, oldest task first, and
    the drain settles as ``stale_dropped``, unsent, each task it reaches
    whose frame is before the tracker's cutoff: sent, it would only hold a
    worker and come back stale, since the cutoff never falls.  Nor is
    the queue stored: it is the pending tasks without a worker in
    ``pending``'s order, which is their queue order, since a retry is
    taken out and put back at the end.
    """

    tracker: Tracker
    workers: dict[str, float] = field(default_factory=dict)
    timeout: float = DEFAULT_TIMEOUT
    queue_bound: int = DEFAULT_QUEUE_BOUND
    heartbeat_interval: float = DEFAULT_HEARTBEAT
    pending: dict[int, PendingTask] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=lambda: {
        "submitted": 0, "ok_integrated": 0, "failed": 0,
        "timeout_dropped": 0, "stale_dropped": 0, "queue_dropped": 0,
        "retries": 0,
    })
    rr_cursor: int = field(default=0, init=False)

    @property
    def queue(self) -> list[TaskRequest]:
        """The queued tasks, oldest first."""
        return [pend.req for pend in self.pending.values() if pend.worker_id is None]

    def submit(self, req: TaskRequest, now: float) -> str | None:
        """Returns the worker id to transmit to, or None (queued or dropped)."""
        self.counters["submitted"] += 1
        target = self._idle()
        if target is None:
            self._enqueue(req, retries=0)
        else:
            self.pending[req.task_id] = PendingTask(req, now, target)
        return target

    def _idle(self) -> str | None:
        """Round-robin pick of an idle worker, or None if there is none.
        The scan starts at the cursor, so equally loaded workers share
        tasks evenly."""
        busy = {pend.worker_id for pend in self.pending.values()}
        order = list(self.workers)
        n = len(order)
        for k in range(n):
            idx = (self.rr_cursor + k) % n
            if order[idx] not in busy:
                self.rr_cursor = (idx + 1) % n
                return order[idx]
        return None

    def _enqueue(self, req: TaskRequest, retries: int) -> None:
        """Put a task at the queue's tail, or count it dropped when the
        queue is full."""
        if len(self.queue) >= self.queue_bound:
            self.counters["queue_dropped"] += 1
            return
        self.pending[req.task_id] = PendingTask(req, None, None, retries)

    def _terminate(self, task_id: int, counter: str) -> None:
        self.counters[counter] += 1
        del self.pending[task_id]

    def _drain(self, now: float) -> list[tuple[TaskRequest, str]]:
        """Send queued tasks, in order, to idle workers until none is idle,
        settling on the way each one whose frame is before the tracker's
        cutoff, unsent; returns the (request, worker id) pairs to
        transmit.  A task's timeout runs from ``now``, when it is sent."""
        cutoff = self.tracker.cutoff
        sends = []
        for req in self.queue:
            if req.frame_time < cutoff:
                self._terminate(req.task_id, "stale_dropped")
                continue
            target = self._idle()
            if target is None:
                break
            pend = self.pending[req.task_id]
            pend.worker_id, pend.sent = target, now
            sends.append((req, target))
        return sends

    def on_result(self, result: TaskResult,
                  t_now: float) -> tuple[bool, list[tuple[TaskRequest, str]]]:
        """Handle a TASK_RESP; returns (integrated, resends).  Settling the
        task frees its worker for the queue.  A result for a task that is
        not pending (settled already, or never submitted) is ignored, and
        so is one whose ``frame_time`` is not its pending request's: it is
        not that task's result, and integrating it would step the tracker
        at a time no frame was taken."""
        task_id = result.task_id
        pend = self.pending.get(task_id)
        if pend is None or result.frame_time != pend.req.frame_time:
            return False, []
        applied = False
        if result.status != STATUS_OK:
            counter = "failed"
        else:
            applied = integrate(self.tracker, result)
            counter = "ok_integrated" if applied else "stale_dropped"
        self._terminate(task_id, counter)
        return applied, self._drain(t_now)

    def heartbeat(self, worker_id: str, now: float) -> list[tuple[TaskRequest, str]]:
        """Note a worker's heartbeat.  An unknown (or reaped) worker is
        registered last in the order, and the queue drains onto it."""
        known = worker_id in self.workers
        self.workers[worker_id] = now
        return [] if known else self._drain(now)

    def reap(self, now: float) -> list[tuple[TaskRequest, str]]:
        """Expire overdue tasks and dead workers, then drain the queue.

        A task on a worker whose timeout has run out, counted from when it
        was last sent, is retried exactly once, at the queue's tail
        (dropped if the queue is full); a second expiry drops it.  A
        queued task does not time out: its clock starts when it is sent.
        Workers silent for three heartbeat intervals are deregistered and
        their tasks expired, whatever their age (a heartbeat seen again
        later registers the worker again).  A task never names a worker
        that is not registered, since only this call deregisters one.
        """
        for wid in [wid for wid, beat in self.workers.items()
                    if now - beat > HEARTBEAT_MISSES * self.heartbeat_interval]:
            del self.workers[wid]
        self.rr_cursor = self.rr_cursor % len(self.workers) if self.workers else 0
        for task_id in sorted(self.pending):
            pend = self.pending[task_id]
            if pend.worker_id is None or (now - pend.sent <= self.timeout
                                          and pend.worker_id in self.workers):
                continue
            if pend.retries >= 1:
                self._terminate(task_id, "timeout_dropped")
                continue
            self.counters["retries"] += 1
            del self.pending[task_id]
            self._enqueue(pend.req, retries=1)
        return self._drain(now)

    def conserved(self) -> bool:
        terminal = sum(v for k, v in self.counters.items()
                       if k not in ("submitted", "retries"))
        return terminal + len(self.pending) == self.counters["submitted"]


def integrate(tracker: Tracker, result: TaskResult) -> bool:
    """Fold an ok edge result into the tracker at its frame time.

    In-horizon results are exact via rollback-replay (a batch with no
    detections still scores misses like any frame).  Results
    older than the snapshot horizon cannot be restored and report False.
    """
    key = (result.frame_time, LANE_EDGE, result.task_id)
    return tracker.process_batch(key, result.detections)
