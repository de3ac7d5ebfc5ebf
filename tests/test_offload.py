import struct

import numpy as np
import pytest
from conftest import BAD_POSES, tracker_state
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from fusionsim.fusion import Detections
from fusionsim.geometry import Pose
from fusionsim.offload import (
    Broker,
    PendingTask,
    STATUS_FAILED,
    STATUS_OK,
    TaskRequest,
    TaskResult,
    WorkerConfig,
    emulate_worker,
    integrate,
)
from fusionsim.sensing import SensorNoiseConfig
from fusionsim.tracker import LANE_LOCAL, Tracker, TrackerConfig


def req(task_id, t=0.0, visible_ids=(), rig_pose=Pose.identity()):
    return TaskRequest(task_id, t, visible_ids, rig_pose)


NO_DETECTIONS = Detections(np.empty((0, 3)), np.empty((0, 3, 3)))


def det(pos, var=0.04):
    """A batch of one detection at ``pos``."""
    return Detections(np.array([pos], dtype=float), var * np.eye(3)[None])


def broker_of(n, tracker=None, **kwargs):
    """A broker with workers ``edge/w0`` .. ``edge/w{n-1}``, each last
    heard at 0, as the engine registers them, and ``tracker`` (a new
    one by default)."""
    return Broker(tracker or Tracker(), workers={f"edge/w{i}": 0.0 for i in range(n)}, **kwargs)


def pending_on(*worker_ids):
    """Pending tasks 100, 101, ... held by the given workers."""
    return {100 + k: PendingTask(req(100 + k), 0.0, wid) for k, wid in enumerate(worker_ids)}


def idle_while_queued(broker):
    """Registered workers that no pending task names, while a task waits."""
    if not broker.queue:
        return []
    busy = {pend.worker_id for pend in broker.pending.values()}
    return [wid for wid in broker.workers if wid not in busy]


class TestDispatch:
    """The round-robin pick a submission (or a drain) makes: an idle
    worker, or none, and then the task waits in the queue."""

    def test_round_robin_saturation(self):
        broker = broker_of(2)
        assert broker.submit(req(1), 0.0) == "edge/w0"
        assert broker.submit(req(2), 0.0) == "edge/w1"
        assert broker.submit(req(3), 0.0) is None
        assert broker.queue == [req(3)]

    def test_no_workers(self):
        broker = Broker(Tracker())
        assert broker.submit(req(1), 0.0) is None
        assert broker.queue == [req(1)]

    def test_skips_busy(self):
        broker = broker_of(2)
        broker.pending.update(pending_on("edge/w0"))
        assert broker.submit(req(1), 0.0) == "edge/w1"
        # a queued task names no worker
        broker = broker_of(2)
        broker.pending.update(pending_on(None, "edge/w1"))
        assert broker.submit(req(1), 0.0) == "edge/w0"

    def test_fairness(self):
        broker = broker_of(4)
        counts = dict.fromkeys(broker.workers, 0)
        for k in range(100):
            # instant completion: the task settles before the next one
            counts[broker.submit(req(k), 0.0)] += 1
            failed = TaskResult(k, STATUS_FAILED, 0.0, NO_DETECTIONS)
            assert broker.on_result(failed, 0.0) == (False, [])
        # re-saturate: with k idle workers and n >> k uniform tasks,
        # per-worker counts differ by at most one
        assert max(counts.values()) - min(counts.values()) <= 1
        assert broker.conserved() and broker.counters["failed"] == 100


class TestEmulateWorker:
    POSITIONS = np.array([[10.0, 2.0, 0.5]])

    def test_fixed_latency_ok(self):
        cfg = WorkerConfig(lat_min=0.2, lat_max=0.2, p_fail=0.0)
        latency, out = emulate_worker(req(1, t=3.0), self.POSITIONS, cfg,
                                      np.random.default_rng(0))
        assert out.status == STATUS_OK
        assert latency == pytest.approx(0.2)
        assert out.frame_time == 3.0

    def test_always_fails(self):
        cfg = WorkerConfig(p_fail=1.0)
        _, out = emulate_worker(req(1), self.POSITIONS, cfg, np.random.default_rng(0))
        assert out.status == STATUS_FAILED
        assert len(out.detections) == 0

    def test_noise_free_profile_exact(self):
        cfg = WorkerConfig(lat_min=0.1, lat_max=0.1,
                           profile=SensorNoiseConfig(p_detect=1.0, max_range=500.0))
        _, out = emulate_worker(req(1), self.POSITIONS, cfg, np.random.default_rng(0))
        assert len(out.detections) == 1
        assert np.abs(out.detections.positions[0] - self.POSITIONS[0]).max() < 1e-9

    def test_deterministic(self):
        cfg = WorkerConfig()
        outs = [emulate_worker(req(1), self.POSITIONS, cfg, np.random.default_rng(5))[1]
                .to_payload() for _ in range(2)]
        assert outs[0] == outs[1]


def local_batches(n=20, dt=0.05):
    out = []
    for k in range(n):
        t = k * dt
        out.append(((t, LANE_LOCAL, 0), det([5.0 + t, 0, 0])))
    return out


def edge_result(task_id, frame_time, pos):
    return TaskResult(task_id, STATUS_OK, frame_time,
                      det(pos, var=0.01))


class TestIntegrate:
    def test_zero_latency_equals_normal_step(self):
        batches = local_batches()
        results = [edge_result(100 + k, b[0][0], [5.0 + b[0][0], 0.1, 0])
                   for k, b in enumerate(batches)]

        viaintegrate = Tracker()
        stream_a = []
        for (key, dets), res in zip(batches, results):
            viaintegrate.process_batch(key, dets)
            assert integrate(viaintegrate, res)
            stream_a.append(tracker_state(viaintegrate))

        direct = Tracker()
        stream_b = []
        for (key, dets), res in zip(batches, results):
            direct.process_batch(key, dets)
            direct.process_batch((res.frame_time, 1, res.task_id), res.detections)
            stream_b.append(tracker_state(direct))
        assert stream_a == stream_b

    def test_delayed_result_matches_in_order_oracle(self):
        batches = local_batches()
        res = edge_result(500, 0.30, [5.32, 0.05, 0])

        actual = Tracker(TrackerConfig(snapshot_horizon=1.0))
        for key, dets in batches:
            actual.process_batch(key, dets)
            if abs(key[0] - 0.50) < 1e-9:  # result arrives 0.2 s after its frame
                assert integrate(actual, res)

        oracle = Tracker(TrackerConfig(snapshot_horizon=1.0))
        merged = batches + [((res.frame_time, 1, res.task_id), res.detections)]
        for key, dets in sorted(merged, key=lambda b: b[0]):
            oracle.process_batch(key, dets)
        assert tracker_state(actual) == tracker_state(oracle)

    def test_result_older_than_horizon_dropped(self):
        batches = local_batches(n=50, dt=0.05)  # 2.45 s span
        tk = Tracker(TrackerConfig(snapshot_horizon=1.0))
        for key, dets in batches:
            tk.process_batch(key, dets)
        before = tracker_state(tk)
        assert not integrate(tk, edge_result(1, 0.1, [5, 0, 0]))
        assert tracker_state(tk) == before


def result(status=STATUS_OK, frame_time=0.5, positions=((1.0, 2.0, 3.0),),
           covs=np.eye(3)[None]):
    """Task 1's result of the given detections."""
    return TaskResult(1, status, frame_time, Detections(np.array(positions, dtype=float),
                                                        np.array(covs, dtype=float)))


def refused(parse, message_or_payload, match=None):
    payload = message_or_payload if isinstance(message_or_payload, bytes) else \
        message_or_payload.to_payload()
    with pytest.raises(ValueError, match=match):
        parse(payload)


class TestPayload:
    @pytest.mark.parametrize("status, byte", [(STATUS_OK, 1), (STATUS_FAILED, 0)])
    def test_zero_detection_result_round_trips(self, status, byte):
        res = TaskResult(3, status, 0.25, NO_DETECTIONS)
        wire = res.to_payload()
        assert wire == struct.pack("<qdBI", 3, 0.25, byte, 0)
        back = TaskResult.from_payload(wire)
        assert (back.task_id, back.status, back.frame_time) == (3, status, 0.25)
        assert back.detections.positions.shape == (0, 3)
        assert back.detections.covs.shape == (0, 3, 3)
        assert back.to_payload() == wire

    @pytest.mark.parametrize("field", ["positions", "covs"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 1.01e100,
                                       -1.7e308])
    def test_a_non_finite_detection_is_refused(self, field, value):
        # the payload layout's rule, which refuses a number past the bound too
        res = result()
        getattr(res.detections, field)[0, 1] = value
        refused(TaskResult.from_payload, res, "not finite or past 1e\\+100")

    @pytest.mark.parametrize("positions,covs", [
        ([[1.0, 2.0, 3.0]] * 2, [np.eye(3)]), (np.empty((0, 3)), [np.eye(3)]),
        ([[1.0, 2.0, 3.0]], np.empty((0, 3, 3))),
    ])
    def test_stacks_of_another_row_count_raise(self, positions, covs):
        refused(TaskResult.from_payload, result(positions=positions, covs=covs), "its head of")

    @pytest.mark.parametrize("count", [0, 2, 2**32 - 1])
    def test_a_result_count_that_disagrees_with_the_length_is_refused(self, count):
        payload = bytearray(result().to_payload())
        struct.pack_into("<I", payload, 17, count)  # after task_id, frame_time, status
        refused(TaskResult.from_payload, bytes(payload), "its head of")

    @pytest.mark.parametrize("status", [2, 0x80, 0xFF])
    def test_an_unknown_status_is_refused(self, status):
        payload = bytearray(result().to_payload())
        payload[16] = status  # after task_id and frame_time
        refused(TaskResult.from_payload, bytes(payload), "neither 1 \\(ok\\) nor 0")

    @pytest.mark.parametrize("frame_time", [float("nan"), float("inf"), -float("inf")])
    def test_a_non_finite_frame_time_is_refused(self, frame_time):
        refused(TaskResult.from_payload, result(frame_time=frame_time), "not finite")
        refused(TaskRequest.from_payload, req(1, frame_time, (2, 7)), "not finite")

    def test_a_request_round_trips(self):
        payload = req(1, 0.5, (2, 7)).to_payload()
        assert len(payload) == 116 + 2 * 8
        back = TaskRequest.from_payload(payload)
        assert (back.task_id, back.frame_time, back.visible_ids) == (1, 0.5, (2, 7))
        assert back.to_payload() == payload

    @pytest.mark.parametrize("pose", BAD_POSES)
    def test_a_request_pose_that_pose_refuses_is_refused(self, pose):
        refused(TaskRequest.from_payload, req(1, 0.5, (2, 7), pose))

    @pytest.mark.parametrize("count", [0, 1, 3, 2**32 - 1])
    def test_a_request_count_that_disagrees_with_the_length_is_refused(self, count):
        payload = bytearray(req(1, 0.5, (2, 7)).to_payload())
        struct.pack_into("<I", payload, 16, count)  # after task_id and frame_time
        refused(TaskRequest.from_payload, bytes(payload), "its head of")


class TestBrokerConservation:
    def test_every_task_terminates_once(self):
        broker = broker_of(2, timeout=1.0, queue_bound=2)
        tk = broker.tracker
        now = 0.0
        # 6 submissions: 2 dispatched, 2 queued, 2 dropped (queue full)
        for k in range(6):
            broker.submit(req(k, t=now), now)
        assert broker.counters["queue_dropped"] == 2
        # worker 0 returns ok; queue drains one task onto it
        tk.process_batch((0.0, LANE_LOCAL, 0), det([5, 0, 0]))
        applied, sends = broker.on_result(edge_result(0, 0.0, [5.1, 0, 0]), 0.0)
        assert applied and len(sends) == 1
        # worker 1 fails its task
        applied, _ = broker.on_result(TaskResult(1, STATUS_FAILED, 0.0, NO_DETECTIONS),
                                      0.1)
        assert not applied
        # remaining two pending tasks expire twice on their live workers:
        # retry then drop
        for now in (2.0, 4.0):
            for wid in list(broker.workers):
                broker.heartbeat(wid, now)
            broker.reap(now)
            assert broker.counters["retries"] == 2
        c = broker.counters
        assert c["submitted"] == 6
        assert c["ok_integrated"] + c["failed"] + c["timeout_dropped"] + \
            c["stale_dropped"] + c["queue_dropped"] == 6
        assert broker.conserved()
        assert broker.pending == {}

    def test_late_result_for_settled_task_ignored(self):
        broker = broker_of(1, timeout=0.5)
        broker.submit(req(1, t=0.0), 0.0)
        broker.reap(1.0)   # retry once
        broker.reap(2.0)   # second expiry: dropped
        assert broker.counters["timeout_dropped"] == 1
        applied, _ = broker.on_result(edge_result(1, 0.0, [5, 0, 0]), 2.1)
        assert not applied
        assert broker.conserved()

    def test_result_for_unknown_task_ignored(self):
        broker = broker_of(1, timeout=10.0)
        tk = broker.tracker
        broker.submit(req(1, t=0.0), 0.0)
        before = dict(broker.counters)
        applied, _ = broker.on_result(edge_result(999, 0.0, [5, 0, 0]), 0.1)
        assert not applied
        assert broker.counters == before
        assert len(tk.tracks) == 0
        assert list(broker.pending) == [1]
        assert broker.conserved()

    def test_stray_result_leaves_its_worker_busy(self):
        broker = broker_of(1, timeout=10.0)
        tk = broker.tracker
        assert broker.submit(req(1, t=0.0), 0.0) == "edge/w0"
        assert broker.submit(req(2, t=0.0), 0.0) is None  # queued
        # w0 still holds task 1: a result for task 999 frees nothing
        applied, sends = broker.on_result(edge_result(999, 0.0, [5, 0, 0]), 0.1)
        assert (applied, sends) == (False, [])
        assert broker.queue == [req(2, t=0.0)]
        assert broker.pending[2].worker_id is None
        assert broker.submit(req(3, t=0.1), 0.1) is None
        # task 1's own result frees w0, and the queue drains onto it
        tk.process_batch((0.0, LANE_LOCAL, 0), det([5, 0, 0]))
        applied, sends = broker.on_result(edge_result(1, 0.0, [5.1, 0, 0]), 0.2)
        assert applied and sends == [(req(2, t=0.0), "edge/w0")]
        assert broker.conserved()

    def test_result_for_a_queued_retry_settles_it(self):
        # w0 dies holding task 1, whose retry waits for w1, busy with task 2;
        # task 1's late result settles it and takes it out of the queue
        broker = broker_of(2, timeout=100.0, heartbeat_interval=0.5)
        broker.submit(req(1), 0.0)
        broker.submit(req(2), 0.0)
        broker.workers["edge/w1"] = 10.0
        assert broker.reap(10.0) == []
        assert broker.queue == [req(1)] and broker.pending[1].worker_id is None
        failed = TaskResult(1, STATUS_FAILED, 0.0, NO_DETECTIONS)
        assert broker.on_result(failed, 10.1) == (False, [])
        assert broker.queue == [] and list(broker.pending) == [2]
        # freeing w1 finds no queued task left to send
        failed = TaskResult(2, STATUS_FAILED, 0.0, NO_DETECTIONS)
        assert broker.on_result(failed, 10.2) == (False, [])
        assert broker.counters["failed"] == 2 and broker.pending == {}
        assert broker.conserved()

    def test_failed_result_not_integrated(self):
        # a failed result for a pending task inside the horizon is counted
        # failed, and its detections never reach the tracker
        broker = broker_of(1, timeout=10.0)
        tk = broker.tracker
        tk.process_batch((0.0, LANE_LOCAL, 0), det([5, 0, 0]))
        broker.submit(req(1, t=0.0), 0.0)
        before = tracker_state(tk)
        failed = TaskResult(1, STATUS_FAILED, 0.0, det([5.1, 0, 0]))
        assert broker.on_result(failed, 0.1) == (False, [])
        assert broker.counters["failed"] == 1 and broker.pending == {}
        assert tracker_state(tk) == before

    def test_stale_result_counted(self):
        tk = Tracker(TrackerConfig(snapshot_horizon=1.0))
        broker = broker_of(1, timeout=10.0, tracker=tk)
        for key, dets in local_batches(n=50, dt=0.05):
            tk.process_batch(key, dets)
        broker.submit(req(7, t=0.1), 0.1)
        applied, _ = broker.on_result(edge_result(7, 0.1, [5, 0, 0]), 2.45)
        assert not applied
        assert broker.counters["stale_dropped"] == 1
        assert broker.conserved()

    def test_a_queued_task_whose_frame_is_stale_is_settled_unsent(self):
        # tasks 2 and 3 wait behind task 1 while the tracker steps to
        # 2.45 s, so its cutoff is 1.45 s: a drain settles task 2 (frame
        # 0.05 s) unsent even while no worker is idle, and task 3 (frame
        # 2 s) waits for w0, which task 1's stale result frees
        tk = Tracker(TrackerConfig(snapshot_horizon=1.0))
        broker = broker_of(1, timeout=10.0, heartbeat_interval=10.0, tracker=tk)
        assert broker.submit(req(1, t=0.0), 0.0) == "edge/w0"
        assert broker.submit(req(2, t=0.05), 0.05) is None
        assert broker.submit(req(3, t=2.0), 2.0) is None
        for key, dets in local_batches(n=50, dt=0.05):
            tk.process_batch(key, dets)
        assert tk.cutoff == pytest.approx(1.45)
        assert broker.reap(2.45) == [] and broker.queue == [req(3, t=2.0)]
        assert broker.counters["stale_dropped"] == 1
        applied, sends = broker.on_result(edge_result(1, 0.0, [5, 0, 0]), 2.45)
        assert not applied and sends == [(req(3, t=2.0), "edge/w0")]
        assert broker.counters["stale_dropped"] == 2 and broker.conserved()
        # the tracker refuses task 2's frame from then on
        assert not integrate(tk, edge_result(2, 0.05, [5, 0, 0]))


class TestReapTimeouts:
    def test_retry_then_drop(self):
        broker = broker_of(1, timeout=1.0)
        broker.submit(req(1, t=0.0), 0.0)
        assert broker.pending[1].retries == 0
        sends = broker.reap(1.5)
        assert broker.pending[1].retries == 1
        assert len(sends) == 1  # resent to the (now freed) worker
        broker.reap(3.0)
        assert 1 not in broker.pending
        assert broker.counters["timeout_dropped"] == 1

    def test_retry_queues_behind_older_tasks_and_the_queue_drains(self):
        # one worker, timeout 1 s: task 1 is sent at 0 and task 2 queued at
        # 0.5.  Task 1's retry joins the queue behind task 2, and every reap
        # drains the queue onto the worker it frees.  A task's timeout runs
        # from its send, never while it waits in the queue: task 2, sent at
        # 1.1, is retried at 2.2, when task 1's retry, queued since 1.1, is
        # sent; that is dropped at 3.3 and task 2's retry, sent then, at 4.4
        broker = broker_of(1, timeout=1.0, heartbeat_interval=10.0)
        assert broker.submit(req(1), 0.0) == "edge/w0"
        assert broker.submit(req(2, t=0.5), 0.5) is None
        assert broker.reap(1.1) == [(req(2, t=0.5), "edge/w0")]
        assert broker.queue == [req(1)]
        for now, sends in ((1.6, []), (2.2, [(req(1), "edge/w0")]), (2.8, []),
                           (3.3, [(req(2, t=0.5), "edge/w0")]), (3.9, []), (4.4, [])):
            assert broker.reap(now) == sends
            assert idle_while_queued(broker) == []
        assert broker.counters["retries"] == 2
        assert broker.counters["timeout_dropped"] == 2
        assert broker.pending == {} and broker.conserved()

    def test_a_retry_finding_the_queue_full_is_dropped(self):
        broker = broker_of(1, timeout=1.0, queue_bound=1, heartbeat_interval=10.0)
        broker.submit(req(1), 0.0)
        broker.submit(req(2, t=0.5), 0.5)
        broker.submit(req(3, t=0.9), 0.9)  # the queue is full
        assert broker.counters["queue_dropped"] == 1
        # task 1 times out while task 2 holds the queue's one place: the
        # retry is dropped, and task 2 takes the freed worker
        assert broker.reap(1.1) == [(req(2, t=0.5), "edge/w0")]
        assert broker.counters["queue_dropped"] == 2
        assert broker.counters["retries"] == 1
        assert broker.conserved()

    def test_healthy_heartbeat_no_change(self):
        broker = broker_of(2)
        for wid in broker.workers:
            broker.workers[wid] = 9.9
        broker.submit(req(1, t=9.9), 9.9)
        sends = broker.reap(10.0)
        assert sends == []
        assert len(broker.workers) == 2
        assert 1 in broker.pending

    def test_dead_worker_deregistered_and_task_expired(self):
        broker = broker_of(2, heartbeat_interval=0.5)
        broker.workers["edge/w1"] = 10.0
        broker.submit(req(1, t=0.0), 0.0)  # lands on w0
        sends = broker.reap(10.0)
        assert broker.workers == {"edge/w1": 10.0}
        # task retried onto the surviving worker immediately
        assert sends and sends[0][1] == "edge/w1"

    def test_heartbeat_reregisters(self):
        broker = broker_of(1, heartbeat_interval=0.5)
        broker.reap(10.0)
        assert broker.workers == {}
        assert broker.heartbeat("edge/w0", 10.5) == []
        assert broker.workers == {"edge/w0": 10.5}
        assert broker.submit(req(1, t=10.5), 10.5) == "edge/w0"  # idle

    def test_a_returning_worker_is_last_in_the_order(self):
        # w0 takes task 1, so the cursor moves to position 1; reaped, w0
        # leaves w1 and w2, and the cursor stays at position 1 (1 % 2),
        # now w2's; back again, w0 registers after them
        broker = broker_of(3, timeout=100.0, heartbeat_interval=0.5)
        assert broker.submit(req(1), 0.0) == "edge/w0"
        assert broker.on_result(TaskResult(1, STATUS_FAILED, 0.0, NO_DETECTIONS),
                                0.0) == (False, [])
        broker.heartbeat("edge/w1", 10.0)
        broker.heartbeat("edge/w2", 10.0)
        assert broker.reap(10.0) == [] and broker.rr_cursor == 1
        assert broker.heartbeat("edge/w0", 10.1) == []
        assert list(broker.workers) == ["edge/w1", "edge/w2", "edge/w0"]
        assert [broker.submit(req(k), 10.2) for k in (2, 3, 4)] == \
            ["edge/w2", "edge/w0", "edge/w1"]

    def test_a_returning_worker_takes_the_queue(self):
        broker = broker_of(1, timeout=100.0, heartbeat_interval=0.5)
        broker.reap(10.0)
        assert broker.submit(req(1, t=10.0), 10.0) is None  # no worker: queued
        assert broker.heartbeat("edge/w0", 10.5) == [(req(1, t=10.0), "edge/w0")]
        assert broker.heartbeat("edge/w0", 11.0) == []
        assert broker.pending[1].worker_id == "edge/w0"


WORKERS = ("edge/w0", "edge/w1")


class BrokerMachine(RuleBasedStateMachine):
    """Random sequences of submissions, results (on time, late, stray and
    failed), timeout reaps, ego tracker steps, and heartbeats lost and
    back on one or two workers.  After every step the broker conserves
    tasks, names each worker in at most one pending task, and leaves no
    registered worker idle while a task waits.  A reap expires a task on a
    live worker only once it has been on that worker for longer than the
    timeout since it was last sent, also when it waited in the queue
    before, and never expires a task that waits in the queue.  No task is
    ever sent whose frame is before the tracker's cutoff, and a queued
    task leaves the queue unsent only as stale, its frame before it.

    Reaps come 0.6 s apart, so a task expires at its second reap after
    submission: short enough for a retry to meet younger queued tasks in
    a few steps.  The tracker's horizon is shorter than a reap interval,
    or longer than two."""

    @initialize(n_workers=st.sampled_from([1, 2]), horizon=st.sampled_from([0.5, 1.5]))
    def start(self, n_workers, horizon):
        self.tracker = Tracker(TrackerConfig(snapshot_horizon=horizon))
        self.broker = broker_of(n_workers, timeout=1.0, queue_bound=2,
                                heartbeat_interval=0.5, tracker=self.tracker)
        self.steps = 0
        self.now = 0.0
        self.submitted: list[int] = []
        self.workers = WORKERS[:n_workers]
        self.beating = set(self.workers)
        self.sent_at: dict[int, float] = {}  # task id -> when it was last sent

    def sent(self, sends):
        for request, _ in sends:
            assert request.frame_time >= self.tracker.cutoff
            self.sent_at[request.task_id] = self.now

    @rule()
    def submit(self):
        task_id = len(self.submitted) + 1
        self.submitted.append(task_id)
        if self.broker.submit(req(task_id, t=self.now), self.now) is not None:
            self.sent_at[task_id] = self.now

    @rule()
    def ego_step(self):
        # the ego's local batch at the current time, as a flush makes it
        self.steps += 1
        self.tracker.process_batch((self.now, LANE_LOCAL, self.steps), NO_DETECTIONS)

    @rule()
    def reap(self):
        # as in a run, time moves on between reaps and workers that still
        # beat have sent a heartbeat
        self.now += 0.6
        for wid in sorted(self.beating):
            self.sent(self.broker.heartbeat(wid, self.now))
        before = dict(self.broker.pending)
        on_worker = {i for i, p in before.items() if p.worker_id is not None}
        sends = self.broker.reap(self.now)
        alive = set(self.broker.workers)
        for task_id, pend in before.items():
            # an expired task is settled or retried as a new pending entry;
            # one on a worker that died expires whatever its age
            if self.broker.pending.get(task_id) is pend:
                continue
            if task_id not in on_worker:
                # a queued task leaves unsent only settled stale
                assert task_id not in self.broker.pending
                assert pend.req.frame_time < self.tracker.cutoff
                continue
            if pend.worker_id in alive:
                assert self.now - self.sent_at[task_id] > self.broker.timeout
        self.sent(sends)

    @precondition(lambda self: self.broker.pending)
    @rule(k=st.integers(0, 7), ok=st.booleans())
    def result_pending(self, k, ok):
        # on time from the worker it names, or late from a retried task's
        # first worker: the broker settles the task either way
        pending = sorted(self.broker.pending)
        task_id = pending[k % len(pending)]
        frame_time = self.broker.pending[task_id].req.frame_time
        result = edge_result(task_id, frame_time, [5.0, 0.0, 0.0]) if ok else \
            TaskResult(task_id, STATUS_FAILED, frame_time, NO_DETECTIONS)
        self.sent(self.broker.on_result(result, self.now)[1])
        assert task_id not in self.broker.pending

    @rule(k=st.integers(0, 7))
    def result_not_pending(self, k):
        # late, for a task settled already, or stray, for one never submitted
        settled = [i for i in self.submitted if i not in self.broker.pending]
        task_id = settled[k % len(settled)] if k < len(settled) else 10_000 + k
        before = (dict(self.broker.counters), dict(self.broker.pending), list(self.broker.queue))
        result = edge_result(task_id, 0.0, [5.0, 0.0, 0.0])
        assert self.broker.on_result(result, self.now) == (False, [])
        assert (self.broker.counters, self.broker.pending, self.broker.queue) == before

    @rule(k=st.integers(0, 1))
    def heartbeat_lost(self, k):
        self.beating.discard(self.workers[k % len(self.workers)])

    @rule(k=st.integers(0, 1))
    def heartbeat_back(self, k):
        wid = self.workers[k % len(self.workers)]
        self.beating.add(wid)
        self.sent(self.broker.heartbeat(wid, self.now))

    @invariant()
    def conserved(self):
        assert self.broker.conserved()

    @invariant()
    def one_pending_task_per_worker(self):
        named = [p.worker_id for p in self.broker.pending.values() if p.worker_id]
        assert len(named) == len(set(named))

    @invariant()
    def no_idle_worker_while_a_task_waits(self):
        assert idle_while_queued(self.broker) == []


TestBrokerMachine = BrokerMachine.TestCase
TestBrokerMachine.settings = settings(max_examples=60, stateful_step_count=50, deadline=None)
