import numpy as np
import pytest
from conftest import batch_bytes, state_bytes, tracker_state
from hypothesis import given, settings, strategies as st

from fusionsim.collab import (
    CiPairs,
    CollabState,
    RemoteTrackMsg,
    RemoteTracks,
    align,
    ci_fuse,
    ci_omega,
    covi_step,
    t2t_associate,
)
from fusionsim.fusion import Detections
from fusionsim.geometry import Pose
from fusionsim.tracker import GATE_QUANTILES, LANE_EDGE, LANE_LOCAL, Tracker, TrackerConfig, spawn

GAMMA_99 = GATE_QUANTILES[0.99]


def random_psd(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim))
    return scale * (a @ a.T + 0.1 * np.eye(dim))


def detections(positions, var=0.09):
    """A batch of detections at ``positions``, each with covariance var * I."""
    positions = np.array(positions, dtype=float).reshape(-1, 3)
    return Detections(positions, np.tile(var * np.eye(3), (len(positions), 1, 1)))


def stacked(remote):
    """(mean, cov) pairs as the stacked means and covariances ``align``
    returns."""
    return np.array([m for m, _ in remote]), np.array([c for _, c in remote])


def local_tracks(positions, cov=np.eye(6)):
    """A batch of new tentative tracks, ids from 1, at rest at ``positions``
    with covariance ``cov``."""
    positions = np.array(positions, dtype=float).reshape(-1, 3)
    means = np.concatenate([positions, np.zeros_like(positions)], axis=1)
    return spawn(1, means, np.tile(cov, (len(means), 1, 1)), TrackerConfig())


def msg(tracks, timestamp=0.0, pose=None, sender="rsu1"):
    """A message from ``sender`` of (remote id, mean, cov) tracks, stacked."""
    stack = RemoteTracks(tuple(rid for rid, _, _ in tracks),
                         np.array([mean for _, mean, _ in tracks], dtype=float).reshape(-1, 6),
                         np.array([cov for _, _, cov in tracks], dtype=float).reshape(-1, 6, 6))
    return RemoteTrackMsg(sender, pose or Pose.identity(), timestamp, stack)


def fused_trace(pa, pb, w):
    return float(np.trace(np.linalg.inv(w * np.linalg.inv(pa) + (1 - w) * np.linalg.inv(pb))))


def omega_of(pa, pb):
    """``ci_omega`` of one pair: its weight, or None when it is left out."""
    ci = ci_omega(pa[None], pb[None])
    return float(ci.omega[0]) if len(ci.index) else None


def fuse(xa, pa, xb, pb):
    """``ci_fuse`` of one pair at the weight ``ci_omega`` finds for it."""
    _, x, p = ci_fuse(xa[None], xb[None], ci_omega(pa[None], pb[None]))
    return x[0], p[0]


def fuse_at(xa, pa, xb, pb, w):
    """``ci_fuse`` of a stack of pairs at the weights ``w``, with what
    ``ci_omega`` would hand it for those weights."""
    w = np.asarray(w, dtype=float)
    pa_inv, pb_inv = np.linalg.inv(pa), np.linalg.inv(pb)
    info = w[:, None, None] * pa_inv + (1.0 - w)[:, None, None] * pb_inv
    ci = CiPairs(np.arange(len(w)), w, pa, pb, pa_inv, pb_inv, info, np.linalg.inv(info))
    _, x, p = ci_fuse(xa, xb, ci)
    return x, p


def grid_scan_omega(pa, pb, step=1e-3):
    pa_inv, pb_inv = np.linalg.inv(pa), np.linalg.inv(pb)
    grid = np.arange(0.0, 1.0 + step / 2, step)
    info = grid[:, None, None] * pa_inv + (1 - grid)[:, None, None] * pb_inv
    traces = np.trace(np.linalg.inv(info), axis1=1, axis2=2)
    return float(grid[int(np.argmin(traces))])


class TestPayload:
    def payload(self):
        mean, cov = np.arange(6.0), np.eye(6)
        return msg([(7, mean, cov), (9, -mean, 2.0 * cov)], timestamp=0.5).to_payload()

    def test_round_trip(self):
        assert sorted(self.payload()) == ["covs", "ids", "means", "sender_pose", "timestamp"]
        back = RemoteTrackMsg.from_payload(self.payload(), "ego")
        assert back.sender == "ego" and back.timestamp == 0.5
        assert back.tracks.ids == (7, 9) and len(back.tracks) == 2
        assert np.array_equal(back.tracks.means, [np.arange(6.0), -np.arange(6.0)])
        assert np.array_equal(back.tracks.covs, [np.eye(6), 2.0 * np.eye(6)])

    def test_empty_message_is_a_stack_of_zero_rows(self):
        d = msg([]).to_payload()
        assert (d["ids"], d["means"], d["covs"]) == ([], [], [])
        back = RemoteTrackMsg.from_payload(d, "rsu1")
        assert back.tracks.means.shape == (0, 6) and back.tracks.covs.shape == (0, 6, 6)

    @pytest.mark.parametrize("field,value", [
        ("timestamp", "0.5"), ("timestamp", float("nan")), ("timestamp", True),
        ("ids", {}), ("ids", [7]), ("ids", [7, 9, 11]), ("means", [0.0] * 12),
        ("means", [[0.0] * 6]), ("covs", [np.eye(6).tolist()]),
        ("sender_pose", {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [1, 2, 3]}),
        ("sender_pose", {"rotation": np.eye(3).tolist(), "translation": ["1", "2", "3"]}),
    ])
    def test_bad_field_raises(self, field, value):
        d = self.payload()
        d[field] = value
        with pytest.raises(ValueError):
            RemoteTrackMsg.from_payload(d, "rsu1")

    @pytest.mark.parametrize("field,value", [
        ("remote_id", "7"), ("mean", [0.0] * 5), ("mean", ["a"] * 6), ("cov", [[1.0] * 6] * 5),
        ("remote_id", True), ("remote_id", 2.5),
    ])
    def test_bad_track_raises(self, field, value):
        # one track's row of the stacks
        d = self.payload()
        d[{"remote_id": "ids", "mean": "means", "cov": "covs"}[field]][0] = value
        with pytest.raises(ValueError):
            RemoteTrackMsg.from_payload(d, "rsu1")

    def test_non_finite_track_is_left_to_align(self):
        # covi_step counts such a message as rejected rather than malformed
        d = self.payload()
        d["means"][0][0] = float("nan")
        assert np.isnan(RemoteTrackMsg.from_payload(d, "rsu1").tracks.means[0, 0])


class TestAlign:
    def test_identity_alignment(self):
        cov = np.eye(6)
        means, covs = align(msg([(7, np.arange(6.0), cov)]), 0.0, q=1.0)
        assert np.allclose(means[0], np.arange(6.0), atol=1e-12)
        assert np.allclose(covs[0], cov, atol=1e-12)

    def test_cv_extrapolation(self):
        mean = np.array([0.0, 0, 0, 1, 0, 0])
        means, _ = align(msg([(1, mean, np.eye(6))], timestamp=0.0), 2.0, q=1.0)
        assert np.allclose(means[0][:3], [2, 0, 0], atol=1e-12)

    def test_an_old_message_is_predicted_not_refused(self):
        # the age bound is covi_step's; align predicts any age >= 0
        mean = np.array([0.0, 0, 0, 1, 0, 0])
        means, _ = align(msg([(1, mean, np.eye(6))], timestamp=0.0), 5.0, q=1.0)
        assert np.allclose(means[0][:3], [5, 0, 0], atol=1e-12)

    def test_frame_mapping(self):
        # sender 10 m east of the world origin the receiver tracks in
        sender_pose = Pose(np.eye(3), [10.0, 0.0, 0.0])
        means, _ = align(msg([(1, np.zeros(6), np.eye(6))], pose=sender_pose), 0.0, q=1.0)
        assert np.allclose(means[0][:3], [10, 0, 0], atol=1e-12)


class TestT2TAssociate:
    def test_identical_means_associate(self):
        local = local_tracks([[5.0, 0, 0]])
        remote = [(np.array([5.0, 0, 0, 0, 0, 0]), np.eye(6))]
        assert t2t_associate(local, *stacked(remote), GAMMA_99) == ([(0, 0)], [])

    def test_far_apart_rejected(self):
        local = local_tracks([[0.0, 0, 0]])
        remote = [(np.concatenate([[100.0, 0, 0], np.zeros(3)]), np.eye(6))]
        # d2 = 100^2 / 2 = 5000 >> 11.345: not paired, and it spawns
        assert t2t_associate(local, *stacked(remote), GAMMA_99) == ([], [0])

    def test_gated_but_unassigned_neither_pairs_nor_spawns(self):
        # the first two remote tracks gate the one local track: the nearer
        # pairs, the other lost the assignment and is dropped; the far
        # third one gates nothing and spawns
        local = local_tracks([[0.0, 0, 0]])
        remote = [(np.array([x, 0, 0, 0, 0, 0]), np.eye(6)) for x in (2.0, 0.5, 50.0)]
        assert t2t_associate(local, *stacked(remote), GAMMA_99) == ([(0, 1)], [2])

    def test_crossing_costs_optimal(self):
        local = local_tracks([[0.0, 0, 0], [4.0, 0, 0]])
        remote = [(np.array([3.5, 0, 0, 0, 0, 0]), np.eye(6)),
                  (np.array([0.5, 0, 0, 0, 0, 0]), np.eye(6))]
        pairs, spawns = t2t_associate(local, *stacked(remote), GAMMA_99)
        assert sorted(pairs) == [(0, 1), (1, 0)]
        assert spawns == []


class TestCiOmega:
    def test_equal_inputs_return_half(self):
        pa = np.diag([2.0, 3.0, 4.0])
        assert omega_of(pa, pa.copy()) == 0.5

    def test_scalar_1_4_gives_1(self):
        assert omega_of(np.array([[1.0]]), np.array([[4.0]])) == 1.0

    def test_scalar_4_1_gives_0(self):
        assert omega_of(np.array([[4.0]]), np.array([[1.0]])) == 0.0

    def test_noninvertible_rejected(self):
        assert omega_of(np.zeros((2, 2)), np.eye(2)) is None

    def test_trace_optimality_random_pairs(self):
        rng = np.random.default_rng(77)
        for k in range(1000):
            dim = 3 if k % 2 == 0 else 6
            pa = random_psd(rng, dim, scale=rng.uniform(0.2, 5.0))
            pb = random_psd(rng, dim, scale=rng.uniform(0.2, 5.0))
            _, p = fuse(np.zeros(dim), pa, np.zeros(dim), pb)
            assert np.trace(p) <= min(np.trace(pa), np.trace(pb)) + 1e-9

    def test_matches_fine_grid_scan(self):
        rng = np.random.default_rng(78)
        for _ in range(1000):
            pa = random_psd(rng, 3, scale=rng.uniform(0.2, 5.0))
            pb = random_psd(rng, 3, scale=rng.uniform(0.2, 5.0))
            w = omega_of(pa, pb)
            w_grid = grid_scan_omega(pa, pb)
            assert abs(w - w_grid) <= 2e-3

    @settings(deadline=None)
    @given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_closed_form_matches_a_fine_scan(self, dim, seed, scale):
        rng = np.random.default_rng(seed)
        pa, pb = random_psd(rng, dim), random_psd(rng, dim, scale)
        w = omega_of(pa, pb)
        w_scan = grid_scan_omega(pa, pb, step=1e-4)
        assert 0.0 <= w <= 1.0
        # both traces come from re-inverted matrices, so allow rounding
        assert fused_trace(pa, pb, w) <= fused_trace(pa, pb, w_scan) * (1.0 + 1e-9)
        assert abs(w - w_scan) <= 1e-3

    def test_identical_random_inputs_return_half(self):
        rng = np.random.default_rng(80)
        for dim in range(1, 7):
            p = random_psd(rng, dim, scale=rng.uniform(0.2, 5.0))
            assert omega_of(p, p.copy()) == 0.5

    def test_not_positive_definite_rejected(self):
        indefinite = np.diag([1.0, -1.0])
        assert omega_of(indefinite, np.eye(2)) is None
        assert omega_of(np.eye(2), indefinite) is None


class TestCiFuse:
    def test_identical_inputs_any_omega(self):
        x = np.array([1.0, 2.0, 3.0])
        p = np.diag([1.0, 2.0, 3.0])
        for w in (0.0, 0.3, 0.5, 1.0):
            (xf,), (pf,) = fuse_at(x[None], p[None], x[None], p[None], [w])
            assert np.allclose(xf, x, atol=1e-12)
            assert np.allclose(pf, p, atol=1e-12)

    def test_omega_one_boundary_exact(self):
        xa, pa = np.array([1.0]), np.array([[2.0]])
        xb, pb = np.array([9.0]), np.array([[5.0]])
        (xf,), (pf,) = fuse_at(xa[None], pa[None], xb[None], pb[None], [1.0])
        assert xf[0] == 1.0 and pf[0, 0] == 2.0

    def test_scalar_hand_case(self):
        (xf,), (pf,) = fuse_at(np.array([[0.0]]), np.array([[[1.0]]]),
                               np.array([[2.0]]), np.array([[[1.0]]]), [0.5])
        assert xf[0] == pytest.approx(1.0, abs=1e-12)
        assert pf[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_output_psd_many_pairs(self):
        rng = np.random.default_rng(79)
        draws = [(random_psd(rng, 3), random_psd(rng, 3), float(rng.uniform()),
                  rng.normal(size=3), rng.normal(size=3)) for _ in range(10_000)]
        pa, pb, w, xa, xb = (np.array(column) for column in zip(*draws))
        for pf in fuse_at(xa, pa, xb, pb, w)[1]:
            assert np.allclose(pf, pf.T)
            try:
                np.linalg.cholesky(pf + 1e-12 * np.eye(3))
            except np.linalg.LinAlgError:
                assert np.linalg.eigvalsh(pf).min() > -1e-9

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_optimal_weight_never_worse_than_either_input(self, dim, seed, scale):
        rng = np.random.default_rng(seed)
        pa, pb = random_psd(rng, dim), random_psd(rng, dim, scale)
        _, pf = fuse(rng.normal(size=dim), pa, rng.normal(size=dim), pb)
        bound = min(np.trace(pa), np.trace(pb))
        # ci_omega compares traces of re-inverted inputs, so allow rounding
        assert np.trace(pf) <= bound * (1.0 + 1e-9)


class TestCoviStep:
    def make_tracker(self, positions, confirm=True):
        tk = Tracker(TrackerConfig(confirm_m=1, confirm_n=5))
        t = 0.0
        tk.step(detections(positions, 0.25), t)
        return tk

    def test_no_messages_no_change(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        before = tracker_state(tk)
        covi_step(tk, [], 0.0, CollabState())
        assert tracker_state(tk) == before

    def test_unseen_remote_spawns_tentative(self):
        tk = Tracker(TrackerConfig(confirm_m=3, confirm_n=5))
        state = CollabState()
        remote = [(42, np.array([30.0, 0, 0, 0, 0, 0]), np.eye(6))]
        covi_step(tk, [msg(remote)], 0.0, state)
        assert len(tk.tracks) == 1
        assert not tk.tracks.confirmed[0]
        assert np.allclose(tk.tracks.means[0, :3], [30, 0, 0])
        assert state.spawned == 1

    def test_duplicate_remote_fuses_and_shrinks(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        mean, cov = tk.tracks.means[0], tk.tracks.covs[0]
        trace_before = float(np.trace(cov))
        state = CollabState()
        remote = [(1, mean.copy(), cov * 0.8)]
        covi_step(tk, [msg(remote)], 0.0, state)
        assert len(tk.tracks) == 1
        assert state.fused == 1
        assert np.trace(tk.tracks.covs[0]) <= min(trace_before, trace_before * 0.8) + 1e-9

    def test_identical_estimate_fusion_idempotent(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        mean0, cov0 = tk.tracks.means[0].copy(), tk.tracks.covs[0].copy()
        covi_step(tk, [msg([(1, mean0.copy(), cov0.copy())])], 0.0, CollabState())
        assert np.allclose(tk.tracks.means[0], mean0, atol=1e-9)
        assert np.allclose(tk.tracks.covs[0], cov0, atol=1e-9)

    def test_stale_message_counted_not_fatal(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        state = CollabState()
        old = msg([(1, np.zeros(6), np.eye(6))], timestamp=0.0)
        covi_step(tk, [old], 5.0, state)
        assert state.stale == 1 and state.received == 1

    def test_a_stale_message_counts_stale_before_align_checks_it(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        before = tracker_state(tk)
        state = CollabState()
        cov = np.eye(6)
        cov[0, 0] = np.nan
        covi_step(tk, [msg([(1, np.zeros(6), cov)], timestamp=0.0)], 5.0, state)
        assert (state.received, state.stale, state.rejected) == (1, 1, 0)
        assert tracker_state(tk) == before

    def test_asymmetric_remote_covariance_rejected_not_fatal(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        before = tracker_state(tk)
        state = CollabState()
        cov = np.eye(6)
        cov[0, 1] = 1e-3
        covi_step(tk, [msg([(1, np.array([5.0, 0, 0, 0, 0, 0]), cov)])], 0.0, state)
        assert (state.received, state.rejected, state.fused, state.spawned) == (1, 1, 0, 0)
        assert tracker_state(tk) == before

    def test_non_finite_remote_track_rejected_not_fatal(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        before = tracker_state(tk)
        state = CollabState()
        cov = np.eye(6)
        cov[0, 0] = np.nan
        covi_step(tk, [msg([(1, np.array([5.0, 0, 0, 0, 0, 0]), cov)])], 0.0, state)
        assert (state.received, state.rejected, state.fused, state.spawned) == (1, 1, 0, 0)
        assert tracker_state(tk) == before

    def test_future_message_rejected_not_fatal(self):
        tk = self.make_tracker([[5.0, 0, 0]])
        state = CollabState()
        future = msg([(1, np.array([5.0, 0, 0, 0, 0, 0]), np.eye(6))], timestamp=1.0)
        good = msg([(2, np.array([30.0, 0, 0, 0, 0, 0]), np.eye(6))], timestamp=0.0)
        covi_step(tk, [future, good], 0.0, state)
        assert (state.received, state.rejected, state.stale) == (2, 1, 0)
        # the message after the rejected one is still used
        assert state.spawned == 1 and len(tk.tracks) == 2
        assert state.counters()["rejected"] == 1

    def test_zero_covariance_remote_track_not_fatal(self):
        # finite and symmetric, so align keeps it: it spawns a track with a
        # singular position block
        tk = self.make_tracker([[5.0, 0, 0]])
        state = CollabState()
        remote = [(3, np.array([30.0, 0, 0, 0, 0, 0]), np.zeros((6, 6)))]
        covi_step(tk, [msg(remote)], 0.0, state)
        assert (state.rejected, state.spawned) == (0, 1)
        assert len(tk.tracks) == 2

    def test_singular_pairs_are_not_gated_and_counted(self):
        # zero position covariances on both sides make S = 0 in the
        # association: the pair is counted, and the remote track is
        # skipped, so it neither fuses nor spawns a zero-covariance twin
        tk = Tracker()
        tk.tracks, tk.next_id = local_tracks([[0.0, 0, 0]], np.zeros((6, 6))), 2
        state = CollabState()
        assert "singular" not in state.counters()
        covi_step(tk, [msg([(7, np.zeros(6), np.zeros((6, 6)))])], 0.0, state)
        assert (state.fused, state.spawned, state.singular) == (0, 0, 1)
        assert state.counters()["singular"] == 1
        assert tk.tracks.ids.tolist() == [1] and tk.next_id == 2
        # two zero-covariance remote tracks at one place far from a
        # regular local track gate no local track, so both spawn, as two
        # such detections in one batch do in ``Tracker.step``
        tk.tracks = local_tracks([[0.0, 0, 0]])
        state = CollabState()
        twins = [(k, np.array([30.0, 0, 0, 0, 0, 0]), np.zeros((6, 6))) for k in (8, 9)]
        covi_step(tk, [msg(twins)], 0.0, state)
        assert (state.fused, state.spawned, state.singular) == (0, 2, 0)
        assert tk.tracks.ids.tolist() == [1, 2, 3]

    def test_a_remote_track_that_gated_before_a_fusion_is_dropped(self):
        # wide local track L at 0; tight remote A on L and tight remote B
        # 5 m off: B gates L (d² = 25 / 10.01), but A wins the assignment
        # and the fusion shrinks L until B would not gate it any more.  The
        # one gate before the fusion decides: B lost the assignment, so it
        # is dropped rather than spawned
        tk = Tracker()
        tk.tracks, tk.next_id = local_tracks([[0.0, 0, 0]], 10.0 * np.eye(6)), 2
        state = CollabState()
        remote = [(k, np.array([x, 0, 0, 0, 0, 0]), 0.01 * np.eye(6)) for k, x in ((7, 0.0),
                                                                                   (8, 5.0))]
        covi_step(tk, [msg(remote)], 0.0, state)
        assert (state.fused, state.spawned) == (1, 0)
        assert tk.tracks.ids.tolist() == [1] and tk.next_id == 2
        assert state.links == {("rsu1", 7): 1}
        # B against L after the fusion: far outside the gate
        d2 = 25.0 / (tk.tracks.covs[0, 0, 0] + 0.01)
        assert d2 > 10 * GAMMA_99

    def test_collaboration_gates_at_the_tracker_gate_prob(self):
        # S = P_loc + P_rem = I and Δ = 3 m: d² = 9, inside the 0.99 gate
        # (11.345) but outside the 0.95 one (7.815)
        local = local_tracks([[0.0, 0, 0]], 0.5 * np.eye(6))
        remote = [(7, np.array([3.0, 0, 0, 0, 0, 0]), 0.5 * np.eye(6))]
        for gate_prob, fused in ((0.99, 1), (0.95, 0)):
            tk = Tracker(TrackerConfig(gate_prob=gate_prob))
            tk.tracks, tk.next_id = local, 2
            state = CollabState()
            covi_step(tk, [msg(remote)], 0.0, state)
            assert (state.fused, state.spawned) == (fused, 1 - fused)
            assert len(tk.tracks) == 2 - fused
            if not fused:
                assert np.array_equal(tk.tracks.means[0], local.means[0])

    def test_remote_sightings_confirm_spawned_track(self):
        tk = Tracker(TrackerConfig(confirm_m=3, confirm_n=5))
        state = CollabState()
        for k in range(3):
            t = 0.2 * k
            remote = [(9, np.array([30.0, 0, 0, 0, 0, 0]), np.eye(6))]
            covi_step(tk, [msg(remote, timestamp=t)], t, state)
        assert tk.tracks.confirmed[0]
        assert state.spawned == 1 and state.fused == 2


class TestLinks:
    """The link table: which local track each (sender, remote id) last
    fused into or spawned."""

    def test_a_linked_remote_track_fuses_into_its_track_before_a_nearer_one(self):
        # remote 7 lies 0.2 m from track 2 and 1.8 m from track 1 and gates
        # with both: the assignment alone picks track 2, the link track 1
        remote = [(7, np.array([1.8, 0, 0, 0, 0, 0]), np.eye(6))]
        for links, into in (({}, 1), ({("rsu1", 7): 1}, 0)):
            tk = Tracker()
            tk.tracks, tk.next_id = local_tracks([[0.0, 0, 0], [2.0, 0, 0]]), 3
            before = tk.tracks
            state = CollabState(links=dict(links))
            covi_step(tk, [msg(remote)], 0.0, state)
            assert (state.fused, state.spawned) == (1, 0)
            assert state.links == {("rsu1", 7): into + 1}
            moved = (tk.tracks.means != before.means).any(axis=1)
            assert moved.tolist() == [into == 0, into == 1]

    def test_a_linked_pair_that_does_not_gate_goes_to_the_assignment(self):
        tk = Tracker()
        tk.tracks, tk.next_id = local_tracks([[0.0, 0, 0], [20.0, 0, 0]]), 3
        state = CollabState(links={("rsu1", 7): 1})
        covi_step(tk, [msg([(7, np.array([20.5, 0, 0, 0, 0, 0]), np.eye(6))])], 0.0, state)
        assert state.fused == 1 and state.links == {("rsu1", 7): 2}

    def test_a_local_track_takes_the_first_remote_track_linked_to_it(self):
        # both remote tracks are linked to track 1 and gate with it and with
        # track 2: the first pairs with track 1, the second goes to the
        # assignment and fuses into track 2
        tk = Tracker()
        tk.tracks, tk.next_id = local_tracks([[0.0, 0, 0], [1.0, 0, 0]]), 3
        state = CollabState(links={("rsu1", 7): 1, ("rsu1", 8): 1})
        remote = [(k, np.array([x, 0, 0, 0, 0, 0]), np.eye(6)) for k, x in ((7, 0.9), (8, 0.1))]
        covi_step(tk, [msg(remote)], 0.0, state)
        assert state.fused == 2 and state.links == {("rsu1", 7): 1, ("rsu1", 8): 2}

    def test_a_spawned_track_takes_the_next_fusion_of_its_remote_track(self):
        tk = Tracker()
        state = CollabState()
        covi_step(tk, [msg([(9, np.array([30.0, 0, 0, 0, 0, 0]), np.eye(6))])], 0.0, state)
        assert state.spawned == 1 and state.links == {("rsu1", 9): 1}
        # a local track appears 0.1 m from the next report of remote 9,
        # which lies 1.8 m from the spawned track: the link wins
        tk.tracks = tk.tracks.then(spawn(2, np.array([[31.9, 0, 0, 0, 0, 0]]),
                                         np.eye(6)[None], tk.config))
        tk.next_id = 3
        spawned = tk.tracks.means[0].copy()
        covi_step(tk, [msg([(9, np.array([31.8, 0, 0, 0, 0, 0]), np.eye(6))])], 0.0, state)
        assert (state.fused, state.spawned) == (1, 1)
        assert not np.array_equal(tk.tracks.means[0], spawned)
        assert np.array_equal(tk.tracks.means[1], [31.9, 0, 0, 0, 0, 0])
        # the same id from another sender is another remote track
        covi_step(tk, [msg([(9, np.array([31.8, 0, 0, 0, 0, 0]), np.eye(6))], sender="ego")],
                  0.0, state)
        assert state.links == {("rsu1", 9): 1, ("ego", 9): 2}
        assert "links" not in state.counters()

    def test_a_link_goes_once_its_local_track_dies(self):
        tk = Tracker(TrackerConfig(confirm_m=3, confirm_n=5))
        state = CollabState()
        covi_step(tk, [msg([(9, np.array([30.0, 0, 0, 0, 0, 0]), np.eye(6))])], 0.0, state)
        t = 0.0
        while len(tk.tracks):  # a tentative track dies of its misses
            t += 0.1
            tk.step(detections([]), t)
        # a step without messages changes nothing, the link included
        covi_step(tk, [], t, state)
        assert state.links == {("rsu1", 9): 1}
        far = msg([(4, np.array([-30.0, 0, 0, 0, 0, 0]), np.eye(6))], timestamp=t)
        covi_step(tk, [far], t, state)
        assert state.links == {("rsu1", 4): 2}


# Positions of the objects the published-track property observes; the
# last two are close enough for one remote track to gate with both.
OBJECTS = np.array([[5.0, 0, 0], [15.0, 4.0, 0], [25.0, -3.0, 0], [26.5, -3.0, 0]])


@settings(max_examples=15, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["step", "late", "covi"]),
                              st.integers(0, 2**32 - 1)), min_size=1, max_size=14))
def test_published_tracks_and_snapshots_never_change(ops):
    """Every track batch ever published in ``tracks`` and every held
    history state keeps its array bytes through any later step, late
    batch or remote fusion: transitions build new arrays and never write
    to a published one.  Each batch is in id order, and after a remote
    fusion every link names a live local track."""
    tk = Tracker(TrackerConfig(confirm_m=2, confirm_n=3))
    state = CollabState()
    seen, held = {}, {}
    t, edge_seq = 0.0, 0
    for op, seed in ops:
        rng = np.random.default_rng(seed)
        noisy = OBJECTS + rng.normal(scale=0.3, size=OBJECTS.shape)
        if op == "step" or (op == "late" and t == 0.0):
            t += 0.1
            tk.process_batch((t, LANE_LOCAL, 0), detections(noisy))
        elif op == "late":
            edge_seq += 1
            t_late = round(float(rng.uniform(max(0.0, t - 0.5), t)), 3)
            tk.process_batch((t_late, LANE_EDGE, edge_seq), detections(noisy[:2]))
        else:
            remote = [(k, np.concatenate([p, np.zeros(3)]), 0.5 * np.eye(6))
                      for k, p in enumerate(noisy)]
            covi_step(tk, [msg(remote, timestamp=t)], t, state)
            assert set(state.links.values()) <= set(tk.tracks.ids.tolist())
        assert (np.diff(tk.tracks.ids) > 0).all()
        seen.setdefault(id(tk.tracks), (tk.tracks, batch_bytes(tk.tracks)))
        for *_, snap in tk._history:
            held.setdefault(id(snap), (snap, state_bytes(snap)))
        for tracks, before in seen.values():
            assert batch_bytes(tracks) == before
        for snap, before in held.values():
            assert state_bytes(snap) == before

