import math
from bisect import insort

import numpy as np
import pytest
from conftest import batch_bytes, state_bytes, tracker_state
from hypothesis import assume, example, given, settings, strategies as st
from scipy.stats import chi2 as scipy_chi2

import fusionsim.tracker as tracker_module
from fusionsim.fusion import Detections
from fusionsim.tracker import (
    GATE_QUANTILES,
    LANE_EDGE,
    LANE_LOCAL,
    Tracker,
    TrackerConfig,
    Tracks,
    _regularity,
    cv_transition,
    eig_regular,
    gate,
    gate_cost,
    kalman_predict,
    kalman_update,
    position_d2,
    predict,
    predict_waypoints,
    process_noise,
    spawn,
    update,
)


def det(pos, var=1.0):
    """A batch of one detection at ``pos``."""
    return Detections(np.array([pos], dtype=float), var * np.eye(3)[None])


def batch(*dets):
    """The rows of the given batches, in order, as one batch."""
    return Detections(np.array([p for d in dets for p in d.positions]).reshape(-1, 3),
                      np.array([c for d in dets for c in d.covs]).reshape(-1, 3, 3))


GAMMA_99 = GATE_QUANTILES[0.99]


def fresh_tracks(means, covs=None):
    """A batch of new tentative tracks, ids from 1, at ``means`` with
    covariances ``covs`` (identities by default)."""
    means = np.asarray(means, dtype=float).reshape(-1, 6)
    covs = np.tile(np.eye(6), (len(means), 1, 1)) if covs is None else \
        np.asarray(covs, dtype=float).reshape(-1, 6, 6)
    return spawn(1, means, covs, TrackerConfig())


def fresh_track(mean=None, cov=None):
    """A batch of one new tentative track."""
    return fresh_tracks(np.zeros(6) if mean is None else mean,
                        None if cov is None else [cov])


def test_gate_quantiles_match_independent_implementation():
    assert set(GATE_QUANTILES) == {0.95, 0.99}
    for prob, value in GATE_QUANTILES.items():
        assert value == pytest.approx(scipy_chi2.ppf(prob, 3), abs=5e-4)


class TestPredict:
    def test_dt_zero_unchanged(self):
        tr = fresh_track(mean=[1, 2, 3, 4, 5, 6])
        out = predict(tr, 0.0, q=1.0)
        assert np.allclose(out.means, tr.means)
        assert np.allclose(out.covs, tr.covs)

    def test_ballistic_motion(self):
        tr = fresh_track(mean=[0, 0, 0, 1, 0, 0])
        out = predict(tr, 2.0, q=1e-12)
        assert np.allclose(out.means[0, :3], [2, 0, 0], atol=1e-9)
        f = cv_transition(2.0)
        assert np.allclose(out.covs[0], f @ tr.covs[0] @ f.T, atol=1e-9)

    def test_process_noise_grows_trace(self):
        tr = fresh_track()
        f = cv_transition(0.5)
        base = np.trace(f @ tr.covs[0] @ f.T)
        out = predict(tr, 0.5, q=2.0)
        assert np.trace(out.covs[0]) > base

    def test_q_block_structure(self):
        q = process_noise(0.1, 3.0)
        dt = 0.1
        assert q[0, 0] == pytest.approx(3.0 * dt**4 / 4)
        assert q[0, 3] == pytest.approx(3.0 * dt**3 / 2)
        assert q[3, 3] == pytest.approx(3.0 * dt**2)
        assert q[0, 1] == 0.0


class TestUpdate:
    def test_zero_innovation_keeps_mean_shrinks_cov(self):
        tr = fresh_track(mean=[1, 2, 3, 0, 0, 0])
        out = update(tr, [0], det([1, 2, 3]), 3)
        assert np.allclose(out.means, tr.means, atol=1e-12)
        assert np.trace(out.covs[0]) < np.trace(tr.covs[0])

    def test_scalar_kalman_algebra(self):
        # prior var 1, measurement var 1, offset 1: posterior offset 0.5, var 0.5
        tr = fresh_track()
        out = update(tr, [0], det([1, 0, 0]), 3)
        assert out.means[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert out.covs[0, 0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_uninformative_measurement(self):
        tr = fresh_track(mean=[1, 2, 3, 0, 0, 0])
        out = update(tr, [0], det([100, 100, 100], var=1e12), 3)
        assert np.abs(out.means - tr.means).max() < 1e-6

    def test_singular_innovation(self):
        # update no longer tests S: a singular one never reaches it, since
        # the gate skips its detection and S here is the gate's S bit for bit
        tk = Tracker()
        tk.tracks, tk.next_id, tk.last_time = fresh_track(cov=np.zeros((6, 6))), 2, 0.0
        tk.step(det([0, 0, 0], var=0.0), 0.0)
        assert tk.singular == 1
        assert (tk.tracks.ids.tolist(), tk.tracks.misses.tolist()) == ([1], [1])

    def test_counters_and_history(self):
        tr = fresh_tracks([np.zeros(6)] * 2)
        out = update(tr, [1], det([0.1, 0, 0]), 3)
        assert out.misses.tolist() == [1, 0]
        assert out.window[:, -2:].tolist() == [[True, False], [True, True]]


def random_tracks(rng, n):
    """n tracks with random estimates and lifecycle state."""
    a = rng.normal(size=(n, 6, 6))
    return Tracks(np.arange(1, n + 1), rng.normal(scale=5.0, size=(n, 6)),
                  a @ a.swapaxes(1, 2) + 0.01 * np.eye(6), rng.random(n) < 0.5,
                  rng.integers(0, 3, n), rng.random((n, 5)) < 0.5)


def random_detection(rng):
    """A one-detection batch with a random position and covariance."""
    b = rng.normal(size=(3, 3))
    return Detections(rng.normal(scale=5.0, size=(1, 3)), (b @ b.T + 0.01 * np.eye(3))[None])


def lifecycle(tracks, i):
    """Track i's id and lifecycle state."""
    return tracks.ids[i], tracks.confirmed[i], tracks.misses[i], tracks.window[i].tolist()


class TestStacked:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 8), seed=st.integers(0, 2**32 - 1),
           dt=st.floats(0.0, 0.5), q=st.floats(0.1, 5.0), confirm_m=st.integers(1, 5))
    def test_equal_per_track_kernels_bit_for_bit(self, n, seed, dt, q, confirm_m):
        """A predict and update of a whole batch, where a random subset of
        the tracks is hit in a random order, equal the single-row calls on
        each track, and leave the input batch as it was."""
        rng = np.random.default_rng(seed)
        tracks = random_tracks(rng, n)
        rows = rng.permutation(n)[:rng.integers(0, n + 1)].tolist()
        dets = {i: random_detection(rng) for i in rows}
        before = batch_bytes(tracks)
        predicted = predict(tracks, dt, q)
        scored = update(predicted, rows, batch(*[dets[i] for i in rows]), confirm_m)
        assert len(predicted) == len(scored) == n
        assert batch_bytes(tracks) == before
        for i in range(n):
            mean, cov = kalman_predict(tracks.means[i], tracks.covs[i], dt, q)
            assert np.array_equal(predicted.means[i], mean)
            assert np.array_equal(predicted.covs[i], cov)
            one = predict(tracks.take([i]), dt, q)
            assert lifecycle(predicted, i) == lifecycle(one, 0)
            if i in dets:
                mean, cov = kalman_update(mean, cov, dets[i].positions[0], dets[i].covs[0])
                one = update(one, [0], dets[i], confirm_m)
            else:
                one = update(one, [], batch(), confirm_m)
            assert np.array_equal(scored.means[i], mean)
            assert np.array_equal(scored.covs[i], cov)
            assert batch_bytes(scored.take([i])) == batch_bytes(one)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.one_of(st.just(0.0), st.floats(-16.0, 0.0).map(lambda e: 10.0**e)),
                 min_size=3, max_size=3),
        st.lists(st.booleans(), min_size=3, max_size=3),
        st.floats(-6.0, 6.0), st.integers(0, 2**32 - 1)), min_size=1, max_size=6))
    def test_rcond_check_matches_eigvalsh_reference(self, specs):
        stack = []
        for eig, negative, scale, seed in specs:
            rot, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            signs = np.where(negative, -1.0, 1.0)
            stack.append((rot * (signs * eig)) @ rot.T * 10.0**scale)
        stack = np.array(stack)
        w = np.abs(np.linalg.eigvalsh(stack))
        rejected = w.min(axis=1) <= w.max(axis=1) * 1e-12
        for s, bad in zip(stack, rejected):
            assert bool(_regularity(s)[1]) is not bad
        # a stack too large for the per-matrix float path takes the array path
        copies = tracker_module._FEW_MATRICES // len(stack) + 1
        large = np.concatenate([stack] * copies)
        assert np.array_equal(_regularity(stack)[1], ~rejected)
        assert np.array_equal(_regularity(large)[1], np.tile(~rejected, copies))

    def test_rcond_takes_the_smallest_magnitude_eigenvalue(self):
        # eigvalsh sorts by sign: [-1, 0, 0] has |lambda| 1 first and 0 last
        assert not _regularity(-np.diag([1.0, 0.0, 0.0]))[1]
        assert not _regularity(np.diag([-1.0, 1e-14, 1.0]))[1]
        assert _regularity(np.diag([-1.0, 1e-3, 1.0]))[1]

    def test_one_singular_pair_skips_its_detection_and_a_failed_step_keeps_state(
            self, monkeypatch):
        # a zero-variance detection spawns a track with a zero position
        # block; at dt = 0 another one makes its innovation singular
        tk = Tracker()
        tk.step(det([0, 0, 0]), 0.0)
        tk.step(batch(det([0.1, 0, 0]), det([20, 0, 0], var=0.0)), 0.1)
        assert tk.singular == 0
        tk.step(batch(det([0.2, 0, 0]), det([20, 0, 0], var=0.0)), 0.1)
        # the singular pair's detection is skipped: no twin spawns, the
        # zero-covariance track misses, and the other pair is updated
        assert tk.singular == 1
        assert (tk.tracks.ids.tolist(), tk.tracks.misses.tolist()) == ([1, 2], [0, 1])
        assert tk.next_id == 3
        before = tracker_state(tk)
        # step assigns nothing before predict, gate and update returned
        def failing_update(*args):
            raise ValueError("forced")
        monkeypatch.setattr(tracker_module, "update", failing_update)
        with pytest.raises(ValueError, match="^forced$"):
            tk.step(batch(det([0.3, 0, 0]), det([20, 0, 0], var=0.0)), 0.1)
        assert tracker_state(tk) == before


def near_margin_block(seed, scale, slack):
    """A positive definite 3x3 block 10^scale R diag(1, e, t) R', whose
    det / tr^3 is (1 + slack) 1e-9: the sure-pass bound's det margin."""
    rng = np.random.default_rng(seed)
    rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    e, t = 10.0 ** rng.uniform(-2.0, 0.0), 0.0
    for _ in range(20):
        t = (1.0 + slack) * 1e-9 * (1.0 + e + t) ** 3 / e
    return (rot * [1.0, e, t]) @ rot.T * 10.0**scale


def side(kind, seed, scale):
    """A position and a position block that passes the sure-pass bound
    ("sure") or fails it: "zero", "rank one" or "negative definite".  The
    position is a few block scales from the origin."""
    rng = np.random.default_rng(seed)
    mean = rng.normal(scale=3.0 * 10.0 ** (scale / 2), size=3)
    if kind == "sure":
        return mean, near_margin_block(seed, scale, 1.0)
    if kind == "zero":
        return mean, np.zeros((3, 3))
    a = rng.normal(size=(3, 3))
    if kind == "rank one":
        return mean, np.outer(a[0], a[0]) * 10.0**scale
    return mean, -(a @ a.T + 0.01 * np.eye(3)) * 10.0**scale


class TestPerSideRegularity:
    @settings(max_examples=200, deadline=None)
    @given(sides=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0),
                                    st.sampled_from([1e-5, 1e-3, 1.0, 1e3])),
                          min_size=2, max_size=2))
    def test_sides_that_pass_the_bound_sum_to_a_regular_s(self, sides):
        """Blocks A and B that each pass the sure-pass bound, at scales
        1e-6 to 1e6 and near its det margin: A + B passes it too and
        ``eig_regular`` agrees, so ``position_d2`` tests no such pair."""
        a, b = (near_margin_block(*drawn) for drawn in sides)
        assume(tracker_module._surely_regular(*a.ravel()))
        assume(tracker_module._surely_regular(*b.ravel()))
        s = a + b
        assert tracker_module._surely_regular(*s.ravel())
        assert eig_regular(s)
        _, singular = position_d2(np.zeros((1, 3)), [a], np.zeros((1, 3)), [b], 11.345)
        assert not singular.any()

    @settings(max_examples=100, deadline=None)
    @given(sides=st.lists(st.lists(st.tuples(
        st.sampled_from(["sure", "zero", "rank one", "negative definite"]),
        st.integers(0, 2**32 - 1), st.floats(-6.0, 6.0)), min_size=1, max_size=20),
        min_size=2, max_size=2), nan_at=st.none() | st.integers(0, 19))
    @example(sides=[[("zero", 0, 0.0), ("sure", 1, 0.0)], [("zero", 2, 0.0)]], nan_at=None)
    @example(sides=[[("negative definite", 3, 0.0)], [("sure", 4, 6.0), ("rank one", 5, 0.0)]],
             nan_at=0)
    def test_a_doubtful_side_gets_the_pairwise_verdict(self, sides, nan_at):
        """Every pair's ``singular`` flag is ``_regularity``'s verdict on
        its own S, whatever mix of sure and doubtful (zero, rank-one or
        negative definite) sides it has, and a regular pair that gates is
        its per-pair solve.  A NaN on the diagonal of side a's block
        ``nan_at`` makes that verdict raise, as ``eigvalsh`` does, and
        ``position_d2`` raises too."""
        (means_a, blocks_a), (means_b, blocks_b) = (
            map(list, zip(*(side(*s) for s in side_list))) for side_list in sides)
        if nan_at is not None and nan_at < len(blocks_a):
            blocks_a[nan_at][nan_at % 3, nan_at % 3] = np.nan
        gamma = GAMMA_99
        try:
            regular = np.array([[_regularity(a + b)[1] for b in blocks_b] for a in blocks_a])
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                position_d2(means_a, blocks_a, means_b, blocks_b, gamma)
            return
        d2, singular = position_d2(means_a, blocks_a, means_b, blocks_b, gamma)
        assert np.array_equal(singular, ~regular)
        for i, j in np.argwhere(regular):
            delta = means_a[i] - means_b[j]
            reference = float(delta @ np.linalg.solve(blocks_a[i] + blocks_b[j], delta))
            if d2[i, j] <= gamma or reference <= gamma:
                assert d2[i, j] == reference
        assert np.all(d2[singular] == np.inf)


class TestGate:
    def test_at_predicted_position(self):
        cost, _, _ = gate(fresh_track(), det([0, 0, 0], var=1.0), GAMMA_99)
        assert cost.shape == (1, 1)
        assert cost[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_nine_accepted_at_99(self):
        # nu = (3,0,0), S = I  (prior cov 0, meas var 1): d2 = 9 < 11.345
        tr = fresh_track(cov=np.zeros((6, 6)) + 1e-15 * np.eye(6))
        cost, _, _ = gate(tr, det([3, 0, 0], var=1.0), GAMMA_99)
        assert cost[0, 0] == pytest.approx(9.0, abs=1e-6)

    def test_sixteen_rejected_at_99(self):
        tr = fresh_track(cov=np.zeros((6, 6)) + 1e-15 * np.eye(6))
        cost, _, _ = gate(tr, det([4, 0, 0], var=1.0), GAMMA_99)
        assert cost[0, 0] == np.inf
        d2, singular = position_d2(tr.means, tr.covs, [[4.0, 0, 0]], [np.eye(3)], GAMMA_99)
        assert d2[0, 0] == pytest.approx(16.0, abs=1e-6)
        assert not singular[0, 0]

    def test_a_singular_pair_skips_its_detection(self):
        tracks = fresh_tracks([[x, 0, 0, 0, 0, 0] for x in range(4)],
                              [np.eye(6)] * 3 + [np.zeros((6, 6))])
        dets = batch(det([0, 0, 0]), det([1, 0, 0]), det([5, 0, 0], var=0.0))
        cost, skipped, singular = gate(tracks, dets, GAMMA_99)
        assert (skipped, singular) == ([2], 1)
        # the skipped column is inf for every track, the others unchanged
        assert np.all(cost[:, 2] == np.inf)
        regular, _, _ = gate(tracks, Detections(dets.positions[:2], dets.covs[:2]), GAMMA_99)
        assert np.array_equal(cost[:, :2], regular)
        # every other pair is regular
        assert gate(tracks.take([0, 1, 2]), dets, GAMMA_99)[1:] == ([], 0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 12), m=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           gate_prob=st.sampled_from([0.95, 0.99]), zero_share=st.sampled_from([0.0, 0.2, 0.5]),
           spread=st.sampled_from([3.0, 30.0]))
    @example(n=12, m=12, seed=7, gate_prob=0.99, zero_share=0.2, spread=3.0)
    @example(n=60, m=65, seed=42, gate_prob=0.99, zero_share=0.0, spread=30.0)
    @example(n=60, m=65, seed=43, gate_prob=0.99, zero_share=0.2, spread=30.0)
    @example(n=60, m=65, seed=44, gate_prob=0.95, zero_share=0.2, spread=3.0)
    def test_matches_per_pair_reference(self, n, m, seed, gate_prob, zero_share, spread):
        """``gate_cost`` against a per-pair solve.  Tracks and measurements
        with a zero or rank-one position block give singular pairs: those
        are inf and skip their measurement, and the count is exact; every
        other pair is the per-pair solve gated at gamma.  Up to 144 pairs
        reach past ``_FEW_PAIRS`` (pre-gate) and ``_FEW_MATRICES`` (array
        sure-pass path); the 60 x 65 examples are a crowd-sized call,
        where a ``spread`` of 30 m leaves the pre-gate most pairs."""
        rng = np.random.default_rng(seed)

        def cov(dim):
            kind = rng.random()
            if kind < zero_share:
                return np.zeros((dim, dim))
            v = rng.normal(size=(dim, 1))
            if kind < 2 * zero_share:
                return v @ v.T  # rank one
            a = rng.normal(size=(dim, dim))
            return a @ a.T + 0.01 * np.eye(dim)

        means_t = [rng.normal(scale=spread, size=6) for _ in range(n)]
        covs_t = [cov(6) for _ in range(n)]
        means_m = [rng.normal(scale=spread, size=3) for _ in range(m)]
        covs_m = [cov(3) for _ in range(m)]
        gamma = TrackerConfig(gate_prob=gate_prob).gamma
        reference = np.full((n, m), np.inf)
        bad = np.zeros((n, m), dtype=bool)
        for i in range(n):
            for j in range(m):
                s = covs_t[i][:3, :3] + covs_m[j]
                w = np.abs(np.linalg.eigvalsh(s))
                if w.min() <= w.max() * 1e-12:
                    bad[i, j] = True
                    continue
                delta = means_t[i][:3] - means_m[j]
                d2 = float(delta @ np.linalg.solve(s, delta))
                if d2 <= gamma:
                    reference[i, j] = d2
        skipped = bad.any(axis=0)
        reference[:, skipped] = np.inf
        cost, skipped_cols, singular = gate_cost(means_t, covs_t, means_m, covs_m, gamma)
        assert cost.shape == (n, m)
        assert np.array_equal(cost, reference)
        assert skipped_cols == np.flatnonzero(skipped).tolist()
        assert singular == int(bad.sum())

    def test_the_config_gates_at_its_quantile(self):
        assert TrackerConfig().gamma == GAMMA_99 == 11.345
        assert TrackerConfig(gate_prob=0.95).gamma == 7.815
        with pytest.raises(ValueError, match="no embedded chi-square quantile"):
            TrackerConfig(gate_prob=0.9)


class TestStepLifecycle:
    def test_confirm_at_third_frame(self):
        tk = Tracker(TrackerConfig(confirm_m=3, confirm_n=5, q=0.5))
        stream = [det([1.0 + 0.1 * k, 0, 0], var=0.01) for k in range(10)]
        statuses = []
        for k, d in enumerate(stream):
            tk.step(d, k * 0.1)
            statuses.append(bool(tk.tracks.confirmed[0]))
        assert statuses[:3] == [False, False, True]
        err = abs(tk.tracks.means[0, 0] - 1.9)
        assert err < 0.05

    def test_all_tracks_die_without_detections(self):
        cfg = TrackerConfig(max_misses=3)
        tk = Tracker(cfg)
        tk.step(det([0, 0, 0]), 0.0)
        assert len(tk.tracks) == 1
        for k in range(1, 6):
            tk.step(batch(), k * 0.1)
        assert len(tk.tracks) == 0

    def test_two_separated_objects_two_tracks_no_switch(self):
        tk = Tracker(TrackerConfig(q=0.5))
        for k in range(100):
            t = k * 0.1
            tk.step(batch(det([10 + t, 0, 0], var=0.01),
                          det([-10 - t, 0, 0], var=0.01)), t)
        assert tk.tracks.ids.tolist() == [1, 2]  # never replaced

    def test_ids_strictly_increasing_never_reused(self):
        tk = Tracker(TrackerConfig(max_misses=1))
        seen = set()
        rng = np.random.default_rng(0)
        for k in range(50):
            dets = batch(*[det(rng.uniform(-100, 100, size=3))
                           for _ in range(int(rng.integers(0, 3)))])
            tk.step(dets, k * 0.1)
            for tid in tk.tracks.ids.tolist():
                if tid not in seen:
                    assert tid > max(seen, default=0)
                seen.add(tid)

    def test_time_going_backwards_rejected(self):
        tk = Tracker()
        tk.step(batch(), 1.0)
        with pytest.raises(ValueError, match="step time went backwards"):
            tk.step(batch(), 0.5)

    def test_step_determinism(self):
        def run():
            tk = Tracker(TrackerConfig())
            rng = np.random.default_rng(11)
            for k in range(40):
                dets = batch(*[det(rng.normal(scale=20, size=3), var=0.5)
                               for _ in range(int(rng.integers(0, 4)))])
                tk.step(dets, k * 0.1)
            return tracker_state(tk)
        assert run() == run()


def test_joseph_form_psd_many_random_steps():
    rng = np.random.default_rng(123)
    mean = np.zeros(6)
    a = rng.normal(size=(6, 6))
    cov = a @ a.T + 1e-3 * np.eye(6)
    covs = np.empty((100_000, 6, 6))
    for k in range(len(covs)):
        dt = rng.uniform(0.01, 0.5)
        mean, cov = kalman_predict(mean, cov, dt, q=rng.uniform(0.1, 5.0))
        z = mean[:3] + rng.normal(scale=2.0, size=3)
        b = rng.normal(size=(3, 3))
        r = b @ b.T + 1e-6 * np.eye(3)
        mean, cov = kalman_update(mean, cov, z, r)
        covs[k] = cov
    # every step's covariance checked at the end, all at once
    assert np.allclose(covs, covs.swapaxes(1, 2))
    # cheap PSD check: cholesky of each cov shifted by the tolerance floor;
    # only if one fails, the eigenvalues of each that fails
    worst = 0.0
    try:
        np.linalg.cholesky(covs + 1e-9 * np.eye(6))
    except np.linalg.LinAlgError:
        for cov in covs:
            try:
                np.linalg.cholesky(cov + 1e-9 * np.eye(6))
            except np.linalg.LinAlgError:
                worst = min(worst, float(np.linalg.eigvalsh(cov).min()))
    assert worst > -1e-9


class TestPredictWaypoints:
    def test_unit_velocity_waypoints(self):
        times, wps = predict_waypoints(np.array([[0.0, 0, 0, 1, 0, 0]]), 5.0,
                                       horizon=2.0, dt=1.0)
        assert times.shape == (1, 2) and wps.shape == (1, 2, 3)
        assert times[0, 0] == pytest.approx(6.0)
        assert np.allclose(wps[0, 0], [1, 0, 0])
        assert np.allclose(wps[0, 1], [2, 0, 0])

    def test_zero_velocity_constant(self):
        _, wps = predict_waypoints(np.array([[3.0, 4, 5, 0, 0, 0]]), 5.0,
                                   horizon=1.0, dt=0.25)
        assert all(np.allclose(p, [3, 4, 5]) for p in wps[0])

    def test_waypoint_count(self):
        means = np.array([[0.0, 0, 0, 1, 1, 1]])
        assert predict_waypoints(means, 5.0, 3.0, 0.5)[1].shape == (1, 6, 3)
        assert predict_waypoints(means, 5.0, 0.3, 0.1)[1].shape == (1, 3, 3)

    @pytest.mark.parametrize("horizon,dt", [(0.0, 0.5), (1.0, 0.0), (-1.0, 0.5)])
    def test_a_horizon_or_step_that_is_not_positive_rejected(self, horizon, dt):
        with pytest.raises(ValueError, match="horizon and dt must be > 0"):
            predict_waypoints(np.zeros((1, 6)), 5.0, horizon, dt)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(0, 6), stamp=st.floats(0.0, 10.0),
           horizon=st.floats(0.1, 4.0), dt=st.floats(0.05, 1.0))
    def test_each_row_is_the_one_track_extrapolation(self, seed, m, stamp, horizon, dt):
        # row m, waypoint k holds the bits of (stamp + k dt, pos + vel (k dt))
        # computed for that one track
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=20.0, size=(m, 6))
        times, wps = predict_waypoints(means, stamp, horizon, dt)
        steps = int(math.floor(horizon / dt + 1e-9))
        assert times.shape == (m, steps) and wps.shape == (m, steps, 3)
        for mean, row_times, row_wps in zip(means, times, wps):
            for k in range(1, steps + 1):
                assert row_times[k - 1] == stamp + k * dt
                expected = mean[:3] + mean[3:] * (k * dt)
                assert row_wps[k - 1].tobytes() == expected.tobytes()


class TestBatchRollback:
    def make_batches(self, n=20, dt=0.05, seed=3):
        rng = np.random.default_rng(seed)
        batches = []
        for k in range(n):
            t = k * dt
            dets = det([5.0 + t + rng.normal(scale=0.05), 0, 0], var=0.04)
            batches.append(((t, LANE_LOCAL, 0), dets))
        return batches

    def test_in_order_equals_plain_steps(self):
        batches = self.make_batches()
        a, b = Tracker(), Tracker()
        for key, dets in batches:
            a.process_batch(key, dets)
            b.step(dets, key[0])
        assert tracker_state(a) == tracker_state(b)

    def test_a_batch_steps_at_its_key_time(self):
        tk = Tracker()
        assert tk.process_batch((0.5, LANE_LOCAL, 0), det([5, 0, 0]))
        assert tk.last_time == 0.5
        # an edge batch keyed earlier rolls back, and each batch steps at its key's time
        assert tk.process_batch((0.3, LANE_EDGE, 1), det([5, 0, 0]))
        assert [(key, state[2]) for key, _, state in tk._history] == [
            ((0.3, LANE_EDGE, 1), 0.3), ((0.5, LANE_LOCAL, 0), 0.5)]

    def test_delayed_batch_matches_in_order_oracle(self):
        batches = self.make_batches()
        late = ((0.33, LANE_EDGE, 7), det([5.4, 0.2, 0], var=0.01))
        # actual: late batch arrives after everything else
        actual = Tracker()
        for key, dets in batches:
            actual.process_batch(key, dets)
        assert actual.process_batch(*late)
        # oracle: strict key order
        oracle = Tracker()
        for key, dets in sorted(batches + [late], key=lambda b: b[0]):
            oracle.process_batch(key, dets)
        assert tracker_state(actual) == tracker_state(oracle)

    def test_interleaved_delays_match_oracle(self):
        batches = self.make_batches(n=30)
        rng = np.random.default_rng(5)
        lates = []
        for i, ((t, _, _), _) in enumerate(batches):
            if i % 5 == 2:
                lates.append(((t, LANE_EDGE, i), det([5.0 + t, 0.1, 0], var=0.02)))
        actual = Tracker()
        arrival = []
        for i, b in enumerate(batches):
            arrival.append(b)
            for lb in lates:
                if abs(lb[0][0] + 0.2 - b[0][0]) < 1e-9:  # arrives 0.2 s later
                    arrival.append(lb)
        for lb in lates:  # stragglers arriving after the stream ends
            if lb not in arrival:
                arrival.append(lb)
        for key, dets in arrival:
            actual.process_batch(key, dets)
        oracle = Tracker()
        for key, dets in sorted(batches + lates, key=lambda b: b[0]):
            oracle.process_batch(key, dets)
        assert tracker_state(actual) == tracker_state(oracle)

    @staticmethod
    def check_arrival_order(edges, edge_dets):
        """Edge batch i (time k*dt, detections ``edge_dets(t)``) arrives d
        ticks late, at phase p between local batches; the result equals
        key order, in state and in the singular count."""
        dt = 0.05
        rng = np.random.default_rng(11)
        local = []
        for k in range(30):
            t = k * dt
            dets = batch(det([5.0 + t + rng.normal(scale=0.05), 0, 0], var=0.04),
                         det([9.0 - t, 2.0 + rng.normal(scale=0.05), 0], var=0.04))
            local.append(((t, LANE_LOCAL, 0), dets))
        edge = [((k * dt, LANE_EDGE, i), edge_dets(k * dt)) for i, (k, _, _) in enumerate(edges)]
        arrival = sorted(
            [(k + 0.5, b) for k, b in enumerate(local)]
            + [(k + d + p, b) for (k, d, p), b in zip(edges, edge)],
            key=lambda e: e[0])
        actual = Tracker(TrackerConfig(snapshot_horizon=1.0))
        for _, (key, dets) in arrival:
            assert actual.process_batch(key, dets)
        oracle = Tracker(TrackerConfig(snapshot_horizon=1.0))
        for key, dets in sorted(local + edge, key=lambda b: b[0]):
            oracle.process_batch(key, dets)
        assert tracker_state(actual) == tracker_state(oracle)
        assert actual.singular == oracle.singular
        return oracle.singular

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 15), st.floats(0.0, 0.99)),
                    max_size=8, unique_by=lambda e: e[0]))
    def test_edge_arrival_order_within_horizon_matches_key_order(self, edges):
        self.check_arrival_order(edges, lambda t: det([5.0 + t, 0.1, 0], var=0.02))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 15), st.floats(0.0, 0.99)),
                    max_size=8))
    def test_zero_variance_edge_arrival_order_matches_key_order(self, edges):
        """Noiseless edge detections: one on the near object, one where no
        track is.  The first batch at a time spawns a zero-covariance track
        there, and a second batch at that time (dt = 0) meets it in a
        singular pair, whose detection is skipped and counted."""
        self.check_arrival_order(edges, lambda t: batch(det([5.0 + t, 0.1, 0], var=0.0),
                                                        det([5.0 + t, 6.0, 0], var=0.0)))

    def test_zero_variance_edge_twins_count_singular_pairs_once(self):
        # the two batches at tick 12 arrive late and in reverse key order
        edges = [(12, 6, 0.7), (12, 3, 0.2), (20, 1, 0.5)]
        singular = self.check_arrival_order(
            edges, lambda t: batch(det([5.0 + t, 0.1, 0], var=0.0),
                                   det([5.0 + t, 6.0, 0], var=0.0)))
        assert singular > 0

    def test_late_batch_that_raises_mid_replay_changes_nothing(self, monkeypatch):
        batches = self.make_batches()
        twin = det([20.0, 0, 0], var=0.04)
        second = ((0.3, LANE_EDGE, 8), twin)
        first = ((0.3, LANE_EDGE, 7), twin)
        tk, oracle = Tracker(), Tracker()
        for key, dets in batches + [second]:
            tk.process_batch(key, dets)
            oracle.process_batch(key, dets)
        before = (tracker_state(tk), tk.newest_key,
                  [(k, state_bytes(state)) for k, _, state in tk._history])
        # replay restores the state stored at (0.3, local): ``first`` spawns
        # a track at x = 20, then ``second`` updates it, and that update
        # raises, with later batches still to come
        def update(tracks, rows, detections, confirm_m):
            if np.any(detections.positions[:, 0] == 20.0):
                raise ValueError("forced")
            return plain_update(tracks, rows, detections, confirm_m)
        plain_update = tracker_module.update
        with monkeypatch.context() as patch:
            patch.setattr(tracker_module, "update", update)
            with pytest.raises(ValueError, match="^forced$"):
                tk.process_batch(*first)
        assert (tracker_state(tk), tk.newest_key,
                [(k, state_bytes(state)) for k, _, state in tk._history]) == before
        # and the tracker goes on exactly like one that never saw the batch
        for tracker in (tk, oracle):
            tracker.process_batch((0.42, LANE_EDGE, 9), det([5.4, 0, 0]))
            tracker.process_batch((1.0, LANE_LOCAL, 0), det([6.0, 0, 0]))
        assert tracker_state(tk) == tracker_state(oracle)

    def test_empty_batch_scores_misses_in_order(self):
        batches = self.make_batches(n=4)
        tk, oracle = Tracker(), Tracker()
        for key, dets in batches:
            tk.process_batch(key, dets)
            oracle.step(dets, key[0])
        misses = tk.tracks.misses.tolist()
        assert tk.process_batch((0.2, LANE_EDGE, 1), batch())
        oracle.step(batch(), 0.2)
        assert tk.tracks.misses.tolist() == [m + 1 for m in misses]
        assert not tk.tracks.window[:, -1].any()
        assert tracker_state(tk) == tracker_state(oracle)

    def test_empty_batch_scores_misses_in_a_rollback(self):
        batches = self.make_batches(n=10)
        late = ((0.22, LANE_EDGE, 3), batch())
        actual = Tracker()
        for key, dets in batches:
            actual.process_batch(key, dets)
        plain = tracker_state(actual)
        assert actual.process_batch(*late)
        oracle = Tracker()
        for key, dets in sorted(batches + [late], key=lambda b: b[0]):
            oracle.process_batch(key, dets)
        assert tracker_state(actual) == tracker_state(oracle)
        assert tracker_state(actual) != plain  # the replayed miss shows

    def test_too_old_batch_rejected(self):
        batches = self.make_batches(n=40, dt=0.05)  # spans 2 s > horizon 1 s
        tk = Tracker(TrackerConfig(snapshot_horizon=1.0))
        for key, dets in batches:
            tk.process_batch(key, dets)
        stale = ((0.1, LANE_EDGE, 99), det([5, 0, 0]))
        assert not tk.process_batch(*stale)
        # and the state is untouched by the refused batch
        before = tracker_state(tk)
        assert not tk.process_batch((0.11, LANE_EDGE, 100), det([5, 0, 0]))
        assert tracker_state(tk) == before

    def test_duplicate_key_rejected(self):
        tk = Tracker()
        key = (0.0, LANE_LOCAL, 0)
        tk.process_batch(key, det([1, 0, 0]))
        with pytest.raises(ValueError, match="duplicate batch key"):
            tk.process_batch(key, det([1, 0, 0]))

    @staticmethod
    def run_history(local_delays, edges, horizon=0.25, dt=0.125):
        """Feed local batch k (time k dt, ``local_delays[k]`` ticks late) and
        edge batches (k, delay) in arrival order, checking each outcome
        and the history against a model of the acceptance and prune
        rules, then the final and the stored states against an in-order
        oracle over the accepted batches.  Returns the kinds of arrival
        seen: "genesis" (replayed from the initial state), "refused" and
        "refused_between" (after the last pruned key, before the oldest
        retained one)."""
        rng = np.random.default_rng(23)
        arrivals = []
        for k, d in enumerate(local_delays):
            t = k * dt
            dets = batch(det([5.0 + t + rng.normal(scale=0.05), 0, 0], var=0.04),
                         det([9.0 - t, 2.0 + rng.normal(scale=0.05), 0], var=0.04))
            arrivals.append((k + d, (t, LANE_LOCAL, 0), dets))
        for i, (k, d) in enumerate(edges):
            t = k * dt
            arrivals.append((k + d, (t, LANE_EDGE, i), det([5.0 + t, 0.1, 0], var=0.02)))
        arrivals.sort(key=lambda a: (a[0], a[1]))

        tk = Tracker(TrackerConfig(snapshot_horizon=horizon))
        retained, last_pruned, accepted, seen = [], None, [], set()
        for _, key, dets in arrivals:
            expected = last_pruned is None or retained[0] < key
            assert tk.process_batch(key, dets) == expected
            if not expected:
                seen.add("refused_between" if key > last_pruned else "refused")
                continue
            if retained and key < retained[0]:
                seen.add("genesis")
            insort(retained, key)
            accepted.append((key, dets))
            cutoff = retained[-1][0] - horizon
            while len(retained) > 1 and retained[0][0] < cutoff:
                last_pruned = retained.pop(0)
            assert [entry[0] for entry in tk._history] == retained

        oracle = Tracker(TrackerConfig(snapshot_horizon=horizon))
        after = {}
        for key, dets in sorted(accepted, key=lambda b: b[0]):
            oracle.step(dets, key[0])
            after[key] = tracker_state(oracle)
        assert tracker_state(tk) == tracker_state(oracle)
        for key, _, state in tk._history:
            assert state_bytes(state) == after[key]
        # a key already held is a duplicate wherever it sits
        with pytest.raises(ValueError, match="duplicate batch key"):
            tk.process_batch(retained[0], batch())
        assert tracker_state(tk) == tracker_state(oracle)
        return seen

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 8), min_size=12, max_size=12),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 8)), max_size=6))
    def test_history_matches_model_and_in_order_oracle(self, local_delays, edges):
        self.run_history(local_delays, edges)

    def test_history_replays_from_genesis_then_refuses_between(self):
        # local batch 0 arrives at tick 3, before anything was pruned; the
        # edge batch of tick 7 arrives after its local twin was pruned
        seen = self.run_history([3] + [0] * 11, [(7, 4)])
        assert {"genesis", "refused_between"} <= seen
