import itertools

import numpy as np
import pytest

from fusionsim.metrics import (
    FrameMatchResult,
    MetricsAggregator,
    MetricsError,
    clear_mot,
    distances,
    match_frame,
    ospa,
    prediction_error,
)


def pts(*coords):
    return [np.array(c, dtype=float) for c in coords]


class TestMatchFrame:
    def test_identical_sets(self):
        gt = [(1, np.array([0.0, 0, 0])), (2, np.array([10.0, 0, 0]))]
        est = [(101, np.array([0.0, 0, 0])), (102, np.array([10.0, 0, 0]))]
        f = match_frame(gt, est)
        assert len(f.matches) == 2
        assert all(d == 0.0 for _, _, d in f.matches)
        assert f.fp == 0 and f.fn == 0

    def test_empty_estimates(self):
        gt = [(i, np.array([float(i), 0, 0])) for i in range(3)]
        f = match_frame(gt, [])
        assert f.fn == 3 and f.fp == 0 and f.matches == []

    def test_nearer_of_two_wins(self):
        gt = [(1, np.array([0.0, 0, 0]))]
        est = [(10, np.array([0.5, 0, 0])), (11, np.array([1.0, 0, 0]))]
        f = match_frame(gt, est)
        assert f.matches == [(1, 10, 0.5)]
        assert f.fp == 1

    def test_radius_cut(self):
        gt = [(1, np.array([0.0, 0, 0]))]
        est = [(10, np.array([5.0, 0, 0]))]
        f = match_frame(gt, est, radius=2.0)
        assert f.matches == [] and f.fp == 1 and f.fn == 1

    def test_carry_over_beats_nearer_newcomer(self):
        gt = [(1, np.array([0.0, 0, 0]))]
        est = [(10, np.array([1.0, 0, 0])), (11, np.array([0.4, 0, 0]))]
        f = match_frame(gt, est, prev={1: 10})
        assert f.matches == [(1, 10, 1.0)]

    def test_assignment_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            gt = [(i, rng.uniform(-10, 10, size=3)) for i in range(n)]
            est = [(100 + j, rng.uniform(-10, 10, size=3)) for j in range(m)]
            f = match_frame(gt, est, radius=8.0)
            total = sum(d for _, _, d in f.matches)
            best = None
            k = min(n, m)
            for kk in range(k, -1, -1):
                for rows in itertools.permutations(range(n), kk):
                    for cols in itertools.combinations(range(m), kk):
                        dists = [np.linalg.norm(gt[i][1] - est[j][1])
                                 for i, j in zip(rows, cols)]
                        if any(d > 8.0 for d in dists):
                            continue
                        tot = sum(dists)
                        if best is None or tot < best:
                            best = tot
                if best is not None:
                    break
            if best is None:
                assert f.matches == []
            else:
                assert total == pytest.approx(best, abs=1e-9)


class TestClearMot:
    def test_hand_counts(self):
        # GT=20, FP=2, FN=3, IDSW=1 -> MOTA = 1 - 6/20 = 0.7
        frames = [
            FrameMatchResult(0.0, [(1, 10, 0.5), (2, 20, 0.2)], fp=1, fn=1, gt_count=5),
            FrameMatchResult(0.1, [(1, 10, 0.5), (2, 20, 0.2)], fp=1, fn=1, gt_count=5),
            FrameMatchResult(0.2, [(1, 10, 0.5), (2, 21, 0.2)], fp=0, fn=1, gt_count=5),
            FrameMatchResult(0.3, [(1, 10, 0.5), (2, 21, 0.2)], fp=0, fn=0, gt_count=5),
        ]
        mota, motp, idsw = clear_mot(frames)
        assert idsw == 1
        assert mota == pytest.approx(0.7, abs=1e-12)
        assert motp == pytest.approx(np.mean([0.5, 0.2] * 4), abs=1e-12)

    def test_perfect_tracking(self):
        frames = [FrameMatchResult(t, [(1, 10, 0.0)], 0, 0, 1) for t in (0.0, 0.1)]
        mota, motp, idsw = clear_mot(frames)
        assert mota == 1.0 and motp == 0.0 and idsw == 0

    def test_identity_swap_walked(self):
        frames = [
            FrameMatchResult(0.0, [(1, 10, 0.1), (2, 11, 0.1)], 0, 0, 2),
            FrameMatchResult(0.1, [(1, 11, 0.1), (2, 10, 0.1)], 0, 0, 2),
            FrameMatchResult(0.2, [(1, 11, 0.1), (2, 10, 0.1)], 0, 0, 2),
        ]
        _, _, idsw = clear_mot(frames)
        assert idsw == 2  # both gt ids switched once

    def test_no_gt_mota_null(self):
        frames = [FrameMatchResult(0.0, [], fp=2, fn=0, gt_count=0)]
        mota, motp, _ = clear_mot(frames)
        assert mota is None and motp is None

    def test_fp_injection_weakly_decreases_mota(self):
        base = [FrameMatchResult(t, [(1, 10, 0.3)], fp=0, fn=0, gt_count=1)
                for t in np.arange(0, 1, 0.1)]
        mota0, _, _ = clear_mot(base)
        worse = [FrameMatchResult(f.t, f.matches, f.fp + 1, f.fn, f.gt_count)
                 for f in base]
        mota1, _, _ = clear_mot(worse)
        assert mota1 <= mota0

    def test_switch_counted_across_gap(self):
        frames = [
            FrameMatchResult(0.0, [(1, 10, 0.1)], 0, 0, 1),
            FrameMatchResult(0.1, [], 0, 1, 1),
            FrameMatchResult(0.2, [(1, 12, 0.1)], 0, 0, 1),
        ]
        _, _, idsw = clear_mot(frames)
        assert idsw == 1


class TestDistances:
    def test_match_per_pair_norm(self):
        rng = np.random.default_rng(11)
        for n, m in [(0, 0), (0, 4), (3, 0), (1, 1), (7, 5), (60, 60)]:
            a = list(rng.normal(scale=50.0, size=(n, 3)))
            b = list(rng.normal(scale=50.0, size=(m, 3)))
            d = distances(a, b)
            assert d.shape == (n, m)
            for i in range(n):
                for j in range(m):
                    assert d[i, j] == np.linalg.norm(a[i] - b[j])

    def test_matched_distances_are_the_norms(self):
        rng = np.random.default_rng(12)
        gt = [(i, rng.uniform(-5, 5, size=3)) for i in range(6)]
        est = [(100 + i, p + rng.normal(scale=0.3, size=3)) for i, p in gt]
        by_id = dict(gt) | dict(est)
        f = match_frame(gt, est, radius=3.0)
        assert len(f.matches) == 6
        for gid, eid, d in f.matches:
            assert d == pytest.approx(np.linalg.norm(by_id[gid] - by_id[eid]), rel=1e-12)


class TestOspa:
    def test_both_empty(self):
        assert ospa([], []) == 0.0

    def test_one_empty(self):
        assert ospa([], pts([1, 0, 0], [2, 0, 0]), c=5.0) == 5.0

    def test_single_pair_under_cutoff(self):
        assert ospa(pts([0, 0, 0]), pts([1, 0, 0]), c=5.0, p=1) == pytest.approx(1.0)

    def test_cardinality_penalty(self):
        d = ospa(pts([0, 0, 0]), pts([0, 0, 0], [100, 0, 0]), c=5.0, p=1)
        assert d == pytest.approx((0.0 + 5.0) / 2)

    def test_axioms_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = [rng.uniform(-20, 20, size=3) for _ in range(int(rng.integers(0, 8)))]
            b = [rng.uniform(-20, 20, size=3) for _ in range(int(rng.integers(0, 8)))]
            c = 5.0
            dab = ospa(a, b, c=c)
            dba = ospa(b, a, c=c)
            assert dab == dba                      # symmetry
            assert 0.0 <= dab <= c + 1e-12         # bounded by cutoff
            assert ospa(a, list(a), c=c) == pytest.approx(0.0, abs=1e-12)
            if len(a) != len(b):
                assert dab > 0.0

    def test_zero_iff_equal_multisets(self):
        a = pts([1, 2, 3], [4, 5, 6])
        b = pts([4, 5, 6], [1, 2, 3])
        assert ospa(a, b) == pytest.approx(0.0, abs=1e-12)
        b2 = pts([4, 5, 6], [1, 2, 3.001])
        assert ospa(a, b2) > 1e-5

    def test_invalid_params(self):
        with pytest.raises(MetricsError):
            ospa([], [], c=0.0)
        with pytest.raises(MetricsError):
            ospa([], [], p=0.5)


def score(predicted, truth, duration):
    """The stacked scorer's (ADE, FDE, scored) of one trajectory, given as
    (t, position) waypoints and a truth function of time."""
    times = np.array([[t for t, _ in predicted]])
    waypoints = np.array([[p for _, p in predicted]])
    true = np.array([[truth(t) for t, _ in predicted]])
    ade, fde, scored = prediction_error(waypoints, times, true, duration)
    assert ade.shape == fde.shape == scored.shape == (1,)
    return ade[0], fde[0], scored[0]


class TestPredictionError:
    def test_perfect_cv(self):
        truth = lambda t: np.array([t, 0.0, 0.0])
        predicted = [(t, np.array([t, 0.0, 0.0])) for t in (1.0, 2.0)]
        ade, fde, scored = score(predicted, truth, duration=10.0)
        assert ade == 0.0 and fde == 0.0 and scored

    def test_constant_offset(self):
        truth = lambda t: np.array([t, 0.0, 0.0])
        predicted = [(t, np.array([t, 1.0, 0.0])) for t in (1.0, 2.0, 3.0)]
        ade, fde, scored = score(predicted, truth, duration=10.0)
        assert ade == pytest.approx(1.0) and fde == pytest.approx(1.0) and scored

    def test_turning_object_fde_exceeds_ade(self):
        # truth turns at t=1; CV prediction keeps going straight
        def truth(t):
            if t <= 1.0:
                return np.array([t, 0.0, 0.0])
            return np.array([1.0, t - 1.0, 0.0])
        predicted = [(t, np.array([t, 0.0, 0.0])) for t in (0.5, 1.0, 1.5, 2.0)]
        ade, fde, scored = score(predicted, truth, duration=10.0)
        assert fde >= ade > 0.0 and scored

    def test_out_of_range(self):
        truth = lambda t: np.zeros(3)
        assert not score([(11.0, np.zeros(3))], truth, duration=10.0)[2]
        assert not score([(1.0, np.zeros(3)), (-0.5, np.zeros(3))], truth, duration=10.0)[2]

    def test_no_waypoints(self):
        with pytest.raises(MetricsError):
            prediction_error(np.zeros((2, 0, 3)), np.zeros((2, 0)), np.zeros((2, 0, 3)), 10.0)


class TestAggregator:
    def test_running_recall_precision(self):
        agg = MetricsAggregator()
        gt = [(1, np.array([0.0, 0, 0])), (2, np.array([10.0, 0, 0]))]
        est_good = [(101, np.array([0.1, 0, 0]))]
        for t in np.arange(0, 1, 0.1):
            agg.sample(float(t), gt, est_good)
        r = agg.report()
        assert r["recall"] == pytest.approx(0.5)
        assert r["precision"] == pytest.approx(1.0)
        assert r["mota"] == pytest.approx(0.5)
        assert r["ospa_mean"] is not None

    def test_empty_run(self):
        agg = MetricsAggregator()
        r = agg.report()
        assert r["mota"] is None and r["recall"] is None and r["frames"] == 0
