import itertools

import numpy as np
import pytest

from fusionsim.metrics import (
    DEFAULT_MATCH_RADIUS,
    MetricsAggregator,
    distances,
    match_frame,
    ospa,
    prediction_error,
)


def pts(*coords):
    return [np.array(c, dtype=float) for c in coords]


def match(gt, est, radius=DEFAULT_MATCH_RADIUS, prev=None):
    """``match_frame`` of two ``{id: position}`` dicts."""
    return match_frame(list(gt), list(est), distances(list(gt.values()), list(est.values())),
                       radius, prev)


class TestMatchFrame:
    def test_identical_sets(self):
        matches = match({1: [0.0, 0, 0], 2: [10.0, 0, 0]},
                        {101: [0.0, 0, 0], 102: [10.0, 0, 0]})
        assert matches == [(1, 101, 0.0), (2, 102, 0.0)]

    def test_empty_estimates(self):
        assert match({i: [float(i), 0, 0] for i in range(3)}, {}) == []

    def test_nearer_of_two_wins(self):
        assert match({1: [0.0, 0, 0]}, {10: [0.5, 0, 0], 11: [1.0, 0, 0]}) == [(1, 10, 0.5)]

    def test_radius_cut(self):
        assert match({1: [0.0, 0, 0]}, {10: [5.0, 0, 0]}, radius=2.0) == []

    def test_carry_over_beats_nearer_newcomer(self):
        matches = match({1: [0.0, 0, 0]}, {10: [1.0, 0, 0], 11: [0.4, 0, 0]}, prev={1: 10})
        assert matches == [(1, 10, 1.0)]

    def test_ids_must_be_unique(self):
        with pytest.raises(ValueError, match="gt ids must be unique within a frame"):
            match_frame([1, 1], [10], np.zeros((2, 1)))
        with pytest.raises(ValueError, match="estimate ids must be unique within a frame"):
            match_frame([1], [10, 10], np.zeros((1, 2)))

    def test_assignment_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            gt = rng.uniform(-10, 10, size=(n, 3))
            est = rng.uniform(-10, 10, size=(m, 3))
            matches = match_frame(list(range(n)), list(range(100, 100 + m)),
                                  distances(gt, est), radius=8.0)
            total = sum(d for _, _, d in matches)
            best = None
            k = min(n, m)
            for kk in range(k, -1, -1):
                for rows in itertools.permutations(range(n), kk):
                    for cols in itertools.combinations(range(m), kk):
                        dists = [np.linalg.norm(gt[i] - est[j])
                                 for i, j in zip(rows, cols)]
                        if any(d > 8.0 for d in dists):
                            continue
                        tot = sum(dists)
                        if best is None or tot < best:
                            best = tot
                if best is not None:
                    break
            if best is None:
                assert matches == []
            else:
                assert total == pytest.approx(best, abs=1e-9)


def run(frames, radius=DEFAULT_MATCH_RADIUS):
    """An aggregator that sampled ``frames``, each a pair of ``{id:
    position}`` dicts (truth, estimates), 0.1 s apart; and the matches of
    each sample."""
    agg = MetricsAggregator(radius=radius)
    matches = []
    for k, (gt, est) in enumerate(frames):
        matches.append(agg.sample(0.1 * k, list(gt), np.array(list(gt.values()), float),
                                  list(est), np.array(list(est.values()), float)))
    return agg, matches


def clear_mot(frames):
    """(IDSW, MOTP) of a sequence of frames' matches, walked once the run
    is over: a switch is a gt id matched to another estimate than at its
    previous match."""
    last, dists, idsw = {}, [], 0
    for matches in frames:
        for gid, eid, d in matches:
            idsw += gid in last and last[gid] != eid
            last[gid] = eid
            dists.append(d)
    return idsw, float(np.mean(dists)) if dists else None


class TestClearMot:
    def test_hand_counts(self):
        # GT = 2 + 3 + 2 + 2 = 9, FP = 2, FN = 1, IDSW = 1 -> MOTA = 1 - 4/9
        agg, _ = run([
            ({1: [0.0, 0, 0], 2: [10.0, 0, 0]},
             {10: [0.5, 0, 0], 20: [10.25, 0, 0], 99: [50.0, 0, 0]}),
            ({1: [0.0, 0, 0], 2: [10.0, 0, 0], 3: [20.0, 0, 0]},
             {10: [0.5, 0, 0], 20: [10.25, 0, 0]}),
            ({1: [0.0, 0, 0], 2: [10.0, 0, 0]}, {10: [0.5, 0, 0], 21: [10.25, 0, 0]}),
            ({1: [0.0, 0, 0], 2: [10.0, 0, 0]},
             {10: [0.5, 0, 0], 21: [10.25, 0, 0], 98: [60.0, 0, 0]}),
        ])
        r = agg.report()
        assert (r["gt_total"], r["tp_total"], r["fp_total"], r["fn_total"]) == (9, 8, 2, 1)
        assert r["id_switches"] == 1 and r["frames"] == 4
        assert r["mota"] == 1.0 - 4 / 9
        assert r["motp"] == np.mean([0.5, 0.25] * 4)

    def test_perfect_tracking(self):
        agg, _ = run([({1: [0.0, 0, 0]}, {10: [0.0, 0, 0]})] * 2)
        r = agg.report()
        assert r["mota"] == 1.0 and r["motp"] == 0.0 and r["id_switches"] == 0

    def test_identity_swap_walked(self):
        near = {1: [0.0, 0, 0], 2: [10.0, 0, 0]}
        agg, _ = run([(near, {10: [0.1, 0, 0], 11: [10.1, 0, 0]}),
                      (near, {11: [0.1, 0, 0], 10: [10.1, 0, 0]}),
                      (near, {11: [0.1, 0, 0], 10: [10.1, 0, 0]})])
        assert agg.id_switches == 2  # both gt ids switched once

    def test_no_gt_mota_null(self):
        agg, _ = run([({}, {10: [0.0, 0, 0], 11: [5.0, 0, 0]})])
        r = agg.report()
        assert r["mota"] is None and r["motp"] is None and r["fp_total"] == 2

    def test_fp_injection_weakly_decreases_mota(self):
        base, _ = run([({1: [0.0, 0, 0]}, {10: [0.3, 0, 0]})] * 10)
        worse, _ = run([({1: [0.0, 0, 0]}, {10: [0.3, 0, 0], 99: [50.0, 0, 0]})] * 10)
        assert worse.report()["mota"] <= base.report()["mota"]

    def test_switch_counted_across_gap(self):
        agg, _ = run([({1: [0.0, 0, 0]}, {10: [0.1, 0, 0]}),
                      ({1: [0.0, 0, 0]}, {}),
                      ({1: [0.0, 0, 0]}, {12: [0.1, 0, 0]})])
        assert agg.id_switches == 1 and agg.fn_total == 1

    def test_running_totals_equal_the_walk_over_all_frames(self):
        # random truths and estimates that come and go; ids recur so that
        # carry-overs, gaps and switches all happen
        rng = np.random.default_rng(31)
        frames = []
        for _ in range(60):
            gt = {int(g): rng.uniform(-6, 6, 3) for g in rng.choice(8, rng.integers(0, 7), False)}
            est = {int(e): rng.uniform(-6, 6, 3)
                   for e in rng.choice(range(100, 110), rng.integers(0, 7), False)}
            frames.append((gt, est))
        agg, matches = run(frames, radius=4.0)
        idsw, motp = clear_mot(matches)
        assert idsw > 0 and agg.id_switches == idsw
        assert agg.report()["motp"] == motp
        assert agg.frames == len(frames)
        assert agg.fp_total == sum(len(est) for _, est in frames) - len(agg.matched)


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
        gt = {i: rng.uniform(-5, 5, size=3) for i in range(6)}
        est = {100 + i: p + rng.normal(scale=0.3, size=3) for i, p in gt.items()}
        matches = match(gt, est, radius=3.0)
        assert len(matches) == 6
        for gid, eid, d in matches:
            assert d == np.linalg.norm(gt[gid] - est[eid])


def ospa_of(a, b, c=5.0):
    return ospa(distances(a, b), c)


class TestOspa:
    def test_both_empty(self):
        assert ospa_of([], []) == 0.0

    def test_one_empty(self):
        assert ospa_of([], pts([1, 0, 0], [2, 0, 0])) == 5.0
        assert ospa_of(pts([1, 0, 0], [2, 0, 0]), []) == 5.0

    def test_single_pair_under_cutoff(self):
        assert ospa_of(pts([0, 0, 0]), pts([1, 0, 0])) == pytest.approx(1.0)

    def test_cardinality_penalty(self):
        d = ospa_of(pts([0, 0, 0]), pts([0, 0, 0], [100, 0, 0]))
        assert d == pytest.approx((0.0 + 5.0) / 2)

    def test_axioms_random_sets(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = [rng.uniform(-20, 20, size=3) for _ in range(int(rng.integers(0, 8)))]
            b = [rng.uniform(-20, 20, size=3) for _ in range(int(rng.integers(0, 8)))]
            dab = ospa_of(a, b)
            assert dab == ospa_of(b, a) == ospa(distances(a, b).T, 5.0)   # symmetry
            assert 0.0 <= dab <= 5.0 + 1e-12        # bounded by cutoff
            assert ospa_of(a, list(a)) == pytest.approx(0.0, abs=1e-12)
            if len(a) != len(b):
                assert dab > 0.0

    def test_zero_iff_equal_multisets(self):
        a = pts([1, 2, 3], [4, 5, 6])
        b = pts([4, 5, 6], [1, 2, 3])
        assert ospa_of(a, b) == pytest.approx(0.0, abs=1e-12)
        b2 = pts([4, 5, 6], [1, 2, 3.001])
        assert ospa_of(a, b2) > 1e-5

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError, match="need cutoff c > 0"):
            ospa(np.zeros((0, 0)), c=0.0)


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
        with pytest.raises(ValueError, match="no waypoints to score"):
            prediction_error(np.zeros((2, 0, 3)), np.zeros((2, 0)), np.zeros((2, 0, 3)), 10.0)


class TestAggregator:
    def test_running_recall_precision(self):
        agg, _ = run([({1: [0.0, 0, 0], 2: [10.0, 0, 0]}, {101: [0.1, 0, 0]})] * 10)
        r = agg.report()
        assert r["recall"] == pytest.approx(0.5)
        assert r["precision"] == pytest.approx(1.0)
        assert r["mota"] == pytest.approx(0.5)
        assert r["ospa_mean"] is not None

    def test_a_sample_scores_ospa_from_its_matrix(self):
        gt = {1: [0.0, 0, 0], 2: [10.0, 0, 0], 3: [30.0, 0, 0]}
        est = {101: [0.5, 0, 0]}
        agg, _ = run([(gt, est), (est, gt)])
        assert [v for _, v in agg.ospa_series] == [ospa_of(list(gt.values()),
                                                           list(est.values()))] * 2

    def test_empty_run(self):
        agg = MetricsAggregator()
        r = agg.report()
        assert r["mota"] is None and r["recall"] is None and r["frames"] == 0
