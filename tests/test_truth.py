"""Ground truth and prediction scoring as stacked arrays, bit for bit.

* ``World`` evaluates cv motions as one ``p0 + v * t`` and keeps the
  per-object rule for static and waypoint motions: ``world_at`` and
  ``World.positions`` give each object the bits its own ``Motion``
  gives, at knots, before the first knot and after the last, and
  ``world_at`` returns new arrays on every call;
* ``predict_waypoints``, ``World.positions`` and one ``prediction_error``
  call score every match as the per-match loop they replaced did, kept
  here as the oracle: the same ADE and FDE bits, and the same rows left
  unscored for a waypoint outside [0, duration].  Each row's waypoints
  come from their own ``predict_waypoints`` call, so that rows at
  different times meet in one ``prediction_error`` call.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from fusionsim.metrics import prediction_error
from fusionsim.scenario.model import Motion, ObjectSpec, World, world_at
from fusionsim.tracker import predict_waypoints

COORDS = st.floats(-100.0, 100.0) | st.sampled_from([0.0, -0.0])
VECTORS = st.lists(COORDS, min_size=3, max_size=3).map(lambda xs: np.array(xs))


@st.composite
def waypoint_motions(draw):
    n = draw(st.integers(2, 5))
    times = np.cumsum([draw(st.floats(0.0, 4.0))]
                      + draw(st.lists(st.floats(0.05, 3.0), min_size=n - 1, max_size=n - 1)))
    return Motion("waypoints", points=tuple((float(t), draw(VECTORS)) for t in times))


MOTIONS = st.one_of(
    st.builds(lambda p: Motion("static", p0=p, rpy_deg=(0.0, 0.0, 0.0)), VECTORS),
    st.builds(lambda p, v: Motion("cv", p0=p, v=v), VECTORS, VECTORS),
    waypoint_motions(),
)


def world_of(motions):
    return World([ObjectSpec(i + 1, np.ones(3), m) for i, m in enumerate(motions)])


def instants(motions, low):
    """Times at the waypoint motions' knots or anywhere in [low, 20]."""
    knots = sorted({t for m in motions if m.kind == "waypoints" for t, _ in m.points})
    anywhere = st.floats(low, 20.0)
    return st.sampled_from(knots) | anywhere if knots else anywhere


def bits(array):
    return np.asarray(array, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(motions=st.lists(MOTIONS, max_size=6), data=st.data())
def test_world_at_gives_each_object_its_own_motion(motions, data):
    world = world_of(motions)
    t = data.draw(instants(motions, 0.0))
    truth = world_at(world, t, 20.0)
    assert truth.ids == tuple(range(1, len(motions) + 1))
    for i, motion in enumerate(motions):
        assert bits(truth.positions[i]) == bits(motion.position(t))
        assert bits(truth.velocities[i]) == bits(motion.velocity(t))
    again = world_at(world, t, 20.0)
    for array, other in zip(truth[1:], again[1:]):
        assert array.shape == (len(motions), 3) and array.flags.c_contiguous
        assert not np.shares_memory(array, other)
        assert not any(np.shares_memory(array, held) for held in (world.p0, world.v,
                                                                   world.extents))


@settings(max_examples=100, deadline=None)
@given(motions=st.lists(MOTIONS, min_size=1, max_size=6), data=st.data())
def test_positions_at_many_times_give_each_object_its_own_motion(motions, data):
    world = world_of(motions)
    rows = data.draw(st.lists(st.integers(0, len(motions) - 1), min_size=1, max_size=6))
    k = data.draw(st.integers(1, 5))
    times = np.array([[data.draw(instants(motions, -10.0)) for _ in range(k)]
                      for _ in rows])
    out, found = world.positions([world.ids[i] for i in rows], times)
    assert out.shape == (len(rows), k, 3) and found.tolist() == [True] * len(rows)
    for m, i in enumerate(rows):
        for j in range(k):
            assert bits(out[m, j]) == bits(motions[i].position(float(times[m, j])))


def per_match_scores(means, stamps, motions, horizon, dt, duration):
    """The per-match loop the stacked scorer replaced: each track's
    waypoints one at a time, each scored against its object's
    ``Motion.position`` with ``np.linalg.norm``; None for a track with a
    waypoint outside [0, duration]."""
    steps = int(math.floor(horizon / dt + 1e-9))
    out = []
    for mean, stamp, motion in zip(means, stamps.tolist(), motions):
        predicted = [(stamp + k * dt, mean[:3] + mean[3:] * (k * dt))
                     for k in range(1, steps + 1)]
        errors = []
        for t, pos in predicted:
            if t > duration + 1e-9 or t < -1e-9:
                errors = None
                break
            errors.append(float(np.linalg.norm(np.asarray(pos, dtype=float)
                                               - motion.position(t))))
        out.append(None if errors is None else (float(np.mean(errors)), errors[-1]))
    return out


@settings(max_examples=100, deadline=None)
@given(motions=st.lists(MOTIONS, min_size=1, max_size=5), seed=st.integers(0, 2**32 - 1),
       m=st.integers(1, 8), horizon=st.floats(0.5, 3.0), steps=st.integers(1, 12),
       duration=st.floats(1.0, 10.0), data=st.data())
def test_stacked_scorer_equals_the_per_match_loop(motions, seed, m, horizon, steps,
                                                  duration, data):
    # up to 12 waypoints, so a row's mean also runs numpy's pairwise
    # summation (8 or more terms); stamps reach before 0 and past the
    # duration less the horizon, so some rows are left unscored
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=20.0, size=(m, 6))
    stamps = rng.uniform(-0.5, duration, m)
    rows = data.draw(st.lists(st.integers(0, len(motions) - 1), min_size=m, max_size=m))
    dt = horizon / steps
    predicted = [predict_waypoints(means[i:i + 1], stamp, horizon, dt)
                 for i, stamp in enumerate(stamps.tolist())]
    times, waypoints = (np.concatenate(part) for part in zip(*predicted))
    world = world_of(motions)
    truth, _ = world.positions([world.ids[i] for i in rows], times)
    ade, fde, scored = prediction_error(waypoints, times, truth, duration)
    stacked = [(a, f) if ok else None
               for a, f, ok in zip(ade.tolist(), fde.tolist(), scored.tolist())]
    oracle = per_match_scores(means, stamps, [motions[i] for i in rows], horizon, dt, duration)
    assert stacked == oracle
