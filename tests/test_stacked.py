"""The stacked measurement path equals per-object scalar references, bit for bit.

Sensing, fusion, the edge worker and the world transform each process all
objects, points or detections of a tick in one stacked computation.  The
references below are the per-object forms they replaced, kept here as the
specification: every property compares floats with ``==`` (or
``np.array_equal``), never with a tolerance, because the run outputs are
required to stay byte-identical.  The sensing, worker and link references
draw one ``uniform()``, ``uniform(a, b)`` or ``normal(0.0, sigma)`` call
per value: a tick's detect draws first, one per candidate, then the noise
of each detected object in turn.  The program's one ``random(n)`` and one
``standard_normal((m, k))`` per tick must give the same values, and its
stacked ``np.sin`` and ``np.cos`` those of ``math`` (``test_draws.py``
pins why).
"""

import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fusionsim.bus import LinkParams, NetworkModel, deliver
from fusionsim.fusion import (
    PAIR_COST_GATE,
    RADAR_ONLY_COV_SCALE,
    Association,
    assign,
    frustum_associate,
    radar_measurement_cov,
    synthesize,
)
from fusionsim.geometry import (
    OPTICAL_FROM_BODY,
    CameraIntrinsics,
    Pose,
    inverse,
    symmetrize,
    transform_point,
)
from fusionsim.offload import STATUS_FAILED, STATUS_OK, TaskRequest, WorkerConfig, emulate_worker
from fusionsim.sensing import (
    CLUTTER_BOX_MAX,
    CLUTTER_BOX_MIN,
    CLUTTER_SCORE,
    CLUTTER_SNR_DB,
    OCCLUSION_COVER,
    TRUE_SCORE,
    TRUE_SNR_DB,
    SensorNoiseConfig,
    Truth,
    camera_candidates,
    camera_observe,
    radar_observe,
    visible_object_ids,
)
from fusionsim.tracker import _FEW_PAIRS, GATE_QUANTILES, position_d2

K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=960.0, cy=540.0, width=1920, height=1080)

# One ground-truth object, as the per-object references read it.
Obj = namedtuple("Obj", "id position velocity extent")

seeds = st.integers(0, 2**32 - 1)
# a seed and an object count, as the sensing, worker and link properties draw them
scenes = {"seed": seeds, "n": st.integers(0, 40)}
# the examples each of those properties runs under the ``slow`` mark
SLOW_EXAMPLES = 1000


# -- scalar references ----------------------------------------------------------


def ref_transform_point(pose, p):
    return pose.rotation @ np.asarray(p, dtype=float) + pose.translation


def ref_radar_cov(position, cfg):
    r = float(np.linalg.norm(position))
    rx, ry, rz = (position / r).tolist()
    norm = float(np.linalg.norm(np.array([-ry, rx, 0.0])))
    if norm < 1e-9:
        tx, ty, tz = 1.0, 0.0, 0.0
    else:
        tx, ty, tz = -ry / norm, rx / norm, 0.0
    basis = np.array([[rx, tx, ry * tz - rz * ty],
                      [ry, ty, rz * tx - rx * tz],
                      [rz, tz, rx * ty - ry * tx]])
    sig_t = r * cfg.azimuth_sigma
    var = np.array([cfg.range_sigma**2, sig_t**2, sig_t**2])
    return symmetrize((basis * var) @ basis.T)


def ref_from_polar(r, az, el):
    return [r * math.cos(el) * math.cos(az), r * math.cos(el) * math.sin(az), r * math.sin(el)]


def ref_noisy_polar(p, r_true, cfg, rng):
    """Range, azimuth and elevation noise, one scalar normal each, in
    that order, when its sigma is positive; elevation reuses the azimuth
    sigma."""
    az = math.atan2(p[1], p[0])
    el = math.atan2(p[2], math.hypot(p[0], p[1]))
    r = r_true + rng.normal(0.0, cfg.range_sigma) if cfg.range_sigma > 0 else r_true
    if cfg.azimuth_sigma > 0:
        az += rng.normal(0.0, cfg.azimuth_sigma)
        el += rng.normal(0.0, cfg.azimuth_sigma)
    return ref_from_polar(max(r, 1e-6), az, el)


def ref_clutter_count(cfg, rng):
    return int(rng.poisson(cfg.clutter_rate)) if cfg.clutter_rate > 0 else 0


def ref_radar_observe(sensor_pose, objects, cfg, rng, sensor_velocity):
    """Radar rows: the true returns, then the clutter."""
    body_from_world = inverse(sensor_pose)
    sensor_vel = np.asarray(sensor_velocity, dtype=float)
    candidates = []
    for obj in objects:
        p = ref_transform_point(body_from_world, obj.position)
        rng_true = float(np.linalg.norm(p))
        if rng_true <= 1e-9 or rng_true > cfg.max_range:
            continue
        if abs(math.atan2(p[1], p[0])) > cfg.fov_azimuth / 2.0:
            continue
        candidates.append((obj, p, rng_true))
    out = []
    for obj, p, rng_true in [c for c in candidates if rng.uniform() < cfg.p_detect]:
        pos = ref_noisy_polar(p, rng_true, cfg, rng)
        v_rel_body = body_from_world.rotation @ (obj.velocity - sensor_vel)
        radial = float(np.dot(p / rng_true, v_rel_body))
        if cfg.speed_sigma > 0:
            radial += rng.normal(0.0, cfg.speed_sigma)
        out.append([*pos, radial, TRUE_SNR_DB])
    for _ in range(ref_clutter_count(cfg, rng)):
        r = max(rng.uniform(0.0, cfg.max_range), 1e-3)
        az = rng.uniform(-cfg.fov_azimuth / 2.0, cfg.fov_azimuth / 2.0)
        out.append([*ref_from_polar(r, az, 0.0), 0.0, CLUTTER_SNR_DB])
    return out


def ref_emulate_worker(truth, sensor_pose, prof, rng):
    """Detections of an ok task whose latency and failure draws are done."""
    body_from_parent = inverse(sensor_pose)
    candidates = []
    for obj in truth:
        p = ref_transform_point(body_from_parent, obj.position)
        r_true = float(np.linalg.norm(p))
        if r_true <= 1e-9 or r_true > prof.max_range:
            continue
        candidates.append((p, r_true))
    out = []
    for p, r_true in [c for c in candidates if rng.uniform() < prof.p_detect]:
        pos_body = np.array(ref_noisy_polar(p, r_true, prof, rng))
        r = sensor_pose.rotation
        cov = symmetrize(r @ ref_radar_cov(pos_body, prof) @ r.T)
        out.append((ref_transform_point(sensor_pose, pos_body), cov))
    return out


def ref_camera_observe(candidates, cfg, rng):
    """Camera rows from ``ref_camera_candidates``: the detected true
    boxes, then the clutter."""
    unoccluded = [bbox for _, bbox, depth in candidates
                  if not ref_is_occluded(bbox, depth, candidates)]
    out = []
    for bbox in [b for b in unoccluded if rng.uniform() < cfg.p_detect]:
        noisy = np.array(bbox) + rng.normal(0.0, cfg.pixel_sigma, size=4) \
            if cfg.pixel_sigma > 0 else np.array(bbox)
        umin = min(max(noisy[0], 0.0), float(K.width))
        vmin = min(max(noisy[1], 0.0), float(K.height))
        umax = min(max(noisy[2], 0.0), float(K.width))
        vmax = min(max(noisy[3], 0.0), float(K.height))
        if umin < umax and vmin < vmax:
            out.append([umin, vmin, umax, vmax, TRUE_SCORE])
    for _ in range(ref_clutter_count(cfg, rng)):
        w = rng.uniform(CLUTTER_BOX_MIN, CLUTTER_BOX_MAX)
        h = rng.uniform(CLUTTER_BOX_MIN, CLUTTER_BOX_MAX)
        cu = rng.uniform(0.0, float(K.width))
        cv = rng.uniform(0.0, float(K.height))
        umin, umax = max(cu - w / 2, 0.0), min(cu + w / 2, float(K.width))
        vmin, vmax = max(cv - h / 2, 0.0), min(cv + h / 2, float(K.height))
        if umin < umax and vmin < vmax:
            out.append([umin, vmin, umax, vmax, CLUTTER_SCORE])
    return out


def ref_deliver(link, send_time, rng):
    if rng.uniform() < link.drop_prob:
        return None
    delay = link.base_latency
    if link.jitter > 0.0:
        delay += rng.uniform(-link.jitter, link.jitter)
    return send_time + delay


def ref_camera_candidates(sensor_pose, objects):
    opt_from_world_r = (sensor_pose.rotation @ OPTICAL_FROM_BODY.T).T
    cam_origin = sensor_pose.translation
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
                     dtype=float)
    candidates = []
    for idx, obj in enumerate(objects):
        center_opt = opt_from_world_r @ (obj.position - cam_origin)
        z = center_opt[2]
        if z <= 1e-6:
            continue
        cu = K.fx * center_opt[0] / z + K.cx
        cv = K.fy * center_opt[1] / z + K.cy
        if not (0.0 <= cu < K.width and 0.0 <= cv < K.height):
            continue
        corners = obj.position + signs * (obj.extent / 2.0)
        corners_opt = (corners - cam_origin) @ opt_from_world_r.T
        u = K.fx * corners_opt[:, 0] / z + K.cx
        v = K.fy * corners_opt[:, 1] / z + K.cy
        umin, vmin = max(float(u.min()), 0.0), max(float(v.min()), 0.0)
        umax, vmax = min(float(u.max()), float(K.width)), min(float(v.max()), float(K.height))
        if umin < umax and vmin < vmax:
            candidates.append((idx, (umin, vmin, umax, vmax), z))
    return candidates


def ref_cover_fraction(inner, outer):
    iu = max(0.0, min(inner[2], outer[2]) - max(inner[0], outer[0]))
    iv = max(0.0, min(inner[3], outer[3]) - max(inner[1], outer[1]))
    area = (inner[2] - inner[0]) * (inner[3] - inner[1])
    return (iu * iv) / area if area > 0 else 0.0


def ref_is_occluded(bbox, depth, candidates):
    return any(other_depth < depth and ref_cover_fraction(bbox, other) >= OCCLUSION_COVER
               for _, other, other_depth in candidates)


def ref_frustum_cost(bboxes, points, cam_from_radar):
    """Per box and point, from camera and radar rows given one at a time."""
    cost = np.full((len(bboxes), len(points)), np.inf)
    pixels = []
    for point in points:
        x, y, z = ref_transform_point(cam_from_radar, point[:3])
        pixels.append((K.fx * x / z + K.cx, K.fy * y / z + K.cy) if z > 1e-6 else None)
    for i, det in enumerate(bboxes):
        umin, vmin, umax, vmax = det[:4]
        cu, cv = (umin + umax) / 2.0, (vmin + vmax) / 2.0
        diag = math.sqrt((umax - umin) * (umax - umin) + (vmax - vmin) * (vmax - vmin))
        for j, pix in enumerate(pixels):
            if pix is not None and umin < pix[0] < umax and vmin < pix[1] < vmax:
                du, dv = pix[0] - cu, pix[1] - cv
                cost[i, j] = math.sqrt(du * du + dv * dv) / diag
    return cost


# -- scenes -----------------------------------------------------------------------


def random_pose(rng, spread=20.0):
    return Pose.from_rpy_deg(rng.normal(0.0, spread, 3), *rng.uniform(-180.0, 180.0, 3))


def crowd(rng, n, pose, ahead=60.0):
    """``n`` objects around ``pose``: most in front, clustered on a few
    bearings so boxes overlap, some behind it and some wide enough that
    their boxes clip at the image edge."""
    objects = []
    bearings = rng.uniform(-0.9, 0.9, size=4)
    for k in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:    # behind or beside the sensor
            body = [rng.uniform(-30.0, 2.0), rng.uniform(-30.0, 30.0), rng.uniform(-3.0, 3.0)]
        elif kind == 1:  # at the image edge
            x = rng.uniform(3.0, ahead)
            body = [x, x * rng.choice([-1.0, 1.0]) * rng.uniform(0.85, 1.05),
                    rng.uniform(-2.0, 2.0)]
        else:            # on a shared bearing, at several depths
            x = rng.uniform(2.0, ahead)
            body = [x, x * bearings[k % 4] + rng.normal(0.0, 0.5), rng.normal(0.0, 0.5)]
        objects.append(Obj(k + 1, ref_transform_point(pose, body), rng.normal(0.0, 3.0, 3),
                           rng.uniform(0.3, 9.0, 3)))
    return objects


def batch(objects):
    """The ground-truth batch of ``objects``, in order."""
    return Truth(tuple(o.id for o in objects),
                 *(np.array([getattr(o, name) for o in objects]).reshape(-1, 3)
                   for name in ("position", "velocity", "extent")))


def noise(rng):
    return SensorNoiseConfig(pixel_sigma=float(rng.choice([0.0, 2.0])),
                             range_sigma=float(rng.choice([0.0, 0.15])),
                             azimuth_sigma=float(rng.choice([0.0, 0.02])),
                             speed_sigma=float(rng.choice([0.0, 0.1])),
                             p_detect=float(rng.choice([1.0, 0.8])),
                             clutter_rate=float(rng.choice([0.0, 1.5])),
                             fov_azimuth=float(rng.uniform(0.5, 2 * math.pi)),
                             max_range=float(rng.uniform(20.0, 100.0)))


# -- properties -------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 30))
def test_transform_point_rows_equal_scalar_reference(seed, n):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    points = rng.normal(0.0, 50.0, (n, 3))
    assert np.array_equal(transform_point(pose, points),
                          np.array([ref_transform_point(pose, p) for p in points]).reshape(-1, 3))
    for p in points[:1]:
        assert np.array_equal(transform_point(pose, p), ref_transform_point(pose, p))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 30), vertical=st.booleans())
def test_radar_cov_equals_scalar_reference(seed, n, vertical):
    rng = np.random.default_rng(seed)
    positions = rng.normal(0.0, 40.0, (n, 3)) * rng.choice([1e-6, 1.0, 1e3], (n, 1))
    if vertical and n:
        positions[0, :2] = 0.0  # straight up or down: the horizontal-tangent fallback
    cfg = SensorNoiseConfig(range_sigma=float(rng.uniform(0.0, 1.0)),
                            azimuth_sigma=float(rng.uniform(0.0, 0.1)))
    reference = np.array([ref_radar_cov(p, cfg) for p in positions]).reshape(-1, 3, 3)
    assert np.array_equal(radar_measurement_cov(positions, cfg), reference)


def test_radar_cov_squares_variances_as_python_floats():
    # a Python float's ** is libm pow, which rounds about one square in a
    # thousand differently from numpy's array **; enough points catch it
    rng = np.random.default_rng(7)
    positions = rng.uniform(-100.0, 100.0, (3000, 3))
    cfg = SensorNoiseConfig(range_sigma=0.15, azimuth_sigma=0.02)
    reference = np.array([ref_radar_cov(p, cfg) for p in positions])
    assert np.array_equal(radar_measurement_cov(positions, cfg), reference)


@settings(max_examples=60, deadline=None)
@given(**scenes)
def test_radar_observe_equals_scalar_reference(seed, n):
    """Transforms, ranges and radial speeds, and the draw order with them."""
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    objects = crowd(rng, n, pose)
    cfg = noise(rng)
    sensor_velocity = rng.normal(0.0, 2.0, 3)
    points = radar_observe(pose, batch(objects), cfg, np.random.default_rng(seed),
                           sensor_velocity=sensor_velocity)
    reference = ref_radar_observe(pose, objects, cfg, np.random.default_rng(seed),
                                  sensor_velocity)
    assert points.shape == (len(reference), 5)
    assert points.tolist() == reference


@settings(max_examples=40, deadline=None)
@given(**scenes)
@example(seed=0, n=0)
def test_emulate_worker_equals_scalar_reference(seed, n):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    truth = crowd(rng, n, pose, ahead=150.0)
    lat_min = float(rng.uniform(0.0, 0.2))
    cfg = WorkerConfig(lat_min=lat_min, lat_max=lat_min + float(rng.uniform(0.0, 0.3)),
                       p_fail=float(rng.choice([0.0, 0.3])), profile=noise(rng))
    latency, result = emulate_worker(TaskRequest(1, 2.0, (), pose), batch(truth).positions, cfg,
                                     np.random.default_rng(seed))
    draws = np.random.default_rng(seed)
    assert latency == draws.uniform(cfg.lat_min, cfg.lat_max)
    failed = draws.uniform() < cfg.p_fail
    assert result.status == (STATUS_FAILED if failed else STATUS_OK)
    reference = [] if failed else ref_emulate_worker(truth, pose, cfg.profile, draws)
    dets = result.detections
    assert dets.positions.shape == (len(reference), 3)
    assert dets.covs.shape == (len(reference), 3, 3)
    for pos, cov, (ref_pos, ref_cov) in zip(dets.positions, dets.covs, reference):
        assert np.array_equal(pos, ref_pos)
        assert np.array_equal(cov, ref_cov)


def sensed(pose, truth, cfg, rng):
    """The arrays of one camera tick, one radar tick and one edge result."""
    result = emulate_worker(TaskRequest(1, 2.0, (), pose), truth.positions,
                            WorkerConfig(profile=cfg), rng)[1]
    return [camera_observe(K, pose, truth, cfg, rng), radar_observe(pose, truth, cfg, rng),
            result.detections.positions, result.detections.covs]


@settings(max_examples=30, deadline=None)
@given(**scenes)
def test_sensing_arrays_own_their_memory(seed, n):
    """A run keeps each tick's rows as its detection record (``RunReport``),
    so no returned array may be a view of the truth batch, nor share a
    buffer with the arrays the previous call returned."""
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    truth = batch(crowd(rng, n, pose, ahead=150.0))
    cfg = noise(rng)
    draws = np.random.default_rng(seed)
    first = sensed(pose, truth, cfg, draws)
    second = sensed(pose, truth, cfg, draws)
    for array in first:
        assert not any(np.shares_memory(array, held) for held in truth[1:])
    for array in second:
        assert not any(np.shares_memory(array, held) for held in (*truth[1:], *first))


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(0, 12), m=st.integers(0, 12))
@example(seed=0, n=0, m=0)
@example(seed=0, n=3, m=0)
def test_synthesize_and_world_transform_equal_scalar_reference(seed, n, m):
    rng = np.random.default_rng(seed)
    cfg = SensorNoiseConfig(range_sigma=float(rng.uniform(0.0, 0.5)),
                            azimuth_sigma=float(rng.uniform(0.0, 0.05)))
    points = np.array([[*rng.normal(0.0, 30.0, 3), rng.normal(), 20.0]
                       for _ in range(m)]).reshape(-1, 5)
    pairs = list(zip(rng.permutation(n).tolist(), rng.permutation(m).tolist()))
    pairs = pairs[:int(rng.integers(0, len(pairs) + 1))]
    used = {j for _, j in pairs}
    assoc = Association(pairs, [j for j in range(m) if j not in used])
    agent_from_radar, world_from_agent = random_pose(rng, 2.0), random_pose(rng)

    dets = synthesize(assoc, points, agent_from_radar, cfg)
    picks = [(j, 1.0) for _, j in pairs]
    picks += [(j, RADAR_ONLY_COV_SCALE) for j in assoc.unmatched_radar]
    assert dets.positions.shape == (len(picks), 3)
    assert dets.covs.shape == (len(picks), 3, 3)
    r = agent_from_radar.rotation
    for pos, cov, (j, scale) in zip(dets.positions, dets.covs, picks):
        position = points[j, :3].copy()
        assert np.array_equal(pos, ref_transform_point(agent_from_radar, position))
        assert np.array_equal(cov, symmetrize(scale * (r @ ref_radar_cov(position, cfg) @ r.T)))

    world = dets.to_parent(world_from_agent)
    assert world.positions.shape == dets.positions.shape
    assert world.covs.shape == dets.covs.shape
    r = world_from_agent.rotation
    for pos, cov, w_pos, w_cov in zip(dets.positions, dets.covs, world.positions, world.covs):
        assert np.array_equal(w_pos, ref_transform_point(world_from_agent, pos))
        assert np.array_equal(w_cov, symmetrize(r @ cov @ r.T))


@settings(max_examples=80, deadline=None)
@given(**scenes)
def test_camera_candidates_and_occlusion_equal_scalar_reference(seed, n):
    rng = np.random.default_rng(seed)
    pose = random_pose(rng)
    objects = crowd(rng, n, pose)
    reference = ref_camera_candidates(pose, objects)
    idx, boxes, depths = camera_candidates(K, pose, batch(objects))
    assert idx.tolist() == [i for i, _, _ in reference]
    assert [tuple(b) for b in boxes.tolist()] == [b for _, b, _ in reference]
    assert depths.tolist() == [float(z) for _, _, z in reference]

    visible = [objects[i].id for i, b, z in reference if not ref_is_occluded(b, z, reference)]
    assert visible_object_ids(K, pose, batch(objects)) == visible

    cfg = noise(rng)
    dets = camera_observe(K, pose, batch(objects), cfg, np.random.default_rng(seed))
    expected = ref_camera_observe(reference, cfg, np.random.default_rng(seed))
    assert dets.shape == (len(expected), 5)
    assert dets.tolist() == expected


@settings(max_examples=60, deadline=None)
@given(**scenes)
def test_deliver_equals_scalar_reference(seed, n):
    rng = np.random.default_rng(seed)
    base = float(rng.uniform(0.001, 0.2))
    link = LinkParams(base_latency=base, jitter=base * float(rng.uniform(0.01, 1.0)),
                      drop_prob=float(rng.uniform(0.05, 0.5)))
    net = NetworkModel(links={"a->b": link})
    times = rng.uniform(0.0, 30.0, n).tolist()
    draws, ref_draws = np.random.default_rng(seed), np.random.default_rng(seed)
    assert [deliver(net, "a->b", t, draws) for t in times] == \
        [ref_deliver(link, t, ref_draws) for t in times]


@pytest.mark.slow
@pytest.mark.parametrize("prop", [test_camera_candidates_and_occlusion_equal_scalar_reference,
                                  test_radar_observe_equals_scalar_reference,
                                  test_emulate_worker_equals_scalar_reference,
                                  test_deliver_equals_scalar_reference],
                         ids=lambda prop: prop.__name__)
def test_draw_references_at_scale(prop):
    settings(max_examples=SLOW_EXAMPLES, deadline=None)(
        given(**scenes)(prop.hypothesis.inner_test))()


def test_crowded_scenes_exercise_every_branch():
    """The scenes above do reach occlusion, clipping and the rear."""
    hidden = clipped = behind = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        objects = crowd(rng, 40, pose)
        reference = ref_camera_candidates(pose, objects)
        hidden += sum(ref_is_occluded(b, z, reference) for _, b, z in reference)
        clipped += sum(b[0] == 0.0 or b[2] == K.width for _, b, _ in reference)
        behind += sum(1 for o in objects
                      if ref_transform_point(inverse(pose), o.position)[0] < 0.0)
    assert hidden > 20 and clipped > 20 and behind > 20


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(0, 10), m=st.integers(0, 10))
def test_frustum_associate_equals_scalar_reference(seed, n, m):
    rng = np.random.default_rng(seed)
    cam_from_radar = random_pose(rng, 0.5)
    bboxes = []
    for _ in range(n):
        u, v = rng.uniform(0, 1800), rng.uniform(0, 1000)
        bboxes.append((u, v, u + rng.uniform(20, 400), v + rng.uniform(20, 300), 1.0))
    points = [np.array([*rng.normal(0.0, 20.0, 3), 0.0, 20.0]) for _ in range(m)]
    cost = ref_frustum_cost(bboxes, points, cam_from_radar)
    assoc = frustum_associate(np.array(bboxes).reshape(-1, 5), np.array(points).reshape(-1, 5),
                              K, cam_from_radar)
    assert assoc.pairs == [(i, j) for i, j in assign(cost) if cost[i, j] <= PAIR_COST_GATE]


@settings(max_examples=100, deadline=None)
@given(seed=seeds, n=st.integers(0, 14), m=st.integers(0, 12),
       gate_prob=st.sampled_from([0.95, 0.99]),
       margin=st.sampled_from([1e-9, 1e-6, 1e-3]))
@example(seed=1, n=12, m=9, gate_prob=0.99, margin=1e-9)
def test_pregated_d2_equals_unpruned_reference(seed, n, m, gate_prob, margin):
    """Pairs sit just either side of Δ_k² = 2 γ S_kk on one axis k, inside
    the bound on the others: in a call of more than ``_FEW_PAIRS`` pairs
    exactly those beyond it on some axis are inf, every other pair equals
    the per-pair solve bit for bit, and gating at γ cannot tell the two
    apart."""
    rng = np.random.default_rng(seed)
    gamma = GATE_QUANTILES[gate_prob]
    covs_a = [a @ a.T + 0.01 * np.eye(6) for a in rng.normal(size=(n, 6, 6))]
    covs_b = [b @ b.T + 0.01 * np.eye(3) for b in rng.normal(size=(m, 3, 3))]
    means_b = rng.normal(0.0, 5.0, (m, 3))
    # each track sits on the bound of one detection on one axis, off it
    # for the rest
    means_a = []
    for i, cov in enumerate(covs_a):
        mean = rng.normal(0.0, 5.0, 6)
        if m:
            j = i % m
            bound = 2.0 * gamma * (cov[:3, :3] + covs_b[j]).diagonal()
            side = rng.uniform(-0.9, 0.9, 3)
            axis = rng.integers(3)
            side[axis] = rng.choice([-1.0, 1.0]) * (1.0 + margin * rng.choice([-1.0, 1.0]))
            mean[:3] = means_b[j] + np.sign(side) * np.sqrt(np.abs(side) * bound)
        means_a.append(mean)

    d2, singular = position_d2(means_a, covs_a, means_b, covs_b, gamma)
    assert d2.shape == singular.shape == (n, m)
    assert not singular.any()
    for i in range(n):
        for j in range(m):
            delta = means_a[i][:3] - means_b[j]
            s = covs_a[i][:3, :3] + covs_b[j]
            reference = float(delta @ np.linalg.solve(s, delta))
            if n * m > _FEW_PAIRS and any(delta * delta > 2.0 * gamma * s.diagonal()):
                assert d2[i, j] == np.inf
                assert reference > gamma
            else:
                assert d2[i, j] == reference


def test_singular_pairs_are_flagged_and_never_solved():
    zero = np.zeros((6, 6))
    d2, singular = position_d2([np.zeros(6), np.ones(6)], [zero, np.eye(6)],
                               [np.zeros(3)], [np.zeros((3, 3))], GATE_QUANTILES[0.99])
    assert singular.tolist() == [[True], [False]]
    assert d2[0, 0] == np.inf
    assert d2[1, 0] == pytest.approx(3.0)
