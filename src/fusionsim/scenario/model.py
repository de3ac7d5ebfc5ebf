"""Declarative scenario format: agents, sensors, objects, network, pipeline.

Scenario files are strict JSON (version 1): unknown fields are rejected so
experiment-config typos fail loudly instead of silently using defaults.
The loader resolves presets to explicit configs; the normalized result of
``Scenario.to_dict()`` is embedded in every report for provenance.

Numbers are typed as on the bus and never cast (``bus.payload_field``,
``payload_array``: 2.0 is no int, NaN no number, a vector is 3 finite
numbers); a malformed document raises only ScenarioError, naming its path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ..bus import BusError, LinkParams, NetworkModel, payload_array, payload_field
from ..geometry import CameraIntrinsics, GeometryError, Pose, rotation_from_rpy_deg
from ..offload import (
    DEFAULT_HEARTBEAT,
    DEFAULT_QUEUE_BOUND,
    DEFAULT_TIMEOUT,
    OffloadError,
    WorkerConfig,
)
from ..sensing import (
    CAMERA_PRESETS,
    RADAR_PRESETS,
    SensingError,
    SensorNoiseConfig,
    Truth,
)
from ..tracker import TrackerConfig, TrackerError

MODES = ("cr", "cr-covi", "cr-dist")
AGENT_KINDS = ("ego", "vehicle", "infrastructure", "edge-server")
SENSOR_TYPES = ("camera", "radar")
# The worker profile is a SensorNoiseConfig; these are the fields it accepts.
WORKER_PROFILE_KEYS = ("range_sigma", "azimuth_sigma", "p_detect", "max_range")
# The kind a field of each declared type is read as.  The config modules
# postpone annotations, so a dataclass field's type is the annotation's text.
_KINDS = {"int": int, "float": float, "str": str}
# What building a config can raise.
_CONFIG_ERRORS = (BusError, GeometryError, OffloadError, SensingError, TrackerError)
# _get's kind of a 3-vector field (its shape), and its default of a required field
_VEC3 = (3,)
_REQUIRED = object()
# The most items one config may ask a run for over its duration (sensor
# ticks x (1 + clutter rate), workers x heartbeats, track window x all
# ticks, metric samples x (1 + waypoints)); urban asks under 10^4 each.
MAX_WORK = 10**7


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    pass


class ValidationError(ScenarioError):
    pass


class OutOfRange(ScenarioError):
    pass


def _check_keys(d: dict, allowed: tuple, path: str) -> None:
    if type(d) is not dict:
        raise ValidationError(f"{path} must be an object")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown fields {unknown} at {path}")


def _get(d: dict, key: str, kind, path: str, default=_REQUIRED):
    """Field ``key`` of the object ``d`` at ``path``, of ``kind``: for
    ``float`` a finite number as a float, for ``_VEC3`` exactly 3 finite
    numbers as a float array, and for any other kind a value of exactly
    that type.  A missing key gives ``default``; a missing required key or
    a value of another kind raises ValidationError."""
    if key not in d:
        if default is _REQUIRED:
            raise ValidationError(f"{path}.{key} is required")
        return default
    try:
        if kind is not _VEC3:
            return payload_field(d, key, kind)
        vec = payload_array(d[key], _VEC3)
    except ValueError as e:
        raise ValidationError(f"{path}.{key}: {e}") from None
    # the document's three numbers, not the array: 0.4 µs against 1.9 µs
    # for np.isfinite(vec).all() (numpy 2.4, x86-64); a crowd load checks hundreds
    if not all(map(math.isfinite, d[key])):
        raise ValidationError(f"{path}.{key} must be finite")
    return vec


def _parse_config(base, d: dict, path: str, keys: tuple[str, ...] | None = None):
    """``base`` with the fields in ``d`` replaced, each read as its declared
    type's kind, and a field that is a config itself read as one.

    Keys must name fields of ``base`` (only ``keys``, when given; the
    worker's ``profile`` takes only WORKER_PROFILE_KEYS).  Constructor
    errors are raised as ValidationError.
    """
    types = {f.name: f.type for f in fields(base)}
    _check_keys(d, keys or tuple(types), path)
    values = {k: _get(d, k, _KINDS[types[k]], path) if types[k] in _KINDS else
              _parse_config(getattr(base, k), d[k], f"{path}.{k}",
                            WORKER_PROFILE_KEYS if k == "profile" else None)
              for k in d}
    try:
        return replace(base, **values)
    except _CONFIG_ERRORS as e:
        raise ValidationError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# motion

@dataclass(frozen=True)
class Motion:
    """Static pose, constant velocity, or piecewise-linear waypoints."""

    kind: str                                   # static | cv | waypoints
    p0: np.ndarray | None = None
    v: np.ndarray | None = None
    rpy_deg: tuple[float, float, float] | None = None
    points: tuple[tuple[float, np.ndarray], ...] | None = None

    def position(self, t: float) -> np.ndarray:
        if self.kind == "static":
            return self.p0.copy()
        if self.kind == "cv":
            return self.p0 + self.v * t
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1].copy()
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t <= t1:
                a = (t - t0) / (t1 - t0)
                return p0 + a * (p1 - p0)
        return pts[-1][1].copy()

    def velocity(self, t: float) -> np.ndarray:
        if self.kind == "static":
            return np.zeros(3)
        if self.kind == "cv":
            return self.v.copy()
        pts = self.points
        for (t0, p0), (t1, p1) in zip(pts, pts[1:]):
            if t <= t1:
                break  # past the last waypoint, the loop ends on the last segment
        return (p1 - p0) / (t1 - t0)

    def pose(self, t: float) -> Pose:
        """World-from-body pose; moving bodies derive yaw from velocity."""
        if self.rpy_deg is not None:
            rot = rotation_from_rpy_deg(*self.rpy_deg)
        else:
            v = self.velocity(t)
            if float(np.hypot(v[0], v[1])) > 1e-9:
                rot = rotation_from_rpy_deg(0.0, 0.0, math.degrees(math.atan2(v[1], v[0])))
            else:
                rot = np.eye(3)
        # a yaw-pitch-roll rotation is proper and orthonormal by construction
        return Pose._trusted(rot, self.position(t))

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "static":
            out["position"] = self.p0.tolist()
            out["rpy_deg"] = list(self.rpy_deg)
        elif self.kind == "cv":
            out["p0"] = self.p0.tolist()
            out["v"] = self.v.tolist()
            if self.rpy_deg is not None:
                out["rpy_deg"] = list(self.rpy_deg)
        else:
            out["points"] = [[t, p.tolist()] for t, p in self.points]
        return out


def _parse_motion(d: dict, path: str, allow_static: bool, duration: float) -> Motion:
    kind = _get(d, "kind", str, path)
    # roll, pitch, yaw in degrees: checked here, so no pose needs a check
    rpy = _get(d, "rpy_deg", _VEC3, path, None)
    rpy = None if rpy is None else tuple(rpy.tolist())
    if kind == "static":
        if not allow_static:
            raise ValidationError(f"{path}: objects cannot be static-pose; use cv with v=0")
        _check_keys(d, ("kind", "position", "rpy_deg"), path)
        return Motion("static", p0=_get(d, "position", _VEC3, path, np.zeros(3)),
                      rpy_deg=rpy or (0.0, 0.0, 0.0))
    if kind == "cv":
        _check_keys(d, ("kind", "p0", "v", "rpy_deg"), path)
        return Motion("cv", p0=_get(d, "p0", _VEC3, path, np.zeros(3)),
                      v=_get(d, "v", _VEC3, path, np.zeros(3)), rpy_deg=rpy)
    if kind == "waypoints":
        _check_keys(d, ("kind", "points"), path)
        raw = _get(d, "points", list, path, [])
        if len(raw) < 2:
            raise ValidationError(f"{path}.points needs at least 2 waypoints")
        points = []
        for i, entry in enumerate(raw):
            at = f"{path}.points[{i}]"
            if not (type(entry) is list and len(entry) == 2):
                raise ValidationError(f"{at} must be [t, [x, y, z]]")
            pair = dict(zip(("t", "position"), entry))
            points.append((_get(pair, "t", float, at), _get(pair, "position", _VEC3, at)))
        times = [t for t, _ in points]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValidationError(f"{path}: waypoint times strictly increasing")
        if times[0] > 0.0 or times[-1] < duration:
            raise ValidationError(f"{path}: waypoint times must span [0, duration]")
        return Motion("waypoints", points=tuple(points))
    raise ValidationError(f"{path}.kind must be one of static|cv|waypoints, got {kind!r}")


# ---------------------------------------------------------------------------
# sensors and agents

@dataclass(frozen=True)
class SensorSpec:
    type: str
    rate: float
    mount: Pose
    mount_raw: dict
    noise: SensorNoiseConfig
    intrinsics: CameraIntrinsics | None = None
    preset: str | None = None

    def tick_times(self, duration: float) -> list[float]:
        n = int(math.floor(duration * self.rate + 1e-9))
        return [k / self.rate for k in range(n + 1)]

    def to_dict(self) -> dict:
        out = {
            "type": self.type,
            "rate": self.rate,
            "mount": self.mount_raw,
            "noise": asdict(self.noise),
        }
        if self.preset:
            out["preset"] = self.preset
        if self.intrinsics is not None:
            out["intrinsics"] = asdict(self.intrinsics)
        return out


@dataclass(frozen=True)
class AgentSpec:
    id: str
    kind: str
    trajectory: Motion
    sensors: tuple[SensorSpec, ...] = ()
    workers: int = 0

    def to_dict(self) -> dict:
        out = {"id": self.id, "kind": self.kind,
               "trajectory": self.trajectory.to_dict(),
               "sensors": [s.to_dict() for s in self.sensors]}
        if self.kind == "edge-server":
            out["workers"] = self.workers
        return out


@dataclass(frozen=True)
class ObjectSpec:
    id: int
    extent: np.ndarray
    motion: Motion

    def to_dict(self) -> dict:
        return {"id": self.id, "extent": self.extent.tolist(),
                "motion": self.motion.to_dict()}


# ---------------------------------------------------------------------------
# pipeline / metrics

@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "cr"
    broadcast_hz: float = 5.0
    staleness: float = 1.0
    timeout: float = DEFAULT_TIMEOUT
    queue_bound: int = DEFAULT_QUEUE_BOUND
    heartbeat_interval: float = DEFAULT_HEARTBEAT
    worker: WorkerConfig = field(default_factory=WorkerConfig)

    def to_dict(self) -> dict:
        """The mode and the fields that mode reads."""
        out: dict = {"mode": self.mode}
        if self.mode == "cr-covi":
            out["broadcast_hz"] = self.broadcast_hz
            out["staleness"] = self.staleness
        if self.mode == "cr-dist":
            worker = asdict(self.worker)
            worker["profile"] = {k: worker["profile"][k] for k in WORKER_PROFILE_KEYS}
            out.update({
                "timeout": self.timeout,
                "queue_bound": self.queue_bound,
                "heartbeat_interval": self.heartbeat_interval,
                "worker": worker,
            })
        return out


@dataclass(frozen=True)
class MetricsConfig:
    rate: float = 10.0
    radius: float = 2.0
    ospa_cutoff: float = 5.0
    prediction_horizon: float = 2.0
    prediction_dt: float = 0.5


@dataclass(frozen=True)
class Scenario:
    duration: float
    seed: int
    pipeline: PipelineConfig
    tracker: TrackerConfig
    metrics: MetricsConfig
    network: NetworkModel
    agents: tuple[AgentSpec, ...]
    objects: tuple[ObjectSpec, ...]

    @property
    def ego(self) -> AgentSpec:
        return next(a for a in self.agents if a.kind == "ego")

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "duration": self.duration,
            "seed": self.seed,
            "pipeline": self.pipeline.to_dict(),
            "tracker": asdict(self.tracker),
            "metrics": asdict(self.metrics),
            "network": asdict(self.network),
            "agents": [a.to_dict() for a in self.agents],
            "objects": [o.to_dict() for o in self.objects],
        }


# ---------------------------------------------------------------------------
# loading

_TOP_KEYS = ("version", "duration", "seed", "pipeline", "tracker", "metrics",
             "network", "agents", "objects")


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document.

    Numbers are typed as on the bus, never cast.  A malformed document
    raises ScenarioError: ParseError (malformed JSON, with line info) or
    ValidationError (naming the JSON path or the violated invariant).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed JSON at line {e.lineno}, column {e.colno}: {e.msg}")
    _check_keys(doc, _TOP_KEYS, "$")
    if _get(doc, "version", int, "$") != 1:
        raise ValidationError('scenario requires "version": 1')

    duration = _get(doc, "duration", float, "$", 0.0)
    if not duration > 0:
        raise ValidationError("duration > 0")
    seed = _get(doc, "seed", int, "$", 0)

    pipeline = _parse_pipeline(_get(doc, "pipeline", dict, "$", {}))
    tracker = _parse_config(TrackerConfig(), _get(doc, "tracker", dict, "$", {}), "$.tracker")
    metrics = _parse_metrics(_get(doc, "metrics", dict, "$", {}))
    network = _parse_network(_get(doc, "network", dict, "$", {}))

    agents_raw = _get(doc, "agents", list, "$", [])
    if not agents_raw:
        raise ValidationError("at least one agent of kind ego")
    agents = tuple(_parse_agent(a, f"$.agents[{i}]", duration)
                   for i, a in enumerate(agents_raw))
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ValidationError("agent ids unique")
    if sum(a.kind == "ego" for a in agents) != 1:
        raise ValidationError("at least one agent of kind ego (exactly one)")

    objects_raw = _get(doc, "objects", list, "$", [])
    objects = tuple(_parse_object(o, f"$.objects[{i}]", duration)
                    for i, o in enumerate(objects_raw))
    oids = [o.id for o in objects]
    if len(set(oids)) != len(oids):
        raise ValidationError("object ids unique")

    scenario = Scenario(duration, seed, pipeline, tracker, metrics, network,
                        agents, objects)
    _check_work(scenario)
    _validate_mode(scenario)
    return scenario


def _check_work(s: Scenario) -> None:
    """Refuse a config that asks for more than MAX_WORK items.  Heartbeats
    count in every mode, as an override may switch to ``cr-dist``."""
    d, m = s.duration, s.metrics
    asks = [(f"$.agents[{i}].sensors[{j}]", d * sensor.rate + 1, 1 + sensor.noise.clutter_rate)
            for i, a in enumerate(s.agents) for j, sensor in enumerate(a.sensors)]
    asks += [("$.tracker.confirm_n", s.tracker.confirm_n, sum(ticks for _, ticks, _ in asks)),
             ("$.metrics", d * m.rate + 1, 1 + m.prediction_horizon / m.prediction_dt)]
    asks += [(f"$.agents[{i}].workers", a.workers, d / s.pipeline.heartbeat_interval + 1)
             for i, a in enumerate(s.agents)]
    for path, *factors in asks:
        # each factor clamped just past the bound: no product overflows,
        # and a zero factor still means no work
        if math.prod(min(f, MAX_WORK + 1) for f in factors) > MAX_WORK:
            raise ValidationError(f"{path} asks for more than {MAX_WORK:.0e} items in {d} s")


def apply_overrides(scenario: Scenario, mode: str | None = None,
                    seed: int | None = None) -> Scenario:
    """CLI flags override file values; the result is re-validated."""
    if mode is None and seed is None:
        return scenario
    changes: dict = {}
    if mode is not None:
        if mode not in MODES:
            raise ValidationError(f"pipeline mode must be one of {MODES}")
        changes["pipeline"] = replace(scenario.pipeline, mode=mode)
    if seed is not None:
        changes["seed"] = int(seed)
    out = replace(scenario, **changes)
    _validate_mode(out)
    return out


def _validate_mode(s: Scenario) -> None:
    if s.pipeline.mode == "cr-covi":
        if not any(a.kind != "ego" and a.sensors for a in s.agents):
            raise ValidationError(
                "cr-covi requires at least one non-ego agent with sensors (no collaborator)")
    if s.pipeline.mode == "cr-dist":
        if not any(a.kind == "edge-server" and a.workers > 0 for a in s.agents):
            raise ValidationError("cr-dist requires an edge-server agent with workers")


def _parse_pipeline(d: dict) -> PipelineConfig:
    p = _parse_config(PipelineConfig(), d, "$.pipeline")
    if p.mode not in MODES:
        raise ValidationError(f"pipeline mode must be one of {MODES}, got {p.mode!r}")
    if min(p.broadcast_hz, p.heartbeat_interval) <= 0 or min(p.timeout, p.queue_bound) < 0:
        raise ValidationError("broadcast_hz, heartbeat_interval > 0; timeout, queue_bound >= 0")
    return p


def _parse_metrics(d: dict) -> MetricsConfig:
    m = _parse_config(MetricsConfig(), d, "$.metrics")
    if m.rate <= 0 or m.radius <= 0 or m.ospa_cutoff <= 0:
        raise ValidationError("metrics rate, radius and ospa_cutoff must be > 0")
    # a prediction has at least one waypoint
    if not 0 < m.prediction_dt <= m.prediction_horizon:
        raise ValidationError("metrics need 0 < prediction_dt <= prediction_horizon")
    return m


def _parse_network(d: dict) -> NetworkModel:
    _check_keys(d, ("default", "links"), "$.network")
    default = _parse_config(LinkParams(), _get(d, "default", dict, "$.network", {}),
                            "$.network.default")
    links = {name: _parse_config(LinkParams(), entry, f"$.network.links[{name!r}]")
             for name, entry in _get(d, "links", dict, "$.network", {}).items()}
    return NetworkModel(default=default, links=links)


def _parse_mount(d: dict, path: str) -> tuple[Pose, dict]:
    _check_keys(d, ("translation", "rpy_deg"), path)
    translation = _get(d, "translation", _VEC3, path, np.zeros(3))
    rpy = _get(d, "rpy_deg", _VEC3, path, np.zeros(3)).tolist()
    pose = Pose.from_rpy_deg(translation, *rpy)
    raw = {"translation": translation.tolist(), "rpy_deg": rpy}
    return pose, raw


def _parse_sensor(d: dict, path: str) -> SensorSpec:
    _check_keys(d, ("type", "preset", "rate", "mount", "noise", "intrinsics"), path)
    stype = _get(d, "type", str, path)
    if stype not in SENSOR_TYPES:
        raise ValidationError(f"{path}.type must be camera or radar")
    presets = CAMERA_PRESETS if stype == "camera" else RADAR_PRESETS
    preset_name = _get(d, "preset", str, path, "blackfly-s" if stype == "camera" else "iwr1443")
    if preset_name not in presets:
        raise ValidationError(f"{path}: unknown preset {preset_name!r}")
    preset = presets[preset_name]
    rate = _get(d, "rate", float, path, preset["rate"])
    if rate <= 0:
        raise ValidationError(f"{path}.rate must be > 0")
    mount, mount_raw = _parse_mount(_get(d, "mount", dict, path, {}), f"{path}.mount")

    noise = _parse_config(preset["noise"], _get(d, "noise", dict, path, {}), f"{path}.noise")
    intrinsics = None
    if stype == "camera":
        intrinsics = _parse_config(preset["intrinsics"], _get(d, "intrinsics", dict, path, {}),
                                   f"{path}.intrinsics")
    elif "intrinsics" in d:
        raise ValidationError(f"{path}: radar sensors take no intrinsics")

    return SensorSpec(stype, rate, mount, mount_raw, noise, intrinsics, preset_name)


def _parse_agent(d: dict, path: str, duration: float) -> AgentSpec:
    _check_keys(d, ("id", "kind", "trajectory", "sensors", "workers"), path)
    agent_id = _get(d, "id", str, path)
    kind = _get(d, "kind", str, path, "vehicle")
    if kind not in AGENT_KINDS:
        raise ValidationError(f"{path}.kind must be one of {AGENT_KINDS}")
    trajectory = _parse_motion(_get(d, "trajectory", dict, path, {"kind": "static"}),
                               f"{path}.trajectory", allow_static=True, duration=duration)
    sensors = tuple(_parse_sensor(s, f"{path}.sensors[{i}]")
                    for i, s in enumerate(_get(d, "sensors", list, path, [])))
    workers = _get(d, "workers", int, path, 1 if kind == "edge-server" else 0)

    if kind == "edge-server" and sensors:
        raise ValidationError("edge-server has no sensors")
    if kind == "infrastructure" and trajectory.kind != "static":
        raise ValidationError("infrastructure is static")
    if kind != "edge-server" and "workers" in d or workers < 0:
        raise ValidationError(f"{path}: only edge-server agents take workers, at least 0")
    if sum(s.type == "camera" for s in sensors) > 1 or \
            sum(s.type == "radar" for s in sensors) > 1:
        raise ValidationError(f"{path}: at most one camera and one radar per agent")
    return AgentSpec(agent_id, kind, trajectory, sensors, workers)


def _parse_object(d: dict, path: str, duration: float) -> ObjectSpec:
    _check_keys(d, ("id", "extent", "motion"), path)
    obj_id = _get(d, "id", int, path)
    extent = _get(d, "extent", _VEC3, path, np.array([4.5, 1.9, 1.6]))
    if not (extent > 0).all():
        raise ValidationError(f"{path}.extent components must be > 0")
    motion = _parse_motion(_get(d, "motion", dict, path, {"kind": "cv"}), f"{path}.motion",
                           allow_static=False, duration=duration)
    return ObjectSpec(obj_id, extent, motion)


_ZERO = np.zeros(3)


class World:
    """A scenario's objects as arrays, built once per run: their ids, (N, 3)
    extents, and their cv motions stacked as (N, 3) ``p0`` and ``v``, zero
    in the rows of other motions.  Positions at any times are then one
    ``p0 + v * t`` for all objects, elementwise the arithmetic
    ``Motion.position`` does per object, so bit for bit the same.  Static
    and waypoint motions keep their per-object rule (the loader refuses a
    static object; ``p0 + 0 * t`` would turn its -0.0 into 0.0)."""

    def __init__(self, objects):
        motions = [o.motion for o in objects]
        self.ids = tuple([o.id for o in objects])
        self.row = {oid: i for i, oid in enumerate(self.ids)}
        # one concatenation of every object's three vectors costs less than
        # one array per field
        parts = [np.empty(0)]
        for o, m in zip(objects, motions):
            parts += (o.extent, m.p0, m.v) if m.kind == "cv" else (o.extent, _ZERO, _ZERO)
        self.extents, self.p0, self.v = \
            np.concatenate(parts).reshape(-1, 3, 3).transpose(1, 0, 2).copy()
        self.others = {i: m for i, m in enumerate(motions) if m.kind != "cv"}

    def positions(self, gids, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M, K, 3) positions of the objects ``gids`` at their (M, K)
        ``times``, row m's at ``times[m]``, and the (M,) mask of the
        objects found: all of them, as every object has a motion for all
        time (``ReplayData.positions`` has this signature too)."""
        rows = [self.row[gid] for gid in gids]
        out = self.p0[rows, None] + self.v[rows, None] * times[..., None]
        if self.others:
            for m, i in enumerate(rows):
                motion = self.others.get(i)
                if motion is not None:
                    out[m] = [motion.position(t) for t in times[m].tolist()]
        return out, np.ones(len(rows), dtype=bool)


def world_at(world: World, t: float, duration: float) -> Truth:
    """Ground truth at time t, in object order, as new arrays; t must lie
    inside the scenario."""
    if t < -1e-9 or t > duration + 1e-9:
        raise OutOfRange(f"t={t} outside [0, {duration}]")
    positions = world.p0 + world.v * t
    velocities = world.v.copy()
    for i, motion in world.others.items():
        positions[i] = motion.position(t)
        velocities[i] = motion.velocity(t)
    return Truth(world.ids, positions, velocities, world.extents.copy())
