"""Reference frames, rigid poses and the pinhole camera model.

Conventions used throughout the package:

* world frame: z up, x east, y north
* agent / sensor body frame: x forward, y left, z up
* camera optical frame: z forward, x right, y down

A ``Pose`` stores the rotation and translation that map local coordinates
into the parent frame (``p_parent = R @ p_local + t``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Symmetry tolerance for covariance inputs.  Long simulations accumulate
# float drift; this must not abort them.
SYMMETRY_TOL = 1e-6

_ORTHONORMAL_TOL = 1e-9

# Maps body coordinates (x fwd, y left, z up) to optical coordinates
# (z fwd, x right, y down).  Fixed once; cameras compose it internally.
OPTICAL_FROM_BODY = np.array(
    [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
)


class GeometryError(Exception):
    pass


class BehindCamera(GeometryError):
    """Point has non-positive depth along the optical axis."""


class NonPSD(GeometryError):
    """Covariance input violates symmetry or positive-semidefiniteness."""


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (world-from-local) plus translation in meters."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise GeometryError("pose components must be finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > _ORTHONORMAL_TOL:
            raise GeometryError(f"rotation not orthonormal (|R'R - I| = {err:.3e})")
        if abs(np.linalg.det(r) - 1.0) > _ORTHONORMAL_TOL:
            raise GeometryError("rotation must be proper (det = +1)")

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_rpy_deg(translation, roll: float = 0.0, pitch: float = 0.0,
                     yaw: float = 0.0) -> "Pose":
        """Build a pose from yaw-pitch-roll in degrees (R = Rz @ Ry @ Rx)."""
        return Pose(rotation_from_rpy_deg(roll, pitch, yaw), np.asarray(translation, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return Pose(self.rotation @ other.rotation,
                    self.rotation @ other.translation + self.translation)

    def to_payload(self) -> dict:
        """JSON-ready form carried in bus messages."""
        return {"rotation": [[float(v) for v in row] for row in self.rotation],
                "translation": [float(v) for v in self.translation]}

    @staticmethod
    def from_payload(d: dict) -> "Pose":
        return Pose(np.array(d["rotation"]), np.array(d["translation"]))


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise GeometryError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise GeometryError("principal point must lie inside the image")


def rotation_from_rpy_deg(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Rotation matrix from roll/pitch/yaw degrees, applied as Rz(yaw) Ry(pitch) Rx(roll)."""
    r, p, y = (math.radians(a) for a in (roll, pitch, yaw))
    cr, sr = math.cos(r), math.sin(r)
    cp, sp = math.cos(p), math.sin(p)
    cy, sy = math.cos(y), math.sin(y)
    rx = np.array([[1, 0, 0], [0, cr, -sr], [0, sr, cr]])
    ry = np.array([[cp, 0, sp], [0, 1, 0], [-sp, 0, cp]])
    rz = np.array([[cy, -sy, 0], [sy, cy, 0], [0, 0, 1]])
    return rz @ ry @ rx


def transform_point(pose: Pose, p) -> np.ndarray:
    """Map a point from the pose's local frame into its parent frame."""
    return pose.rotation @ np.asarray(p, dtype=float) + pose.translation


def inverse(pose: Pose) -> Pose:
    rt = pose.rotation.T
    return Pose(rt, -(rt @ pose.translation))


def project_to_image(K: CameraIntrinsics, p_cam) -> tuple[float, float]:
    """Pinhole projection of an optical-frame point to pixel (u, v).

    Raises BehindCamera when the depth is at or below 1e-6 m.  No clipping
    to the image bounds is done here.
    """
    x, y, z = np.asarray(p_cam, dtype=float)
    if z <= 1e-6:
        raise BehindCamera(f"depth {z:.3g} m is not in front of the camera")
    return (K.fx * x / z + K.cx, K.fy * y / z + K.cy)


def symmetrize(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def check_symmetric(cov: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    cov = np.asarray(cov)
    err = np.abs(cov - cov.T).max() if cov.size else 0.0
    if err > tol:
        raise NonPSD(f"covariance asymmetry {err:.3e} exceeds tolerance {tol:.1e}")


def transform_gaussian(pose: Pose, mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """Map a Gaussian over [position(3), velocity(3)] through a rigid pose.

    Position is mapped by the full pose, velocity is rotated only.  The
    covariance is congruence-transformed by blockdiag(R, R) and
    re-symmetrized.
    """
    mean = np.asarray(mean, dtype=float).reshape(6)
    cov = np.asarray(cov, dtype=float).reshape(6, 6)
    check_symmetric(cov)
    r = pose.rotation
    out_mean = np.empty(6)
    out_mean[:3] = r @ mean[:3] + pose.translation
    out_mean[3:] = r @ mean[3:]
    t = np.zeros((6, 6))
    t[:3, :3] = r
    t[3:, 3:] = r
    return out_mean, symmetrize(t @ cov @ t.T)
