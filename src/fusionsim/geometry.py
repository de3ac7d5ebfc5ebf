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

from .bus import payload_field, payload_keys

# Symmetry tolerance for covariance inputs.  Long simulations accumulate
# float drift; this must not abort them.
SYMMETRY_TOL = 1e-6

_ORTHONORMAL_TOL = 1e-9

# Maps body coordinates (x fwd, y left, z up) to optical coordinates
# (z fwd, x right, y down).  Fixed once; cameras compose it internally.
OPTICAL_FROM_BODY = np.array(
    [[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]
)


@dataclass(frozen=True)
class Pose:
    """Rigid transform: rotation (world-from-local) plus translation in meters.

    A pose built from outside input (``Pose(...)``, ``from_rpy_deg``,
    ``from_payload``) is validated once.  Poses derived from valid ones
    (``compose``, ``inverse``, ``identity``, a trajectory's pose at a
    time) are built by ``_trusted``, which skips the check.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise ValueError("pose components must be finite")
        err = np.abs(r.T @ r - np.eye(3)).max()
        if err > _ORTHONORMAL_TOL:
            raise ValueError(f"rotation not orthonormal (|R'R - I| = {err:.3e})")
        if abs(np.linalg.det(r) - 1.0) > _ORTHONORMAL_TOL:
            raise ValueError("rotation must be proper (det = +1)")

    @classmethod
    def _trusted(cls, rotation: np.ndarray, translation: np.ndarray) -> "Pose":
        """A pose from a float (3, 3) rotation known to be proper and
        orthonormal and a float (3,) translation, built without checks."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "rotation", rotation)
        object.__setattr__(pose, "translation", translation)
        return pose

    @staticmethod
    def identity() -> "Pose":
        return _IDENTITY

    @staticmethod
    def from_rpy_deg(translation, roll: float = 0.0, pitch: float = 0.0,
                     yaw: float = 0.0) -> "Pose":
        """Build a pose from yaw-pitch-roll in degrees (R = Rz @ Ry @ Rx)."""
        return Pose(rotation_from_rpy_deg(roll, pitch, yaw), np.asarray(translation, dtype=float))

    def compose(self, other: "Pose") -> "Pose":
        """self ∘ other: apply ``other`` first, then ``self``."""
        return Pose._trusted(self.rotation @ other.rotation,
                             self.rotation @ other.translation + self.translation)

    def to_payload(self) -> dict:
        """JSON-ready form carried in bus messages."""
        return {"rotation": self.rotation.tolist(),
                "translation": self.translation.tolist()}

    @staticmethod
    def from_payload(d: dict) -> "Pose":
        """The pose of a ``to_payload`` dict, read by the bus's rule."""
        payload_keys(d, {"rotation", "translation"}, "pose")
        return Pose(payload_field(d, "rotation", (3, 3)), payload_field(d, "translation", (3,)))


_IDENTITY = Pose._trusted(np.eye(3), np.zeros(3))
_IDENTITY.rotation.flags.writeable = False
_IDENTITY.translation.flags.writeable = False


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
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")


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
    """Map a (3,) point, or each row of an (N, 3) stack of them, from the
    pose's local frame into its parent frame.

    Each row is ``R @ p + t`` as a matrix-vector product: a stacked
    ``R @ p[..., None]`` runs the same product per row, bit for bit,
    where ``P @ R.T`` or ``einsum`` sum in another order.
    """
    p = np.asarray(p, dtype=float)
    return (pose.rotation @ p[..., None])[..., 0] + pose.translation


def norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (N, 3) stack of points.

    Each equals ``np.linalg.norm`` of its row bit for bit: both take the
    square root of the row's dot product with itself, which
    ``norm(points, axis=1)`` would sum in another order.
    """
    return np.sqrt(points[:, None, :] @ points[:, :, None])[:, 0, 0]


def inverse(pose: Pose) -> Pose:
    rt = pose.rotation.T
    return Pose._trusted(rt, -(rt @ pose.translation))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M') / 2 of a matrix, or of each matrix in a stack."""
    return (m + m.swapaxes(-1, -2)) / 2.0


def check_symmetric(cov: np.ndarray, tol: float = SYMMETRY_TOL) -> None:
    """Refuse a matrix, or a stack holding a matrix, asymmetric by more
    than ``tol``."""
    cov = np.asarray(cov)
    err = np.abs(cov - cov.swapaxes(-1, -2)).max() if cov.size else 0.0
    if err > tol:
        raise ValueError(f"covariance asymmetry {err:.3e} exceeds tolerance {tol:.1e}")


def transform_gaussian(pose: Pose, mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """Map a Gaussian over [position(3), velocity(3)] through a rigid pose,
    or each one of a stack of (6,) means and (6, 6) covariances.

    Position is mapped by the full pose, velocity is rotated only.  The
    covariance is congruence-transformed by blockdiag(R, R) and
    re-symmetrized, and every input covariance must pass
    ``check_symmetric``.  Stacked, each Gaussian maps bit for bit as it would
    alone: means go through ``R @ m[..., None]`` and covariances through
    ``T @ P @ T'``, which run the same products per slice, where ``M @
    R.T`` or ``einsum`` sum in another order.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    check_symmetric(cov)
    r = pose.rotation
    out_mean = np.empty(mean.shape)
    out_mean[..., :3] = (r @ mean[..., :3, None])[..., 0] + pose.translation
    out_mean[..., 3:] = (r @ mean[..., 3:, None])[..., 0]
    t = np.zeros((6, 6))
    t[:3, :3] = r
    t[3:, 3:] = r
    return out_mean, symmetrize(t @ cov @ t.T)
