"""Pinhole projection, lifting, positional encoding, and ego alignment.

Conventions.  The ego frame is x forward, y left, z up.  A camera's
``extrinsic`` is the rigid ego-to-camera transform; the camera frame is
z forward (optical axis), x right, y down.  The ``intrinsic`` matrix is
upper triangular with a positive diagonal and maps camera-frame rays to
image coordinates in whatever unit the matrix encodes (this library's
synthetic cameras use normalized image units, so in-view points land in
[0, 1] x [0, 1]).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    Array, BehindCameraError, Bound, Record, ValidationError, check_seed, checked, frozen,
)
from .numerics import gelu, require_rigid, rigid_inverse

MIN_PROJECT_DEPTH = 1e-6


@dataclass(frozen=True)
class CameraModel(Record):
    intrinsic: Array[float, 3, 3]
    extrinsic: Array[float, 4, 4]
    camera_id: int

    def __post_init__(self):
        super().__post_init__()
        k = self.intrinsic
        if np.any(np.tril(k, k=-1) != 0.0):
            raise ValidationError("intrinsic must be upper triangular")
        if np.any(np.diag(k) <= 0.0):
            raise ValidationError("intrinsic diagonal must be positive")
        require_rigid(self.extrinsic, "extrinsic")

    @cached_property
    def _intrinsic_inv(self) -> np.ndarray:
        return np.linalg.inv(self.intrinsic)

    @cached_property
    def _extrinsic_inv(self) -> np.ndarray:
        return rigid_inverse(self.extrinsic)


@dataclass(frozen=True)
class EgoPose(Record):
    world_from_ego: Array[float, 4, 4]
    timestamp: float

    def __post_init__(self):
        super().__post_init__()
        require_rigid(self.world_from_ego, "world_from_ego")


@dataclass(frozen=True)
class PosEmbedParams(Record):
    """Sinusoidal features followed by a two-layer GELU MLP, output width D."""

    temperature: Bound[float, ">", 0]
    w1: Array[float, "D", "D"]
    b1: Array[float, "D"]
    w2: Array[float, "D", "D"]
    b2: Array[float, "D"]

    def __post_init__(self):
        super().__post_init__()
        if self.embed_dim % 2 != 0:
            raise ValidationError(f"embed_dim: expected an even int, got {self.embed_dim}")

    @property
    def embed_dim(self) -> int:
        return self.w1.shape[0]

    @classmethod
    @checked
    def seeded(
        cls, embed_dim: Bound[int, ">=", 2], seed, temperature: Bound[float, ">", 0] = 10000.0
    ) -> "PosEmbedParams":
        check_seed(seed)
        rng = np.random.default_rng(seed)
        d = embed_dim
        return cls(  # fresh draws are write-protected, so they are kept uncopied
            temperature=temperature,
            w1=frozen(rng.uniform(-0.1, 0.1, size=(d, d))),
            b1=frozen(rng.uniform(-0.1, 0.1, size=d)),
            w2=frozen(rng.uniform(-0.1, 0.1, size=(d, d))),
            b2=frozen(rng.uniform(-0.1, 0.1, size=d)),
        )


@checked
def project_point(cam: CameraModel, p_ego: Array[float, ..., 3]) -> tuple:
    """Project an ego-frame point: returns (u, v, camera-frame depth).

    Accepts a single 3-vector or an (..., 3) batch.  Raises
    :class:`BehindCameraError` when any point has camera depth <= 1e-6.
    """
    r = cam.extrinsic[:3, :3]
    t = cam.extrinsic[:3, 3]
    q = p_ego @ r.T + t
    depth = q[..., 2]
    if np.any(depth <= MIN_PROJECT_DEPTH):
        raise BehindCameraError(
            f"camera {cam.camera_id}: point at or behind the camera plane"
        )
    ph = q @ cam.intrinsic.T
    u = ph[..., 0] / ph[..., 2]
    v = ph[..., 1] / ph[..., 2]
    if p_ego.ndim == 1:
        return float(u), float(v), float(depth)
    return u, v, depth


@checked
def lift_center(
    cam: CameraModel | tuple[CameraModel, ...] | list[CameraModel], c2d: Array[float, ..., 2],
    depth: Array[Bound[float, ">", 0], ...], cam_index: Array[int, ...] | None = None,
) -> np.ndarray:
    """Lift image points at known camera depths back to the ego frame.

    Exact inverse of :func:`project_point`: the homogeneous pixel is scaled
    so the recovered camera-frame point sits at exactly ``depth``, then
    mapped through the intrinsic and extrinsic inverses.  ``c2d`` is one
    (2,) point or an (..., 2) batch, with one depth per point.  ``cam`` is
    one camera; with ``cam_index`` it is a sequence of cameras, and point j
    is lifted through ``cam[cam_index[j]]``, each index in [0, len(cam)).
    """
    cams, idx = ((cam,), 0) if cam_index is None else (cam, cam_index)
    if not isinstance(cams, (list, tuple)):
        got = type(cams).__name__
        raise ValidationError(f"cam: expected a list or tuple of CameraModels, got {got}")
    for index, m in enumerate(cams):
        if not isinstance(m, CameraModel):
            at = "cam" if cam_index is None else f"cam[{index}]"
            raise ValidationError(f"{at}: expected a CameraModel, got {type(m).__name__}")
    if np.any(idx < 0) or np.any(idx >= len(cams)):
        raise ValidationError(f"cam_index: entries must lie in [0, {len(cams)})")
    k22 = np.array([m.intrinsic[2, 2] for m in cams])[idx]
    k_inv = np.stack([m._intrinsic_inv for m in cams])[idx]
    e_inv = np.stack([m._extrinsic_inv for m in cams])[idx]
    # With K upper triangular, the homogeneous scale that puts the camera
    # point at depth d is d * K[2, 2].
    w = depth * k22
    pix = np.stack([c2d[..., 0] * w, c2d[..., 1] * w, w], axis=-1)
    q = np.einsum("...ij,...j->...i", k_inv, pix)
    return np.einsum("...ij,...j->...i", e_inv[..., :3, :3], q) + e_inv[..., :3, 3]


@checked
def sinusoid_features(
    c3d: Array[float, ..., 3], embed_dim: Bound[int, ">=", 1], temperature: Bound[float, ">", 0]
) -> np.ndarray:
    """Per-axis interleaved sin/cos features, zero padded to ``embed_dim``.

    Each axis gets floor(D / 6) frequencies temperature**(-2i / F) with
    F = 2 * floor(D / 6); the remaining channels stay zero.
    """
    n_freq = embed_dim // 6
    out = np.zeros(c3d.shape[:-1] + (embed_dim,))
    if n_freq == 0:
        return out
    i = np.arange(n_freq)
    freqs = temperature ** (-2.0 * i / (2.0 * n_freq))
    angles = c3d[..., :, None] * freqs  # (..., 3, n_freq)
    interleaved = np.stack([np.sin(angles), np.cos(angles)], axis=-1)
    flat = interleaved.reshape(c3d.shape[:-1] + (6 * n_freq,))
    out[..., : 6 * n_freq] = flat
    return out


def pos_embed(c3d, params: PosEmbedParams) -> np.ndarray:
    """Positional embedding of a 3D center (or an (..., 3) batch)."""
    feats = sinusoid_features(c3d, params.embed_dim, params.temperature)
    hidden = gelu(feats @ params.w1 + params.b1)
    return hidden @ params.w2 + params.b2


@checked
def align_centers(centers: Array[float, "P", "K", 3], pose_now: EgoPose, poses_past) -> np.ndarray:
    """Map the centers of P past frames into the current ego frame.

    ``centers`` is (P, K, 3), frame p in the ego frame of ``poses_past[p]``.
    Each frame goes through the full rigid transform
    now_from_past = inv(world_from_ego_now) @ world_from_ego_past
    (rotation and translation both apply); the transforms of all P frames
    are stacked and applied in one pass.
    """
    past = np.array([pose.world_from_ego for pose in poses_past]).reshape(-1, 4, 4)
    if centers.shape[0] != past.shape[0]:
        raise ValidationError("centers: expected one frame per past pose")
    now_from_past = rigid_inverse(pose_now.world_from_ego) @ past
    return centers @ now_from_past[:, :3, :3].transpose(0, 2, 1) + now_from_past[:, None, :3, 3]
