"""3D query construction from 2D proposals and image features.

A proposal contributes two vectors of width D: a semantic embedding,
gathered from its camera's feature map by a small deformable-attention
read-out and projected C -> D, and a positional embedding of its lifted 3D
center.  Their sum is the query embedding q_3d.

Queries are built for a whole window at once, in struct-of-arrays form:
the P proposals of all frames and cameras become a (P, D) q_3d array, a
(P, 3) center array and (P,) category and score vectors, which
:func:`statefuse.motion.pad_frames` scatters into (N, K, ...) slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import PosEmbedParams, lift_center, pos_embed
from .numerics import as_float_array, readonly, softmax

DEPTH_BIN_COUNT = 60
DEPTH_RANGE = (1.0, 61.0)


def default_depth_bins() -> np.ndarray:
    """Centers of 60 uniform 1 m depth bins spanning [1, 61] meters."""
    lo, hi = DEPTH_RANGE
    width = (hi - lo) / DEPTH_BIN_COUNT
    return lo + width * (np.arange(DEPTH_BIN_COUNT) + 0.5)


@dataclass(frozen=True)
class FeatureMap:
    """Dense (H, W, C) feature grid for one camera at one frame."""

    data: np.ndarray
    camera_id: int
    frame_index: int

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3:
            raise ValidationError("feature map data must be (H, W, C)")
        if data.shape[0] < 2 or data.shape[1] < 2 or data.shape[2] < 1:
            raise ValidationError("feature map needs H >= 2, W >= 2, C >= 1")
        if not np.all(np.isfinite(data)):
            raise ValidationError("feature map contains NaN or Inf")
        object.__setattr__(self, "data", readonly(data))
        object.__setattr__(self, "camera_id", int(self.camera_id))
        object.__setattr__(self, "frame_index", int(self.frame_index))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class Proposal2D:
    """A detected 2D box with a depth distribution, in one camera image.

    ``center`` and ``box`` are normalized to [0, 1] image coordinates.
    """

    center: np.ndarray
    box: np.ndarray
    category: int
    score: float
    depth_dist: np.ndarray
    camera_id: int
    frame_index: int

    def __post_init__(self):
        center = as_float_array(self.center, "center", shape=(2,))
        if np.any(center < 0.0) or np.any(center > 1.0):
            raise ValidationError("proposal center must lie inside [0, 1]^2")
        box = as_float_array(self.box, "box", shape=(2,))
        if np.any(box < 0.0):
            raise ValidationError("box extents must be non-negative")
        score = float(self.score)
        if not (0.0 <= score <= 1.0):
            raise ValidationError("score must lie in [0, 1]")
        dist = as_float_array(self.depth_dist, "depth_dist")
        if dist.ndim != 1 or dist.size == 0:
            raise ValidationError("depth_dist must be a non-empty 1-d vector")
        if np.any(dist < 0.0) or abs(dist.sum() - 1.0) > 1e-9:
            raise ValidationError("depth_dist must be non-negative and sum to 1")
        object.__setattr__(self, "center", readonly(center))
        object.__setattr__(self, "box", readonly(box))
        object.__setattr__(self, "category", int(self.category))
        object.__setattr__(self, "score", score)
        object.__setattr__(self, "depth_dist", readonly(dist))
        object.__setattr__(self, "camera_id", int(self.camera_id))
        object.__setattr__(self, "frame_index", int(self.frame_index))


@dataclass(frozen=True)
class DeformAttnParams:
    """Fixed sampling pattern for the deformable feature read-out.

    Per head: a value projection (C, C_h), an output projection (C_h, C),
    ``n_keys`` pixel offsets, and convex attention weights over the keys.
    """

    value_proj: np.ndarray
    out_proj: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        vp = as_float_array(self.value_proj, "value_proj")
        if vp.ndim != 3:
            raise ValidationError("value_proj must be (n_heads, C, C_h)")
        n_heads, c, c_h = vp.shape
        op = as_float_array(self.out_proj, "out_proj", shape=(n_heads, c_h, c))
        offsets = as_float_array(self.offsets, "offsets")
        if offsets.ndim != 3 or offsets.shape[0] != n_heads or offsets.shape[2] != 2:
            raise ValidationError("offsets must be (n_heads, n_keys, 2)")
        weights = as_float_array(
            self.weights, "weights", shape=(n_heads, offsets.shape[1])
        )
        if np.any(weights < 0.0):
            raise ValidationError("attention weights must be non-negative")
        if np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("attention weights must sum to 1 per head")
        object.__setattr__(self, "value_proj", readonly(vp))
        object.__setattr__(self, "out_proj", readonly(op))
        object.__setattr__(self, "offsets", readonly(offsets))
        object.__setattr__(self, "weights", readonly(weights))

    @property
    def n_heads(self) -> int:
        return self.value_proj.shape[0]

    @property
    def n_keys(self) -> int:
        return self.offsets.shape[1]

    @property
    def channels(self) -> int:
        return self.value_proj.shape[1]

    @staticmethod
    def head_width(channels: int, n_heads: int) -> int:
        """Per-head value width C_h of seeded params."""
        return max(1, int(channels) // int(n_heads))

    @classmethod
    def seeded(
        cls, channels: int, seed, *, n_heads: int = 2, n_keys: int = 4
    ) -> "DeformAttnParams":
        """Deterministic params; raw weight logits pass through a softmax."""
        c = int(channels)
        heads = int(n_heads)
        keys = int(n_keys)
        if c < 1 or heads < 1 or keys < 1:
            raise ValidationError("channels, n_heads, n_keys must all be >= 1")
        c_h = cls.head_width(c, heads)
        rng = np.random.default_rng(seed)
        return cls(
            value_proj=rng.uniform(-0.1, 0.1, size=(heads, c, c_h)),
            out_proj=rng.uniform(-0.1, 0.1, size=(heads, c_h, c)),
            offsets=rng.uniform(-2.0, 2.0, size=(heads, keys, 2)),
            weights=softmax(rng.uniform(-1.0, 1.0, size=(heads, keys)), axis=1),
        )


def _bilinear_taps(pts: np.ndarray, h, w) -> tuple:
    """Corner rows and columns, each (4, ...), and the (..., 1) fractional
    offsets of sample points clamped to an h x w grid."""
    x = np.minimum(np.maximum(pts[..., 0], 0.0), w - 1.0)
    y = np.minimum(np.maximum(pts[..., 1], 0.0), h - 1.0)
    # x, y >= 0, so truncation is the floor
    x0 = np.minimum(x.astype(int), w - 2)
    y0 = np.minimum(y.astype(int), h - 2)
    ys = np.stack([y0, y0, y0 + 1, y0 + 1])
    xs = np.stack([x0, x0 + 1, x0, x0 + 1])
    return ys, xs, (x - x0)[..., None], (y - y0)[..., None]


def _blend(corners: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    v00, v01, v10, v11 = corners.astype(np.float64)
    return (
        (1.0 - fx) * (1.0 - fy) * v00
        + fx * (1.0 - fy) * v01
        + (1.0 - fx) * fy * v10
        + fx * fy * v11
    )


def bilinear_sample(f: FeatureMap, p) -> np.ndarray:
    """Bilinearly interpolate the feature map at continuous pixel coords.

    ``p`` is (x, y) with x along width and y along height, or an (..., 2)
    batch.  Coordinates clamp to the valid rectangle, so integer coords
    reproduce grid values exactly.
    """
    pts = as_float_array(p, "p")
    if pts.shape[-1] != 2:
        raise ValidationError("p must have 2 components on the last axis")
    ys, xs, fx, fy = _bilinear_taps(pts, f.height, f.width)
    return _blend(f.data[ys, xs], fx, fy)


def deformable_attention(c2d, f, params: DeformAttnParams) -> np.ndarray:
    """Sparse attention read-out around normalized reference points.

    out = sum_m W_m sum_n A[m, n] * W'_m F(pixel(c2d) + offset[m, n]).
    The reference point scales to pixels by (W - 1, H - 1); offsets are in
    pixels; sample points clamp to the image rectangle.  ``c2d`` is one
    (2,) point or a (P, 2) batch on the feature map ``f``, or ``f`` is a
    sequence of maps and ``c2d`` one (P_j, 2) batch per map, stacked in map
    order on output.  Only the corner gather runs per map; the rest runs
    once over all points x heads x keys.
    """
    single = isinstance(f, FeatureMap)
    maps, points = ((f,), (c2d,)) if single else (tuple(f), tuple(c2d))
    points = [as_float_array(pts, "c2d") for pts in points]
    if not maps or len(maps) != len(points) or any(p.shape[-1] != 2 for p in points):
        raise ValidationError("need one batch of (x, y) points per feature map")
    if any(fmap.channels != params.channels for fmap in maps):
        raise ValidationError(f"params expect {params.channels} channels in every feature map")
    sizes = [p.size // 2 for p in points]
    hw = np.repeat([(fmap.height, fmap.width) for fmap in maps], sizes, axis=0)
    base = np.concatenate([p.reshape(-1, 2) for p in points]) * (hw[:, ::-1] - 1.0)
    taps = base[:, None, None, :] + params.offsets  # (P, heads, keys, 2)
    ys, xs, fx, fy = _bilinear_taps(taps, hw[:, 0, None, None], hw[:, 1, None, None])
    bounds = np.cumsum([0] + sizes)
    corners = np.concatenate(
        [fmap.data[ys[:, a:b], xs[:, a:b]] for fmap, a, b in zip(maps, bounds, bounds[1:])],
        axis=1,
    )  # (4, P, heads, keys, C)
    heads = np.einsum("hk,phkc->phc", params.weights, _blend(corners, fx, fy))
    values = np.einsum("phc,hcd->phd", heads, params.value_proj)
    out = np.einsum("phd,hdc->pc", values, params.out_proj)
    return out[0] if single and np.ndim(c2d) == 1 else out


def expected_depth(dist, bin_centers):
    """Expectation of categorical depth distributions over bin centers.

    A (B,) distribution gives a float; a (P, B) batch gives (P,) depths.
    """
    d = as_float_array(dist, "dist")
    centers = as_float_array(bin_centers, "bin_centers")
    if d.ndim not in (1, 2) or centers.ndim != 1 or d.shape[-1] != centers.size:
        raise ValidationError("dist rows and bin_centers must be vectors of equal length")
    if np.any(d < 0.0) or np.any(np.abs(d.sum(axis=-1) - 1.0) > 1e-9):
        raise ValidationError("dist must be non-negative and sum to 1")
    return d @ centers


def build_query(
    proposals,
    feature_maps,
    cams,
    attn: DeformAttnParams,
    pe: PosEmbedParams,
    sem_proj: np.ndarray,
    *,
    bins: np.ndarray | None = None,
    depth_mode: str = "expected",
) -> tuple:
    """Assemble the 3D queries of a window of frames in one batched pass.

    ``proposals[i][c]`` holds the proposals of camera ``cams[c]`` at frame i
    and ``feature_maps[i][c]`` its feature map.  Per (frame, camera) the
    proposals are only packed and their features gathered; the depth
    estimate (expectation by default, argmax bin center with
    ``depth_mode="argmax"``), projections, lifting and the positional
    embedding each run once over all P proposals.  Ids, shapes,
    distributions and outputs are checked once, for the whole batch.

    Returns ``(q3d, centers, cats, scores, counts)``: (P, D) embeddings
    q_3d = q_pos + q_sem, (P, 3) lifted ego-frame centers, (P,) categories
    and scores, all in frame, camera, proposal order, and the (N,)
    per-frame proposal counts.
    """
    sem_proj = as_float_array(sem_proj, "sem_proj")
    if sem_proj.shape != (attn.channels, pe.embed_dim):
        raise ValidationError(
            f"sem_proj must be ({attn.channels}, {pe.embed_dim}), got {sem_proj.shape}"
        )
    if depth_mode not in ("expected", "argmax"):
        raise ValidationError(f"depth_mode must be 'expected' or 'argmax', got {depth_mode!r}")
    centers = default_depth_bins() if bins is None else as_float_array(bins, "bins")
    if len(proposals) != len(feature_maps) or any(
        len(per_cam) != len(cams) for per_cam in (*proposals, *feature_maps)
    ):
        raise ValidationError("per-camera proposals and feature maps must match the camera list")
    flat, maps, map_cams, sizes, counts = [], [], [], [], []
    for frame_props, frame_maps in zip(proposals, feature_maps):
        before = len(flat)
        for cam_id, (props, fmap) in enumerate(zip(frame_props, frame_maps)):
            if props:
                flat.extend(props)
                maps.append(fmap)
                map_cams.append(cam_id)
                sizes.append(len(props))
        counts.append(len(flat) - before)
    if not flat:
        raise ValidationError("the window holds no proposals")

    ids = np.array([(p.camera_id, p.frame_index) for p in flat])
    map_ids = np.repeat([(f.camera_id, f.frame_index) for f in maps], sizes, axis=0)
    cam_index = np.repeat(map_cams, sizes)
    cam_ids = np.array([cam.camera_id for cam in cams])[cam_index]
    if np.any(ids[:, 0] != map_ids[:, 0]) or np.any(ids[:, 0] != cam_ids):
        raise ValidationError("proposal, feature map, and camera ids must agree")
    if np.any(ids[:, 1] != map_ids[:, 1]):
        raise ValidationError("proposal and feature map frame indices must agree")
    if any(p.depth_dist.size != centers.size for p in flat):
        raise ValidationError("depth_dist length must match the bin layout")
    c2d = np.array([p.center for p in flat])
    dists = np.array([p.depth_dist for p in flat])
    cats = np.array([p.category for p in flat])
    scores = np.array([p.score for p in flat])

    depth = expected_depth(dists, centers)  # checks every distribution
    if depth_mode == "argmax":
        depth = centers[np.argmax(dists, axis=1)]
    points = np.split(c2d, np.cumsum(sizes)[:-1])
    q_sem = deformable_attention(points, maps, attn) @ sem_proj
    center3d = lift_center(cams, c2d, depth, cam_index=cam_index)
    q3d = pos_embed(center3d, pe) + q_sem
    if not (np.all(np.isfinite(q3d)) and np.all(np.isfinite(center3d))):
        raise ValidationError("query construction produced NaN or Inf")
    return q3d, center3d, cats, scores, np.array(counts)
