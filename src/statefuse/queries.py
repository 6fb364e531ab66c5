"""3D query construction from 2D proposals and image features.

A proposal contributes two vectors of width D: a semantic embedding,
gathered from its camera's feature map by a small deformable-attention
read-out and projected C -> D, and a positional embedding of its lifted 3D
center.  Their sum is the query embedding q_3d.

A camera's proposals at one frame form one read-only table
(:func:`proposal_tables`).  Queries are built for a whole window at once, in
struct-of-arrays form:
the P proposals of all frames and cameras become a (P, D) q_3d array, a
(P, 3) center array and (P,) category and score vectors, which
:func:`statefuse.motion.pad_frames` scatters into (N, K, ...) slots.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (
    Array, Bound, Record, ValidationError, check_seed, checked, frozen, number_array, readonly,
)
from .geometry import PosEmbedParams, lift_center, pos_embed
from .numerics import require_finite, softmax

DEPTH_BIN_COUNT = 60
DEPTH_RANGE = (1.0, 61.0)
PROPOSAL_FIELDS = ("center", "box", "category", "score", "depth_dist")


def default_depth_bins() -> np.ndarray:
    """Centers of 60 uniform 1 m depth bins spanning [1, 61] meters."""
    lo, hi = DEPTH_RANGE
    width = (hi - lo) / DEPTH_BIN_COUNT
    return lo + width * (np.arange(DEPTH_BIN_COUNT) + 0.5)


@dataclass(frozen=True)
class FeatureMap:
    """Dense (H, W, C) feature grid for one camera at one frame."""

    data: np.ndarray

    # Not a Record: the rule would cast the maps to float64, and they stay
    # in the dtype they come in, a feature blob's float32 views included.
    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype.kind != "f" or data.ndim != 3:
            raise ValidationError("feature map data must be a float (H, W, C) array")
        if data.shape[0] < 2 or data.shape[1] < 2 or data.shape[2] < 1:
            raise ValidationError("feature map needs H >= 2, W >= 2, C >= 1")
        if not np.isfinite(data).all():
            raise ValidationError("feature map contains NaN or Inf")
        object.__setattr__(self, "data", readonly(data))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _column(values: list, key: str, shape: tuple | None, path) -> np.ndarray:
    """One field of every row as a float64 (P, *shape) array of numbers.

    ``shape=None`` asks for vectors of the first row's length.  The first
    row that is not numbers (see :func:`~statefuse.errors.number_array`),
    or not of that shape, raises naming ``path(j)``, the JSON path of row j.
    """
    col = number_array(values)
    if col is not None and (
        col.shape[1:] == shape if shape is not None else col.ndim == 2 and col.shape[1] > 0
    ):
        return col
    for j, value in enumerate(values):
        row = number_array(value)
        if row is None:
            raise ValidationError(f"{path(j)}.{key}: expected numbers, got {value!r:.40}")
        if shape is None:
            if row.ndim != 1 or row.size == 0:
                raise ValidationError(f"{path(j)}.{key}: depth_dist must be a non-empty 1-d vector")
            shape = row.shape
        elif row.shape != shape:
            raise ValidationError(f"{path(j)}.{key}: expected shape {shape}, got {row.shape}")


def _table_dtype(n_bins: int) -> np.dtype:
    return np.dtype((np.record, [
        ("center", np.float64, (2,)),
        ("box", np.float64, (2,)),
        ("category", np.int64),
        ("score", np.float64),
        ("depth_dist", np.float64, (n_bins,)),
    ]))


_NO_PROPOSALS = frozen(np.empty(0, _table_dtype(DEPTH_BIN_COUNT))).view(np.recarray)


def proposal_tables(per_camera, where: str = "proposals") -> tuple:
    """A frame's proposals as one validated, read-only table per camera.

    ``per_camera[c]`` lists camera c's proposals as mappings, the layout
    of the scene JSON: ``center`` and ``box`` (x, y) normalized to [0, 1]
    image coordinates, an integer ``category``, a ``score`` in [0, 1] and
    a ``depth_dist`` of B bin probabilities.  Each table is an
    ``np.recarray`` with these five fields, (P, 2), (P, 2), (P,), (P,) and
    (P, B), and its rows are records with the same attributes.  The frame
    is checked once, as a whole; the first malformed value raises
    :class:`ValidationError` naming its path ``where[c][j].key``.
    """
    if not isinstance(per_camera, (list, tuple)):
        raise ValidationError(f"{where}: expected an array of per-camera arrays")
    for c, cam_rows in enumerate(per_camera):
        if not isinstance(cam_rows, (list, tuple)):
            raise ValidationError(f"{where}[{c}]: expected an array of proposals")
    rows = [row for cam_rows in per_camera for row in cam_rows]
    if not rows:
        return (_NO_PROPOSALS,) * len(per_camera)
    bounds = [0, *accumulate(map(len, per_camera))]

    def path(j: int) -> str:
        c = bisect_right(bounds, j) - 1
        return f"{where}[{c}][{j - bounds[c]}]"

    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValidationError(f"{path(j)}: a proposal must be an object")
    cols = {}
    for key in PROPOSAL_FIELDS:
        try:
            cols[key] = [row[key] for row in rows]
        except KeyError:
            j = next(j for j, row in enumerate(rows) if key not in row)
            raise ValidationError(f"{path(j)}.{key}: missing") from None
    for j, cat in enumerate(cols["category"]):
        if isinstance(cat, bool) or not (
            isinstance(cat, (int, np.integer)) and -(2**63) <= cat < 2**63
        ):
            raise ValidationError(f"{path(j)}.category: expected an integer, got {cat!r:.40}")
    for key, shape in (("center", (2,)), ("box", (2,)), ("score", ()), ("depth_dist", None)):
        cols[key] = _column(cols[key], key, shape, path)
    center, box, score, dist = (cols[k] for k in ("center", "box", "score", "depth_dist"))
    with np.errstate(invalid="ignore", over="ignore"):  # NaN and Inf fail every test
        checks = (
            ("center", (center >= 0.0) & (center <= 1.0),
             "proposal center must lie inside [0, 1]^2"),
            ("box", (box >= 0.0) & (box < np.inf), "box extents must be non-negative"),
            ("score", (score >= 0.0) & (score <= 1.0), "score must lie in [0, 1]"),
            ("depth_dist",
             (dist >= 0.0) & (np.abs(dist.sum(axis=1, keepdims=True) - 1.0) <= 1e-9),
             "depth_dist must be non-negative and sum to 1"),
        )
    for key, ok, message in checks:
        if not ok.all():
            j = int(np.argmin(ok.reshape(len(rows), -1).all(axis=1)))
            if not np.isfinite(cols[key][j]).all():
                message = "contains NaN or Inf"
            raise ValidationError(f"{path(j)}.{key}: {message}")
    cols["category"] = np.array(cols["category"], dtype=np.int64)
    frame = np.empty(len(rows), _table_dtype(dist.shape[1]))
    for key in PROPOSAL_FIELDS:
        frame[key] = cols[key]
    frozen(frame)
    # slice the plain array: slicing a recarray costs two more views a table
    return tuple(frame[a:b].view(np.recarray) for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True)
class DeformAttnParams(Record):
    """Fixed sampling pattern for the deformable feature read-out.

    Per head: a value projection (C, C_h), an output projection (C_h, C),
    ``n_keys`` pixel offsets, and convex attention weights over the keys.
    """

    value_proj: Array[float, "H", "C", "Ch"]
    out_proj: Array[float, "H", "Ch", "C"]
    offsets: Array[float, "H", "K", 2]
    weights: Array[Bound[float, ">=", 0], "H", "K"]

    def __post_init__(self):
        super().__post_init__()
        if np.any(np.abs(self.weights.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("attention weights must sum to 1 per head")

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
    @checked
    def head_width(channels: int, n_heads: Bound[int, ">=", 1]) -> int:
        """Per-head value width C_h of seeded params."""
        return max(1, channels // n_heads)

    @classmethod
    @checked
    def seeded(
        cls, channels: Bound[int, ">=", 1], seed, *,
        n_heads: Bound[int, ">=", 1] = 2, n_keys: Bound[int, ">=", 1] = 4,
    ) -> "DeformAttnParams":
        """Deterministic params; raw weight logits pass through a softmax."""
        c_h = cls.head_width(channels, n_heads)
        check_seed(seed)
        rng = np.random.default_rng(seed)
        return cls(  # fresh draws are write-protected, so they are kept uncopied
            value_proj=frozen(rng.uniform(-0.1, 0.1, size=(n_heads, channels, c_h))),
            out_proj=frozen(rng.uniform(-0.1, 0.1, size=(n_heads, c_h, channels))),
            offsets=frozen(rng.uniform(-2.0, 2.0, size=(n_heads, n_keys, 2))),
            weights=frozen(softmax(rng.uniform(-1.0, 1.0, size=(n_heads, n_keys)), axis=1)),
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


@checked
def deformable_attention(
    c2d: Array[float, "P", 2], maps, counts: Array[Bound[int, ">=", 0], "M"],
    params: DeformAttnParams,
) -> np.ndarray:
    """Sparse attention read-out around normalized reference points.

    out = sum_m W_m sum_n A[m, n] * W'_m F(pixel(c2d) + offset[m, n]).
    The reference point scales to pixels by (W - 1, H - 1); offsets are in
    pixels; sample points clamp to the image rectangle.  The points come
    map by map: the first ``counts[0]`` read ``maps[0]``, the next
    ``counts[1]`` read ``maps[1]``, and so on.  Only the corner gather runs
    per map; the rest runs once over all points x heads x keys.
    """
    if not maps or len(maps) != len(counts) or counts.sum() != len(c2d):
        raise ValidationError("counts: expected a count of points for each feature map")
    if any(fmap.channels != params.channels for fmap in maps):
        raise ValidationError(f"params expect {params.channels} channels in every feature map")
    hw = np.repeat([(fmap.height, fmap.width) for fmap in maps], counts, axis=0)
    base = c2d * (hw[:, ::-1] - 1.0)
    taps = base[:, None, None, :] + params.offsets  # (P, heads, keys, 2)
    ys, xs, fx, fy = _bilinear_taps(taps, hw[:, 0, None, None], hw[:, 1, None, None])
    bounds = np.cumsum([0, *counts])
    corners = np.concatenate(
        [fmap.data[ys[:, a:b], xs[:, a:b]] for fmap, a, b in zip(maps, bounds, bounds[1:])],
        axis=1,
    )  # (4, P, heads, keys, C)
    heads = np.einsum("hk,phkc->phc", params.weights, _blend(corners, fx, fy))
    values = np.einsum("phc,hcd->phd", heads, params.value_proj)
    return np.einsum("phd,hdc->pc", values, params.out_proj)


@checked
def expected_depth(dist: Array[Bound[float, ">=", 0], ..., "B"], bin_centers: Array[float, "B"]):
    """Expectation of categorical depth distributions over bin centers.

    A (B,) distribution gives a float; a (..., B) batch gives (...) depths.
    """
    if np.any(np.abs(dist.sum(axis=-1) - 1.0) > 1e-9):
        raise ValidationError("dist: expected distributions that sum to 1")
    return dist @ bin_centers


@checked
def build_query(
    proposals,
    feature_maps,
    cams,
    attn: DeformAttnParams,
    pe: PosEmbedParams,
    sem_proj: Array[float, "C", "D"],
) -> tuple:
    """Assemble the 3D queries of a window of frames in one batched pass.

    ``proposals[i][c]`` is the proposal table of camera ``cams[c]``
    at frame i and ``feature_maps[i][c]`` its feature map: a table's camera
    and frame are its position.  Per (frame, camera) only the features are
    gathered; the fields are concatenated once, and the depth estimate (the
    expectation of each distribution over :func:`default_depth_bins`),
    projections, lifting and the positional embedding each run once over
    all P proposals.  Shapes, distributions and outputs are checked once,
    for the whole batch.

    Returns ``(q3d, centers, cats, scores, counts)``: (P, D) embeddings
    q_3d = q_pos + q_sem, (P, 3) lifted ego-frame centers, (P,) categories
    and scores, all in frame, camera, proposal order, and the (N,)
    per-frame proposal counts.
    """
    if sem_proj.shape != (attn.channels, pe.embed_dim):
        raise ValidationError(
            f"sem_proj must be ({attn.channels}, {pe.embed_dim}), got {sem_proj.shape}"
        )
    centers = default_depth_bins()
    if len(proposals) != len(feature_maps) or any(
        len(per_cam) != len(cams) for per_cam in (*proposals, *feature_maps)
    ):
        raise ValidationError("per-camera proposals and feature maps must match the camera list")
    tables, maps, map_cams, sizes, counts = [], [], [], [], []
    for frame_props, frame_maps in zip(proposals, feature_maps):
        count = 0
        for cam, (table, fmap) in enumerate(zip(frame_props, frame_maps)):
            if len(table):
                tables.append(np.asarray(table))  # a recarray's field access costs ~10x more
                maps.append(fmap)
                map_cams.append(cam)
                sizes.append(len(table))
                count += len(table)
        counts.append(count)
    if not tables:
        raise ValidationError("the window holds no proposals")
    if any(t.dtype["depth_dist"].shape != centers.shape for t in tables):
        raise ValidationError("depth_dist length must match the bin layout")
    c2d, dists, cats, scores = (
        np.concatenate([t[key] for t in tables])
        for key in ("center", "depth_dist", "category", "score")
    )
    sizes = np.array(sizes)
    cam_index = np.repeat(map_cams, sizes)

    depth = expected_depth(dists, centers)  # checks every distribution
    q_sem = deformable_attention(c2d, maps, sizes, attn) @ sem_proj
    stage = "stage query construction"
    center3d = require_finite(stage, lift_center(cams, c2d, depth, cam_index=cam_index))
    q3d = require_finite(stage, pos_embed(center3d, pe) + q_sem)
    return q3d, center3d, cats, scores, np.array(counts)
