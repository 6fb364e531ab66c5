"""Motion elimination: drop past queries that match a current object.

Past frames are padded to a common slot count K, their centers are aligned
into the current ego frame, and a per-frame binary mask retains only slots
whose aligned center is NOT within ``alpha`` meters of any same-category
current object.  The current frame itself is always kept in full.

The padded window is struct-of-arrays: q_3d embeddings (N, K, D), centers
(N, K, 3), validity (N, K) and categories (N, K).  Padding and eliminated
slots are zero, invalid and category -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import as_float_array, readonly

INVALID_COST = np.inf


@dataclass(frozen=True)
class MotionElimConfig:
    alpha: float = 0.5
    require_same_category: bool = True

    def __post_init__(self):
        alpha = float(self.alpha)
        if not np.isfinite(alpha) or alpha < 0.0:
            raise ValidationError("alpha must be a finite non-negative distance")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "require_same_category", bool(self.require_same_category))


@dataclass(frozen=True)
class PaddedQuerySequence:
    """N frames of exactly K query slots each, oldest frame first.

    ``embeddings`` holds q_3d (N, K, D), ``centers3d`` (N, K, 3), ``valid``
    (N, K) and ``cats`` (N, K).  Padding slots are zero, invalid and
    category -1.  The newest frame is the current one.
    """

    embeddings: np.ndarray
    centers3d: np.ndarray
    valid: np.ndarray
    cats: np.ndarray

    def __post_init__(self):
        emb = as_float_array(self.embeddings, "embeddings")
        if emb.ndim != 3 or 0 in emb.shape:
            raise ValidationError("embeddings must be a non-empty (N, K, D) array")
        n, k, _ = emb.shape
        centers = as_float_array(self.centers3d, "centers3d", shape=(n, k, 3))
        valid = np.asarray(self.valid, dtype=bool)
        cats = np.asarray(self.cats, dtype=int)
        if valid.shape != (n, k) or cats.shape != (n, k):
            raise ValidationError("valid and cats must be (N, K) arrays")
        object.__setattr__(self, "embeddings", readonly(emb))
        object.__setattr__(self, "centers3d", readonly(centers))
        object.__setattr__(self, "valid", readonly(valid))
        object.__setattr__(self, "cats", readonly(cats))

    @property
    def n_frames(self) -> int:
        return self.embeddings.shape[0]

    @property
    def k_queries(self) -> int:
        return self.embeddings.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.embeddings.shape[2]

    @property
    def current_index(self) -> int:
        return self.n_frames - 1

    def centers(self, i: int) -> np.ndarray:
        return self.centers3d[i]

    def validity(self, i: int) -> np.ndarray:
        return self.valid[i]

    def categories(self, i: int) -> np.ndarray:
        return self.cats[i]

    def q3d(self, i: int) -> np.ndarray:
        return self.embeddings[i]


@dataclass(frozen=True)
class MotionCostMatrix:
    """Pairwise current-to-past center distances for one past frame.

    ``cost[m, n]`` is the Euclidean distance from current slot m to the
    aligned past slot n; pairs touching an invalid slot carry +inf.
    """

    cost: np.ndarray
    frame_offset: int
    valid_current: np.ndarray
    valid_past: np.ndarray

    def __post_init__(self):
        cost = np.asarray(self.cost, dtype=np.float64)
        if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
            raise ValidationError("cost must be a square (K, K) matrix")
        if np.any(np.isnan(cost)) or np.any(cost < 0.0):
            raise ValidationError("costs must be non-negative (inf marks invalid pairs)")
        k = cost.shape[0]
        vc = np.asarray(self.valid_current, dtype=bool)
        vp = np.asarray(self.valid_past, dtype=bool)
        if vc.shape != (k,) or vp.shape != (k,):
            raise ValidationError("validity vectors must have shape (K,)")
        object.__setattr__(self, "cost", readonly(cost))
        object.__setattr__(self, "frame_offset", int(self.frame_offset))
        object.__setattr__(self, "valid_current", readonly(vc))
        object.__setattr__(self, "valid_past", readonly(vp))


@dataclass(frozen=True)
class MotionMask:
    """Per-frame binary retention vectors; 1 keeps a slot, 0 eliminates it."""

    per_frame: tuple

    def __post_init__(self):
        vectors = tuple(
            readonly(np.asarray(v, dtype=np.int8)) for v in self.per_frame
        )
        if not vectors:
            raise ValidationError("mask needs at least one frame")
        k = vectors[0].size
        for v in vectors:
            if v.ndim != 1 or v.size != k:
                raise ValidationError("all mask vectors must share one length")
            if np.any((v != 0) & (v != 1)):
                raise ValidationError("mask entries must be 0 or 1")
        object.__setattr__(self, "per_frame", vectors)

    @property
    def n_frames(self) -> int:
        return len(self.per_frame)

    @property
    def k_queries(self) -> int:
        return self.per_frame[0].size

    def survivor_counts(self) -> np.ndarray:
        return np.array([int(v.sum()) for v in self.per_frame])


def pad_frames(q3d, centers, cats, counts) -> PaddedQuerySequence:
    """Scatter per-query rows into N frames of K = max(counts) slots.

    Rows come frame by frame, oldest first: the first ``counts[0]`` rows
    belong to frame 0, the next ``counts[1]`` to frame 1, and so on.  A
    frame's queries fill its first slots in order; the newest frame is
    current.
    """
    counts = np.asarray(counts, dtype=int)
    if counts.ndim != 1 or counts.size == 0 or np.any(counts < 0):
        raise ValidationError("need a non-negative query count for each of >= 1 frames")
    k, total = int(counts.max()), int(counts.sum())
    if k == 0:
        raise ValidationError("all frames are empty")
    q = as_float_array(q3d, "q3d")
    cats = np.asarray(cats, dtype=int)
    if q.ndim != 2 or q.shape[0] != total or cats.shape != (total,):
        raise ValidationError(f"q3d and cats need one row per counted query ({total})")
    valid = np.arange(k) < counts[:, None]
    embeddings = np.zeros(valid.shape + q.shape[1:])
    embeddings[valid] = q
    centers3d = np.zeros(valid.shape + (3,))
    centers3d[valid] = as_float_array(centers, "centers", shape=(total, 3))
    slot_cats = np.full(valid.shape, -1)
    slot_cats[valid] = cats
    return PaddedQuerySequence(embeddings, centers3d, valid, slot_cats)


def motion_cost(
    current_centers, past_aligned, validity, frame_offset: int = 1
) -> MotionCostMatrix:
    """Distance matrix between current slots and aligned past slots.

    ``validity`` is (K, 2) boolean: column 0 flags valid current slots,
    column 1 valid past slots.  Any pair touching an invalid slot costs
    +inf.
    """
    cur = as_float_array(current_centers, "current_centers")
    past = as_float_array(past_aligned, "past_aligned")
    if cur.ndim != 2 or cur.shape[1] != 3:
        raise ValidationError("current_centers must be (K, 3)")
    if past.shape != cur.shape:
        raise ValidationError("past_aligned must match current_centers in shape")
    val = np.asarray(validity, dtype=bool)
    if val.shape != (cur.shape[0], 2):
        raise ValidationError("validity must be a (K, 2) boolean array")
    diff = cur[:, None, :] - past[None, :, :]
    cost = np.linalg.norm(diff, axis=-1)
    cost[~val[:, 0], :] = INVALID_COST
    cost[:, ~val[:, 1]] = INVALID_COST
    return MotionCostMatrix(cost, frame_offset, val[:, 0], val[:, 1])


def motion_mask(
    cost: MotionCostMatrix, cats_current, cats_past, cfg: MotionElimConfig
) -> np.ndarray:
    """Retention vector for one past frame.

    Slot n is eliminated (0) exactly when some current slot m sits within
    alpha of it (and shares its category, when required); padded or
    invalid past slots are always 0.
    """
    k = cost.cost.shape[0]
    cur = np.asarray(cats_current, dtype=int)
    past = np.asarray(cats_past, dtype=int)
    if cur.shape != (k,) or past.shape != (k,):
        raise ValidationError("category vectors must have shape (K,)")
    close = cost.cost <= cfg.alpha
    if cfg.require_same_category:
        close &= cur[:, None] == past[None, :]
    eliminated = close.any(axis=0)
    mask = (~eliminated).astype(np.int8)
    mask[~cost.valid_past] = 0
    return mask


def apply_motion_mask(seq: PaddedQuerySequence, mask: MotionMask) -> PaddedQuerySequence:
    """Turn eliminated past slots into padding; retained slots pass through.

    The current frame is never altered, whatever its mask row says.
    """
    if mask.n_frames != seq.n_frames or mask.k_queries != seq.k_queries:
        raise ValidationError("mask shape must match the padded sequence")
    keep = np.stack(mask.per_frame).astype(bool)
    keep[seq.current_index] = True
    return PaddedQuerySequence(
        np.where(keep[..., None], seq.embeddings, 0.0),
        np.where(keep[..., None], seq.centers3d, 0.0),
        seq.valid & keep,
        np.where(keep, seq.cats, -1),
    )
