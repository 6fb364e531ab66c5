"""Motion elimination: drop past queries that match a current object.

Past frames are padded to a common slot count K, and the centers of all
N - 1 past frames are aligned into the current ego frame in one batched
pass.  One (N - 1, K, K) cost tensor holds every current-to-past center
distance, and one (N, K) binary mask retains only past slots whose aligned
center is NOT within ``alpha`` meters of any same-category current object.
The current frame itself is always kept in full.

The padded window is struct-of-arrays: q_3d embeddings (N, K, D), centers
(N, K, 3), validity (N, K) and categories (N, K).  Padding and eliminated
slots are zero, invalid and category -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Array, Config, Record, ValidationError
from .numerics import as_float_array, frozen

INVALID_COST = np.inf


@dataclass(frozen=True)
class MotionElimConfig(Config):
    alpha: float = 0.5
    require_same_category: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.alpha < 0.0:
            raise ValidationError("alpha must be a finite non-negative distance")


@dataclass(frozen=True)
class PaddedQuerySequence(Record):
    """N frames of exactly K query slots each, oldest frame first.

    ``embeddings`` holds q_3d (N, K, D), ``centers3d`` (N, K, 3), ``valid``
    (N, K) and ``cats`` (N, K).  Padding slots are zero, invalid and
    category -1.  The newest frame is the current one.
    """

    embeddings: Array[float, "N", "K", "D"]
    centers3d: Array[float, "N", "K", 3]
    valid: Array[bool, "N", "K"]
    cats: Array[int, "N", "K"]

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
    return PaddedQuerySequence(*map(frozen, (embeddings, centers3d, valid, slot_cats)))


def motion_cost(current_centers, past_aligned, current_valid, past_valid) -> np.ndarray:
    """Distances between current slots and the aligned slots of P past frames.

    ``current_centers`` is (K, 3) and ``past_aligned`` (P, K, 3);
    ``cost[p, m, n]`` is the Euclidean distance from current slot m to
    slot n of past frame p.  ``current_valid`` (K,) and ``past_valid``
    (P, K) flag valid slots; any pair touching an invalid slot costs +inf.
    """
    cur = as_float_array(current_centers, "current_centers")
    past = as_float_array(past_aligned, "past_aligned")
    if cur.ndim != 2 or cur.shape[1] != 3:
        raise ValidationError("current_centers must be (K, 3)")
    if past.ndim != 3 or past.shape[1:] != cur.shape:
        raise ValidationError("past_aligned must be (P, K, 3), K as in current_centers")
    cur_valid = np.asarray(current_valid, dtype=bool)
    past_valid = np.asarray(past_valid, dtype=bool)
    if cur_valid.shape != cur.shape[:1] or past_valid.shape != past.shape[:2]:
        raise ValidationError("validity must be (K,) for the current and (P, K) for past slots")
    cost = np.linalg.norm(cur[None, :, None, :] - past[:, None, :, :], axis=-1)
    invalid = ~cur_valid[None, :, None] | ~past_valid[:, None, :]
    np.copyto(cost, INVALID_COST, where=invalid)
    return cost


def motion_mask(cost, cats_current, cats_past, past_valid, cfg: MotionElimConfig) -> np.ndarray:
    """Read-only (P + 1, K) int8 retention mask: P past rows, then the current.

    Past slot n of frame p is eliminated (0) exactly when some current slot
    m sits within alpha of it, ``cost[p, m, n] <= alpha``, and shares its
    category when required; invalid past slots are always 0.  The current
    row is all 1.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 3 or cost.shape[1] != cost.shape[2] or not np.all(cost >= 0.0):
        raise ValidationError("cost must be (P, K, K) distances >= 0 (inf marks invalid pairs)")
    p, k, _ = cost.shape
    cur = np.asarray(cats_current, dtype=int)
    past = np.asarray(cats_past, dtype=int)
    valid = np.asarray(past_valid, dtype=bool)
    if cur.shape != (k,) or past.shape != (p, k) or valid.shape != (p, k):
        raise ValidationError("categories must be (K,) and (P, K), past validity (P, K)")
    close = cost <= cfg.alpha
    if cfg.require_same_category:
        close &= cur[None, :, None] == past[:, None, :]
    mask = np.ones((p + 1, k), dtype=np.int8)
    mask[:p] = ~close.any(axis=1) & valid
    return frozen(mask)


def apply_motion_mask(seq: PaddedQuerySequence, mask) -> PaddedQuerySequence:
    """Turn eliminated past slots into padding; retained slots pass through.

    ``mask`` is an (N, K) array of 0 and 1.  The current frame is never
    altered, whatever its mask row says.
    """
    keep = np.asarray(mask)
    if keep.shape != (seq.n_frames, seq.k_queries):
        raise ValidationError("mask shape must match the padded sequence")
    if np.any((keep != 0) & (keep != 1)):
        raise ValidationError("mask entries must be 0 or 1")
    keep = keep.astype(bool)
    keep[seq.current_index] = True
    arrays = (
        np.where(keep[..., None], seq.embeddings, 0.0),
        np.where(keep[..., None], seq.centers3d, 0.0),
        seq.valid & keep,
        np.where(keep, seq.cats, -1),
    )
    return PaddedQuerySequence(*map(frozen, arrays))  # kept without a copy
