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
from typing import Literal

import numpy as np

from .errors import Array, Bound, Config, Extended, Record, ValidationError, checked, frozen

INVALID_COST = np.inf


@dataclass(frozen=True)
class MotionElimConfig(Config):
    alpha: Bound[float, ">=", 0] = 0.5


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


@checked
def pad_frames(
    q3d: Array[float, "P", "D"], centers: Array[float, "P", 3], cats: Array[int, "P"],
    counts: Array[Bound[int, ">=", 0], "N"],
) -> PaddedQuerySequence:
    """Scatter per-query rows into N frames of K = max(counts) slots.

    The P rows come frame by frame, oldest first: the first ``counts[0]``
    rows belong to frame 0, the next ``counts[1]`` to frame 1, and so on.
    A frame's queries fill its first slots in order; the newest frame is
    current.
    """
    if not counts.any():  # no frame, or every one empty
        raise ValidationError(f"counts: expected a frame with a query, got {counts.tolist()}")
    k, total = int(counts.max()), int(counts.sum())
    if q3d.shape[0] != total:
        raise ValidationError(f"q3d: expected one row per counted query ({total})")
    valid = np.arange(k) < counts[:, None]
    embeddings = np.zeros(valid.shape + q3d.shape[1:])
    embeddings[valid] = q3d
    centers3d = np.zeros(valid.shape + (3,))
    centers3d[valid] = centers
    slot_cats = np.full(valid.shape, -1)
    slot_cats[valid] = cats
    return PaddedQuerySequence(*map(frozen, (embeddings, centers3d, valid, slot_cats)))


@checked
def motion_cost(
    current_centers: Array[float, "K", 3], past_aligned: Array[float, "P", "K", 3],
    current_valid: Array[bool, "K"], past_valid: Array[bool, "P", "K"],
) -> np.ndarray:
    """Distances between current slots and the aligned slots of P past frames.

    ``cost[p, m, n]`` is the Euclidean distance from current slot m to
    slot n of past frame p.  ``current_valid`` and ``past_valid`` flag
    valid slots; any pair touching an invalid slot costs +inf.
    """
    cost = np.linalg.norm(current_centers[None, :, None, :] - past_aligned[:, None, :, :], axis=-1)
    invalid = ~current_valid[None, :, None] | ~past_valid[:, None, :]
    np.copyto(cost, INVALID_COST, where=invalid)
    return cost


@checked
def motion_mask(
    cost: Array[Bound[Extended, ">=", 0], "P", "K", "K"], cats_current: Array[int, "K"],
    cats_past: Array[int, "P", "K"], past_valid: Array[bool, "P", "K"], cfg: MotionElimConfig,
) -> np.ndarray:
    """Read-only (P + 1, K) int64 retention mask: P past rows, then the current.

    Past slot n of frame p is eliminated (0) exactly when some current slot
    m of its category sits within alpha of it, ``cost[p, m, n] <= alpha``;
    invalid past slots are always 0.  The current row is all 1.
    """
    p, k, _ = cost.shape
    close = cost <= cfg.alpha
    close &= cats_current[None, :, None] == cats_past[:, None, :]
    mask = np.ones((p + 1, k), dtype=np.int64)
    mask[:p] = ~close.any(axis=1) & past_valid
    return frozen(mask)


@checked
def apply_motion_mask(
    seq: PaddedQuerySequence, mask: Array[Literal[0, 1], "N", "K"]
) -> PaddedQuerySequence:
    """Turn eliminated past slots into padding; retained slots pass through.

    ``mask`` holds 0 and 1, one entry per slot of ``seq``.  The current
    frame is never altered, whatever its mask row says.
    """
    if mask.shape != (seq.n_frames, seq.k_queries):
        raise ValidationError("mask shape must match the padded sequence")
    keep = mask.astype(bool)
    keep[seq.current_index] = True
    arrays = (
        np.where(keep[..., None], seq.embeddings, 0.0),
        np.where(keep[..., None], seq.centers3d, 0.0),
        seq.valid & keep,
        np.where(keep, seq.cats, -1),
    )
    return PaddedQuerySequence(*map(frozen, arrays))  # kept without a copy
