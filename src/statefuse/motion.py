"""Motion elimination: drop past queries that match a current object.

Past frames are padded to a common slot count K, and the centers of all
N - 1 past frames are aligned into the current ego frame in one batched
pass.  One (N - 1, K, K) cost tensor holds every current-to-past center
distance, and one (N, K) binary mask retains only past slots whose aligned
center is NOT within ``alpha`` meters of any same-category current object.
The current frame itself is always kept in full.

The padded window, the one per-slot record of a pass, is struct-of-arrays
(see :class:`PaddedQuerySequence`).  Elimination leaves it as it is and
returns only the fusion stack's operand: the embeddings with eliminated
past slots zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import Array, Bound, Config, Record, frozen

INVALID_COST = np.inf


@dataclass(frozen=True)
class MotionElimConfig(Config):
    alpha: Bound[float, ">=", 0] = 0.5


@dataclass(frozen=True)
class PaddedQuerySequence(Record):
    """N frames of exactly K query slots each, oldest frame first.

    ``embeddings`` holds q_3d (N, K, D), ``centers3d`` (N, K, 3), ``valid``
    (N, K), ``cats`` (N, K) and ``scores`` (N, K).  Padding slots are zero,
    invalid, category -1 and score 0.  The newest frame is the current one.
    """

    embeddings: Array[float, "N", "K", "D"]
    centers3d: Array[float, "N", "K", 3]
    valid: Array[bool, "N", "K"]
    cats: Array[int, "N", "K"]
    scores: Array[float, "N", "K"]

    @property
    def n_frames(self) -> int:
        return self.embeddings.shape[0]

    @property
    def k_queries(self) -> int:
        return self.embeddings.shape[1]

    @property
    def current_index(self) -> int:
        return self.n_frames - 1


def pad_frames(
    q3d: np.ndarray, centers: np.ndarray, cats: np.ndarray, scores: np.ndarray,
    counts: np.ndarray,
) -> PaddedQuerySequence:
    """Scatter per-query rows into N frames of K = max(counts) slots.

    The P rows come frame by frame, oldest first: the first ``counts[0]``
    rows belong to frame 0, the next ``counts[1]`` to frame 1, and so on.
    A frame's queries fill its first slots in order; the newest frame is
    current.  The arguments come in the order and the dtypes that
    :func:`statefuse.queries.build_query` returns them: q3d (P, D),
    centers (P, 3) and scores (P,) float64, cats (P,) int64, and the
    (N,) int64 counts, which sum to P and hold one count above 0.
    """
    k = int(counts.max())
    valid = np.arange(k) < counts[:, None]

    def slots(rows, fill=0):  # ``rows`` scattered into the valid slots
        out = np.full(valid.shape + rows.shape[1:], fill, rows.dtype)
        out[valid] = rows
        return frozen(out)

    return PaddedQuerySequence(
        slots(q3d), slots(centers), frozen(valid), slots(cats, -1), slots(scores)
    )


def motion_cost(
    current_centers: np.ndarray, past_aligned: np.ndarray, current_valid: np.ndarray,
    past_valid: np.ndarray,
) -> np.ndarray:
    """Distances between current slots and the aligned slots of P past frames.

    ``cost[p, m, n]`` is the Euclidean distance from current slot m, of the
    (K, 3) ``current_centers``, to slot n of past frame p, of the
    (P, K, 3) ``past_aligned``.  The bool flags ``current_valid`` (K,) and
    ``past_valid`` (P, K) mark valid slots; any pair touching an invalid
    slot costs +inf.  Returns the (P, K, K) float64 cost.
    """
    cost = np.linalg.norm(current_centers[None, :, None, :] - past_aligned[:, None, :, :], axis=-1)
    invalid = ~current_valid[None, :, None] | ~past_valid[:, None, :]
    np.copyto(cost, INVALID_COST, where=invalid)
    return cost


def motion_mask(
    cost: np.ndarray, cats_current: np.ndarray, cats_past: np.ndarray, past_valid: np.ndarray,
    cfg: MotionElimConfig,
) -> np.ndarray:
    """Read-only (P + 1, K) int64 retention mask: P past rows, then the current.

    ``cost`` is :func:`motion_cost`'s (P, K, K) tensor, ``cats_current``
    the (K,) and ``cats_past`` the (P, K) int64 categories, ``past_valid``
    the (P, K) bool flags.  Past slot n of frame p is eliminated (0)
    exactly when some current slot m of its category sits within alpha of
    it, ``cost[p, m, n] <= alpha``; invalid past slots are always 0.  The
    current row is all 1.
    """
    p, k, _ = cost.shape
    close = cost <= cfg.alpha
    close &= cats_current[None, :, None] == cats_past[:, None, :]
    mask = np.ones((p + 1, k), dtype=np.int64)
    mask[:p] = ~close.any(axis=1) & past_valid
    return frozen(mask)


def apply_motion_mask(seq: PaddedQuerySequence, mask: np.ndarray) -> np.ndarray:
    """The fusion stack's operand: the window's (N, K, D) embeddings with
    eliminated past slots zeroed, write-protected.

    ``mask`` is (N, K) and holds 0 and 1, one entry per slot of ``seq``, as
    :func:`motion_mask` returns it.  The current frame is never altered,
    whatever its mask row says.
    """
    keep = mask.astype(bool)
    keep[seq.current_index] = True
    return frozen(np.where(keep[..., None], seq.embeddings, 0.0))
