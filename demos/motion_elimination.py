"""Pruning redundant history: distance-gated elimination of past queries.

A past query whose aligned 3D center sits within alpha of a same-category
current query is redundant evidence of a static object, so its slot is
zeroed before temporal fusion. Moving objects drift out of the gate and
survive, keeping their history available to the fusion stack.
"""

import numpy as np

from statefuse import MotionElimConfig, PosEmbedParams, pos_embed
from statefuse.motion import apply_motion_mask, motion_cost, motion_mask, pad_frames


def queries_at(centers, categories):
    """One frame's queries as arrays of the dtypes a forward pass keeps:
    q_3d embeds each center; every score is 1."""
    centers = np.asarray(centers, dtype=float)
    q3d = pos_embed(centers, PosEmbedParams.seeded(8, seed=0))
    return q3d, centers, np.asarray(categories, dtype=np.int64), np.ones(len(centers))


def main():
    # frame 0 (past): a parked car, a moving truck, a pedestrian
    # frame 1 (now):  the car unmoved, the truck 3 m on, a new cyclist
    past = queries_at([[10.0, 0.0, 0.5], [20.0, 5.0, 0.8], [4.0, -2.0, 0.9]], [0, 1, 2])
    now = queries_at([[10.0, 0.05, 0.5], [23.0, 5.0, 0.8], [7.0, 3.0, 0.9]], [0, 1, 3])
    seq = pad_frames(
        *(np.concatenate([a, b]) for a, b in zip(past, now)), counts=np.array([3, 3])
    )
    print(f"padded to K={seq.k_queries} slots over {seq.n_frames} frames")

    # both frames share one ego pose, so the past centers need no alignment
    cost = motion_cost(seq.centers3d[1], seq.centers3d[:1], seq.valid[1], seq.valid[:1])
    print("cost matrix (current x past):")
    print(np.array2string(cost[0], precision=3))

    for alpha in (0.1, 0.5, 4.0):
        mask = motion_mask(
            cost, seq.cats[1], seq.cats[:1], seq.valid[:1], MotionElimConfig(alpha=alpha)
        )
        names = ["car", "truck", "pedestrian"]
        kept = [n for n, keep in zip(names, mask[0]) if keep]
        print(f"alpha={alpha:>4}: past survivors {kept}")

    # apply the alpha = 0.5 decision and show the zeroed slot
    mask = motion_mask(
        cost, seq.cats[1], seq.cats[:1], seq.valid[:1], MotionElimConfig(alpha=0.5)
    )
    operand = apply_motion_mask(seq, mask)  # the (N, K, D) embeddings the stack fuses
    gone = np.where(mask[0] == 0)[0]
    print(f"slot {gone.tolist()} zeroed: "
          f"{np.array_equal(operand[0][gone], np.zeros((gone.size, 8)))}")
    print(f"current frame untouched: "
          f"{np.array_equal(operand[1], seq.embeddings[1])}")


if __name__ == "__main__":
    main()
