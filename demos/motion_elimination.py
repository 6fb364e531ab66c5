"""Pruning redundant history: distance-gated elimination of past queries.

A past query whose aligned 3D center sits within alpha of a same-category
current query is redundant evidence of a static object, so its slot is
zeroed before temporal fusion. Moving objects drift out of the gate and
survive, keeping their history available to the fusion stack.
"""

import numpy as np

from statefuse import (
    MotionElimConfig,
    apply_motion_mask,
    motion_cost,
    motion_mask,
    pad_frames,
)
from statefuse import MotionMask, PosEmbedParams, pos_embed


def queries_at(centers, categories):
    """One frame's queries as arrays: q_3d embeds each center."""
    centers = np.asarray(centers, dtype=float)
    return pos_embed(centers, PosEmbedParams.seeded(8, seed=0)), centers, categories


def main():
    # frame 0 (past): a parked car, a moving truck, a pedestrian
    # frame 1 (now):  the car unmoved, the truck 3 m on, a new cyclist
    past = queries_at([[10.0, 0.0, 0.5], [20.0, 5.0, 0.8], [4.0, -2.0, 0.9]], [0, 1, 2])
    now = queries_at([[10.0, 0.05, 0.5], [23.0, 5.0, 0.8], [7.0, 3.0, 0.9]], [0, 1, 3])
    seq = pad_frames(
        *(np.concatenate([a, b]) for a, b in zip(past, now)), counts=[3, 3]
    )
    print(f"padded to K={seq.k_queries} slots over {seq.n_frames} frames")

    validity = np.stack([seq.validity(1), seq.validity(0)], axis=1)
    cost = motion_cost(seq.centers(1), seq.centers(0), validity)
    print("cost matrix (current x past):")
    print(np.array2string(cost.cost, precision=3))

    for alpha in (0.1, 0.5, 4.0):
        row = motion_mask(
            cost, seq.categories(1), seq.categories(0), MotionElimConfig(alpha=alpha)
        )
        names = ["car", "truck", "pedestrian"]
        kept = [n for n, keep in zip(names, row) if keep]
        print(f"alpha={alpha:>4}: past survivors {kept}")

    # apply the alpha = 0.5 decision and show the zeroed slot
    row = motion_mask(
        cost, seq.categories(1), seq.categories(0), MotionElimConfig(alpha=0.5)
    )
    mask = MotionMask((row, np.ones(seq.k_queries, dtype=np.int8)))
    pruned = apply_motion_mask(seq, mask)
    gone = np.where(row == 0)[0]
    print(f"slot {gone.tolist()} zeroed: "
          f"{np.array_equal(pruned.q3d(0)[gone], np.zeros((gone.size, 8)))}")
    print(f"current frame untouched: {np.array_equal(pruned.q3d(1), seq.q3d(1))}")


if __name__ == "__main__":
    main()
