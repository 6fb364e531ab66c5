"""End to end: simulate a scene, fuse its history, read out detections.

The scene simulator emits multi-camera proposals with known ground truth.
With zero proposal noise and the pass-through box head, every detection
center should land on the true object center, and the motion gate should
eliminate exactly the static objects from past frames.
"""

import numpy as np

from statefuse import (
    MotionElimConfig,
    PipelineDims,
    PipelineWeights,
    SceneConfig,
    build_scene,
    op_count_cross_attention,
    op_count_ssm,
    run_pipeline_detailed,
)


def main():
    cfg = SceneConfig(
        n_frames=6,
        n_objects=6,
        n_cameras=6,
        static_fraction=0.5,
        depth_mode="exact",
        seed=0,
    )
    scene = build_scene(cfg)
    per_frame = [sum(len(p) for p in fr.proposals) for fr in scene.frames]
    print(f"{cfg.n_frames} frames, proposals per frame: {per_frame}")

    k = max(per_frame)
    dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
    weights = PipelineWeights.from_seed(11, dims)
    result = run_pipeline_detailed(
        scene.frames, scene.cameras, weights, MotionElimConfig(alpha=0.5)
    )

    current = scene.frames[-1]
    flat_ids = [obj for ids in current.proposal_object_ids for obj in ids]
    worst = 0.0
    for det, obj in zip(result.detections, flat_ids):
        err = float(np.max(np.abs(det.center3d - current.object_centers[obj])))
        worst = max(worst, err)
    print(f"{len(result.detections)} detections, worst center error {worst:.3e} m")

    static_ids = {int(i) for i in np.where(current.static_labels)[0]}
    print(f"ground-truth static objects: {sorted(static_ids)}")
    for i, frame in enumerate(scene.frames[:-1]):
        row = result.motion_mask[i]
        ids = [obj for cam_ids in frame.proposal_object_ids for obj in cam_ids]
        eliminated = {ids[s] for s in range(len(ids)) if row[s] == 0}
        print(f"frame {i}: eliminated objects {sorted(eliminated)}")

    n, d = cfg.n_frames, dims.embed_dim
    ratio = op_count_cross_attention(n, k, d) / op_count_ssm(n, k, d, dims.state_dim)
    print(f"op counts for N={n}, K={k}, D={d}: attention/scan ratio {ratio:.1f}x")


if __name__ == "__main__":
    main()
