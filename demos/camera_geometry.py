"""Pinhole round trips and ego-motion alignment.

Projection maps an ego-frame point to normalized image coordinates plus a
camera depth; lifting inverts it exactly when the depth is known. Past
detections move into the current ego frame through the relative rigid
transform between poses, so world-static objects land on themselves.
"""

import numpy as np

from statefuse import (
    BehindCameraError,
    EgoPose,
    align_centers,
    camera_ring,
    lift_center,
    project_point,
)


def pose(x, y, yaw, t):
    c, s = np.cos(yaw), np.sin(yaw)
    m = np.eye(4)
    m[:3, :3] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    m[:3, 3] = [x, y, 0.0]
    return EgoPose(m, t)


def main():
    cams = camera_ring(6, focal=0.8, height=1.5)
    print(f"{len(cams)} cameras, 60 degrees apart, all at 1.5 m height")

    p = np.array([12.0, 1.5, 0.8])
    u, v, depth = project_point(cams[0], p)
    print(f"forward camera sees {p} at u={u:.4f}, v={v:.4f}, depth={depth:.3f} m")

    back = lift_center(cams[0], [u, v], depth)
    print(f"lifting it back: {np.array2string(back, precision=12)}")
    print(f"round-trip error: {np.max(np.abs(back - p)):.3e}")

    rng = np.random.default_rng(2)
    worst = 0.0
    count = 0
    for cam in cams:
        for _ in range(2000):
            q = np.array([rng.uniform(-25, 25), rng.uniform(-25, 25), rng.uniform(0, 2.5)])
            try:
                u, v, depth = project_point(cam, q)
            except BehindCameraError:
                continue
            worst = max(worst, float(np.max(np.abs(lift_center(cam, [u, v], depth) - q))))
            count += 1
    print(f"{count} random round trips, worst abs err {worst:.3e}")

    # ego alignment: drive forward 3 m while yawing 30 degrees
    past = pose(0.0, 0.0, 0.0, t=0.0)
    now = pose(3.0, 0.0, np.deg2rad(30.0), t=0.5)
    world_fixed = np.array([[10.0, 2.0, 0.5], [6.0, -4.0, 1.0]])
    aligned = align_centers(world_fixed[None], now, [past])[0]
    inv_r = now.world_from_ego[:3, :3].T
    direct = (world_fixed - now.world_from_ego[:3, 3]) @ inv_r.T
    print(f"alignment matches the direct world-to-ego map: "
          f"{np.max(np.abs(aligned - direct)):.3e}")


if __name__ == "__main__":
    main()
