"""Camera projection, lifting, positional features, ego alignment."""

import numpy as np
import pytest

from statefuse import (
    BehindCameraError,
    CameraModel,
    EgoPose,
    PosEmbedParams,
    ValidationError,
    align_centers,
    lift_center,
    pos_embed,
    project_point,
    sinusoid_features,
)
from statefuse.numerics import rigid_inverse


def identity_camera():
    return CameraModel(np.eye(3), np.eye(4), camera_id=0)


def pixel_camera():
    intrinsic = np.array([[100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
    return CameraModel(intrinsic, np.eye(4), camera_id=1)


def pose_at(x=0.0, y=0.0, yaw=0.0, t=0.0):
    c, s = np.cos(yaw), np.sin(yaw)
    m = np.eye(4)
    m[:3, :3] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    m[:3, 3] = [x, y, 0.0]
    return EgoPose(m, t)


# --- projection ---

def test_project_identity_camera():
    u, v, depth = project_point(identity_camera(), [5.0, 2.5, 10.0])
    assert (u, v, depth) == (0.5, 0.25, 10.0)


def test_project_pixel_camera():
    u, v, depth = project_point(pixel_camera(), [1.0, 0.0, 10.0])
    assert (u, v, depth) == (60.0, 50.0, 10.0)


def test_project_rejects_point_on_camera_plane():
    with pytest.raises(BehindCameraError):
        project_point(identity_camera(), [1.0, 1.0, 0.0])
    with pytest.raises(BehindCameraError):
        project_point(identity_camera(), [0.0, 0.0, -3.0])


def test_project_batch_matches_single():
    rng = np.random.default_rng(83)
    cam = pixel_camera()
    pts = np.column_stack(
        [rng.uniform(-3, 3, 40), rng.uniform(-3, 3, 40), rng.uniform(2, 30, 40)]
    )
    u, v, d = project_point(cam, pts)
    for i in range(40):
        ui, vi, di = project_point(cam, pts[i])
        assert (u[i], v[i], d[i]) == (ui, vi, di)


# --- lifting ---

def test_lift_identity_camera():
    p = lift_center(identity_camera(), [0.5, 0.25], 10.0)
    assert np.max(np.abs(p - [5.0, 2.5, 10.0])) <= 1e-12


def test_lift_pixel_camera():
    p = lift_center(pixel_camera(), [60.0, 50.0], 10.0)
    assert np.max(np.abs(p - [1.0, 0.0, 10.0])) <= 1e-12


def test_lift_rejects_non_positive_depth():
    with pytest.raises(ValidationError):
        lift_center(identity_camera(), [0.5, 0.5], 0.0)


def test_project_lift_round_trip():
    rng = np.random.default_rng(89)
    cam = pixel_camera()
    for _ in range(200):
        p = np.array(
            [rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.5, 40.0)]
        )
        u, v, depth = project_point(cam, p)
        back = lift_center(cam, [u, v], depth)
        assert np.max(np.abs(back - p)) / max(np.max(np.abs(p)), 1.0) <= 1e-9


def test_camera_rejects_bad_intrinsic():
    bad = np.eye(3)
    bad[1, 0] = 0.3
    with pytest.raises(ValidationError):
        CameraModel(bad, np.eye(4), camera_id=0)


def test_camera_rejects_non_rigid_extrinsic():
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValidationError):
        CameraModel(np.eye(3), bad, camera_id=0)


# --- positional features ---

def test_sinusoid_zero_center_pattern():
    feats = sinusoid_features(np.zeros(3), 24, 10000.0)
    assert feats.shape == (24,)
    # interleaved sin/cos of zero angles, then zero padding
    n_used = 6 * (24 // 6)
    assert np.array_equal(feats[:n_used:2], np.zeros(n_used // 2))
    assert np.array_equal(feats[1:n_used:2], np.ones(n_used // 2))
    assert np.array_equal(feats[n_used:], np.zeros(24 - n_used))


def test_sinusoid_small_width_is_zero():
    assert np.array_equal(sinusoid_features([1.0, 2.0, 3.0], 4, 10000.0), np.zeros(4))


def test_sinusoid_deterministic_and_bounded():
    a = sinusoid_features([1.5, -2.0, 7.0], 30, 10000.0)
    b = sinusoid_features([1.5, -2.0, 7.0], 30, 10000.0)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a)) <= 1.0


def test_pos_embed_deterministic():
    params = PosEmbedParams.seeded(24, seed=5)
    a = pos_embed([1.0, 2.0, 3.0], params)
    b = pos_embed([1.0, 2.0, 3.0], params)
    assert a.shape == (24,)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, pos_embed([1.0, 2.0, 3.1], params))


def test_pos_embed_params_validated():
    with pytest.raises(ValidationError):
        PosEmbedParams.seeded(7, seed=0)  # odd width


# --- ego alignment ---

def test_align_identical_poses_static():
    centers = np.array([[1.0, 2.0, 0.5], [-3.0, 0.0, 1.0]])
    out = align_centers(centers[None], pose_at(), [pose_at(t=0.5)])[0]
    assert np.max(np.abs(out - centers)) <= 1e-12


def test_align_quarter_turn():
    # the ego yawed +90 degrees between frames; a forward point swings right
    past = pose_at(yaw=0.0, t=0.0)
    now = pose_at(yaw=np.pi / 2.0, t=0.5)
    out = align_centers(np.array([[[1.0, 0.0, 0.0]]]), now, [past])[0]
    assert np.max(np.abs(out - [[0.0, -1.0, 0.0]])) <= 1e-12


def test_align_translation():
    past = pose_at(x=0.0, t=0.0)
    now = pose_at(x=2.0, t=1.0)
    out = align_centers(np.array([[[5.0, 1.0, 0.0]]]), now, [past])[0]
    assert np.max(np.abs(out - [[3.0, 1.0, 0.0]])) <= 1e-12


def test_align_world_static_invariant():
    """A world-fixed point lands on the same current-ego coordinates."""
    rng = np.random.default_rng(97)
    for _ in range(25):
        world = rng.uniform(-10, 10, size=(6, 3))
        p_now = pose_at(*rng.uniform(-5, 5, size=2), yaw=rng.uniform(-3, 3), t=1.0)
        p_past = pose_at(*rng.uniform(-5, 5, size=2), yaw=rng.uniform(-3, 3), t=0.0)

        def to_ego(pose, pts):
            inv_r = pose.world_from_ego[:3, :3].T
            return (pts - pose.world_from_ego[:3, 3]) @ inv_r.T

        aligned = align_centers(to_ego(p_past, world)[None], p_now, [p_past])[0]
        assert np.max(np.abs(aligned - to_ego(p_now, world))) <= 1e-9


def test_align_stacks_past_frames():
    """Each past frame goes through its own pose, bit for bit as a transform
    of that frame alone; a window of no past frames aligns nothing."""
    rng = np.random.default_rng(101)
    now = pose_at(1.0, -2.0, yaw=0.7, t=3.0)
    pasts = [
        pose_at(*rng.uniform(-5, 5, size=2), yaw=rng.uniform(-3, 3), t=t) for t in range(3)
    ]
    centers = rng.uniform(-10, 10, size=(3, 5, 3))
    out = align_centers(centers, now, pasts)
    for i, past in enumerate(pasts):
        now_from_past = rigid_inverse(now.world_from_ego) @ past.world_from_ego
        want = centers[i] @ now_from_past[:3, :3].T + now_from_past[:3, 3]
        assert np.array_equal(out[i], want)
    assert align_centers(np.zeros((0, 5, 3)), now, []).shape == (0, 5, 3)


def test_align_shape_checks():
    with pytest.raises(ValidationError):
        align_centers(np.zeros((1, 2, 2)), pose_at(), [pose_at()])
    with pytest.raises(ValidationError):
        align_centers(np.zeros((2, 3)), pose_at(), [pose_at()])
    with pytest.raises(ValidationError):
        align_centers(np.zeros((2, 2, 3)), pose_at(), [pose_at()])


def test_pose_rejects_non_rigid():
    bad = np.eye(4)
    bad[3, 0] = 1.0
    with pytest.raises(ValidationError):
        EgoPose(bad, 0.0)
