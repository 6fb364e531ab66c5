"""Deterministic synthetic driving scenes for end-to-end checks.

A scene holds constant-velocity object tracks in a world frame, an ego
vehicle following a piecewise-constant yaw-rate-and-speed trajectory, and a
ring of evenly spaced cameras.  Every frame carries ego-frame object states,
oracle 2D proposals (true projections plus optional pixel noise), and
procedurally generated feature maps.  Everything derives from the config
seed, so regeneration is bit-for-bit reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import (
    Array, BehindCameraError, Bound, Config, Record, ValidationError, checked, frozen,
)
from .geometry import CameraModel, EgoPose, project_point
from .queries import PROPOSAL_FIELDS, FeatureMap, default_depth_bins, proposal_tables

SCENE_FORMAT = "statefuse-scene/1"
FEATURE_DTYPE = "<f4"

_EGO_SALT = 0xE9
_TRACK_SALT = 0x72
_PROPOSAL_SALT = 0x9F
_FEATURE_SALT = 0xFE

EGO_SPEED_RANGE = (1.0, 3.0)
EGO_YAW_RATE_RANGE = (-0.15, 0.15)
EGO_SEGMENT_FRAMES = 4


@dataclass(frozen=True)
class SceneConfig(Config):
    n_frames: Bound[int, ">=", 1] = 8
    frame_dt: Bound[float, ">", 0] = 0.5
    n_objects: Bound[int, ">=", 1] = 6
    n_cameras: Bound[int, ">=", 1] = 6
    image_size: tuple[Bound[int, ">=", 2], Bound[int, ">=", 2]] = (48, 64)
    feature_channels: Bound[int, ">=", 1] = 8
    speed_range: tuple[Bound[float, ">=", 0], Bound[float, ">=", 0]] = (2.0, 6.0)
    static_fraction: Bound[float, ">=", 0, "<=", 1] = 0.5
    center_noise_sigma: Bound[float, ">=", 0] = 0.0
    seed: Bound[int, ">=", 0] = 0
    depth_mode: Literal["peaked", "exact"] = "peaked"
    focal: Bound[float, ">", 0] = 0.8
    camera_height: float = 1.5
    radius_range: tuple[Bound[float, ">", 0], Bound[float, ">", 0]] = (8.0, 30.0)
    n_categories: Bound[int, ">=", 1] = 4

    def __post_init__(self):
        super().__post_init__()
        for name in ("speed_range", "radius_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValidationError(f"{name}: expected lo <= hi, got {(lo, hi)}")


@dataclass(frozen=True)
class ObjectTrack(Record):
    """Constant-velocity world-frame track; static means exactly zero velocity."""

    object_id: int
    category: int
    size: Array[Bound[float, ">", 0], 3]
    p0: Array[float, 3]
    velocity: Array[float, 3]
    is_static: bool

    def __post_init__(self):
        super().__post_init__()
        if self.is_static != (not self.velocity.any()):
            raise ValidationError("is_static must match a zero velocity exactly")

    @checked
    def position_at(self, t: float) -> np.ndarray:
        return self.p0 + self.velocity * t


@dataclass(frozen=True)
class SceneFrame(Record):
    """One time step: ego pose, ego-frame object states, proposals, features.

    ``proposals`` holds one proposal table per camera, as
    :func:`~statefuse.queries.proposal_tables` builds them, kept as given;
    ``proposal_object_ids`` holds one tuple per camera of the tracks that
    produced each proposal (ground-truth provenance).
    """

    frame_index: int
    ego_pose: EgoPose
    object_centers: Array[float, "N", 3]
    object_velocities: Array[float, "N", 3]
    object_categories: Array[int, "N"]
    object_sizes: Array[float, "N", 3]
    static_labels: Array[bool, "N"]
    feature_maps: tuple[FeatureMap, ...]
    proposals: tuple[np.recarray, ...]
    proposal_object_ids: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        super().__post_init__()
        ids, tables = self.proposal_object_ids, self.proposals
        if not len(ids) == len(tables) == len(self.feature_maps):
            raise ValidationError("per-camera tuples must share one length")
        n = self.n_objects
        if any(
            len(cam_ids) != len(table) or not all(0 <= i < n for i in cam_ids)
            for cam_ids, table in zip(ids, tables)
        ):
            raise ValidationError("proposal_object_ids must name one object per proposal")

    @property
    def n_objects(self) -> int:
        return self.object_centers.shape[0]


@dataclass(frozen=True)
class Scene(Record):
    """Cameras, tracks and frames, as many of each as the config says, and
    in each frame one row of object states per track."""

    config: SceneConfig
    cameras: tuple[CameraModel, ...]
    tracks: tuple[ObjectTrack, ...]
    frames: tuple[SceneFrame, ...]

    def __post_init__(self):
        super().__post_init__()
        cfg = self.config
        _check_counts({"cameras": self.cameras, "tracks": self.tracks, "frames": self.frames}, cfg)
        for i, frame in enumerate(self.frames):
            if frame.n_objects != cfg.n_objects:
                raise ValidationError(
                    f"frames[{i}].object_centers: {frame.n_objects} rows, "
                    f"the config says {cfg.n_objects} objects"
                )


def _check_counts(entries: dict, cfg: SceneConfig) -> None:
    """Refuse a scene's ``entries`` when it holds other numbers of cameras,
    tracks or frames than ``cfg`` says."""
    counts = {"cameras": cfg.n_cameras, "tracks": cfg.n_objects, "frames": cfg.n_frames}
    for key, n in counts.items():
        if len(entries[key]) != n:
            raise ValidationError(f"{key}: {len(entries[key])} entries, the config says {n}")


def _yaw_rotation(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@checked
def camera_ring(
    n_cameras: Bound[int, ">=", 1], focal: Bound[float, ">", 0] = 0.8, height: float = 1.5
) -> tuple:
    """Evenly spaced horizontal camera ring centered on the ego origin.

    Camera i yaws by i * 360 / n degrees from ego forward.  Intrinsics are
    in normalized image units, the principal point at the image center:
    in-view points project into [0, 1] x [0, 1].
    """
    cams = []
    intrinsic = np.array([[focal, 0.0, 0.5], [0.0, focal, 0.5], [0.0, 0.0, 1.0]])
    for i in range(n_cameras):
        theta = 2.0 * np.pi * i / n_cameras
        forward = np.array([np.cos(theta), np.sin(theta), 0.0])
        right = np.array([np.sin(theta), -np.cos(theta), 0.0])
        down = np.array([0.0, 0.0, -1.0])
        r = np.stack([right, down, forward])  # rows are camera axes in ego coords
        extrinsic = np.eye(4)
        extrinsic[:3, :3] = r
        extrinsic[:3, 3] = -r @ np.array([0.0, 0.0, height])
        cams.append(CameraModel(intrinsic, extrinsic, camera_id=i))
    return tuple(cams)


def _ego_poses(cfg: SceneConfig) -> list:
    rng = np.random.default_rng([cfg.seed, _EGO_SALT])
    n_segments = -(-cfg.n_frames // EGO_SEGMENT_FRAMES)
    yaw_rates = rng.uniform(*EGO_YAW_RATE_RANGE, size=n_segments)
    speeds = rng.uniform(*EGO_SPEED_RANGE, size=n_segments)
    yaw = 0.0
    pos = np.zeros(3)
    poses = []
    for k in range(cfg.n_frames):
        r = _yaw_rotation(yaw)
        t = np.eye(4)
        t[:3, :3] = r
        t[:3, 3] = pos
        poses.append(EgoPose(t, k * cfg.frame_dt))
        seg = k // EGO_SEGMENT_FRAMES
        pos = pos + r @ np.array([speeds[seg] * cfg.frame_dt, 0.0, 0.0])
        yaw += yaw_rates[seg] * cfg.frame_dt
    return poses


def _make_tracks(cfg: SceneConfig) -> tuple:
    rng = np.random.default_rng([cfg.seed, _TRACK_SALT])
    n_static = round(cfg.static_fraction * cfg.n_objects)
    tracks = []
    for i in range(cfg.n_objects):
        angle = 2.0 * np.pi * i / cfg.n_objects + rng.uniform(-0.1, 0.1)
        radius = rng.uniform(*cfg.radius_range)
        p0 = np.array(
            [radius * np.cos(angle), radius * np.sin(angle), rng.uniform(0.6, 1.2)]
        )
        size = rng.uniform((3.5, 1.6, 1.4), (5.0, 2.0, 1.8))
        heading = rng.uniform(0.0, 2.0 * np.pi)
        speed = rng.uniform(*cfg.speed_range)
        if i < n_static:
            velocity = np.zeros(3)
        else:
            velocity = speed * np.array([np.cos(heading), np.sin(heading), 0.0])
        tracks.append(
            ObjectTrack(
                object_id=i,
                category=i % cfg.n_categories,
                size=size,
                p0=p0,
                velocity=velocity,
                is_static=i < n_static,
            )
        )
    return tuple(tracks)


@checked
def synth_features(
    frame_index: Bound[int, ">=", 0], camera_id: Bound[int, ">=", 0], cfg: SceneConfig
) -> FeatureMap:
    """Procedural feature map: per channel, a mean of low-frequency sinusoids.

    Values lie in [-1, 1] and are stored as float32.  The map is a pure
    function of (config seed, frame index, camera id).
    """
    rng = np.random.default_rng([cfg.seed, _FEATURE_SALT, frame_index, camera_id])
    h, w = cfg.image_size
    c = cfg.feature_channels
    n_wave = 4
    ax = rng.uniform(0.5, 2.5, size=(c, n_wave))
    ay = rng.uniform(0.5, 2.5, size=(c, n_wave))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(c, n_wave))
    ys = np.linspace(0.0, 1.0, h)[:, None, None, None]
    xs = np.linspace(0.0, 1.0, w)[None, :, None, None]
    # sin(2 pi (ax x + ay y) + phase), built in one (h, w, c, 4) buffer; the
    # operations and their order are those of the plain expression, and the
    # mean adds the four waves left to right as numpy's mean over them does.
    waves = np.multiply(ax, xs, out=np.empty((h, w, c, n_wave)))
    waves += ay * ys
    waves *= 2.0 * np.pi
    waves += phase
    np.sin(waves, out=waves)
    total = waves[..., 0] + waves[..., 1]
    total += waves[..., 2]
    total += waves[..., 3]
    total /= n_wave
    return FeatureMap(frozen(total.astype(np.float32)))


def _depth_distribution(depth: float, bins: np.ndarray, mode: str) -> np.ndarray:
    n = bins.size
    width = bins[1] - bins[0] if n > 1 else 1.0
    w = np.zeros(n)
    if mode == "peaked":
        # 0.8 on the bin containing the true depth, 0.1 on each neighbor.
        i = int(np.clip(np.round((depth - bins[0]) / width), 0, n - 1))
        w[i] = 0.8
        if i - 1 >= 0:
            w[i - 1] = 0.1
        if i + 1 < n:
            w[i + 1] = 0.1
        w /= w.sum()
    else:  # "exact", the one other mode SceneConfig takes
        # Split mass across the two bracketing bins so the expectation
        # reproduces the true depth exactly (saturates at the range ends).
        if depth <= bins[0]:
            w[0] = 1.0
        elif depth >= bins[-1]:
            w[-1] = 1.0
        else:
            j = int(np.clip((depth - bins[0]) // width, 0, n - 2))
            frac = (depth - bins[j]) / (bins[j + 1] - bins[j])
            w[j] = 1.0 - frac
            w[j + 1] = frac
    return w


def _frame_proposals(
    centers: np.ndarray,
    categories: np.ndarray,
    sizes: np.ndarray,
    cams: tuple,
    frame_index: int,
    cfg: SceneConfig,
    bins: np.ndarray,
):
    rng = np.random.default_rng([cfg.seed, _PROPOSAL_SALT, frame_index])
    noise_sigma = cfg.center_noise_sigma
    per_cam_rows = []
    per_cam_ids = []
    for cam in cams:
        rows = []
        ids = []
        for obj in range(centers.shape[0]):
            try:
                u, v, depth = project_point(cam, centers[obj])
            except BehindCameraError:
                continue
            if not (0.0 <= u <= 1.0 and 0.0 <= v <= 1.0):
                continue
            if noise_sigma > 0.0:
                h, w = cfg.image_size
                u = float(np.clip(u + rng.normal(0.0, noise_sigma / (w - 1)), 0.0, 1.0))
                v = float(np.clip(v + rng.normal(0.0, noise_sigma / (h - 1)), 0.0, 1.0))
            fx = cam.intrinsic[0, 0]
            fy = cam.intrinsic[1, 1]
            box = (
                min(1.0, sizes[obj, 0] * fx / depth),
                min(1.0, sizes[obj, 2] * fy / depth),
            )
            rows.append(
                {
                    "center": (u, v),
                    "box": box,
                    "category": int(categories[obj]),
                    "score": 1.0,
                    "depth_dist": _depth_distribution(depth, bins, cfg.depth_mode),
                }
            )
            ids.append(obj)
        per_cam_rows.append(rows)
        per_cam_ids.append(tuple(ids))
    return proposal_tables(per_cam_rows), tuple(per_cam_ids)


def slot_count(frames) -> int:
    """K, the query slots a window of frames needs: the most proposals that
    any one of its frames holds."""
    return max(sum(len(table) for table in fr.proposals) for fr in frames)


def build_scene(cfg: SceneConfig) -> Scene:
    """Generate the full deterministic scene for a config."""
    cams = camera_ring(cfg.n_cameras, cfg.focal, height=cfg.camera_height)
    tracks = _make_tracks(cfg)
    poses = _ego_poses(cfg)
    bins = default_depth_bins()
    world_p0 = np.stack([tr.p0 for tr in tracks])
    world_v = np.stack([tr.velocity for tr in tracks])
    categories = np.array([tr.category for tr in tracks])
    sizes = np.stack([tr.size for tr in tracks])
    labels = np.array([tr.is_static for tr in tracks])
    frames = []
    for k in range(cfg.n_frames):
        t = k * cfg.frame_dt
        pose = poses[k]
        r = pose.world_from_ego[:3, :3]
        origin = pose.world_from_ego[:3, 3]
        world_centers = world_p0 + world_v * t
        centers_ego = (world_centers - origin) @ r
        velocities_ego = world_v @ r
        feature_maps = tuple(
            synth_features(k, cam_id, cfg) for cam_id in range(cfg.n_cameras)
        )
        proposals, proposal_ids = _frame_proposals(
            centers_ego, categories, sizes, cams, k, cfg, bins
        )
        frames.append(
            SceneFrame(
                frame_index=k,
                ego_pose=pose,
                object_centers=centers_ego,
                object_velocities=velocities_ego,
                object_categories=categories,
                object_sizes=sizes,
                static_labels=labels,
                feature_maps=feature_maps,
                proposals=proposals,
                proposal_object_ids=proposal_ids,
            )
        )
    return Scene(cfg, cams, tracks, tuple(frames))


# === serialization ===

# The keys of a track object, ObjectTrack's fields, and the per-object
# arrays of a frame object, in the order the document writes them.
_TRACK_KEYS = tuple(f.name for f in dataclasses.fields(ObjectTrack))
_OBJECT_KEYS = (
    "object_centers", "object_velocities", "object_categories", "object_sizes", "static_labels"
)


def _plain(value):
    """``value`` as JSON takes it: an array as nested lists."""
    return value.tolist() if isinstance(value, np.ndarray) else value


def _feature_shape(cfg: SceneConfig) -> tuple:
    """(n_frames, n_cameras, H, W, C): the shape of a scene's feature maps."""
    return (cfg.n_frames, cfg.n_cameras, *cfg.image_size, cfg.feature_channels)


def scene_to_dict(scene: Scene, features_path: str | None = None) -> dict:
    return {
        "format": SCENE_FORMAT,
        "config": scene.config.to_dict(),
        "cameras": [
            {
                "camera_id": cam.camera_id,
                "intrinsic": cam.intrinsic.tolist(),
                "extrinsic": cam.extrinsic.tolist(),
            }
            for cam in scene.cameras
        ],
        "tracks": [
            {key: _plain(getattr(tr, key)) for key in _TRACK_KEYS} for tr in scene.tracks
        ],
        "frames": [
            {
                "frame_index": fr.frame_index,
                "timestamp": fr.ego_pose.timestamp,
                "world_from_ego": fr.ego_pose.world_from_ego.tolist(),
                **{key: getattr(fr, key).tolist() for key in _OBJECT_KEYS},
                "proposals": [
                    [
                        dict(zip(PROPOSAL_FIELDS, row))
                        for row in zip(*(table[key].tolist() for key in PROPOSAL_FIELDS))
                    ]
                    for table in fr.proposals
                ],
                "proposal_object_ids": [list(ids) for ids in fr.proposal_object_ids],
            }
            for fr in scene.frames
        ],
        "features": {
            "dtype": FEATURE_DTYPE,
            "shape": list(_feature_shape(scene.config)),
            "path": features_path,
        },
    }


def scene_dumps(scene: Scene, features_path: str | None = None) -> str:
    """Serialize to JSON text; float repr keeps every value lossless."""
    return json.dumps(scene_to_dict(scene, features_path), indent=1) + "\n"


def feature_blob_bytes(scene: Scene) -> bytes:
    """Raw little-endian float32 block shaped (n_frames, n_cams, H, W, C)."""
    stacked = np.stack(
        [np.stack([fm.data for fm in fr.feature_maps]) for fr in scene.frames]
    )
    return np.ascontiguousarray(stacked.astype(FEATURE_DTYPE)).tobytes()


def save_scene(scene: Scene, path: str, features_path: str | None = None) -> None:
    """Write the scene JSON, plus the optional raw feature blob."""
    rel = None
    if features_path is not None:
        with open(features_path, "wb") as fh:
            fh.write(feature_blob_bytes(scene))
        rel = os.path.relpath(features_path, os.path.dirname(os.path.abspath(path)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_dumps(scene, rel))


def _get(obj, key: str, path: str, kind: type = object):
    """``obj[key]``, where ``obj`` is the JSON object at ``path`` ("" for the
    document) and the value must be a ``kind``; anything else raises a
    ValidationError naming the path."""
    where = f"{path}.{key}" if path else key
    if not isinstance(obj, dict):
        raise ValidationError(f"{path or 'document'}: expected an object, got {obj!r:.40}")
    if key not in obj:
        raise ValidationError(f"{where}: missing")
    if not isinstance(obj[key], kind):
        raise ValidationError(f"{where}: expected a {kind.__name__}, got {obj[key]!r:.40}")
    return obj[key]


@contextmanager
def _at(path: str):
    """Name the JSON path ``path`` in the error a malformed value raises."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:  # ValidationError is a ValueError
        raise ValidationError(f"{path}: {exc}") from None


def scene_from_dict(doc: dict, features: np.ndarray | None = None) -> Scene:
    """The scene a document in :func:`scene_to_dict`'s layout describes.

    ``features``, when given, holds every feature map as one
    (n_frames, n_cameras, H, W, C) block; otherwise the maps are
    regenerated from the config seed.  A malformed document raises
    :class:`ValidationError` naming the JSON path of the first bad value.
    """
    if not isinstance(doc, dict) or doc.get("format") != SCENE_FORMAT:
        raise ValidationError(f"not a scene document (expected format {SCENE_FORMAT!r})")
    raw_cfg = _get(doc, "config", "")
    with _at("config"):
        cfg = SceneConfig.from_dict(raw_cfg)
    if features is not None:
        shape = _feature_shape(cfg)
        if features.shape != shape:
            raise ValidationError(
                f"features.shape: the config needs {list(shape)}, got {list(features.shape)}"
            )
    docs = {key: _get(doc, key, "", list) for key in ("cameras", "tracks", "frames")}
    _check_counts(docs, cfg)  # before a feature map is made for the frames
    cams = []
    for c, cam in enumerate(docs["cameras"]):
        at = f"cameras[{c}]"
        camera_id = _get(cam, "camera_id", at)
        if type(camera_id) is not int or camera_id != c:  # true and 1.0 are no ids
            raise ValidationError(
                f"{at}.camera_id: expected {c}, its position, got {camera_id!r:.40}"
            )
        intrinsic, extrinsic = _get(cam, "intrinsic", at), _get(cam, "extrinsic", at)
        with _at(at):
            cams.append(CameraModel(intrinsic, extrinsic, c))
    tracks = []
    for j, track in enumerate(docs["tracks"]):
        at = f"tracks[{j}]"
        fields = {key: _get(track, key, at) for key in _TRACK_KEYS}
        with _at(at):
            tracks.append(ObjectTrack(**fields))
    frames = []
    for i, fr in enumerate(docs["frames"]):
        at = f"frames[{i}]"
        idx = _get(fr, "frame_index", at)
        if type(idx) is not int or idx != i:  # a frame's maps are those of its position
            raise ValidationError(
                f"{at}.frame_index: expected an integer, its position {i}, got {idx!r:.40}"
            )
        keys = ("timestamp", "world_from_ego", *_OBJECT_KEYS, "proposal_object_ids")
        fields = {key: _get(fr, key, at) for key in keys}
        proposals = proposal_tables(_get(fr, "proposals", at), f"{at}.proposals")
        with _at(at):
            if features is not None:
                maps = tuple(FeatureMap(features[i, c]) for c in range(cfg.n_cameras))
            else:
                maps = tuple(synth_features(i, c, cfg) for c in range(cfg.n_cameras))
            pose = EgoPose(fields.pop("world_from_ego"), fields.pop("timestamp"))
            frames.append(
                SceneFrame(
                    frame_index=i,
                    ego_pose=pose,
                    feature_maps=maps,
                    proposals=proposals,
                    **fields,
                )
            )
    return Scene(cfg, cams, tracks, frames)


def load_scene(path: str) -> Scene:
    """Read a scene JSON; features come from the blob when one is referenced.

    Without a blob the maps are regenerated from the config seed, which
    produces identical values.  The blob must hold the config's
    (n_frames, n_cameras, H, W, C) float32 maps.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or invalid UTF-8
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    features = None
    info = doc.get("features") if isinstance(doc, dict) else None
    if info is not None and not isinstance(info, dict):
        raise ValidationError(f"features: expected an object, got {info!r:.40}")
    blob_path = (info or {}).get("path")
    if blob_path is not None:
        if not isinstance(blob_path, str):
            raise ValidationError(f"features.path: expected a string, got {blob_path!r:.40}")
        shape = _get(info, "shape", "features", list)
        if not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
        ):
            raise ValidationError(f"features.shape: expected a list of sizes, got {shape!r:.40}")
        dtype = info.get("dtype", FEATURE_DTYPE)
        if dtype != FEATURE_DTYPE:
            raise ValidationError(f"feature blob dtype must be {FEATURE_DTYPE!r}, got {dtype!r}")
        resolved = os.path.join(os.path.dirname(os.path.abspath(path)), blob_path)
        with open(resolved, "rb") as blob:
            held = os.fstat(blob.fileno()).st_size
            expected = math.prod(shape) * np.dtype(FEATURE_DTYPE).itemsize
            if held != expected:  # sized before a value is read
                raise ValidationError(f"feature blob holds {held} bytes, shape needs {expected}")
            raw = np.fromfile(blob, dtype=FEATURE_DTYPE)
        features = frozen(raw).reshape(shape)  # maps view it without a copy
    return scene_from_dict(doc, features)
