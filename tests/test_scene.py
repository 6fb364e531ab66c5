"""Synthetic scene generation and its on-disk serialization."""

import contextlib
import copy
import hashlib
import io
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statefuse import (
    SceneConfig,
    ValidationError,
    build_scene,
    camera_ring,
    feature_blob_bytes,
    load_scene,
    project_point,
    save_scene,
    scene_dumps,
    scene_from_dict,
    synth_features,
)
from statefuse.cli import cli_main
from statefuse.errors import field_value
from statefuse.scene import _FEATURE_SALT, scene_to_dict

SMALL = SceneConfig(n_frames=3, n_objects=4, n_cameras=3, image_size=(16, 24))


# --- generation ---

def test_scene_deterministic():
    a = scene_dumps(build_scene(SMALL))
    b = scene_dumps(build_scene(SMALL))
    assert a == b


def test_feature_blob_deterministic():
    scene = build_scene(SMALL)
    assert feature_blob_bytes(scene) == feature_blob_bytes(build_scene(SMALL))


def test_constant_velocity_tracks():
    cfg = SceneConfig(n_frames=4, n_objects=5, n_cameras=2, static_fraction=0.0)
    scene = build_scene(cfg)
    for track in scene.tracks:
        assert not track.is_static
        p0 = track.position_at(0.0)
        p1 = track.position_at(0.5)
        assert np.max(np.abs((p1 - p0) - track.velocity * 0.5)) <= 1e-12


def test_static_fraction_one_means_zero_velocity():
    cfg = SceneConfig(n_frames=2, n_objects=5, n_cameras=2, static_fraction=1.0)
    scene = build_scene(cfg)
    for track in scene.tracks:
        assert track.is_static
        assert np.array_equal(track.velocity, np.zeros(3))
    # world positions never move, so ego-frame centers obey the ego transform
    f0, f1 = scene.frames
    r1 = f1.ego_pose.world_from_ego[:3, :3]
    t1 = f1.ego_pose.world_from_ego[:3, 3]
    r0 = f0.ego_pose.world_from_ego[:3, :3]
    t0 = f0.ego_pose.world_from_ego[:3, 3]
    world = f0.object_centers @ r0.T + t0
    again = (world - t1) @ r1
    assert np.max(np.abs(again - f1.object_centers)) <= 1e-9


def test_noise_free_proposal_centers_exact():
    scene = build_scene(SMALL)  # center_noise_sigma defaults to 0
    for frame in scene.frames:
        for cam, props, ids in zip(
            scene.cameras, frame.proposals, frame.proposal_object_ids
        ):
            h, w = SMALL.image_size
            for prop, obj in zip(props, ids):
                u, v, depth = project_point(cam, frame.object_centers[obj])
                assert abs(prop.center[0] - u) <= 1e-12
                assert abs(prop.center[1] - v) <= 1e-12
                assert prop.category == frame.object_categories[obj]


def test_pixel_noise_moves_centers_within_the_image():
    """Noise perturbs each visible center on the image_size pixel scale,
    keeps it inside the image, and leaves the visible set unchanged."""
    sigma = 1.5
    noisy = build_scene(SceneConfig(**{**SMALL.to_dict(), "center_noise_sigma": sigma}))
    exact = build_scene(SMALL)
    h, w = SMALL.image_size
    shifts = []
    for f_noisy, f_exact in zip(noisy.frames, exact.frames):
        assert f_noisy.proposal_object_ids == f_exact.proposal_object_ids
        for props, truth in zip(f_noisy.proposals, f_exact.proposals):
            assert np.all((props.center >= 0.0) & (props.center <= 1.0))
            pixels = (props.center - truth.center) * np.array([w - 1, h - 1])
            assert np.all(np.abs(pixels) <= 6.0 * sigma)
            shifts.extend(np.abs(pixels).ravel())
    assert shifts and max(shifts) > 0.0


def test_proposal_depth_peak_brackets_truth():
    """Peaked mode puts the argmax bin at the true camera depth."""
    scene = build_scene(SMALL)
    bins = np.arange(60) * 1.0 + 1.5
    for frame in scene.frames:
        for cam, props, ids in zip(
            scene.cameras, frame.proposals, frame.proposal_object_ids
        ):
            for prop, obj in zip(props, ids):
                _, _, depth = project_point(cam, frame.object_centers[obj])
                peak = bins[int(np.argmax(prop.depth_dist))]
                assert abs(peak - depth) <= 0.5 + 1e-9


def test_exact_depth_mode_preserves_expectation():
    cfg = SceneConfig(
        n_frames=2, n_objects=4, n_cameras=3, depth_mode="exact", image_size=(16, 24)
    )
    scene = build_scene(cfg)
    bins = np.arange(60) * 1.0 + 1.5
    checked = 0
    for frame in scene.frames:
        for cam, props, ids in zip(
            scene.cameras, frame.proposals, frame.proposal_object_ids
        ):
            for prop, obj in zip(props, ids):
                _, _, depth = project_point(cam, frame.object_centers[obj])
                if bins[0] <= depth <= bins[-1]:
                    assert abs(float(prop.depth_dist @ bins) - depth) <= 1e-9
                    checked += 1
    assert checked > 0


def test_behind_camera_objects_are_skipped():
    cfg = SceneConfig(n_frames=1, n_objects=6, n_cameras=1, image_size=(16, 24))
    scene = build_scene(cfg)
    frame = scene.frames[0]
    cam = scene.cameras[0]
    listed = set(frame.proposal_object_ids[0])
    for obj in range(frame.n_objects):
        r = cam.extrinsic[:3, :3]
        t = cam.extrinsic[:3, 3]
        q = r @ frame.object_centers[obj] + t
        if q[2] <= 1e-6:
            assert obj not in listed
    # a single forward camera cannot see the whole ring of objects
    assert len(listed) < frame.n_objects


def test_every_listed_proposal_is_in_frustum():
    scene = build_scene(SMALL)
    for frame in scene.frames:
        for props in frame.proposals:
            for prop in props:
                assert 0.0 <= prop.center[0] <= 1.0
                assert 0.0 <= prop.center[1] <= 1.0


# --- feature maps ---

def test_features_deterministic_and_bounded():
    a = synth_features(1, 2, SMALL)
    b = synth_features(1, 2, SMALL)
    assert np.array_equal(a.data, b.data)
    assert a.data.dtype == np.float32
    assert float(np.max(np.abs(a.data))) <= 1.0


def four_d_features(frame_index, camera_id, cfg):
    """Oracle: the feature formula over a full (H, W, C, 4) wave array."""
    rng = np.random.default_rng([cfg.seed, _FEATURE_SALT, frame_index, camera_id])
    h, w = cfg.image_size
    c = cfg.feature_channels
    ax = rng.uniform(0.5, 2.5, size=(c, 4))
    ay = rng.uniform(0.5, 2.5, size=(c, 4))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(c, 4))
    ys = np.linspace(0.0, 1.0, h)[:, None, None, None]
    xs = np.linspace(0.0, 1.0, w)[None, :, None, None]
    waves = np.sin(2.0 * np.pi * (ax * xs + ay * ys) + phase)
    return waves.mean(axis=-1).astype(np.float32)


def test_features_match_four_d_formula():
    for size in ((2, 2), (3, 5), (16, 24), (17, 31), (48, 64)):
        for channels in (1, 3, 8, 13):
            for seed in (0, 5, 2**40):
                cfg = SceneConfig(image_size=size, feature_channels=channels, seed=seed)
                for frame_index, camera_id in ((0, 0), (3, 2)):
                    got = synth_features(frame_index, camera_id, cfg).data
                    want = four_d_features(frame_index, camera_id, cfg)
                    assert got.dtype == np.float32
                    assert np.array_equal(got, want), (size, channels, seed)


def test_default_scene_feature_blob_pinned():
    """The default scene's feature maps stay byte-identical to the recorded ones."""
    blob = feature_blob_bytes(build_scene(SceneConfig()))
    assert hashlib.sha256(blob).hexdigest() == (
        "c6e62b4babb9e9b8de413ff0265fadab0448fcd7cf7b6bf218ba53bf1e651792"
    )


def test_default_scene_json_pinned():
    """The default scene's JSON stays byte-identical to the recorded one."""
    text = scene_dumps(build_scene(SceneConfig()))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9cf63d583364abe08b3d30ad99899fc8298db126c0e37dc3a97e8fb9e0d235ba"
    )


def test_scene_json_round_trip_is_byte_equal():
    cfg = SceneConfig(n_objects=24, center_noise_sigma=1.5, seed=3)
    text = scene_dumps(build_scene(cfg))
    assert scene_dumps(scene_from_dict(json.loads(text))) == text


def test_features_differ_across_cameras_and_frames():
    base = synth_features(0, 0, SMALL)
    assert not np.array_equal(base.data, synth_features(0, 1, SMALL).data)
    assert not np.array_equal(base.data, synth_features(1, 0, SMALL).data)


# --- camera ring ---

def test_camera_ring_forward_camera():
    cams = camera_ring(6, focal=0.8, height=1.5)
    assert len(cams) == 6
    u, v, depth = project_point(cams[0], [10.0, 0.0, 1.5])
    assert abs(u - 0.5) <= 1e-12
    assert abs(v - 0.5) <= 1e-12
    assert abs(depth - 10.0) <= 1e-12


def test_camera_ring_rotational_symmetry():
    cams = camera_ring(4)
    p_fwd = np.array([8.0, 0.0, 1.0])
    p_left = np.array([0.0, 8.0, 1.0])
    a = project_point(cams[0], p_fwd)
    b = project_point(cams[1], p_left)
    assert np.max(np.abs(np.array(a) - np.array(b))) <= 1e-9


# --- serialization ---

def test_save_load_round_trip(tmp_path):
    scene = build_scene(SMALL)
    path = tmp_path / "scene.json"
    blob = tmp_path / "scene.features.f32"
    save_scene(scene, str(path), str(blob))
    assert blob.exists()
    assert blob.read_bytes() == feature_blob_bytes(scene)
    loaded = load_scene(str(path))
    assert scene_dumps(loaded) == scene_dumps(scene)
    assert feature_blob_bytes(loaded) == feature_blob_bytes(scene)
    # every map views the one write-protected blob array, uncopied
    bases = {id(fm.data.base) for fr in loaded.frames for fm in fr.feature_maps}
    assert len(bases) == 1 and not loaded.frames[0].feature_maps[0].data.base.flags.writeable


@pytest.mark.parametrize(
    "size",
    [200 * 2**20, 66, 63, 60, 0],
    ids=["sparse_200_MiB", "two_trailing_bytes", "one_byte_short", "one_value_short", "empty"],
)
def test_load_refuses_a_wrong_size_blob_before_reading_it(tmp_path, size):
    """A feature blob is sized in bytes before it is read: a 200 MiB sparse
    file behind a 16-value scene is refused without allocating its values,
    and so are two bytes past the last value, which make no value of their
    own, and a blob cut short by a byte, a value or all of it."""
    cfg = SceneConfig(n_frames=1, n_objects=1, n_cameras=1, image_size=(4, 4), feature_channels=1)
    path, blob = tmp_path / "scene.json", tmp_path / "scene.features.f32"
    save_scene(build_scene(cfg), str(path), str(blob))
    with open(blob, "r+b") as fh:
        fh.truncate(size)  # a longer file is sparse: no block is written
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError) as refused:
            load_scene(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"feature blob holds {size} bytes, shape needs 64"
    assert peak < 2**20


def test_load_without_blob_regenerates(tmp_path):
    scene = build_scene(SMALL)
    path = tmp_path / "scene.json"
    save_scene(scene, str(path))
    loaded = load_scene(str(path))
    assert feature_blob_bytes(loaded) == feature_blob_bytes(scene)


def test_scene_json_shape():
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    assert doc["config"]["n_frames"] == 3
    assert len(doc["frames"]) == 3
    assert len(doc["cameras"]) == 3


def test_loader_builds_each_array_once():
    """The arrays that cameras, poses, tracks and frames build from JSON
    lists are write-protected where they are built: ``readonly`` copies
    none of them.  A caller's writable array is still copied."""
    import inspect
    import tracemalloc

    from statefuse import numerics
    from statefuse.geometry import EgoPose

    lines, first = inspect.getsourcelines(numerics.readonly)
    copy_line = first + next(i for i, text in enumerate(lines) if "copy=True" in text)
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    pose = np.eye(4)
    tracemalloc.start()
    try:
        scene = scene_from_dict(doc)
        kept = EgoPose(pose, 0.0)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    data = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    copies = data.filter_traces([tracemalloc.Filter(True, numerics.__file__, copy_line)])
    assert [trace.size for trace in copies.traces] == [pose.nbytes]
    assert kept.world_from_ego is not pose
    fr, cam, track = scene.frames[0], scene.cameras[0], scene.tracks[0]
    arrays = (
        cam.intrinsic, cam.extrinsic, fr.ego_pose.world_from_ego, track.size, track.p0,
        track.velocity, fr.object_centers, fr.object_velocities, fr.object_categories,
        fr.object_sizes, fr.static_labels,
    )
    assert not any(arr.flags.writeable for arr in arrays)


def test_scene_from_dict_rejects_bad_format():
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    doc["format"] = "something-else"
    with pytest.raises(ValidationError):
        scene_from_dict(doc)


def test_scene_from_dict_rejects_camera_ids_out_of_position():
    """A proposal table's camera is its position, so each camera entry must
    carry the id of its position."""
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    doc["cameras"][2]["camera_id"] = 0
    with pytest.raises(ValidationError, match=r"^cameras\[2\]\.camera_id: expected 2"):
        scene_from_dict(doc)


@pytest.mark.parametrize("index", [-1, 3, 99, 1.0, True])
def test_scene_from_dict_rejects_frame_index_out_of_range(index):
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    doc["frames"][1]["frame_index"] = index
    with pytest.raises(ValidationError, match=r"^frames\[1\]\.frame_index: expected an integer"):
        scene_from_dict(doc)


def test_scene_from_dict_rejects_frame_indices_out_of_position():
    """Both frames once got frame 0's feature maps."""
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    doc["frames"][1]["frame_index"] = 0
    with pytest.raises(ValidationError, match=r"^frames\[1\]\.frame_index: expected .* its position 1, got 0$"):
        scene_from_dict(doc)


def test_scene_from_dict_rejects_fewer_tracks_than_objects():
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    doc["tracks"].pop()
    with pytest.raises(ValidationError, match=r"^tracks: 3 entries, the config says 4$"):
        scene_from_dict(doc)


def test_scene_from_dict_rejects_frames_with_fewer_object_rows_than_objects():
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    frame = doc["frames"][2]
    for key in ("object_centers", "object_velocities", "object_categories", "object_sizes",
                "static_labels"):
        frame[key].pop()
    kept = [  # the proposals of objects 0 to 2, with their ids
        [(p, i) for p, i in zip(props, ids) if i < 3]
        for props, ids in zip(frame["proposals"], frame["proposal_object_ids"])
    ]
    frame["proposals"] = [[p for p, _ in cam] for cam in kept]
    frame["proposal_object_ids"] = [[i for _, i in cam] for cam in kept]
    with pytest.raises(
        ValidationError, match=r"^frames\[2\]\.object_centers: 3 rows, the config says 4 objects$"
    ):
        scene_from_dict(doc)


@pytest.mark.parametrize(
    "path, value, message",
    [
        ("tracks/0/size/0", "0.5", r"^tracks\[0\]: size: expected an array of floats shaped \(3,\)"),
        ("tracks/0/p0/0", True, r"^tracks\[0\]: p0: expected an array of floats"),
        ("frames/0/object_categories/0", 0.5, r"^frames\[0\]: object_categories: expected an array of ints"),
        ("frames/0/static_labels/0", None, r"^frames\[0\]: static_labels: expected an array of bools"),
        ("cameras/0/intrinsic/0/0", "0.5", r"^cameras\[0\]: intrinsic: expected an array of floats"),
        ("frames/0/proposal_object_ids/0/0", 0.5, r"^frames\[0\]: proposal_object_ids: expected"),
        ("frames/0/proposals/0/0/score", "1.0", r"^frames\[0\]\.proposals\[0\]\[0\]\.score: expected numbers, got '1.0'$"),
        ("frames/0/proposals/0/0/center/0", True, r"^frames\[0\]\.proposals\[0\]\[0\]\.center: expected numbers"),
    ],
)
def test_scene_from_dict_takes_numbers_only_in_array_fields(path, value, message):
    """Each of these once loaded as a number: 0.5, 1.0, 0, False, 0.5, 0, 1.0 and 1.0."""
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    *keys, last = [int(k) if k.isdigit() else k for k in path.split("/")]
    parent = doc
    for key in keys:
        parent = parent[key]
    parent[last] = value
    with pytest.raises(ValidationError, match=message):
        scene_from_dict(doc)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("frames/1/timestamp", "0.5", r"^frames\[1\]: timestamp: expected a value like float"),
        ("frames/1/timestamp", True, r"^frames\[1\]: timestamp: expected a value like float"),
        ("tracks/0/is_static", "no", r"^tracks\[0\]: is_static: expected a value like bool"),
        ("tracks/0/object_id", "3", r"^tracks\[0\]: object_id: expected a value like int"),
        ("tracks/0/category", 1.7, r"^tracks\[0\]: category: expected a value like int"),
        ("cameras/1/camera_id", True, r"^cameras\[1\]\.camera_id: expected 1, its position"),
    ],
)
def test_scene_from_dict_coerces_no_scalar(key, value, message):
    """Each of these once loaded as 0.5, 1.0, True, 3, 1 and 1."""
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    section, index, field = key.split("/")
    doc[section][int(index)][field] = value
    with pytest.raises(ValidationError, match=message + f", got {re.escape(repr(value))}$"):
        scene_from_dict(doc)


@pytest.mark.parametrize("edit", [lambda ids: ids.pop(), lambda ids: ids.__setitem__(0, 99)])
def test_scene_from_dict_rejects_object_ids_that_miss_proposals(edit):
    doc = json.loads(scene_dumps(build_scene(SMALL)))
    edit(next(ids for ids in doc["frames"][0]["proposal_object_ids"] if ids))
    with pytest.raises(ValidationError, match=r"^frames\[0\]: proposal_object_ids must name"):
        scene_from_dict(doc)


def test_scene_from_dict_rejects_features_of_another_shape():
    scene = build_scene(SMALL)
    doc = json.loads(scene_dumps(scene))
    blob = np.frombuffer(feature_blob_bytes(scene), dtype="<f4")
    h, w = SMALL.image_size
    swapped = blob.reshape(3, 3, w, h, SMALL.feature_channels)
    with pytest.raises(ValidationError, match=r"^features\.shape: the config needs \[3, 3, 16,"):
        scene_from_dict(doc, swapped)
    assert scene_dumps(scene_from_dict(doc, blob.reshape(3, 3, h, w, -1))) == scene_dumps(scene)


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"n_frames": "eight"}, r"^n_frames: expected a value like 8, got 'eight'"),
        ({"n_frames": 8.0}, r"^n_frames: expected"),
        ({"n_cameras": True}, r"^n_cameras: expected"),
        ({"frame_dt": "0.5"}, r"^frame_dt: expected"),
        ({"image_size": [48]}, r"^image_size: expected a value like \(48, 64\)"),
        ({"image_size": [48.0, 64]}, r"^image_size: expected"),
        ({"depth_mode": 1}, r"^depth_mode: expected"),
        ({"seed": -1}, r"^seed: expected an int >= 0, got -1$"),
    ],
)
def test_config_from_dict_names_the_bad_key(raw, message):
    with pytest.raises(ValidationError, match=message):
        SceneConfig.from_dict(raw)


def test_config_from_dict_takes_integers_for_float_fields():
    cfg = SceneConfig.from_dict({"frame_dt": 1, "speed_range": [2, 6], "image_size": [8, 9]})
    assert cfg.frame_dt == 1.0 and cfg.speed_range == (2.0, 6.0) and cfg.image_size == (8, 9)


# --- fuzzed scene documents ---

FUZZ_CFG = SceneConfig(n_frames=2, n_objects=3, n_cameras=2, image_size=(4, 6), feature_channels=2)
FUZZ_SCENE = build_scene(FUZZ_CFG)
FUZZ_DOC = json.loads(scene_dumps(FUZZ_SCENE, "fuzz.f32"))


def doc_paths(node, path=()):
    """Every path into a JSON document; of an array of numbers only the
    array and its first entry."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from doc_paths(value, path + (key,))
    elif isinstance(node, list):
        numbers = all(isinstance(v, (int, float)) for v in node)
        for i, value in enumerate(node[:1] if numbers else node):
            yield from doc_paths(value, path + (i,))


FUZZ_PATHS = list(doc_paths(FUZZ_DOC))
DROP = "<drop>"
# no large positive integers: a config count or size that large would
# allocate (or loop) before any check that could refuse it
REPLACEMENTS = [
    DROP, None, True, "x", "0.5", "3", "no", [], {}, [1], [[0.5]], 5, 0, 1, -1, -(2**40),
    0.5, -0.5, 1.0, 2.5, 1e300, -1e300, math.nan, math.inf,
]
# Scalar fields of the document, (section, key) -> type under the config field rule
SCALAR_FIELDS = {
    ("cameras", "camera_id"): int,
    ("tracks", "object_id"): int,
    ("tracks", "category"): int,
    ("tracks", "is_static"): bool,
    ("frames", "frame_index"): int,
    ("frames", "timestamp"): float,
}


def fits(value, kind) -> bool:
    try:
        field_value("value", value, kind)
    except ValidationError:
        return False
    return True


def mutate(doc, path, new):
    """A copy of ``doc`` whose value at ``path`` is dropped or replaced."""
    doc = copy.deepcopy(doc)
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def same(a, b) -> bool:
    """Equal JSON values, where a bool equals only a bool."""
    if isinstance(a, dict) or isinstance(b, dict):
        return type(a) is type(b) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) or isinstance(b, list):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    return isinstance(a, bool) == isinstance(b, bool) and a == b


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(FUZZ_PATHS), new=st.sampled_from(REPLACEMENTS))
def test_mutated_scene_documents_raise_only_validation_errors(path, new):
    """A scalar field takes no value of another kind, and a document that
    loads writes back as itself: no field coerces a value into another."""
    kind = SCALAR_FIELDS.get((path[0], path[-1])) if len(path) == 3 else None
    doc = mutate(FUZZ_DOC, path, new)
    try:
        scene = scene_from_dict(doc)
    except ValidationError as exc:
        assert "\n" not in str(exc)
    else:
        assert kind is None or fits(new, kind), (path, new)
        back = scene_to_dict(scene)
        back.pop("features")
        doc.pop("features", None)
        doc["config"] = {**SceneConfig().to_dict(), **doc["config"]}  # an absent key is its default
        assert same(back, doc), (path, new)


@settings(
    max_examples=25, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(path=st.sampled_from(FUZZ_PATHS), new=st.sampled_from(REPLACEMENTS))
def test_mutated_scene_documents_exit_0_or_3(tmp_path, path, new):
    """Through ``statefuse run``: exit 0, or exit 3 with one line and no warning."""
    (tmp_path / "fuzz.f32").write_bytes(feature_blob_bytes(FUZZ_SCENE))
    doc = tmp_path / "scene.json"
    doc.write_text(json.dumps(mutate(FUZZ_DOC, path, new)), encoding="utf-8")
    err = io.StringIO()
    with (
        warnings.catch_warnings(),
        contextlib.redirect_stderr(err),
        contextlib.redirect_stdout(io.StringIO()),
    ):
        warnings.simplefilter("error")
        code = cli_main(
            ["run", "--scene", str(doc), "--weights", "seed:1", "--out", str(tmp_path / "o.csv")]
        )
    assert code in (0, 3), err.getvalue()
    assert len(err.getvalue().splitlines()) == (code == 3)


def test_config_validation():
    with pytest.raises(ValidationError):
        SceneConfig(n_frames=0)
    with pytest.raises(ValidationError):
        SceneConfig(static_fraction=1.5)
    with pytest.raises(ValidationError):
        SceneConfig(depth_mode="fuzzy")
    with pytest.raises(ValidationError):
        SceneConfig.from_dict({"n_frames": 2, "bogus": 1})
