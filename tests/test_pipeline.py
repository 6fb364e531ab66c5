"""End-to-end pipeline: op counts, fusion wiring, decode, serialization."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from statefuse import (
    MotionElimConfig,
    NumericOverflowError,
    PipelineDims,
    PipelineWeights,
    SceneConfig,
    ValidationError,
    build_scene,
    channel_concat,
    decode_current_frame,
    load_weights,
    op_count_cross_attention,
    op_count_ssm,
    pad_frames,
    run_pipeline,
    run_pipeline_detailed,
    run_report_csv,
    save_weights,
)
from statefuse.pipeline import (
    _weight_arrays,
    _weight_shapes,
    weights_from_bytes,
    weights_to_bytes,
)

SCENE = SceneConfig(
    n_frames=4, n_objects=4, n_cameras=3, image_size=(16, 24), depth_mode="exact"
)


def scene_and_weights(cfg=SCENE, seed=5, box_mode="bypass", zero_fusion=False):
    scene = build_scene(cfg)
    k = max(
        sum(len(props) for props in frame.proposals) for frame in scene.frames
    )
    dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
    w = PipelineWeights.from_seed(seed, dims, box_mode, zero_fusion=zero_fusion)
    return scene, w


# --- op count formulas ---

def test_cross_attention_op_count_values():
    assert op_count_cross_attention(1, 1, 1) == 6
    assert op_count_cross_attention(2, 3, 4) == 1248


def test_ssm_op_count_values():
    assert op_count_ssm(1, 1, 1, 16) == 128
    assert op_count_ssm(2, 3, 4, 16) == 1536


def test_cross_attention_quadratic_term():
    k, d = 4, 16
    linear = 4 * (k * d) ** 2
    for n in (8, 64, 512):
        quad = op_count_cross_attention(n, k, d) - n * linear
        quad2 = op_count_cross_attention(2 * n, k, d) - 2 * n * linear
        assert quad2 == 4 * quad


def test_ssm_op_count_linear_in_n():
    for n in (1, 7, 32, 900):
        per = op_count_ssm(1, 3, 5, 16)
        assert op_count_ssm(n, 3, 5, 16) == n * per


def test_op_counts_reject_bad_dims():
    with pytest.raises(ValidationError):
        op_count_cross_attention(0, 1, 1)
    with pytest.raises(ValidationError):
        op_count_ssm(1, 1, 0)


# --- fused layout ---

def test_channel_concat_layout():
    q3d = np.array([[1.0, 2, 3], [4.0, 5, 6], [7.0, 8, 9], [10.0, 11, 12]])
    seq = pad_frames(q3d, np.zeros((4, 3)), np.zeros(4, dtype=int), [2, 2])
    fused = channel_concat(seq)
    assert fused.data.shape == (2, 6)
    assert np.array_equal(fused.data[0], [1, 2, 3, 4, 5, 6])
    assert np.array_equal(fused.data[1], [7, 8, 9, 10, 11, 12])
    assert fused.frame_order == (0, 1)


# --- end to end ---

def test_pipeline_zero_noise_centers():
    scene, w = scene_and_weights()
    detections, report, mask = run_pipeline(scene.frames, scene.cameras, w)
    current = scene.frames[-1]
    flat_ids = [obj for ids in current.proposal_object_ids for obj in ids]
    assert len(detections) == len(flat_ids)
    for det, obj in zip(detections, flat_ids):
        truth = current.object_centers[obj]
        assert np.max(np.abs(det.center3d - truth)) <= 1e-6
        assert det.category == current.object_categories[obj]


def test_pipeline_current_frame_mask_all_ones():
    scene, w = scene_and_weights()
    _, _, mask = run_pipeline(scene.frames, scene.cameras, w)
    assert np.array_equal(
        mask.per_frame[-1], np.ones(w.dims.k_queries, dtype=np.int8)
    )


def test_pipeline_all_static_scene_blanks_past():
    """Static objects plus a wide gate eliminate every valid past slot."""
    cfg = SceneConfig(
        n_frames=3,
        n_objects=4,
        n_cameras=3,
        image_size=(16, 24),
        static_fraction=1.0,
        depth_mode="exact",
    )
    scene = build_scene(cfg)
    k = max(sum(len(p) for p in fr.proposals) for fr in scene.frames)
    dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
    w = PipelineWeights.from_seed(3, dims, zero_fusion=True)
    result = run_pipeline_detailed(
        scene.frames, scene.cameras, w, MotionElimConfig(alpha=1.0)
    )
    for i in range(result.padded.n_frames - 1):
        assert np.array_equal(result.fused_input.data[i], np.zeros(dims.n_channels))
    # with zero fusion weights the multi-frame run equals the single-frame run
    single = run_pipeline_detailed([scene.frames[-1]], scene.cameras, w)
    assert np.array_equal(result.refined, single.refined)
    assert len(result.detections) == len(single.detections)
    for a, b in zip(result.detections, single.detections):
        assert np.array_equal(a.center3d, b.center3d)
        assert (a.yaw, a.category, a.score) == (b.yaw, b.category, b.score)


def test_pipeline_report_deterministic_csv():
    scene, w = scene_and_weights()
    a = run_report_csv(run_pipeline_detailed(scene.frames, scene.cameras, w))
    b = run_report_csv(run_pipeline_detailed(scene.frames, scene.cameras, w))
    assert a == b
    header = a.splitlines()[0]
    assert header == "frame,object_slot,retained,center_x,center_y,center_z,category,score"
    assert len(a.splitlines()) == 1 + scene.config.n_frames * w.dims.k_queries


def test_pipeline_single_frame_runs():
    cfg = SceneConfig(n_frames=1, n_objects=3, n_cameras=3, image_size=(16, 24))
    scene = build_scene(cfg)
    k = sum(len(p) for p in scene.frames[0].proposals)
    dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
    w = PipelineWeights.from_seed(1, dims)
    detections, report, mask = run_pipeline(scene.frames, scene.cameras, w)
    assert report.n_frames == 1
    assert mask.n_frames == 1
    assert len(detections) == k


def test_pipeline_rejects_unordered_frames():
    scene, w = scene_and_weights()
    frames = [scene.frames[1], scene.frames[0]]
    with pytest.raises(ValidationError):
        run_pipeline(frames, scene.cameras, w)


def test_pipeline_rejects_wrong_k():
    scene, _ = scene_and_weights()
    dims = PipelineDims(k_queries=1, feature_channels=scene.config.feature_channels)
    w = PipelineWeights.from_seed(5, dims)
    with pytest.raises(ValidationError):
        run_pipeline(scene.frames, scene.cameras, w)


def test_pipeline_op_report_matches_formulas():
    scene, w = scene_and_weights()
    _, report, _ = run_pipeline(scene.frames, scene.cameras, w)
    n, k = report.n_frames, report.k_queries
    d, m = report.embed_dim, report.state_dim
    assert report.cross_attention_ops == op_count_cross_attention(n, k, d)
    assert report.ssm_ops == op_count_ssm(n, k, d, m)


def test_pipeline_linear_box_mode():
    scene, w = scene_and_weights(box_mode="linear")
    detections, _, _ = run_pipeline(scene.frames, scene.cameras, w)
    assert detections
    for det in detections:
        assert np.all(det.size > 0.0)
        assert 0.0 <= det.score <= 1.0


def test_default_scene_matches_recorded_outputs():
    """Run report and detections of the default scene (weights seed 0,
    linear head) against a recording made with the per-proposal query
    path: flags and categories exactly, floats within 1e-12 relative."""
    with open(Path(__file__).parent / "data" / "e2e_default_linear.json") as fh:
        ref = json.load(fh)
    scene = build_scene(SceneConfig())
    k = max(sum(len(p) for p in fr.proposals) for fr in scene.frames)
    dims = PipelineDims(k_queries=k, feature_channels=scene.config.feature_channels)
    result = run_pipeline_detailed(
        scene.frames, scene.cameras, PipelineWeights.from_seed(0, dims, "linear")
    )

    def close(got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        return got.shape == want.shape and np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    got_rows = [r.split(",") for r in run_report_csv(result).splitlines()]
    want_rows = [r.split(",") for r in ref["report_csv"].splitlines()]
    assert got_rows[0] == want_rows[0] and len(got_rows) == len(want_rows)
    for got, want in zip(got_rows[1:], want_rows[1:]):
        assert got[:3] + got[6:7] == want[:3] + want[6:7]  # frame, slot, retained, category
        assert close([float(v) for v in got[3:6] + got[7:]], [float(v) for v in want[3:6] + want[7:]])
    assert len(result.detections) == len(ref["detections"])
    for det, want in zip(result.detections, ref["detections"]):
        assert det.category == want["category"]
        for key in ("center3d", "size", "velocity", "yaw", "score"):
            assert close(getattr(det, key), want[key]), key


# --- decoder ---

def test_decoder_zero_value_projection_is_identity():
    scene, w = scene_and_weights()
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    zeroed = PipelineWeights(
        seed=w.seed,
        dims=w.dims,
        box_mode=w.box_mode,
        stack=w.stack,
        attn=w.attn,
        pos=w.pos,
        sem_proj=w.sem_proj,
        dec_q=w.dec_q,
        dec_k=w.dec_k,
        dec_v=np.zeros_like(w.dec_v),
        dec_out=w.dec_out,
        box_w=None,
        box_b=None,
    )
    cur = result.padded.current_index
    refined = decode_current_frame(
        result.fused_output,
        result.padded.q3d(cur),
        scene.frames[cur].feature_maps,
        zeroed,
    )
    k, d = w.dims.k_queries, w.dims.embed_dim
    assert np.array_equal(refined, result.fused_output.data[-1].reshape(k, d))


def test_decoder_single_key_full_weight():
    scene, w0 = scene_and_weights()
    dims = PipelineDims(
        k_queries=w0.dims.k_queries,
        feature_channels=w0.dims.feature_channels,
        decoder_keys=1,
    )
    w = PipelineWeights.from_seed(5, dims)
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    cur = result.padded.current_index
    feats = scene.frames[cur].feature_maps
    rng = np.random.default_rng([w.seed, 7])
    cam = int(rng.integers(0, len(feats), size=1)[0])
    y = int(rng.integers(0, feats[0].height, size=1)[0])
    x = int(rng.integers(0, feats[0].width, size=1)[0])
    value = feats[cam].data[y, x].astype(np.float64) @ w.dec_v
    k, d = dims.k_queries, dims.embed_dim
    row = result.fused_output.data[-1].reshape(k, d)
    # softmax over one key is exactly 1, so every slot adds the same vector
    want = row + value @ w.dec_out
    assert np.max(np.abs(result.refined - want)) <= 1e-12


# --- weights serialization ---

def test_weights_from_seed_deterministic():
    dims = PipelineDims(k_queries=3)
    a = PipelineWeights.from_seed(7, dims, "linear")
    b = PipelineWeights.from_seed(7, dims, "linear")
    assert np.array_equal(a.sem_proj, b.sem_proj)
    assert np.array_equal(a.box_w, b.box_w)
    assert np.array_equal(
        a.stack.layers[0].out_weight, b.stack.layers[0].out_weight
    )


def test_weights_bytes_round_trip():
    dims = PipelineDims(k_queries=3)
    w = PipelineWeights.from_seed(7, dims, "linear")
    raw = weights_to_bytes(w)
    back = weights_from_bytes(raw)
    assert weights_to_bytes(back) == raw
    assert back.seed == w.seed
    assert back.box_mode == "linear"
    assert np.array_equal(back.dec_q, w.dec_q)


def test_weights_file_round_trip(tmp_path):
    dims = PipelineDims(k_queries=2)
    w = PipelineWeights.from_seed(9, dims)
    path = tmp_path / "weights.sfw"
    save_weights(w, str(path))
    back = load_weights(str(path))
    assert weights_to_bytes(back) == weights_to_bytes(w)


def test_weights_blob_is_authoritative():
    """Edited blob values survive the round trip; the seed is just metadata."""
    dims = PipelineDims(k_queries=2)
    w = PipelineWeights.from_seed(9, dims)
    raw = weights_to_bytes(w)
    header, blob = raw.split(b"\n", 1)
    arr = np.frombuffer(blob, dtype="<f8").copy()
    arr[0] += 1.0
    edited = weights_from_bytes(header + b"\n" + arr.tobytes())
    first = edited.attn.value_proj.reshape(-1)[0]
    assert first == w.attn.value_proj.reshape(-1)[0] + 1.0


@pytest.mark.parametrize(
    "seed, k, box_mode, digest",
    [
        (11, 28, "linear", "e6af7fe86605ed70c7d21a92e58dc3ea0258da015afa67ad6f60594ff2f6844b"),
        (0, 3, "bypass", "6d70d5c440fcff46b5fc52813f928921907ecfae341d36460521944cf4fa9c25"),
    ],
)
def test_weights_bytes_digest_pinned(seed, k, box_mode, digest):
    """Seeded weights stay byte-identical to the recorded files."""
    raw = weights_to_bytes(PipelineWeights.from_seed(seed, PipelineDims(k_queries=k), box_mode))
    assert hashlib.sha256(raw).hexdigest() == digest


@pytest.mark.parametrize("box_mode", ["bypass", "linear"])
def test_weight_shape_table_matches_seeded_arrays(box_mode):
    grid = (
        dict(k_queries=1),
        dict(k_queries=3, embed_dim=4, feature_channels=3, state_dim=5, n_layers=2,
             n_heads=4, n_keys=1, dw_ksize=1),
        dict(k_queries=2, feature_channels=7, n_heads=3, n_keys=5, dw_ksize=4, n_layers=1),
        dict(k_queries=2, embed_dim=2, feature_channels=1, state_dim=1, n_layers=3),
    )
    for kwargs in grid:
        dims = PipelineDims(**kwargs)
        head, layer, tail = _weight_shapes(dims, box_mode)
        w = PipelineWeights.from_seed(3, dims, box_mode)
        assert head + layer * dims.n_layers + tail == [a.shape for a in _weight_arrays(w)]


def _reachable_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _reachable_arrays(getattr(obj, field.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _reachable_arrays(item)


@pytest.mark.parametrize("box_mode", ["bypass", "linear"])
def test_weights_arrays_c_contiguous(tmp_path, box_mode):
    w = PipelineWeights.from_seed(4, PipelineDims(k_queries=3, n_layers=2), box_mode)
    path = tmp_path / "weights.sfw"
    save_weights(w, str(path))
    for source in (w, load_weights(str(path))):
        arrays = list(_reachable_arrays(source))
        assert len(arrays) == len(list(_weight_arrays(w)))
        assert all(a.flags.c_contiguous for a in arrays)


def _edit_header(raw: bytes, edit) -> bytes:
    header, blob = raw.split(b"\n", 1)
    doc = json.loads(header)
    edit(doc)
    return json.dumps(doc).encode("utf-8") + b"\n" + blob


@pytest.mark.parametrize(
    "edit",
    [
        lambda h: h.pop("dims"),
        lambda h: h.pop("box_mode"),
        lambda h: h.pop("seed"),
        lambda h: h.update(seed=-1),
        lambda h: h.update(seed="7"),
        lambda h: h.update(box_mode="cubic"),
        lambda h: h.update(dims=[2]),
        lambda h: h["dims"].pop("k_queries"),
        lambda h: h["dims"].update(k_queries="two"),
        lambda h: h["dims"].update(k_queries=2.5),
        lambda h: h["dims"].update(delta="fast"),
        lambda h: h["dims"].update(k_queries=10**6),
        lambda h: h["dims"].update(n_layers=10**12),
    ],
)
def test_weights_rejects_malformed_header(edit):
    raw = weights_to_bytes(PipelineWeights.from_seed(9, PipelineDims(k_queries=2)))
    with pytest.raises(ValidationError):
        weights_from_bytes(_edit_header(raw, edit))


def test_weights_rejects_ragged_blob():
    raw = weights_to_bytes(PipelineWeights.from_seed(9, PipelineDims(k_queries=2)))
    with pytest.raises(ValidationError):
        weights_from_bytes(raw[:-3])
    with pytest.raises(ValidationError):
        weights_from_bytes(raw + b"\0")


def test_weights_rejects_bad_header():
    dims = PipelineDims(k_queries=2)
    raw = weights_to_bytes(PipelineWeights.from_seed(9, dims))
    _, blob = raw.split(b"\n", 1)
    with pytest.raises(ValidationError):
        weights_from_bytes(b'{"format": "other"}\n' + blob)
    with pytest.raises(ValidationError):
        weights_from_bytes(b"not json\n" + blob)


def test_weights_rejects_truncated_blob():
    dims = PipelineDims(k_queries=2)
    raw = weights_to_bytes(PipelineWeights.from_seed(9, dims))
    with pytest.raises(ValidationError):
        weights_from_bytes(raw[:-16])


def test_dims_validation():
    with pytest.raises(ValidationError):
        PipelineDims(k_queries=0)
    with pytest.raises(ValidationError):
        PipelineDims(k_queries=2, embed_dim=7)
    with pytest.raises(ValidationError):
        PipelineDims.from_dict({"k_queries": 2, "bogus": 3})
