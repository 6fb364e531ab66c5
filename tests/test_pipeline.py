"""End-to-end pipeline: op counts, fusion wiring, decode, serialization."""

import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from statefuse import (
    DeformAttnParams,
    MotionElimConfig,
    NumericOverflowError,
    PaddedQuerySequence,
    PipelineDims,
    PipelineWeights,
    PosEmbedParams,
    SceneConfig,
    ValidationError,
    build_scene,
    channel_concat,
    decode_current_frame,
    load_weights,
    op_count_cross_attention,
    op_count_ssm,
    pad_frames,
    run_pipeline_detailed,
    run_report_csv,
    save_weights,
    seeded_stack,
    slot_count,
    zero_stack,
)
from statefuse import errors, pipeline
from statefuse.errors import frozen, readonly
from statefuse.numerics import softmax
from statefuse.queries import FeatureMap
from statefuse.pipeline import _blob_arrays, weights_from_bytes, weights_to_bytes

SCENE = SceneConfig(
    n_frames=4, n_objects=4, n_cameras=3, image_size=(16, 24), depth_mode="exact"
)


def weight_arrays(w):
    """The arrays of weights ``w`` in blob order."""
    return list(_blob_arrays(w, w.dims, w.box_mode))


def scene_and_weights(cfg=SCENE, seed=5, box_mode="bypass"):
    scene = build_scene(cfg)
    dims = PipelineDims(k_queries=slot_count(scene.frames), feature_channels=cfg.feature_channels)
    return scene, PipelineWeights.from_seed(seed, dims, box_mode)


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
    seq = pad_frames(q3d, np.zeros((4, 3)), np.zeros(4, dtype=int), np.zeros(4), [2, 2])
    fused = channel_concat(seq.embeddings)
    assert fused.data.shape == (2, 6) and fused.data.base is seq.embeddings
    assert np.array_equal(fused.data[0], [1, 2, 3, 4, 5, 6])
    assert np.array_equal(fused.data[1], [7, 8, 9, 10, 11, 12])
    assert fused.frame_order == (0, 1)


# --- end to end ---

def test_a_pass_builds_one_window_and_fuses_the_masked_operand_uncopied(monkeypatch):
    """One pass constructs one PaddedQuerySequence, and channel_concat
    takes apply_motion_mask's write-protected (N, K, D) operand as it is
    and reshapes it without a copy."""
    scene, w = scene_and_weights()
    windows, operands, received = [], [], []
    post_init, apply_mask, concat = (
        PaddedQuerySequence.__post_init__, pipeline.apply_motion_mask, pipeline.channel_concat
    )

    def count_window(self):
        windows.append(self)
        post_init(self)

    def spy_mask(seq, mask):
        operands.append(apply_mask(seq, mask))
        return operands[-1]

    def spy_concat(operand):
        received.append(operand)
        return concat(operand)

    monkeypatch.setattr(PaddedQuerySequence, "__post_init__", count_window)
    monkeypatch.setattr(pipeline, "apply_motion_mask", spy_mask)
    monkeypatch.setattr(pipeline, "channel_concat", spy_concat)
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    assert len(windows) == 1 and windows[0] is result.padded
    assert len(operands) == len(received) == 1 and received[0] is operands[0]
    operand = operands[0]
    assert operand.shape == result.padded.embeddings.shape and not operand.flags.writeable
    assert np.shares_memory(result.fused_input.data, operand)


def test_pipeline_zero_noise_centers():
    scene, w = scene_and_weights()
    detections = run_pipeline_detailed(scene.frames, scene.cameras, w).detections
    current = scene.frames[-1]
    flat_ids = [obj for ids in current.proposal_object_ids for obj in ids]
    assert len(detections) == len(flat_ids)
    for det, obj in zip(detections, flat_ids):
        truth = current.object_centers[obj]
        assert np.max(np.abs(det.center3d - truth)) <= 1e-6
        assert det.category == current.object_categories[obj]


def test_pipeline_current_frame_mask_all_ones():
    scene, w = scene_and_weights()
    mask = run_pipeline_detailed(scene.frames, scene.cameras, w).motion_mask
    assert np.array_equal(
        mask[-1], np.ones(w.dims.k_queries, dtype=np.int8)
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
    k = slot_count(scene.frames)
    dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
    stack = zero_stack(
        dims.n_channels,
        n_layers=dims.n_layers,
        state_dim=dims.state_dim,
        ksize=dims.dw_ksize,
        delta=dims.delta,
        epsilon=dims.epsilon,
    )
    w = dataclasses.replace(PipelineWeights.from_seed(3, dims), stack=stack)
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


@pytest.mark.parametrize("box_mode", ["bypass", "linear"])
def test_forward_pass_hands_each_callee_the_arrays_it_declares(monkeypatch, box_mode):
    """No checked argument or result field on the forward path and the
    report is converted: each arrives as an ndarray of its declared dtype."""
    scene, w = scene_and_weights(box_mode=box_mode)
    checked_array, coerced = errors.checked_array, []

    def spy(name, value, spec, sizes, empty):
        arr = checked_array(name, value, spec, sizes, empty)
        if isinstance(spec, errors.Array) and arr is not value:
            coerced.append(f"{name}: {getattr(value, 'dtype', type(value).__name__)}")
        return arr

    monkeypatch.setattr(errors, "checked_array", spy)
    run_report_csv(run_pipeline_detailed(scene.frames, scene.cameras, w))
    assert coerced == []


def report_per_field(result):
    """Oracle: the report formatted one field at a time."""
    seq = result.padded
    retained = result.motion_mask.tolist()
    centers, cats, scores = seq.centers3d.tolist(), seq.cats.tolist(), seq.scores.tolist()
    lines = ["frame,object_slot,retained,center_x,center_y,center_z,category,score"]
    for i in range(seq.n_frames):
        for s in range(seq.k_queries):
            x, y, z = (format(float(v), ".17g") for v in centers[i][s])
            score = format(float(scores[i][s]), ".17g")
            lines.append(f"{i},{s},{retained[i][s]},{x},{y},{z},{cats[i][s]},{score}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "cfg",
    [
        SCENE,
        SceneConfig(n_frames=8, n_objects=24, seed=3),
        SceneConfig(n_frames=1, n_objects=3, n_cameras=3, image_size=(16, 24)),
        SceneConfig(n_frames=5, n_objects=9, center_noise_sigma=1.5, seed=8),
    ],
    ids=["small", "wide", "one_frame", "noisy"],
)
def test_report_csv_equals_per_field_formatting(cfg):
    """The wide and noisy scenes have padded slots (category -1)."""
    scene, w = scene_and_weights(cfg)
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    assert run_report_csv(result) == report_per_field(result)


def test_report_csv_writes_signed_zero_and_padded_slots():
    scene, w = scene_and_weights()
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    seq = result.padded
    centers = seq.centers3d.copy()
    centers[0, 0] = (-0.0, 0.0, -1e-300)
    cats = seq.cats.copy()
    cats[-1, -1] = -1
    scores = seq.scores.copy()
    scores[0, 0] = -0.0
    edited = dataclasses.replace(
        result, padded=dataclasses.replace(seq, centers3d=centers, cats=cats, scores=scores)
    )
    text = run_report_csv(edited)
    assert text == report_per_field(edited)
    lines = text.splitlines()
    assert lines[1].split(",")[3:6] == ["-0", "0", "-1e-300"]
    assert lines[1].split(",")[7] == "-0"
    assert lines[-1].split(",")[6] == "-1"


def permute_one_camera(frame, camera, perm, k):
    """``frame`` with camera ``camera``'s proposals, and their object ids,
    in the order ``perm``; and the old slot of each of its ``k`` slots."""
    start = sum(len(ids) for ids in frame.proposal_object_ids[:camera])
    old_slot = np.arange(k)
    old_slot[start : start + len(perm)] = start + perm
    tables, ids = list(frame.proposals), list(frame.proposal_object_ids)
    tables[camera] = tables[camera][perm]
    ids[camera] = tuple(ids[camera][i] for i in perm)
    edited = dataclasses.replace(frame, proposals=tuple(tables), proposal_object_ids=tuple(ids))
    return edited, old_slot


def test_proposal_order_within_a_camera_permutes_the_outputs_alike():
    """Permuting one camera's proposals (with their object ids) in a past
    and in the current frame permutes the motion mask, the report's
    retained, center, category and score columns and, with the bypass
    head, the detections the same way, value for value."""
    scene, w = scene_and_weights(SceneConfig(n_frames=4, n_objects=24, seed=3))
    k, frames, old_slots = w.dims.k_queries, list(scene.frames), {}
    for f in (0, len(frames) - 1):
        camera = int(np.argmax([len(ids) for ids in frames[f].proposal_object_ids]))
        perm = np.random.default_rng(f).permutation(len(frames[f].proposal_object_ids[camera]))
        frames[f], old_slots[f] = permute_one_camera(frames[f], camera, perm, k)
    before = run_pipeline_detailed(scene.frames, scene.cameras, w)
    after = run_pipeline_detailed(frames, scene.cameras, w)
    rows = np.loadtxt(io.StringIO(run_report_csv(before)), delimiter=",", skiprows=1)
    want = rows.reshape(len(frames), k, -1)[..., 2:]  # retained, center, category, score
    for f, old_slot in old_slots.items():
        assert np.array_equal(after.motion_mask[f], before.motion_mask[f, old_slot])
        want[f] = want[f, old_slot]
    # the permutation moves kept and eliminated slots past each other
    assert not np.array_equal(before.motion_mask[0], after.motion_mask[0])
    rows = np.loadtxt(io.StringIO(run_report_csv(after)), delimiter=",", skiprows=1)
    assert np.array_equal(rows.reshape(len(frames), k, -1)[..., 2:], want)
    assert len(after.detections) == len(before.detections)
    for det, old in zip(after.detections, old_slots[len(frames) - 1]):
        for name in ("center3d", "size", "yaw", "velocity", "category", "score"):
            assert np.array_equal(getattr(det, name), getattr(before.detections[old], name))


def test_pipeline_single_frame_runs():
    cfg = SceneConfig(n_frames=1, n_objects=3, n_cameras=3, image_size=(16, 24))
    scene = build_scene(cfg)
    k = slot_count(scene.frames[:1])
    dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
    w = PipelineWeights.from_seed(1, dims)
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    detections, mask = result.detections, result.motion_mask
    assert result.padded.n_frames == 1
    assert np.array_equal(mask, np.ones((1, k)))
    assert len(detections) == k


def test_pipeline_rejects_unordered_frames():
    scene, w = scene_and_weights()
    frames = [scene.frames[1], scene.frames[0]]
    with pytest.raises(ValidationError):
        run_pipeline_detailed(frames, scene.cameras, w)


def test_pipeline_rejects_wrong_k():
    scene, _ = scene_and_weights()
    dims = PipelineDims(k_queries=1, feature_channels=scene.config.feature_channels)
    w = PipelineWeights.from_seed(5, dims)
    with pytest.raises(ValidationError):
        run_pipeline_detailed(scene.frames, scene.cameras, w)


def test_pipeline_linear_box_mode():
    scene, w = scene_and_weights(box_mode="linear")
    detections = run_pipeline_detailed(scene.frames, scene.cameras, w).detections
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
    k = slot_count(scene.frames)
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
    refined = decode_current_frame(result.fused_output, scene.frames[cur].feature_maps, zeroed)
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


@pytest.mark.parametrize(
    "shrink", [lambda data: data[:2, :2], lambda data: data[..., :1]], ids=["smaller", "channels"]
)
def test_decoder_refuses_maps_of_different_shapes(shrink):
    """Every key position is drawn from map 0's height and width, so a
    smaller second map once raised an IndexError, and fewer channels
    numpy's stack ValueError."""
    scene, w = scene_and_weights()
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    feats = list(scene.frames[result.padded.current_index].feature_maps)
    feats[1] = FeatureMap(shrink(feats[1].data))
    with pytest.raises(ValidationError, match=r"^feats: the maps must share one shape"):
        decode_current_frame(result.fused_output, feats, w)


@pytest.mark.parametrize("seed", [5, 11])
def test_decoder_equals_inline_attention_reference(seed):
    """The decoder through ``cross_attention`` gives, bit for bit, the
    attention it once wrote inline, kept here as the reference."""
    scene, w = scene_and_weights(seed=seed)
    result = run_pipeline_detailed(scene.frames, scene.cameras, w)
    feats = scene.frames[result.padded.current_index].feature_maps
    k, d = w.dims.k_queries, w.dims.embed_dim
    row = result.fused_output.data[-1].reshape(k, d)
    rng = np.random.default_rng([w.seed, 7])
    n_keys = w.dims.decoder_keys
    cams_idx = rng.integers(0, len(feats), size=n_keys)
    ys = rng.integers(0, feats[0].height, size=n_keys)
    xs = rng.integers(0, feats[0].width, size=n_keys)
    gathered = np.stack(
        [feats[c].data[y, x] for c, y, x in zip(cams_idx, ys, xs)]
    ).astype(np.float64)
    keys = gathered @ w.dec_k
    values = gathered @ w.dec_v
    logits = (row @ w.dec_q) @ keys.T / np.sqrt(d)
    attn = softmax(logits, axis=1)
    want = row + (attn @ values) @ w.dec_out
    assert np.array_equal(decode_current_frame(result.fused_output, feats, w), want)
    assert np.array_equal(result.refined, want)


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
    for kwargs in grid:  # the construction check holds every seeded array to dims
        raw = weights_to_bytes(PipelineWeights.from_seed(3, PipelineDims(**kwargs), box_mode))
        assert weights_to_bytes(weights_from_bytes(raw)) == raw


DIMS3 = PipelineDims(k_queries=3)
W3 = PipelineWeights.from_seed(5, DIMS3)


def _stack_with_epsilon(layer: int, epsilon: float):
    stack = zero_stack(DIMS3.n_channels)
    layers = list(stack.layers)
    layers[layer] = dataclasses.replace(layers[layer], epsilon=epsilon)
    return dataclasses.replace(stack, layers=tuple(layers))


@pytest.mark.parametrize(
    "field, make, path",
    [
        ("attn", lambda: DeformAttnParams.seeded(8, [5, 1], n_heads=4, n_keys=2),
         "attn.value_proj"),
        ("stack", lambda: zero_stack(72, n_layers=2), "stack.layers"),
        ("stack", lambda: seeded_stack(72, 5, state_dim=8), "stack.layers[0].bank.a_bar"),
        ("stack", lambda: zero_stack(72, epsilon=1e-3), "stack.layers[0].epsilon"),
        ("pos", lambda: PosEmbedParams.seeded(24, [5, 2], 50.0), "pos.temperature"),
        ("pos", lambda: PosEmbedParams.seeded(12, [5, 2]), "pos.w1"),
        ("stack", lambda: zero_stack(72, n_layers=7), "stack.layers"),
        ("stack", lambda: _stack_with_epsilon(3, 1e-3), "stack.layers[3].epsilon"),
    ],
    ids=["attn_heads", "fewer_layers", "state_dim", "epsilon", "temperature", "pos_width",
         "more_layers", "one_layer_epsilon"],
)
def test_weights_that_disagree_with_dims_are_refused(field, make, path):
    """Each of these once built, and its saved file then failed to load or
    loaded other weights: one line naming the path of the field."""
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(W3, **{field: make()})
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "\n" not in message, message


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
        assert len(arrays) == len(weight_arrays(w))
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
        lambda h: h.update(seed=True),
        lambda h: h.update(seed=7.0),
        lambda h: h.update(seed=2**64),
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


@pytest.mark.parametrize("edit", [dict(n_layers=10**12), dict(k_queries=10**6)])
def test_weights_header_is_refused_before_any_array_is_built(edit):
    """The blob size is checked from one layer's count, so a header that
    asks for more than the blob holds costs no allocation to refuse."""
    import tracemalloc

    raw = weights_to_bytes(PipelineWeights.from_seed(9, PipelineDims(k_queries=2)))
    raw = _edit_header(raw, lambda h: h["dims"].update(edit))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=r"^weights blob holds"):
            weights_from_bytes(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize(
    "seed",
    ["7", True, 7.9, -1, 2**64],
    ids=["string", "bool", "float", "negative", "past_u64"],
)
def test_from_seed_takes_only_the_seeds_a_header_takes(seed):
    """Each of these once built weights (or raised numpy's ValueError)."""
    with pytest.raises(ValidationError, match=r"^seed: expected"):
        PipelineWeights.from_seed(seed, PipelineDims(k_queries=1))


def test_from_seed_largest_seed_round_trips():
    w = PipelineWeights.from_seed(2**64 - 1, PipelineDims(k_queries=1))
    assert weights_from_bytes(weights_to_bytes(w)).seed == 2**64 - 1


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


# --- weights memory: one read, no second copy ---

def _owner(arr):
    """The object whose memory ``arr`` views: an owning array, or a buffer."""
    while isinstance(arr, np.ndarray) and not arr.flags.owndata:
        arr = arr.base
    return arr


def test_readonly_keeps_frozen_memory_and_copies_writable():
    owned = np.arange(12.0).reshape(3, 4)
    view = owned[1:]
    view.setflags(write=False)
    kept = readonly(view)
    assert kept is not view and kept.flags.owndata and not kept.flags.writeable
    owned[1, 0] = -1.0  # the caller's writable array changes; the copy does not
    assert kept[0, 0] == 4.0

    frozen_owner = frozen(np.ones((3, 4)))
    assert readonly(frozen_owner) is frozen_owner
    assert readonly(frozen_owner[1:]).base is frozen_owner
    assert readonly(frozen_owner[:, 1:]).flags.owndata  # not C-contiguous

    raw = np.arange(6.0).tobytes()
    assert _owner(readonly(np.frombuffer(raw))) is raw
    for mutable in (bytearray(raw), memoryview(bytearray(raw))):
        assert readonly(np.frombuffer(mutable)).flags.owndata
    unaligned = np.frombuffer(b"\0" + raw, dtype="<f8", count=6, offset=1)
    assert not unaligned.flags.aligned
    assert readonly(unaligned).flags.aligned


def test_weights_from_bytes_views_an_aligned_blob():
    """Arrays view the ``bytes`` blob when it is 8-byte aligned and are
    copied otherwise; either way the values are the blob's."""
    w = PipelineWeights.from_seed(9, PipelineDims(k_queries=2), "linear")
    header, blob = weights_to_bytes(w).split(b"\n", 1)
    seen = set()
    for pad in range(8):  # JSON whitespace moves the blob's start
        raw = header + b" " * pad + b"\n" + blob
        aligned = np.frombuffer(raw, dtype="<f8", offset=len(header) + pad + 1).flags.aligned
        seen.add(aligned)
        back = weights_from_bytes(raw)
        assert weights_to_bytes(back).split(b"\n", 1)[1] == blob
        for arr in weight_arrays(back):
            assert (_owner(arr) is raw) == aligned
            assert arr.flags.aligned and not arr.flags.writeable
    assert seen == {True, False}


def test_load_weights_reads_the_file_once(tmp_path):
    """The tracemalloc peak of a load stays within 1.1x the file size, and
    every array views one ``bytes`` object."""
    import tracemalloc

    path = tmp_path / "weights.sfw"
    save_weights(PipelineWeights.from_seed(3, PipelineDims(k_queries=8), "linear"), str(path))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        back = load_weights(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * size, (peak, size)
    owners = {id(_owner(arr)) for arr in weight_arrays(back)}
    assert len(owners) == 1
    assert isinstance(_owner(back.dec_q), bytes)
    assert weights_to_bytes(back) == path.read_bytes()


@pytest.mark.parametrize(
    "edit",
    [
        lambda raw: raw.replace(b"\n", b" ", 1),
        lambda raw: raw[:-3],
        lambda raw: raw + b"\0" * 8,
        lambda raw: b"not json" + raw[raw.index(b"\n"):],
        lambda raw: b"",
        lambda raw: b" " * (1 << 16) + raw,  # header line past the read limit
    ],
)
def test_load_weights_rejects_malformed_files(tmp_path, edit):
    raw = weights_to_bytes(PipelineWeights.from_seed(9, PipelineDims(k_queries=2)))
    path = tmp_path / "weights.sfw"
    path.write_bytes(edit(raw))
    with pytest.raises(ValidationError):
        load_weights(str(path))


def test_load_weights_from_a_pipe(tmp_path):
    """A FIFO, which has no size to read ahead of, loads as a file does."""
    import os
    import threading

    raw = weights_to_bytes(PipelineWeights.from_seed(9, PipelineDims(k_queries=2)))
    fifo = tmp_path / "weights.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    try:
        back = load_weights(str(fifo))
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert weights_to_bytes(back) == raw


def test_seeded_weights_keep_their_draws():
    """Every array ``from_seed`` draws is write-protected where it is drawn,
    so ``readonly`` copies none of them: no memory the weights hold was
    allocated by its copy."""
    import inspect
    import tracemalloc

    lines, first = inspect.getsourcelines(errors.readonly)
    copy_line = first + next(i for i, text in enumerate(lines) if "copy=True" in text)
    tracemalloc.start()
    try:
        w = PipelineWeights.from_seed(3, PipelineDims(k_queries=4), "linear")
        control = readonly(np.ones(1000))  # a writable array is copied
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    data = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    copies = data.filter_traces([tracemalloc.Filter(True, errors.__file__, copy_line)])
    assert sum(trace.size for trace in copies.traces) == control.nbytes
    assert all(not arr.flags.writeable for arr in weight_arrays(w))
