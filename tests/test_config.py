"""The one field rule of the config types (SceneConfig, PipelineDims,
BenchConfig and MotionElimConfig), of the record and result types, and of
the array arguments of the public functions."""

import dataclasses
import importlib
import inspect
import json
import math
import pkgutil
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import statefuse
from statefuse import (
    BenchConfig,
    BenchRow,
    DeformAttnParams,
    Detection,
    DiscreteSsmBank,
    FusedQuerySequence,
    MotionElimConfig,
    PaddedQuerySequence,
    PipelineDims,
    PipelineWeights,
    PosEmbedParams,
    SceneConfig,
    ValidationError,
    build_scene,
    decode_current_frame,
    op_count_cross_attention,
    op_count_ssm,
    query_mamba_block,
    query_mamba_stack,
    run_pipeline_detailed,
)
from statefuse import (
    apply_motion_mask,
    camera_ring,
    cross_peak_bytes,
    deformable_attention,
    depthwise_causal_conv,
    discretize_zoh,
    expected_depth,
    fit_loglog_slope,
    gs4_layer,
    layer_norm,
    lift_center,
    motion_cost,
    motion_mask,
    pad_frames,
    project_point,
    materialize_kernel,
    scan_bank,
    seeded_bank,
    seeded_stack,
    sinusoid_features,
    ssm_peak_bytes,
    synth_features,
    zero_stack,
)
from statefuse.errors import Array, Bound, Record, _kind, _parameters, _schema, checked, frozen
from statefuse.pipeline import _blob_arrays, weights_from_bytes, weights_to_bytes
from statefuse.queries import FeatureMap
from statefuse.selfcheck import CheckResult

CONFIGS = [SceneConfig(), PipelineDims(k_queries=3), BenchConfig(), MotionElimConfig()]


# --- the rule ---

@pytest.mark.parametrize(
    "cls, raw, message",
    [
        (PipelineDims, {"k_queries": 2, "epsilon": "1e-6"}, r"^epsilon: expected a value like 1e-06, got '1e-6'$"),
        (PipelineDims, {"k_queries": 2, "delta": True}, r"^delta: expected a value like 0.1, got True$"),
        (PipelineDims, {"k_queries": True}, r"^k_queries: expected a value like int, got True$"),
        (PipelineDims, {"k_queries": 2.0}, r"^k_queries: expected"),
        (PipelineDims, {"k_queries": 2, "temperature": 10**400}, r"^temperature: expected"),
        (PipelineDims, {"k_queries": 2, "epsilon": math.inf}, r"^epsilon: expected"),
        (MotionElimConfig, {"alpha": "0.5"}, r"^alpha: expected a value like 0.5, got '0.5'$"),
        (MotionElimConfig, {"alpha": True}, r"^alpha: expected a value like 0.5, got True$"),
        (BenchConfig, {"mechanism": 1}, r"^mechanism: expected a value like 'both', got 1$"),
        (BenchConfig, {"k": 2.7}, r"^k: expected a value like 4, got 2.7$"),
        (BenchConfig, {"n_list": "64"}, r"^n_list: expected a value like \(64, 128,"),
        (BenchConfig, {"n_list": [8, "16", 32]}, r"^n_list: expected"),
        (BenchConfig, {"n_list": [8, 0]}, r"^n_list\[1\]: expected an int >= 1, got 0$"),
        (BenchConfig, {"seed": -1}, r"^seed: expected an int >= 0, got -1$"),
        (SceneConfig, {"camera_height": math.nan}, r"^camera_height: expected a value like 1.5, got nan$"),
        (SceneConfig, {"radius_range": [8.0, 30.0, 1.0]}, r"^radius_range: expected"),
    ],
)
def test_a_value_of_the_wrong_kind_names_its_field(cls, raw, message):
    with pytest.raises(ValidationError, match=message):
        cls.from_dict(raw)
    with pytest.raises(ValidationError, match=message):
        cls(**raw)


def test_the_rule_keeps_each_kind_as_its_python_type():
    dims = PipelineDims(k_queries=np.int64(3), epsilon=1, delta=np.float32(0.5))
    assert type(dims.k_queries) is int and dims.k_queries == 3
    assert type(dims.epsilon) is float and dims.epsilon == 1.0
    assert type(dims.delta) is float and dims.delta == 0.5
    bench = BenchConfig(n_list=[8, 16])
    assert bench.n_list == (8, 16)
    scene = SceneConfig(speed_range=[1, 2])
    assert scene.speed_range == (1.0, 2.0) and all(type(v) is float for v in scene.speed_range)


def test_from_dict_refuses_a_non_object_unknown_keys_and_missing_fields():
    with pytest.raises(ValidationError, match=r"^BenchConfig must be a JSON object, got \[1\]$"):
        BenchConfig.from_dict([1])
    with pytest.raises(ValidationError, match=r"^unknown MotionElimConfig keys: \['beta'\]$"):
        MotionElimConfig.from_dict({"alpha": 1.0, "beta": 2})
    with pytest.raises(ValidationError, match=r"^k_queries: missing$"):
        PipelineDims.from_dict({"embed_dim": 8})


def test_to_dict_writes_fields_in_order_with_tuples_as_lists():
    doc = SceneConfig(image_size=(8, 9)).to_dict()
    assert list(doc) == list(SceneConfig.__dataclass_fields__)
    assert doc["image_size"] == [8, 9] and doc["speed_range"] == [2.0, 6.0]
    assert PipelineDims(k_queries=2).to_dict()["epsilon"] == 1e-6


# --- fuzzed config documents ---

# Every JSON kind: null, bool, int, float, NaN, inf, string, list, object;
# large integers too, since nothing is run, only constructed.
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=70_000),
    st.sampled_from([2**70, -(2**70), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(
        st.one_of(st.booleans(), st.integers(-3, 70_000), st.floats(-1.0, 1e4), st.text(max_size=2)),
        max_size=4,
    ),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

FIELDS = [(cfg, name) for cfg in CONFIGS for name in cfg.to_dict()]


def _document_round_trip(cls, doc):
    """A config or one ValidationError; a config comes back equal from its
    own JSON document."""
    try:
        cfg = cls.from_dict(doc)
    except ValidationError as exc:
        assert "\n" not in str(exc)
        return
    again = cls.from_dict(json.loads(json.dumps(cfg.to_dict(), allow_nan=False)))
    assert again == cfg


@pytest.mark.parametrize(
    "base, name", FIELDS, ids=[f"{type(cfg).__name__}.{name}" for cfg, name in FIELDS]
)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES)
def test_mutated_config_documents_round_trip_or_raise(base, name, value):
    _document_round_trip(type(base), {**base.to_dict(), name: value})


TINY_DIMS = PipelineDims(
    k_queries=1, embed_dim=2, feature_channels=1, state_dim=1, n_layers=1,
    n_heads=1, n_keys=1, dw_ksize=1, decoder_keys=1,
)
TINY_WEIGHTS = weights_to_bytes(PipelineWeights.from_seed(5, TINY_DIMS))
TINY_HEADER, TINY_BLOB = TINY_WEIGHTS.split(b"\n", 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(list(TINY_DIMS.to_dict())), value=JSON_VALUES)
def test_mutated_weights_header_dims_load_or_raise(name, value):
    header = json.loads(TINY_HEADER)
    header["dims"][name] = value
    line = json.dumps(header).encode("utf-8")
    try:
        w = weights_from_bytes(line + b"\n" + TINY_BLOB)
    except ValidationError as exc:
        assert "\n" not in str(exc)
        return
    assert PipelineDims.from_dict(w.dims.to_dict()) == w.dims


# --- the record types ---

TINY_LINEAR = PipelineWeights.from_seed(5, TINY_DIMS, "linear")
TINY_SCENE = build_scene(SceneConfig(n_frames=2, n_objects=2, n_cameras=2, image_size=(4, 6),
                                     feature_channels=1, static_fraction=0.0))
TINY_LAYER = TINY_LINEAR.stack.layers[0]
TINY_RESULT = run_pipeline_detailed(
    TINY_SCENE.frames, TINY_SCENE.cameras,
    PipelineWeights.from_seed(5, dataclasses.replace(TINY_DIMS, k_queries=2), "linear"),
)
RECORDS = [
    TINY_LAYER.bank,
    TINY_LAYER,
    TINY_LINEAR.stack,
    FusedQuerySequence(np.zeros((2, 4)), (0, 1), 2, 2),
    TINY_SCENE.cameras[0],
    TINY_SCENE.frames[0].ego_pose,
    TINY_LINEAR.pos,
    TINY_LINEAR.attn,
    PaddedQuerySequence(np.zeros((2, 3, 4)), np.zeros((2, 3, 3)), np.ones((2, 3), bool),
                        np.zeros((2, 3), int)),
    TINY_LINEAR,
    Detection(np.zeros(3), np.ones(3), 0.0, np.zeros(2), 1, 0.5),
    TINY_SCENE.tracks[0],  # a moving track, so that is_static=True fails
    TINY_SCENE.frames[0],
    TINY_SCENE,
    TINY_RESULT,
    BenchRow("ssm", 64, 4, 16, 16, 10_000, 0, 1_024, True),
]
RECORD_FIELDS = [(r, f.name) for r in RECORDS for f in dataclasses.fields(r)]


def deeper(value):
    """A list of a shape that ``value``'s field refuses: an array one axis
    deeper, any other value [[0.5]]."""
    return [value.tolist() if isinstance(value, np.ndarray) else [0.5]]


@pytest.mark.parametrize("bad", ["0.5", True, None, deeper], ids=["str", "true", "none", "shape"])
@pytest.mark.parametrize(
    "record, name", RECORD_FIELDS, ids=[f"{type(r).__name__}.{name}" for r, name in RECORD_FIELDS]
)
def test_a_record_field_refuses_a_value_of_another_kind(record, name, bad):
    """Never a TypeError, nor a value read as a number: one line naming the field."""
    value = bad(getattr(record, name)) if callable(bad) else bad
    if value is True and getattr(record, name) is True:  # no change: probe the bool field with 1
        value = 1
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(record, **{name: value})
    message = str(info.value)
    assert name in message and "\n" not in message, message


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FusedQuerySequence(np.zeros((2, 4)), (0, 1), k_queries=2.9, embed_dim=True),
         r"^k_queries: expected a value like int, got 2.9$"),
        (lambda: FusedQuerySequence(np.zeros((2, 4)), (0, 1), 2, True), r"^embed_dim: expected"),
        (lambda: DiscreteSsmBank(np.zeros((1, 2)), np.zeros((1, 3)), np.zeros((1, 2)), [0.0]),
         r"^b_bar: expected shape \(E=1, M=2\), got \(1, 3\)$"),
        (lambda: DiscreteSsmBank(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)), []),
         r"^a_bar: expected shape \(E, M\), got \(0, 2\)$"),
        (lambda: dataclasses.replace(TINY_LAYER, ln2_scale=[1.0, np.nan]),
         r"^ln2_scale: contains NaN or Inf$"),
        (lambda: dataclasses.replace(TINY_LAYER, epsilon="1e-6"), r"^epsilon: expected"),
        (lambda: dataclasses.replace(TINY_LAYER, ln1_scale=np.array(["1", "2"])),
         r"^ln1_scale: expected an array of floats shaped \(E,\), got an array of <U1$"),
        (lambda: dataclasses.replace(TINY_LINEAR.pos, b1=[0.0, 0.0, 0.0]),
         r"^b1: expected shape \(D=2,\), got \(3,\)$"),
        (lambda: PaddedQuerySequence(np.zeros((1, 1, 1)), np.zeros((1, 1, 3)),
                                     np.ones((1, 1)), np.zeros((1, 1), int)),
         r"^valid: expected an array of bools shaped \(N=1, K=1\), got an array of float64$"),
        (lambda: PaddedQuerySequence(np.zeros((1, 1, 1)), np.zeros((1, 1, 3)),
                                     [[True]], [[1.5]]), r"^cats: expected an array of ints"),
        (lambda: PaddedQuerySequence(np.zeros((1, 1, 1)), np.zeros((1, 1, 3)),
                                     [[True]], np.zeros((1, 1), np.uint64)), r"^cats: expected"),
        (lambda: op_count_ssm("3", True, 2.9), r"^n: expected a value like int, got '3'$"),
        (lambda: op_count_ssm(3, True, 2.9), r"^k: expected a value like int, got True$"),
        (lambda: op_count_cross_attention(2.5, "4", True), r"^n: expected a value like int, got 2.5$"),
        (lambda: op_count_cross_attention(2, 4, 0), r"^d: expected an int >= 1, got 0$"),
        (lambda: BenchRow("ssm", True, 2.5, 4, 1, 10.7, 0, 1.5, "yes"),
         r"^n: expected a value like int, got True$"),
        (lambda: BenchRow("ssm", 2, 4, 4, 1, 10.7, 0, 1.5, "yes"),
         r"^wall_nanos: expected a value like int, got 10.7$"),
        (lambda: BenchRow("ssm", 2, 4, 4, 1, 10, 0, 15, "yes"),
         r"^timer_ok: expected a value like bool, got 'yes'$"),
        (lambda: BenchRow("ssm", "3", 1, 1, 1, 10, 0, 1, True),
         r"^n: expected a value like int, got '3'$"),
        (lambda: dataclasses.replace(TINY_RESULT, motion_mask=TINY_RESULT.motion_mask[0]),
         r"^motion_mask: expected shape \(N, K\), got \(2,\)$"),
        (lambda: dataclasses.replace(TINY_RESULT, slot_scores=np.zeros((1, 2))),
         r"^slot_scores: expected shape \(N=2, K=2\), got \(1, 2\)$"),
        # nested records must agree with the result's own (N, K) and D
        (lambda: dataclasses.replace(TINY_RESULT, padded=PaddedQuerySequence(
            np.zeros((3, 2, 2)), np.zeros((3, 2, 3)), np.ones((3, 2), bool),
            np.zeros((3, 2), int))),
         r"^padded: expected frames x slots \(2, 2\), got \(3, 2\)$"),
        (lambda: dataclasses.replace(TINY_RESULT, padded=PaddedQuerySequence(
            np.zeros((2, 3, 2)), np.zeros((2, 3, 3)), np.ones((2, 3), bool),
            np.zeros((2, 3), int))),
         r"^padded: expected frames x slots \(2, 2\), got \(2, 3\)$"),
        (lambda: dataclasses.replace(
            TINY_RESULT, fused_input=FusedQuerySequence(np.zeros((2, 6)), (0, 1), 3, 2)),
         r"^fused_input: expected rows x slots \(2, 2\), got \(2, 3\)$"),
        (lambda: dataclasses.replace(
            TINY_RESULT, fused_output=FusedQuerySequence(np.zeros((1, 4)), (0,), 2, 2)),
         r"^fused_output: expected rows x slots \(2, 2\), got \(1, 2\)$"),
        (lambda: dataclasses.replace(TINY_RESULT, refined=np.zeros((2, 3))),
         r"^refined: expected slots x embed_dim \(2, 2\), got \(2, 3\)$"),
    ],
)
def test_record_messages_name_the_field_and_its_shape(make, message):
    with pytest.raises(ValidationError, match=message):
        make()


def test_every_dataclass_is_a_record():
    """Every dataclass of the package takes its fields through the one rule,
    but two: a FeatureMap keeps the dtype its maps come in (a feature blob's
    float32 views), and a CheckResult is a verdict only the checks build."""
    classes = set()
    for info in pkgutil.iter_modules(statefuse.__path__):
        module = importlib.import_module(f"statefuse.{info.name}")
        classes |= {
            cls for cls in vars(module).values()
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
        }
    assert {PipelineDims, PipelineWeights, Detection, BenchRow} <= classes
    assert {cls for cls in classes if not issubclass(cls, Record)} == {FeatureMap, CheckResult}


def test_record_arrays_keep_their_kind():
    seq = PaddedQuerySequence([[[1]]], [[[1, 2, 3]]], [[True]], np.array([[2]], np.int32))
    assert seq.embeddings.dtype == np.float64 and seq.centers3d.dtype == np.float64
    assert seq.valid.dtype == bool and seq.cats.dtype == np.int64
    # the int64 retention mask holds 0/1 values
    assert TINY_RESULT.motion_mask.dtype == np.int64
    assert set(TINY_RESULT.motion_mask.ravel().tolist()) <= {0, 1}
    det = Detection([1, 2, 3], np.ones(3, np.float32), np.float32(0.5), [0, 0], np.int64(2), 1)
    assert type(det.yaw) is float and type(det.category) is int and type(det.score) is float
    assert det.size.dtype == np.float64


def rebuilt_arrays(record):
    """(array, the same field of a copy of its record that the rule rebuilt)
    for each array field of ``record`` and of the records it holds."""
    again = dataclasses.replace(record)
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, np.ndarray):
            yield value, getattr(again, f.name)
        for held in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(held):
                yield from rebuilt_arrays(held)


def test_record_arrays_are_kept_without_a_copy_when_their_memory_cannot_change():
    """A write-protected array that owns its data, a view of one and a view
    of a ``bytes`` blob are kept; an array made from a list is
    write-protected in place; a caller's writable array is copied."""
    owned = frozen(np.arange(2.0))
    assert dataclasses.replace(TINY_LAYER, ln1_scale=owned).ln1_scale is owned
    blob = np.arange(4.0).tobytes()
    view = np.frombuffer(blob)[:2]
    assert dataclasses.replace(TINY_LAYER, ln1_shift=view).ln1_shift is view
    listed = dataclasses.replace(TINY_LAYER, ln2_scale=[1.0, 2.0])
    assert listed.ln2_scale.flags.owndata and not listed.ln2_scale.flags.writeable
    writable = np.ones(2)
    kept = dataclasses.replace(TINY_LAYER, ln2_shift=writable)
    assert not np.shares_memory(kept.ln2_shift, writable) and not kept.ln2_shift.flags.writeable

    seeded = PipelineWeights.from_seed(3, TINY_DIMS, "linear")
    raw = weights_to_bytes(seeded)
    loaded = weights_from_bytes(raw)
    for w in (seeded, loaded):
        pairs = list(rebuilt_arrays(w))
        n_arrays = len(list(_blob_arrays(w, w.dims, w.box_mode)))
        assert len(pairs) == n_arrays and all(a is b for a, b in pairs)
    blob_view = np.frombuffer(raw, dtype="<f8", offset=raw.index(b"\n") + 1)
    if blob_view.flags.aligned:
        arrays = _blob_arrays(loaded, loaded.dims, loaded.box_mode)
        assert all(np.shares_memory(a, blob_view) for a in arrays)

    x = FusedQuerySequence(frozen(np.zeros((3, 2))), (0, 1, 2), 1, 2)
    out = query_mamba_stack(x, TINY_LINEAR.stack)
    assert FusedQuerySequence(out.data, (0, 1, 2), 1, 2).data is out.data
    assert FusedQuerySequence(x.data, (0, 1, 2), 1, 2).data is x.data


# --- the rule on function arguments ---

CFG = MotionElimConfig()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: pad_frames([[1.0, 2.0]], [[0, 0, 1.0]], [0.9], [1.9]), "cats"),
        (lambda: pad_frames([[1.0, 2.0]], [[0, 0, 1.0]], [True], [1]), "cats"),
        (lambda: motion_mask(np.zeros((1, 1, 1)), [0.7], [[0]], [[True]], CFG), "cats_current"),
        (lambda: motion_mask(np.zeros((1, 1, 1)), [0], [[0]], [[2.5]], CFG), "past_valid"),
        (lambda: motion_cost([[0, 0, 0.0]], [[[0, 0, 0.0]]], ["no"], [[True]]), "current_valid"),
        (lambda: layer_norm([["1", "2"]], [1, 1], [0, 0], 1e-6), "x"),
        (lambda: depthwise_causal_conv(np.array([[True, False]]), np.ones((2, 3))), "x"),
        (lambda: scan_bank(seeded_bank(1, 2, 0), [["0.5"]]), "x"),
        (lambda: discretize_zoh([False], [True], 0.1), "a"),
        (lambda: fit_loglog_slope(["1", "2", "3"], ["1", "2", "4"]), "xs"),
        (lambda: lift_center(camera_ring(2, 0.8), [[0.5, 0.5]], [10.0], cam_index=[0.9]),
         "cam_index"),
        # once the last camera (numpy's negative index), and an IndexError
        (lambda: lift_center(camera_ring(2, 0.8), [[0.5, 0.5]], [10.0], cam_index=[-1]),
         "cam_index"),
        (lambda: lift_center(camera_ring(2, 0.8), [[0.5, 0.5]], [10.0], cam_index=[5]),
         "cam_index"),
        (lambda: expected_depth(["0.5", "0.5"], [True, "3"]), "dist"),
    ],
)
def test_an_array_argument_refuses_a_value_of_another_kind(call, name):
    """Strings, bools and 0.7 are not read as ints, floats or flags: one line
    naming the argument."""
    with pytest.raises(ValidationError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name}: ") and "\n" not in message, message


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: seeded_bank(2.7, 2, 0), "n_channels"),
        (lambda: materialize_kernel(seeded_bank(2, 2, 0), 3.9), "length"),
        (lambda: DeformAttnParams.seeded(True, 0), "channels"),
        (lambda: seeded_stack(8, "3", n_layers=1), "seed"),
        (lambda: seeded_stack(8, 3, n_layers=1.5), "n_layers"),
        (lambda: zero_stack(8, n_layers=True), "n_layers"),
        (lambda: seeded_stack(8, 0, n_layers=1, epsilon="1e-6"), "epsilon"),
        (lambda: zero_stack(8.0, n_layers=1), "n_channels"),
        (lambda: PosEmbedParams.seeded(24.9, 0), "embed_dim"),
        (lambda: camera_ring(2.5), "n_cameras"),
    ],
)
def test_a_scalar_argument_refuses_a_value_of_another_kind(call, name):
    """Each of these once built through ``int()``: 2 channels, 3 taps, 1
    channel, 1 layer, D = 24, and two cameras 144 degrees apart."""
    with pytest.raises(ValidationError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name}: ") and "\n" not in message, message


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: motion_mask(np.zeros((1, 1, 1)), [0], [[0]], [[True]], 0.5), "cfg"),
        (lambda: project_point("cam", [1.0, 2.0, 3.0]), "cam"),
        (lambda: gs4_layer(np.ones((3, 5)), seeded_stack(4, 0, n_layers=1).layers[0]), "x"),
        (lambda: query_mamba_stack(TINY_RESULT.fused_input, 0.5), "stack"),
        (lambda: query_mamba_block(TINY_RESULT.fused_input, TINY_LINEAR.stack), "params"),
        (lambda: decode_current_frame(TINY_RESULT.fused_output, TINY_SCENE.frames[-1].feature_maps,
                                      TINY_LINEAR.dims), "w"),
        (lambda: run_pipeline_detailed(TINY_SCENE.frames, TINY_SCENE.cameras, TINY_DIMS), "w"),
        (lambda: lift_center("cam", [0.5, 0.5], 1.0), "cam"),
        (lambda: lift_center(camera_ring(2), [0.5, 0.5], 1.0), "cam"),
        (lambda: lift_center(camera_ring(2)[0], [0.5, 0.5], 1.0, cam_index=0), "cam"),
    ],
    ids=["motion_mask-cfg", "project_point-cam", "gs4_layer-width", "query_mamba_stack-stack",
         "query_mamba_block-params", "decode_current_frame-w", "run_pipeline_detailed-w",
         "lift_center-str", "lift_center-cameras", "lift_center-camera-with-index"],
)
def test_an_argument_typed_with_a_package_class_refuses_another_value(call, name):
    """Once an AttributeError on 0.5.alpha, "cam".extrinsic, 0.5.layers,
    a stack's missing ``dw_kernel``, the dims' missing ``seed``, a tuple's
    ``intrinsic`` or ``len()`` of one camera, and numpy's matmul ValueError
    on a 5-wide x for a 4-wide layer."""
    with pytest.raises(ValidationError) as info:
        call()
    message = str(info.value)
    assert message.startswith(f"{name}: ") and "\n" not in message, message


# --- declared bounds and choices ---

TINY_BYPASS = PipelineWeights.from_seed(5, TINY_DIMS)
BOUNDED_RECORDS = {type(r): r for r in [  # a valid record of each class that declares one
    SceneConfig(),
    BenchConfig(),
    MotionElimConfig(),
    TINY_DIMS,
    BenchRow("ssm", 64, 4, 16, 16, 10_000, 0, 1_024, True),
    TINY_LAYER,
    FusedQuerySequence(np.zeros((2, 1)), (0, 1), 1, 1),
    Detection(np.zeros(3), np.ones(3), 0.0, np.zeros(2), 1, 0.5),
    TINY_LINEAR.pos,
    TINY_LINEAR,
    TINY_LAYER.bank,
    TINY_SCENE.tracks[0],
    DeformAttnParams(np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.zeros((1, 2, 2)), [[0.0, 1.0]]),
]}
BOUNDED_CALLS = {  # a valid call of each checked function that declares one
    "materialize_kernel": dict(bank=seeded_bank(1, 1, 0), length=1),
    "discretize_zoh": dict(a=[-1.0], b=[1.0], delta=0.1),
    "apply_convolution": dict(taps=[1.0], feed_through=0.0, x=[1.0]),
    "seeded_bank": dict(n_channels=1, state_dim=1, seed=0),
    "layer_norm": dict(x=[[1.0, 2.0]], scale=[1.0, 1.0], shift=[0.0, 0.0], epsilon=1e-6),
    "seeded_stack": dict(n_channels=1, seed=0, n_layers=1),
    "zero_stack": dict(n_channels=1, n_layers=1),
    "DeformAttnParams.head_width": dict(channels=1, n_heads=1),
    "DeformAttnParams.seeded": dict(channels=1, seed=0),
    "PosEmbedParams.seeded": dict(embed_dim=2, seed=0),
    "camera_ring": dict(n_cameras=1),
    "op_count_cross_attention": dict(n=1, k=1, d=1),
    "op_count_ssm": dict(n=1, k=1, d=1),
    "PipelineWeights.from_seed": dict(seed=0, dims=TINY_DIMS),
    "sinusoid_features": dict(c3d=[0.0, 0.0, 0.0], embed_dim=6, temperature=1.0),
    "lift_center": dict(cam=TINY_SCENE.cameras[0], c2d=[[0.5, 0.5]], depth=[1.0]),
    "synth_features": dict(frame_index=0, camera_id=0, cfg=TINY_SCENE.config),
    "deformable_attention": dict(c2d=[[0.5, 0.5]], maps=TINY_SCENE.frames[0].feature_maps,
                                 counts=[0, 1], params=TINY_LINEAR.attn),
    "expected_depth": dict(dist=[0.0, 1.0], bin_centers=[1.0, 2.0]),
    "pad_frames": dict(q3d=np.zeros((1, 2)), centers=np.zeros((1, 3)), cats=[0], counts=[0, 1]),
    "motion_mask": dict(cost=np.zeros((1, 1, 1)), cats_current=[0], cats_past=[[0]],
                        past_valid=[[True]], cfg=MotionElimConfig()),
    "apply_motion_mask": dict(seq=TINY_RESULT.padded, mask=TINY_RESULT.motion_mask),
    "ssm_peak_bytes": dict(n=1, e=1, m=1),
    "cross_peak_bytes": dict(n=1, e=1),
    "fit_loglog_slope": dict(xs=[1.0, 2.0, 3.0], ys=[1.0, 2.0, 3.0]),
}


def _step(kind, value, direction):
    """The value of ``kind`` next to ``value`` in ``direction``, +1 or -1, or
    ``value`` itself for 0."""
    if direction == 0:
        return value
    return value + direction if kind is int else math.nextafter(value, direction * math.inf)


# The steps from a limit to the edge value inside, and to the first value past it.
EDGE_STEPS = {">=": (0, -1), ">": (1, 0), "<=": (0, 1), "<": (-1, 0)}


def _edges(bound):
    """(test, values accepted, first value refused) at each edge of a bound;
    choices are each accepted, and the concatenation of string ones, or one
    past the largest number, refused."""
    if bound.choices:
        past = "".join(bound.choices) if bound.kind is str else max(bound.choices) + 1
        return [("in", list(bound.choices), past)]
    return [
        (op, [_step(bound.kind, limit, inside)], _step(bound.kind, limit, past))
        for op, limit in bound.limits
        for inside, past in [EDGE_STEPS[op]]
    ]


def _remake(record, name, value):
    """``record`` with field ``name`` set to ``value``; weights take the box
    head of the mode they are given."""
    if name == "box_mode":
        record = {"linear": TINY_LINEAR, "bypass": TINY_BYPASS}.get(value, record)
    return dataclasses.replace(record, **{name: value})


def _package_members():
    """Each class and function that a module of the package defines."""
    for info in pkgutil.iter_modules(statefuse.__path__):
        module = importlib.import_module(f"statefuse.{info.name}")
        members = vars(module).values()
        yield from (m for m in members if getattr(m, "__module__", None) == module.__name__)


def _checked_functions():
    """(qualified name, callable) of each checked function and method."""
    wrapper = checked(lambda: None).__code__
    for member in _package_members():
        inner = vars(member) if inspect.isclass(member) else {None: member}
        for name, fn in inner.items():
            if getattr(getattr(fn, "__func__", fn), "__code__", None) is wrapper:
                if name is None:
                    yield member.__name__, member
                else:
                    yield f"{member.__name__}.{name}", getattr(member, name)


def _placed(value, fill, index, elements):
    """A tuple field's value of ``elements`` kinds with ``value`` at
    ``index`` and ``fill`` elsewhere; one of any length holds one value."""
    if elements[-1] is Ellipsis:
        return (value,)
    return tuple(value if j == index else fill for j in range(len(elements)))


def _first(array, value):
    """A copy of ``array`` with ``value`` as its first element."""
    out = np.array(array, dtype=np.result_type(np.asarray(array), value))
    out.flat[0] = value
    return out


def _declared_bounds():
    """(id, label, bound, make) of each bound or choice that a record field,
    an element of a tuple field, the elements of an array field or a checked
    function's parameter or array parameter declares, read from the schemas
    and the parameters.  ``label`` is the name that a refusal starts with,
    and ``make(value, fill)`` builds the record or makes the call with
    ``value`` there (see :func:`_placed` for a tuple; an array takes it as
    its first element)."""
    for cls in _package_members():
        if not (dataclasses.is_dataclass(cls) and issubclass(cls, Record)):
            continue
        for name, kind, *_ in _schema(cls):
            elements = typing.get_args(kind)
            if isinstance(kind, Bound):
                record = BOUNDED_RECORDS[cls]  # a newly bounded record needs one here
                yield f"{cls.__name__}.{name}", name, kind, (
                    lambda v, fill, r=record, n=name: _remake(r, n, v))
            if isinstance(kind, Array) and kind.bound:
                record = BOUNDED_RECORDS[cls]
                yield f"{cls.__name__}.{name}", name, kind.bound, (
                    lambda v, fill, r=record, n=name: _remake(r, n, _first(getattr(r, n), v)))
            for index, element in enumerate(elements):
                if isinstance(element, Bound):
                    record = BOUNDED_RECORDS[cls]
                    yield f"{cls.__name__}.{name}[{index}]", f"{name}[{index}]", element, (
                        lambda v, fill, r=record, n=name, i=index, e=elements:
                        _remake(r, n, _placed(v, fill, i, e)))
    for qualname, fn in _checked_functions():
        for _, name, spec, _ in _parameters(getattr(fn, "__func__", fn).__wrapped__):
            if isinstance(spec, Bound):
                base = BOUNDED_CALLS[qualname]  # a newly bounded function needs a call here
                yield f"{qualname}.{name}", name, spec, (
                    lambda v, fill, f=fn, b=base, n=name: f(**{**b, n: v}))
            if isinstance(spec, Array) and spec.bound:
                base = BOUNDED_CALLS[qualname]
                yield f"{qualname}.{name}", name, spec.bound, (
                    lambda v, fill, f=fn, b=base, n=name: f(**{**b, n: _first(b[n], v)}))


EDGE_CASES = [
    pytest.param(label, make, accepted, refused, id=f"{ident}:{op}")
    for ident, label, bound, make in _declared_bounds()
    for op, accepted, refused in _edges(bound)
]


def test_the_edge_cases_reach_fields_elements_and_parameters():
    """The cases below are read from the declarations, so check that the
    reading finds each place a bound is declared."""
    ids = {case.id for case in EDGE_CASES}
    assert {
        "SceneConfig.static_fraction:>=", "SceneConfig.static_fraction:<=",
        "SceneConfig.image_size[1]:>=", "BenchConfig.n_list[0]:>=", "BenchRow.mechanism:in",
        "PipelineWeights.seed:<", "layer_norm.epsilon:>=", "seeded_stack.n_layers:>=",
        "zero_stack.n_layers:>=",
        "PipelineWeights.from_seed.box_mode:in", "apply_convolution.mode:in",
        "DiscreteSsmBank.a_bar:>=", "DiscreteSsmBank.a_bar:<=", "discretize_zoh.a:<=",
        "ObjectTrack.size:>", "Detection.size:>=", "DeformAttnParams.weights:>=",
        "deformable_attention.counts:>=", "pad_frames.counts:>=", "expected_depth.dist:>=",
        "lift_center.depth:>", "motion_mask.cost:>=", "apply_motion_mask.mask:in",
        "fit_loglog_slope.xs:>", "fit_loglog_slope.ys:>",
    } <= ids


@pytest.mark.parametrize("label, make, accepted, refused", EDGE_CASES)
def test_a_declared_bound_takes_its_edge_and_refuses_the_next_value(label, make, accepted, refused):
    """The value at each edge of a bound (each choice of a choice) is taken;
    the first value past it is refused with one line that names it."""
    for value in accepted:
        make(value, value)
    with pytest.raises(ValidationError, match=f"^{re.escape(label)}: expected"):
        make(refused, accepted[0])


def test_an_element_refusal_shows_the_first_bad_element_and_nan_meets_no_bound():
    bank = TINY_LAYER.bank
    a_bar = [[0.5, 1.5, -2.0]]
    with pytest.raises(ValidationError, match=r"^a_bar: expected a float >= -1 and <= 1, got 1.5$"):
        DiscreteSsmBank(a_bar, np.ones((1, 3)), np.ones((1, 3)), bank.d_bar)
    call = BOUNDED_CALLS["motion_mask"]  # +inf marks an invalid pair
    assert motion_mask(**{**call, "cost": np.full((1, 1, 1), np.inf)}).tolist() == [[1], [1]]
    with pytest.raises(ValidationError, match=r"^cost: expected a float >= 0, got nan$"):
        motion_mask(**{**call, "cost": np.full((1, 1, 1), np.nan)})


SEEDED = {  # the seeds that numpy reads: an int >= 0 or a list of them
    "DeformAttnParams.seeded": lambda seed: DeformAttnParams.seeded(8, seed),
    "PosEmbedParams.seeded": lambda seed: PosEmbedParams.seeded(24, seed),
}


@pytest.mark.parametrize(
    "make",
    [
        *SEEDED.values(),
        lambda seed: seeded_stack(4, seed, n_layers=1),
        lambda seed: seeded_bank(2, 2, seed),
    ],
    ids=[*SEEDED, "seeded_stack", "seeded_bank"],
)
@pytest.mark.parametrize("seed", [-1, "x", 2.0, True, None, [5, -1], (5, False), [[5]]])
def test_a_seed_other_than_ints_at_or_above_zero_is_refused(make, seed):
    """One line naming the seed, not numpy's own ValueError or TypeError."""
    with pytest.raises(ValidationError, match="^seed: "):
        make(seed)


@pytest.mark.parametrize("make", SEEDED.values(), ids=SEEDED.keys())
def test_a_seed_of_ints_at_or_above_zero_is_taken(make):
    for seed in (0, 2**70, np.int64(3), [5, 2], (0, np.uint64(7))):
        make(seed)


@pytest.mark.parametrize(
    "make",
    [lambda seed: seeded_stack(4, seed, n_layers=1), lambda seed: seeded_bank(2, 2, seed)],
    ids=["seeded_stack", "seeded_bank"],
)
def test_an_int_seed_at_or_above_zero_is_taken(make):
    """The builders that take one int seed take any size of it, numpy's too."""
    for seed in (0, 2**70, np.int64(3), np.uint64(7)):
        make(seed)


def test_an_array_argument_is_neither_copied_nor_write_protected():
    seen = []

    @checked
    def probe(x: Array[float, "N"]):
        seen.append(x)

    x = np.ones(3)
    probe(x)
    assert seen[0] is x and x.flags.writeable
    layer_norm(x, np.ones(3), np.zeros(3), 1e-6)
    assert x.flags.writeable


# Public functions whose scalars another rule takes: the rule's own helpers.
SCALARS_CHECKED_ELSEWHERE = {"statefuse.errors"}


def _takes_a_scalar(fn) -> bool:
    """Whether a parameter of ``fn`` is an ``int``, ``float`` or ``bool``, or
    a ``Bound[...]`` or ``Literal[...]`` one, as the rule reads them."""
    hints = typing.get_type_hints(fn, include_extras=True)
    kinds = [_kind(hint)[0] for name, hint in hints.items() if name != "return"]
    return any(isinstance(kind, Bound) or kind in (int, float, bool) for kind in kinds)


def test_every_function_with_an_array_parameter_checks_it():
    """An ``Array[...]`` annotation checks nothing unless the function is
    decorated with ``checked``; a record's fields answer to the record rule.
    A public function or method with an ``int``, ``float``, ``bool``,
    ``Bound[...]`` or ``Literal[...]`` parameter is decorated too, records'
    methods included."""
    wrapper = checked(lambda: None).__code__
    annotated, scalar = [], []
    for info in pkgutil.iter_modules(statefuse.__path__):
        module = importlib.import_module(f"statefuse.{info.name}")
        members = [
            (name, m) for name, m in vars(module).items()
            if getattr(m, "__module__", None) == module.__name__
        ]
        members += [
            (f"{cls_name}.{name}", m) for cls_name, cls in members if inspect.isclass(cls)
            for name, m in vars(cls).items()
            if not (issubclass(cls, Record) and name.startswith("__"))  # the rule's __init__
        ]
        for name, fn in members:
            fn = getattr(fn, "__func__", fn)  # a classmethod or staticmethod
            if not inspect.isfunction(fn):
                continue
            kinds = [str(a) for p, a in inspect.get_annotations(fn).items() if p != "return"]
            if any("Array[" in kind for kind in kinds):
                annotated.append(fn.__name__)
            elif (
                _takes_a_scalar(fn)
                and not name.rsplit(".", 1)[-1].startswith("_")
                and not SCALARS_CHECKED_ELSEWHERE & {module.__name__, name}
            ):
                scalar.append(name)
            else:
                continue
            assert fn.__code__ is wrapper, f"{module.__name__}.{name}"
    assert {"scan_bank", "motion_mask", "layer_norm", "lift_center"} <= set(annotated)
    assert {"seeded_stack", "camera_ring", "DeformAttnParams.seeded"} <= set(scalar)
    assert "PipelineWeights.from_seed" in scalar
