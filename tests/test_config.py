"""The one field rule of the config types: SceneConfig, PipelineDims,
BenchConfig and MotionElimConfig."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statefuse import (
    BenchConfig,
    MotionElimConfig,
    PipelineDims,
    PipelineWeights,
    SceneConfig,
    ValidationError,
)
from statefuse.pipeline import weights_from_bytes, weights_to_bytes

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
        (MotionElimConfig, {"require_same_category": "no"}, r"^require_same_category: expected"),
        (MotionElimConfig, {"require_same_category": 0}, r"^require_same_category: expected"),
        (BenchConfig, {"measure_memory": "false"}, r"^measure_memory: expected a value like False"),
        (BenchConfig, {"k": 2.7}, r"^k: expected a value like 4, got 2.7$"),
        (BenchConfig, {"n_list": "64"}, r"^n_list: expected a value like \(64, 128,"),
        (BenchConfig, {"n_list": [8, "16", 32]}, r"^n_list: expected"),
        (BenchConfig, {"seed": -1}, r"^seed must be >= 0$"),
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
