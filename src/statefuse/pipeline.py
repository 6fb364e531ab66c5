"""End-to-end multi-frame detection pipeline and its cost models.

The 2D proposals of all frames become 3D queries in one batched pass;
frames are padded to a common slot count, past centers are aligned into
the current ego frame (compensating ego motion; this forward-only stack
predicts no object velocities, so alignment extrapolates none), statically
matched slots are eliminated, and the surviving sequence is
channel-concatenated and run through the gated state-space fusion stack.
A single cross-attention decoder layer then refines the current frame's
queries against sampled image features, and a box head reads out
detections.

The module also carries the analytic multiply-accumulate counts of the two
temporal fusion mechanisms:

    cross-attention: 4 * N * (K * D)**2 + 2 * N**2 * K * D
    state-space:     3 * N * (2 * D) * M + N * (2 * K * D) * M
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflowError, ValidationError
from .fusion import (
    FusedQuerySequence,
    Gs4Params,
    LayerNormParams,
    QueryMambaLayerParams,
    QueryMambaStack,
    query_mamba_stack,
    seeded_stack,
    zero_stack,
)
from .geometry import PosEmbedParams, align_centers
from .motion import (
    MotionElimConfig,
    MotionMask,
    PaddedQuerySequence,
    apply_motion_mask,
    motion_cost,
    motion_mask,
    pad_frames,
)
from .numerics import as_float_array, readonly, softmax
from .queries import DeformAttnParams, build_query
from .ssm import DiscreteSsmBank

WEIGHTS_FORMAT = "statefuse-weights/1"
BOX_MODES = ("bypass", "linear")
_BOX_FIELDS = 10

REPORT_HEADER = "frame,object_slot,retained,center_x,center_y,center_z,category,score"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def op_count_cross_attention(n: int, k: int, d: int) -> int:
    """Multiply-accumulates of cross-attention temporal fusion (exact integer)."""
    n, k, d = int(n), int(k), int(d)
    if n < 1 or k < 1 or d < 1:
        raise ValidationError("n, k, d must all be >= 1")
    return 4 * n * (k * d) ** 2 + 2 * n * n * k * d


def op_count_ssm(n: int, k: int, d: int, m: int = 16) -> int:
    """Multiply-accumulates of state-space temporal fusion (exact integer)."""
    n, k, d, m = int(n), int(k), int(d), int(m)
    if n < 1 or k < 1 or d < 1 or m < 1:
        raise ValidationError("n, k, d, m must all be >= 1")
    return 3 * n * (2 * d) * m + n * (2 * k * d) * m


_INT_DIMS = (
    "k_queries",
    "embed_dim",
    "feature_channels",
    "state_dim",
    "n_layers",
    "n_heads",
    "n_keys",
    "dw_ksize",
    "decoder_keys",
)
_FLOAT_DIMS = ("epsilon", "temperature", "delta")


@dataclass(frozen=True)
class PipelineDims:
    """Shape and hyper constants that, with a seed, fix every weight."""

    k_queries: int
    embed_dim: int = 24
    feature_channels: int = 8
    state_dim: int = 16
    n_layers: int = 6
    n_heads: int = 2
    n_keys: int = 4
    dw_ksize: int = 3
    decoder_keys: int = 32
    epsilon: float = 1e-6
    temperature: float = 10000.0
    delta: float = 0.1

    def __post_init__(self):
        for name in _INT_DIMS:
            raw = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(raw))
            except TypeError:
                raise ValidationError(
                    f"pipeline dimension {name} must be an integer, got {raw!r}"
                ) from None
        if any(getattr(self, name) < 1 for name in _INT_DIMS):
            raise ValidationError("all pipeline dimensions must be >= 1")
        if self.embed_dim % 2 != 0:
            raise ValidationError("embed_dim must be even")
        for name in _FLOAT_DIMS:
            raw = getattr(self, name)
            try:
                v = float(raw)
            except (TypeError, ValueError):
                v = float("nan")
            if not np.isfinite(v) or v <= 0.0:
                raise ValidationError(
                    f"{name} must be a positive finite number, got {raw!r}"
                )
            object.__setattr__(self, name, v)

    @property
    def n_channels(self) -> int:
        return self.k_queries * self.embed_dim

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineDims":
        if not isinstance(raw, dict):
            raise ValidationError("pipeline dims must be a JSON object")
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValidationError(f"unknown pipeline dims keys: {sorted(unknown)}")
        if "k_queries" not in raw:
            raise ValidationError("pipeline dims lack k_queries")
        return cls(**raw)


@dataclass(frozen=True)
class PipelineWeights:
    """Every learned parameter of the pipeline, fixed by seed + dims."""

    seed: int
    dims: PipelineDims
    box_mode: str
    stack: QueryMambaStack
    attn: DeformAttnParams
    pos: PosEmbedParams
    sem_proj: np.ndarray
    dec_q: np.ndarray
    dec_k: np.ndarray
    dec_v: np.ndarray
    dec_out: np.ndarray
    box_w: np.ndarray | None
    box_b: np.ndarray | None

    def __post_init__(self):
        if self.box_mode not in BOX_MODES:
            raise ValidationError(f"box_mode must be one of {BOX_MODES}")
        dims = self.dims
        c, d = dims.feature_channels, dims.embed_dim
        if self.stack.n_channels != dims.n_channels:
            raise ValidationError("stack width must equal k_queries * embed_dim")
        if self.attn.channels != c or self.pos.embed_dim != d:
            raise ValidationError("attention / embedding widths must match dims")
        sem = as_float_array(self.sem_proj, "sem_proj", shape=(c, d))
        dq = as_float_array(self.dec_q, "dec_q", shape=(d, d))
        dk = as_float_array(self.dec_k, "dec_k", shape=(c, d))
        dv = as_float_array(self.dec_v, "dec_v", shape=(c, d))
        do = as_float_array(self.dec_out, "dec_out", shape=(d, d))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "sem_proj", readonly(sem))
        object.__setattr__(self, "dec_q", readonly(dq))
        object.__setattr__(self, "dec_k", readonly(dk))
        object.__setattr__(self, "dec_v", readonly(dv))
        object.__setattr__(self, "dec_out", readonly(do))
        if self.box_mode == "linear":
            bw = as_float_array(self.box_w, "box_w", shape=(d, _BOX_FIELDS))
            bb = as_float_array(self.box_b, "box_b", shape=(_BOX_FIELDS,))
            object.__setattr__(self, "box_w", readonly(bw))
            object.__setattr__(self, "box_b", readonly(bb))
        elif self.box_w is not None or self.box_b is not None:
            raise ValidationError("bypass mode takes no box head parameters")

    @classmethod
    def from_seed(
        cls,
        seed: int,
        dims: PipelineDims,
        box_mode: str = "bypass",
        *,
        zero_fusion: bool = False,
    ) -> "PipelineWeights":
        """Deterministic build; each component draws from its own substream.

        Components that do not depend on k_queries are identical across
        weights built for different slot counts with the same seed.
        """
        seed = int(seed)
        if box_mode not in BOX_MODES:
            raise ValidationError(f"box_mode must be one of {BOX_MODES}")
        c, d = dims.feature_channels, dims.embed_dim
        attn = DeformAttnParams.seeded(
            c, [seed, 1], n_heads=dims.n_heads, n_keys=dims.n_keys
        )
        pos = PosEmbedParams.seeded(d, [seed, 2], dims.temperature)
        sem_proj = np.random.default_rng([seed, 3]).uniform(-0.1, 0.1, size=(c, d))
        dec_rng = np.random.default_rng([seed, 4])
        dec_q = dec_rng.uniform(-0.1, 0.1, size=(d, d))
        dec_k = dec_rng.uniform(-0.1, 0.1, size=(c, d))
        dec_v = dec_rng.uniform(-0.1, 0.1, size=(c, d))
        dec_out = dec_rng.uniform(-0.1, 0.1, size=(d, d))
        if box_mode == "linear":
            box_rng = np.random.default_rng([seed, 5])
            box_w = box_rng.uniform(-0.1, 0.1, size=(d, _BOX_FIELDS))
            box_b = box_rng.uniform(-0.1, 0.1, size=_BOX_FIELDS)
        else:
            box_w = box_b = None
        stack_kwargs = dict(
            n_layers=dims.n_layers,
            state_dim=dims.state_dim,
            ksize=dims.dw_ksize,
            delta=dims.delta,
            epsilon=dims.epsilon,
        )
        if zero_fusion:
            stack = zero_stack(dims.n_channels, **stack_kwargs)
        else:
            stack = seeded_stack(dims.n_channels, seed, **stack_kwargs)
        return cls(
            seed=seed,
            dims=dims,
            box_mode=box_mode,
            stack=stack,
            attn=attn,
            pos=pos,
            sem_proj=sem_proj,
            dec_q=dec_q,
            dec_k=dec_k,
            dec_v=dec_v,
            dec_out=dec_out,
            box_w=box_w,
            box_b=box_b,
        )


@dataclass(frozen=True)
class Detection:
    center3d: np.ndarray
    size: np.ndarray
    yaw: float
    velocity: np.ndarray
    category: int
    score: float

    def __post_init__(self):
        center = as_float_array(self.center3d, "center3d", shape=(3,))
        size = as_float_array(self.size, "size", shape=(3,))
        if np.any(size < 0.0):
            raise ValidationError("size extents must be non-negative")
        vel = as_float_array(self.velocity, "velocity", shape=(2,))
        yaw = float(self.yaw)
        score = float(self.score)
        if not np.isfinite(yaw):
            raise ValidationError("yaw must be finite")
        if not (0.0 <= score <= 1.0):
            raise ValidationError("score must lie in [0, 1]")
        object.__setattr__(self, "center3d", readonly(center))
        object.__setattr__(self, "size", readonly(size))
        object.__setattr__(self, "yaw", yaw)
        object.__setattr__(self, "velocity", readonly(vel))
        object.__setattr__(self, "category", int(self.category))
        object.__setattr__(self, "score", score)


@dataclass(frozen=True)
class OpCountReport:
    n_frames: int
    k_queries: int
    embed_dim: int
    state_dim: int
    cross_attention_ops: int
    ssm_ops: int

    @classmethod
    def build(cls, n: int, k: int, d: int, m: int) -> "OpCountReport":
        return cls(
            n_frames=int(n),
            k_queries=int(k),
            embed_dim=int(d),
            state_dim=int(m),
            cross_attention_ops=op_count_cross_attention(n, k, d),
            ssm_ops=op_count_ssm(n, k, d, m),
        )


@dataclass(frozen=True)
class PipelineResult:
    """Everything run_pipeline computes, for reporting and inspection."""

    detections: tuple
    op_report: OpCountReport
    motion_mask: MotionMask
    padded: PaddedQuerySequence
    slot_scores: np.ndarray
    fused_input: FusedQuerySequence
    fused_output: FusedQuerySequence
    refined: np.ndarray


def channel_concat(seq: PaddedQuerySequence) -> FusedQuerySequence:
    """Lay the K query embeddings of each frame side by side, oldest first."""
    rows = seq.embeddings.reshape(seq.n_frames, seq.k_queries * seq.embed_dim)
    return FusedQuerySequence(
        rows, tuple(range(seq.n_frames)), seq.k_queries, seq.embed_dim
    )


def _stage_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(f"stage {name}: non-finite values")


def decode_current_frame(
    fused: FusedQuerySequence, current_queries, feats, w: PipelineWeights
) -> np.ndarray:
    """One cross-attention decoder layer over the current frame's queries.

    The newest fused row, split back into K slot vectors, is the enriched
    form of ``current_queries``, the current frame's (K, D) query rows.
    Keys and values are projections of a seeded subsample of feature-map
    positions; attention rows are softmax normalized, and the attended
    value is added back through an output projection (zero value
    projection leaves the queries untouched).
    """
    k, d = fused.k_queries, fused.embed_dim
    if len(current_queries) != k:
        raise ValidationError(f"expected {k} current queries, got {len(current_queries)}")
    if not feats:
        raise ValidationError("need at least one feature map")
    row = fused.data[-1].reshape(k, d)
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
    refined = row + (attn @ values) @ w.dec_out
    _stage_finite("decode", refined)
    return refined


def _read_boxes(refined, seq: PaddedQuerySequence, scores, w: PipelineWeights):
    cur = seq.current_index
    slots = np.flatnonzero(seq.valid[cur])
    if w.box_mode == "bypass":
        boxes = [(seq.centers3d[cur, s], np.zeros(3), 0.0, np.zeros(2), scores[s]) for s in slots]
    else:
        out = refined[slots] @ w.box_w + w.box_b
        boxes = [(r[0:3], np.exp(r[3:6]), r[6], r[7:9], 1.0 / (1.0 + np.exp(-r[9]))) for r in out]
    return tuple(
        Detection(center, size, yaw, velocity, seq.cats[cur, s], score)
        for s, (center, size, yaw, velocity, score) in zip(slots, boxes)
    )


def run_pipeline_detailed(
    frames, cams, w: PipelineWeights, cfg: MotionElimConfig | None = None
) -> PipelineResult:
    """Full forward pass over chronologically ordered frames."""
    cfg = MotionElimConfig() if cfg is None else cfg
    frames = list(frames)
    if not frames:
        raise ValidationError("need at least one frame")
    stamps = [fr.ego_pose.timestamp for fr in frames]
    if any(b <= a for a, b in zip(stamps, stamps[1:])):
        raise ValidationError("frames must be ordered oldest to newest")

    proposals = [fr.proposals for fr in frames]
    feature_maps = [fr.feature_maps for fr in frames]
    q3d, centers, cats, scores, counts = build_query(
        proposals, feature_maps, cams, w.attn, w.pos, w.sem_proj
    )
    padded = pad_frames(q3d, centers, cats, counts)
    k = padded.k_queries
    if k != w.dims.k_queries:
        raise ValidationError(
            f"weights were built for k_queries={w.dims.k_queries}, scene needs {k}"
        )
    slot_scores = np.zeros((padded.n_frames, k))
    slot_scores[padded.valid] = scores

    cur = padded.current_index
    pose_now = frames[cur].ego_pose
    cur_centers = padded.centers(cur)
    cur_valid = padded.validity(cur)
    cur_cats = padded.categories(cur)
    vectors = []
    for i in range(padded.n_frames):
        if i == cur:
            vectors.append(np.ones(k, dtype=np.int8))
            continue
        pose_past = frames[i].ego_pose
        dt = pose_now.timestamp - pose_past.timestamp
        aligned = align_centers(
            padded.centers(i), np.zeros((k, 3)), dt, pose_now, pose_past
        )
        _stage_finite("align", aligned)
        cost = motion_cost(
            cur_centers,
            aligned,
            np.stack([cur_valid, padded.validity(i)], axis=1),
            frame_offset=cur - i,
        )
        vectors.append(motion_mask(cost, cur_cats, padded.categories(i), cfg))
    mask = MotionMask(tuple(vectors))

    surviving = apply_motion_mask(padded, mask)
    fused_input = channel_concat(surviving)
    fused_output = query_mamba_stack(fused_input, w.stack)
    _stage_finite("fusion", fused_output.data)
    refined = decode_current_frame(
        fused_output, surviving.q3d(cur), frames[cur].feature_maps, w
    )
    detections = _read_boxes(refined, surviving, slot_scores[cur], w)
    report = OpCountReport.build(
        padded.n_frames, k, w.dims.embed_dim, w.dims.state_dim
    )
    return PipelineResult(
        detections=detections,
        op_report=report,
        motion_mask=mask,
        padded=padded,
        slot_scores=slot_scores,
        fused_input=fused_input,
        fused_output=fused_output,
        refined=refined,
    )


def run_pipeline(frames, cams, w: PipelineWeights, cfg: MotionElimConfig | None = None):
    """Forward pass returning (detections, op-count report, motion mask)."""
    result = run_pipeline_detailed(frames, cams, w, cfg)
    return list(result.detections), result.op_report, result.motion_mask


def run_report_csv(result: PipelineResult) -> str:
    """Per-slot run report: retention flag, center, category, score.

    Centers and categories come from the padded pre-elimination queries,
    so eliminated slots stay inspectable; padded slots carry category -1.
    """
    seq = result.padded
    retained = np.stack(result.motion_mask.per_frame).tolist()
    centers, cats, scores = seq.centers3d.tolist(), seq.cats.tolist(), result.slot_scores.tolist()
    lines = [REPORT_HEADER]
    for i in range(seq.n_frames):
        for s in range(seq.k_queries):
            x, y, z = (_fmt(v) for v in centers[i][s])
            lines.append(f"{i},{s},{retained[i][s]},{x},{y},{z},{cats[i][s]},{_fmt(scores[i][s])}")
    return "\n".join(lines) + "\n"


# === weights serialization ===

def _weight_arrays(w: PipelineWeights):
    """Canonical parameter walk used by the save / load blob layout."""
    yield w.attn.value_proj
    yield w.attn.out_proj
    yield w.attn.offsets
    yield w.attn.weights
    yield w.pos.w1
    yield w.pos.b1
    yield w.pos.w2
    yield w.pos.b2
    yield w.sem_proj
    for layer in w.stack.layers:
        yield layer.ln1.scale
        yield layer.ln1.shift
        yield layer.ln2.scale
        yield layer.ln2.shift
        yield layer.dw_kernel
        yield layer.gs4.bank.a_bar
        yield layer.gs4.bank.b_bar
        yield layer.gs4.bank.c_bar
        yield layer.gs4.bank.d_bar
        yield layer.gs4.w_u
        yield layer.gs4.w_v
        yield layer.gs4.w_o
        yield layer.out_weight
        yield layer.out_bias
    yield w.dec_q
    yield w.dec_k
    yield w.dec_v
    yield w.dec_out
    if w.box_mode == "linear":
        yield w.box_w
        yield w.box_b


def _weight_shapes(dims: PipelineDims, box_mode: str) -> tuple:
    """Blob layout of :func:`_weight_arrays`, derived from dims alone.

    Returns (shapes before the layers, shapes of one layer, shapes after);
    the layer part repeats ``dims.n_layers`` times.
    """
    c, d, e, m = dims.feature_channels, dims.embed_dim, dims.n_channels, dims.state_dim
    heads, keys = dims.n_heads, dims.n_keys
    c_h = DeformAttnParams.head_width(c, heads)
    head = [(heads, c, c_h), (heads, c_h, c), (heads, keys, 2), (heads, keys)]
    head += [(d, d), (d,), (d, d), (d,), (c, d)]
    layer = [(e,)] * 4 + [(e, dims.dw_ksize)] + [(e, m)] * 3 + [(e,)]
    layer += [(e, e)] * 4 + [(e,)]
    tail = [(d, d), (c, d), (c, d), (d, d)]
    if box_mode == "linear":
        tail += [(d, _BOX_FIELDS), (_BOX_FIELDS,)]
    return head, layer, tail


def _assemble_weights(seed: int, dims: PipelineDims, box_mode: str, arrays) -> PipelineWeights:
    it = iter(arrays)

    def take():
        return next(it)

    attn = DeformAttnParams(take(), take(), take(), take())
    pos = PosEmbedParams(dims.embed_dim, dims.temperature, take(), take(), take(), take())
    sem_proj = take()
    layers = []
    for _ in range(dims.n_layers):
        ln1 = LayerNormParams(take(), take(), dims.epsilon)
        ln2 = LayerNormParams(take(), take(), dims.epsilon)
        dw = take()
        bank = DiscreteSsmBank(take(), take(), take(), take())
        gs4 = Gs4Params(bank, take(), take(), take())
        out_w = take()
        out_b = take()
        layers.append(QueryMambaLayerParams(ln1, ln2, dw, gs4, out_w, out_b))
    stack = QueryMambaStack(tuple(layers))
    dec_q, dec_k, dec_v, dec_out = take(), take(), take(), take()
    box_w = box_b = None
    if box_mode == "linear":
        box_w = take()
        box_b = take()
    return PipelineWeights(
        seed=seed,
        dims=dims,
        box_mode=box_mode,
        stack=stack,
        attn=attn,
        pos=pos,
        sem_proj=sem_proj,
        dec_q=dec_q,
        dec_k=dec_k,
        dec_v=dec_v,
        dec_out=dec_out,
        box_w=box_w,
        box_b=box_b,
    )


def weights_to_bytes(w: PipelineWeights) -> bytes:
    """JSON header line plus a little-endian float64 parameter blob."""
    header = {
        "format": WEIGHTS_FORMAT,
        "seed": w.seed,
        "box_mode": w.box_mode,
        "dims": w.dims.to_dict(),
    }
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for a in _weight_arrays(w)
    )
    return json.dumps(header).encode("utf-8") + b"\n" + blob


def _n_values(shapes) -> int:
    return sum(math.prod(shape) for shape in shapes)


def weights_from_bytes(raw: bytes) -> PipelineWeights:
    """Parse a weights file; the blob size is checked before any array is built."""
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValidationError("weights data has no header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"weights header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != WEIGHTS_FORMAT:
        raise ValidationError(f"not a weights file (expected format {WEIGHTS_FORMAT!r})")
    missing = [key for key in ("seed", "box_mode", "dims") if key not in header]
    if missing:
        raise ValidationError(f"weights header lacks {', '.join(missing)}")
    seed = header["seed"]
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValidationError(
            f"weights header seed must be an unsigned 64-bit integer, got {seed!r}"
        )
    box_mode = header["box_mode"]
    if box_mode not in BOX_MODES:
        raise ValidationError(
            f"weights header box_mode must be one of {BOX_MODES}, got {box_mode!r}"
        )
    dims = PipelineDims.from_dict(header["dims"])
    head, layer, tail = _weight_shapes(dims, box_mode)
    total = _n_values(head) + dims.n_layers * _n_values(layer) + _n_values(tail)
    blob_bytes = len(raw) - (newline + 1)
    if blob_bytes != 8 * total:
        raise ValidationError(
            f"weights blob holds {blob_bytes} bytes, dims require {8 * total}"
        )
    flat = np.frombuffer(raw, dtype="<f8", offset=newline + 1)
    arrays = []
    offset = 0
    for shape in head + layer * dims.n_layers + tail:
        size = math.prod(shape)
        arrays.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return _assemble_weights(seed, dims, box_mode, arrays)


def save_weights(w: PipelineWeights, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(weights_to_bytes(w))


def load_weights(path: str) -> PipelineWeights:
    with open(path, "rb") as fh:
        return weights_from_bytes(fh.read())
