"""End-to-end multi-frame detection pipeline and its cost models.

The 2D proposals of all frames become 3D queries in one batched pass;
frames are padded to a common slot count, and the motion stage runs once
over all past frames: their centers are aligned into the current ego frame
(compensating ego motion; this forward-only stack predicts no object
velocities, so alignment extrapolates none), one (N - 1, K, K) cost tensor
compares them with the current centers, and one (N, K) mask eliminates the
statically matched slots.  The surviving sequence is channel-concatenated
and run through the gated state-space fusion stack.
A single cross-attention decoder layer then refines the current frame's
queries against sampled image features, and a box head reads out
detections.

The module also carries the attention kernel that the decoder and the
scaling benchmark share, ``cross_attention``, and the analytic
multiply-accumulate counts of the two temporal fusion mechanisms:

    cross-attention: 4 * N * (K * D)**2 + 2 * N**2 * K * D
    state-space:     3 * N * (2 * D) * M + N * (2 * K * D) * M
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    Array, Bound, Config, Record, ValidationError, _schema, checked, field_value, frozen,
)
from .fusion import FusedQuerySequence, QueryMambaStack, query_mamba_stack, seeded_stack
from .geometry import PosEmbedParams, align_centers
from .motion import (
    MotionElimConfig,
    PaddedQuerySequence,
    apply_motion_mask,
    motion_cost,
    motion_mask,
    pad_frames,
)
from .numerics import require_finite, softmax
from .queries import DeformAttnParams, build_query

WEIGHTS_FORMAT = "statefuse-weights/1"
BOX_MODES = ("bypass", "linear")
_BOX_FIELDS = 10
# An unbuffered read takes a header line byte by byte, so it stops here.
_HEADER_LIMIT = 1 << 16

REPORT_HEADER = "frame,object_slot,retained,center_x,center_y,center_z,category,score"


_REPORT_ROW = "%d,%d,%d,%.17g,%.17g,%.17g,%d,%.17g\n"


@checked
def op_count_cross_attention(
    n: Bound[int, ">=", 1], k: Bound[int, ">=", 1], d: Bound[int, ">=", 1]
) -> int:
    """Multiply-accumulates of cross-attention temporal fusion (exact integer)."""
    return 4 * n * (k * d) ** 2 + 2 * n * n * k * d


def cross_attention(queries, context, wq, wk, wv, wo) -> np.ndarray:
    """Scaled dot-product attention of ``queries`` over ``context``, output
    projected: softmax(Q K^T / sqrt(D)) V wo with Q = queries wq, K = context
    wk, V = context wv, and D the query projection width.  The four
    projections, Q K^T and the attention-weighted values are the
    multiply-accumulates that :func:`op_count_cross_attention` counts.
    """
    q = queries @ wq
    k = context @ wk
    v = context @ wv
    attn = softmax((q @ k.T) / np.sqrt(q.shape[1]), axis=1)
    return (attn @ v) @ wo


@checked
def op_count_ssm(
    n: Bound[int, ">=", 1], k: Bound[int, ">=", 1], d: Bound[int, ">=", 1],
    m: Bound[int, ">=", 1] = 16,
) -> int:
    """Multiply-accumulates of state-space temporal fusion (exact integer)."""
    return 3 * n * (2 * d) * m + n * (2 * k * d) * m


@dataclass(frozen=True)
class PipelineDims(Config):
    """Shape and hyper constants that, with a seed, fix every weight."""

    k_queries: Bound[int, ">=", 1]
    embed_dim: Bound[int, ">=", 2] = 24
    feature_channels: Bound[int, ">=", 1] = 8
    state_dim: Bound[int, ">=", 1] = 16
    n_layers: Bound[int, ">=", 1] = 6
    n_heads: Bound[int, ">=", 1] = 2
    n_keys: Bound[int, ">=", 1] = 4
    dw_ksize: Bound[int, ">=", 1] = 3
    decoder_keys: Bound[int, ">=", 1] = 32
    epsilon: Bound[float, ">", 0] = 1e-6
    temperature: Bound[float, ">", 0] = 10000.0
    delta: Bound[float, ">", 0] = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.embed_dim % 2 != 0:
            raise ValidationError(f"embed_dim: expected an even int, got {self.embed_dim}")

    @property
    def n_channels(self) -> int:
        return self.k_queries * self.embed_dim


_WEIGHTS_SEED = Bound[int, ">=", 0, "<", 2**64]  # of a weights file: an unsigned 64-bit int


@dataclass(frozen=True)
class PipelineWeights(Record):
    """Every learned parameter of the pipeline, fixed by seed + dims.

    The fields after the header (seed, dims, box_mode) are declared in blob
    order, and each must agree with ``dims`` (see :func:`_blob_arrays`).
    """

    seed: _WEIGHTS_SEED
    dims: PipelineDims
    box_mode: typing.Literal[BOX_MODES]
    attn: DeformAttnParams
    pos: PosEmbedParams
    sem_proj: Array[float, "C", "D"]
    stack: QueryMambaStack
    dec_q: Array[float, "D", "D"]
    dec_k: Array[float, "C", "D"]
    dec_v: Array[float, "C", "D"]
    dec_out: Array[float, "D", "D"]
    box_w: Array[float, "D", _BOX_FIELDS] | None = None
    box_b: Array[float, _BOX_FIELDS] | None = None

    def __post_init__(self):
        super().__post_init__()
        linear = self.box_mode == "linear"
        if (self.box_w is not None, self.box_b is not None) != (linear, linear):
            raise ValidationError("box_w and box_b: given in linear box mode, and only there")
        for _ in _blob_arrays(self, self.dims, self.box_mode):  # the walk checks each field
            pass

    @classmethod
    @checked
    def from_seed(
        cls, seed: _WEIGHTS_SEED, dims: PipelineDims, box_mode: typing.Literal[BOX_MODES] = "bypass"
    ) -> PipelineWeights:
        """Deterministic build; each component draws from its own substream.

        Components that do not depend on k_queries are identical across
        weights built for different slot counts with the same seed.
        """
        c, d = dims.feature_channels, dims.embed_dim
        attn = DeformAttnParams.seeded(
            c, [seed, 1], n_heads=dims.n_heads, n_keys=dims.n_keys
        )
        pos = PosEmbedParams.seeded(d, [seed, 2], dims.temperature)
        # Fresh draws are write-protected, so the constructor keeps them uncopied.
        sem_proj = frozen(np.random.default_rng([seed, 3]).uniform(-0.1, 0.1, size=(c, d)))
        dec_rng = np.random.default_rng([seed, 4])
        dec_q = frozen(dec_rng.uniform(-0.1, 0.1, size=(d, d)))
        dec_k = frozen(dec_rng.uniform(-0.1, 0.1, size=(c, d)))
        dec_v = frozen(dec_rng.uniform(-0.1, 0.1, size=(c, d)))
        dec_out = frozen(dec_rng.uniform(-0.1, 0.1, size=(d, d)))
        if box_mode == "linear":
            box_rng = np.random.default_rng([seed, 5])
            box_w = frozen(box_rng.uniform(-0.1, 0.1, size=(d, _BOX_FIELDS)))
            box_b = frozen(box_rng.uniform(-0.1, 0.1, size=_BOX_FIELDS))
        else:
            box_w = box_b = None
        stack = seeded_stack(
            dims.n_channels,
            seed,
            n_layers=dims.n_layers,
            state_dim=dims.state_dim,
            ksize=dims.dw_ksize,
            delta=dims.delta,
            epsilon=dims.epsilon,
        )
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
class Detection(Record):
    center3d: Array[float, 3]
    size: Array[Bound[float, ">=", 0], 3]
    yaw: float
    velocity: Array[float, 2]
    category: int
    score: Bound[float, ">=", 0, "<=", 1]


@dataclass(frozen=True)
class PipelineResult(Record):
    """Everything a forward pass computes, for reporting and inspection:
    the current frame's detections, the (N, K) retention mask, the padded
    queries and their scores before elimination, the fused sequence before
    and after the stack, and the decoder's (K, D) refined queries."""

    detections: tuple[Detection, ...]
    motion_mask: Array[int, "N", "K"]
    padded: PaddedQuerySequence
    slot_scores: Array[float, "N", "K"]
    fused_input: FusedQuerySequence
    fused_output: FusedQuerySequence
    refined: Array[float, "K", "D"]

    def __post_init__(self):
        super().__post_init__()
        n, k = self.motion_mask.shape
        fused_in, fused_out = self.fused_input, self.fused_output
        for name, label, want, got in (
            ("padded", "frames x slots", (n, k), self.padded.embeddings.shape[:2]),
            ("fused_input", "rows x slots", (n, k), (fused_in.n_frames, fused_in.k_queries)),
            ("fused_output", "rows x slots", (n, k), (fused_out.n_frames, fused_out.k_queries)),
            ("refined", "slots x embed_dim", (k, self.padded.embed_dim), self.refined.shape),
        ):
            if got != want:
                raise ValidationError(f"{name}: expected {label} {want}, got {got}")


def channel_concat(seq: PaddedQuerySequence) -> FusedQuerySequence:
    """Lay the K query embeddings of each frame side by side, oldest first."""
    rows = seq.embeddings.reshape(seq.n_frames, seq.k_queries * seq.embed_dim)
    return FusedQuerySequence(
        rows, tuple(range(seq.n_frames)), seq.k_queries, seq.embed_dim
    )


@checked
def decode_current_frame(fused: FusedQuerySequence, feats, w: PipelineWeights) -> np.ndarray:
    """One cross-attention decoder layer over the current frame's queries.

    The newest fused row, split back into its K (D,) slot vectors, holds
    the current frame's queries after fusion.  They attend, through
    :func:`cross_attention`, over a seeded subsample of the feature-map
    positions of ``feats``, the current frame's maps, and the attended
    value is added back to them (a zero value projection leaves the
    queries untouched).  The maps must share one shape, as every key's
    position is drawn from map 0's.  Returns the (K, D) refined queries,
    write-protected.
    """
    k, d = fused.k_queries, fused.embed_dim
    if not feats:
        raise ValidationError("need at least one feature map")
    shapes = [fm.data.shape for fm in feats]
    if any(shape != shapes[0] for shape in shapes):
        raise ValidationError(f"feats: the maps must share one shape, got {shapes}")
    row = fused.data[-1].reshape(k, d)
    rng = np.random.default_rng([w.seed, 7])
    n_keys = w.dims.decoder_keys
    cams_idx = rng.integers(0, len(feats), size=n_keys)
    ys = rng.integers(0, feats[0].height, size=n_keys)
    xs = rng.integers(0, feats[0].width, size=n_keys)
    gathered = np.stack(
        [feats[c].data[y, x] for c, y, x in zip(cams_idx, ys, xs)]
    ).astype(np.float64)
    refined = row + cross_attention(row, gathered, w.dec_q, w.dec_k, w.dec_v, w.dec_out)
    return frozen(require_finite("stage decode", refined))


def _read_boxes(refined, seq: PaddedQuerySequence, scores, w: PipelineWeights):
    cur = seq.current_index
    slots = np.flatnonzero(seq.valid[cur])
    # Fields are views of write-protected arrays, which Detection keeps uncopied.
    if w.box_mode == "bypass":
        size, velocity = frozen(np.zeros(3)), frozen(np.zeros(2))
        boxes = [(seq.centers3d[cur, s], size, 0.0, velocity, scores[s]) for s in slots]
    else:
        out = frozen(require_finite("stage box_head", refined[slots] @ w.box_w + w.box_b))
        with np.errstate(over="ignore"):  # an overflow fails the stage check
            size = frozen(require_finite("stage box_head", np.exp(out[:, 3:6])))
        with np.errstate(over="ignore"):  # a very negative logit scores 0.0
            score = 1.0 / (1.0 + np.exp(-out[:, 9]))
        boxes = zip(out[:, 0:3], size, out[:, 6], out[:, 7:9], score)
    return tuple(
        Detection(center, size, yaw, velocity, seq.cats[cur, s], score)
        for s, (center, size, yaw, velocity, score) in zip(slots, boxes)
    )


@checked
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
    frozen(slot_scores)  # so that the result keeps it uncopied, as it does ``refined``

    cur = padded.current_index
    aligned = align_centers(
        padded.centers3d[:cur], frames[cur].ego_pose, [fr.ego_pose for fr in frames[:cur]]
    )
    require_finite("stage align", aligned)
    cost = motion_cost(padded.centers3d[cur], aligned, padded.valid[cur], padded.valid[:cur])
    mask = motion_mask(cost, padded.cats[cur], padded.cats[:cur], padded.valid[:cur], cfg)

    surviving = apply_motion_mask(padded, mask)
    fused_input = channel_concat(surviving)
    fused_output = query_mamba_stack(fused_input, w.stack)
    refined = decode_current_frame(fused_output, frames[cur].feature_maps, w)
    detections = _read_boxes(refined, surviving, slot_scores[cur], w)
    return PipelineResult(
        detections=detections,
        motion_mask=mask,
        padded=padded,
        slot_scores=slot_scores,
        fused_input=fused_input,
        fused_output=fused_output,
        refined=refined,
    )


def run_report_csv(result: PipelineResult) -> str:
    """Per-slot run report: retention flag, center, category, score.

    Centers and categories come from the padded pre-elimination queries,
    so eliminated slots stay inspectable; padded slots carry category -1.
    Floats are written with 17 significant digits, so they read back
    exactly.  One format pass covers every row.
    """
    seq = result.padded
    n, k = seq.n_frames, seq.k_queries
    frame, slot = np.divmod(np.arange(n * k), k)
    columns = (
        frame,
        slot,
        result.motion_mask.ravel(),
        *seq.centers3d.reshape(n * k, 3).T,
        seq.cats.ravel(),
        result.slot_scores.ravel(),
    )
    values = tuple(chain.from_iterable(zip(*(c.tolist() for c in columns))))
    return f"{REPORT_HEADER}\n" + _REPORT_ROW * (n * k) % values


# === weights serialization ===
#
# The blob holds the arrays of the weight records in their declared field
# order, depth first.  One walk over those fields, _blob_fields, gives the
# save order and the construction check (_blob_arrays), the header's size
# check (_n_values) and the rebuild on load (_rebuild).

_HEADER_FIELDS = ("seed", "dims", "box_mode")


def _axis_sizes(dims: PipelineDims) -> dict:
    """The size that ``dims`` gives each axis symbol of the weight records."""
    c, h = dims.feature_channels, dims.n_heads
    return {
        "E": dims.n_channels,
        "M": dims.state_dim,
        "S": dims.dw_ksize,
        "H": h,
        "C": c,
        "Ch": DeformAttnParams.head_width(c, h),
        "K": dims.n_keys,
        "D": dims.embed_dim,
    }


def _blob_fields(cls, dims: PipelineDims, box_mode: str):
    """(name, kind, want) of each blob field of the weight record class
    ``cls``, in declared order: ``want`` is an array's shape, a scalar's
    value (the dims field of its name), None for a nested record, and
    ``dims.n_layers`` for a ``tuple[R, ...]``, whose ``kind`` is then R.
    The header is left out, and the box head (the optional fields) in
    bypass mode."""
    sizes = _axis_sizes(dims)
    for name, kind, _, _, optional in _schema(cls):
        if name in _HEADER_FIELDS or optional and box_mode != "linear":
            continue
        if isinstance(kind, Array):
            yield name, kind, tuple(sizes[a] if isinstance(a, str) else a for a in kind.shape)
        elif isinstance(kind, Bound) or kind in (int, float):
            yield name, getattr(kind, "kind", kind), getattr(dims, name)
        elif typing.get_args(kind):  # tuple[R, ...]: one R per layer
            yield name, typing.get_args(kind)[0], dims.n_layers
        else:
            yield name, kind, None


def _blob_arrays(record, dims: PipelineDims, box_mode: str, path: str = ""):
    """The arrays of a weight record in blob order, each field checked on
    the way: an array must have the shape ``dims`` gives it, a scalar the
    value, and a tuple of layers ``dims.n_layers`` records, counted before
    any is walked.  A mismatch raises ValidationError naming its path."""
    for name, kind, want in _blob_fields(type(record), dims, box_mode):
        at, value = path + name, getattr(record, name)
        if isinstance(kind, Array):
            if value.shape != want:
                shape = kind.describe(_axis_sizes(dims))
                raise ValidationError(f"{at}: expected shape {shape}, got {value.shape}")
            yield value
        elif kind in (int, float):
            if value != want:
                raise ValidationError(f"{at}: expected {want!r} as dims {name}, got {value!r}")
        elif want is None:
            yield from _blob_arrays(value, dims, box_mode, at + ".")
        elif len(value) != want:
            raise ValidationError(f"{at}: expected n_layers={want} layers, got {len(value)}")
        else:
            for index, item in enumerate(value):
                yield from _blob_arrays(item, dims, box_mode, f"{at}[{index}].")


def _n_values(cls, dims: PipelineDims, box_mode: str) -> int:
    """How many values the blob arrays of record class ``cls`` hold; a tuple
    of layers counts one layer, so no header makes this enumerate them."""
    total = 0
    for _, kind, want in _blob_fields(cls, dims, box_mode):
        if isinstance(kind, Array):
            total += math.prod(want)
        elif kind not in (int, float):
            total += (1 if want is None else want) * _n_values(kind, dims, box_mode)
    return total


def _rebuild(cls, dims: PipelineDims, box_mode: str, take, path: str = "") -> dict:
    """The blob fields of a record of class ``cls`` at ``path``: its arrays
    are ``take(shape)`` in blob order, its scalars their dims values.  A
    nested record that refuses a field raises ValidationError naming the
    field's path, as :func:`_blob_arrays` does."""

    def record(kind, at: str):
        fields = _rebuild(kind, dims, box_mode, take, at)
        try:
            return kind(**fields)
        except ValidationError as exc:
            raise ValidationError(f"{at}{exc}") from None

    values = {}
    for name, kind, want in _blob_fields(cls, dims, box_mode):
        at = path + name
        if isinstance(kind, Array):
            values[name] = take(want)
        elif kind in (int, float):
            values[name] = want
        elif want is None:
            values[name] = record(kind, at + ".")
        else:
            values[name] = tuple(record(kind, f"{at}[{index}].") for index in range(want))
    return values


def weights_to_bytes(w: PipelineWeights) -> bytes:
    """JSON header line plus a little-endian float64 parameter blob."""
    header = {
        "format": WEIGHTS_FORMAT,
        "seed": w.seed,
        "box_mode": w.box_mode,
        "dims": w.dims.to_dict(),
    }
    blob = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes()
        for a in _blob_arrays(w, w.dims, w.box_mode)
    )
    return json.dumps(header).encode("utf-8") + b"\n" + blob


def _parse_weights(line: bytes, data: bytes, start: int) -> PipelineWeights:
    """The weights of a header line and the blob at ``data[start:]``.

    The blob size is checked against the dims before any array is built.
    The arrays view ``data`` when it is ``bytes`` and the blob starts on an
    8-byte boundary (the field rule keeps such views); otherwise each one
    is copied.
    """
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"weights header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != WEIGHTS_FORMAT:
        raise ValidationError(f"not a weights file (expected format {WEIGHTS_FORMAT!r})")
    missing = [key for key in _HEADER_FIELDS if key not in header]
    if missing:
        raise ValidationError(f"weights header lacks {', '.join(missing)}")
    kinds = {name: kind for name, kind, *_ in _schema(PipelineWeights)}
    seed, box_mode = (field_value(key, header[key], kinds[key]) for key in ("seed", "box_mode"))
    dims = PipelineDims.from_dict(header["dims"])
    total = _n_values(PipelineWeights, dims, box_mode)
    if len(data) - start != 8 * total:
        raise ValidationError(
            f"weights blob holds {len(data) - start} bytes, dims require {8 * total}"
        )
    flat = np.frombuffer(data, dtype="<f8", offset=start)
    offset = 0

    def take(shape):
        nonlocal offset
        size = math.prod(shape)
        offset += size
        return flat[offset - size : offset].reshape(shape)

    blob_fields = _rebuild(PipelineWeights, dims, box_mode, take)
    return PipelineWeights(seed=seed, dims=dims, box_mode=box_mode, **blob_fields)


def weights_from_bytes(raw: bytes) -> PipelineWeights:
    """Parse a weights file held in memory (see :func:`_parse_weights`)."""
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValidationError("weights data has no header line")
    return _parse_weights(raw[:newline], raw, newline + 1)


def save_weights(w: PipelineWeights, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(weights_to_bytes(w))


def load_weights(path: str) -> PipelineWeights:
    """Read a weights file once: the blob after the header line is read into
    one ``bytes`` object, which every parameter array views.

    The header line must end within the first ``_HEADER_LIMIT`` bytes.
    """
    with open(path, "rb", buffering=0) as fh:
        line = fh.readline(_HEADER_LIMIT)
        if not line.endswith(b"\n"):
            raise ValidationError("weights data has no header line")
        blob = fh.readall()
    return _parse_weights(line[:-1], blob, 0)
