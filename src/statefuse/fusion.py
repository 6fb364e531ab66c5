"""Temporal fusion of query sequences with gated state-space layers.

The fusion operand is a channel-concatenated query sequence: one row per
frame (oldest to newest), each row the K per-frame query vectors of width D
laid side by side, so E = K * D channels.  A fusion layer is

    z   = DWConv(LN1(x)) + LN1(x)
    z'  = GS4(LN2(z)) + LN2(z)
    out = Linear(z') + x

where GS4 gates a bank of per-channel state-space scans:

    u = GELU(x @ W_u);  v = GELU(x @ W_v)
    s[:, e] = scan of channel e over u[:, e]
    y = (s * v) @ W_o

Every stage is causal along the frame axis, and the final residual makes an
all-zero-weight layer an exact identity.

The stack runs tiled along the frame axis: it cuts the sequence into tiles
of ``_TILE_ROWS`` = 160 rows and runs every layer over one tile before it
starts the next, so no stage allocates an array of length N.  Between
tiles each layer carries two things: the last ksize - 1 rows of its LN1
output, which the causal conv of the next tile reaches back to, and the
c_bar-weighted state at the scan's last chunk boundary
(:class:`~statefuse.ssm.ScanCarry`; the chunk constants belong to the
layer's bank, which builds them once).  Inside a tile the stages update
their arrays in place.  160 rows is a multiple of the scan's chunk, and a
(160, 96) float64 tile is 120 KiB, under glibc's 128 KiB mmap threshold, so
the temporaries of one tile reuse heap pages from the last instead of
faulting in fresh ones.  A sequence of one tile carries nothing.  Each row goes
through the same operations in the same order as in a pass of each layer
over the whole sequence, and the tests pin the two as bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Array, Bound, NumericOverflowError, Record, ValidationError, checked, frozen
from .numerics import gelu, require_finite
from .ssm import (  # the short scan's conv is the layer's conv too
    _CHUNK,
    DiscreteSsmBank,
    ScanCarry,
    depthwise_causal_conv,
    scan_bank,
    seeded_bank,
)


@dataclass(frozen=True)
class QueryMambaLayerParams(Record):
    """One fusion layer: its two layer norms, causal conv, gated scan (the
    channel bank and its gating projections) and output projection."""

    ln1_scale: Array[float, "E"]
    ln1_shift: Array[float, "E"]
    ln2_scale: Array[float, "E"]
    ln2_shift: Array[float, "E"]
    epsilon: Bound[float, ">", 0]  # of both layer norms
    dw_kernel: Array[float, "E", "S"]  # S: the conv's kernel size
    bank: DiscreteSsmBank
    w_u: Array[float, "E", "E"]
    w_v: Array[float, "E", "E"]
    w_o: Array[float, "E", "E"]
    out_weight: Array[float, "E", "E"]
    out_bias: Array[float, "E"]

    def __post_init__(self):
        super().__post_init__()
        if self.bank.n_channels != self.n_channels:
            raise ValidationError(
                f"bank: width {self.bank.n_channels} does not match the layer's {self.n_channels}"
            )

    @property
    def n_channels(self) -> int:
        return self.out_bias.size


@dataclass(frozen=True)
class QueryMambaStack(Record):
    layers: tuple[QueryMambaLayerParams, ...]

    def __post_init__(self):
        super().__post_init__()
        if not self.layers:
            raise ValidationError("stack needs at least one layer")
        e = self.layers[0].n_channels
        if any(layer.n_channels != e for layer in self.layers):
            raise ValidationError("all stack layers must share one channel count")


@dataclass(frozen=True)
class FusedQuerySequence(Record):
    """Channel-concatenated query sequence: rows are frames, oldest first."""

    data: Array[float, "N", "E"]
    frame_order: tuple[int, ...]
    k_queries: Bound[int, ">=", 1]
    embed_dim: Bound[int, ">=", 1]

    def __post_init__(self):
        super().__post_init__()
        n, e = self.data.shape
        k, d = self.k_queries, self.embed_dim
        if e != k * d:
            raise ValidationError(f"row width {e} must equal k_queries * embed_dim = {k * d}")
        if len(self.frame_order) != n or sorted(self.frame_order) != list(range(n)):
            raise ValidationError("frame_order must index every frame exactly once")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray, epsilon: float) -> np.ndarray:
    """Normalize the last axis of a float64 (..., E) ``x`` to zero mean and
    unit population variance, then scale and shift by (E,) arrays.

    Unchecked: the stack hands it arrays its records and the previous
    layer's output check have checked.  The epsilon = 0 limit is taken, so
    exact hand values stay expressible.
    """
    if x.shape[-1] == 0:
        raise ValidationError("x: the last axis must be non-empty")
    mean = x.mean(axis=-1, keepdims=True)
    out = x - mean
    var = np.square(out).sum(axis=-1, keepdims=True)  # as x.var() sums it
    var /= x.shape[-1]
    out *= scale
    out /= np.sqrt(var + epsilon)
    out += shift
    return out


def gs4_layer(
    x: np.ndarray, params: QueryMambaLayerParams, carry: ScanCarry | None = None
) -> np.ndarray:
    """The gated state-space sublayer of layer ``params`` over a finite
    float64 (N, E) sequence; unchecked, as :func:`layer_norm` is.

    With a ``carry`` of ``params.bank``, x is the next tile of a longer
    sequence and the scan continues from the previous tile.
    """
    if x.shape[1] != params.n_channels:
        raise ValidationError(f"x: width {x.shape[1]}, the layer's is {params.n_channels}")
    u = gelu(x @ params.w_u)
    v = gelu(x @ params.w_v)
    s = scan_bank(params.bank, u, carry)  # a non-finite u fails the check below
    s *= v
    return require_finite("gs4", s @ params.w_o)


# Rows per tile of the stack (see the module docstring).  256-row tiles took
# 160-1,960 minor page faults per history_fusion op (N = 1024, E = 96); 160
# takes none, as 128 does, in 7 tiles of calls instead of 8.
_TILE_ROWS = 160


def _tiles(n: int) -> list:
    """(start, stop) rows of the tiles of an n-row sequence.

    A tail of one scan chunk or less moves the last cut back one chunk, so
    each tile of a split sequence holds two chunks or more (see ScanCarry).
    """
    starts = list(range(0, n, _TILE_ROWS))
    if len(starts) > 1 and n - starts[-1] <= _CHUNK:
        starts[-1] -= _CHUNK
    return list(zip(starts, starts[1:] + [n]))


class _LayerPass:
    """One layer run over the consecutive tiles of one sequence.

    Between tiles it keeps the last ksize - 1 rows of its LN1 output, which
    the causal conv of the next tile reaches back to, and the scan carry.
    A pass over a single tile keeps neither.
    """

    def __init__(self, params: QueryMambaLayerParams, tiled: bool):
        self.params = params
        self.reach = params.dw_kernel.shape[1] - 1
        self.history = None
        self.scan = ScanCarry(params.bank) if tiled else None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        p = self.params
        ln1 = layer_norm(x, p.ln1_scale, p.ln1_shift, p.epsilon)
        z = depthwise_causal_conv(ln1, p.dw_kernel, self.history)
        z += ln1
        ln2 = layer_norm(z, p.ln2_scale, p.ln2_shift, p.epsilon)
        require_finite("layer norm or depthwise conv", ln2)  # LN1's or the conv's too
        zp = gs4_layer(ln2, p, self.scan)
        if self.scan is not None and self.reach:  # a later tile reads these rows
            if ln1.shape[0] < self.reach and self.history is not None:
                ln1 = np.concatenate([self.history, ln1])
            self.history = ln1[-self.reach :]
        zp += ln2
        out = zp @ p.out_weight
        out += p.out_bias
        out += x
        return require_finite("output projection", out)


def _fuse(x: FusedQuerySequence, layers) -> FusedQuerySequence:
    """Run ``layers`` in order, each over one tile before the next tile.

    Each layer checks its own output on every tile, and overflow names the
    lowest layer that overflows on any tile, as a pass of each layer over
    the whole sequence would.  The result sequence takes the array the
    tiles fill, write-protected, without a copy.
    """
    if x.n_channels != layers[0].n_channels:
        raise ValidationError(
            f"sequence width {x.n_channels} does not match layer width {layers[0].n_channels}"
        )
    spans = _tiles(x.n_frames)
    passes = [_LayerPass(layer, len(spans) > 1) for layer in layers]
    out = np.empty(x.data.shape) if len(spans) > 1 else None
    failed, depth = None, len(passes)
    for lo, hi in spans:
        rows = x.data[lo:hi]
        for index, run in enumerate(passes[:depth]):
            try:
                rows = run(rows)
            except NumericOverflowError as exc:
                failed, depth = exc, index
                break
        if failed is None and out is not None:
            out[lo:hi] = rows
    if failed is not None:
        raise NumericOverflowError(f"layer {depth}: {failed}") from failed
    out = rows if out is None else out
    out.setflags(write=False)
    return FusedQuerySequence(out, x.frame_order, x.k_queries, x.embed_dim)


@checked
def query_mamba_block(x: FusedQuerySequence, params: QueryMambaLayerParams) -> FusedQuerySequence:
    """One fusion layer; the final residual adds the untouched input back."""
    return _fuse(x, (params,))


@checked
def query_mamba_stack(x: FusedQuerySequence, stack: QueryMambaStack) -> FusedQuerySequence:
    """Compose fusion layers in order; overflow reports the offending layer."""
    return _fuse(x, stack.layers)


# === parameter construction ===

_WEIGHT_SCALE = 0.1


def _layer_params(e, learnable, bank_seed, state_dim, ksize, delta, epsilon):
    """The width-``e`` layer whose bank :func:`seeded_bank` builds from
    ``bank_seed`` and whose learnable arrays ``learnable(*shape)`` makes, in
    the order dw_kernel, w_u, w_v, w_o, out_weight, out_bias.  Its layer
    norms scale by one and shift by zero."""
    ones, zeros = frozen(np.ones(e)), frozen(np.zeros(e))
    return QueryMambaLayerParams(
        ln1_scale=ones,
        ln1_shift=zeros,
        ln2_scale=ones,
        ln2_shift=zeros,
        epsilon=epsilon,
        dw_kernel=learnable(e, ksize),
        bank=seeded_bank(e, state_dim, bank_seed, delta),
        w_u=learnable(e, e),
        w_v=learnable(e, e),
        w_o=learnable(e, e),
        out_weight=learnable(e, e),
        out_bias=learnable(e),
    )


@checked
def seeded_stack(
    n_channels: Bound[int, ">=", 1], seed: Bound[int, ">=", 0], *,
    n_layers: Bound[int, ">=", 1] = 6, state_dim: Bound[int, ">=", 1] = 16,
    ksize: Bound[int, ">=", 1] = 3, delta: Bound[float, ">", 0] = 0.1,
    epsilon: Bound[float, ">", 0] = 1e-6,
) -> QueryMambaStack:
    """Deterministic stack init: layer i draws from ``default_rng([seed,
    0xF0, i])`` the seed of its bank, then its weights uniform in [-0.1, 0.1]."""
    layers = []
    for i in range(n_layers):
        rng = np.random.default_rng([seed, 0xF0, i])
        bank_seed = int(rng.integers(0, 2**63 - 1))

        def w(*shape):  # write-protected, so the parameter types keep it uncopied
            return frozen(rng.uniform(-_WEIGHT_SCALE, _WEIGHT_SCALE, size=shape))

        layers.append(_layer_params(n_channels, w, bank_seed, state_dim, ksize, delta, epsilon))
    return QueryMambaStack(tuple(layers))


@checked
def zero_stack(
    n_channels: Bound[int, ">=", 1], *,
    n_layers: Bound[int, ">=", 1] = 6, state_dim: Bound[int, ">=", 1] = 16,
    ksize: Bound[int, ">=", 1] = 3, delta: Bound[float, ">", 0] = 0.1,
    epsilon: Bound[float, ">", 0] = 1e-6,
) -> QueryMambaStack:
    """``n_layers`` times one layer whose learnable weights are all zero
    (scales one, shifts zero): an exact identity."""
    layer = _layer_params(
        n_channels, lambda *shape: frozen(np.zeros(shape)), 0, state_dim, ksize, delta, epsilon
    )
    return QueryMambaStack((layer,) * n_layers)
