"""Fusion stack: layer norm, causal conv, gated scan, residual blocks."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from statefuse import (
    DiscreteSsmBank,
    FusedQuerySequence,
    NumericOverflowError,
    QueryMambaStack,
    ValidationError,
    errors,
    query_mamba_block,
    query_mamba_stack,
    seeded_bank,
    seeded_stack,
    zero_stack,
)
from statefuse.fusion import _TILE_ROWS, depthwise_causal_conv, gs4_layer, layer_norm

GELU_ONE = 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))


def feed_through_bank(e=1):
    # scan output equals its input: no state, unit feed-through
    zeros = np.zeros((e, 1))
    return DiscreteSsmBank(zeros, zeros, zeros, np.ones(e))


# --- layer norm ---

def test_layer_norm_constant_row_is_shift():
    x = np.full((2, 5), 3.7)
    out = layer_norm(x, np.ones(5), np.zeros(5), 1e-6)
    assert np.max(np.abs(out)) == 0.0


def test_layer_norm_two_point_row():
    out = layer_norm(np.array([-1.0, 1.0]), np.ones(2), np.zeros(2), 0.0)
    assert np.array_equal(out, [-1.0, 1.0])


def test_layer_norm_three_point_row():
    # population variance of (1, 2, 3) is 2/3, so the ends map to sqrt(3/2)
    out = layer_norm(np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(3), 0.0)
    want = math.sqrt(1.5)
    assert abs(want - 1.224744871391589) < 1e-15
    assert np.allclose(out, [-want, 0.0, want], rtol=0, atol=1e-15)


def test_layer_norm_affine_params():
    x = np.array([1.0, 2.0, 3.0])
    base = layer_norm(x, np.ones(3), np.zeros(3), 0.0)
    out = layer_norm(x, 2.0 * np.ones(3), 5.0 * np.ones(3), 0.0)
    assert np.allclose(out, 2.0 * base + 5.0, rtol=0, atol=1e-12)


# --- depthwise causal conv ---

def test_dwconv_identity_tap():
    x = np.arange(8.0).reshape(4, 2)
    out = depthwise_causal_conv(x, np.ones((2, 1)))
    assert np.array_equal(out, x)


def test_dwconv_unit_delay():
    x = np.array([[1.0], [2.0], [3.0]])
    out = depthwise_causal_conv(x, np.array([[0.0, 1.0]]))
    assert np.array_equal(out, [[0.0], [1.0], [2.0]])


def test_dwconv_two_tap_average():
    x = np.array([[2.0], [4.0]])
    out = depthwise_causal_conv(x, np.array([[0.5, 0.5]]))
    assert np.array_equal(out, [[1.0], [3.0]])


def test_dwconv_per_channel_kernels():
    x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    kernel = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = depthwise_causal_conv(x, kernel)
    assert np.array_equal(out, [[1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])


def test_dwconv_kernel_longer_than_sequence():
    x = np.array([[1.0], [2.0]])
    out = depthwise_causal_conv(x, np.array([[1.0, 1.0, 1.0, 1.0]]))
    assert np.array_equal(out, [[1.0], [3.0]])


@pytest.mark.parametrize("split", [1, 2, 5, 9])
def test_dwconv_history_continues_the_sequence(split):
    """Rows after a split, given the rows before it as history, equal the
    tail of one pass over the whole sequence."""
    rng = np.random.default_rng([73, split])
    x = rng.standard_normal((12, 3))
    kernel = rng.standard_normal((3, 4))
    whole = depthwise_causal_conv(x, kernel)
    for past in {split, min(split, kernel.shape[1] - 1)}:  # all, or the reach
        tail = depthwise_causal_conv(x[split:], kernel, x[split - past : split])
        assert np.array_equal(tail, whole[split:])


# --- gated scan sublayer ---

def gated_unit(w_u, w_v, w_o):
    """A width-1 layer whose gated scan has a feed-through bank and the given projections."""
    layer = zero_stack(1, n_layers=1).layers[0]
    return dataclasses.replace(layer, bank=feed_through_bank(), w_u=w_u, w_v=w_v, w_o=w_o)


def test_gs4_zero_value_gate_closes():
    params = gated_unit(np.ones((1, 1)), np.zeros((1, 1)), np.ones((1, 1)))
    out = gs4_layer(np.array([[1.0], [2.0]]), params)
    assert np.array_equal(out, np.zeros((2, 1)))


def test_gs4_zero_input_stays_zero():
    params = gated_unit(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    out = gs4_layer(np.zeros((3, 1)), params)
    assert np.array_equal(out, np.zeros((3, 1)))


def test_gs4_unit_feed_through_squares_gelu():
    """With identity projections and a feed-through scan, y = gelu(x)^2."""
    params = gated_unit(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    out = gs4_layer(np.array([[1.0]]), params)
    assert abs(out[0, 0] - GELU_ONE**2) < 1e-15
    assert abs(out[0, 0] - 0.707860981737141) < 1e-15


def test_gs4_overflow_raises():
    big = np.full((1, 1), 1e300)
    params = gated_unit(big, big, big)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError):
            gs4_layer(np.array([[1e300]]), params)


# --- residual blocks ---

def seq(rng, n=4, k=2, d=4):
    data = rng.uniform(-1.0, 1.0, size=(n, k * d))
    return FusedQuerySequence(data, tuple(range(n)), k, d)


def test_zero_block_is_identity():
    rng = np.random.default_rng(53)
    x = seq(rng, n=4, k=2, d=4)
    out = query_mamba_block(x, zero_stack(8, n_layers=1).layers[0])
    assert np.array_equal(out.data, x.data)
    assert out.frame_order == x.frame_order


@pytest.mark.parametrize("n", [0, -2])
def test_zero_stack_refuses_a_width_below_one(n):
    """As the seeded builder does; once a field error for 0 and numpy's
    negative-dimensions ValueError for -2."""
    with pytest.raises(ValidationError, match=rf"^n_channels: expected an int >= 1, got {n}$"):
        zero_stack(n)


def test_zero_stack_is_identity():
    rng = np.random.default_rng(59)
    x = seq(rng, n=7, k=3, d=4)
    out = query_mamba_stack(x, zero_stack(12, n_layers=6))
    assert np.array_equal(out.data, x.data)


def test_seeded_block_output_well_formed():
    rng = np.random.default_rng(61)
    x = seq(rng, n=4, k=2, d=4)
    out = query_mamba_block(x, seeded_stack(8, seed=1, n_layers=1).layers[0])
    assert out.data.shape == x.data.shape
    assert np.all(np.isfinite(out.data))
    assert not np.array_equal(out.data, x.data)


def test_seeded_stack_repeatable():
    rng = np.random.default_rng(67)
    x = seq(rng, n=5, k=2, d=4)
    a = query_mamba_stack(x, seeded_stack(8, seed=2, n_layers=6))
    b = query_mamba_stack(x, seeded_stack(8, seed=2, n_layers=6))
    assert np.array_equal(a.data, b.data)


def test_stack_layers_differ_by_index():
    s = seeded_stack(6, seed=4, n_layers=3)
    assert not np.array_equal(s.layers[0].out_weight, s.layers[1].out_weight)


def record_values(record):
    """The field values of ``record``, those of the records it holds in place."""
    for field in dataclasses.fields(record):
        value = getattr(record, field.name)
        yield from record_values(value) if dataclasses.is_dataclass(value) else (value,)


def test_stack_layer_draws_from_its_own_stream():
    """Layer i is the same in a stack of any depth: it draws from
    ``default_rng([seed, 0xF0, i])`` the seed of its bank, then its dw_kernel."""
    short, deep = seeded_stack(6, seed=9, n_layers=2), seeded_stack(6, seed=9, n_layers=5)
    for i, layer in enumerate(short.layers):
        pairs = zip(record_values(layer), record_values(deep.layers[i]), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)
        rng = np.random.default_rng([9, 0xF0, i])
        bank = seeded_bank(6, 16, int(rng.integers(0, 2**63 - 1)))
        pairs = zip(record_values(layer.bank), record_values(bank), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)
        assert np.array_equal(layer.dw_kernel, rng.uniform(-0.1, 0.1, size=(6, 3)))


def bank_seeds(name, n_layers):
    """The seed each layer's bank is built from: drawn first from the
    layer's stream for a seed-9 stack, zero for a zero stack."""
    if name == "zero_stack":
        return [0] * n_layers
    return [int(np.random.default_rng([9, 0xF0, i]).integers(0, 2**63 - 1)) for i in range(n_layers)]


STACK_BUILDERS = {
    "seeded_stack": lambda e, **knobs: seeded_stack(e, 9, **knobs),
    "zero_stack": lambda e, **knobs: zero_stack(e, **knobs),
}


@pytest.mark.parametrize("knob", ["state_dim", "ksize", "delta", "epsilon"])
@pytest.mark.parametrize("name", STACK_BUILDERS)
def test_a_stack_knob_reaches_every_layer(name, knob):
    """Each knob a stack builder declares shapes every layer it builds."""
    value = {"state_dim": 5, "ksize": 4, "delta": 0.25, "epsilon": 1e-3}[knob]
    stack = STACK_BUILDERS[name](6, n_layers=3, **{knob: value})
    knobs = {"state_dim": 16, "ksize": 3, "delta": 0.1, "epsilon": 1e-6, knob: value}
    for layer, bank_seed in zip(stack.layers, bank_seeds(name, 3), strict=True):
        assert layer.dw_kernel.shape == (6, knobs["ksize"])
        assert layer.epsilon == knobs["epsilon"]
        bank = seeded_bank(6, knobs["state_dim"], bank_seed, knobs["delta"])
        pairs = zip(record_values(layer.bank), record_values(bank), strict=True)
        assert all(np.array_equal(a, b) for a, b in pairs)


@pytest.mark.parametrize("n_layers", [1, 2, 5])
def test_zero_stack_repeats_one_zero_layer(n_layers):
    """Every layer is the one layer whose learnable arrays are zero, whose
    layer norms scale by one and shift by zero, and whose bank has seed 0."""
    layers = zero_stack(4, n_layers=n_layers).layers
    assert len(layers) == n_layers and all(layer is layers[0] for layer in layers)
    layer = layers[0]
    learnable = (layer.dw_kernel, layer.w_u, layer.w_v, layer.w_o, layer.out_weight,
                 layer.out_bias)
    assert all(not a.any() and not a.flags.writeable for a in learnable)
    for scale, shift in ((layer.ln1_scale, layer.ln1_shift), (layer.ln2_scale, layer.ln2_shift)):
        assert np.array_equal(scale, np.ones(4)) and np.array_equal(shift, np.zeros(4))
    pairs = zip(record_values(layer.bank), record_values(seeded_bank(4, 16, 0)), strict=True)
    assert all(np.array_equal(a, b) for a, b in pairs)


def test_stack_reports_offending_layer():
    # the normalized row (-1, 1) hits 1e300 gains, and the gate squares it
    good = zero_stack(2, n_layers=1).layers[0]
    big = np.diag([1e300, 1e300])
    bad = dataclasses.replace(good, bank=feed_through_bank(2), w_u=big, w_v=big, w_o=np.eye(2))
    x = FusedQuerySequence(np.array([[0.0, 2.0], [0.0, 2.0]]), (0, 1), 1, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="layer 1"):
            query_mamba_stack(x, QueryMambaStack((good, bad)))


def test_block_rejects_width_mismatch():
    rng = np.random.default_rng(71)
    x = seq(rng, n=3, k=2, d=4)
    with pytest.raises(ValidationError):
        query_mamba_block(x, zero_stack(9, n_layers=1).layers[0])


WIDTH_REFUSALS = {  # a width-3 part in a width-4 layer
    "ln1_scale": "ln1_shift: expected shape (E=3,), got (4,)",  # the first binds E
    "ln1_shift": "ln1_shift: expected shape (E=4,), got (3,)",
    "ln2_scale": "ln2_scale: expected shape (E=4,), got (3,)",
    "ln2_shift": "ln2_shift: expected shape (E=4,), got (3,)",
    "dw_kernel": "dw_kernel: expected shape (E=4, S), got (3, 3)",
    "bank": "bank: width 3 does not match the layer's 4",
    "w_u": "w_u: expected shape (E=4, E=4), got (3, 3)",
    "w_v": "w_v: expected shape (E=4, E=4), got (3, 3)",
    "w_o": "w_o: expected shape (E=4, E=4), got (3, 3)",
    "out_weight": "out_weight: expected shape (E=4, E=4), got (3, 3)",
    "out_bias": "out_bias: expected shape (E=4,), got (3,)",
}


@pytest.mark.parametrize("name", WIDTH_REFUSALS)
def test_a_layer_refuses_a_part_of_another_width(name):
    """Every array of a layer is declared on one width E, and its bank has it too."""
    layer = seeded_stack(4, 0, n_layers=1).layers[0]
    narrow = seeded_stack(3, 0, n_layers=1).layers[0]
    with pytest.raises(ValidationError) as info:
        dataclasses.replace(layer, **{name: getattr(narrow, name)})
    assert str(info.value) == WIDTH_REFUSALS[name]


def test_sequence_validates_frame_order():
    data = np.zeros((3, 4))
    with pytest.raises(ValidationError):
        FusedQuerySequence(data, (0, 1, 1), 2, 2)
    with pytest.raises(ValidationError):
        FusedQuerySequence(data, (0, 1), 2, 2)


def test_sequence_validates_width():
    with pytest.raises(ValidationError):
        FusedQuerySequence(np.zeros((2, 5)), (0, 1), 2, 2)


# --- tiled execution ---

def whole_sequence_stack(x, stack):
    """Oracle: every layer over the whole sequence before the next layer."""
    data = x.data
    for index, p in enumerate(stack.layers):
        ln1 = layer_norm(data, p.ln1_scale, p.ln1_shift, p.epsilon)
        z = depthwise_causal_conv(ln1, p.dw_kernel) + ln1
        ln2 = layer_norm(z, p.ln2_scale, p.ln2_shift, p.epsilon)
        try:
            zp = gs4_layer(ln2, p) + ln2
        except NumericOverflowError as exc:
            raise NumericOverflowError(f"layer {index}: {exc}") from exc
        data = zp @ p.out_weight + p.out_bias + data
    return data


def history_seq(n, k=4, d=24, seed=0):
    rng = np.random.default_rng([79, n, seed])
    return FusedQuerySequence(rng.standard_normal((n, k * d)), tuple(range(n)), k, d)


@pytest.mark.parametrize("n", [1, 7, 8, 159, 160, 161, 319, 320, 1031])
def test_tiled_stack_equals_whole_sequence_layers(n):
    assert _TILE_ROWS == 160
    x = history_seq(n)
    stack = seeded_stack(96, seed=11)
    out = query_mamba_stack(x, stack)
    assert np.array_equal(out.data, whole_sequence_stack(x, stack))
    assert out.frame_order == x.frame_order


@pytest.mark.parametrize(
    "n, digest",
    [
        (1024, "a4c6565f333d07a3b2f12c45bc0fd1e0be5fa4039b8c494aabce5eabac4ab7f1"),
        (129, "f8d24620d5832f62588ac573bcc6613b9c495d82d879ad89edd9969f4103dfbf"),
    ],
)
def test_seeded_stack_output_pinned(n, digest):
    """The carried scan's arithmetic is pinned bit for bit (sha256 of the
    little-endian float64 output of a seeded 6-layer stack at n x 96)."""
    out = query_mamba_stack(history_seq(n), seeded_stack(96, seed=11)).data
    assert hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest() == digest


def checked_arrays_per_call(monkeypatch, x, stack):
    """How many values the argument rule checks during one stack call."""
    count = [0]
    rule = errors.checked_array

    def counting(*args, **kwargs):
        count[0] += 1
        return rule(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(errors, "checked_array", counting)
        query_mamba_stack(x, stack)
    return count[0]


def test_the_stack_checks_at_its_door_only(monkeypatch):
    """The rule checks the stack's arguments and its result record, and no
    kernel of the tile loop: three tiles of two layers check as many values
    as one tile of one layer."""
    small = checked_arrays_per_call(
        monkeypatch, history_seq(_TILE_ROWS, k=2, d=3), seeded_stack(6, seed=23, n_layers=1)
    )
    large = checked_arrays_per_call(
        monkeypatch, history_seq(3 * _TILE_ROWS, k=2, d=3), seeded_stack(6, seed=23, n_layers=2)
    )
    assert small == large


DOOR_REFUSALS = {  # what layer_norm, the conv and the scan took unchecked
    "nan": (lambda: FusedQuerySequence(np.array([[1.0, np.nan]]), (0,), 1, 2),
            "data: contains NaN or Inf"),
    "inf": (lambda: FusedQuerySequence(np.array([[np.inf, 0.0]]), (0,), 1, 2),
            "data: contains NaN or Inf"),
    "str": (lambda: FusedQuerySequence(np.array([["1", "2"]]), (0,), 1, 2),
            "data: expected an array of floats shaped (N, E), got an array of <U1"),
    "bool": (lambda: FusedQuerySequence(np.array([[True, False]]), (0,), 1, 2),
             "data: expected an array of floats shaped (N, E), got an array of bool"),
    "stack-array": (lambda: query_mamba_stack(np.ones((1, 2)), seeded_stack(2, 0, n_layers=1)),
                    "x: expected a value like FusedQuerySequence, got array([[1., 1.]])"),
    "block-array": (lambda: query_mamba_block(np.ones((1, 2)),
                                              seeded_stack(2, 0, n_layers=1).layers[0]),
                    "x: expected a value like FusedQuerySequence, got array([[1., 1.]])"),
}


@pytest.mark.parametrize("case", DOOR_REFUSALS)
def test_the_door_refuses_what_the_tile_loop_kernels_take_unchecked(case):
    """A non-finite or non-float sequence, or a bare array in place of one,
    is refused before any kernel of the tile loop runs."""
    call, message = DOOR_REFUSALS[case]
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_tiled_stack_conv_longer_than_a_tile():
    x = history_seq(300, k=2, d=6)
    stack = seeded_stack(12, seed=13, n_layers=2, ksize=200)
    assert np.array_equal(query_mamba_stack(x, stack).data, whole_sequence_stack(x, stack))


def test_block_is_the_one_layer_stack():
    x = history_seq(300, k=2, d=6)
    layer = seeded_stack(12, seed=17, n_layers=1).layers[0]
    want = whole_sequence_stack(x, QueryMambaStack((layer,)))
    assert np.array_equal(query_mamba_block(x, layer).data, want)


def overflow_layer(shift):
    """A zero layer whose gate overflows on rows that LN2 maps off zero."""
    good = zero_stack(2, n_layers=1).layers[0]
    big = np.diag([1e300, 1e300])
    return dataclasses.replace(
        good, ln2_shift=shift, bank=feed_through_bank(2), w_u=big, w_v=big, w_o=np.eye(2)
    )


def test_overflow_in_the_last_tile_names_its_layer():
    # constant rows normalize to zero; only the last row of the last tile
    # reaches the 1e300 gains of layer 1
    n = 3 * _TILE_ROWS + 20
    data = np.zeros((n, 2))
    data[-1] = (0.0, 2.0)
    x = FusedQuerySequence(data, tuple(range(n)), 1, 2)
    stack = QueryMambaStack((zero_stack(2, n_layers=1).layers[0], overflow_layer(np.zeros(2))))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="layer 1"):
            whole_sequence_stack(x, stack)
        with pytest.raises(NumericOverflowError, match="layer 1"):
            query_mamba_stack(x, stack)


def test_overflow_names_the_lowest_layer_across_tiles():
    # layer 2 overflows on every row, so in the first tile; layer 1 only in
    # the last tile.  A whole-sequence pass meets layer 1 first.
    n = 2 * _TILE_ROWS + 30
    data = np.zeros((n, 2))
    data[-1] = (0.0, 2.0)
    x = FusedQuerySequence(data, tuple(range(n)), 1, 2)
    stack = QueryMambaStack(
        (
            zero_stack(2, n_layers=1).layers[0],
            overflow_layer(np.zeros(2)),
            overflow_layer(np.array([1.0, 0.0])),
        )
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="layer 1"):
            whole_sequence_stack(x, stack)
        with pytest.raises(NumericOverflowError, match="layer 1"):
            query_mamba_stack(x, stack)


def projection_overflow_layer():
    """A seeded layer whose output projection overflows on every input."""
    layer = seeded_stack(4, 1, n_layers=1).layers[0]
    return dataclasses.replace(layer, out_weight=np.full((4, 4), 1e308))


@pytest.mark.parametrize("n_layers, n", [(1, 6), (2, 6), (2, 3 * _TILE_ROWS + 5)])
def test_output_projection_overflow_names_its_layer(n_layers, n):
    """One layer, the same under a second layer, and over several tiles."""
    layers = (projection_overflow_layer(), seeded_stack(4, 2, n_layers=1).layers[0])[:n_layers]
    x = history_seq(n, k=2, d=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="layer 0"):
            query_mamba_stack(x, QueryMambaStack(layers))


def conv_overflow_layer():
    """A seeded layer whose depthwise causal conv overflows on every input."""
    layer = seeded_stack(4, 1, n_layers=1).layers[0]
    return dataclasses.replace(layer, dw_kernel=np.full((4, 3), 1e308))


@pytest.mark.parametrize(
    "bad_index, n", [(0, 6), (1, 6), (1, 3 * _TILE_ROWS + 5)]
)
def test_conv_overflow_names_its_layer(bad_index, n):
    """One layer, the second of two, and the second of two over several tiles:
    the overflow is numeric (not a layer norm input error) and names the
    layer whose conv overflowed."""
    layers = [seeded_stack(4, 2, n_layers=1).layers[0]] * (bad_index + 1)
    layers[bad_index] = conv_overflow_layer()
    x = history_seq(n, k=2, d=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match=f"layer {bad_index}: .*conv"):
            query_mamba_stack(x, QueryMambaStack(tuple(layers)))


def ln2_overflow_layer():
    """A seeded layer whose LN2 scale and shift overflow on every input."""
    layer = seeded_stack(4, 1, n_layers=1).layers[0]
    big = np.full(4, 1e308)
    return dataclasses.replace(layer, ln2_scale=big, ln2_shift=big)


@pytest.mark.parametrize(
    "bad_index, n", [(0, 6), (1, 6), (1, 3 * _TILE_ROWS + 5)]
)
def test_layer_norm_overflow_names_its_layer(bad_index, n):
    """One layer, the second of two, and the second of two over several
    tiles: an LN2 overflow names its own layer and sublayer, not the output
    projection of the layer below."""
    layers = [seeded_stack(4, 2, n_layers=1).layers[0]] * (bad_index + 1)
    layers[bad_index] = ln2_overflow_layer()
    x = history_seq(n, k=2, d=2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(
            NumericOverflowError, match=f"^layer {bad_index}: layer norm or depthwise conv: "
        ):
            query_mamba_stack(x, QueryMambaStack(tuple(layers)))


@pytest.mark.parametrize(
    "layer, message",
    [
        (ln2_overflow_layer, "layer norm or depthwise conv: non-finite values"),
        (conv_overflow_layer, "layer norm or depthwise conv: non-finite values"),
        (lambda: overflow_layer(np.array([1.0, 0.0])), "gs4: non-finite values"),
        (projection_overflow_layer, "output projection: non-finite values"),
    ],
    ids=["ln2", "conv", "gs4", "output projection"],
)
def test_overflow_message_names_the_layer_and_sublayer(layer, message):
    """The whole message: ``layer N: <sublayer>: ...``, the sublayer one of
    the names the README lists."""
    layer = layer()
    x = history_seq(6, k=1, d=layer.n_channels)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError) as info:
            query_mamba_stack(x, QueryMambaStack((layer,)))
    assert str(info.value) == f"layer 0: {message}"


def test_sequence_copies_a_writable_array():
    data = np.zeros((2, 4))
    x = FusedQuerySequence(data, (0, 1), 2, 2)
    data[0, 0] = 1.0
    assert x.data[0, 0] == 0.0
    assert not x.data.flags.writeable


@pytest.mark.parametrize("n", [5, 3 * _TILE_ROWS + 5])
def test_stack_result_is_write_protected(n):
    out = query_mamba_stack(history_seq(n, k=2, d=6), seeded_stack(12, seed=19, n_layers=2))
    assert out.data.flags.owndata and out.data.flags.c_contiguous
    with pytest.raises(ValueError):
        out.data[0, 0] = 0.0


def stack_peak_bytes(x, stack):
    tracemalloc.start()
    try:
        query_mamba_stack(x, stack)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stack_memory_does_not_grow_with_layer_temporaries():
    """From N = 1024 to 4096 the peak grows by at most 1.25 (N, E) float64
    arrays: the output, which the result sequence takes without a copy, not
    a temporary per layer."""
    stack = seeded_stack(96, seed=11, n_layers=6)
    small, large = history_seq(1024), history_seq(4096)
    query_mamba_stack(small, stack)
    grow = stack_peak_bytes(large, stack) - stack_peak_bytes(small, stack)
    assert grow <= 1.25 * (4096 - 1024) * 96 * 8
