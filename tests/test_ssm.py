"""State-space core: discretization, scan, kernel, convolution, banks."""

import math

import numpy as np
import pytest

from statefuse import (
    DiscreteSsmBank,
    ValidationError,
    apply_convolution,
    discretize_zoh,
    materialize_kernel,
    seeded_bank,
)
from statefuse.ssm import _CHUNK, ScanCarry, _channel_uniforms, depthwise_causal_conv, scan_bank


def step_scan(bank, x):
    """Oracle: the step recurrence h[k] = a h[k-1] + b x[k], one row at a time."""
    h = np.zeros(bank.a_bar.shape)
    out = np.empty(x.shape)
    for k in range(x.shape[0]):
        h = bank.a_bar * h + bank.b_bar * x[k][:, None]
        out[k] = (bank.c_bar * h).sum(axis=1) + bank.d_bar * x[k]
    return out


def edge_bank(rng, e, m):
    """Random bank whose a_bar holds negative entries and exact 0, -1 and +1."""
    a = rng.uniform(-1.0, 1.0, size=e * m)
    a[: min(3, a.size)] = [0.0, -1.0, 1.0][: min(3, a.size)]
    a = rng.permutation(a).reshape(e, m)
    return DiscreteSsmBank(
        a, rng.standard_normal((e, m)), rng.standard_normal((e, m)), rng.standard_normal(e)
    )


def channel(a, b, c, d, delta):
    """One continuous channel discretized at ``delta``, as a width-1 bank."""
    a_bar, b_bar = discretize_zoh(np.atleast_2d(a), np.atleast_2d(b), delta)
    return DiscreteSsmBank(a_bar, b_bar, np.atleast_2d(c), [d])


def random_stable(rng, delta, m=4):
    return channel(
        -rng.uniform(0.05, 3.0, size=m),
        rng.uniform(-1.0, 1.0, size=m),
        rng.uniform(-1.0, 1.0, size=m),
        float(rng.uniform(-0.5, 0.5)),
        delta,
    )


def scan1(bank, x):
    """Scan a 1-d sequence through a width-1 bank."""
    return scan_bank(bank, np.asarray(x, dtype=np.float64)[:, None])[:, 0]


def width_one(bank, e):
    """Channel e of a bank as a width-1 bank."""
    arrays = (bank.a_bar, bank.b_bar, bank.c_bar, bank.d_bar)
    return DiscreteSsmBank(*(arr[e : e + 1] for arr in arrays))


# --- discretization ---

def test_zoh_integrator_limit():
    a_bar, b_bar = discretize_zoh([0.0], [1.0], 1.0)
    assert a_bar[0] == 1.0
    assert b_bar[0] == 1.0


def test_zoh_closed_form_half():
    # exp(-ln 2) and expm1(-ln 2) are both exact in float64
    a_bar, b_bar = discretize_zoh([-1.0], [1.0], math.log(2.0))
    assert a_bar[0] == 0.5
    assert b_bar[0] == 0.5


def test_zoh_small_rate_precision():
    a_bar, b_bar = discretize_zoh([-1e-8], [1.0], 1.0)
    assert abs(a_bar[0] - (1.0 - 1e-8)) < 1e-15
    assert b_bar[0] == math.expm1(-1e-8) / (-1e-8)


def test_zoh_matches_exact_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = -rng.uniform(0.05, 3.0, size=(2, 4))
        b = rng.uniform(-1.0, 1.0, size=(2, 4))
        delta = float(rng.uniform(0.01, 2.0))
        a_bar, b_bar = discretize_zoh(a, b, delta)
        assert np.allclose(a_bar, np.exp(delta * a), rtol=0, atol=1e-15)
        want_b = (np.exp(delta * a) - 1.0) / a * b
        assert np.allclose(b_bar, want_b, rtol=1e-12, atol=1e-15)


def test_zoh_rejects_bad_delta():
    for delta in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            discretize_zoh([-1.0], [1.0], delta)


def test_continuous_rejects_positive_rate():
    with pytest.raises(ValidationError):
        discretize_zoh([0.1], [1.0], 1.0)


def test_zoh_rejects_bad_arrays():
    nan, inf = float("nan"), float("inf")
    for a, b in (([], []), ([nan], [1.0]), ([-1.0], [inf]), ([-1.0], [1.0, 2.0])):
        with pytest.raises(ValidationError):
            discretize_zoh(a, b, 1.0)


def test_discrete_rejects_unstable_a_bar():
    with pytest.raises(ValidationError):
        DiscreteSsmBank([[1.5]], [[1.0]], [[1.0]], [0.0])


# --- scan of one channel ---

def test_scan_integrator_is_cumsum():
    y = scan1(channel([0.0], [1.0], [1.0], 0.0, 1.0), [1.0, 2.0, 3.0])
    assert np.array_equal(y, [1.0, 3.0, 6.0])


def test_scan_single_step():
    rng = np.random.default_rng(11)
    for _ in range(20):
        bank = random_stable(rng, 0.3)
        x1 = float(rng.uniform(-2.0, 2.0))
        y = scan1(bank, [x1])
        want = float((bank.c_bar * (bank.b_bar * x1)).sum() + bank.d_bar[0] * x1)
        assert y.shape == (1,)
        assert math.isclose(y[0], want, rel_tol=1e-12, abs_tol=1e-15)


def test_scan_rejects_empty_input():
    bank = channel([-1.0], [1.0], [1.0], 0.0, 0.5)
    with pytest.raises(ValidationError):
        scan_bank(bank, np.empty((0, 1)))


# --- kernel materialization ---

def test_kernel_taps_geometric():
    bank = DiscreteSsmBank([[0.5]], [[0.5]], [[2.0]], [0.0])
    assert np.array_equal(materialize_kernel(bank, 3), [[1.0, 0.5, 0.25]])


def test_kernel_nilpotent_channel():
    bank = DiscreteSsmBank([[0.0]], [[0.75]], [[4.0]], [0.4])
    assert np.array_equal(materialize_kernel(bank, 4), [[3.0, 0.0, 0.0, 0.0]])


def test_kernel_length_one_is_cb():
    bank = DiscreteSsmBank([[0.9]], [[0.25]], [[4.0]], [0.0])
    taps = materialize_kernel(bank, 1)
    assert taps.shape == (1, 1)
    assert taps[0, 0] == 1.0


def test_kernel_rejects_zero_length():
    bank = DiscreteSsmBank([[0.5]], [[1.0]], [[1.0]], [0.0])
    with pytest.raises(ValidationError):
        materialize_kernel(bank, 0)


def test_kernel_rows_are_the_channels():
    bank = edge_bank(np.random.default_rng(13), 5, 6)
    taps = materialize_kernel(bank, 40)
    assert taps.shape == (5, 40)
    for e in range(5):
        assert np.array_equal(taps[e], materialize_kernel(width_one(bank, e), 40)[0])


# --- convolution ---

def test_conv_delta_kernel_is_identity():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(apply_convolution([1.0, 0.0, 0.0], 0.0, x), x)


def test_conv_pure_feed_through():
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(apply_convolution([0.0, 0.0, 0.0], 1.0, x), x)


def test_conv_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        apply_convolution([1.0, 0.0], 0.0, [1.0, 2.0, 3.0])


def test_conv_rejects_unknown_mode():
    with pytest.raises(ValidationError):
        apply_convolution([1.0], 0.0, [1.0], mode="auto")


def test_conv_rejects_bad_kernel():
    nan, inf = float("nan"), float("inf")
    for taps, feed_through in (([], 0.0), ([[1.0]], 0.0), ([nan], 0.0), ([1.0], inf)):
        with pytest.raises(ValidationError):
            apply_convolution(taps, feed_through, [1.0])


def test_scan_matches_convolution():
    """Dual route agreement: recurrence and kernel convolution."""
    rng = np.random.default_rng(23)
    for _ in range(25):
        bank = random_stable(rng, float(rng.uniform(0.05, 1.0)), m=6)
        n = int(rng.integers(1, 96))
        x = rng.uniform(-2.0, 2.0, size=n)
        via_scan = scan1(bank, x)
        via_conv = apply_convolution(materialize_kernel(bank, n)[0], bank.d_bar[0], x)
        scale = max(float(np.max(np.abs(via_scan))), 1e-12)
        assert np.max(np.abs(via_scan - via_conv)) / scale <= 1e-9


def test_fft_matches_direct():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 17, 64, 100, 513):
        taps = rng.uniform(-1.0, 1.0, size=n)
        feed_through = float(rng.uniform(-0.5, 0.5))
        x = rng.uniform(-1.0, 1.0, size=n)
        direct = apply_convolution(taps, feed_through, x, mode="direct")
        fft = apply_convolution(taps, feed_through, x, mode="fft")
        scale = max(float(np.max(np.abs(direct))), 1e-12)
        assert np.max(np.abs(direct - fft)) / scale <= 1e-9


def test_scan_is_linear():
    rng = np.random.default_rng(37)
    bank = random_stable(rng, 0.2)
    x1 = rng.uniform(-1.0, 1.0, size=40)
    x2 = rng.uniform(-1.0, 1.0, size=40)
    a, b = 1.7, -0.6
    combined = scan1(bank, a * x1 + b * x2)
    split = a * scan1(bank, x1) + b * scan1(bank, x2)
    assert np.max(np.abs(combined - split)) <= 1e-12


# --- channel banks ---

def test_bank_matches_per_channel_scan():
    bank = seeded_bank(4, 8, seed=3)
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.standard_normal((int(rng.integers(1, 40)), 4))
        got = scan_bank(bank, x)
        want = np.stack([scan1(width_one(bank, e), x[:, e]) for e in range(4)], axis=1)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 257, 1024])
def test_chunked_scan_matches_step_recurrence(n):
    """Lengths on both sides of one, two and many chunk boundaries."""
    rng = np.random.default_rng([53, n])
    for e, m in ((1, 1), (2, 3), (3, 16), (6, 5)):
        bank = edge_bank(rng, e, m)
        x = rng.standard_normal((n, e))
        got = scan_bank(bank, x)
        want = step_scan(bank, x)
        assert got.shape == (n, e) and got.dtype == np.float64
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))


@pytest.mark.parametrize("e", [1, 96, 672])
def test_short_scan_matches_step_recurrence(e):
    """N <= _CHUNK rows: the causal convolution with the bank's taps."""
    rng = np.random.default_rng([54, e])
    bank = edge_bank(rng, e, 16)
    for n in range(1, _CHUNK + 1):
        x = rng.standard_normal((n, e))
        got = scan_bank(bank, x)
        want = step_scan(bank, x)
        assert got.shape == (n, e) and got.flags.c_contiguous
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0)), n
        assert np.array_equal(got, depthwise_causal_conv(x, bank.taps[:, :n]))


def test_short_scan_of_a_wide_bank_equals_width_one_banks():
    bank = edge_bank(np.random.default_rng(55), 4, 6)
    x = np.random.default_rng(56).standard_normal((_CHUNK, 4))
    for n in range(1, _CHUNK + 1):
        want = np.stack([scan1(width_one(bank, e), x[:n, e]) for e in range(4)], axis=1)
        assert np.array_equal(scan_bank(bank, x[:n]), want)


def test_taps_are_built_once_and_write_protected():
    bank = edge_bank(np.random.default_rng(57), 5, 3)
    taps = bank.taps
    assert taps is bank.taps and taps.shape == (5, _CHUNK)
    assert not taps.flags.writeable
    want = materialize_kernel(bank, _CHUNK)
    want[:, 0] += bank.d_bar
    assert np.allclose(taps, want, rtol=1e-14, atol=1e-14)
    with pytest.raises(ValueError):
        taps[0, 0] = 1.0


def test_short_scans_build_no_carry_constants():
    """The carry constants (~1.9 MB at E = 672) wait for a scan that carries."""
    bank = seeded_bank(6, 4, seed=2)
    scan_bank(bank, np.ones((_CHUNK, 6)))
    assert "_carry_constants" not in vars(bank)
    scan_bank(bank, np.ones((_CHUNK + 1, 6)))
    constants = vars(bank)["_carry_constants"]
    scan_bank(bank, np.ones((3 * _CHUNK, 6)), ScanCarry(bank))
    assert bank._carry_constants is constants
    assert not any(arr.flags.writeable for arr in constants)


def test_chunked_scan_is_causal():
    """A prefix scans to the prefix of the full scan, also mid-chunk."""
    rng = np.random.default_rng(59)
    bank = edge_bank(rng, 4, 6)
    x = rng.standard_normal((100, 4))
    full = scan_bank(bank, x)
    for p in (1, 5, 15, 17, 30, 33, 63, 99):
        head = scan_bank(bank, x[:p])
        assert np.all(np.abs(head - full[:p]) <= 1e-12 * np.maximum(np.abs(full[:p]), 1.0))


def test_chunked_scan_takes_non_contiguous_input():
    rng = np.random.default_rng(61)
    bank = edge_bank(rng, 5, 4)
    x = rng.standard_normal((5, 40)).T  # a transposed view
    assert not x.flags.c_contiguous
    got = scan_bank(bank, x)
    assert got.flags.c_contiguous
    assert np.array_equal(got, scan_bank(bank, np.ascontiguousarray(x)))
    assert np.all(np.abs(got - step_scan(bank, x)) <= 1e-12 * np.maximum(np.abs(got), 1.0))


def scan_in_blocks(bank, x, lengths):
    carry = ScanCarry(bank)
    stops = np.cumsum(lengths)
    return np.concatenate(
        [scan_bank(bank, x[stop - k : stop], carry) for k, stop in zip(lengths, stops)]
    )


@pytest.mark.parametrize(
    "lengths",
    [(16, 16), (16, 48), (48, 16), (32, 32, 16), (128, 128, 9), (16, 45), (120, 17)],
)
def test_carried_blocks_equal_one_call(lengths):
    """Blocks of whole chunks, each over one chunk long, with the carry
    passed across, give one call's rows bit for bit; the last may end
    inside a chunk."""
    assert _CHUNK == 8
    rng = np.random.default_rng([67, *lengths])
    for e, m in ((1, 1), (3, 16), (6, 5), (96, 16)):
        bank = edge_bank(rng, e, m)
        x = rng.standard_normal((sum(lengths), e))
        assert np.array_equal(scan_in_blocks(bank, x, lengths), scan_bank(bank, x))


def test_one_chunk_blocks_match_to_rounding():
    """One-chunk blocks use matrix-vector products: equal up to rounding only."""
    rng = np.random.default_rng(71)
    bank = edge_bank(rng, 6, 5)
    x = rng.standard_normal((40, 6))
    got = scan_in_blocks(bank, x, (8, 16, 8, 8))
    want = scan_bank(bank, x)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))


def test_carry_refuses_a_block_after_a_partial_chunk():
    bank = seeded_bank(3, 4, seed=5)
    carry = ScanCarry(bank)
    scan_bank(bank, np.ones((12, 3)), carry)
    with pytest.raises(ValidationError):
        scan_bank(bank, np.ones((16, 3)), carry)


def test_carry_refuses_another_bank():
    carry = ScanCarry(seeded_bank(3, 4, seed=5))
    with pytest.raises(ValidationError):
        scan_bank(seeded_bank(3, 4, seed=5), np.ones((16, 3)), carry)


def test_bank_rejects_width_mismatch():
    bank = seeded_bank(4, 8, seed=3)
    with pytest.raises(ValidationError):
        scan_bank(bank, np.zeros((5, 3)))


def seeded_channel(state_dim, seed, delta):
    """Oracle: (a_bar, b_bar, c, d) of one channel drawn from its own generator."""
    a = -np.arange(1.0, state_dim + 1.0)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, size=state_dim)
    d = rng.uniform(-0.1, 0.1)
    return np.exp(delta * a), np.expm1(delta * a) / a, c, d


def test_seeded_bank_matches_per_channel_reference():
    """The one-pass bank equals a bank of separately seeded channels, bit for bit."""
    for n_channels, state_dim, seed, delta in (
        (1, 16, 0, 0.1),
        (5, 7, 3, 0.25),
        (12, 3, 2**63 - 1, 0.01),
        (3, 20, 123456789, 1.7),
    ):
        got = seeded_bank(n_channels, state_dim, seed, delta)
        channels = [seeded_channel(state_dim, [seed, 0x5B, e], delta) for e in range(n_channels)]
        for name, want in zip(("a_bar", "b_bar", "c_bar", "d_bar"), zip(*channels)):
            assert np.array_equal(getattr(got, name), np.stack(want))
            assert getattr(got, name).flags.c_contiguous


def test_bank_arrays_c_contiguous_from_broadcast_input():
    row = np.array([0.5, 0.25, 0.125])
    wide = np.broadcast_to(row, (4, 3))
    bank = DiscreteSsmBank(wide, wide, np.asfortranarray(np.ones((4, 3))), np.zeros(4))
    for arr in (bank.a_bar, bank.b_bar, bank.c_bar, bank.d_bar):
        assert arr.flags.c_contiguous and arr.flags.owndata
        assert not arr.flags.writeable


def test_seeded_bank_rejects_empty_dims():
    with pytest.raises(ValidationError):
        seeded_bank(0, 4, seed=1)
    with pytest.raises(ValidationError):
        seeded_bank(4, 0, seed=1)


def test_seeded_constructors_deterministic():
    bank1 = seeded_bank(3, 4, seed=9)
    bank2 = seeded_bank(3, 4, seed=9)
    for name in ("a_bar", "b_bar", "c_bar", "d_bar"):
        assert np.array_equal(getattr(bank1, name), getattr(bank2, name))
    assert np.array_equal(bank1.a_bar[1], np.exp(-0.1 * np.arange(1.0, 5.0)))


SEEDS = (0, 1, 11, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


def default_rng_uniforms(seed, n_channels, n):
    """Oracle: one ``default_rng([seed, 0x5B, e])`` stream per channel."""
    out = np.empty((n_channels, n))
    for e in range(n_channels):
        out[e] = np.random.default_rng([seed, 0x5B, e]).random(n)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_vectorised_seeding_matches_default_rng(seed):
    """The one-pass SeedSequence + PCG64 equals a generator per channel, bit for bit."""
    for n_channels in (1, 2, 96, 672, 4032):
        for state_dim in (1, 16, 20):
            got = _channel_uniforms(seed, n_channels, state_dim + 1)
            want = default_rng_uniforms(seed, n_channels, state_dim + 1)
            assert got.dtype == np.float64
            assert np.array_equal(got, want), (n_channels, state_dim)


def test_vectorised_seeding_takes_seeds_of_three_words():
    for seed in (2**64, 2**95 + 12345, 2**127 - 1):
        assert np.array_equal(_channel_uniforms(seed, 7, 5), default_rng_uniforms(seed, 7, 5))


def test_seeded_bank_rejects_negative_seed():
    with pytest.raises(ValidationError):
        seeded_bank(3, 4, seed=-1)
