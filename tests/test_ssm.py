"""State-space core: discretization, scan, kernel, convolution, banks."""

import math

import numpy as np
import pytest

from statefuse import (
    ContinuousSsm,
    DiscreteSsm,
    DiscreteSsmBank,
    SsmKernel,
    ValidationError,
    apply_convolution,
    discretize_zoh,
    materialize_kernel,
    scan_bank,
    scan_recurrent,
    seeded_bank,
    seeded_continuous,
)


def random_stable(rng, m=4):
    return ContinuousSsm(
        a_diag=-rng.uniform(0.05, 3.0, size=m),
        b_in=rng.uniform(-1.0, 1.0, size=m),
        c_out=rng.uniform(-1.0, 1.0, size=m),
        d_feed=float(rng.uniform(-0.5, 0.5)),
    )


# --- discretization ---

def test_zoh_integrator_limit():
    sys = ContinuousSsm([0.0], [1.0], [1.0], 0.0)
    d = discretize_zoh(sys, 1.0)
    assert d.a_bar[0] == 1.0
    assert d.b_bar[0] == 1.0


def test_zoh_closed_form_half():
    # exp(-ln 2) and expm1(-ln 2) are both exact in float64
    sys = ContinuousSsm([-1.0], [1.0], [1.0], 0.25)
    d = discretize_zoh(sys, math.log(2.0))
    assert d.a_bar[0] == 0.5
    assert d.b_bar[0] == 0.5
    assert d.c_bar[0] == 1.0
    assert d.d_bar == 0.25


def test_zoh_small_rate_precision():
    sys = ContinuousSsm([-1e-8], [1.0], [1.0], 0.0)
    d = discretize_zoh(sys, 1.0)
    assert abs(d.a_bar[0] - (1.0 - 1e-8)) < 1e-15
    assert d.b_bar[0] == math.expm1(-1e-8) / (-1e-8)


def test_zoh_matches_exact_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        sys = random_stable(rng)
        delta = float(rng.uniform(0.01, 2.0))
        d = discretize_zoh(sys, delta)
        a = np.asarray(sys.a_diag)
        assert np.allclose(d.a_bar, np.exp(delta * a), rtol=0, atol=1e-15)
        want_b = (np.exp(delta * a) - 1.0) / a * np.asarray(sys.b_in)
        assert np.allclose(d.b_bar, want_b, rtol=1e-12, atol=1e-15)


def test_zoh_rejects_bad_delta():
    sys = ContinuousSsm([-1.0], [1.0], [1.0], 0.0)
    for delta in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            discretize_zoh(sys, delta)


def test_continuous_rejects_positive_rate():
    with pytest.raises(ValidationError):
        ContinuousSsm([0.1], [1.0], [1.0], 0.0)


def test_discrete_rejects_unstable_a_bar():
    with pytest.raises(ValidationError):
        DiscreteSsm([1.5], [1.0], [1.0], 0.0)


# --- recurrent scan ---

def test_scan_integrator_is_cumsum():
    d = discretize_zoh(ContinuousSsm([0.0], [1.0], [1.0], 0.0), 1.0)
    y = scan_recurrent(d, [1.0, 2.0, 3.0])
    assert np.array_equal(y, [1.0, 3.0, 6.0])


def test_scan_single_step():
    rng = np.random.default_rng(11)
    for _ in range(20):
        sys = discretize_zoh(random_stable(rng), 0.3)
        x1 = float(rng.uniform(-2.0, 2.0))
        y = scan_recurrent(sys, [x1])
        want = float((sys.c_bar * (sys.b_bar * x1)).sum() + sys.d_bar * x1)
        assert y.shape == (1,)
        assert math.isclose(y[0], want, rel_tol=1e-12, abs_tol=1e-15)


def test_scan_rejects_empty_input():
    d = discretize_zoh(ContinuousSsm([-1.0], [1.0], [1.0], 0.0), 0.5)
    with pytest.raises(ValidationError):
        scan_recurrent(d, [])


# --- kernel materialization ---

def test_kernel_taps_geometric():
    sys = DiscreteSsm([0.5], [0.5], [2.0], 0.0)
    k = materialize_kernel(sys, 3)
    assert np.array_equal(k.taps, [1.0, 0.5, 0.25])
    assert k.feed_through == 0.0


def test_kernel_nilpotent_channel():
    sys = DiscreteSsm([0.0], [0.75], [4.0], 0.4)
    k = materialize_kernel(sys, 4)
    assert np.array_equal(k.taps, [3.0, 0.0, 0.0, 0.0])
    assert k.feed_through == 0.4


def test_kernel_length_one_is_cb():
    sys = DiscreteSsm([0.9], [0.25], [4.0], 0.0)
    k = materialize_kernel(sys, 1)
    assert k.taps.shape == (1,)
    assert k.taps[0] == 1.0


def test_kernel_rejects_zero_length():
    sys = DiscreteSsm([0.5], [1.0], [1.0], 0.0)
    with pytest.raises(ValidationError):
        materialize_kernel(sys, 0)


# --- convolution ---

def test_conv_delta_kernel_is_identity():
    kernel = SsmKernel([1.0, 0.0, 0.0], 0.0)
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(apply_convolution(kernel, x), x)


def test_conv_pure_feed_through():
    kernel = SsmKernel([0.0, 0.0, 0.0], 1.0)
    x = np.array([3.0, -1.0, 2.0])
    assert np.array_equal(apply_convolution(kernel, x), x)


def test_conv_rejects_length_mismatch():
    kernel = SsmKernel([1.0, 0.0], 0.0)
    with pytest.raises(ValidationError):
        apply_convolution(kernel, [1.0, 2.0, 3.0])


def test_conv_rejects_unknown_mode():
    kernel = SsmKernel([1.0], 0.0)
    with pytest.raises(ValidationError):
        apply_convolution(kernel, [1.0], mode="auto")


def test_scan_matches_convolution():
    """Dual route agreement: recurrence and kernel convolution."""
    rng = np.random.default_rng(23)
    for _ in range(25):
        sys = discretize_zoh(random_stable(rng, m=6), float(rng.uniform(0.05, 1.0)))
        n = int(rng.integers(1, 96))
        x = rng.uniform(-2.0, 2.0, size=n)
        via_scan = scan_recurrent(sys, x)
        via_conv = apply_convolution(materialize_kernel(sys, n), x)
        scale = max(float(np.max(np.abs(via_scan))), 1e-12)
        assert np.max(np.abs(via_scan - via_conv)) / scale <= 1e-9


def test_fft_matches_direct():
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 17, 64, 100, 513):
        taps = rng.uniform(-1.0, 1.0, size=n)
        kernel = SsmKernel(taps, float(rng.uniform(-0.5, 0.5)))
        x = rng.uniform(-1.0, 1.0, size=n)
        direct = apply_convolution(kernel, x, mode="direct")
        fft = apply_convolution(kernel, x, mode="fft")
        scale = max(float(np.max(np.abs(direct))), 1e-12)
        assert np.max(np.abs(direct - fft)) / scale <= 1e-9


def test_scan_is_linear():
    rng = np.random.default_rng(37)
    sys = discretize_zoh(random_stable(rng), 0.2)
    x1 = rng.uniform(-1.0, 1.0, size=40)
    x2 = rng.uniform(-1.0, 1.0, size=40)
    a, b = 1.7, -0.6
    combined = scan_recurrent(sys, a * x1 + b * x2)
    split = a * scan_recurrent(sys, x1) + b * scan_recurrent(sys, x2)
    assert np.max(np.abs(combined - split)) <= 1e-12


# --- channel banks ---

def test_bank_matches_per_channel_scan():
    bank = seeded_bank(4, 8, seed=3)
    rng = np.random.default_rng(41)
    for _ in range(10):
        x = rng.standard_normal((int(rng.integers(1, 40)), 4))
        got = scan_bank(bank, x)
        want = np.stack(
            [scan_recurrent(bank.channel(e), x[:, e]) for e in range(4)], axis=1
        )
        assert np.array_equal(got, want)


def test_bank_rejects_width_mismatch():
    bank = seeded_bank(4, 8, seed=3)
    with pytest.raises(ValidationError):
        scan_bank(bank, np.zeros((5, 3)))


def test_bank_from_channels_round_trip():
    rng = np.random.default_rng(43)
    systems = [discretize_zoh(random_stable(rng), 0.1) for _ in range(3)]
    bank = DiscreteSsmBank.from_channels(systems)
    assert bank.n_channels == 3
    for e, sys in enumerate(systems):
        ch = bank.channel(e)
        assert np.array_equal(ch.a_bar, sys.a_bar)
        assert np.array_equal(ch.b_bar, sys.b_bar)
        assert np.array_equal(ch.c_bar, sys.c_bar)
        assert ch.d_bar == sys.d_bar


def test_seeded_bank_matches_per_channel_reference():
    """The one-pass bank equals a bank of separately seeded channels, bit for bit."""
    for n_channels, state_dim, seed, delta in (
        (1, 16, 0, 0.1),
        (5, 7, 3, 0.25),
        (12, 3, 2**63 - 1, 0.01),
        (3, 20, 123456789, 1.7),
    ):
        got = seeded_bank(n_channels, state_dim, seed, delta)
        want = DiscreteSsmBank.from_channels(
            discretize_zoh(seeded_continuous(state_dim, [seed, 0x5B, e]), delta)
            for e in range(n_channels)
        )
        for name in ("a_bar", "b_bar", "c_bar", "d_bar"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
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
    a = seeded_continuous(16, 5)
    b = seeded_continuous(16, 5)
    assert np.array_equal(a.c_out, b.c_out)
    assert a.d_feed == b.d_feed
    assert np.array_equal(a.a_diag, -np.arange(1.0, 17.0))
    bank1 = seeded_bank(3, 4, seed=9)
    bank2 = seeded_bank(3, 4, seed=9)
    assert np.array_equal(bank1.a_bar, bank2.a_bar)
    assert np.array_equal(bank1.c_bar, bank2.c_bar)
