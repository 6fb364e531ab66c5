"""Diagonal linear state-space channels with two equivalent forward paths.

A channel maps a scalar input sequence to a scalar output sequence through a
diagonal hidden state.  The continuous-time system

    h'(t) = a * h(t) + b * x(t)
    y(t)  = c . h(t) + d * x(t)

is discretized by zero-order hold and then evaluated either step by step,

    h[k] = a_bar * h[k-1] + b_bar * x[k]
    y[k] = c_bar . h[k] + d_bar * x[k],

or by materializing the impulse-response kernel

    taps[j] = sum_i c_bar[i] * a_bar[i]**j * b_bar[i]

and convolving it with the input (the feed-through term is carried
separately, since the kernel excludes it).  Both routes agree to high
precision for stable systems; the test suite pins that equivalence.

All arithmetic is float64.  A float32 casting helper exists purely for
benchmarking (see ``statefuse.bench``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .numerics import as_float_array, readonly


@dataclass(frozen=True)
class ContinuousSsm:
    """Continuous-time diagonal system. ``a_diag`` entries must be <= 0.

    Strictly negative entries give an asymptotically stable channel; an
    exact zero is permitted only so the integrator limit stays expressible.
    """

    a_diag: np.ndarray
    b_in: np.ndarray
    c_out: np.ndarray
    d_feed: float

    def __post_init__(self):
        a = as_float_array(self.a_diag, "a_diag")
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("a_diag must be a non-empty 1-d vector")
        if np.any(a > 0.0):
            raise ValidationError("a_diag entries must be <= 0 (stability)")
        n = a.size
        b = as_float_array(self.b_in, "b_in", shape=(n,))
        c = as_float_array(self.c_out, "c_out", shape=(n,))
        d = float(self.d_feed)
        if not np.isfinite(d):
            raise ValidationError("d_feed must be finite")
        object.__setattr__(self, "a_diag", readonly(a))
        object.__setattr__(self, "b_in", readonly(b))
        object.__setattr__(self, "c_out", readonly(c))
        object.__setattr__(self, "d_feed", d)

    @property
    def state_dim(self) -> int:
        return self.a_diag.size


@dataclass(frozen=True)
class DiscreteSsm:
    """Zero-order-hold discretization of a :class:`ContinuousSsm`."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    c_bar: np.ndarray
    d_bar: float

    def __post_init__(self):
        a = as_float_array(self.a_bar, "a_bar")
        if a.ndim != 1 or a.size == 0:
            raise ValidationError("a_bar must be a non-empty 1-d vector")
        if np.any(np.abs(a) > 1.0):
            raise ValidationError("|a_bar| entries must be <= 1 (discrete stability)")
        n = a.size
        b = as_float_array(self.b_bar, "b_bar", shape=(n,))
        c = as_float_array(self.c_bar, "c_bar", shape=(n,))
        d = float(self.d_bar)
        if not np.isfinite(d):
            raise ValidationError("d_bar must be finite")
        object.__setattr__(self, "a_bar", readonly(a))
        object.__setattr__(self, "b_bar", readonly(b))
        object.__setattr__(self, "c_bar", readonly(c))
        object.__setattr__(self, "d_bar", d)

    @property
    def state_dim(self) -> int:
        return self.a_bar.size


@dataclass(frozen=True)
class SsmKernel:
    """Materialized impulse response of a discrete channel.

    ``taps[j]`` convolves with inputs ``j`` steps back; ``feed_through``
    multiplies the current input and is not part of the taps.
    """

    taps: np.ndarray
    feed_through: float

    def __post_init__(self):
        taps = as_float_array(self.taps, "taps")
        if taps.ndim != 1 or taps.size == 0:
            raise ValidationError("taps must be a non-empty 1-d vector")
        d = float(self.feed_through)
        if not np.isfinite(d):
            raise ValidationError("feed_through must be finite")
        object.__setattr__(self, "taps", readonly(taps))
        object.__setattr__(self, "feed_through", d)

    @property
    def length(self) -> int:
        return self.taps.size


def discretize_zoh(sys: ContinuousSsm, delta: float) -> DiscreteSsm:
    """Discretize by zero-order hold over a step of ``delta`` seconds.

    a_bar = exp(delta * a);  b_bar = ((exp(delta * a) - 1) / a) * b, with the
    a -> 0 limit delta * b;  c and d pass through unchanged.
    """
    delta = float(delta)
    if not np.isfinite(delta) or delta <= 0.0:
        raise ValidationError(f"delta must be a positive finite number, got {delta}")
    a = sys.a_diag
    a_bar = np.exp(delta * a)
    # expm1 keeps precision near a = 0; the exact zero takes the limit value.
    safe_a = np.where(a == 0.0, 1.0, a)
    b_scale = np.where(a == 0.0, delta, np.expm1(delta * a) / safe_a)
    b_bar = b_scale * sys.b_in
    return DiscreteSsm(a_bar, b_bar, np.array(sys.c_out), sys.d_feed)


def scan_recurrent(sys: DiscreteSsm, x: np.ndarray) -> np.ndarray:
    """Run the step recurrence over a scalar input sequence.

    The hidden state starts at zero, so y[k] depends on x[0..k] only.  The
    channel runs as a width-1 bank through :func:`scan_bank`.
    """
    x = as_float_array(x, "x")
    if x.ndim != 1 or x.size == 0:
        raise ValidationError("x must be a non-empty 1-d sequence")
    bank = DiscreteSsmBank(
        sys.a_bar[None], sys.b_bar[None], sys.c_bar[None], [sys.d_bar]
    )
    return scan_bank(bank, x[:, None])[:, 0]


def materialize_kernel(sys: DiscreteSsm, length: int) -> SsmKernel:
    """Materialize the first ``length`` impulse-response taps.

    taps[j] = sum_i c_bar[i] * a_bar[i]**j * b_bar[i].
    """
    length = int(length)
    if length < 1:
        raise ValidationError(f"kernel length must be >= 1, got {length}")
    powers = np.power(sys.a_bar[:, None], np.arange(length)[None, :])
    taps = (sys.c_bar * sys.b_bar) @ powers
    return SsmKernel(taps, sys.d_bar)


def apply_convolution(kernel: SsmKernel, x: np.ndarray, mode: str = "direct") -> np.ndarray:
    """Causally convolve an input sequence with a materialized kernel.

    y[k] = sum_{j<=k} taps[j] * x[k-j] + feed_through * x[k].  The ``fft``
    mode zero-pads both operands to the next power of two at or above
    2L - 1, multiplies in the frequency domain, and truncates back to
    length L.
    """
    x = as_float_array(x, "x")
    if x.ndim != 1:
        raise ValidationError("x must be a 1-d sequence")
    if x.size != kernel.length:
        raise ValidationError(
            f"input length {x.size} must equal kernel length {kernel.length}"
        )
    n = x.size
    if mode == "direct":
        full = np.convolve(x, kernel.taps)
        y = full[:n]
    elif mode == "fft":
        size = 1 << (2 * n - 1).bit_length() if n > 1 else 1
        freq = np.fft.rfft(x, size) * np.fft.rfft(kernel.taps, size)
        y = np.fft.irfft(freq, size)[:n]
    else:
        raise ValidationError(f"mode must be 'direct' or 'fft', got {mode!r}")
    return y + kernel.feed_through * x


# === channel banks ===

@dataclass(frozen=True)
class DiscreteSsmBank:
    """A width-E bank of discrete channels stored as stacked (E, M) arrays."""

    a_bar: np.ndarray
    b_bar: np.ndarray
    c_bar: np.ndarray
    d_bar: np.ndarray

    def __post_init__(self):
        a = as_float_array(self.a_bar, "a_bar")
        if a.ndim != 2 or a.size == 0:
            raise ValidationError("bank a_bar must be a non-empty (E, M) array")
        if np.any(np.abs(a) > 1.0):
            raise ValidationError("|a_bar| entries must be <= 1 (discrete stability)")
        b = as_float_array(self.b_bar, "b_bar", shape=a.shape)
        c = as_float_array(self.c_bar, "c_bar", shape=a.shape)
        d = as_float_array(self.d_bar, "d_bar", shape=(a.shape[0],))
        object.__setattr__(self, "a_bar", readonly(a))
        object.__setattr__(self, "b_bar", readonly(b))
        object.__setattr__(self, "c_bar", readonly(c))
        object.__setattr__(self, "d_bar", readonly(d))

    @property
    def n_channels(self) -> int:
        return self.a_bar.shape[0]

    @property
    def state_dim(self) -> int:
        return self.a_bar.shape[1]

    @classmethod
    def from_channels(cls, channels) -> "DiscreteSsmBank":
        channels = list(channels)
        if not channels:
            raise ValidationError("bank needs at least one channel")
        return cls(
            np.stack([ch.a_bar for ch in channels]),
            np.stack([ch.b_bar for ch in channels]),
            np.stack([ch.c_bar for ch in channels]),
            np.array([ch.d_bar for ch in channels]),
        )

    def channel(self, e: int) -> DiscreteSsm:
        return DiscreteSsm(
            np.array(self.a_bar[e]),
            np.array(self.b_bar[e]),
            np.array(self.c_bar[e]),
            float(self.d_bar[e]),
        )


# Seeded channels draw c uniformly from _C_RANGE, then d from _D_RANGE.
_C_RANGE = (-0.5, 0.5)
_D_RANGE = (-0.1, 0.1)


def seeded_continuous(state_dim: int, seed, d_feed: float | None = None) -> ContinuousSsm:
    """Deterministic stable init: a_diag[i] = -(i + 1), b all ones, c seeded."""
    state_dim = int(state_dim)
    if state_dim < 1:
        raise ValidationError("state_dim must be >= 1")
    rng = np.random.default_rng(seed)
    a = -np.arange(1.0, state_dim + 1.0)
    b = np.ones(state_dim)
    c = rng.uniform(*_C_RANGE, size=state_dim)
    d = float(rng.uniform(*_D_RANGE)) if d_feed is None else float(d_feed)
    return ContinuousSsm(a, b, c, d)


def seeded_bank(
    n_channels: int, state_dim: int, seed: int, delta: float = 0.1
) -> DiscreteSsmBank:
    """Bank of ``n_channels`` seeded stable systems discretized at ``delta``.

    Channel e equals ``discretize_zoh(seeded_continuous(state_dim,
    [seed, 0x5B, e]), delta)``.  Every channel shares a and b, so that pair
    is discretized once; c and d come from each channel's own stream.
    """
    e_count, m, seed = int(n_channels), int(state_dim), int(seed)
    if e_count < 1:
        raise ValidationError("n_channels must be >= 1")
    if m < 1:
        raise ValidationError("state_dim must be >= 1")
    shared = discretize_zoh(
        ContinuousSsm(-np.arange(1.0, m + 1.0), np.ones(m), np.zeros(m), 0.0), delta
    )
    # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), so one
    # random(m + 1) call per stream yields the m values of c, then d.
    u = np.empty((e_count, m + 1))
    for e in range(e_count):
        u[e] = np.random.default_rng([seed, 0x5B, e]).random(m + 1)
    (c_lo, c_hi), (d_lo, d_hi) = _C_RANGE, _D_RANGE
    c = c_lo + (c_hi - c_lo) * u[:, :m]
    d = d_lo + (d_hi - d_lo) * u[:, m]
    return DiscreteSsmBank(
        np.tile(shared.a_bar, (e_count, 1)), np.tile(shared.b_bar, (e_count, 1)), c, d
    )


def scan_bank(bank: DiscreteSsmBank, x: np.ndarray) -> np.ndarray:
    """Channel-parallel recurrence: column e of ``x`` runs through channel e.

    h[k] = a_bar * h[k-1] + b_bar * x[k];  y[k] = c_bar . h[k] + d_bar * x[k].
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("x must be a non-empty (N, E) array")
    if x.shape[1] != bank.n_channels:
        raise ValidationError(
            f"x has {x.shape[1]} columns but the bank has {bank.n_channels} channels"
        )
    a, b, c, d = bank.a_bar, bank.b_bar, bank.c_bar, bank.d_bar
    h = np.zeros_like(a)
    out = np.empty_like(x)
    for k in range(x.shape[0]):
        h = a * h + b * x[k, :, None]
        out[k] = (c * h).sum(axis=1) + d * x[k]
    return out
