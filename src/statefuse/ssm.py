"""Banks of diagonal linear state-space channels, and two equivalent forward paths.

A channel maps a scalar input sequence to a scalar output sequence through a
diagonal hidden state.  The continuous-time system

    h'(t) = a * h(t) + b * x(t)
    y(t)  = c . h(t) + d * x(t)

is discretized by zero-order hold (:func:`discretize_zoh`) and then
evaluated either as a scan of the step recurrence,

    h[k] = a_bar * h[k-1] + b_bar * x[k]
    y[k] = c_bar . h[k] + d_bar * x[k],

or by materializing the impulse-response kernel

    taps[j] = sum_i c_bar[i] * a_bar[i]**j * b_bar[i]

and convolving it with the input (the feed-through term is carried
separately, since the kernel excludes it).  Both routes agree to high
precision for stable systems; the test suite pins that equivalence.

:class:`DiscreteSsmBank` is the one channel type: E channels of state size
M held as stacked (E, M) arrays, so a single channel is a width-1 bank.

The scan (:func:`scan_bank`) is chunked as in Mamba-2/SSD (Dao & Gu 2024):
inside a chunk of ``_CHUNK`` rows it convolves with the first taps, and
only the state at each chunk boundary is carried step by step, so the
Python-level loop runs N / ``_CHUNK`` times instead of N.  A scan of at
most ``_CHUNK`` rows is one chunk and carries nothing, so it is a single
causal convolution with the bank's taps (:func:`depthwise_causal_conv`).
A :class:`ScanCarry` continues one scan over consecutive row blocks, which
is how the fusion stack runs tile by tile.

The constants of the scan belong to the bank and are built once: the
(E, ``_CHUNK``) taps on first use, and the chunk constants of a scan that
carries (powers of a_bar, carry-in powers and Hankel windows, (2 T + 2) E M
+ T^2 E floats) on the first scan longer than a chunk.  A bank used only for
short scans never builds the latter.

All arithmetic is float64.  Array arguments take numbers under the rule of
:class:`~statefuse.errors.Array`; integers are read as floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import Array, Bound, Record, ValidationError, checked, frozen


@dataclass(frozen=True)
class DiscreteSsmBank(Record):
    """A width-E bank of discrete channels stored as stacked (E, M) arrays."""

    a_bar: Array[Bound[float, ">=", -1, "<=", 1], "E", "M"]  # discrete stability
    b_bar: Array[float, "E", "M"]
    c_bar: Array[float, "E", "M"]
    d_bar: Array[float, "E"]

    @property
    def n_channels(self) -> int:
        return self.a_bar.shape[0]

    @cached_property
    def taps(self) -> np.ndarray:
        """The first ``_CHUNK`` impulse-response taps, d_bar folded into lag 0.

        taps[e, j] = c_bar[e] . a_bar[e]**j b_bar[e], plus d_bar[e] at j = 0:
        a write-protected (E, ``_CHUNK``) array, built on first use and
        stored column-major, so that the taps of one lag are contiguous.
        """
        taps = np.empty((self.n_channels, _CHUNK), order="F")
        powers = _powers(self.a_bar, _CHUNK - 1)
        np.einsum("tem,em->et", powers, self.c_bar * self.b_bar, out=taps)
        taps[:, 0] += self.d_bar
        return frozen(taps)

    @cached_property
    def _carry_constants(self) -> tuple:
        """:func:`_chunk_constants`, built by the first scan longer than a chunk."""
        return _chunk_constants(self)


@checked
def discretize_zoh(
    a: Array[Bound[float, "<=", 0], ...], b: Array[float, ...], delta: Bound[float, ">", 0]
) -> tuple:
    """Zero-order-hold discretization of h' = a * h + b * x over ``delta``.

    Returns (a_bar, b_bar) with a_bar = exp(delta * a) and b_bar =
    ((exp(delta * a) - 1) / a) * b, taking the a -> 0 limit delta * b; c and
    d pass through unchanged.  ``a`` and ``b`` share one shape, and entries
    of ``a`` must be <= 0: strictly negative ones give a stable channel, an
    exact zero keeps the integrator limit expressible.
    """
    if a.size == 0:
        raise ValidationError("a must be non-empty")
    a_bar = np.exp(delta * a)
    # expm1 keeps precision near a = 0; the exact zero takes the limit value.
    safe_a = np.where(a == 0.0, 1.0, a)
    b_scale = np.where(a == 0.0, delta, np.expm1(delta * a) / safe_a)
    return a_bar, b_scale * b


@checked
def materialize_kernel(bank: DiscreteSsmBank, length: Bound[int, ">=", 1]) -> np.ndarray:
    """The first ``length`` impulse-response taps of each channel, (E, length).

    taps[e, j] = sum_i c_bar[e, i] * a_bar[e, i]**j * b_bar[e, i]; the
    feed-through d_bar is not part of the taps.
    """
    powers = np.power(bank.a_bar[:, :, None], np.arange(length))
    return np.matmul((bank.c_bar * bank.b_bar)[:, None, :], powers)[:, 0]


@checked
def apply_convolution(
    taps: Array[float, "L"], feed_through: float, x: Array[float, "L"],
    mode: Literal["direct", "fft"] = "direct",
) -> np.ndarray:
    """Causally convolve an input sequence with one channel's taps.

    y[k] = sum_{j<=k} taps[j] * x[k-j] + feed_through * x[k].  The ``fft``
    mode zero-pads both operands to the next power of two at or above
    2L - 1, multiplies in the frequency domain, and truncates back to
    length L.
    """
    if taps.size == 0:
        raise ValidationError("taps must be non-empty")
    n = x.size
    if mode == "direct":
        y = np.convolve(x, taps)[:n]
    else:
        size = 1 << (2 * n - 1).bit_length() if n > 1 else 1
        freq = np.fft.rfft(x, size) * np.fft.rfft(taps, size)
        y = np.fft.irfft(freq, size)[:n]
    return y + feed_through * x


# Seeded channels draw c uniformly from _C_RANGE, then d from _D_RANGE.
_C_RANGE = (-0.5, 0.5)
_D_RANGE = (-0.1, 0.1)
# Word that separates a bank's channel streams from other uses of its seed.
_BANK_SALT = 0x5B

# numpy's SeedSequence (NEP 19) hash constants and its PCG64 multiplier.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (0x2360ED051FC65DA4 << 64) | 0x4385DF649FCCF645


def _limbs(values) -> list:
    """128-bit integers as four little-endian 32-bit limbs, uint64 each."""
    return [
        np.array([(v >> (32 * k)) & _MASK32 for v in values], dtype=np.uint64)
        for k in range(4)
    ]


def _channel_uniforms(seed: int, n_channels: int, n: int) -> np.ndarray:
    """``default_rng([seed, _BANK_SALT, e]).random(n)`` for every channel e.

    An (n_channels, n) array, equal bit for bit to one generator per channel
    but computed for all channels at once; ``n_channels`` must be at most
    2**32, so that e is one 32-bit word.  It follows numpy's algorithms:

    * SeedSequence hashes the entropy words [seed words..., _BANK_SALT, e]
      into a pool of four words and draws eight words from it.  Its uint32
      arithmetic is held in uint64 lanes (Python ints while a value does
      not depend on e) and masked after each product.
    * PCG64 seeds a 128-bit LCG s -> a*s + inc from those words; the state
      is held as four 32-bit limbs, so every limb product fits in 64 bits.
      Draw j reads the state j + 1 steps on, which is affine in the seeding
      words: a^(j+2)*initstate + (a^0 + ... + a^(j+2))*inc mod 2**128.  The
      per-j constants make the number of array operations independent of n.
    * Each draw is the XSL-RR output (high ^ low 64 bits, rotated right by
      the top 6 state bits), as a double (x >> 11) * 2**-53.
    """
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _HASH_MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return value ^ (value >> 16)

    entropy = []
    while True:  # a Python int becomes its 32-bit words, least significant first
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy += [_BANK_SALT, np.arange(n_channels, dtype=np.uint64)]
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _HASH_INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _HASH_MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ (value >> 16))
    # PCG64 takes uint64 words [w0|w1<<32, w2|w3<<32, ...] as (high, low)
    # halves of initstate, then of the stream id; inc = 2 * id + 1.
    initstate = [words[2], words[3], words[0], words[1]]
    stream = [words[6], words[7], words[4], words[5]]
    inc = [(stream[0] << 1 | 1) & _MASK32] + [
        (stream[k] << 1 | stream[k - 1] >> 31) & _MASK32 for k in (1, 2, 3)
    ]
    scale, offset = [], []
    power, total = _PCG_MULT * _PCG_MULT & _MASK128, 1 + _PCG_MULT
    for _ in range(n):
        total = (total + power) & _MASK128
        scale.append(power)
        offset.append(total)
        power = power * _PCG_MULT & _MASK128
    # Schoolbook limb products, split into 32-bit halves: each limb gathers
    # at most 14 halves, so the sums stay far below 2**64 before the carry.
    acc = [np.zeros((n_channels, n), dtype=np.uint64) for _ in range(4)]
    for lanes, consts in ((initstate, _limbs(scale)), (inc, _limbs(offset))):
        for i in range(4):
            col = lanes[i][:, None]
            for j in range(4 - i):
                prod = col * consts[j]
                acc[i + j] += prod & _MASK32
                if i + j < 3:
                    acc[i + j + 1] += prod >> 32
    for k in range(3):
        acc[k + 1] += acc[k] >> 32
        acc[k] &= _MASK32
    acc[3] &= _MASK32
    xored = (acc[2] | acc[3] << 32) ^ (acc[0] | acc[1] << 32)
    rot = acc[3] >> 26
    out = xored >> rot | xored << ((64 - rot) & 63)
    return (out >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)


@checked
def seeded_bank(
    n_channels: Bound[int, ">=", 1], state_dim: Bound[int, ">=", 1], seed: Bound[int, ">=", 0],
    delta: float = 0.1,
) -> DiscreteSsmBank:
    """Bank of ``n_channels`` seeded stable systems discretized at ``delta``.

    Every channel has a[i] = -(i + 1) and b = 1, so that pair is discretized
    once.  Channel e draws c uniformly from ``_C_RANGE``, then d from
    ``_D_RANGE``, from its own stream ``default_rng([seed, 0x5B, e])``; all
    streams are computed in one vectorised pass (:func:`_channel_uniforms`).
    """
    e_count, m = n_channels, state_dim
    a_bar, b_bar = discretize_zoh(-np.arange(1.0, m + 1.0), np.ones(m), delta)
    # Generator.uniform(lo, hi) is lo + (hi - lo) * random(), so the m + 1
    # draws of a stream yield the m values of c, then d.
    u = _channel_uniforms(seed, e_count, m + 1)
    (c_lo, c_hi), (d_lo, d_hi) = _C_RANGE, _D_RANGE
    return DiscreteSsmBank(
        frozen(np.repeat(a_bar[None], e_count, axis=0)),
        frozen(np.repeat(b_bar[None], e_count, axis=0)),
        frozen(c_lo + (c_hi - c_lo) * u[:, :m]),
        frozen(d_lo + (d_hi - d_lo) * u[:, m]),
    )


# Rows per chunk of the scan.  A call runs N / T carry steps; the chunk
# constants, (T + 1) x E x M powers and a T x T matrix per channel, are
# built once per bank.  At E = 64 the log-log slope of scan time over
# N = 64-2048 reads 0.89-1.06 with T = 8 (``statefuse check`` wants
# 0.7-1.3).  When every call built the constants, T = 16 pulled it to
# 0.67-0.72; T = 8 is ~25% slower per row than T = 16 at N = 1024.
_CHUNK = 8


def _powers(a: np.ndarray, t: int) -> np.ndarray:
    """powers[j] = a**j for j <= t, by repeated multiplication."""
    powers = np.empty((t + 1,) + a.shape)
    powers[0] = 1.0
    for j in range(1, t + 1):
        np.multiply(powers[j - 1], a, out=powers[j])
    return powers


def _chunk_constants(bank: DiscreteSsmBank) -> tuple:
    """(powers, cb, hankel, from_start) of a scan that carries state across chunks.

    With T = ``_CHUNK``: powers[j] = a_bar**j for j <= T, cb = c_bar *
    b_bar, hankel[e] the in-chunk matrix of channel e, built from the taps,
    and from_start[e, :, s] = a_bar**(s+1).  All are write-protected.
    """
    t, e = _CHUNK, bank.n_channels
    powers = _powers(bank.a_bar, t)
    # w[:, t - 1 + j] = taps[:, j], after t - 1 zero columns
    w = np.zeros((e, 2 * t - 1))
    w[:, t - 1 :] = bank.taps
    # The window is copied to a C-ordered block per channel: a one-chunk
    # product is a BLAS matrix-vector call, whose rounding depends on the
    # matrix stride.  The products over strided views have two or more rows.
    step = w.strides[1]
    hankel = as_strided(w, (e, t, t), (w.strides[0], step, step), writeable=False).copy()
    from_start = np.ascontiguousarray(powers[1:].transpose(1, 2, 0))
    return frozen(powers), frozen(bank.c_bar * bank.b_bar), frozen(hankel), frozen(from_start)


def _scan_chunks(x, powers, cb, hankel, from_start, state, carry_out: bool):
    """Chunked scan of ``x`` from the c_bar-weighted state ``state`` (None
    for zero); returns the rows and, if ``carry_out``, the state after the
    last chunk."""
    n, e = x.shape
    t = hankel.shape[1]
    chunks = -(-n // t)
    if n < chunks * t:
        x = np.concatenate([x, np.zeros((chunks * t - n, e))])
    # Chunks hold their rows last to first, rev[e, i, s] = x[iT + T-1-s, e], so
    # the in-chunk matrix is the Hankel window hankel[e, s, k] = w[e, s + k]
    # and the end states take a_bar**s in order.
    rev = np.empty((e, chunks, t))
    rev[:, :, ::-1] = x.T.reshape(e, chunks, t)
    y = np.matmul(rev, hankel)
    # carried[i + 1] = c_bar * (state after chunk i); carried[0] = state
    carried = np.empty((chunks + 1,) + cb.shape)
    carried[0] = 0.0 if state is None else state
    np.matmul(rev, powers[:t].transpose(1, 0, 2), out=carried[1:].transpose(1, 0, 2))
    del rev  # lowers the peak by N x E floats (see bench.ssm_peak_bytes)
    carried[1:] *= cb
    last = chunks + 1 if carry_out else chunks
    for i in range(1 if state is not None else 2, last):
        carried[i] += powers[t] * carried[i - 1]
    y += np.matmul(carried[:-1].transpose(1, 0, 2), from_start)
    state = carried[chunks].copy() if carry_out else None
    return np.ascontiguousarray(y.reshape(e, chunks * t)[:, :n].T), state


class ScanCarry:
    """What :func:`scan_bank` hands from one row block of a sequence to the next.

    Passing the same carry with consecutive blocks of one sequence,
    ``scan_bank(bank, block, carry)``, yields the rows of a single call over
    the whole sequence.  The carry holds only c_bar * h, the c_bar-weighted
    state after the rows seen so far; every block runs in chunks of
    ``_CHUNK`` rows with the chunk constants of the bank, which the bank
    builds once.  Every block but the last must be a whole number of chunks.

    Which splits are exact: the rows equal one call's bit for bit when the
    sequence is longer than one chunk (a single call over at most
    ``_CHUNK`` rows is the convolution with the taps) and every block holds
    more than ``_CHUNK`` rows, so that its products have two or more chunk
    rows.  A block of one chunk makes them BLAS matrix-vector calls, which
    round differently: up to 5e-15 of max(|y|, 1) over 30 random banks with
    a_bar in [-1, 1].
    """

    def __init__(self, bank: DiscreteSsmBank):
        self.bank = bank
        self.state = None  # c_bar * h after the rows scanned so far
        self.closed = False  # a block ended inside a chunk


@checked
def depthwise_causal_conv(
    x: Array[float, "N", "E"], kernel: Array[float, "E", "S"],
    history: Array[float, "H", "E"] | None = None,
) -> np.ndarray:
    """Per-channel causal convolution with left zero padding.

    y[k, e] = sum_i kernel[e, i] * x[k - i, e], taking x[<0] from the end of
    ``history`` (the rows before x, oldest first) and 0 before those.
    """
    past = x[:0] if history is None else history
    n, h = x.shape[0], past.shape[0]
    out = kernel[:, 0] * x
    for i in range(1, kernel.shape[1]):
        if i < n:
            out[i:] += kernel[:, i] * x[:-i]
        lo, hi = max(0, i - h), min(i, n)  # rows reaching back into history
        if lo < hi:
            out[lo:hi] += kernel[:, i] * past[h - i + lo : h - i + hi]
    return out


@checked
def scan_bank(
    bank: DiscreteSsmBank, x: Array[float, "N", "E"], carry: ScanCarry | None = None
) -> np.ndarray:
    """Channel-parallel scan: column e of ``x`` runs through channel e.

    Computes h[k] = a_bar * h[k-1] + b_bar * x[k], y[k] = c_bar . h[k] +
    d_bar * x[k] from h[-1] = 0.  N <= T = ``_CHUNK`` rows carry no state
    across a chunk, so the scan is the causal convolution with the bank's
    taps, :func:`depthwise_causal_conv` with ``bank.taps[:, :N]``.  Longer
    scans are chunked (Mamba-2/SSD, Dao & Gu 2024) with the chunk
    constants the bank builds once.  With x padded by zero rows to a
    multiple of T, per channel:

    * in-chunk: y[k] = sum_{j <= k mod T} taps[j] * x[k - j], where
      taps[j] = c_bar . a_bar**j b_bar plus d_bar at j = 0; one matrix
      product covers every chunk;
    * chunk ends: s_i = sum_t a_bar**(T-1-t) b_bar x[iT + t], one matrix
      product, then the carry H_i = a_bar**T H_(i-1) + s_(i-1) in N / T steps;
    * carry-in: y[iT + t] += c_bar . a_bar**(t+1) H_i, one matrix product.

    The powers of a_bar come from repeated multiplication.  Row k depends on
    x[0..k] only; the result is a C-ordered float64 (N, E) array.

    With a :class:`ScanCarry` of this bank, ``x`` is the next block of a
    longer sequence, scanned in chunks whatever its length: the scan starts
    from the carried c_bar * h (the ``carried`` term of the chunk loop)
    instead of zero and stores the term after its last chunk for the next
    block.  The carry's docstring says which splits reproduce a single call
    bit for bit.
    """
    n, e = x.shape
    if n == 0:
        raise ValidationError("x must be non-empty")
    if e != bank.n_channels:
        raise ValidationError(
            f"x has {e} columns but the bank has {bank.n_channels} channels"
        )
    if carry is None:
        if n <= _CHUNK:
            # x is checked already, so the conv's own check is skipped
            return depthwise_causal_conv.__wrapped__(np.ascontiguousarray(x), bank.taps[:, :n])
        return _scan_chunks(x, *bank._carry_constants, state=None, carry_out=False)[0]
    if carry.bank is not bank:
        raise ValidationError("the carry belongs to another bank")
    if carry.closed:
        raise ValidationError("only the last block of a sequence may end inside a chunk")
    y, carry.state = _scan_chunks(x, *bank._carry_constants, state=carry.state, carry_out=True)
    carry.closed = n % _CHUNK != 0
    return y
