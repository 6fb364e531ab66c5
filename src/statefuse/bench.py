"""Wall-time and memory scaling benchmarks for the two fusion mechanisms.

The state-space rows time the library's chunked scan, ``ssm.scan_bank``,
on a bank built before timing (linear in sequence length).  The
cross-attention rows time the decoder's kernel, ``pipeline.cross_attention``,
as self-attention over the N input rows, with an N x N score matrix
(quadratic).  Everything is float64.

Every grid point is warmed up first; then each round times one call per
point, so a slow period of the machine is spread over every N rather than
bending one of them.  A round runs from the largest N down: right after a
2048-row attention pass, a sub-millisecond scan call ran 3x slower, so no
point follows a much larger one.  A row reports the median of its rounds,
measured with ``perf_counter_ns``, and is flagged unreliable when that
median is under 100 timer ticks.  Timing pins numpy's bundled OpenBLAS to
one thread: on a few cores, small threaded matmuls run 10-40x slower at
random and bend the fitted slopes.

Peak bytes come from an analytic allocation model of each kernel's
dominant arrays (the state-space model counts the arrays the chunked scan
holds at its peak and is exactly affine in N), so they are deterministic.
"""

from __future__ import annotations

import ctypes
import glob
import os
import statistics
import time
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import Array, Bound, Config, Record, ValidationError, checked
from .pipeline import cross_attention, op_count_cross_attention, op_count_ssm
from .ssm import _CHUNK, DiscreteSsmBank, scan_bank

MECHANISMS = ("ssm", "cross_attention")
TIMER_MIN_TICKS = 100

BENCH_CSV_HEADER = "mechanism,n,k,d,m,wall_nanos,peak_bytes,op_count,timer_ok"


@dataclass(frozen=True)
class BenchConfig(Config):
    n_list: tuple[Bound[int, ">=", 1], ...] = (64, 128, 256, 512, 1024, 2048)
    k: Bound[int, ">=", 1] = 4
    d: Bound[int, ">=", 1] = 16
    state_dim: Bound[int, ">=", 1] = 16
    repetitions: Bound[int, ">=", 3] = 5  # for a stable median
    warmup: Bound[int, ">=", 0] = 2
    mechanism: Literal[MECHANISMS + ("both",)] = "both"
    seed: Bound[int, ">=", 0] = 0

    def __post_init__(self):
        super().__post_init__()
        n_list = self.n_list
        if not n_list or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValidationError(f"n_list: expected increasing lengths, one or more, got {n_list}")

    @property
    def mechanisms(self) -> tuple:
        return MECHANISMS if self.mechanism == "both" else (self.mechanism,)


@dataclass(frozen=True)
class BenchRow(Record):
    mechanism: Literal[MECHANISMS]
    n: Bound[int, ">=", 1]
    k: Bound[int, ">=", 1]
    d: Bound[int, ">=", 1]
    m: Bound[int, ">=", 1]
    wall_nanos: Bound[int, ">=", 1]
    peak_bytes: Bound[int, ">=", 0]
    op_count: Bound[int, ">=", 0]
    timer_ok: bool


@checked
def ssm_peak_bytes(n: Bound[int, ">=", 1], e: Bound[int, ">=", 1], m: Bound[int, ">=", 1]) -> int:
    """Affine-in-N model of the chunked scan's peak allocation, in bytes.

    It models a call on a bank whose chunk constants already exist: they
    belong to the bank, so a later call allocates only its rows and
    states.  The first call on a bank also builds them, (2T + 2) E M +
    T^2 E more floats with T = ``_CHUNK``: 2.1x the model at N = 64 on the
    default grid.  ``scan_bank`` peaks at its chunk-end product, holding as
    float64 the reversed chunks and the in-chunk product (2 N E) and the
    c_bar-weighted states at the chunk ends ((N / T + 1) E M); the
    carry-in product holds as much.  Between the two, the broadcast
    product by c_bar * b_bar holds one N E block fewer but adds numpy's
    ufunc buffer of up to ``np.getbufsize()`` floats, which sets the peak
    at small N E; the model adds half that buffer, so that it stays
    affine.  For N not a multiple of T it leaves out the zero-padded copy
    of the input.  On the default grid it is within 12% of the tracemalloc
    peak of a float64 scan.
    """
    return 8 * (2 * n * e + e * m) + 8 * n * e * m // _CHUNK + 4 * np.getbufsize()


@checked
def cross_peak_bytes(n: Bound[int, ">=", 1], e: Bound[int, ">=", 1]) -> int:
    """Allocation model of the attention pass; the N x N scores dominate."""
    return 8 * (5 * n * e + 2 * n * n)


@checked
def fit_loglog_slope(
    xs: Array[Bound[float, ">", 0], "N"], ys: Array[Bound[float, ">", 0], "N"]
) -> float:
    """Least-squares slope of ln(y) against ln(x)."""
    if np.unique(xs).size < 3:
        raise ValidationError("xs: expected 3 or more distinct values")
    lx, ly = np.log(xs), np.log(ys)
    dx = lx - lx.mean()
    return float(np.dot(dx, ly - ly.mean()) / np.dot(dx, dx))


def _ssm_inputs(n: int, e: int, m: int, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, e))
    a = np.exp(-rng.uniform(0.05, 0.95, size=(e, m)))  # decay factors in (0, 1)
    b = rng.standard_normal((e, m))
    c = rng.standard_normal((e, m))
    d = rng.standard_normal(e)
    return x, a, b, c, d


def _cross_inputs(n: int, e: int, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, e))
    wq, wk, wv, wo = (rng.standard_normal((e, e)) for _ in range(4))
    return x, wq, wk, wv, wo


def _timer_tick_nanos() -> float:
    return time.get_clock_info("perf_counter").resolution * 1e9


def _time_once(fn) -> int:
    start = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - start


def _openblas():
    """numpy's bundled OpenBLAS if it exports its thread-count calls, else None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if all(hasattr(lib, f"scipy_openblas_{op}_num_threads64_") for op in ("set", "get")):
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads64_.restype = None
            lib.scipy_openblas_get_num_threads64_.argtypes = []
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            return lib
    return None


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads64_()


def _measure(fns, cfg: BenchConfig) -> list:
    """Median wall time and timer verdict per call, timed in interleaved rounds."""
    lib = _openblas()
    if lib is not None:
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
    try:
        for _ in range(cfg.warmup):
            for fn in fns:
                fn()
        samples = [[] for _ in fns]
        for _ in range(cfg.repetitions):
            for fn, times in zip(fns, samples):
                times.append(_time_once(fn))
    finally:
        if lib is not None:
            lib.scipy_openblas_set_num_threads64_(before)
    tick = _timer_tick_nanos()
    # a sub-tick zero median is clamped; timer_ok already flags it unreliable
    walls = [max(int(statistics.median(times)), 1) for times in samples]
    return [(wall, wall >= TIMER_MIN_TICKS * tick) for wall in walls]


def run_bench(cfg: BenchConfig | None = None) -> list:
    """Run the configured benchmark grid and return one row per point."""
    cfg = BenchConfig() if cfg is None else cfg
    e = cfg.k * cfg.d
    points = []
    for mech in cfg.mechanisms:
        for n in reversed(cfg.n_list):  # rounds run largest N first
            seed = [cfg.seed, MECHANISMS.index(mech), n]  # whichever mechanisms cfg runs
            if mech == "ssm":
                x, *abcd = _ssm_inputs(n, e, cfg.state_dim, seed)
                fn = lambda bank=DiscreteSsmBank(*abcd), x=x: scan_bank(bank, x)
                peak = ssm_peak_bytes(n, e, cfg.state_dim)
                ops = op_count_ssm(n, cfg.k, cfg.d, cfg.state_dim)
            else:
                x, *w = _cross_inputs(n, e, seed)
                fn = lambda x=x, w=w: cross_attention(x, x, *w)
                peak = cross_peak_bytes(n, e)
                ops = op_count_cross_attention(n, cfg.k, cfg.d)
            points.append((mech, n, fn, peak, ops))
    timings = _measure([fn for _, _, fn, _, _ in points], cfg)
    rows = []
    for (mech, n, _, peak, ops), (wall, timer_ok) in zip(points, timings):
        rows.append(
            BenchRow(
                mechanism=mech,
                n=n,
                k=cfg.k,
                d=cfg.d,
                m=cfg.state_dim,
                wall_nanos=wall,
                peak_bytes=peak,
                op_count=ops,
                timer_ok=timer_ok,
            )
        )
    rows.sort(key=lambda r: (r.mechanism, r.n))
    return rows


def bench_csv(rows) -> str:
    names = BENCH_CSV_HEADER.split(",")  # fields of BenchRow; a bool is written 1 or 0
    lines = [BENCH_CSV_HEADER]
    for r in rows:
        cells = [getattr(r, name) for name in names]
        lines.append(",".join(str(int(c) if isinstance(c, bool) else c) for c in cells))
    return "\n".join(lines) + "\n"


_SERIES_COLORS = {"ssm": "#1f77b4", "cross_attention": "#d62728"}


def bench_svg(rows) -> str:
    """Hand-built SVG 1.1 log-log chart of wall time against length."""
    rows = list(rows)
    if not rows:
        raise ValidationError("no benchmark rows to plot")
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    xs = sorted({r.n for r in rows})
    ys = [max(r.wall_nanos, 1) for r in rows]
    lx0, lx1 = np.log10(xs[0]), np.log10(xs[-1])
    ly0, ly1 = np.log10(min(ys)), np.log10(max(ys))
    if lx1 <= lx0:
        lx1 = lx0 + 1.0
    if ly1 <= ly0:
        ly1 = ly0 + 1.0

    def px(n):
        return left + (np.log10(n) - lx0) / (lx1 - lx0) * (width - left - right)

    def py(w):
        return height - bottom - (np.log10(max(w, 1)) - ly0) / (ly1 - ly0) * (
            height - top - bottom
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="#ffffff"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">'
        "wall time vs sequence length (log-log)</text>",
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="#333333"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
        f'stroke="#333333"/>',
    ]
    for n in xs:
        x = px(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{height - bottom}" x2="{x:.1f}" '
            f'y2="{height - bottom + 5}" stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{height - bottom + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{n}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        lw = ly0 + frac * (ly1 - ly0)
        y = py(10.0 ** lw)
        label = f"{10.0 ** lw / 1e6:.3g}"
        parts.append(
            f'<line x1="{left - 5}" y1="{y:.1f}" x2="{left}" y2="{y:.1f}" '
            f'stroke="#333333"/>'
        )
        parts.append(
            f'<text x="{left - 9:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 10:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        "sequence length N</text>"
    )
    parts.append(
        f'<text x="18" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {(top + height - bottom) / 2:.1f})">'
        "median wall time (ms)</text>"
    )
    legend_y = top + 8.0
    for mech in MECHANISMS:
        series = sorted((r for r in rows if r.mechanism == mech), key=lambda r: r.n)
        if not series:
            continue
        color = _SERIES_COLORS[mech]
        points = " ".join(
            f"{px(r.n):.1f},{py(r.wall_nanos):.1f}" for r in series
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for r in series:
            parts.append(
                f'<circle cx="{px(r.n):.1f}" cy="{py(r.wall_nanos):.1f}" r="3" '
                f'fill="{color}"/>'
            )
        parts.append(
            f'<rect x="{width - right - 150:.1f}" y="{legend_y - 9:.1f}" '
            f'width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - right - 135:.1f}" y="{legend_y:.1f}" '
            f'font-family="sans-serif" font-size="12">{mech}</text>'
        )
        legend_y += 18.0
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
