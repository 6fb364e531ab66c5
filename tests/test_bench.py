"""Benchmark harness: rows, CSV and SVG rendering, slope fitting."""

import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from statefuse import bench, pipeline
from statefuse import (
    BenchConfig,
    BenchRow,
    DiscreteSsmBank,
    ValidationError,
    bench_csv,
    bench_svg,
    cross_peak_bytes,
    fit_loglog_slope,
    op_count_cross_attention,
    op_count_ssm,
    run_bench,
    scan_bank,
    ssm_peak_bytes,
)

TINY = BenchConfig(n_list=(16, 32), repetitions=3, warmup=0)


# --- slope fitting ---

def test_slope_linear():
    xs = np.array([10.0, 20.0, 40.0, 80.0])
    assert abs(fit_loglog_slope(xs, 3.0 * xs) - 1.0) <= 1e-12


def test_slope_quadratic():
    xs = np.array([4.0, 8.0, 16.0, 32.0])
    assert abs(fit_loglog_slope(xs, 0.5 * xs**2) - 2.0) <= 1e-12


def test_slope_constant():
    xs = np.array([1.0, 2.0, 4.0])
    assert abs(fit_loglog_slope(xs, np.full(3, 7.0))) <= 1e-12


def test_slope_needs_three_distinct_positive_points():
    with pytest.raises(ValidationError):
        fit_loglog_slope([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        fit_loglog_slope([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        fit_loglog_slope([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# --- running ---

def test_run_bench_row_grid():
    rows = run_bench(TINY)
    assert len(rows) == 4
    key = [(r.mechanism, r.n) for r in rows]
    assert key == sorted(key)
    assert {r.mechanism for r in rows} == {"ssm", "cross_attention"}
    assert all(r.wall_nanos > 0 for r in rows)


def test_run_bench_op_count_column():
    for row in run_bench(TINY):
        if row.mechanism == "ssm":
            assert row.op_count == op_count_ssm(row.n, row.k, row.d, row.m)
        else:
            assert row.op_count == op_count_cross_attention(row.n, row.k, row.d)


def test_run_bench_single_mechanism():
    cfg = BenchConfig(n_list=(16, 32), repetitions=3, warmup=0, mechanism="ssm")
    rows = run_bench(cfg)
    assert [r.mechanism for r in rows] == ["ssm", "ssm"]


def test_run_bench_restores_blas_threads(monkeypatch):
    """Timing runs on one BLAS thread and puts the old count back after."""
    seen = []
    scan = bench.scan_bank

    def recording(*args):
        seen.append(bench.blas_threads())
        return scan(*args)

    monkeypatch.setattr(bench, "scan_bank", recording)
    before = bench.blas_threads()
    run_bench(BenchConfig(n_list=(16, 32), repetitions=3, warmup=1, mechanism="ssm"))
    assert bench.blas_threads() == before
    assert seen and set(seen) == ({None} if before is None else {1})


def test_run_bench_interleaves_grid_points(monkeypatch):
    """Every point is warmed up, then each round times every point once, largest
    first; the cross-attention points call the decoder's kernel."""
    calls = []
    scan, cross = bench.scan_bank, bench.cross_attention
    assert cross is pipeline.cross_attention

    def scan_recording(bank, x):
        calls.append(("ssm", x.shape[0]))
        return scan(bank, x)

    def cross_recording(queries, context, *weights):
        calls.append(("cross_attention", queries.shape[0]))
        return cross(queries, context, *weights)

    monkeypatch.setattr(bench, "scan_bank", scan_recording)
    monkeypatch.setattr(bench, "cross_attention", cross_recording)
    run_bench(BenchConfig(n_list=(8, 16, 32), repetitions=4, warmup=2))
    grid = [(mech, n) for mech in ("ssm", "cross_attention") for n in (32, 16, 8)]
    assert calls == grid * (2 + 4)


def test_a_mechanism_times_the_same_inputs_alone_as_with_both(monkeypatch):
    """A point's inputs are seeded by its mechanism, not by its position in
    the configured mechanisms."""
    calls = []
    cross = bench.cross_attention

    def recording(queries, context, *weights):
        calls.append((queries, *weights))
        return cross(queries, context, *weights)

    monkeypatch.setattr(bench, "cross_attention", recording)
    grid = dict(n_list=(8, 16), repetitions=3, warmup=0)
    run_bench(BenchConfig(**grid))
    both, calls[:] = list(calls), []
    run_bench(BenchConfig(**grid, mechanism="cross_attention"))
    assert len(calls) == len(both) == 6
    for alone, with_both in zip(calls, both):
        assert all(np.array_equal(a, b) for a, b in zip(alone, with_both))


def test_ssm_rows_time_the_library_scan(monkeypatch):
    """The ssm rows call scan_bank on a float64 bank built from the bench inputs."""
    seen = []
    scan = bench.scan_bank

    def recording(bank, x):
        seen.append((bank, x))
        return scan(bank, x)

    monkeypatch.setattr(bench, "scan_bank", recording)
    cfg = BenchConfig(n_list=(8, 16, 32), repetitions=3, warmup=0, mechanism="ssm")
    run_bench(cfg)
    e = cfg.k * cfg.d
    for bank, x in seen[:3]:  # one round: N = 32, 16, 8
        n = x.shape[0]
        want_x, *want_abcd = bench._ssm_inputs(n, e, cfg.state_dim, [cfg.seed, 0, n])
        assert x.dtype == np.float64 and np.array_equal(x, want_x)
        for name, want in zip(("a_bar", "b_bar", "c_bar", "d_bar"), want_abcd):
            got = getattr(bank, name)
            assert got.dtype == np.float64 and np.array_equal(got, want)


def test_cross_attention_rows_time_the_decoder_kernel(monkeypatch):
    """The cross-attention rows call pipeline.cross_attention as self-attention
    over the bench inputs, the second mechanism's seeds."""
    seen = []
    kernel = bench.cross_attention
    assert kernel is pipeline.cross_attention

    def recording(queries, context, *weights):
        seen.append((queries, context, weights))
        return kernel(queries, context, *weights)

    monkeypatch.setattr(bench, "cross_attention", recording)
    cfg = BenchConfig(n_list=(8, 16, 32), repetitions=3, warmup=0)
    run_bench(cfg)
    e = cfg.k * cfg.d
    assert [q.shape[0] for q, _, _ in seen[:3]] == [32, 16, 8]  # one round
    for queries, context, weights in seen[:3]:
        n = queries.shape[0]
        want_x, *want_w = bench._cross_inputs(n, e, [cfg.seed, 1, n])
        assert context is queries and np.array_equal(queries, want_x)
        assert len(weights) == 4
        assert all(np.array_equal(got, want) for got, want in zip(weights, want_w))


def test_analytic_bytes_affine_in_n():
    cfg = BenchConfig(n_list=(16, 32, 64), repetitions=3, warmup=0, mechanism="ssm")
    rows = run_bench(cfg)
    n = [r.n for r in rows]
    b = [r.peak_bytes for r in rows]
    assert (b[1] - b[0]) * (n[2] - n[0]) == (b[2] - b[0]) * (n[1] - n[0])
    e = cfg.k * cfg.d
    assert b[0] == ssm_peak_bytes(n[0], e, cfg.state_dim)


def test_ssm_bytes_model_matches_tracemalloc():
    """The analytic model is within 15% of the tracemalloc peak of a
    float64 scan_bank call at every default grid point, on a bank whose
    constants an earlier call built, as in the timed rounds."""
    cfg = BenchConfig()
    e = cfg.k * cfg.d
    for n in cfg.n_list:
        x, *abcd = bench._ssm_inputs(n, e, cfg.state_dim, [cfg.seed, 0, n])
        bank = DiscreteSsmBank(*abcd)
        scan_bank(bank, x)
        tracemalloc.start()
        try:
            scan_bank(bank, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        model = ssm_peak_bytes(n, e, cfg.state_dim)
        assert 0.85 * peak <= model <= 1.15 * peak, (n, model, peak)


def test_cross_bytes_model_quadratic():
    e = 64
    assert cross_peak_bytes(10, e) == 8 * (5 * 10 * e + 2 * 100)
    gaps = [
        cross_peak_bytes(2 * n, e) - 4 * cross_peak_bytes(n, e) for n in (8, 16)
    ]
    # doubling N quadruples the quadratic term, leaving a linear remainder
    assert gaps[0] == -8 * (5 * 8 * e * 2)
    assert gaps[1] == -8 * (5 * 16 * e * 2)


# --- rendering ---

def test_csv_layout():
    rows = run_bench(TINY)
    text = bench_csv(rows)
    lines = text.split("\n")
    assert lines[0] == (
        "mechanism,n,k,d,m,wall_nanos,peak_bytes,op_count,timer_ok"
    )
    assert lines[-1] == ""
    assert len(lines) == 2 + len(rows)
    first = lines[1].split(",")
    assert first[0] in ("ssm", "cross_attention")
    assert first[-1] in ("0", "1")


def test_csv_pure_function_of_rows():
    rows = run_bench(TINY)
    assert bench_csv(rows) == bench_csv(list(rows))


def test_svg_pure_function_of_rows():
    rows = run_bench(TINY)
    a = bench_svg(rows)
    b = bench_svg([BenchRow(**vars(r)) for r in rows])
    assert a == b


def test_svg_well_formed():
    rows = run_bench(TINY)
    text = bench_svg(rows)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "polyline" in text
    assert text.endswith("\n")


def test_bench_row_validation():
    with pytest.raises(ValidationError):
        BenchRow("warp", 1, 1, 1, 1, 10, 0, 1, True)
    with pytest.raises(ValidationError):
        BenchRow("ssm", 1, 1, 1, 1, 0, 0, 1, True)
    with pytest.raises(ValidationError):
        BenchRow("ssm", 1, 1, 1, 1, 10, -1, 1, True)


def test_bench_config_validation():
    with pytest.raises(ValidationError):
        BenchConfig(repetitions=2)
    with pytest.raises(ValidationError):
        BenchConfig(n_list=(32, 16))
    with pytest.raises(ValidationError):
        BenchConfig(n_list=(16, 16))
    with pytest.raises(ValidationError):
        BenchConfig(mechanism="gpu")
    with pytest.raises(ValidationError):
        BenchConfig.from_dict({"n_list": [8], "bogus": 1})


def test_bench_config_round_trip():
    cfg = BenchConfig(n_list=(8, 16), repetitions=4, mechanism="ssm", seed=3)
    again = BenchConfig.from_dict(cfg.to_dict())
    assert again == cfg
