"""statefuse benchmark: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline_wide --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced
    python3 perfbench/run.py --record-refs    # rewrite perfbench/refs.json

One run sets up its workload several times (``setup_s`` is the median),
then runs ops in a closed loop with one caller for ``--seconds`` of wall
time, checking every op.  ``--trace 0`` reports the end-to-end metrics.
``--trace 1`` spends half the time untraced and half traced, and reports
per-layer self times from spans taken around the library's public
functions, the counts implied by the op shapes, and the tracing overhead.
Before the loop, a check set of default-seed ops that no loop reaches
is run and compared with stored references, whatever the run's seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, with the
environment record, and the spans of a traced run are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFS = os.path.join(HERE, "refs.json")

DEFAULT_SEED = 1
HELDOUT_SEED = 8191
REF_OPS = {"offline_wide": 400, "stream_window": 1000, "history_fusion": 600}
CHECK_OPS = 3
# Op indices of the check set: default-seed ops that no timed loop reaches.
CHECK_BASE = 2**32
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 20

COUNT_METRICS = (
    ("fusion.proj_macs", "MAC"),
    ("ssm.scan_macs", "MAC"),
    ("ssm.scan_steps", "count"),
    ("pipeline.op_count_ssm", "MAC"),
    ("pipeline.op_count_cross_attention", "MAC"),
    ("pipeline.padding_frac", "frac"),
    ("motion.survivor_frac", "frac"),
)
CALL_METRICS = ("queries.build_query", "geometry.align_centers")
TOTAL_METRICS = ("queries.build_query", "fusion.query_mamba_stack")


def _import_library():
    """Import statefuse from this checkout's ``src``; exit 2 if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import statefuse
    except ImportError as exc:
        print(f"error: cannot import statefuse from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(statefuse.__file__).startswith(SRC + os.sep):
        print(f"error: statefuse was imported from outside {SRC}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """OpenBLAS thread count, read from the library bundled with numpy."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
            fn = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: with n >= 100, p90 has ten samples above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def load_refs() -> dict:
    try:
        with open(REFS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Run:
    """One workload: set-up, the timed closed loop, checks and counts."""

    def __init__(self, workload, seed: int, refs: dict, compare):
        self.wl = workload
        self.compare = compare
        self.seed = seed
        self.refs = refs.get(workload.name, {})
        self.next_index = 0
        self.attempted = 0
        self.failed = 0
        self.ref_checked = 0
        self.problems = []
        self.counts = []

    def setup(self, tracer=None) -> list:
        times = []
        while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
        ):
            if tracer:
                tracer.begin("setup", len(times))
            t0 = time.perf_counter()
            self.wl.setup()
            times.append(time.perf_counter() - t0)
            if tracer:
                tracer.end()
        self.wl.prepare()
        return times

    def check(self, index: int, inp, out) -> list:
        outcome = self.wl.check(inp, out)
        problems = list(outcome.problems)
        ref = self.refs.get(str(self.seed), [])
        if index < len(ref) and outcome.fingerprint:
            problems += self.compare(outcome.fingerprint, ref[index])
            self.ref_checked += 1
        self.counts.append(outcome.counts)
        return problems

    def loop(self, seconds: float, tracer=None) -> list:
        """Ops for ``seconds`` of wall time; returns latencies of passing ops."""
        latencies = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            index = self.next_index
            self.next_index += 1
            inp = self.wl.make_input(self.seed, index)
            self.attempted += 1
            if tracer:
                tracer.begin("op", index)
            t0 = time.perf_counter_ns()
            try:
                out = self.wl.run(inp)
            except Exception as exc:  # a raising op is a failed op; keep measuring
                problems = [f"raised {type(exc).__name__}: {exc}"]
                out = None
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.end()
            if out is not None:
                try:
                    problems = self.check(index, inp, out)
                except Exception as exc:  # a check that cannot read the output fails the op
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.problems.append((index, problems[:3]))
            else:
                latencies.append((t1 - t0) / 1e6)
        return latencies

    def check_set(self) -> tuple:
        """Run the check set and compare it with its stored references.

        It runs before the timed loop, whatever the run's seed, and doubles
        as the warm-up: the first large matrix products of a process are
        slow with two OpenBLAS threads.
        """
        ref = self.refs.get("check", [])
        passed = 0
        for index in range(CHECK_OPS):
            inp = self.wl.make_input(DEFAULT_SEED, CHECK_BASE + index)
            try:
                out = self.wl.run(inp)
                outcome = self.wl.check(inp, out)
                problems = list(outcome.problems)
                if index >= len(ref):
                    problems.append("no stored reference")
                else:
                    problems += self.compare(outcome.fingerprint, ref[index])
            except Exception as exc:  # reported as a failed check, not a crash
                problems = [f"raised {type(exc).__name__}: {exc}"]
            if problems:
                self.problems.append((f"check-set {index}", problems[:3]))
            else:
                passed += 1
        return passed, CHECK_OPS


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup_times: list, latencies: list) -> dict:
    """{name: (value, unit, samples)} of the untraced run."""
    n = len(latencies)
    timed_s = sum(latencies) / 1e3
    return {
        "latency_p50_ms": (_median(latencies), "ms", n),
        "latency_p90_ms": (percentile(latencies, 0.9) if n else 0.0, "ms", n),
        "frames_per_s": (run.wl.frames_per_op * n / timed_s if n else 0.0, "1/s", n),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
        "success_rate": (
            (run.attempted - run.failed) / max(1, run.attempted), "frac", run.attempted
        ),
    }


def per_layer(run: Run, tracer, setup_times: list, plain: list, traced: list) -> dict:
    """{name: (value, unit, samples)} of the traced run."""
    from tracing import SETUP_LAYERS

    layers = tracer.layer_metrics()
    coverage = layers.pop("coverage")
    metrics = {}
    for layer, values in layers.items():
        n = len(setup_times) if layer in SETUP_LAYERS else len(traced)
        metrics[f"{layer}.self_ms"] = (values["self_ms"], "ms", n)
        if layer in CALL_METRICS:
            metrics[f"{layer}.calls"] = (values["calls"], "count", n)
        if layer in TOTAL_METRICS:
            metrics[f"{layer}.total_ms"] = (values["total_ms"], "ms", n)
    for name, unit in COUNT_METRICS:
        values = [c[name] for c in run.counts if name in c]
        metrics[name] = (_median(values), unit, len(values))
    metrics["pipeline.weights_mb"] = (run.wl.weights_bytes() / 2**20, "MB", 1)
    overhead = _median(traced) / _median(plain) - 1.0 if plain and traced else 0.0
    metrics["trace.overhead_frac"] = (overhead, "frac", len(traced))
    metrics["trace.coverage_frac"] = (coverage, "frac", len(traced))
    return metrics


def run_one(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS, compare

    os.makedirs(OUT, exist_ok=True)
    env = environment()
    wl = WORKLOADS[args.workload](args.seed, OUT)
    run = Run(wl, args.seed, load_refs(), compare)
    wl.simulate()
    lines = []
    tracer = None
    if not args.trace:
        setup_times = run.setup()
        passed, total = run.check_set()
        latencies = run.loop(args.seconds)
        metrics = end_to_end(run, setup_times, latencies)
    else:
        tracer = Tracer()
        try:
            tracer.install()
            setup_times = run.setup(tracer)
            tracer.uninstall()
            passed, total = run.check_set()
            plain = run.loop(args.seconds / 2)
            tracer.install()
            latencies = run.loop(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(run, tracer, setup_times, plain, latencies)
        lines.append(
            f"untraced ops {len(plain)}, traced ops {len(latencies)}, p50 untraced "
            f"{_median(plain):.4f} ms, traced {_median(latencies):.4f} ms"
        )
        lines += [f"absent: {name} (not in this library; reads 0)" for name in tracer.absent]

    correct = run.failed == 0 and passed == total
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {wl.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit} (n={n})")
    if not args.trace:
        print(
            f"metric failure_rate = {run.failed / max(1, run.attempted):.6g} frac "
            f"(n={run.attempted})"
        )
    print(
        f"ops attempted {run.attempted} succeeded {run.attempted - run.failed} "
        f"failed {run.failed}; reference-checked {run.ref_checked}; "
        f"check set {passed}/{total} passed"
    )
    for where, problems in run.problems[:10]:
        print(f"FAIL op {where}: " + "; ".join(problems))
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        "attempted": run.attempted,
        "failed": run.failed,
        "reference_checked": run.ref_checked,
        "check_set": [passed, total],
        "latencies_ms": latencies,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "problems": [[str(w), p] for w, p in run.problems],
    }
    if tracer is not None:
        spans_path = os.path.join(OUT, f"spans-{tag}.jsonl")
        tracer.write(spans_path)
        result["spans"] = os.path.relpath(spans_path, ROOT)
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


def _fingerprints(wl, seed: int, indices) -> list:
    """Fingerprints of ops whose invariant checks pass, 12 digits kept."""
    wl.simulate()
    wl.setup()
    wl.prepare()
    fps = []
    for index in indices:
        inp = wl.make_input(seed, index)
        outcome = wl.check(inp, wl.run(inp))
        if outcome.problems:
            raise RuntimeError(f"{wl.name} seed {seed} op {index}: {outcome.problems}")
        digest, *floats = outcome.fingerprint
        fps.append([digest] + [float(f"{x:.12e}") for x in floats])
    return fps


def record_refs(args) -> int:
    """Fingerprint the first ops of the default and held-out seeds, and
    the check set."""
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    refs = load_refs()
    for name, cls in WORKLOADS.items():
        if args.workload not in (None, name):
            continue
        refs[name] = {}
        for key, seed, indices in (
            (str(DEFAULT_SEED), DEFAULT_SEED, range(REF_OPS[name])),
            (str(HELDOUT_SEED), HELDOUT_SEED, range(REF_OPS[name])),
            ("check", DEFAULT_SEED, range(CHECK_BASE, CHECK_BASE + CHECK_OPS)),
        ):
            refs[name][key] = _fingerprints(cls(seed, OUT), seed, indices)
            print(f"{name} {key}: {len(indices)} references", flush=True)
    with open(REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process.

    This includes ``stream_window``, which BENCHMARK.json does not gate on.
    """
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            ok = ok and bool(last.get("correct"))
            print()
    print("all workloads correct" if ok else "SOME WORKLOADS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them when omitted")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    _import_library()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in (None, *WORKLOADS):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.record_refs:
        return record_refs(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
