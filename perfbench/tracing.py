"""Spans recorded from outside the library, around its public functions.

The tracer replaces each public function by a timing wrapper at the place
where its caller looks it up (``statefuse.pipeline.build_query`` is the
name ``run_pipeline_detailed`` calls, ``statefuse.fusion.scan_bank`` the
one ``gs4_layer`` calls) and puts the originals back afterwards.  A name
that does not exist in the library being measured is reported as absent.

Spans live in memory: (id, parent id, layer, root, start ns, end ns).  A
span is recorded only inside a root span opened by the benchmark (one op
or one set-up), so untimed input generation and checks leave no trace.
Self time is a span's duration minus the duration of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import time
from collections import defaultdict

# (layer, module the caller resolves it in, attribute path in that module)
BINDINGS = (
    ("queries.build_query", "statefuse.pipeline", "build_query"),
    ("queries.deformable_attention", "statefuse.queries", "deformable_attention"),
    ("queries.expected_depth", "statefuse.queries", "expected_depth"),
    ("geometry.lift_center", "statefuse.queries", "lift_center"),
    ("geometry.pos_embed", "statefuse.queries", "pos_embed"),
    ("geometry.align_centers", "statefuse.pipeline", "align_centers"),
    ("motion.pad_frames", "statefuse.pipeline", "pad_frames"),
    ("motion.motion_cost", "statefuse.pipeline", "motion_cost"),
    ("motion.motion_mask", "statefuse.pipeline", "motion_mask"),
    ("motion.apply_motion_mask", "statefuse.pipeline", "apply_motion_mask"),
    ("pipeline.run_pipeline_detailed", "statefuse.pipeline", "run_pipeline_detailed"),
    ("pipeline.channel_concat", "statefuse.pipeline", "channel_concat"),
    ("pipeline.decode_current_frame", "statefuse.pipeline", "decode_current_frame"),
    ("pipeline.run_report_csv", "statefuse.pipeline", "run_report_csv"),
    ("fusion.query_mamba_stack", "statefuse.pipeline", "query_mamba_stack"),
    ("fusion.query_mamba_stack", "statefuse.fusion", "query_mamba_stack"),
    ("fusion.query_mamba_block", "statefuse.fusion", "query_mamba_block"),
    ("fusion.layer_norm", "statefuse.fusion", "layer_norm"),
    ("fusion.depthwise_causal_conv", "statefuse.fusion", "depthwise_causal_conv"),
    ("fusion.gs4_layer", "statefuse.fusion", "gs4_layer"),
    ("ssm.scan_bank", "statefuse.fusion", "scan_bank"),
    ("numerics.gelu", "statefuse.fusion", "gelu"),
    ("numerics.gelu", "statefuse.geometry", "gelu"),
    ("scene.load_scene", "statefuse.scene", "load_scene"),
    ("scene.synth_features", "statefuse.scene", "synth_features"),
    ("pipeline.from_seed", "statefuse.pipeline", "PipelineWeights.from_seed"),
    ("fusion.seeded_stack", "statefuse.pipeline", "seeded_stack"),
    ("fusion.seeded_stack", "statefuse.fusion", "seeded_stack"),
    ("ssm.seeded_bank", "statefuse.fusion", "seeded_bank"),
)

# Layers whose time belongs to set-up; every other layer is timed per op.
SETUP_LAYERS = (
    "scene.load_scene",
    "scene.synth_features",
    "pipeline.from_seed",
    "fusion.seeded_stack",
    "ssm.seeded_bank",
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BINDINGS))


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted path inside a module, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, leaf = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, leaf):
        return None
    return owner, leaf


class Tracer:
    """In-memory span recorder that wraps the library's public functions."""

    def __init__(self):
        self.spans = []
        self.roots = []  # (phase, index) per root span
        self.absent = []
        self._stack = []
        self._root = -1
        self._root_start = (None, 0)
        self._ids = itertools.count()
        self._installed = []

    def _wrap(self, layer: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, layer, self._root, t0, t1))

        return traced

    def install(self) -> None:
        for layer, module_name, path in BINDINGS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, leaf = found
            if isinstance(owner, type):
                raw = owner.__dict__.get(leaf)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    raw = getattr(owner, leaf)
                    wrapped = self._wrap(layer, raw)
            else:
                raw = getattr(owner, leaf)
                wrapped = self._wrap(layer, raw)
            setattr(owner, leaf, wrapped)
            self._installed.append((owner, leaf, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, leaf, raw = self._installed.pop()
            setattr(owner, leaf, raw)

    def begin(self, phase: str, index: int) -> None:
        """Open a root span: one op ("op") or one set-up ("setup")."""
        self._root = len(self.roots)
        self.roots.append((phase, index))
        sid = next(self._ids)
        self._stack.append(sid)
        self._root_start = (sid, time.perf_counter_ns())

    def end(self) -> None:
        sid, t0 = self._root_start
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, None, "root", self._root, t0, t1))

    def per_root(self):
        """{root: {layer: [self_ns, calls, total_ns]}}, root durations, and
        the part of each root its direct children cover."""
        child = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        table = defaultdict(lambda: defaultdict(lambda: [0, 0, 0]))
        root_dur, covered = {}, {}
        for sid, parent, layer, root, t0, t1 in self.spans:
            if parent is None:
                root_dur[root] = t1 - t0
                covered[root] = child[sid]
                continue
            cell = table[root][layer]
            cell[0] += t1 - t0 - child[sid]
            cell[1] += 1
            cell[2] += t1 - t0
        return table, root_dur, covered

    def layer_metrics(self) -> dict:
        """Median self ms, calls and total ms per root of each layer, and the
        median share of an op that its top-level spans cover."""
        table, root_dur, covered = self.per_root()
        out = {}
        for layer in LAYERS:
            phase = "setup" if layer in SETUP_LAYERS else "op"
            roots = [r for r, (p, _) in enumerate(self.roots) if p == phase]
            cells = [table[r].get(layer, (0, 0, 0)) for r in roots] or [(0, 0, 0)]
            out[layer] = {
                "self_ms": statistics.median(c[0] for c in cells) / 1e6,
                "calls": statistics.median(c[1] for c in cells),
                "total_ms": statistics.median(c[2] for c in cells) / 1e6,
            }
        ops = [r for r, (p, _) in enumerate(self.roots) if p == "op"]
        out["coverage"] = statistics.median(
            covered[r] / root_dur[r] for r in ops if root_dur[r] > 0
        ) if ops else 0.0
        return out

    def write(self, path: str) -> None:
        """JSON lines: a header, then one [id, parent, layer, phase, index,
        start_ns, duration_ns] row per span, starts relative to the first."""
        base = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"layers": list(LAYERS), "absent": self.absent}) + "\n")
            for sid, parent, layer, root, t0, t1 in self.spans:
                phase, index = self.roots[root]
                fh.write(json.dumps([sid, parent, layer, phase, index, t0 - base, t1 - t0]))
                fh.write("\n")
