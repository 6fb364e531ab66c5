"""The benchmark still reads the library: its tracer finds every function it
binds to, and its workloads pass their stored reference checks.

A binding whose function was renamed or deleted lands in ``Tracer.absent``,
and its span silently disappears from traced runs.  A frame format the
workloads cannot read fails their check set.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """Load ``perfbench/<name>.py`` by path, writing no bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load_tracing(monkeypatch):
    return load_perfbench(monkeypatch, "tracing")


@pytest.mark.parametrize("name", ["offline_wide", "stream_window", "history_fusion"])
def test_workload_check_set_matches_refs(monkeypatch, tmp_path, name):
    """The check set of a workload passes against ``refs.json``, after the
    set-up ``run.py`` makes."""
    run = load_perfbench(monkeypatch, "run")
    workloads = load_perfbench(monkeypatch, "workloads")
    wl = workloads.WORKLOADS[name](run.DEFAULT_SEED, str(tmp_path))
    wl.simulate()
    wl.setup()
    bench = run.Run(wl, run.DEFAULT_SEED, run.load_refs(), workloads.compare)
    assert bench.check_set() == (3, 3)
    assert bench.problems == []


def test_every_traced_binding_resolves(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.BINDINGS
    missing = [
        (layer, module, path)
        for layer, module, path in tracing.BINDINGS
        if tracing._resolve(module, path) is None
    ]
    assert missing == []
    assert tracing._resolve("statefuse.fusion", "no_such_function") is None


# Bound but not called on the real path: the stack has run its layers
# through one tiled pass since the row-tiled rewrite, and query_mamba_block
# is only a one-layer entry point.  Re-binding or dropping it is part of
# the benchmark change in ROADMAP item 1.
UNCALLED = {"fusion.query_mamba_block"}
MOTION_LAYERS = (
    "geometry.align_centers",
    "motion.motion_cost",
    "motion.motion_mask",
    "motion.apply_motion_mask",
)


def test_every_op_binding_records_a_span(monkeypatch):
    """A traced pipeline pass, its report and a multi-tile stack call reach
    every op-phase binding; each pass runs the motion stage exactly once."""
    import numpy as np

    import statefuse.fusion as fusion
    import statefuse.pipeline as pipeline
    from statefuse import (
        FusedQuerySequence,
        PipelineDims,
        PipelineWeights,
        SceneConfig,
        build_scene,
        slot_count,
    )

    def scene_and_weights(n_frames):
        cfg = SceneConfig(n_frames=n_frames, n_objects=4, n_cameras=3, image_size=(16, 24))
        scene = build_scene(cfg)
        k = slot_count(scene.frames)
        dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
        return scene, PipelineWeights.from_seed(5, dims)

    tracing = load_tracing(monkeypatch)
    windows = [scene_and_weights(3), scene_and_weights(1)]  # a one-frame window has no past
    n = 3 * 128 + 5
    data = np.random.default_rng(3).standard_normal((n, 8))
    rows = FusedQuerySequence(data, tuple(range(n)), 2, 4)
    stack = fusion.seeded_stack(8, 7, n_layers=2)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for index, (scene, w) in enumerate(windows):
            tracer.begin("op", index)
            result = pipeline.run_pipeline_detailed(scene.frames, scene.cameras, w)
            pipeline.run_report_csv(result)
            tracer.end()
        tracer.begin("op", 2)
        fusion.query_mamba_stack(rows, stack)
        tracer.end()
    finally:
        tracer.uninstall()

    assert tracer.absent == []
    table, _, _ = tracer.per_root()
    seen = {layer for cells in table.values() for layer in cells}
    op_layers = set(tracing.LAYERS) - set(tracing.SETUP_LAYERS)
    assert op_layers - seen == UNCALLED
    for root in (0, 1):
        calls = {layer: table[root][layer][1] for layer in MOTION_LAYERS}
        assert calls == dict.fromkeys(MOTION_LAYERS, 1)


def test_every_setup_binding_records_a_span(monkeypatch, tmp_path):
    """A traced set-up, as ``statefuse run --weights seed:N`` pays it (a scene
    document without a feature blob, then seeded weights), reaches every
    set-up binding."""
    import statefuse.pipeline as pipeline
    import statefuse.scene as scene
    from statefuse import PipelineDims, SceneConfig, build_scene, save_scene, slot_count

    cfg = SceneConfig(n_frames=2, n_objects=4, n_cameras=3, image_size=(16, 24))
    doc = tmp_path / "scene.json"
    save_scene(build_scene(cfg), str(doc))

    tracing = load_tracing(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin("setup", 0)
        loaded = scene.load_scene(str(doc))
        k = slot_count(loaded.frames)
        dims = PipelineDims(k_queries=k, feature_channels=cfg.feature_channels)
        pipeline.PipelineWeights.from_seed(5, dims)
        tracer.end()
    finally:
        tracer.uninstall()

    assert tracer.absent == []
    table, _, _ = tracer.per_root()
    assert set(tracing.SETUP_LAYERS) <= set(table[0])
    assert table[0]["ssm.seeded_bank"][1] == dims.n_layers
