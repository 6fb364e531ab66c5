"""Command line verbs, exit codes, and byte-for-byte repeatability."""

import json
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from statefuse.cli import build_parser, cli_main

SCENE_CFG = {
    "n_frames": 3,
    "n_objects": 4,
    "n_cameras": 3,
    "image_size": [16, 24],
    "depth_mode": "exact",
}

BENCH_CFG = {"n_list": [16, 32], "repetitions": 3, "warmup": 0}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def simulate(tmp_path, name="scene.json", cfg=SCENE_CFG):
    cfg_path = write_json(tmp_path / "scene_cfg.json", cfg)
    out = tmp_path / name
    assert cli_main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    return out


# --- simulate ---

def test_simulate_writes_repeatable_scene(tmp_path):
    a = simulate(tmp_path, "a.json")
    b = simulate(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_with_blob(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", SCENE_CFG)
    out = tmp_path / "scene.json"
    blob = tmp_path / "scene.f32"
    code = cli_main(
        ["simulate", "--config", cfg_path, "--out", str(out), "--features-blob", str(blob)]
    )
    assert code == 0
    assert blob.stat().st_size > 0
    doc = json.loads(out.read_text())
    assert doc["features"]["path"] == "scene.f32"


def test_simulate_default_config(tmp_path):
    out = tmp_path / "scene.json"
    assert cli_main(["simulate", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["n_frames"] == 8


def test_simulate_missing_config_file(tmp_path):
    out = tmp_path / "scene.json"
    code = cli_main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
    assert code == 3


def test_simulate_invalid_config_value(tmp_path):
    cfg_path = write_json(tmp_path / "cfg.json", {"n_frames": 0})
    assert cli_main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s.json")]) == 3


# --- run ---

def test_run_repeatable_csv(tmp_path):
    scene = simulate(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    args = ["run", "--scene", str(scene), "--weights", "seed:11"]
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header.startswith("frame,object_slot,retained,")


def test_run_with_weights_file(tmp_path):
    from statefuse import PipelineDims, PipelineWeights, load_scene, save_weights, slot_count

    scene_path = simulate(tmp_path)
    scene = load_scene(str(scene_path))
    dims = PipelineDims(
        k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
    )
    wpath = tmp_path / "w.sfw"
    save_weights(PipelineWeights.from_seed(11, dims), str(wpath))
    out = tmp_path / "run.csv"
    code = cli_main(
        ["run", "--scene", str(scene_path), "--weights", str(wpath), "--out", str(out)]
    )
    assert code == 0
    seeded_out = tmp_path / "seeded.csv"
    assert cli_main(
        ["run", "--scene", str(scene_path), "--weights", "seed:11", "--out", str(seeded_out)]
    ) == 0
    assert out.read_bytes() == seeded_out.read_bytes()


def write_weights(tmp_path, edit, blob=None):
    """Seeded weights for k_queries=2 with an edited header (and blob)."""
    from statefuse import PipelineDims, PipelineWeights
    from statefuse.pipeline import weights_to_bytes

    raw = weights_to_bytes(PipelineWeights.from_seed(11, PipelineDims(k_queries=2)))
    header, seeded_blob = raw.split(b"\n", 1)
    doc = json.loads(header)
    edit(doc)
    path = tmp_path / "bad.sfw"
    blob = seeded_blob if blob is None else blob
    path.write_bytes(json.dumps(doc).encode("utf-8") + b"\n" + blob)
    return str(path)


def run_weights(tmp_path, capsys, weights_path):
    scene = simulate(tmp_path)
    capsys.readouterr()
    code = cli_main(
        ["run", "--scene", str(scene), "--weights", weights_path, "--out", str(tmp_path / "o.csv")]
    )
    return code, capsys.readouterr().err


@pytest.mark.parametrize("key", ["dims", "box_mode", "seed"])
def test_run_weights_header_missing_key(tmp_path, capsys, key):
    code, err = run_weights(tmp_path, capsys, write_weights(tmp_path, lambda h: h.pop(key)))
    assert code == 3
    assert err.startswith("error: ") and key in err
    assert len(err.splitlines()) == 1


def test_run_weights_non_integer_dimension(tmp_path, capsys):
    path = write_weights(tmp_path, lambda h: h["dims"].update(k_queries="two"))
    code, err = run_weights(tmp_path, capsys, path)
    assert code == 3
    assert "k_queries" in err and len(err.splitlines()) == 1


def test_run_weights_oversized_dims_refused_before_allocation(tmp_path, capsys):
    """A huge k_queries with a small blob is refused on the size check alone."""
    path = write_weights(tmp_path, lambda h: h["dims"].update(k_queries=1000000), b"\0" * 64)
    tracemalloc.start()
    try:
        code, err = run_weights(tmp_path, capsys, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert "dims require" in err and len(err.splitlines()) == 1
    assert peak < 16 * 2**20


def test_run_missing_scene(tmp_path):
    code = cli_main(
        ["run", "--scene", str(tmp_path / "nope.json"), "--weights", "seed:1",
         "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3


def test_run_rejects_feature_blob_dtype(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", SCENE_CFG)
    scene = tmp_path / "scene.json"
    args = ["simulate", "--config", cfg_path, "--out", str(scene)]
    assert cli_main(args + ["--features-blob", str(tmp_path / "scene.f32")]) == 0
    doc = json.loads(scene.read_text())
    doc["features"]["dtype"] = "|O"
    write_json(scene, doc)
    code = cli_main(
        ["run", "--scene", str(scene), "--weights", "seed:1", "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "dtype" in err and len(err.splitlines()) == 1


def first_proposal(doc):
    """The first proposal of frame 0, as an object in the document."""
    return next(cam for cam in doc["frames"][0]["proposals"] if cam)[0]


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda d: d["frames"][0].pop("timestamp"), "frames[0].timestamp: missing"),
        (lambda d: first_proposal(d).pop("box"), "].box: missing"),
        (lambda d: d["frames"][0].update(world_from_ego="x"), "frames[0]: world_from_ego:"),
        (lambda d: d["config"].update(n_frames="eight"), "config: n_frames: expected"),
        (lambda d: first_proposal(d).update(category=[1]), "].category: expected an integer"),
        (lambda d: d["cameras"].__setitem__(0, "front"), "cameras[0]: expected an object"),
        (lambda d: d.pop("frames"), "frames: missing"),
        (lambda d: d["frames"][0].update(proposals=5), "frames[0].proposals: expected an array"),
        (lambda d: d["features"].pop("shape"), "features.shape: missing"),
        (lambda d: d["frames"][0].update(frame_index=-1), "frames[0].frame_index: expected"),
        (lambda d: d["frames"][0].update(frame_index=99), "frames[0].frame_index: expected"),
        (lambda d: d["features"].update(shape=[3, 3, 24, 16, 8]), "features.shape: the config"),
        (lambda d: d["cameras"][1]["extrinsic"][0].__setitem__(0, 1e300), "cameras[1]: extrinsic"),
        (lambda d: d["tracks"][0].update(velocity=[1e300, 0, 0]), "tracks[0]: is_static"),
        (lambda d: d["frames"][1].update(timestamp="0.5"), "frames[1]: timestamp: expected"),
        (lambda d: d["frames"][1].update(timestamp=True), "frames[1]: timestamp: expected"),
        (lambda d: d["tracks"][0].update(is_static="no"), "tracks[0]: is_static: expected"),
        (lambda d: d["tracks"][0].update(object_id="3"), "tracks[0]: object_id: expected"),
        (lambda d: d["tracks"][0].update(category=1.7), "tracks[0]: category: expected"),
    ],
    ids=[
        "no_timestamp", "no_box", "world_from_ego_string", "n_frames_string",
        "category_list", "camera_string", "no_frames", "proposals_number", "blob_without_shape",
        "frame_index_negative", "frame_index_past_end", "blob_shape_transposed",
        "extrinsic_overflows", "velocity_overflows", "timestamp_string", "timestamp_bool",
        "is_static_string", "object_id_string", "category_float",
    ],
)
def test_run_malformed_scene_names_the_json_path(tmp_path, capsys, edit, path):
    """Each malformed document exits 3 with one line naming the bad value,
    and no numpy warning."""
    cfg_path = write_json(tmp_path / "cfg.json", SCENE_CFG)
    scene = tmp_path / "scene.json"
    args = ["simulate", "--config", cfg_path, "--out", str(scene)]
    assert cli_main(args + ["--features-blob", str(tmp_path / "scene.f32")]) == 0
    doc = json.loads(scene.read_text())
    edit(doc)
    write_json(scene, doc)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(
            ["run", "--scene", str(scene), "--weights", "seed:1", "--out", str(tmp_path / "o.csv")]
        )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and path in err and len(err.splitlines()) == 1


def unstable_weights(layer):
    """A writer of seeded weights for the scene, with 1.5 as the first
    a_bar value of the given fusion layer."""

    def write(tmp_path, scene_path):
        from statefuse import PipelineDims, PipelineWeights, load_scene, slot_count
        from statefuse.pipeline import weights_to_bytes

        scene = load_scene(str(scene_path))
        dims = PipelineDims(
            k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
        )
        w = PipelineWeights.from_seed(11, dims)
        raw = weights_to_bytes(w)
        a_bar = w.stack.layers[layer].gs4.bank.a_bar.astype("<f8").tobytes()
        assert raw.count(a_bar) == dims.n_layers  # every seeded layer has this bank
        at = -1
        for _ in range(layer + 1):  # the layers are stored in order
            at = raw.index(a_bar, at + 1)
        path = tmp_path / "w.sfw"
        path.write_bytes(raw[:at] + struct.pack("<d", 1.5) + raw[at + 8 :])
        return str(path)

    return write


@pytest.mark.parametrize(
    "scene_edit, weights, message",
    [
        (lambda d: d["tracks"][0]["size"].__setitem__(0, 0),
         lambda tmp_path, scene: "seed:1", "tracks[0]: size: expected a float > 0, got 0.0"),
        (lambda d: None, unstable_weights(0),
         "stack.layers[0].gs4.bank.a_bar: expected a float >= -1 and <= 1, got 1.5"),
        (lambda d: None, unstable_weights(3),
         "stack.layers[3].gs4.bank.a_bar: expected a float >= -1 and <= 1, got 1.5"),
    ],
    ids=["track_size_zero", "a_bar_above_one", "layer_3_a_bar_above_one"],
)
def test_run_refuses_an_element_out_of_its_bound(tmp_path, capsys, scene_edit, weights, message):
    """An array element outside its declared bound exits 3 with one line
    that names the field, by its path inside a weights file."""
    scene = simulate(tmp_path)
    doc = json.loads(scene.read_text())
    scene_edit(doc)
    write_json(scene, doc)
    weights_arg = weights(tmp_path, scene)
    capsys.readouterr()
    code = cli_main(
        ["run", "--scene", str(scene), "--weights", weights_arg, "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_config_value_of_wrong_type(tmp_path, capsys):
    cfg_path = write_json(tmp_path / "cfg.json", {"n_frames": "eight"})
    code = cli_main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "s.json")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: n_frames: expected") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"k": "4"}, "k: expected"),
        ({"k": 2.7}, "k: expected"),
        ({"mechanism": 1}, "mechanism: expected"),
        ({"n_list": [8, "16", 32]}, "n_list: expected"),
        ({"n_list": 64}, "n_list: expected"),
        ({"n_list": "64"}, "n_list: expected"),
        ({"k": None}, "k: expected"),
        ({"warmup": "x"}, "warmup: expected"),
        ({"seed": -1}, "seed: expected an int >= 0, got -1"),
    ],
)
def test_bench_config_value_of_wrong_kind(tmp_path, capsys, edit, message):
    """Exit 3 with one line that names the field, before anything runs."""
    cfg_path = write_json(tmp_path / "bench.json", {**BENCH_CFG, **edit})
    code = cli_main(["bench", "--config", cfg_path, "--out", str(tmp_path / "b.csv")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("key, value", [("dtype", "float32"), ("measure_memory", True)])
def test_bench_config_refuses_the_removed_modes(tmp_path, capsys, key, value):
    """The float32 and tracemalloc modes are gone: their keys are unknown."""
    cfg_path = write_json(tmp_path / "bench.json", {**BENCH_CFG, key: value})
    code = cli_main(["bench", "--config", cfg_path, "--out", str(tmp_path / "b.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"error: unknown BenchConfig keys: ['{key}']\n"
    assert not (tmp_path / "b.csv").exists()


def test_env_seed_below_zero_is_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STATEFUSE_SEED", "-1")
    cfg_path = write_json(tmp_path / "bench.json", BENCH_CFG)
    code = cli_main(["bench", "--config", cfg_path, "--out", str(tmp_path / "b.csv")])
    assert code == 3
    assert capsys.readouterr().err == "error: seed: expected an int >= 0, got -1\n"


def test_simulate_non_finite_config_value_names_the_key(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text('{"camera_height": NaN}', encoding="utf-8")
    code = cli_main(
        ["simulate", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "s.json")]
    )
    assert code == 3
    assert capsys.readouterr().err == "error: camera_height: expected a value like 1.5, got nan\n"


def test_run_box_head_overflow_is_numeric(tmp_path, capsys):
    """A box head whose size logits overflow exp exits 4, naming the stage."""
    import dataclasses

    from statefuse import PipelineDims, PipelineWeights, load_scene, save_weights, slot_count

    scene_path = simulate(tmp_path)
    scene = load_scene(str(scene_path))
    dims = PipelineDims(
        k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
    )
    w = PipelineWeights.from_seed(11, dims, "linear")
    box_w, box_b = np.array(w.box_w), np.array(w.box_b)
    box_w[:, 3], box_b[3] = 0.0, 1e3  # exp(1000) overflows for every slot
    wpath = tmp_path / "w.sfw"
    save_weights(dataclasses.replace(w, box_w=box_w, box_b=box_b), str(wpath))
    capsys.readouterr()
    code = cli_main(
        ["run", "--scene", str(scene_path), "--weights", str(wpath),
         "--out", str(tmp_path / "o.csv")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("numeric error: ") and "box_head" in err
    assert len(err.splitlines()) == 1


def test_run_query_construction_overflow_is_numeric(tmp_path, capsys):
    """Deformable-attention projections that overflow exit 4 with one line
    naming the query stage, and no floating-point warning."""
    import dataclasses

    from statefuse import PipelineDims, PipelineWeights, load_scene, save_weights, slot_count

    scene_path = simulate(tmp_path)
    scene = load_scene(str(scene_path))
    dims = PipelineDims(
        k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
    )
    w = PipelineWeights.from_seed(11, dims)
    huge = {name: np.full(getattr(w.attn, name).shape, 1e308)
            for name in ("value_proj", "out_proj")}
    wpath = tmp_path / "w.sfw"
    save_weights(dataclasses.replace(w, attn=dataclasses.replace(w.attn, **huge)), str(wpath))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli_main(
            ["run", "--scene", str(scene_path), "--weights", str(wpath),
             "--out", str(tmp_path / "o.csv")]
        )
    assert code == 4
    assert capsys.readouterr().err == (
        "numeric error: stage query construction: non-finite values\n"
    )


def test_run_box_head_score_underflow_is_quiet(tmp_path, capsys):
    """A very negative score logit saturates the score to 0.0 without a
    warning; the report, which lists proposal scores, is unchanged."""
    import dataclasses

    from statefuse import PipelineDims, PipelineWeights, load_scene, save_weights, slot_count

    scene_path = simulate(tmp_path, cfg={})
    scene = load_scene(str(scene_path))
    dims = PipelineDims(
        k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
    )
    w = PipelineWeights.from_seed(11, dims, "linear")
    box_b = np.array(w.box_b)
    box_b[9] = -1e3  # exp(1000) overflows for every slot
    reports = []
    for name, weights in (("plain", w), ("low", dataclasses.replace(w, box_b=box_b))):
        wpath = tmp_path / f"{name}.sfw"
        save_weights(weights, str(wpath))
        out = tmp_path / f"{name}.csv"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(
                ["run", "--scene", str(scene_path), "--weights", str(wpath), "--out", str(out)]
            )
        assert code == 0
        assert capsys.readouterr().err == ""
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_run_bad_seed_argument(tmp_path):
    scene = simulate(tmp_path)
    code = cli_main(
        ["run", "--scene", str(scene), "--weights", "seed:banana",
         "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3


@pytest.mark.parametrize("value", ["seed:-1", f"seed:{2**64}"])
def test_run_seed_out_of_range(tmp_path, capsys, value):
    """The range is checked by ``PipelineWeights.from_seed``, not by the CLI."""
    scene = simulate(tmp_path)
    capsys.readouterr()
    code = cli_main(
        ["run", "--scene", str(scene), "--weights", value, "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        f"error: seed: expected an int >= 0 and < {2**64}, got {value[5:]}\n"
    )


# --- bench ---

def test_bench_writes_csv_and_svg(tmp_path):
    cfg_path = write_json(tmp_path / "bench.json", BENCH_CFG)
    out = tmp_path / "bench.csv"
    svg = tmp_path / "bench.svg"
    code = cli_main(
        ["bench", "--config", cfg_path, "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    lines = out.read_text().split("\n")
    assert lines[0] == (
        "mechanism,n,k,d,m,wall_nanos,peak_bytes,op_count,timer_ok"
    )
    assert len(lines) == 2 + 4
    assert svg.read_text().startswith("<svg")


def test_bench_stable_columns_repeatable(tmp_path):
    cfg_path = write_json(tmp_path / "bench.json", BENCH_CFG)
    outs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert cli_main(["bench", "--config", cfg_path, "--out", str(out)]) == 0
        outs.append(out.read_text())

    def stable(text):
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        return [(r[0], r[1], r[2], r[3], r[4], r[6], r[7]) for r in rows]

    assert stable(outs[0]) == stable(outs[1])


# --- env seed ---

def test_env_seed_fills_missing_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("STATEFUSE_SEED", "42")
    out = tmp_path / "scene.json"
    assert cli_main(["simulate", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 42


def test_env_seed_does_not_override_explicit(tmp_path, monkeypatch):
    monkeypatch.setenv("STATEFUSE_SEED", "42")
    cfg_path = write_json(tmp_path / "cfg.json", dict(SCENE_CFG, seed=7))
    out = tmp_path / "scene.json"
    assert cli_main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["seed"] == 7


def test_env_seed_must_be_integer(tmp_path, monkeypatch):
    monkeypatch.setenv("STATEFUSE_SEED", "not-a-number")
    assert cli_main(["simulate", "--out", str(tmp_path / "s.json")]) == 3


# --- usage and help ---

def test_bad_usage_exit_code():
    assert cli_main(["bench"]) == 2  # missing required --out
    assert cli_main(["no-such-verb"]) == 2
    assert cli_main(["run", "--unknown-flag"]) == 2


def test_help_mentions_env_and_exit_codes(capsys):
    assert cli_main(["--help"]) == 0
    text = capsys.readouterr().out
    assert "STATEFUSE_SEED" in text
    assert "exit codes" in text


def test_python_dash_m_runs_the_cli():
    """``python -m statefuse`` is the ``statefuse`` command."""
    import os
    import subprocess
    import sys

    import statefuse

    src = os.path.dirname(os.path.dirname(statefuse.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "statefuse", "--help"], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: statefuse ")


def test_parser_lists_all_verbs():
    parser = build_parser()
    text = parser.format_help()
    for verb in ("simulate", "run", "bench", "check"):
        assert verb in text


# --- check ---

def test_check_passes(capsys):
    assert cli_main(["check"]) == 0
    out = capsys.readouterr().out
    assert "11/11 checks passed" in out
    assert out.count("PASS") == 11


def test_check_reports_a_failing_criterion_and_exits_1(capsys, monkeypatch):
    """A motion mask that retains every slot fails criterion 08 alone: the
    verb prints its one FAIL line among ten PASS lines and exits 1."""
    from statefuse import selfcheck

    monkeypatch.setattr(
        selfcheck, "motion_mask", lambda cost, *args: np.ones(cost.shape[:2], dtype=np.int8)
    )
    assert cli_main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12 and lines[-1] == "10/11 checks passed"
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL motion_mask_oracle: mask differs from brute force at trial 0"
    ]
