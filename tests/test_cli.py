"""Command line verbs, exit codes, and byte-for-byte repeatability."""

import json
import tracemalloc

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
    from statefuse import PipelineDims, PipelineWeights, load_scene, save_weights

    scene_path = simulate(tmp_path)
    scene = load_scene(str(scene_path))
    k = max(sum(len(p) for p in fr.proposals) for fr in scene.frames)
    dims = PipelineDims(k_queries=k, feature_channels=scene.config.feature_channels)
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


def test_run_bad_seed_argument(tmp_path):
    scene = simulate(tmp_path)
    code = cli_main(
        ["run", "--scene", str(scene), "--weights", "seed:banana",
         "--out", str(tmp_path / "o.csv")]
    )
    assert code == 3


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
        "mechanism,n,k,d,m,wall_nanos,peak_bytes,peak_bytes_source,op_count,timer_ok"
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
        return [(r[0], r[1], r[2], r[3], r[4], r[6], r[7], r[8]) for r in rows]

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
