"""Command line front end.

Verbs: ``simulate`` (deterministic scene to JSON), ``run`` (pipeline over a
scene file to a CSV report), ``bench`` (scaling benchmark to CSV and an
optional SVG chart), ``check`` (the full property suite).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import BenchConfig, bench_csv, bench_svg, run_bench
from .errors import NumericOverflowError, ValidationError
from .motion import MotionElimConfig
from .pipeline import (
    BOX_MODES,
    PipelineDims,
    PipelineWeights,
    load_weights,
    run_pipeline_detailed,
    run_report_csv,
)
from .scene import SceneConfig, build_scene, load_scene, save_scene, slot_count
from .selfcheck import run_all_checks

_EPILOG = """\
environment:
  STATEFUSE_SEED   default seed for configs that do not set one
                   (simulate and bench configs; must parse as an integer)

exit codes:
  0  success
  1  check: one or more properties failed
  2  bad usage
  3  validation failure (bad config, file, or argument value)
  4  numeric failure (overflow or non-finite values)
"""


def _env_seed() -> int | None:
    raw = os.environ.get("STATEFUSE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"STATEFUSE_SEED must be an integer, got {raw!r}")


def _load_config_dict(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    return raw


def _apply_env_seed(raw: dict) -> dict:
    seed = _env_seed()
    if seed is not None and "seed" not in raw:
        raw = dict(raw)
        raw["seed"] = seed
    return raw


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_simulate(args) -> int:
    raw = _apply_env_seed(_load_config_dict(args.config) if args.config else {})
    scene = build_scene(SceneConfig.from_dict(raw))
    save_scene(scene, args.out, args.features_blob)
    print(f"wrote {args.out}")
    if args.features_blob:
        print(f"wrote {args.features_blob}")
    return 0


def _parse_weights_arg(value: str, scene, box_mode: str) -> PipelineWeights:
    if value.startswith("seed:"):
        try:
            seed = int(value[len("seed:") :])
        except ValueError:
            raise ValidationError(f"weights seed must be an integer, got {value!r}")
        dims = PipelineDims(
            k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
        )
        return PipelineWeights.from_seed(seed, dims, box_mode)
    return load_weights(value)


def _cmd_run(args) -> int:
    scene = load_scene(args.scene)
    weights = _parse_weights_arg(args.weights, scene, args.box_mode)
    with np.errstate(over="ignore", invalid="ignore"):  # each stage checks its own output
        result = run_pipeline_detailed(
            scene.frames, scene.cameras, weights, MotionElimConfig(alpha=args.alpha)
        )
    _write_text(args.out, run_report_csv(result))
    survivors = result.motion_mask[:-1].sum(axis=1).tolist()
    print(
        f"wrote {args.out} ({len(result.detections)} detections, "
        f"past-frame survivors {survivors})"
    )
    return 0


def _cmd_bench(args) -> int:
    raw = _apply_env_seed(_load_config_dict(args.config) if args.config else {})
    rows = run_bench(BenchConfig.from_dict(raw))
    _write_text(args.out, bench_csv(rows))
    print(f"wrote {args.out}")
    if args.svg:
        _write_text(args.svg, bench_svg(rows))
        print(f"wrote {args.svg}")
    return 0


def _cmd_check(args) -> int:
    results = run_all_checks()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statefuse",
        description="State-space temporal fusion for multi-camera 3D object queries.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="generate a deterministic scene and write it as JSON",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", help="scene config JSON (defaults apply when omitted)")
    p.add_argument("--out", required=True, help="output scene JSON path")
    p.add_argument(
        "--features-blob",
        help="also write feature maps as a raw float32 blob next to the JSON",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "run",
        help="run the detection pipeline over a scene file",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--scene", required=True, help="scene JSON produced by simulate")
    p.add_argument(
        "--weights",
        required=True,
        help="weights file path, or seed:<u64> to derive weights for this scene",
    )
    p.add_argument(
        "--alpha",
        type=float,
        default=0.5,
        help="motion elimination distance threshold in meters (default 0.5)",
    )
    p.add_argument("--out", required=True, help="output CSV report path")
    p.add_argument(
        "--box-mode",
        choices=BOX_MODES,
        default="bypass",
        help="box head for seed-derived weights (default bypass)",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "bench",
        help="benchmark fusion mechanisms over sequence length",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", help="bench config JSON (defaults apply when omitted)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--svg", help="also write a log-log wall-time chart")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "check",
        help="run the full property suite (exit 0 iff all pass)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.set_defaults(func=_cmd_check)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericOverflowError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
