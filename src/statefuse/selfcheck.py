"""Self-contained verification suite for the package's core guarantees.

Each check re-derives its expected answer independently (brute-force
references, closed-form constructions, exact integer arithmetic) and
returns a :class:`CheckResult` with a measured detail string.  The same
checks back both the test suite and the ``check`` command line verb.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .bench import BenchConfig, BenchRow, fit_loglog_slope, run_bench
from .fusion import FusedQuerySequence, query_mamba_block, query_mamba_stack, zero_layer_params, zero_stack
from .geometry import CameraModel, EgoPose, align_centers, lift_center, project_point
from .motion import MotionElimConfig, motion_cost, motion_mask
from .pipeline import (
    Detection,
    PipelineDims,
    PipelineWeights,
    op_count_cross_attention,
    op_count_ssm,
    run_pipeline_detailed,
    run_report_csv,
    weights_from_bytes,
    weights_to_bytes,
)
from .queries import default_depth_bins
from .scene import (
    SceneConfig, build_scene, camera_ring, feature_blob_bytes, scene_dumps, slot_count,
)
from .ssm import DiscreteSsmBank, apply_convolution, discretize_zoh, materialize_kernel, scan_bank

SCAN_LENGTHS = tuple(2 ** i for i in range(9))  # 1 .. 256
FFT_LENGTHS = (1, 2, 3, 5, 16, 100, 777, 1024, 2048, 4096)
SLOPE_N_LIST = (64, 128, 256, 512, 1024, 2048)

ACCEPT_SCENE = SceneConfig(depth_mode="exact")
ACCEPT_WEIGHT_SEED = 11


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Normwise relative error: ||got - want||_inf / max(||want||_inf, tiny)."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def _random_stable_channel(rng) -> DiscreteSsmBank:
    """A 16-state stable system discretized at a random step, as a width-1 bank."""
    m = 16
    a = -rng.uniform(0.01, 5.0, size=(1, m))
    b = rng.uniform(-1.0, 1.0, size=(1, m))
    c = rng.uniform(-1.0, 1.0, size=(1, m))
    d = rng.uniform(-0.5, 0.5, size=1)
    a_bar, b_bar = discretize_zoh(a, b, float(rng.uniform(0.01, 0.5)))
    return DiscreteSsmBank(a_bar, b_bar, c, d)


def _scan(bank: DiscreteSsmBank, x: np.ndarray) -> np.ndarray:
    """Scan a 1-d sequence through a width-1 bank."""
    return scan_bank(bank, x[:, None])[:, 0]


def check_scan_kernel_equivalence() -> CheckResult:
    """Recurrent scan and materialized-kernel convolution must coincide."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        bank = _random_stable_channel(rng)
        for n in SCAN_LENGTHS:
            x = rng.standard_normal(n)
            via_conv = apply_convolution(materialize_kernel(bank, n)[0], bank.d_bar[0], x)
            worst = max(worst, _rel_err(via_conv, _scan(bank, x)))
    return CheckResult(
        name="scan_kernel_equivalence",
        passed=worst <= 1e-9,
        detail=f"max rel err {worst:.3e} over 200 systems x lengths {{1..256}} (tol 1e-9)",
    )


def check_fft_direct_agreement() -> CheckResult:
    """FFT convolution must match the direct form on identical inputs."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for n in FFT_LENGTHS:
        bank = _random_stable_channel(rng)
        taps = materialize_kernel(bank, n)[0]
        x = rng.standard_normal(n)
        direct = apply_convolution(taps, bank.d_bar[0], x, mode="direct")
        fft = apply_convolution(taps, bank.d_bar[0], x, mode="fft")
        worst = max(worst, _rel_err(fft, direct))
    return CheckResult(
        name="fft_direct_agreement",
        passed=worst <= 1e-9,
        detail=f"max rel err {worst:.3e} over lengths up to 4096 (tol 1e-9)",
    )


def check_ssm_linearity() -> CheckResult:
    """Superposition: y(a*x1 + b*x2) = a*y(x1) + b*y(x2)."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        bank = _random_stable_channel(rng)
        n = int(rng.integers(1, 128))
        x1 = rng.standard_normal(n)
        x2 = rng.standard_normal(n)
        a, b = rng.uniform(-3.0, 3.0, size=2)
        combined = _scan(bank, a * x1 + b * x2)
        split = a * _scan(bank, x1) + b * _scan(bank, x2)
        worst = max(worst, _rel_err(combined, split))
    return CheckResult(
        name="ssm_linearity",
        passed=worst <= 1e-9,
        detail=f"max rel err {worst:.3e} over 100 systems (tol 1e-9)",
    )


def check_op_count_formulas() -> CheckResult:
    """Integer-exact formulas plus the strictly-decreasing cost ratio."""
    grid = (1, 2, 4, 8, 16)
    m = 16
    for n in grid:
        for k in grid:
            for d in grid:
                want_cross = 4 * n * (k * d) ** 2 + 2 * n * n * k * d
                want_ssm = 3 * n * (2 * d) * m + n * (2 * k * d) * m
                if op_count_cross_attention(n, k, d) != want_cross:
                    return CheckResult(
                        "op_count_formulas",
                        False,
                        f"cross-attention count wrong at (n={n}, k={k}, d={d})",
                    )
                if op_count_ssm(n, k, d, m) != want_ssm:
                    return CheckResult(
                        "op_count_formulas",
                        False,
                        f"ssm count wrong at (n={n}, k={k}, d={d})",
                    )
    k, d = 64, 32
    ssm = [op_count_ssm(n, k, d, m) for n in range(1, 4097)]
    cross = [op_count_cross_attention(n, k, d) for n in range(1, 4097)]
    # exact rational comparison: ratio ssm/cross strictly decreasing in N
    for i in range(len(ssm) - 1):
        if ssm[i + 1] * cross[i] >= ssm[i] * cross[i + 1]:
            return CheckResult(
                "op_count_formulas",
                False,
                f"cost ratio not strictly decreasing at N={i + 1} (K=64, D=32)",
            )
    n_star = next((n for n in range(1, 4097) if ssm[n - 1] < cross[n - 1]), None)
    if n_star is None or any(ssm[n - 1] >= cross[n - 1] for n in range(n_star, 4097)):
        return CheckResult(
            "op_count_formulas", False, "no stable crossover found for K=64, D=32"
        )
    return CheckResult(
        "op_count_formulas",
        True,
        f"exact on the 5x5x5 grid; ratio strictly decreasing, crossover at N={n_star}",
    )


def check_empirical_scaling() -> CheckResult:
    """Measured wall-time slopes and the affine memory model."""
    cfg = BenchConfig(n_list=SLOPE_N_LIST, mechanism="both")
    rows = run_bench(cfg)
    by_mech = {
        mech: sorted((r for r in rows if r.mechanism == mech), key=lambda r: r.n)
        for mech in ("ssm", "cross_attention")
    }
    slopes = {
        mech: fit_loglog_slope(
            [r.n for r in series], [max(r.wall_nanos, 1) for r in series]
        )
        for mech, series in by_mech.items()
    }
    problems = []
    if not (0.7 <= slopes["ssm"] <= 1.3):
        problems.append(f"ssm slope {slopes['ssm']:.3f} outside [0.7, 1.3]")
    if slopes["cross_attention"] < 1.7:
        problems.append(f"cross-attention slope {slopes['cross_attention']:.3f} < 1.7")
    if any(not r.timer_ok for r in rows):
        problems.append("timer resolution too coarse for a reliable median")
    # affine check by exact cross-multiplication on the analytic byte rows
    ssm_rows = by_mech["ssm"]
    n0, b0 = ssm_rows[0].n, ssm_rows[0].peak_bytes
    n1, b1 = ssm_rows[1].n, ssm_rows[1].peak_bytes
    for r in ssm_rows[2:]:
        if (r.peak_bytes - b0) * (n1 - n0) != (b1 - b0) * (r.n - n0):
            problems.append(f"ssm peak bytes not affine in N at N={r.n}")
            break
    detail = (
        f"ssm slope {slopes['ssm']:.3f} (want [0.7, 1.3]), "
        f"cross-attention slope {slopes['cross_attention']:.3f} (want >= 1.7), "
        f"ssm bytes affine"
    )
    if problems:
        detail = "; ".join(problems)
    return CheckResult("empirical_scaling", not problems, detail)


def check_geometry_roundtrip() -> CheckResult:
    """Project then lift must return the original point; identity case exact."""
    cams = camera_ring(6)
    rng = np.random.default_rng(404)
    per_cam = 16_667  # 6 cameras x 16667 > 1e5 points
    worst = 0.0
    for cam in cams:
        # sample in the camera frame so every point is in front of the lens
        depth = rng.uniform(0.5, 80.0, size=per_cam)
        u = rng.uniform(0.0, 1.0, size=per_cam)
        v = rng.uniform(0.0, 1.0, size=per_cam)
        pts = lift_center(cam, np.stack([u, v], axis=-1), depth)
        u2, v2, d2 = project_point(cam, pts)
        back = lift_center(cam, np.stack([u2, v2], axis=-1), d2)
        worst = max(worst, float(np.max(np.abs(back - pts))))
        worst = max(
            worst,
            float(np.max(np.abs(u2 - u))),
            float(np.max(np.abs(v2 - v))),
            float(np.max(np.abs(d2 - depth))),
        )
    if worst > 1e-9:
        return CheckResult(
            "geometry_roundtrip", False, f"round-trip error {worst:.3e} > 1e-9"
        )
    # identity camera (unit intrinsics, extrinsic = I): ((0.5, 0.25), 10) -> (5, 2.5, 10)
    ident = CameraModel(np.eye(3), np.eye(4), camera_id=0)
    got = lift_center(ident, (0.5, 0.25), 10.0)
    want = np.array([5.0, 2.5, 10.0])
    ident_err = float(np.max(np.abs(got - want)))
    passed = ident_err <= 1e-12
    return CheckResult(
        "geometry_roundtrip",
        passed,
        f"round-trip err {worst:.3e} over 1e5 points (tol 1e-9); "
        f"identity case err {ident_err:.3e} (tol 1e-12)",
    )


def _random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 2] = -q[:, 2]
    return q


def _random_pose(rng, t: float) -> EgoPose:
    m = np.eye(4)
    m[:3, :3] = _random_rotation(rng)
    m[:3, 3] = rng.uniform(-50.0, 50.0, size=3)
    return EgoPose(m, t)


def check_ego_alignment() -> CheckResult:
    """World-static points align onto their current-ego positions."""
    rng = np.random.default_rng(505)
    worst_pos = 0.0
    worst_dist = 0.0
    for _ in range(100):
        pose_past = _random_pose(rng, 0.0)
        pose_now = _random_pose(rng, float(rng.uniform(0.1, 5.0)))
        world = rng.uniform(-100.0, 100.0, size=(20, 3))

        def to_ego(pose, pts):
            r = pose.world_from_ego[:3, :3]
            t = pose.world_from_ego[:3, 3]
            return (pts - t) @ r

        in_past = to_ego(pose_past, world)
        in_now = to_ego(pose_now, world)
        aligned = align_centers(in_past[None], pose_now, [pose_past])[0]
        worst_pos = max(worst_pos, float(np.max(np.abs(aligned - in_now))))
        before = np.linalg.norm(in_past[:, None] - in_past[None, :], axis=-1)
        after = np.linalg.norm(aligned[:, None] - aligned[None, :], axis=-1)
        worst_dist = max(worst_dist, float(np.max(np.abs(after - before))))
    passed = worst_pos <= 1e-9 and worst_dist <= 1e-9
    return CheckResult(
        "ego_alignment",
        passed,
        f"max position err {worst_pos:.3e}, max pairwise-distance drift "
        f"{worst_dist:.3e} over 100 trajectories (tol 1e-9)",
    )


def _brute_force_mask(cost, cats_cur, cats_past, valid_cur, valid_past, cfg):
    k = cost.shape[0]
    out = np.ones(k, dtype=np.int8)
    for n in range(k):
        if not valid_past[n]:
            out[n] = 0
            continue
        for m in range(k):
            if not valid_cur[m]:
                continue
            if cost[m, n] > cfg.alpha:
                continue
            if cats_cur[m] != cats_past[n]:
                continue
            out[n] = 0
            break
    return out


def check_motion_mask_oracle() -> CheckResult:
    """Mask equals a brute-force existence check; monotone in alpha."""
    rng = np.random.default_rng(606)
    for trial in range(1000):
        k = int(rng.integers(1, 9))
        cur = rng.uniform(-10.0, 10.0, size=(k, 3))
        past = rng.uniform(-10.0, 10.0, size=(k, 3))
        valid = rng.random((k, 2)) < 0.8
        cats_cur = rng.integers(0, 3, size=k)
        cats_past = rng.integers(0, 3, size=k)
        cfg = MotionElimConfig(alpha=float(rng.uniform(0.0, 15.0)))
        past_valid = valid[None, :, 1]
        cost = motion_cost(cur, past[None], valid[:, 0], past_valid)
        got = motion_mask(cost, cats_cur, cats_past[None], past_valid, cfg)[0]
        want = _brute_force_mask(
            cost[0], cats_cur, cats_past, valid[:, 0], valid[:, 1], cfg
        )
        if not np.array_equal(got, want):
            return CheckResult(
                "motion_mask_oracle", False, f"mask differs from brute force at trial {trial}"
            )
    for trial in range(100):
        k = int(rng.integers(1, 9))
        cur = rng.uniform(-10.0, 10.0, size=(k, 3))
        past = rng.uniform(-10.0, 10.0, size=(k, 3))
        valid = np.ones((k, 2), dtype=bool)
        cats = rng.integers(0, 3, size=k)
        cost = motion_cost(cur, past[None], valid[:, 0], valid[None, :, 1])
        alphas = np.sort(rng.uniform(0.0, 20.0, size=4))
        prev = None
        for alpha in alphas:
            mask = motion_mask(
                cost, cats, cats[None], valid[None, :, 1], MotionElimConfig(alpha=float(alpha))
            )[0]
            if prev is not None and np.any(mask > prev):
                return CheckResult(
                    "motion_mask_oracle",
                    False,
                    f"retention grew when alpha increased at trial {trial}",
                )
            prev = mask
    return CheckResult(
        "motion_mask_oracle",
        True,
        "exact match with brute force on 1000 frames; monotone in alpha on 100",
    )


def _scene_preconditions(scene, alpha: float):
    """The margins the zero-noise scene must satisfy for an exact oracle."""
    cfg = scene.config
    bins = default_depth_bins()
    n = cfg.n_objects
    for fr in scene.frames:
        seen = {i for ids in fr.proposal_object_ids for i in ids}
        if seen != set(range(n)):
            return f"frame {fr.frame_index}: objects {sorted(set(range(n)) - seen)} invisible"
    for fr in scene.frames:
        for cam_id, ids in enumerate(fr.proposal_object_ids):
            if not ids:
                continue
            _, _, depth = project_point(
                scene.cameras[cam_id], fr.object_centers[list(ids)]
            )
            if np.any(depth <= bins[0]) or np.any(depth >= bins[-1]):
                return f"frame {fr.frame_index}: a depth leaves ({bins[0]}, {bins[-1]})"
    now = scene.frames[-1]
    cats = now.object_categories
    for fr in scene.frames[:-1]:
        for i in range(n):
            if now.static_labels[i]:
                continue
            past_world = scene.tracks[i].position_at(fr.ego_pose.timestamp)
            for j in range(n):
                if cats[j] != cats[i]:
                    continue
                now_world = scene.tracks[j].position_at(now.ego_pose.timestamp)
                if float(np.linalg.norm(now_world - past_world)) <= alpha + 0.05:
                    return (
                        f"frame {fr.frame_index}: moving object {i} sits within "
                        f"alpha of object {j} in the current frame"
                    )
    return None


def _accept_run():
    scene = build_scene(ACCEPT_SCENE)
    dims = PipelineDims(
        k_queries=slot_count(scene.frames), feature_channels=scene.config.feature_channels
    )
    w = PipelineWeights.from_seed(ACCEPT_WEIGHT_SEED, dims, "bypass")
    return scene, run_pipeline_detailed(scene.frames, scene.cameras, w)


def check_end_to_end_geometry() -> CheckResult:
    """Zero-noise scene through the bypass head recovers exact geometry."""
    cfg = MotionElimConfig()
    scene = build_scene(ACCEPT_SCENE)
    why = _scene_preconditions(scene, cfg.alpha)
    if why is not None:
        return CheckResult(
            "end_to_end_geometry", False, f"scene precondition violated: {why}"
        )
    scene, result = _accept_run()
    now = scene.frames[-1]
    flat_ids = [
        [i for ids in fr.proposal_object_ids for i in ids] for fr in scene.frames
    ]
    n_now = len(flat_ids[-1])
    if len(result.detections) != n_now:
        return CheckResult(
            "end_to_end_geometry",
            False,
            f"{len(result.detections)} detections for {n_now} current proposals",
        )
    worst = 0.0
    for det, obj in zip(result.detections, flat_ids[-1]):
        err = float(np.max(np.abs(det.center3d - now.object_centers[obj])))
        worst = max(worst, err)
        if det.category != int(now.object_categories[obj]):
            return CheckResult(
                "end_to_end_geometry", False, f"category mismatch on object {obj}"
            )
    if worst > 1e-6:
        return CheckResult(
            "end_to_end_geometry",
            False,
            f"max detection center error {worst:.3e} m > 1e-6 m",
        )
    static_ids = {i for i in range(scene.config.n_objects) if now.static_labels[i]}
    for f in range(result.padded.n_frames - 1):
        ids = flat_ids[f]
        mask_row = result.motion_mask[f]
        eliminated = {ids[s] for s in range(len(ids)) if mask_row[s] == 0}
        retained = {ids[s] for s in range(len(ids)) if mask_row[s] == 1}
        if np.any(mask_row[len(ids) :] != 0):
            return CheckResult(
                "end_to_end_geometry", False, f"frame {f}: a padded slot survived"
            )
        if eliminated != static_ids or retained & static_ids:
            return CheckResult(
                "end_to_end_geometry",
                False,
                f"frame {f}: eliminated objects {sorted(eliminated)} != "
                f"static objects {sorted(static_ids)}",
            )
    return CheckResult(
        "end_to_end_geometry",
        True,
        f"max center error {worst:.3e} m (tol 1e-6); eliminated set == static set "
        f"{sorted(static_ids)} in every past frame",
    )


def _detections_equal(a, b) -> bool:
    names = [f.name for f in fields(Detection)]
    return len(a) == len(b) and all(
        np.array_equal(getattr(x, name), getattr(y, name)) for x, y in zip(a, b) for name in names
    )


def check_residual_identity() -> CheckResult:
    """Zero-weight fusion is the exact identity, block to full pipeline."""
    rng = np.random.default_rng(707)
    seq = FusedQuerySequence(rng.standard_normal((7, 12)), tuple(range(7)), 3, 4)
    block_out = query_mamba_block(seq, zero_layer_params(12))
    if not np.array_equal(block_out.data, seq.data):
        return CheckResult("residual_identity", False, "zero block is not the identity")
    stack_out = query_mamba_stack(seq, zero_stack(12))
    if not np.array_equal(stack_out.data, seq.data):
        return CheckResult(
            "residual_identity", False, "zero 6-layer stack is not the identity"
        )
    scene = build_scene(ACCEPT_SCENE)
    last = scene.frames[-1]

    def zero_fusion_weights(frames, box_mode):  # seeded weights with an all-zero stack
        dims = PipelineDims(slot_count(frames), feature_channels=scene.config.feature_channels)
        stack = zero_stack(
            dims.n_channels, n_layers=dims.n_layers, state_dim=dims.state_dim,
            ksize=dims.dw_ksize, delta=dims.delta, epsilon=dims.epsilon,
        )
        return replace(PipelineWeights.from_seed(31, dims, box_mode), stack=stack)

    for box_mode in ("bypass", "linear"):
        multi = run_pipeline_detailed(
            scene.frames, scene.cameras, zero_fusion_weights(scene.frames, box_mode)
        )
        single = run_pipeline_detailed([last], scene.cameras, zero_fusion_weights([last], box_mode))
        if not np.array_equal(multi.fused_input.data, multi.fused_output.data):
            return CheckResult(
                "residual_identity",
                False,
                f"zero-weight pipeline stack altered the sequence ({box_mode})",
            )
        if not _detections_equal(multi.detections, single.detections):
            return CheckResult(
                "residual_identity",
                False,
                f"multi-frame detections differ from single-frame ({box_mode})",
            )
    return CheckResult(
        "residual_identity",
        True,
        "zero block / stack bit-exact identity; multi-frame == single-frame "
        "detections bit-for-bit in both box modes",
    )


def check_determinism() -> CheckResult:
    """Equal seeds give byte-identical artifacts."""
    scene_a = build_scene(ACCEPT_SCENE)
    scene_b = build_scene(ACCEPT_SCENE)
    if scene_dumps(scene_a) != scene_dumps(scene_b):
        return CheckResult("determinism", False, "scene JSON differs across two builds")
    if feature_blob_bytes(scene_a) != feature_blob_bytes(scene_b):
        return CheckResult("determinism", False, "feature blob differs across two builds")
    report_a = run_report_csv(_accept_run()[1])
    report_b = run_report_csv(_accept_run()[1])
    if report_a != report_b:
        return CheckResult("determinism", False, "run report differs across two runs")
    bench_cfg = BenchConfig(n_list=(8, 16, 32), repetitions=3, warmup=0)
    untimed = [f.name for f in fields(BenchRow) if f.name not in ("wall_nanos", "timer_ok")]

    def stable(rows):
        return [[getattr(r, name) for name in untimed] for r in rows]

    if stable(run_bench(bench_cfg)) != stable(run_bench(bench_cfg)):
        return CheckResult(
            "determinism", False, "bench untimed columns differ across two runs"
        )
    dims = PipelineDims(k_queries=3)
    w = PipelineWeights.from_seed(7, dims, "linear")
    raw = weights_to_bytes(w)
    again = weights_to_bytes(weights_from_bytes(raw))
    if raw != again:
        return CheckResult("determinism", False, "weights file does not round-trip")
    return CheckResult(
        "determinism",
        True,
        "scene JSON, feature blob, run report, bench untimed columns, and the "
        "weights file all byte-identical across repeated runs",
    )


ALL_CHECKS = (
    check_scan_kernel_equivalence,
    check_fft_direct_agreement,
    check_ssm_linearity,
    check_op_count_formulas,
    check_empirical_scaling,
    check_geometry_roundtrip,
    check_ego_alignment,
    check_motion_mask_oracle,
    check_end_to_end_geometry,
    check_residual_identity,
    check_determinism,
)


def run_all_checks() -> list:
    return [fn() for fn in ALL_CHECKS]
