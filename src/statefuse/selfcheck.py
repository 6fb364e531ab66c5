"""Self-contained verification suite for the package's core guarantees.

Each check re-derives its expected answer independently (brute-force
references, closed-form constructions, exact integer arithmetic).  A
criterion is a function ``check_<name>`` that returns its pass detail, a
measured figure, and fails with one line through :func:`_require`;
:func:`_criterion` turns it into the check that returns the
:class:`CheckResult` named ``<name>``.  The same checks back both the test
suite and the ``check`` command line verb.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .bench import BenchConfig, BenchRow, fit_loglog_slope, run_bench
from .fusion import FusedQuerySequence, query_mamba_block, query_mamba_stack, zero_stack
from .geometry import CameraModel, EgoPose, align_centers, lift_center, project_point
from .motion import MotionElimConfig, motion_cost, motion_mask
from .pipeline import (
    Detection, PipelineDims, PipelineWeights, op_count_cross_attention, op_count_ssm,
    run_pipeline_detailed, run_report_csv, weights_from_bytes, weights_to_bytes,
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


class _Failed(Exception):
    """A criterion that does not hold; the message is its FAIL detail."""


def _require(ok, detail: str) -> str:
    """Fail the running criterion with the one line ``detail`` unless ``ok``.
    ``detail`` is returned, for a criterion that passes with the same line."""
    if not ok:
        raise _Failed(detail)
    return detail


_CRITERIA = []  # the checks in the order they are defined: criterion 01 first


def _criterion(fn):
    """The check of criterion ``fn``, registered in :data:`ALL_CHECKS`: a
    CheckResult named after it (``check_<name>`` gives ``<name>``), with the
    detail ``fn`` returns or the one it fails with."""
    name = fn.__name__.removeprefix("check_")

    @functools.wraps(fn)
    def check() -> CheckResult:
        try:
            passed, detail = True, fn()
        except _Failed as failure:
            passed, detail = False, str(failure)
        return CheckResult(name, passed, detail)

    _CRITERIA.append(check)
    return check


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


@_criterion
def check_scan_kernel_equivalence() -> str:
    """Recurrent scan and materialized-kernel convolution must coincide."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        bank = _random_stable_channel(rng)
        for n in SCAN_LENGTHS:
            x = rng.standard_normal(n)
            via_conv = apply_convolution(materialize_kernel(bank, n)[0], bank.d_bar[0], x)
            worst = max(worst, _rel_err(via_conv, _scan(bank, x)))
    return _require(
        worst <= 1e-9, f"max rel err {worst:.3e} over 200 systems x lengths {{1..256}} (tol 1e-9)"
    )


@_criterion
def check_fft_direct_agreement() -> str:
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
    return _require(worst <= 1e-9, f"max rel err {worst:.3e} over lengths up to 4096 (tol 1e-9)")


@_criterion
def check_ssm_linearity() -> str:
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
    return _require(worst <= 1e-9, f"max rel err {worst:.3e} over 100 systems (tol 1e-9)")


@_criterion
def check_op_count_formulas() -> str:
    """Integer-exact formulas plus the strictly-decreasing cost ratio."""
    grid = (1, 2, 4, 8, 16)
    m = 16
    for n in grid:
        for k in grid:
            for d in grid:
                want_cross = 4 * n * (k * d) ** 2 + 2 * n * n * k * d
                want_ssm = 3 * n * (2 * d) * m + n * (2 * k * d) * m
                at = f"(n={n}, k={k}, d={d})"
                _require(
                    op_count_cross_attention(n, k, d) == want_cross,
                    f"cross-attention count wrong at {at}",
                )
                _require(op_count_ssm(n, k, d, m) == want_ssm, f"ssm count wrong at {at}")
    k, d = 64, 32
    ssm = [op_count_ssm(n, k, d, m) for n in range(1, 4097)]
    cross = [op_count_cross_attention(n, k, d) for n in range(1, 4097)]
    # exact rational comparison: ratio ssm/cross strictly decreasing in N
    for i in range(len(ssm) - 1):
        _require(
            ssm[i + 1] * cross[i] < ssm[i] * cross[i + 1],
            f"cost ratio not strictly decreasing at N={i + 1} (K=64, D=32)",
        )
    n_star = next((n for n in range(1, 4097) if ssm[n - 1] < cross[n - 1]), None)
    _require(
        n_star is not None and all(ssm[n - 1] < cross[n - 1] for n in range(n_star, 4097)),
        "no stable crossover found for K=64, D=32",
    )
    return f"exact on the 5x5x5 grid; ratio strictly decreasing, crossover at N={n_star}"


@_criterion
def check_empirical_scaling() -> str:
    """Measured wall-time slopes and the affine memory model."""
    cfg = BenchConfig(n_list=SLOPE_N_LIST, mechanism="both")
    rows = run_bench(cfg)
    by_mech = {
        mech: sorted((r for r in rows if r.mechanism == mech), key=lambda r: r.n)
        for mech in ("ssm", "cross_attention")
    }
    slopes = {
        mech: fit_loglog_slope([r.n for r in series], [max(r.wall_nanos, 1) for r in series])
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
    _require(not problems, "; ".join(problems))
    return (
        f"ssm slope {slopes['ssm']:.3f} (want [0.7, 1.3]), "
        f"cross-attention slope {slopes['cross_attention']:.3f} (want >= 1.7), "
        f"ssm bytes affine"
    )


@_criterion
def check_geometry_roundtrip() -> str:
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
        errs = (back - pts, u2 - u, v2 - v, d2 - depth)
        worst = max(worst, *(float(np.max(np.abs(e))) for e in errs))
    _require(worst <= 1e-9, f"round-trip error {worst:.3e} > 1e-9")
    # identity camera (unit intrinsics, extrinsic = I): ((0.5, 0.25), 10) -> (5, 2.5, 10)
    ident = CameraModel(np.eye(3), np.eye(4), camera_id=0)
    got = lift_center(ident, (0.5, 0.25), 10.0)
    want = np.array([5.0, 2.5, 10.0])
    ident_err = float(np.max(np.abs(got - want)))
    return _require(
        ident_err <= 1e-12,
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


@_criterion
def check_ego_alignment() -> str:
    """World-static points align onto their current-ego positions."""
    rng = np.random.default_rng(505)
    worst_pos = 0.0
    worst_dist = 0.0

    def to_ego(pose, pts):
        r = pose.world_from_ego[:3, :3]
        t = pose.world_from_ego[:3, 3]
        return (pts - t) @ r

    for _ in range(100):
        pose_past = _random_pose(rng, 0.0)
        pose_now = _random_pose(rng, float(rng.uniform(0.1, 5.0)))
        world = rng.uniform(-100.0, 100.0, size=(20, 3))
        in_past = to_ego(pose_past, world)
        in_now = to_ego(pose_now, world)
        aligned = align_centers(in_past[None], pose_now, [pose_past])[0]
        worst_pos = max(worst_pos, float(np.max(np.abs(aligned - in_now))))
        before = np.linalg.norm(in_past[:, None] - in_past[None, :], axis=-1)
        after = np.linalg.norm(aligned[:, None] - aligned[None, :], axis=-1)
        worst_dist = max(worst_dist, float(np.max(np.abs(after - before))))
    return _require(
        worst_pos <= 1e-9 and worst_dist <= 1e-9,
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


@_criterion
def check_motion_mask_oracle() -> str:
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
        want = _brute_force_mask(cost[0], cats_cur, cats_past, valid[:, 0], valid[:, 1], cfg)
        _require(np.array_equal(got, want), f"mask differs from brute force at trial {trial}")
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
            _require(
                prev is None or not np.any(mask > prev),
                f"retention grew when alpha increased at trial {trial}",
            )
            prev = mask
    return "exact match with brute force on 1000 frames; monotone in alpha on 100"


def _require_scene_margins(scene, alpha: float) -> None:
    """The margins the zero-noise scene must satisfy for an exact oracle."""
    bins = default_depth_bins()
    n = scene.config.n_objects
    violated = "scene precondition violated: frame"
    for fr in scene.frames:
        seen = {i for ids in fr.proposal_object_ids for i in ids}
        missing = sorted(set(range(n)) - seen)
        _require(not missing, f"{violated} {fr.frame_index}: objects {missing} invisible")
    for fr in scene.frames:
        for cam_id, ids in enumerate(fr.proposal_object_ids):
            if not ids:
                continue
            _, _, depth = project_point(scene.cameras[cam_id], fr.object_centers[list(ids)])
            _require(
                not (np.any(depth <= bins[0]) or np.any(depth >= bins[-1])),
                f"{violated} {fr.frame_index}: a depth leaves ({bins[0]}, {bins[-1]})",
            )
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
                _require(
                    float(np.linalg.norm(now_world - past_world)) > alpha + 0.05,
                    f"{violated} {fr.frame_index}: moving object {i} sits within "
                    f"alpha of object {j} in the current frame",
                )


def _accept_run(scene):
    """The acceptance run: ``scene`` through seed-11 weights with the bypass head."""
    dims = PipelineDims(slot_count(scene.frames), feature_channels=scene.config.feature_channels)
    w = PipelineWeights.from_seed(ACCEPT_WEIGHT_SEED, dims, "bypass")
    return run_pipeline_detailed(scene.frames, scene.cameras, w)


@_criterion
def check_end_to_end_geometry() -> str:
    """Zero-noise scene through the bypass head recovers exact geometry."""
    scene = build_scene(ACCEPT_SCENE)
    _require_scene_margins(scene, MotionElimConfig().alpha)
    result = _accept_run(scene)
    now = scene.frames[-1]
    flat_ids = [[i for ids in fr.proposal_object_ids for i in ids] for fr in scene.frames]
    n_now = len(flat_ids[-1])
    _require(
        len(result.detections) == n_now,
        f"{len(result.detections)} detections for {n_now} current proposals",
    )
    worst = 0.0
    for det, obj in zip(result.detections, flat_ids[-1]):
        worst = max(worst, float(np.max(np.abs(det.center3d - now.object_centers[obj]))))
        _require(
            det.category == int(now.object_categories[obj]), f"category mismatch on object {obj}"
        )
    _require(worst <= 1e-6, f"max detection center error {worst:.3e} m > 1e-6 m")
    static_ids = {i for i in range(scene.config.n_objects) if now.static_labels[i]}
    for f in range(result.padded.n_frames - 1):
        ids = flat_ids[f]
        mask_row = result.motion_mask[f]
        eliminated = {ids[s] for s in range(len(ids)) if mask_row[s] == 0}
        retained = {ids[s] for s in range(len(ids)) if mask_row[s] == 1}
        _require(not np.any(mask_row[len(ids) :] != 0), f"frame {f}: a padded slot survived")
        _require(
            eliminated == static_ids and not retained & static_ids,
            f"frame {f}: eliminated objects {sorted(eliminated)} != "
            f"static objects {sorted(static_ids)}",
        )
    return (
        f"max center error {worst:.3e} m (tol 1e-6); eliminated set == static set "
        f"{sorted(static_ids)} in every past frame"
    )


def _detections_equal(a, b) -> bool:
    names = [f.name for f in fields(Detection)]
    return len(a) == len(b) and all(
        np.array_equal(getattr(x, name), getattr(y, name)) for x, y in zip(a, b) for name in names
    )


@_criterion
def check_residual_identity() -> str:
    """Zero-weight fusion is the exact identity, block to full pipeline."""
    rng = np.random.default_rng(707)
    seq = FusedQuerySequence(rng.standard_normal((7, 12)), tuple(range(7)), 3, 4)
    block_out = query_mamba_block(seq, zero_stack(12, n_layers=1).layers[0])
    _require(np.array_equal(block_out.data, seq.data), "zero block is not the identity")
    stack_out = query_mamba_stack(seq, zero_stack(12))
    _require(np.array_equal(stack_out.data, seq.data), "zero 6-layer stack is not the identity")
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
        _require(
            np.array_equal(multi.fused_input.data, multi.fused_output.data),
            f"zero-weight pipeline stack altered the sequence ({box_mode})",
        )
        _require(
            _detections_equal(multi.detections, single.detections),
            f"multi-frame detections differ from single-frame ({box_mode})",
        )
    return (
        "zero block / stack bit-exact identity; multi-frame == single-frame "
        "detections bit-for-bit in both box modes"
    )


@_criterion
def check_determinism() -> str:
    """Equal seeds give byte-identical artifacts: two independent scene
    builds, each run once, and two bench runs."""
    scene_a, scene_b = build_scene(ACCEPT_SCENE), build_scene(ACCEPT_SCENE)
    _require(scene_dumps(scene_a) == scene_dumps(scene_b), "scene JSON differs across two builds")
    _require(
        feature_blob_bytes(scene_a) == feature_blob_bytes(scene_b),
        "feature blob differs across two builds",
    )
    _require(
        run_report_csv(_accept_run(scene_a)) == run_report_csv(_accept_run(scene_b)),
        "run report differs across two runs",
    )
    bench_cfg = BenchConfig(n_list=(8, 16, 32), repetitions=3, warmup=0)
    untimed = [f.name for f in fields(BenchRow) if f.name not in ("wall_nanos", "timer_ok")]

    def stable(rows):
        return [[getattr(r, name) for name in untimed] for r in rows]

    _require(
        stable(run_bench(bench_cfg)) == stable(run_bench(bench_cfg)),
        "bench untimed columns differ across two runs",
    )
    raw = weights_to_bytes(PipelineWeights.from_seed(7, PipelineDims(k_queries=3), "linear"))
    _require(raw == weights_to_bytes(weights_from_bytes(raw)), "weights file does not round-trip")
    return (
        "scene JSON, feature blob, run report, bench untimed columns, and the "
        "weights file all byte-identical across repeated runs"
    )


ALL_CHECKS = tuple(_CRITERIA)


def run_all_checks() -> list:
    return [fn() for fn in ALL_CHECKS]
