"""The benchmark's three workloads, driven through the public statefuse API.

Each workload is a closed loop with one caller.  Op ``i`` of a run with
workload seed ``s`` is a pure function of ``(s, i)``, so every op can be
regenerated on its own, and no op input repeats within a run (the frames
that consecutive ``stream_window`` ops share are part of its design).
Inputs are generated and weights derived outside the timed call.

Every op is checked twice: against invariants the benchmark computes on
its own (categories and scores copied from the proposals, lifted centers
that project back onto the proposal centers at the expected depth,
retention flags from an independent motion oracle, causal prefixes of the
fused history), and, when a stored reference exists for the op, against a
fingerprint of its outputs: retention flags and categories must match
exactly, sums and norms within ``REL_TOL`` relative.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from statefuse import fusion, pipeline, scene
from statefuse.motion import MotionElimConfig

WEIGHTS_SEED = 11
BOX_MODE = "linear"
REL_TOL = 1e-9
GEOM_TOL = 1e-9
# Depth bins the scene encodes proposal depths in: 60 bins over [1, 61] m.
DEPTH_BINS = 1.0 + (np.arange(60) + 0.5)


def derive(*words: int) -> int:
    """A 64-bit seed derived from non-negative integers."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


def _pair(a) -> list:
    """Sum and Euclidean norm of an array, the float part of a fingerprint."""
    a = np.asarray(a, dtype=np.float64).ravel()
    return [float(a.sum()), float(np.sqrt(a @ a))]


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def compare(fp: list, ref: list) -> list:
    """Problems found comparing a fingerprint with its stored reference.

    ``[digest, sum, norm, sum, norm, ...]``: the digest must be equal, a
    norm within REL_TOL of its reference, a sum within REL_TOL of the
    larger of its reference and the reference norm.
    """
    if fp[0] != ref[0]:
        return [f"flags/categories digest {fp[0]} != reference {ref[0]}"]
    if len(fp) != len(ref):
        return [f"fingerprint has {len(fp)} fields, reference {len(ref)}"]
    problems = []
    for j in range(1, len(ref), 2):
        s, n, rs, rn = fp[j], fp[j + 1], ref[j], ref[j + 1]
        if not abs(n - rn) <= REL_TOL * abs(rn):
            problems.append(f"norm {j // 2}: {n!r} != reference {rn!r}")
        if not abs(s - rs) <= REL_TOL * max(abs(rs), abs(rn)):
            problems.append(f"sum {j // 2}: {s!r} != reference {rs!r}")
    return problems


def shape_counts(n: int, k: int, d: int, m: int, layers: int) -> dict:
    """Work implied by the fusion shapes: N rows of E = K * D channels
    through ``layers`` layers with M states, next to the analytic counts."""
    e = k * d
    return {
        "fusion.proj_macs": 4 * layers * n * e * e,
        "ssm.scan_macs": layers * n * (3 * e * m + e),
        "ssm.scan_steps": layers * n,
        "pipeline.op_count_ssm": pipeline.op_count_ssm(n, k, d, m),
        "pipeline.op_count_cross_attention": pipeline.op_count_cross_attention(n, k, d),
    }


def nbytes(obj) -> int:
    """Bytes of every array reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if is_dataclass(obj):
        return sum(nbytes(getattr(obj, f.name)) for f in fields(obj))
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(x) for x in obj)
    return 0


@dataclass
class Outcome:
    """What the checks of one op found, and the counts it implies."""

    fingerprint: list
    problems: list
    counts: dict


# === pipeline workloads ===


@dataclass
class PipelineInput:
    frames: tuple
    cameras: tuple
    k: int
    weights: object


def _max_k(frames) -> int:
    return max(sum(len(p) for p in fr.proposals) for fr in frames)


def _parse_report(csv: str) -> dict:
    lines = csv.rstrip("\n").split("\n")
    header = lines[0].split(",")
    table = np.array([line.split(",") for line in lines[1:]])
    if table.ndim != 2 or table.shape[1] != len(header):
        raise ValueError("report rows do not match its header")
    col = {name: table[:, j] for j, name in enumerate(header)}
    return {
        "frame": col["frame"].astype(int),
        "slot": col["object_slot"].astype(int),
        "retained": col["retained"].astype(int),
        "centers": np.stack(
            [col["center_x"], col["center_y"], col["center_z"]], axis=1
        ).astype(np.float64),
        "category": col["category"].astype(int),
        "score": col["score"].astype(np.float64),
    }


def _rigid_inverse(t: np.ndarray) -> np.ndarray:
    r = t[:3, :3]
    out = np.eye(4)
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t[:3, 3]
    return out


class PipelineWorkload:
    """Shared set-up, op and checks of the two pipeline workloads."""

    name = ""
    frames_per_op = 1
    scene_frames = 8
    scene_objects = 6
    cameras = 6
    k_range = ()  # slot counts whose weights are derived before timing
    fixed_k = False  # redraw scenes whose K is outside k_range

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.motion = MotionElimConfig()
        self.weights = {}
        self.doc_path = os.path.join(out_dir, f"scene-{self.name}-{seed}.json")
        self._scenes = {}  # the last two scenes built, by (seed, index)

    def build(self, seed: int, index: int):
        """Scene ``index`` of a run; redrawn while its K is outside
        ``k_range``, when the workload fixes the weights it holds."""
        for attempt in range(100):
            sc = scene.build_scene(
                scene.SceneConfig(
                    n_frames=self.scene_frames,
                    n_objects=self.scene_objects,
                    n_cameras=self.cameras,
                    seed=derive(self.salt, seed, index, attempt),
                )
            )
            if not self.fixed_k or _max_k(sc.frames) in self.k_range:
                return sc
        raise RuntimeError(f"no scene with K in {self.k_range} after 100 draws")

    def simulate(self) -> None:
        """Write the document ``statefuse simulate`` would for the first scene."""
        scene.save_scene(self.build(self.seed, 0), self.doc_path)

    def setup(self) -> None:
        """What ``statefuse run --weights seed:N`` pays before its forward pass."""
        sc = scene.load_scene(self.doc_path)
        k = _max_k(sc.frames)
        dims = pipeline.PipelineDims(
            k_queries=k, feature_channels=sc.config.feature_channels
        )
        self.weights[k] = pipeline.PipelineWeights.from_seed(WEIGHTS_SEED, dims, BOX_MODE)
        self._scenes = {(self.seed, 0): sc}

    def prepare(self) -> None:
        for k in self.k_range:
            self._weights(k)

    def _weights(self, k: int):
        if k not in self.weights:
            dims = pipeline.PipelineDims(k_queries=k)
            self.weights[k] = pipeline.PipelineWeights.from_seed(
                WEIGHTS_SEED, dims, BOX_MODE
            )
        return self.weights[k]

    def _scene_for(self, seed: int, index: int):
        key = (seed, index)
        if key not in self._scenes:
            if len(self._scenes) == 2:
                del self._scenes[next(iter(self._scenes))]
            self._scenes[key] = self.build(seed, index)
        return self._scenes[key]

    def _input(self, sc, frames) -> PipelineInput:
        k = _max_k(frames)
        return PipelineInput(tuple(frames), sc.cameras, k, self._weights(k))

    def run(self, inp: PipelineInput):
        result = pipeline.run_pipeline_detailed(
            inp.frames, inp.cameras, inp.weights, self.motion
        )
        return result, pipeline.run_report_csv(result)

    def weights_bytes(self) -> int:
        return sum(nbytes(w) for w in self.weights.values())

    def check(self, inp: PipelineInput, out) -> Outcome:
        result, csv = out
        problems = []
        frames, k = inp.frames, inp.k
        n = len(frames)
        dims = inp.weights.dims
        rep = _parse_report(csv)
        if rep["frame"].size != n * k:
            return Outcome([], [f"report has {rep['frame'].size} rows, expected {n * k}"], {})
        shape = (n, k)
        if not (
            np.array_equal(rep["frame"], np.repeat(np.arange(n), k))
            and np.array_equal(rep["slot"], np.tile(np.arange(k), n))
        ):
            problems.append("report rows are not ordered frame by frame, slot by slot")
        cats = rep["category"].reshape(shape)
        retained = rep["retained"].reshape(shape)
        centers = rep["centers"].reshape(n, k, 3)
        scores = rep["score"].reshape(shape)
        valid = np.zeros(shape, dtype=bool)
        for i, fr in enumerate(frames):
            props = [(c, p) for c, cam_props in enumerate(fr.proposals) for p in cam_props]
            count = len(props)
            valid[i, :count] = True
            if not np.array_equal(cats[i], [p.category for _, p in props] + [-1] * (k - count)):
                problems.append(f"frame {i}: categories differ from the proposals")
            if not np.array_equal(scores[i], [p.score for _, p in props] + [0.0] * (k - count)):
                problems.append(f"frame {i}: scores differ from the proposals")
            problems += _check_lift(i, centers[i, :count], props, inp.cameras)
        problems += _check_retention(frames, centers, cats, valid, retained, self.motion.alpha)

        cur = valid[-1]
        dets = result.detections
        if len(dets) != int(cur.sum()):
            problems.append(f"{len(dets)} detections for {int(cur.sum())} current queries")
        det = np.array(
            [[*x.center3d, *x.size, x.yaw, *x.velocity, x.score] for x in dets]
        ).reshape(-1, 10)
        det_cats = np.array([x.category for x in dets], dtype=int)
        if len(dets) == int(cur.sum()) and not np.array_equal(det_cats, cats[-1][cur]):
            problems.append("detection categories differ from the current queries")
        if not np.all(np.isfinite(det)) or np.any(det[:, 9] < 0) or np.any(det[:, 9] > 1):
            problems.append("detections hold non-finite values or scores outside [0, 1]")
        fused = np.asarray(result.fused_output.data)
        if fused.shape != (n, k * dims.embed_dim) or not np.all(np.isfinite(fused)):
            problems.append(f"fused output has shape {fused.shape} or non-finite values")

        fingerprint = [
            _digest(retained, cats, det_cats),
            *_pair(det),
            *_pair(fused),
            *_pair(np.concatenate([rep["centers"].ravel(), rep["score"]])),
        ]
        past_valid = valid[:-1]
        counts = shape_counts(n, k, dims.embed_dim, dims.state_dim, dims.n_layers)
        counts["pipeline.padding_frac"] = 1.0 - valid.sum() / valid.size
        counts["motion.survivor_frac"] = (
            float((retained[:-1] == 1)[past_valid].sum() / past_valid.sum())
            if past_valid.any()
            else 0.0
        )
        return Outcome(fingerprint, problems, counts)


def _check_lift(i: int, centers: np.ndarray, props, cams) -> list:
    """Lifted centers must project back onto the proposal at its expected depth."""
    problems = []
    for s, (c, p) in enumerate(props):
        cam = cams[c]
        q = cam.extrinsic[:3, :3] @ centers[s] + cam.extrinsic[:3, 3]
        h = cam.intrinsic @ q
        depth = float(p.depth_dist @ DEPTH_BINS)
        uv = h[:2] / h[2]
        if not (
            abs(q[2] - depth) <= GEOM_TOL * max(1.0, depth)
            and np.all(np.abs(uv - p.center) <= GEOM_TOL)
        ):
            problems.append(f"frame {i} slot {s}: center does not lift the proposal")
    return problems


def _check_retention(frames, centers, cats, valid, retained, alpha: float) -> list:
    """Independent motion oracle over every past frame of the window.

    A valid past slot is kept unless a valid current slot of its category
    lies within ``alpha`` of its center aligned into the current ego
    frame.  Slots whose deciding distance is within GEOM_TOL of ``alpha``
    are not judged.  Valid current slots are always kept.
    """
    problems = []
    if not np.all(retained[-1][valid[-1]] == 1):
        problems.append("a valid current slot was not retained")
    t_now_inv = _rigid_inverse(np.asarray(frames[-1].ego_pose.world_from_ego))
    cur_c, cur_cat, cur_v = centers[-1], cats[-1], valid[-1]
    for i in range(len(frames) - 1):
        rel = t_now_inv @ np.asarray(frames[i].ego_pose.world_from_ego)
        aligned = centers[i] @ rel[:3, :3].T + rel[:3, 3]
        dist = np.linalg.norm(cur_c[:, None, :] - aligned[None, :, :], axis=-1)
        pair = (cur_cat[:, None] == cats[i][None, :]) & cur_v[:, None] & valid[i][None, :]
        close = pair & (dist <= alpha)
        ambiguous = (pair & (np.abs(dist - alpha) <= GEOM_TOL)).any(axis=0)
        expected = valid[i] & ~close.any(axis=0)
        wrong = (retained[i].astype(bool) != expected) & ~ambiguous
        if wrong.any():
            slots = np.flatnonzero(wrong).tolist()
            problems.append(f"frame {i}: retention differs from the motion oracle at {slots}")
    return problems


class OfflineWide(PipelineWorkload):
    """Forward pass plus run report over a fresh 8-frame, 24-object scene."""

    name = "offline_wide"
    salt = 0x0FF1
    frames_per_op = 8
    scene_frames = 8
    scene_objects = 24
    k_range = range(26, 30)
    fixed_k = True

    def make_input(self, seed: int, index: int) -> PipelineInput:
        sc = self._scene_for(seed, index)
        return self._input(sc, sc.frames)


class StreamWindow(PipelineWorkload):
    """An online detector: each op is one new frame and a pass over the
    last ``window`` frames of a 96-frame scene; a new scene per pass."""

    name = "stream_window"
    salt = 0x57E4
    frames_per_op = 1
    scene_frames = 96
    scene_objects = 6
    window = 16
    k_range = range(6, 11)

    def make_input(self, seed: int, index: int) -> PipelineInput:
        per_pass = self.scene_frames - self.window + 1
        scene_index, start = divmod(index, per_pass)
        sc = self._scene_for(seed, scene_index)
        return self._input(sc, sc.frames[start : start + self.window])


# === long-history workload ===


class HistoryFusion:
    """``query_mamba_stack`` over N = 1024 fresh rows of K = 4 queries."""

    name = "history_fusion"
    salt = 0x415F
    n_rows = 1024
    k = 4
    embed_dim = 24
    state_dim = 16
    n_layers = 6
    frames_per_op = n_rows
    prefix = 64

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.stack = None

    def simulate(self) -> None:
        pass

    def setup(self) -> None:
        self.stack = fusion.seeded_stack(
            self.k * self.embed_dim,
            WEIGHTS_SEED,
            n_layers=self.n_layers,
            state_dim=self.state_dim,
        )

    def prepare(self) -> None:
        pass

    def _sequence(self, rows: np.ndarray):
        return fusion.FusedQuerySequence(
            rows, tuple(range(rows.shape[0])), self.k, self.embed_dim
        )

    def make_input(self, seed: int, index: int):
        rng = np.random.default_rng([self.salt, seed, index])
        return self._sequence(rng.standard_normal((self.n_rows, self.k * self.embed_dim)))

    def run(self, inp):
        return fusion.query_mamba_stack(inp, self.stack)

    def weights_bytes(self) -> int:
        return nbytes(self.stack)

    def check(self, inp, out) -> Outcome:
        """Fusion is causal: the first rows alone must give the same rows."""
        data = np.asarray(out.data)
        problems = []
        e = self.k * self.embed_dim
        if data.shape != (self.n_rows, e) or not np.all(np.isfinite(data)):
            return Outcome([], [f"output has shape {data.shape} or non-finite values"], {})
        head = np.asarray(self.run(self._sequence(np.asarray(inp.data[: self.prefix]))).data)
        scale = np.abs(head).max()
        if not np.abs(head - data[: self.prefix]).max() <= REL_TOL * scale:
            problems.append("the first rows changed when later rows were appended")
        counts = shape_counts(
            self.n_rows, self.k, self.embed_dim, self.state_dim, self.n_layers
        )
        counts["pipeline.padding_frac"] = 0.0
        counts["motion.survivor_frac"] = 0.0
        return Outcome(["", *_pair(data), *_pair(data[-1])], problems, counts)


WORKLOADS = {w.name: w for w in (OfflineWide, StreamWindow, HistoryFusion)}
