"""Feature sampling, deformable read-out, depth reduction, query assembly."""

import numpy as np
import pytest

from statefuse import (
    CameraModel,
    DeformAttnParams,
    FeatureMap,
    NumericOverflowError,
    PosEmbedParams,
    ValidationError,
    build_query,
    camera_ring,
    default_depth_bins,
    deformable_attention,
    expected_depth,
    pad_frames,
    pos_embed,
    proposal_tables,
)
from statefuse.queries import _bilinear_taps, _blend


def grid_map(h=2, w=2, c=1):
    data = np.arange(float(h * w * c)).reshape(h, w, c)
    return FeatureMap(data)


def make_proposal(center, dist):
    """A one-row proposal table for one camera."""
    row = {"center": center, "box": [0.1, 0.1], "category": 0, "score": 1.0, "depth_dist": dist}
    return proposal_tables([[row]])[0]


# --- bilinear sampling ---

def bilinear(f, p):
    """The bilinear sample of ``f`` at pixel coordinates ``p``, (x, y) with x
    along width, or an (..., 2) batch: the taps and blend of
    deformable_attention."""
    ys, xs, fx, fy = _bilinear_taps(np.asarray(p, dtype=float), f.height, f.width)
    return _blend(f.data[ys, xs], fx, fy)


def attend_at(f, p):
    """deformable_attention at the top-left pixel with one head, one key at
    offset ``p`` and identity projections: the sample of ``f`` at ``p``."""
    eye = np.eye(f.channels)[None]
    params = DeformAttnParams(eye, eye, np.reshape(p, (1, 1, 2)), np.ones((1, 1)))
    return deformable_attention([[0.0, 0.0]], [f], [1], params)[0]


SAMPLERS = pytest.mark.parametrize("sample", [bilinear, attend_at])


@SAMPLERS
def test_bilinear_integer_coordinates_exact(sample):
    f = grid_map(3, 4, 2)
    for y in range(3):
        for x in range(4):
            assert np.array_equal(sample(f, [x, y]), f.data[y, x])


@SAMPLERS
def test_bilinear_center_of_2x2(sample):
    f = grid_map(2, 2, 1)  # values 0, 1, 2, 3
    assert sample(f, [0.5, 0.5])[0] == 1.5


@SAMPLERS
def test_bilinear_quarter_point(sample):
    f = grid_map(2, 2, 1)
    # (1 - .25)(1 - .75)*0 + .25(1 - .75)*1 + (1 - .25)(.75)*2 + .25*.75*3
    assert sample(f, [0.25, 0.75])[0] == 1.75


@SAMPLERS
def test_bilinear_clamps_outside(sample):
    f = grid_map(2, 2, 1)
    assert sample(f, [-5.0, -5.0])[0] == f.data[0, 0, 0]
    assert sample(f, [9.0, 9.0])[0] == f.data[1, 1, 0]


def test_bilinear_batch_shape():
    f = grid_map(4, 4, 3)
    pts = np.array([[0.5, 0.5], [1.0, 2.0], [3.0, 3.0]])
    out = bilinear(f, pts)
    assert out.shape == (3, 3)
    assert np.array_equal(out, [attend_at(f, p) for p in pts])


# --- deformable read-out ---

def test_deform_single_sample_collapse():
    """One head, one key, identity projections: just a bilinear sample."""
    f = grid_map(4, 4, 1)
    params = DeformAttnParams(
        value_proj=np.ones((1, 1, 1)),
        out_proj=np.ones((1, 1, 1)),
        offsets=np.zeros((1, 1, 2)),
        weights=np.ones((1, 1)),
    )
    c2d = np.array([0.4, 0.7])
    out = deformable_attention(c2d[None], [f], [1], params)[0]
    want = bilinear(f, [c2d[0] * 3.0, c2d[1] * 3.0])
    assert np.array_equal(out, want)


def test_deform_constant_field():
    data = np.full((5, 6, 3), 2.0)
    f = FeatureMap(data)
    params = DeformAttnParams.seeded(3, seed=2, n_heads=2, n_keys=4)
    out = deformable_attention([[0.5, 0.5]], [f], [1], params)[0]
    # every sample is the same vector, so the weights collapse to 1
    want = np.zeros(3)
    for m in range(2):
        want += (np.full(3, 2.0) @ params.value_proj[m]) @ params.out_proj[m]
    assert np.max(np.abs(out - want)) <= 1e-12


def test_deform_matches_naive_loops():
    rng = np.random.default_rng(103)
    f = FeatureMap(rng.uniform(-1, 1, size=(8, 8, 4)))
    params = DeformAttnParams.seeded(4, seed=9, n_heads=2, n_keys=3)
    c2d = np.array([0.37, 0.81])
    base = np.array([c2d[0] * 7.0, c2d[1] * 7.0])
    want = np.zeros(4)
    for m in range(params.n_heads):
        head = np.zeros(params.value_proj.shape[2])
        for n in range(params.n_keys):
            sample = bilinear(f, base + params.offsets[m, n])
            head += params.weights[m, n] * (sample @ params.value_proj[m])
        want += head @ params.out_proj[m]
    got = deformable_attention(c2d[None], [f], [1], params)[0]
    assert np.max(np.abs(got - want)) <= 1e-12


def test_deform_channel_mismatch():
    f = grid_map(4, 4, 2)
    params = DeformAttnParams.seeded(3, seed=0)
    with pytest.raises(ValidationError):
        deformable_attention([[0.5, 0.5]], [f], [1], params)


def test_deform_params_validate_weights():
    with pytest.raises(ValidationError):
        DeformAttnParams(
            value_proj=np.ones((1, 1, 1)),
            out_proj=np.ones((1, 1, 1)),
            offsets=np.zeros((1, 2, 2)),
            weights=np.array([[0.4, 0.4]]),  # does not sum to 1
        )


# --- depth reduction ---

def test_expected_depth_one_hot():
    bins = default_depth_bins()
    dist = np.zeros(60)
    dist[11] = 1.0
    assert expected_depth(dist, bins) == bins[11]


def test_expected_depth_midpoint():
    assert expected_depth([0.5, 0.5], [5.0, 10.0]) == 7.5


def test_expected_depth_weighted():
    assert abs(expected_depth([0.2, 0.3, 0.5], [2.0, 4.0, 8.0]) - 5.6) < 1e-12


def test_expected_depth_validates():
    with pytest.raises(ValidationError):
        expected_depth([0.7, 0.7], [1.0, 2.0])
    with pytest.raises(ValidationError):
        expected_depth([1.0], [1.0, 2.0])


def test_default_depth_bins_layout():
    bins = default_depth_bins()
    assert bins.shape == (60,)
    assert bins[0] == 1.5
    assert bins[-1] == 60.5
    assert np.array_equal(np.diff(bins), np.ones(59))


# --- query assembly ---

def one_hot(i, n=60):
    d = np.zeros(n)
    d[i] = 1.0
    return d


def build_one(table, f, cam, attn, pe, sem_proj):
    """build_query over a window of one frame seen by one camera."""
    return build_query([[table]], [[f]], [cam], attn, pe, sem_proj)


def test_build_query_zero_sem_proj():
    rng = np.random.default_rng(107)
    f = FeatureMap(rng.uniform(-1, 1, size=(6, 6, 4)))
    cam = CameraModel(np.eye(3), np.eye(4), camera_id=0)
    attn = DeformAttnParams.seeded(4, seed=1)
    pe = PosEmbedParams.seeded(12, seed=2)
    prop = make_proposal([0.5, 0.25], one_hot(9))
    q3d, centers, _, _, _ = build_one(prop, f, cam, attn, pe, np.zeros((4, 12)))
    q_pos = pos_embed(centers, pe)
    assert np.array_equal(q3d - q_pos, np.zeros((1, 12)))
    assert np.array_equal(q3d, q_pos)


def test_build_query_center_from_depth():
    """Identity camera, one-hot depth on the 9.5 m bin: the lifted center is known."""
    rng = np.random.default_rng(109)
    f = FeatureMap(rng.uniform(-1, 1, size=(6, 6, 4)))
    cam = CameraModel(np.eye(3), np.eye(4), camera_id=0)
    attn = DeformAttnParams.seeded(4, seed=1)
    pe = PosEmbedParams.seeded(12, seed=2)
    prop = make_proposal([0.5, 0.25], one_hot(8))
    assert default_depth_bins()[8] == 9.5
    _, centers, cats, scores, counts = build_one(prop, f, cam, attn, pe, np.zeros((4, 12)))
    assert np.max(np.abs(centers[0] - [4.75, 2.375, 9.5])) <= 1e-12
    assert cats.dtype == np.int64 and np.array_equal(cats, prop.category)
    assert np.array_equal(scores, prop.score)
    assert np.array_equal(counts, [1])


def test_build_query_deterministic():
    rng = np.random.default_rng(113)
    f = FeatureMap(rng.uniform(-1, 1, size=(6, 6, 4)))
    cam = CameraModel(np.eye(3), np.eye(4), camera_id=0)
    attn = DeformAttnParams.seeded(4, seed=1)
    pe = PosEmbedParams.seeded(12, seed=2)
    sem = np.random.default_rng(5).uniform(-0.1, 0.1, size=(4, 12))
    prop = make_proposal([0.3, 0.6], one_hot(20))
    a = build_one(prop, f, cam, attn, pe, sem)
    b = build_one(prop, f, cam, attn, pe, sem)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    q_pos = pos_embed(a[1], pe)
    q_sem = deformable_attention(prop.center, [f], [1], attn) @ sem
    assert np.max(np.abs(a[0] - (q_pos + q_sem))) <= 1e-12


def test_proposal_validates_center_and_dist():
    with pytest.raises(ValidationError, match=r"^proposals\[0\]\[0\]\.center: proposal center"):
        make_proposal([1.2, 0.5], one_hot(0))
    with pytest.raises(ValidationError, match=r"\.depth_dist: depth_dist must be non-negative"):
        make_proposal([0.5, 0.5], np.full(60, 0.5))


GOOD = {"center": [0.5, 0.5], "box": [0.1, 0.2], "category": 2, "score": 0.75,
        "depth_dist": [0.25, 0.75]}


def test_proposal_tables_hold_read_only_records():
    rows = [[GOOD, {**GOOD, "center": [0.1, 0.9]}], [], [{**GOOD, "category": 0}]]
    tables = proposal_tables(rows)
    assert [len(t) for t in tables] == [2, 0, 1]
    first = tables[0]
    assert isinstance(first, np.recarray) and not first.flags.writeable
    assert first.center.shape == (2, 2) and first.depth_dist.shape == (2, 2)
    assert first.category.dtype == np.int64 and first.score.dtype == np.float64
    records = list(first)
    assert records[1].category == 2 and records[1].score == 0.75
    assert np.array_equal(records[1].center, [0.1, 0.9])
    assert records[0].depth_dist @ np.array([2.0, 4.0]) == 3.5
    with pytest.raises(ValueError):
        first.score[0] = 0.5
    assert all(len(t) == 0 for t in proposal_tables([[], []]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r.pop("box"), r"\.box: missing"),
        (lambda r: r.update(category=[1]), r"\.category: expected an integer"),
        (lambda r: r.update(category=True), r"\.category: expected an integer"),
        (lambda r: r.update(category=1.0), r"\.category: expected an integer"),
        (lambda r: r.update(center=[0.5]), r"\.center: expected shape \(2,\)"),
        (lambda r: r.update(center="x"), r"\.center: expected numbers, got 'x'"),
        (lambda r: r.update(box=[0.1, float("nan")]), r"\.box: contains NaN or Inf"),
        (lambda r: r.update(box=[0.1, float("inf")]), r"\.box: contains NaN or Inf"),
        (lambda r: r.update(box=[-0.1, 0.1]), r"\.box: box extents must be non-negative"),
        (lambda r: r.update(score=1.5), r"\.score: score must lie in \[0, 1\]"),
        (lambda r: r.update(score=None), r"\.score: expected numbers, got None"),
        (lambda r: r.update(depth_dist=5), r"\.depth_dist: expected shape \(2,\), got \(\)"),
        (lambda r: r.update(depth_dist=[0.5, 0.25, 0.25]), r"\.depth_dist: expected shape \(2,\)"),
        (lambda r: r.update(depth_dist=[1.5, -0.5]), r"\.depth_dist: depth_dist must be non-neg"),
    ],
)
def test_proposal_tables_name_the_bad_value(edit, message):
    bad = dict(GOOD)
    edit(bad)
    with pytest.raises(ValidationError, match=r"^frames\[3\]\.proposals\[1\]\[0\]" + message):
        proposal_tables([[GOOD], [bad, GOOD]], "frames[3].proposals")


def test_proposal_tables_refuse_non_arrays():
    with pytest.raises(ValidationError, match=r"^p: expected an array"):
        proposal_tables(5, "p")
    with pytest.raises(ValidationError, match=r"^p\[1\]: expected an array of proposals"):
        proposal_tables([[], 5], "p")
    with pytest.raises(ValidationError, match=r"^p\[0\]\[1\]: a proposal must be an object"):
        proposal_tables([[GOOD, "x"]], "p")
    with pytest.raises(ValidationError, match=r"^p\[0\]\[0\]\.depth_dist: .* non-empty 1-d"):
        proposal_tables([[{**GOOD, "depth_dist": []}]], "p")


def test_feature_map_rejects_non_finite():
    data = np.zeros((2, 2, 1))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        FeatureMap(data)


# --- batched window build against a per-proposal reference ---

def reference_query(prop, f, cam, attn, pe, sem_proj, bins):
    """One proposal at a time: scalar samples per head and key, scalar lift."""
    base = np.array([prop.center[0] * (f.width - 1.0), prop.center[1] * (f.height - 1.0)])
    read = np.zeros(f.channels)
    for m in range(attn.n_heads):
        head = np.zeros(attn.value_proj.shape[2])
        for n in range(attn.n_keys):
            sample = bilinear(f, base + attn.offsets[m, n])
            head += attn.weights[m, n] * (sample @ attn.value_proj[m])
        read += head @ attn.out_proj[m]
    depth = float(prop.depth_dist @ bins)
    ray = np.linalg.solve(cam.intrinsic, np.array([prop.center[0], prop.center[1], 1.0]))
    p_cam = ray * (depth / ray[2])
    r, t = cam.extrinsic[:3, :3], cam.extrinsic[:3, 3]
    center = r.T @ (p_cam - t)
    return pos_embed(center, pe) + read @ sem_proj, center


def rel_err(got, want):
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def window_fixture(counts_per_cam, seed=157):
    """Frames of proposals over three cameras; camera 2 has K[2, 2] = 2."""
    rng = np.random.default_rng(seed)
    ring = camera_ring(3)
    skewed = np.array([[1.6, 0.1, 1.0], [0.0, 1.6, 1.0], [0.0, 0.0, 2.0]])
    cams = ring[:2] + (CameraModel(skewed, ring[2].extrinsic, camera_id=2),)
    proposals, maps = [], []
    for per_cam in counts_per_cam:
        frame_rows, frame_maps = [], []
        for n in per_cam:
            frame_maps.append(FeatureMap(rng.uniform(-1, 1, size=(7, 9, 4))))
            centers = rng.uniform(0.0, 1.0, size=(n, 2))
            # corner proposals: offsets on both sides push samples off the image
            centers[: min(n, 2)] = np.array([[0.0, 0.0], [1.0, 1.0]])[: min(n, 2)]
            frame_rows.append(
                [
                    {
                        "center": ctr,
                        "box": np.array([0.1, 0.1]),
                        "category": int(rng.integers(0, 4)),
                        "score": float(rng.uniform()),
                        "depth_dist": rng.dirichlet(np.ones(60)),
                    }
                    for ctr in centers
                ]
            )
        proposals.append(proposal_tables(frame_rows))
        maps.append(tuple(frame_maps))
    attn = DeformAttnParams.seeded(4, seed=3, n_heads=2, n_keys=4)
    assert np.any(attn.offsets < -0.5) and np.any(attn.offsets > 0.5)
    pe = PosEmbedParams.seeded(12, seed=4)
    sem = np.random.default_rng(seed + 1).uniform(-0.1, 0.1, size=(4, 12))
    return proposals, maps, cams, attn, pe, sem


def test_build_query_matches_per_proposal_reference():
    # frame 0: camera 1 sees nothing; frame 1: fewer proposals, camera 0 empty
    counts = [(3, 0, 2), (0, 1, 1)]
    proposals, maps, cams, attn, pe, sem = window_fixture(counts)
    bins = default_depth_bins()
    q3d, centers, cats, scores, n_per_frame = build_query(proposals, maps, cams, attn, pe, sem)
    assert np.array_equal(n_per_frame, [5, 2])
    row = 0
    for i, (frame_props, frame_maps) in enumerate(zip(proposals, maps)):
        for c, (props, f) in enumerate(zip(frame_props, frame_maps)):
            for prop in props:
                want_q, want_c = reference_query(prop, f, cams[c], attn, pe, sem, bins)
                assert rel_err(q3d[row], want_q) <= 1e-12
                assert rel_err(centers[row], want_c) <= 1e-12
                assert cats[row] == prop.category and scores[row] == prop.score
                row += 1
    assert row == len(q3d)

    seq = pad_frames(q3d, centers, cats, n_per_frame)
    assert seq.k_queries == 5
    assert np.array_equal(seq.valid, [[True] * 5, [True] * 2 + [False] * 3])
    assert np.array_equal(seq.embeddings[1, 2:], np.zeros((3, 12)))
    assert np.array_equal(seq.centers3d[1, 2:], np.zeros((3, 3)))
    assert np.array_equal(seq.cats[1, 2:], [-1, -1, -1])
    assert np.array_equal(seq.embeddings[1, :2], q3d[5:])


def test_deform_window_matches_per_map_calls():
    proposals, maps, _, attn, _, _ = window_fixture([(2, 3, 1)])
    points = [table.center for table in proposals[0]]
    got = deformable_attention(np.concatenate(points), maps[0], [len(p) for p in points], attn)
    want = np.concatenate(
        [deformable_attention(p, [f], [len(p)], attn) for p, f in zip(points, maps[0])]
    )
    assert got.shape == (6, 4)
    assert rel_err(got, want) <= 1e-14


def test_build_query_validation_cases():
    proposals, maps, cams, attn, pe, sem = window_fixture([(1, 1, 0)])
    build_query(proposals, maps, cams, attn, pe, sem)  # the untouched window builds
    with pytest.raises(ValidationError, match="sem_proj"):
        build_query(proposals, maps, cams, attn, pe, sem[:, :6])
    with pytest.raises(ValidationError, match="camera list"):
        build_query(proposals, maps, cams[:2], attn, pe, sem)
    for bad, message in (
        (np.full(60, 1 / 30), "^dist: expected distributions that sum to 1$"),
        (np.r_[-0.5, 1.5, np.zeros(58)], "^dist: expected a float >= 0, got -0.5$"),
    ):
        # stands in for a table that skipped proposal_tables' own checks
        fake = proposals[0][0].copy()
        fake.depth_dist[0] = bad
        window = [(fake,) + proposals[0][1:]]
        with pytest.raises(ValidationError, match=message):
            build_query(window, maps, cams, attn, pe, sem)
    coarse = proposal_tables([[{**GOOD, "depth_dist": one_hot(3, 30)}], [], []])
    with pytest.raises(ValidationError, match="bin layout"):
        build_query([coarse], maps, cams, attn, pe, sem)
    huge = PosEmbedParams(10000.0, np.full((12, 12), 1e308), np.zeros(12), pe.w2, pe.b2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericOverflowError, match="^stage query construction: non-finite"):
            build_query(proposals, maps, cams, attn, huge, sem)
