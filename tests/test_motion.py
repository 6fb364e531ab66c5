"""Slot padding, motion cost, elimination mask, mask application.

The kernels take what a forward pass hands them, arrays of the dtypes it
keeps; ``run_pipeline_detailed`` and the records check its inputs.
"""

import numpy as np

from statefuse import MotionElimConfig, PosEmbedParams, pos_embed
from statefuse.motion import (
    INVALID_COST,
    apply_motion_mask,
    motion_cost,
    motion_mask,
    pad_frames,
)


def query_at(center, category=0, d=6, seed=0):
    """One query as (q_3d, center, category); q_3d embeds the center."""
    center = np.asarray(center, dtype=float)
    return pos_embed(center, PosEmbedParams.seeded(d, seed=seed)), center, category


def pad(frames):
    """pad_frames over per-frame lists of query_at tuples; row j scores
    (j + 1) / 100."""
    rows = [q for frame in frames for q in frame]
    return pad_frames(
        np.array([q3d for q3d, _, _ in rows]),
        np.array([c for _, c, _ in rows]),
        np.array([cat for _, _, cat in rows]),
        (np.arange(len(rows)) + 1) / 100,
        np.array([len(frame) for frame in frames]),
    )


def cost_one(cur, past, validity):
    """(K, K) cost against one past frame; ``validity`` columns are the
    current and the past slot flags."""
    validity = np.asarray(validity, dtype=bool)
    return motion_cost(cur, np.asarray(past)[None], validity[:, 0], validity[None, :, 1])[0]


def mask_one(cost, cats_cur, cats_past, valid_past, cfg):
    """Past row of the mask against one past frame with (K, K) ``cost``."""
    cats_cur, cats_past = np.asarray(cats_cur), np.asarray(cats_past)[None]
    mask = motion_mask(cost[None], cats_cur, cats_past, np.asarray(valid_past)[None], cfg)
    assert np.array_equal(mask[1], np.ones(cost.shape[0]))
    return mask[0]


# --- padding ---

def test_pad_counts():
    frames = [
        [query_at([float(i), 0, 0]) for i in range(3)],
        [query_at([float(i), 1, 0]) for i in range(5)],
        [query_at([float(i), 2, 0]) for i in range(2)],
    ]
    seq = pad(frames)
    assert seq.k_queries == 5
    assert seq.n_frames == 3
    assert seq.current_index == 2
    invalid_counts = [int((~seq.valid[i]).sum()) for i in range(3)]
    assert invalid_counts == [2, 0, 3]
    assert np.array_equal(seq.scores[2], [0.09, 0.1, 0, 0, 0])


def test_pad_equal_counts_untouched():
    frames = [[query_at([1.0, 0, 0])], [query_at([2.0, 0, 0])]]
    seq = pad(frames)
    assert seq.k_queries == 1
    assert seq.valid.all()


def test_pad_single_frame():
    seq = pad([[query_at([float(i), 0, 0]) for i in range(7)]])
    assert seq.k_queries == 7
    assert seq.n_frames == 1
    assert seq.current_index == 0


def test_padding_query_shape():
    """The padding slot of frame 3 is zero, invalid, category -1 and score 0."""
    frames = [[query_at([1.0, 2.0, 3.0], category=2, d=8)] for _ in range(3)] + [[]]
    seq = pad(frames)
    assert seq.n_frames == 4
    assert not seq.valid[3, 0]
    assert seq.cats[3, 0] == -1
    assert seq.scores[3, 0] == 0.0
    assert np.array_equal(seq.embeddings[3, 0], np.zeros(8))
    assert np.array_equal(seq.centers3d[3, 0], np.zeros(3))


# --- cost matrix ---

def test_cost_identical_centers_zero_diagonal():
    centers = np.array([[0.0, 0, 0], [3.0, 4.0, 0], [1.0, 1.0, 1.0]])
    validity = np.ones((3, 2), dtype=bool)
    cost = cost_one(centers, centers, validity)
    assert np.array_equal(np.diag(cost), np.zeros(3))


def test_cost_345_triangle():
    cur = np.array([[0.0, 0.0, 0.0]])
    past = np.array([[3.0, 4.0, 0.0]])
    cost = cost_one(cur, past, np.ones((1, 2), dtype=bool))
    assert cost[0, 0] == 5.0


def test_cost_invalid_column_is_inf():
    cur = np.zeros((2, 3))
    past = np.zeros((2, 3))
    validity = np.array([[True, True], [True, False]])
    cost = cost_one(cur, past, validity)
    assert np.all(cost[:, 1] == INVALID_COST)
    assert np.all(np.isfinite(cost[:, 0]))


def test_cost_invalid_row_is_inf():
    validity = np.array([[False, True], [True, True]])
    cost = cost_one(np.zeros((2, 3)), np.zeros((2, 3)), validity)
    assert np.all(cost[0, :] == INVALID_COST)


# --- elimination mask ---

def test_mask_example_two_slots():
    # slot 0 sits 0.2 m from a same-category current slot, slot 1 is far
    cur = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    past = np.array([[0.2, 0.0, 0.0], [4.0, 4.0, 0.0]])
    assert abs(np.linalg.norm(past[1]) - 5.656854249492381) < 1e-12
    cost = cost_one(cur, past, np.ones((2, 2), dtype=bool))
    mask = mask_one(cost, [0, 1], [0, 1], [True, True], MotionElimConfig(alpha=0.5))
    assert np.array_equal(mask, [0, 1])


def test_mask_alpha_zero_keeps_everything():
    rng = np.random.default_rng(137)
    cur = rng.uniform(-5, 5, size=(4, 3))
    past = cur + rng.uniform(0.01, 1.0, size=(4, 3))
    cost = cost_one(cur, past, np.ones((4, 2), dtype=bool))
    mask = mask_one(
        cost, np.zeros(4, int), np.zeros(4, int), np.ones(4, bool), MotionElimConfig(alpha=0.0)
    )
    assert np.array_equal(mask, np.ones(4, dtype=np.int8))


def test_mask_category_veto():
    cur = np.array([[0.0, 0.0, 0.0]])
    past = np.array([[0.1, 0.0, 0.0]])
    cost = cost_one(cur, past, np.ones((1, 2), dtype=bool))
    vetoed = mask_one(cost, [0], [1], [True], MotionElimConfig(alpha=0.5))
    assert np.array_equal(vetoed, [1])


def test_mask_invalid_past_slot_always_zero():
    cur = np.zeros((2, 3))
    past = np.full((2, 3), 100.0)
    validity = np.array([[True, True], [True, False]])
    cost = cost_one(cur, past, validity)
    mask = mask_one(cost, [0, 0], [0, 0], validity[:, 1], MotionElimConfig(alpha=0.5))
    assert mask[1] == 0


def test_mask_matches_brute_force():
    rng = np.random.default_rng(139)
    for _ in range(100):
        k = int(rng.integers(1, 8))
        cur = rng.uniform(-6, 6, size=(k, 3))
        past = rng.uniform(-6, 6, size=(k, 3))
        validity = rng.uniform(size=(k, 2)) < 0.8
        cats_cur = rng.integers(0, 3, size=k)
        cats_past = rng.integers(0, 3, size=k)
        alpha = float(rng.uniform(0.0, 8.0))
        cfg = MotionElimConfig(alpha=alpha)
        cost = cost_one(cur, past, validity)
        got = mask_one(cost, cats_cur, cats_past, validity[:, 1], cfg)
        want = np.ones(k, dtype=np.int8)
        for n in range(k):
            if not validity[n, 1]:
                want[n] = 0
                continue
            for m in range(k):
                if not validity[m, 0]:
                    continue
                if np.linalg.norm(cur[m] - past[n]) > alpha:
                    continue
                if cats_cur[m] != cats_past[n]:
                    continue
                want[n] = 0
        assert np.array_equal(got, want)


def test_mask_monotone_in_alpha():
    rng = np.random.default_rng(149)
    for _ in range(25):
        k = 5
        cur = rng.uniform(-4, 4, size=(k, 3))
        past = rng.uniform(-4, 4, size=(k, 3))
        cost = cost_one(cur, past, np.ones((k, 2), dtype=bool))
        cats = np.zeros(k, dtype=int)
        prev = None
        for alpha in sorted(rng.uniform(0.0, 10.0, size=4)):
            mask = mask_one(cost, cats, cats, np.ones(k, bool), MotionElimConfig(alpha=alpha))
            if prev is not None:
                assert np.all(mask <= prev)
            prev = mask




# --- one batch over all past frames ---

def random_window(rng, p, k):
    """Current centers, P past frames of aligned centers, flags and categories."""
    return (
        rng.uniform(-6, 6, size=(k, 3)),
        rng.uniform(-6, 6, size=(p, k, 3)),
        rng.uniform(size=k) < 0.8,
        rng.uniform(size=(p, k)) < 0.8,
        rng.integers(0, 3, size=k),
        rng.integers(0, 3, size=(p, k)),
    )


def test_batch_equals_one_frame_at_a_time():
    """The batched cost and mask equal a per-frame computation bit for bit."""
    rng = np.random.default_rng(157)
    for _ in range(40):
        p, k = int(rng.integers(1, 16)), int(rng.integers(1, 12))
        cur, past, cur_valid, past_valid, cats_cur, cats_past = random_window(rng, p, k)
        cfg = MotionElimConfig(alpha=float(rng.uniform(0.5, 4.0)))
        cost = motion_cost(cur, past, cur_valid, past_valid)
        mask = motion_mask(cost, cats_cur, cats_past, past_valid, cfg)
        assert cost.shape == (p, k, k) and mask.shape == (p + 1, k)
        for i in range(p):
            want = np.linalg.norm(cur[:, None, :] - past[i][None, :, :], axis=-1)
            want[~cur_valid, :] = INVALID_COST
            want[:, ~past_valid[i]] = INVALID_COST
            assert np.array_equal(cost[i], want)
            close = want <= cfg.alpha
            close &= cats_cur[:, None] == cats_past[i][None, :]
            assert np.array_equal(mask[i], ~close.any(axis=0) & past_valid[i])


def test_mask_is_read_only_int64_with_current_row_kept():
    rng = np.random.default_rng(163)
    cur, past, cur_valid, past_valid, cats_cur, cats_past = random_window(rng, 3, 5)
    cost = motion_cost(cur, past, cur_valid, past_valid)
    mask = motion_mask(cost, cats_cur, cats_past, past_valid, MotionElimConfig(alpha=20.0))
    assert mask.dtype == np.int64 and not mask.flags.writeable
    assert np.array_equal(mask[-1], np.ones(5))


def test_no_past_frames():
    """A one-frame window has an empty cost tensor and keeps its current row."""
    no_past = np.ones((0, 4), bool)
    cost = motion_cost(np.zeros((4, 3)), np.zeros((0, 4, 3)), np.ones(4, bool), no_past)
    assert cost.shape == (0, 4, 4)
    mask = motion_mask(cost, np.zeros(4, int), np.zeros((0, 4), int), no_past, MotionElimConfig())
    assert np.array_equal(mask, np.ones((1, 4)))


# --- mask application ---

def test_apply_all_ones_identity():
    frames = [
        [query_at([1.0, 0, 0]), query_at([4.0, 0, 0])],
        [query_at([1.5, 0, 0]), query_at([4.5, 0, 0])],
    ]
    seq = pad(frames)
    operand = apply_motion_mask(seq, np.ones((2, 2), dtype=np.int64))
    assert operand.shape == (2, 2, 6) and not operand.flags.writeable
    assert np.array_equal(operand, seq.embeddings)


def test_apply_zeros_blanks_past_only():
    frames = [
        [query_at([1.0, 0, 0])],
        [query_at([2.0, 0, 0])],
    ]
    seq = pad(frames)
    operand = apply_motion_mask(seq, np.zeros((2, 1), dtype=np.int64))
    assert np.array_equal(operand[0], np.zeros((1, 6)))
    # the current frame ignores its mask row, and the window is left as it is
    assert np.array_equal(operand[1], seq.embeddings[1])
    assert seq.valid.all() and np.array_equal(seq.cats, [[0], [0]])


def test_apply_survivor_count_matches_mask():
    rng = np.random.default_rng(151)
    frames = [
        [query_at([float(j), float(i), 0]) for j in range(4)]
        for i in range(3)
    ]
    seq = pad(frames)
    rows = np.stack([rng.integers(0, 2, size=4) for _ in range(3)])
    operand = apply_motion_mask(seq, rows)
    survivors = operand.any(axis=-1)  # the nonzero rows
    for i in range(2):
        assert int(survivors[i].sum()) == int(rows[i].sum())
    assert int(survivors[2].sum()) == 4

