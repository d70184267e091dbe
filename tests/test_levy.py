import numpy as np
import pytest

from sirlevy import LevyPathNoise, sample_lambda
from sirlevy.levy import (
    LARGE_JUMP_THRESHOLD,
    MARK_WEIGHTS_1D,
    MARK_WEIGHTS_3D,
    MARKS_1D,
    MARKS_3D,
    _mark_index,
    draw_jumps,
    seed_sequence,
    stream,
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_lambda_support_and_law():
    rng = _rng(0)
    draws = np.array([sample_lambda(rng) for _ in range(100_000)])
    assert set(np.unique(draws)) <= {1, 2, 3, 4}
    freqs = np.bincount(draws, minlength=5)[1:] / draws.size
    assert np.all(np.abs(freqs - 0.25) < 0.01)


def test_lambda_reproducible():
    assert [sample_lambda(_rng(42)) for _ in range(5)] == [sample_lambda(_rng(42)) for _ in range(5)]


def test_jump_count_mean_matches_poisson_law():
    counts = [LevyPathNoise(seed, 1.0, 1.0, 3).jump_count for seed in range(100_000)]
    assert np.mean(counts) == pytest.approx(1.0, abs=0.02)


def test_mark_law_two_to_one():
    noise = LevyPathNoise(123, 4.0, 30_000.0, 3)
    n = noise.jump_count
    assert n > 100_000
    first = np.sum(np.all(noise.jump_marks == MARKS_3D[0], axis=1)) / n
    assert first == pytest.approx(2.0 / 3.0, abs=0.02 * 2.0 / 3.0)


def test_scalar_marks_balanced():
    noise = LevyPathNoise(7, 4.0, 30_000.0, 1)
    frac = np.mean(noise.jump_marks[:, 0] > 0)
    assert frac == pytest.approx(0.5, abs=0.01)


def test_tiny_horizon_has_no_jumps():
    for seed in range(200):
        assert LevyPathNoise(seed, 4.0, 1e-9, 3).jump_count == 0


def test_every_mark_clears_large_jump_threshold():
    # the driving law's vector marks clear the threshold strictly, so no
    # compensated small-jump term ever arises; the scalar driver keeps the
    # per-component magnitude 0.1 as its jump effect
    assert np.all(np.linalg.norm(MARKS_3D, axis=1) > LARGE_JUMP_THRESHOLD)
    assert np.all(np.abs(MARKS_1D[:, 0]) >= LARGE_JUMP_THRESHOLD)
    noise = LevyPathNoise(11, 4.0, 1000.0, 3)
    assert np.all(np.linalg.norm(noise.jump_marks, axis=1) > LARGE_JUMP_THRESHOLD)


def test_jump_times_sorted_in_range():
    noise = LevyPathNoise(9, 3.0, 5.0, 3)
    t = noise.jump_times
    assert np.all(np.diff(t) > 0)
    assert t.size == 0 or (t[0] > 0.0 and t[-1] <= 5.0)
    assert noise.jump_marks.shape == (t.size, 3)


def test_brownian_moments():
    noise = LevyPathNoise(21, 0.0, 1.0, 1)
    draws = noise.brownian_increments(np.full(100_000, 0.01))[:, 0]
    assert draws.var() == pytest.approx(0.01, rel=0.05)
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean()) <= 3 * se


def test_brownian_batch_equals_sequential():
    a = LevyPathNoise(5, 2.0, 1.0, 3)
    b = LevyPathNoise(5, 2.0, 1.0, 3)
    bounds = np.array([0.0, 0.1, 0.3, 0.35, 0.65])
    batch = a.brownian_increments(np.diff(bounds))
    for i in range(bounds.size - 1):
        inc = b.brownian_increments(np.array([bounds[i + 1] - bounds[i]]))[0]
        assert np.array_equal(batch[i], inc)

    dts = np.diff(bounds)
    for dim in (1, 3):
        # fills of n and then m rows continue one stream: they equal one fill of n + m
        whole = LevyPathNoise(5, 2.0, 1.0, dim).fill_normals(np.empty((7, dim)))
        split = LevyPathNoise(5, 2.0, 1.0, dim)
        parts = [split.fill_normals(np.empty((n, dim))) for n in (3, 4)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        # the increments are the primitive's normals times sqrt(dts), bit for bit
        incs = LevyPathNoise(5, 2.0, 1.0, dim).brownian_increments(dts)
        normals = LevyPathNoise(5, 2.0, 1.0, dim).fill_normals(np.empty((dts.size, dim)))
        assert incs.tobytes() == (normals * np.sqrt(dts)[:, None]).tobytes()


def test_fill_normals_rejects_arrays_it_would_fill_out_of_order():
    noise = LevyPathNoise(5, 2.0, 1.0, 3)
    # wrong width, one dimension, column order, strided rows
    for out in (np.empty((4, 1)), np.empty(3), np.empty((4, 3), order="F"), np.empty((4, 6))[:, ::2]):
        with pytest.raises(ValueError):
            noise.fill_normals(out)


def test_brownian_requires_ordered_interval():
    noise = LevyPathNoise(5, 1.0, 1.0, 3)
    with pytest.raises(ValueError):
        noise.brownian_increments(np.array([0.5 - 0.5]))


def test_path_is_pure_function_of_seed():
    a = LevyPathNoise(99, 3.0, 2.0, 3)
    b = LevyPathNoise(99, 3.0, 2.0, 3)
    assert np.array_equal(a.jump_times, b.jump_times)
    assert np.array_equal(a.jump_marks, b.jump_marks)
    assert np.array_equal(a.brownian_increments(np.array([0.5]))[0], b.brownian_increments(np.array([0.5]))[0])


def test_constructor_validation():
    with pytest.raises(ValueError):
        LevyPathNoise(1, 1.0, 1.0, 2)
    with pytest.raises(ValueError):
        LevyPathNoise(1, -1.0, 1.0, 3)
    with pytest.raises(ValueError):
        LevyPathNoise(1, 1.0, 0.0, 3)


def _skeleton_drawn_inline(seed, rate, horizon, dim):
    """The jump skeleton in its historical draw order, written out without draw_jumps."""
    rng = _rng(seed)
    count = int(rng.poisson(rate * horizon))
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    marks, weights = (MARKS_3D, MARK_WEIGHTS_3D) if dim == 3 else (MARKS_1D, MARK_WEIGHTS_1D)
    return rng, times, marks[rng.choice(len(marks), size=count, p=weights)]


@pytest.mark.parametrize("dim", [1, 3])
def test_draw_jumps_sorted_is_the_path_skeleton(dim):
    for seed in range(300):
        ref_rng, ref_times, ref_marks = _skeleton_drawn_inline(seed, 3.0, 2.0, dim)
        rng = _rng(seed)
        times, marks = draw_jumps(rng, 3.0, 2.0, dim)
        noise = LevyPathNoise(seed, 3.0, 2.0, dim)
        assert np.sort(times).tobytes() == ref_times.tobytes() == noise.jump_times.tobytes()
        assert marks.tobytes() == ref_marks.tobytes() == noise.jump_marks.tobytes()
        assert marks.shape == (times.size, dim)
        # the Brownian draws start where the skeleton's draws end
        inc = ref_rng.standard_normal(dim)
        assert np.array_equal(rng.standard_normal(dim), inc)
        assert np.array_equal(noise.brownian_increments(np.array([1.0]))[0], inc)


def test_mark_index_is_choice_with_weights():
    # numpy's choice with p searches one uniform per draw in the weights' cdf;
    # the constant cdfs must give its indices and leave the stream where it does
    for seed in range(3000):
        for dim, weights in ((3, MARK_WEIGHTS_3D), (1, MARK_WEIGHTS_1D)):
            ours, ref = stream(seed, dim), stream(seed, dim)
            for count in range(7):
                expected = ref.choice(len(weights), size=count, p=weights)
                assert np.array_equal(_mark_index(ours, count, dim), expected)
            assert ours.random() == ref.random()


def test_stream_is_the_hand_built_generator():
    for seed, key in ((0, (1,)), (20250809, (3, 0)), (7, (0, 2, 1)), (11, (53,))):
        hand = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key)))
        assert np.array_equal(stream(seed, *key).random(8), hand.random(8))


def test_seed_sequence_is_the_hand_built_one():
    for seed, key in ((0, (1,)), (20250809, (3, 0)), (7, (0, 2, 1)), (11, (999,))):
        hand = np.random.SeedSequence(entropy=seed, spawn_key=key)
        ours = seed_sequence(seed, *key)
        assert ours.spawn_key == hand.spawn_key and ours.entropy == hand.entropy
        assert np.array_equal(ours.generate_state(4), hand.generate_state(4))
