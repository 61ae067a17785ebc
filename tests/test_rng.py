import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellsym.rng as rng_module
from bellsym.rng import (SHORT_ROW_WORDS, derived_rng, fill_normals,
                         fill_short_normals, item_rngs)

MAX_SEED = 2**64 - 1
MAX_INDEX = 2**56 - 1


def draws(rng: np.random.Generator) -> list:
    # normals, doubles and 32-bit integers use the generator's buffers
    # differently; a re-keyed stream must reset all of them
    return [rng.standard_normal(5), rng.integers(0, 2**31, size=3,
                                                 dtype=np.int32),
            rng.random(3), rng.integers(0, 7, size=1, dtype=np.int32)]


def assert_same_draws(a: np.random.Generator, b: np.random.Generator):
    for x, y in zip(draws(a), draws(b)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("seed,stream,indices", [
    (0, 0, range(3)),
    (7, 1, range(MAX_INDEX - 1, MAX_INDEX + 1)),
    (MAX_SEED, 3, range(MAX_INDEX, -1, -MAX_INDEX)),
    (MAX_SEED, 255, range(MAX_INDEX, MAX_INDEX + 1)),
])
def test_item_rngs_match_derived_rng(seed, stream, indices):
    for index, rng in zip(indices, item_rngs(seed, stream, indices)):
        assert_same_draws(rng, derived_rng(seed, stream, index))


def test_item_rngs_match_derived_rng_on_every_stream():
    for stream in range(256):
        (rng,) = item_rngs(MAX_SEED, stream, range(stream, stream + 1))
        assert np.array_equal(rng.standard_normal(3),
                              derived_rng(MAX_SEED, stream, stream)
                              .standard_normal(3))


def test_item_rngs_yield_one_generator_per_index():
    assert len(list(item_rngs(1, 2, range(10)))) == 10
    assert list(item_rngs(1, 2, range(0))) == []


def test_indices_must_be_a_range():
    with pytest.raises(TypeError, match="range"):
        item_rngs(1, 2, [0, 1])


def test_fill_normals_takes_one_stream_per_row():
    # two chunks share one iterator: rows 0-2, then rows 3-4
    rngs = item_rngs(9, 1, range(5))
    first = fill_normals(np.empty((3, 2, 4)), rngs)
    second = fill_normals(np.empty((2, 2, 4)), rngs)
    for index, row in enumerate(np.concatenate((first, second))):
        assert np.array_equal(row,
                              derived_rng(9, 1, index).standard_normal((2, 4)))
    assert list(rngs) == []


@pytest.mark.parametrize("seed,stream", [
    (-1, 0), (2**64, 0), (0, -1), (0, 256),
])
def test_bad_seed_or_stream_rejected_eagerly(seed, stream):
    with pytest.raises(ValueError) as derived:
        derived_rng(seed, stream, 0)
    with pytest.raises(ValueError) as rekeyed:
        item_rngs(seed, stream, range(0))
    assert str(rekeyed.value) == str(derived.value)


@pytest.mark.parametrize("index", [-1, 2**56])
def test_bad_index_rejected(index):
    # the range [0, index] is refused before its valid item 0 is drawn
    with pytest.raises(ValueError, match="index") as derived:
        derived_rng(0, 0, index)
    with pytest.raises(ValueError) as rekeyed:
        item_rngs(0, 0, range(0, 2 * index, index))
    assert str(rekeyed.value) == str(derived.value)


def test_seeds_above_2_63_keep_distinct_streams():
    # such seeds were once rounded through float64: 2^63 + 1 drew the
    # streams of 2^63, and 2^64 - 1 those of seed 0
    first = {seed: derived_rng(seed, 0, 0).standard_normal(4).tobytes()
             for seed in (0, 2**63, 2**63 + 1, MAX_SEED)}
    assert len(set(first.values())) == 4


@pytest.mark.parametrize("indices", [
    range(2**56 + 1), range(-1, 3), range(2**56, 0, -1), range(10**30),
])
def test_out_of_range_index_range_rejected_up_front(indices):
    with pytest.raises(ValueError, match="index"):
        item_rngs(0, 0, indices)


def test_full_index_range_accepted():
    rngs = item_rngs(0, 0, range(2**56))
    assert np.array_equal(next(rngs).standard_normal(2),
                          derived_rng(0, 0, 0).standard_normal(2))


# fill_short_normals: the first Philox block of each item, drawn in numpy

@settings(derandomize=True, max_examples=200, deadline=None)
@given(seed=st.one_of(st.sampled_from([0, 2**63, MAX_SEED]),
                      st.integers(0, MAX_SEED)),
       words=st.lists(st.one_of(st.sampled_from([0, 2**63, MAX_SEED]),
                                st.integers(0, MAX_SEED)),
                      min_size=1, max_size=6))
def test_philox_kernel_matches_random_raw(seed, words):
    block = rng_module._philox_block1(seed, np.array(words, dtype=np.uint64))
    for word, column in zip(words, np.array(block).T):
        key = np.array([seed, word], dtype=np.uint64)
        assert np.array_equal(column, np.random.Philox(key=key).random_raw(4))


def short_reference(shape, seed, stream, indices):
    return fill_normals(np.empty(shape), item_rngs(seed, stream, indices))


@pytest.mark.parametrize("row_shape", [(1,), (2,), (3,), (4,), (2, 2)])
@pytest.mark.parametrize("seed,stream,indices", [
    (0, 0, range(3000)),
    (2**63, 0, range(MAX_INDEX - 1999, MAX_INDEX + 1)),
    (MAX_SEED, 255, range(MAX_INDEX - 1999, MAX_INDEX + 1)),
    (2**63 + 12345, 255, range(MAX_INDEX, -1, -(MAX_INDEX // 1999))),
    (MAX_SEED, 3, range(MAX_INDEX, MAX_INDEX + 1)),
    (9, 1, range(7, 10**30, 10**30)),     # one index, stop beyond int64
    (5, 0, range(0)),
])
def test_fill_short_normals_matches_fill_normals(row_shape, seed, stream,
                                                 indices):
    shape = (len(indices),) + row_shape
    out = fill_short_normals(np.empty(shape), seed, stream, indices)
    assert out.tobytes() == short_reference(shape, seed, stream,
                                            indices).tobytes()


def record_fallback_rows(monkeypatch) -> list:
    """Indices that fill_short_normals redraws through the per-item route."""
    redrawn = []
    rekeyed = rng_module._rekeyed

    def recording(seed, word, indices):
        return rekeyed(seed, word, (redrawn.append(i) or i for i in indices))
    monkeypatch.setattr(rng_module, "_rekeyed", recording)
    return redrawn


def test_every_row_falls_back_without_a_fast_path(monkeypatch):
    indices = range(2**40, 2**40 + 500)
    expected = short_reference((500, 2), MAX_SEED, 7, indices)
    wi, ki = rng_module._ziggurat_tables()
    monkeypatch.setattr(rng_module, "_ziggurat_tables",
                        lambda: (wi, np.zeros_like(ki)))
    redrawn = record_fallback_rows(monkeypatch)
    out = fill_short_normals(np.empty((500, 2)), MAX_SEED, 7, indices)
    assert redrawn == list(indices)
    assert out.tobytes() == expected.tobytes()


def test_fast_path_takes_most_rows_of_two(monkeypatch):
    # an emptied or stale table still draws the right bits, only slower
    redrawn = record_fallback_rows(monkeypatch)
    fill_short_normals(np.empty((20000, 2)), 11, 0, range(20000))
    assert 0 < len(redrawn) <= 0.05 * 20000


@pytest.mark.parametrize("shape", [(3, 5), (3, 2, 3)])
def test_fill_short_normals_refuses_rows_beyond_one_block(shape):
    with pytest.raises(ValueError, match="at most 4"):
        fill_short_normals(np.empty(shape), 0, 0, range(3))


def test_fill_short_normals_checks_rows_and_range():
    with pytest.raises(ValueError, match="rows"):
        fill_short_normals(np.empty((3, 2)), 0, 0, range(4))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        fill_short_normals(np.empty((4, 2))[::2], 0, 0, range(2))
    with pytest.raises(ValueError, match="index"):
        fill_short_normals(np.empty((2, 2)), 0, 0, range(MAX_INDEX, 2**56 + 1))
    with pytest.raises(TypeError, match="range"):
        fill_short_normals(np.empty((2, 2)), 0, 0, [0, 1])


@pytest.mark.parametrize("width", [1, 4])
def test_fill_short_normals_temporaries_fit_short_row_words(width):
    out = np.empty((4096, width))
    fill_short_normals(out, 1, 0, range(4096))    # tables built outside
    tracemalloc.start()
    try:
        fill_short_normals(out, 2, 0, range(4096))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * SHORT_ROW_WORDS * len(out)
