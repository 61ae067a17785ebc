import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bellsym.rng as rng_module
from bellsym.rng import check_range, derived_rng, fill_normals

MAX_SEED = 2**64 - 1
MAX_INDEX = 2**56 - 1


def reference(shape, seed, stream, indices) -> np.ndarray:
    """Rows of ``shape``, each drawn from its item's own ``derived_rng``."""
    out = np.empty((len(indices),) + shape)
    for row, index in zip(out, indices):
        row[...] = derived_rng(seed, stream, index).standard_normal(shape)
    return out


# rows of at most four normals take the kernel, wider rows the per-item loop
@pytest.mark.parametrize("row_shape", [(1,), (2,), (3,), (4,), (2, 2), (5,),
                                       (32,), (2, 4, 4)])
@pytest.mark.parametrize("seed,stream,indices", [
    (0, 0, range(3000)),
    (7, 1, range(MAX_INDEX - 1, MAX_INDEX + 1)),
    (2**63, 0, range(MAX_INDEX - 1999, MAX_INDEX + 1)),
    (MAX_SEED, 255, range(MAX_INDEX - 1999, MAX_INDEX + 1)),
    (2**63 + 12345, 255, range(MAX_INDEX, -1, -(MAX_INDEX // 1999))),
    (MAX_SEED, 3, range(MAX_INDEX, -1, -MAX_INDEX)),
    (MAX_SEED, 3, range(MAX_INDEX, MAX_INDEX + 1)),
    (9, 1, range(7, 10**30, 10**30)),     # one index, stop beyond int64
    (5, 0, range(0)),
])
def test_fill_normals_matches_derived_rng(row_shape, seed, stream, indices):
    shape = (len(indices),) + row_shape
    out = fill_normals(np.empty(shape), seed, stream, indices)
    assert out.tobytes() == reference(row_shape, seed, stream,
                                      indices).tobytes()


@pytest.mark.parametrize("row_shape", [(3,), (8,)])
def test_fill_normals_matches_derived_rng_on_every_stream(row_shape):
    for stream in range(256):
        indices = range(stream, stream + 1)
        out = fill_normals(np.empty((1,) + row_shape), MAX_SEED, stream,
                           indices)
        assert np.array_equal(out, reference(row_shape, MAX_SEED, stream,
                                             indices))


@pytest.mark.parametrize("kernel_rows", [1, 7])
def test_kernel_passes_do_not_change_the_draw(monkeypatch, kernel_rows):
    indices = range(MAX_INDEX, -1, -(MAX_INDEX // 99))
    expected = reference((2,), MAX_SEED, 0, indices)
    monkeypatch.setattr(rng_module, "_KERNEL_ROWS", kernel_rows)
    out = fill_normals(np.empty((len(indices), 2)), MAX_SEED, 0, indices)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("row_shape", [(2,), (2, 4)])
def test_successive_ranges_draw_one_range(row_shape):
    # a run drawn in chunks, as the scans draw it, is one draw of its range
    whole = fill_normals(np.empty((5,) + row_shape), 9, 1, range(5))
    first = fill_normals(np.empty((3,) + row_shape), 9, 1, range(3))
    second = fill_normals(np.empty((2,) + row_shape), 9, 1, range(3, 5))
    assert np.concatenate((first, second)).tobytes() == whole.tobytes()


def test_indices_must_be_a_range():
    with pytest.raises(TypeError, match="range"):
        check_range(1, 2, [0, 1])
    with pytest.raises(TypeError, match="range"):
        fill_normals(np.empty((2, 2)), 1, 2, [0, 1])


@pytest.mark.parametrize("seed,stream", [
    (-1, 0), (2**64, 0), (0, -1), (0, 256),
])
def test_bad_seed_or_stream_rejected_eagerly(seed, stream):
    with pytest.raises(ValueError) as derived:
        derived_rng(seed, stream, 0)
    with pytest.raises(ValueError) as checked:
        check_range(seed, stream, range(0))
    with pytest.raises(ValueError) as filled:
        fill_normals(np.empty((0, 2)), seed, stream, range(0))
    assert str(checked.value) == str(filled.value) == str(derived.value)


# a whole float once drew one stream through derived_rng and another
# through fill_normals' kernel
@pytest.mark.parametrize("seed", [1.0, 1.5, np.float64(2.0)])
def test_non_integer_seed_rejected_everywhere(seed):
    with pytest.raises(TypeError):
        derived_rng(seed, 0, 0)
    with pytest.raises(TypeError):
        check_range(seed, 0, range(0))
    with pytest.raises(TypeError):
        fill_normals(np.empty((1, 2)), seed, 0, range(1))


@pytest.mark.parametrize("width", [2, 8])
def test_numpy_integer_seed_draws_its_value(width):
    out = fill_normals(np.empty((3, width)), np.uint64(7), 1, range(3))
    assert out.tobytes() == reference((width,), 7, 1, range(3)).tobytes()
    assert derived_rng(np.uint64(7), 1, 0).standard_normal(width).tobytes() \
        == out[0].tobytes()


@pytest.mark.parametrize("width", [2, 8])
@pytest.mark.parametrize("index", [-1, 2**56])
def test_bad_index_rejected(index, width):
    # the range [0, index] is refused before its valid item 0 is drawn
    with pytest.raises(ValueError, match="index") as derived:
        derived_rng(0, 0, index)
    out = np.full((2, width), np.nan)
    with pytest.raises(ValueError) as filled:
        fill_normals(out, 0, 0, range(0, 2 * index, index))
    assert str(filled.value) == str(derived.value)
    assert np.isnan(out).all()


def test_seeds_above_2_63_keep_distinct_streams():
    # such seeds were once rounded through float64: 2^63 + 1 drew the
    # streams of 2^63, and 2^64 - 1 those of seed 0
    seeds = (0, 2**63, 2**63 + 1, MAX_SEED)
    first = {seed: derived_rng(seed, 0, 0).standard_normal(4).tobytes()
             for seed in seeds}
    assert len(set(first.values())) == 4
    for seed in seeds:
        out = fill_normals(np.empty((1, 4)), seed, 0, range(1))
        assert out.tobytes() == first[seed]


@pytest.mark.parametrize("indices", [
    range(2**56 + 1), range(-1, 3), range(2**56, 0, -1), range(10**30),
])
def test_out_of_range_index_range_rejected_up_front(indices):
    with pytest.raises(ValueError, match="index"):
        check_range(0, 0, indices)
    with pytest.raises(ValueError, match="index"):
        fill_normals(np.empty((0, 2)), 0, 0, indices)


def test_full_index_range_accepted():
    check_range(0, 0, range(2**56))
    ends = range(0, 2**56, MAX_INDEX)
    assert fill_normals(np.empty((2, 2)), 0, 0, ends).tobytes() == \
        reference((2,), 0, 0, ends).tobytes()


def test_fill_normals_checks_rows():
    with pytest.raises(ValueError, match="rows"):
        fill_normals(np.empty((3, 2)), 0, 0, range(4))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        fill_normals(np.empty((4, 2))[::2], 0, 0, range(2))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        fill_normals(np.empty((2, 8), dtype=np.float32), 0, 0, range(2))


# the kernel: the first Philox block of each item, drawn in numpy

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


def record_fallback_rows(monkeypatch) -> list:
    """Indices that the kernel redraws through the per-item loop."""
    redrawn = []
    per_item = rng_module._per_item

    def recording(rows, seed, word, indices):
        redrawn.extend(indices)
        per_item(rows, seed, word, indices)
    monkeypatch.setattr(rng_module, "_per_item", recording)
    return redrawn


def test_every_row_falls_back_without_a_fast_path(monkeypatch):
    indices = range(2**40, 2**40 + 500)
    expected = reference((2,), MAX_SEED, 7, indices)
    wi, ki = rng_module._ziggurat_tables()
    monkeypatch.setattr(rng_module, "_ziggurat_tables",
                        lambda: (wi, np.zeros_like(ki)))
    redrawn = record_fallback_rows(monkeypatch)
    out = fill_normals(np.empty((500, 2)), MAX_SEED, 7, indices)
    assert redrawn == list(indices)
    assert out.tobytes() == expected.tobytes()


def test_fast_path_takes_most_rows_of_two(monkeypatch):
    # an emptied or stale table still draws the right bits, only slower
    redrawn = record_fallback_rows(monkeypatch)
    fill_normals(np.empty((20000, 2)), 11, 0, range(20000))
    assert 0 < len(redrawn) <= 0.05 * 20000


@pytest.mark.parametrize("width", [1, 2, 4])
def test_temporaries_fit_16_words_per_kernel_row(width):
    # a kernel pass holds at most 16 8-byte words per row, whatever the
    # number of rows drawn
    shape = (20000, width)
    fill_normals(np.empty((1, width)), 1, 0, range(1))  # builds the tables
    tracemalloc.start()
    try:
        out = fill_normals(np.empty(shape), 2, 0, range(shape[0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * 16 * rng_module._KERNEL_ROWS
