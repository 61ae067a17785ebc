"""Deterministic, splittable random streams.

Every stochastic routine derives one counter-based generator per work item
from ``(seed, stream, index)``. Distinct keys give statistically independent
Philox streams, results never depend on batching or thread count, and the
same seed can drive several subsystems without their draws overlapping.

Item ``index`` of ``stream`` under ``seed`` is the Philox stream with key
``[seed, (stream << 56) + index]`` and counter zero. :func:`derived_rng`
builds one such generator. A run draws its items, a ``range`` of indices,
through :func:`item_rngs`: it checks the range once, before any draw, then
re-keys a single Philox in place for each item, which draws what
:func:`derived_rng` would without building a new generator per item (a
counter-based generator's state is only its key and counter).
:func:`fill_normals` fills one row of an array per item, the draw every
scan, Monte-Carlo run and optimizer start makes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["derived_rng", "item_rngs", "fill_normals", "TRAJECTORY",
           "HAAR_SCAN", "OPT_RESTART", "FEASIBLE_SCAN"]

# stream namespaces
TRAJECTORY = 0
HAAR_SCAN = 1
OPT_RESTART = 2
FEASIBLE_SCAN = 3

_MAX_SEED = 2**64
_MAX_INDEX = 2**56


def _item_word(seed: int, stream: int, index: int) -> int:
    """Second key word of the item, after range checks of all three."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if not 0 <= stream < 256:
        raise ValueError(f"stream must be in [0, 255], got {stream}")
    if not 0 <= index < _MAX_INDEX:
        raise ValueError(f"index must be in [0, 2^56), got {index}")
    return (stream << 56) + index


def derived_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for work item ``index`` of ``stream`` under ``seed``."""
    key = np.array([seed, _item_word(seed, stream, index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def item_rngs(seed: int, stream: int,
              indices: range) -> Iterator[np.random.Generator]:
    """Generators of the work items ``indices`` of ``stream`` under ``seed``.

    Each yielded generator draws exactly what ``derived_rng(seed, stream,
    index)`` would. It is one generator object, re-keyed in place before
    each yield, so draw from it before advancing the iterator. Seed, stream
    and the range's first and last index are checked here, before any draw.
    """
    word = _item_word(seed, stream, 0)
    if not isinstance(indices, range):
        raise TypeError(f"indices must be a range, got {type(indices)}")
    if indices:
        _item_word(seed, stream, indices[0])
        _item_word(seed, stream, indices[-1])
    return _rekeyed(seed, word, indices)


def fill_normals(out: np.ndarray,
                 rngs: Iterator[np.random.Generator]) -> np.ndarray:
    """Fill each row ``out[i]`` with standard normals from the next of ``rngs``.

    Takes exactly ``len(out)`` generators from ``rngs``, so successive chunks
    of one run can share the iterator. Rows must be C-contiguous.
    """
    for row, rng in zip(out, rngs):
        rng.standard_normal(out=row)
    return out


def _rekeyed(seed: int, word: int,
             indices: range) -> Iterator[np.random.Generator]:
    key = np.array([seed, word], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    # the state of a fresh Philox: counter zero, output buffer empty
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for index in indices:
        key[1] = word + index
        bitgen.state = state
        yield gen
