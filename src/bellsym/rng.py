"""Deterministic, splittable random streams.

Every stochastic routine derives one counter-based generator per work item
from ``(seed, stream, index)``. Distinct keys give statistically independent
Philox streams, results never depend on batching or thread count, and the
same seed can drive several subsystems without their draws overlapping.

Item ``index`` of ``stream`` under ``seed`` is the Philox stream with key
``[seed, (stream << 56) + index]`` and counter zero. :func:`derived_rng`
builds one such generator. A run draws its items, a ``range`` of indices,
through :func:`fill_normals`, which fills one row of an array with the
standard normals of each item. It checks the seed, the stream and the whole
range before any draw; :func:`check_range` makes the same checks alone, for
a caller that draws a range in several calls.

Rows of at most four normals, all Monte Carlo needs, are the first Philox
output block of their key, one 64-bit word per normal, and numpy's ziggurat
(Marsaglia & Tsang 2000) turns most words into a normal with one table
lookup and one product. The kernel computes the block of every key with
numpy integer arithmetic (Philox4x64-10; Salmon et al., SC'11) and applies
that fast path to all rows of a pass at once. The ziggurat tables are read
once per process from numpy's own sampler through Philox's public state,
each entry checked by a probe draw. A row with any word off the fast path
is redrawn whole from its own stream, and an entry the probes cannot
confirm puts all its words off the fast path, so it costs speed, not a
changed draw. Wider rows are drawn item by item, re-keying one Philox in
place, which draws what :func:`derived_rng` would without building a new
generator per item (a counter-based generator's state is only its key and
counter).
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

__all__ = ["derived_rng", "check_range", "fill_normals", "TRAJECTORY",
           "HAAR_SCAN", "OPT_RESTART", "FEASIBLE_SCAN"]

# stream namespaces
TRAJECTORY = 0
HAAR_SCAN = 1
OPT_RESTART = 2
FEASIBLE_SCAN = 3

_MAX_SEED = 2**64
_MAX_INDEX = 2**56

_BLOCK_WORDS = 4                  # 64-bit words of one Philox output block
# Rows of at most _BLOCK_WORDS normals the kernel draws per pass. A Philox
# round holds the running key, the four counter words and eight words of
# partial products, at most 16 8-byte words per row: 512 KiB a pass.
_KERNEL_ROWS = 4096

# Philox4x64-10: round multipliers and the Weyl increments of the key
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(2**32 - 1)
_32 = np.uint64(32)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> _32

# numpy's ziggurat normal: the low 8 bits of a word index the tables, bit 8
# is the sign and the next 52 bits the magnitude
_ZIG_SIGN_BIT = 8
_ZIG_MANTISSA = 52


def _range_word(seed: int, stream: int, indices: range) -> int:
    """Key word of index 0 of ``stream``, after checks of the whole range."""
    if not 0 <= seed < _MAX_SEED:
        raise ValueError("seed must be an unsigned 64-bit integer")
    if not 0 <= stream < 256:
        raise ValueError(f"stream must be in [0, 255], got {stream}")
    if not isinstance(indices, range):
        raise TypeError(f"indices must be a range, got {type(indices)}")
    for index in (indices[0], indices[-1]) if indices else ():
        if not 0 <= index < _MAX_INDEX:
            raise ValueError(f"index must be in [0, 2^56), got {index}")
    return stream << 56


def derived_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for work item ``index`` of ``stream`` under ``seed``."""
    word = _range_word(seed, stream, range(index, index + 1)) + index
    key = np.array([seed, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_range(seed: int, stream: int, indices: range) -> None:
    """Raise what :func:`fill_normals` would for ``seed``, ``stream`` and
    ``indices``, without drawing: ``TypeError`` unless ``indices`` is a
    range, ``ValueError`` for a seed, a stream or an index out of range."""
    _range_word(seed, stream, indices)


def fill_normals(out: np.ndarray, seed: int, stream: int,
                 indices: range) -> np.ndarray:
    """Fill each row ``out[i]`` with the standard normals of item
    ``indices[i]`` of ``stream`` under ``seed``.

    Row ``i`` is bitwise ``derived_rng(seed, stream, indices[i])
    .standard_normal(out.shape[1:])``. ``out`` is a C-contiguous float64
    array with one row per index. Seed, stream and the range's first and
    last index are checked before any draw. Memory beyond ``out`` is
    bounded for any number of rows.
    """
    word = _range_word(seed, stream, indices)
    if len(out) != len(indices):
        raise ValueError(f"{len(out)} rows for {len(indices)} indices")
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous float64 array")
    width = math.prod(out.shape[1:])
    rows = out.reshape(len(out), width)
    if width > _BLOCK_WORDS:
        _per_item(rows, seed, word, indices)
        return out
    for start in range(0, len(rows), _KERNEL_ROWS):
        _short_rows(rows[start:start + _KERNEL_ROWS], seed, word,
                    indices[start:start + _KERNEL_ROWS])
    return out


def _short_rows(rows: np.ndarray, seed: int, word: int,
                indices: range) -> None:
    """Rows (m, <= 4) from the first Philox block of each item."""
    # first + i * step: a range's stop, unlike its indices, may pass 2^63
    step = indices.step if len(indices) > 1 else 1
    words = (np.arange(len(indices), dtype=np.int64) * step
             + indices.start).view(np.uint64)
    words += np.uint64(word)
    fast = np.ones(len(rows), dtype=bool)
    for column, block_word in zip(rows.T, _philox_block1(seed, words)):
        column[...] = _ziggurat_fast_path(block_word, fast)
    slow = np.flatnonzero(~fast).tolist()
    _per_item([rows[i] for i in slow], seed, word, [indices[i] for i in slow])


def _per_item(rows, seed: int, word: int, indices) -> None:
    """Fill each of ``rows`` from its item of ``indices``, re-keying one
    Philox in place; rows must be C-contiguous."""
    key = [seed, word]
    bitgen = np.random.Philox(key=np.array(key, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the state of a fresh Philox: counter zero, output buffer empty; the
    # key is a list of Python ints, which the state setter reads fastest
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row, index in zip(rows, indices):
        key[1] = word + index
        bitgen.state = state
        gen.standard_normal(out=row)


def _mulhilo(x: np.ndarray) -> np.ndarray:
    """High words of the 128-bit products ``_PHILOX_M * x``, x (2, n).

    ``x`` is overwritten with the low words. Schoolbook product of 32-bit
    halves; no partial sum below overflows.
    """
    x_lo = x & _LO32
    hi = x >> _32
    x *= _PHILOX_M                      # uint64 arrays wrap modulo 2^64
    mid = x_lo * _M_HI                  # the two cross products
    cross = hi * _M_LO
    hi *= _M_HI
    x_lo *= _M_LO
    x_lo >>= _32
    mid += x_lo
    np.bitwise_and(mid, _LO32, out=x_lo)
    cross += x_lo
    mid >>= _32
    cross >>= _32
    hi += mid
    hi += cross
    return hi


def _philox_block1(seed: int, words: np.ndarray) -> list[np.ndarray]:
    """Words 0-3 of Philox4x64-10 at counter 1 under keys [seed, words].

    This is the first block a fresh Philox of that key outputs (numpy
    increments the counter before each block). ``words`` is used up as the
    running key. The counter is held as ``x = [v0, v2]``, the words the
    multipliers act on, and ``y = [v1, v3]``.
    """
    k0, k1 = seed, words
    # round 1 multiplies the counter words 1 and 0: x = [k0, k1], y = [0, M0]
    x = np.stack((np.full_like(k1, k0), k1))
    y = np.zeros_like(x)
    y[1] = _PHILOX_M[0]
    for _ in range(_PHILOX_ROUNDS - 1):
        k0 = (k0 + _PHILOX_W[0]) % _MAX_SEED
        k1 += np.uint64(_PHILOX_W[1])
        hi = _mulhilo(x)
        hi ^= y[::-1]
        hi[0] ^= k1
        hi[1] ^= np.uint64(k0)
        x, y = hi[::-1], x[::-1]
    return [x[0], y[0], x[1], y[1]]


def _ziggurat_fast_path(words: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """numpy's normals of ``words`` where they take the ziggurat's fast path.

    Clears ``fast`` where a word does not; there the normal is not numpy's.
    ``words`` is used up.
    """
    wi, ki = _ziggurat_tables()
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    negative = (words & np.uint64(1 << _ZIG_SIGN_BIT)).astype(bool)
    words >>= np.uint64(_ZIG_SIGN_BIT + 1)
    words &= np.uint64(2**_ZIG_MANTISSA - 1)        # the magnitudes
    fast &= words < ki[idx]
    normals = words.astype(np.float64)
    normals *= wi[idx]
    return np.negative(normals, out=normals, where=negative)


@cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables ``wi`` and a checked lower bound of ``ki``.

    A probe puts one chosen word at the head of a Philox's output buffer,
    draws one normal and checks how many words the draw took: one means
    the word took the fast path, ``|x| = magnitude * wi[idx]``
    accepted iff ``magnitude < ki[idx]``. A probe of magnitude 1 reads
    ``wi``. ``ki[i] / 2^52`` is the ratio ``wi[i - 1] / wi[i]`` of the layer
    edges; two below its floor is kept where a probe of that bound minus 1,
    sign bit set, is accepted with the value the fast path computes, and is
    0 (every word falls back) elsewhere and for indices 0 and 1.
    """
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the probe word, then 1, 2, 3: the draw took one word iff the next raw
    # word is 1 (reading the state back instead costs 4 us a probe)
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
             "buffer": [0, 1, 2, 3], "buffer_pos": 0,
             "has_uint32": 0, "uinteger": 0}

    def probe(word: int):
        """The normal drawn from ``word`` if it took that word alone."""
        state["buffer"][0] = word
        bitgen.state = state
        x = gen.standard_normal()
        return x if bitgen.random_raw() == 1 else None

    wi = np.zeros(256)
    for i in range(256):
        x = probe(i | (1 << _ZIG_SIGN_BIT + 1))
        wi[i] = 0.0 if x is None else x
    ki = np.zeros(256, dtype=np.uint64)
    for i in range(2, 256):
        if wi[i - 1] > 0.0 and wi[i] > 0.0:
            bound = int(2**_ZIG_MANTISSA * wi[i - 1] / wi[i]) - 2
            if 1 <= bound <= 2**_ZIG_MANTISSA:
                magnitude = bound - 1
                x = probe(i | (1 << _ZIG_SIGN_BIT)
                          | (magnitude << _ZIG_SIGN_BIT + 1))
                if x == -(magnitude * wi[i]):
                    ki[i] = bound
    return wi, ki
