"""Bit-exact numpy replay of CPython ``random.Random`` streams (the RNG bridge).

The batch engine's exactness contract says trial ``b`` of a batch reproduces
``simulate(instance, algorithm, rng=random.Random(seed + b))`` bit for bit.
Until this module existed, that forced :func:`~repro.engine.specs.priority_matrix`
to *draw* its priorities through per-trial Python loops — the last serial
Python stage on the batch hot path.  This module removes it by replaying
CPython's Mersenne Twister in numpy:

* CPython's ``random.Random`` and ``numpy.random.RandomState`` wrap the very
  same MT19937 generator: a 624-word ``uint32`` state vector, the same twist,
  the same tempering, and the same 53-bit double construction
  ``((a >> 5) * 2**26 + (b >> 6)) / 2**53`` over consecutive output pairs.
  Only the *seeding* differs.  :func:`transplant_rng` therefore moves a
  ``random.Random``'s ``getstate()`` vector into a ``RandomState`` verbatim
  (same 624 words, same position), after which ``random_sample`` replays
  ``random()`` bit for bit.
* Per-trial transplanting is exact but slow (``getstate`` materializes 625
  Python ints per trial), so the batch path goes further:
  :func:`state_matrix` re-implements CPython's ``init_by_array`` seeding
  *vectorized across the trials axis* — one numpy op per scalar mixing step,
  operating on all trials at once — and one block producer runs the MT19937
  twist and tempering on the whole ``(624, trials)`` state matrix, tempering
  only the words a request takes, straight into the caller's array, and
  pairing them into 53-bit doubles on request.
* Every stream this module hands out is a thin view over that producer:
  :func:`uniform_matrix` adds the per-process LRU of whole ``(trials,
  draws)`` ``random()`` tables (shared by all algorithm kinds of a sweep),
  :class:`UniformStreams` hands the same values out in chunks,
  :func:`word_matrix` and :class:`WordStreams` expose the raw 32-bit words
  (the latter with per-trial read positions, for the ragged ``getrandbits``
  consumption of uniform-random's per-arrival ``sample`` calls), and
  :func:`getrandbits64` reads each trial's first word pair.
* :func:`exact_pow` applies the inverse-CDF transform ``u ** (1/w)`` with the
  same C-library ``pow`` the reference algorithms call.  numpy's vectorized
  ``**`` uses a SIMD polynomial that is *not* bit-identical to libm ``pow``
  (off by one ulp on a few percent of inputs on this stack), so the transform
  deliberately stays on scalar ``math.pow`` per element — exactness beats
  vectorization here, and the draws dominate the old cost anyway.

``docs/INTERNALS-rng.md`` documents the trick, why ``getstate`` →
``set_state`` is exact, and the draw-order contract a new vectorizable
algorithm kind must satisfy.  ``tests/test_engine_rng.py`` pins every piece
against the CPython originals.

>>> import random
>>> rng = random.Random(7)
>>> bridged = transplant_rng(random.Random(7))
>>> [rng.random() for _ in range(3)] == list(bridged.random_sample(3))
True
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "transplant_rng",
    "state_matrix",
    "uniform_matrix",
    "word_matrix",
    "WordStreams",
    "UniformStreams",
    "getrandbits64",
    "exact_pow",
    "clear_uniform_cache",
    "uniform_cache_stats",
]

#: MT19937 state size in 32-bit words.
MT_N = 624

_UPPER = np.uint32(0x80000000)  # most significant w-r bits
_LOWER = np.uint32(0x7FFFFFFF)  # least significant r bits
_MATRIX_A = np.uint32(0x9908B0DF)
_MIX1 = np.uint32(1664525)
_MIX2 = np.uint32(1566083941)
_TEMPER_B = np.uint32(0x9D2C5680)
_TEMPER_C = np.uint32(0xEFC60000)

#: Trials are processed in blocks of this many rows so the transient
#: ``(MT_N, block)`` state matrices stay a few megabytes regardless of the
#: total trial count.
_TRIAL_BLOCK = 4096

#: ``i`` as a wrapping ``uint32`` scalar, precomputed for the seeding loops.
_U32_INDEX: Tuple[np.uint32, ...] = tuple(np.uint32(i) for i in range(MT_N))

_base_state_cache: List[np.ndarray] = []


def _base_state() -> np.ndarray:
    """The fixed ``init_genrand(19650218)`` state ``init_by_array`` starts from."""
    if not _base_state_cache:
        mt = np.empty(MT_N, dtype=np.uint64)
        mt[0] = 19650218
        for i in range(1, MT_N):
            mt[i] = (1812433253 * (mt[i - 1] ^ (mt[i - 1] >> 30)) + i) & 0xFFFFFFFF
        _base_state_cache.append(mt.astype(np.uint32))
    return _base_state_cache[0]


def transplant_rng(source: random.Random) -> np.random.RandomState:
    """A ``numpy.random.RandomState`` continuing ``source``'s exact stream.

    Copies the 624-word MT19937 state vector *and* the stream position from
    ``source.getstate()`` into the ``RandomState``, so every subsequent
    ``random_sample`` value equals the ``random()`` value ``source`` would
    have produced — the same words in the same order through the same
    ``(a >> 5) * 2**26 + (b >> 6)`` pairing.  The two generators share no
    state afterwards: advancing one does not advance the other.

    This is the general-purpose (any seedable object, any seed type) form of
    the bridge; the batch hot path uses the vectorized :func:`state_matrix`
    seeding instead, which is an order of magnitude faster per trial.

    >>> import random
    >>> source = random.Random("any hashable seed")
    >>> mirror = transplant_rng(random.Random("any hashable seed"))
    >>> all(source.random() == value for value in mirror.random_sample(1000))
    True
    """
    _version, state, _gauss = source.getstate()
    key, position = state[:-1], state[-1]
    mirror = np.random.RandomState()
    mirror.set_state(("MT19937", np.asarray(key, dtype=np.uint32), position))
    return mirror


def _seed_digits(seed: int) -> Tuple[int, ...]:
    """``abs(seed)`` as little-endian 32-bit digits (CPython's seeding key)."""
    value = abs(int(seed))
    if value == 0:
        return (0,)
    digits = []
    while value:
        digits.append(value & 0xFFFFFFFF)
        value >>= 32
    return tuple(digits)


def _seed_group(keys: Sequence[Tuple[int, ...]]) -> np.ndarray:
    """``init_by_array`` for same-length keys, vectorized across the batch.

    Returns the ``(MT_N, len(keys))`` state matrix (trials are *columns* so
    each scalar mixing step touches one contiguous row).  This is a literal
    transcription of CPython's ``init_by_array``: the loop over the 1247
    mixing steps stays in Python, but each step is one vectorized update of
    all trials, so the per-trial cost is a handful of C operations.
    """
    batch = len(keys)
    key_length = len(keys[0])
    key_matrix = np.array(keys, dtype=np.uint32).T  # (key_length, batch)
    # init_key[j] + j, wrapped to uint32, hoisted out of the mixing loop.
    key_plus_j = [key_matrix[j] + np.uint32(j) for j in range(key_length)]

    mt = np.empty((MT_N, batch), dtype=np.uint32)
    mt[:] = _base_state()[:, np.newaxis]
    tmp = np.empty(batch, dtype=np.uint32)

    # ~6000 small ufunc calls follow; locals keep the dispatch overhead down.
    shift, xor, mul = np.right_shift, np.bitwise_xor, np.multiply
    add, sub = np.add, np.subtract
    i, j = 1, 0
    for _ in range(max(MT_N, key_length)):
        previous = mt[i - 1]
        shift(previous, 30, out=tmp)
        xor(tmp, previous, out=tmp)
        mul(tmp, _MIX1, out=tmp)
        row = mt[i]
        xor(row, tmp, out=row)
        add(row, key_plus_j[j], out=row)
        i += 1
        j += 1
        if i >= MT_N:
            mt[0] = mt[MT_N - 1]
            i = 1
        if j >= key_length:
            j = 0
    for _ in range(MT_N - 1):
        previous = mt[i - 1]
        shift(previous, 30, out=tmp)
        xor(tmp, previous, out=tmp)
        mul(tmp, _MIX2, out=tmp)
        row = mt[i]
        xor(row, tmp, out=row)
        sub(row, _U32_INDEX[i], out=row)
        i += 1
        if i >= MT_N:
            mt[0] = mt[MT_N - 1]
            i = 1
    mt[0] = _UPPER
    return mt


def _state_matrix_T(seeds: Sequence[int]) -> np.ndarray:
    """``(MT_N, len(seeds))`` state matrix, trials as columns (internal layout)."""
    digit_keys = [_seed_digits(seed) for seed in seeds]
    lengths = {len(key) for key in digit_keys}
    if len(lengths) == 1:
        return _seed_group(digit_keys)
    # Mixed digit counts (a trial range straddling a 2**32 boundary): seed
    # each same-length group vectorized, then scatter the columns back.
    mt = np.empty((MT_N, len(seeds)), dtype=np.uint32)
    groups: Dict[int, List[int]] = {}
    for index, key in enumerate(digit_keys):
        groups.setdefault(len(key), []).append(index)
    for _length, indices in groups.items():
        mt[:, indices] = _seed_group([digit_keys[index] for index in indices])
    return mt


def state_matrix(seeds: Iterable[int]) -> np.ndarray:
    """The MT19937 state vectors of ``random.Random(seed)`` for each seed.

    Row ``t`` equals the 624 words of ``random.Random(seeds[t]).getstate()``
    (at stream position 624, i.e. freshly seeded, not a single value drawn):
    the vectorized re-implementation of CPython's ``init_by_array`` produces
    the same states as the C original, word for word.  Accepts any mix of
    int seeds — zero, negative (CPython seeds by absolute value) and
    arbitrarily large values included.

    >>> import random
    >>> reference = random.Random(2024).getstate()[1][:-1]
    >>> tuple(int(w) for w in state_matrix([2024])[0]) == reference
    True
    """
    seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        return np.empty((0, MT_N), dtype=np.uint32)
    return np.ascontiguousarray(_state_matrix_T(seed_list).T)


def _twist(mt: np.ndarray, scratch_a: np.ndarray, scratch_b: np.ndarray) -> None:
    """One in-place MT19937 state regeneration over the ``(MT_N, batch)`` matrix.

    The scalar twist updates word ``i`` from words ``i+1`` and ``i+397``
    (mod 624) *sequentially*, so later words read already-regenerated values.
    The vectorized version reproduces that by splitting the index range at
    the read/write dependency boundaries (397 back-references reach freshly
    written words from index 227 on, and again from 454 on).  The two
    scratch arrays are reusable ``(MT_N - 1, batch)`` buffers.
    """
    old_last = mt[MT_N - 1].copy()
    # y <- (y_i >> 1) ^ mag01[y_i & 1] for y_i = hi(mt[i]) | lo(mt[i+1]), i < 623
    y, tmp = scratch_a, scratch_b
    np.bitwise_and(mt[1:], _LOWER, out=y)
    np.bitwise_and(mt[: MT_N - 1], _UPPER, out=tmp)
    np.bitwise_or(y, tmp, out=y)
    np.right_shift(y, 1, out=tmp)
    np.bitwise_and(y, np.uint32(1), out=y)
    np.multiply(y, _MATRIX_A, out=y)
    np.bitwise_xor(tmp, y, out=y)
    np.bitwise_xor(mt[397:], y[:227], out=mt[:227])
    np.bitwise_xor(mt[:227], y[227:454], out=mt[227:454])
    np.bitwise_xor(mt[227:396], y[454:623], out=mt[454:623])
    y_last = (old_last & _UPPER) | (mt[0] & _LOWER)
    mt[623] = mt[396] ^ (y_last >> 1) ^ ((y_last & np.uint32(1)) * _MATRIX_A)


def _temper(words: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """MT19937 output tempering into ``out`` (elementwise, shape-matched)."""
    scratch = scratch[: len(out)]
    np.right_shift(words, 11, out=out)
    np.bitwise_xor(out, words, out=out)
    np.left_shift(out, 7, out=scratch)
    np.bitwise_and(scratch, _TEMPER_B, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.left_shift(out, 15, out=scratch)
    np.bitwise_and(scratch, _TEMPER_C, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.right_shift(out, 18, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    return out


class _Generators:
    """The one MT19937 block producer: ``random.Random(seed + b)`` per trial ``b``.

    Every view in this module reads its stream from here.  The generators
    advance in lockstep: the ``(MT_N, trials)`` state matrix is seeded once,
    on first use, and twisted a block at a time; each request tempers only
    the words it hands out, straight into the caller's array, so the rest
    of a block waits untempered in the state matrix and nothing is buffered.
    """

    def __init__(self, seed: int, trials: int) -> None:
        _require_non_negative(trials=trials)
        self.trials = trials
        self._seed = seed
        self._mt: "np.ndarray | None" = None
        # Words of the current block already handed out; MT_N: twist first.
        self._position = MT_N

    def _block_start(self) -> int:
        """The read position in the current block, twisting a fresh one if spent."""
        if self._mt is None:
            self._mt = _state_matrix_T([self._seed + b for b in range(self.trials)])
            self._scratch_a = np.empty((MT_N, self.trials), dtype=np.uint32)
            self._scratch_b = np.empty((MT_N, self.trials), dtype=np.uint32)
        if self._position == MT_N:
            _twist(self._mt, self._scratch_a[: MT_N - 1], self._scratch_b[: MT_N - 1])
            self._position = 0
        return self._position

    def words(self, out: np.ndarray) -> None:
        """Write every trial's next ``len(out)`` tempered words into ``out``."""
        done = 0
        while done < len(out):
            start = self._block_start()
            take = min(MT_N - start, len(out) - done)
            _temper(
                self._mt[start : start + take], out[done : done + take], self._scratch_a
            )
            self._position = start + take
            done += take

    def uniforms(self, out: np.ndarray) -> None:
        """Write every trial's next ``len(out)`` ``random()`` values into ``out``.

        CPython's ``genrand_res53``, ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``
        over consecutive words: every step is exact in float64, so it is
        bit-equal to CPython's regardless of FMA contraction.  A producer
        read only through this method stays at even positions, so no pair
        straddles a twist.
        """
        done = 0
        while done < len(out):
            pairs = min((MT_N - self._block_start()) // 2, len(out) - done)
            words = self._scratch_b[: 2 * pairs]
            self.words(words)
            high = out[done : done + pairs]
            low = self._scratch_a[:pairs]
            np.right_shift(words[0::2], 5, out=low)
            np.multiply(low, 67108864.0, out=high)
            np.right_shift(words[1::2], 6, out=low)
            np.add(high, low, out=high)
            np.multiply(high, 1.0 / 9007199254740992.0, out=high)
            done += pairs


def _require_non_negative(**counts: int) -> None:
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def word_matrix(seed: int, trials: int, words: int) -> np.ndarray:
    """The exact ``(trials, words)`` table of raw 32-bit generator outputs.

    Entry ``[b, k]`` is the ``k``-th tempered MT19937 word of
    ``random.Random(seed + b)`` — the value ``getrandbits(32)`` would return
    on its ``k``-th call, and the raw stream underneath ``random()``,
    ``getrandbits`` and ``sample``.  This is the static (fixed word count)
    form of the per-trial word stream; :class:`WordStreams` is the dynamic
    one, for consumers whose per-trial word counts are data-dependent.

    >>> import random
    >>> table = word_matrix(99, trials=2, words=4)
    >>> reference = random.Random(99 + 1)          # trial b=1
    >>> [reference.getrandbits(32) for _ in range(4)] == list(table[1])
    True
    """
    _require_non_negative(words=words)
    producer = _Generators(seed, trials)
    out = np.empty((trials, words), dtype=np.uint32, order="F")
    producer.words(out.T)
    return out


class WordStreams:
    """Per-trial raw MT19937 word streams with independently advancing positions.

    Stream ``b`` replays the tempered 32-bit outputs of
    ``random.Random(seed + b)`` (the batch engine's trial seeding), read from
    the module's one block producer and grown past twist boundaries on
    demand.  On top of the raw words, :meth:`getrandbits` is a *batched*
    replay of CPython's ``getrandbits(bits)`` for ``bits <= 32`` — one word
    consumed per call per selected trial — and the ``mask`` parameter is
    what makes data-dependent consumption replayable: a ``_randbelow`` retry
    loop advances only the trials that actually redraw, so per-trial
    positions stay in lockstep with the reference streams even when
    consumption is ragged across the batch.

    >>> import random
    >>> streams = WordStreams(seed=3, trials=2)
    >>> reference = [random.Random(3 + b) for b in range(2)]
    >>> list(streams.getrandbits(5)) == [r.getrandbits(5) for r in reference]
    True
    >>> import numpy as np
    >>> _ = streams.getrandbits(7, mask=np.array([True, False]))  # trial 0 only
    >>> streams.positions.tolist()
    [2, 1]
    """

    def __init__(self, seed: int, trials: int) -> None:
        self._producer = _Generators(seed, trials)
        self.trials = trials
        #: The number of words each trial has consumed so far (read-only to
        #: callers; advanced by :meth:`getrandbits`).
        self.positions = np.zeros(trials, dtype=np.int64)
        # The word window: rows [_base, _base + len) of the per-trial streams.
        # Rows every trial has consumed are discarded as the window slides
        # (see _ensure), so memory tracks the *spread* between the slowest
        # and fastest trial — not the total stream length — and long arrival
        # sequences never accumulate the whole history.
        self._base = 0
        self._words = np.empty((0, trials), dtype=np.uint32)

    @property
    def words_produced(self) -> int:
        """How many words per trial have been generated (grows in twist blocks)."""
        return self._base + self._words.shape[0]

    def _ensure(self, words: int) -> None:
        missing = words - self.words_produced
        if missing <= 0:
            return
        # Slide the window: rows below every trial's position can never be
        # read again.  Discarding in at-least-block-sized steps keeps the
        # copy amortized against the twist work that produced the rows.
        drop = (int(self.positions.min()) if self.trials else 0) - self._base
        kept = self._words[drop:] if drop >= MT_N else self._words
        grow = -(-missing // MT_N) * MT_N
        window = np.empty((len(kept) + grow, self.trials), dtype=np.uint32)
        window[: len(kept)] = kept
        self._producer.words(window[len(kept) :])
        self._base += self._words.shape[0] - len(kept)
        self._words = window

    def getrandbits(self, bits: int, mask: "np.ndarray | None" = None) -> np.ndarray:
        """The next ``getrandbits(bits)`` value of each selected trial.

        Replays CPython exactly for ``1 <= bits <= 32``: one raw word is
        consumed and its top ``bits`` bits returned (``word >> (32 - bits)``).
        ``mask`` selects which trials draw (all of them when ``None``); only
        those trials' positions advance.  Returns an ``int64`` array of
        length ``mask.sum()``, in ascending trial order.
        """
        if not 1 <= bits <= 32:
            raise ValueError(f"bits must be in 1..32, got {bits}")
        if mask is None:
            indices = np.arange(self.trials)
        else:
            indices = np.flatnonzero(mask)
        if indices.size == 0:
            return np.empty(0, dtype=np.int64)
        positions = self.positions[indices]
        self._ensure(int(positions.max()) + 1)
        words = self._words[positions - self._base, indices]
        self.positions[indices] = positions + 1
        return (words >> np.uint32(32 - bits)).astype(np.int64)


class UniformStreams:
    """Sequential per-trial ``random()`` streams, delivered in bounded chunks.

    Stream ``b`` replays the ``random()`` values of ``random.Random(seed + b)``
    (the batch engine's trial seeding) from the module's one block producer
    — but instead of materializing the whole ``(trials, draws)`` table up
    front like :func:`uniform_matrix`, :meth:`next` hands out consecutive
    ``(trials, count)`` chunks on demand.  All trials advance in lockstep, so
    the resident state is the producer's ``(MT_N, trials)`` generator matrix
    and its scratch — memory is bounded by the *chunk* size, never by how
    many draws the consumer eventually takes.  This is what lets the
    streaming trace engine draw priorities for frames as they enter the
    active window instead of holding a draw table proportional to the whole
    trace.

    Chunk boundaries are invisible: concatenating the chunks reproduces
    :func:`uniform_matrix` bit for bit.

    >>> import random
    >>> streams = UniformStreams(seed=11, trials=2)
    >>> chunk = np.concatenate([streams.next(3), streams.next(2)], axis=1)
    >>> reference = random.Random(11 + 1)          # trial b=1
    >>> [reference.random() for _ in range(5)] == list(chunk[1])
    True
    >>> streams.draws_produced
    5
    """

    def __init__(self, seed: int, trials: int) -> None:
        self._producer = _Generators(seed, trials)
        self.trials = trials
        #: How many ``random()`` values per trial have been handed out.
        self.draws_produced = 0

    def next(self, count: int) -> np.ndarray:
        """The next ``count`` ``random()`` values of every trial.

        Returns a writable ``(trials, count)`` float64 array (F-ordered: the
        producer writes it draw-major with no copy); entry ``[b, k]`` is
        bit-equal to the ``draws_produced + k``-th ``random()`` call of
        ``random.Random(seed + b)``.
        """
        _require_non_negative(count=count)
        out = np.empty((self.trials, count), dtype=np.float64, order="F")
        self._producer.uniforms(out.T)
        self.draws_produced += count
        return out


# ----------------------------------------------------------------------
# The cached uniform table
# ----------------------------------------------------------------------

#: LRU cache of finished uniform matrices.  A sweep measures several
#: algorithms on one instance with one (seed, trials) pair — randPr and the
#: uniform-priority ablation then share a single draw table instead of
#: re-seeding 2 x trials generators.
_UNIFORM_CACHE: "OrderedDict[Tuple[int, int, int], np.ndarray]" = OrderedDict()
_UNIFORM_CACHE_MAX_ENTRIES = 4
_UNIFORM_CACHE_MAX_BYTES = 32 << 20
_uniform_cache_hits = 0
_uniform_cache_misses = 0


def clear_uniform_cache() -> None:
    """Drop every cached uniform matrix (used by benchmarks for cold timings)."""
    global _uniform_cache_hits, _uniform_cache_misses
    _UNIFORM_CACHE.clear()
    _uniform_cache_hits = 0
    _uniform_cache_misses = 0


def uniform_cache_stats() -> Dict[str, int]:
    """Hit/miss/entry counters of the per-process uniform-matrix cache.

    >>> clear_uniform_cache()
    >>> _ = uniform_matrix(99, trials=4, draws=8)
    >>> _ = uniform_matrix(99, trials=4, draws=8)
    >>> stats = uniform_cache_stats()
    >>> stats["hits"], stats["misses"], stats["entries"]
    (1, 1, 1)
    """
    return {
        "hits": _uniform_cache_hits,
        "misses": _uniform_cache_misses,
        "entries": len(_UNIFORM_CACHE),
    }


def uniform_matrix(seed: int, trials: int, draws: int) -> np.ndarray:
    """The exact ``(trials, draws)`` table of per-trial ``random()`` values.

    Entry ``[b, k]`` is bit-equal to the ``k``-th ``random.Random(seed + b)
    .random()`` call — the batch engine's seeding convention — produced
    entirely by vectorized numpy operations (see the module docstring for the
    pipeline).  The returned array is a **read-only view of a cached table**;
    callers that need to mutate it must copy.

    >>> import random
    >>> table = uniform_matrix(123, trials=3, draws=5)
    >>> bool(table.flags.writeable)
    False
    >>> reference = random.Random(123 + 1)          # trial b=1
    >>> [reference.random() for _ in range(5)] == list(table[1])
    True
    """
    _require_non_negative(trials=trials, draws=draws)
    global _uniform_cache_hits, _uniform_cache_misses
    key = (int(seed), int(trials), int(draws))
    cached = _UNIFORM_CACHE.get(key)
    if cached is not None:
        _uniform_cache_hits += 1
        _UNIFORM_CACHE.move_to_end(key)
        return cached
    _uniform_cache_misses += 1

    # Fortran order: the producer writes (draws, trials)-major, so an
    # F-ordered table takes its output with no transposing copy.  Callers
    # only ever index and compare, which is layout-agnostic.
    out = np.empty((trials, draws), dtype=np.float64, order="F")
    for start in range(0, trials, _TRIAL_BLOCK):
        stop = min(start + _TRIAL_BLOCK, trials)
        _Generators(seed + start, stop - start).uniforms(out[start:stop].T)
    out.setflags(write=False)
    if trials and draws and out.nbytes <= _UNIFORM_CACHE_MAX_BYTES:
        _UNIFORM_CACHE[key] = out
        while len(_UNIFORM_CACHE) > _UNIFORM_CACHE_MAX_ENTRIES:
            _UNIFORM_CACHE.popitem(last=False)
    return out


def getrandbits64(seed: int, trials: int) -> List[int]:
    """Per-trial replay of ``random.Random(seed + b).getrandbits(64)``.

    ``getrandbits(64)`` consumes two 32-bit outputs little-endian (the first
    word is the low half), which is exactly the first generator pair — so the
    salted hashed-randPr variant can draw its per-trial salts from the same
    vectorized stream the priority draws come from.

    >>> import random
    >>> getrandbits64(5, trials=2) == [random.Random(5 + b).getrandbits(64)
    ...                                for b in range(2)]
    True
    """
    producer = _Generators(seed, trials)
    words = np.empty((2, trials), dtype=np.uint32)
    producer.words(words)
    low, high = words.astype(np.uint64)
    return [int(value) for value in low | (high << np.uint64(32))]


def exact_pow(base: np.ndarray, exponents: Sequence[float]) -> np.ndarray:
    """Columnwise ``base ** exponents``, bit-equal to CPython's scalar ``**``.

    ``base`` is ``(trials, m)`` with entries in ``[0, 1]`` and ``exponents``
    one positive finite float per column.  numpy's vectorized ``**`` is *not*
    used: its SIMD kernel disagrees with the C library ``pow`` that
    ``float.__pow__`` calls by one ulp on a small fraction of inputs, which
    would silently break the engine's bit-exactness contract.  Instead each
    column runs ``math.pow`` (the identical libm call) in a tight scalar
    loop; columns with exponent exactly 1.0 are copied outright, which C99
    Annex F guarantees is what ``pow`` returns (``pow(x, 1) == x``) — the
    common unweighted-workload case costs nothing.

    >>> import numpy as np
    >>> table = np.array([[0.25, 0.5], [0.81, 0.9]])
    >>> exact_pow(table, [0.5, 1.0]).tolist() == [[0.25 ** 0.5, 0.5],
    ...                                           [0.81 ** 0.5, 0.9]]
    True
    """
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2:
        raise ValueError(f"expected a (trials, m) matrix, got shape {base.shape}")
    exponent_list = [float(exponent) for exponent in exponents]
    if len(exponent_list) != base.shape[1]:
        raise ValueError(
            f"{base.shape[1]} columns but {len(exponent_list)} exponents"
        )
    trials = base.shape[0]
    # Column-major throughout: a bridge table arrives F-ordered, so both
    # transposes here are zero-copy views; the result is returned F-ordered
    # (callers index and compare, which is layout-agnostic).
    columns = np.ascontiguousarray(base.T)
    out_T = np.empty_like(columns)
    pow_ = math.pow
    for j, exponent in enumerate(exponent_list):
        if exponent == 1.0:
            out_T[j] = columns[j]
        else:
            out_T[j] = np.fromiter(
                map(pow_, columns[j].tolist(), repeat(exponent)),
                np.float64,
                count=trials,
            )
    return out_T.T
