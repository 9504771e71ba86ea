"""Bit-exact vectorized Mersenne Twister: n CPython ``Random`` streams
as one numpy output buffer.

Why this exists: ``make_node_rngs`` materializes one ``random.Random``
object per vertex, and at n = 10⁶ the object construction alone costs
tens of seconds — dwarfing the vectorized engine's actual round work.
This module reproduces CPython's MT19937 *exactly* (same
``init_by_array`` seeding, same tempering, same ``random()`` /
``getrandbits`` / ``randrange`` word consumption, including the
rejection loop), so a RandLOCAL kernel can replay the scalar engines'
per-vertex draw sequences out of plain numpy arrays.

The bit-identity contract (checked by ``tests/test_backends.py``
against ``random.Random`` itself): for every vertex ``v``,

    VectorMT(seeds).randrange(...) / .random_runs(...)

consumes ``v``'s stream word-for-word like ``random.Random(seeds[v])``
— so interleaving vectorized rounds with scalar ones can never
desynchronize.

**Memory layout.**  A full MT state matrix would be ``(624, n)``
uint32 — 2.5 GB at n = 10⁶, and merely first-touching that many pages
costs tens of seconds.  The engine workloads consume only a few dozen
words per vertex, so the class instead keeps a ``(W, n)`` buffer of
*tempered output words* (W starts small), produced chunk-by-chunk
through one small reusable ``(624, chunk)`` scratch state.  If any
stream exhausts its W words, the buffer is regenerated from the seeds
at double the depth — positions are preserved, so a grow is invisible
to callers (just slower; sized hints avoid it).

CPython's integer seeding derives the ``init_by_array`` key from the
seed's 32-bit limbs, and the *key length* depends on the seed's bit
length.  The vectorized path handles the common two-limb case
(seed ≥ 2³²); the rare short seeds (probability 2⁻³² each under
``make_node_rngs``) are seeded through an actual ``random.Random`` and
copied in — exactness without a second vector code path.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as np

_N = 624
_M = 397
_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)

#: Columns seeded per scratch pass: a ``(624, _CHUNK)`` uint32 scratch
#: state plus two ``_CHUNK``-wide row buffers that every in-place ufunc
#: writes through.  Seeding n = 10^6 streams of 64 words took 4.9, 3.9,
#: 3.1-3.3, 2.6-3.1, 2.7-3.0 and 3.0 s at 2^12 .. 2^17 columns (2-core
#: x86-64, numpy 2.4): narrower chunks pay per-call overhead on the
#: ~1250 row steps, wider ones only add memory.  2^15 keeps the scratch
#: at 80 MB, where 2^17 cost 327 MB.
_CHUNK = 1 << 15

#: ``bit_length`` lookup for the randrange rejection loop (bounds the
#: supported range; plenty for palette-sized draws).
MAX_RANDRANGE = 1 << 16
# frexp(v) = m·2^e with 0.5 <= m < 1, so e is v's bit length (exact
# for these small integers).
_BITLEN = np.zeros(MAX_RANDRANGE + 1, dtype=np.uint32)
_BITLEN[1:] = np.frexp(
    np.arange(1, MAX_RANDRANGE + 1, dtype=np.float64)
)[1]

_init_genrand_base: Optional[np.ndarray] = None


def _base_state() -> np.ndarray:
    """``init_genrand(19650218)`` — the seed-independent starting state
    of ``init_by_array`` (computed once, shared by every vertex)."""
    global _init_genrand_base
    if _init_genrand_base is None:
        mt: List[int] = [19650218]
        for i in range(1, _N):
            prev = mt[i - 1]
            mt.append(
                (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF
            )
        _init_genrand_base = np.array(mt, dtype=np.uint32)
    return _init_genrand_base


_S1 = np.uint32(1)
_S30 = np.uint32(30)
_INIT_MUL1 = np.uint32(1664525)
_INIT_MUL2 = np.uint32(1566083941)


def _init_by_array_into(
    mt: np.ndarray, key0: np.ndarray, key1: np.ndarray, tmp: np.ndarray
) -> None:
    """Vectorized two-limb ``init_by_array`` into the ``(624, k)``
    scratch ``mt`` (every column keyed by ``[key0, key1]``).

    Every row step writes through ``out=`` into ``mt`` itself or into
    the ``k``-wide row buffer ``tmp``: no temporaries are allocated."""
    mt[:] = _base_state()[:, None]
    terms = [key0, key1 + _S1]  # key[j] + j, per j
    i, j = 1, 0
    for _ in range(_N):
        prev, row = mt[i - 1], mt[i]
        np.right_shift(prev, _S30, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, _INIT_MUL1, out=tmp)
        np.bitwise_xor(row, tmp, out=row)
        np.add(row, terms[j], out=row)
        i += 1
        j ^= 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
    for _ in range(_N - 1):
        prev, row = mt[i - 1], mt[i]
        np.right_shift(prev, _S30, out=tmp)
        np.bitwise_xor(tmp, prev, out=tmp)
        np.multiply(tmp, _INIT_MUL2, out=tmp)
        np.bitwise_xor(row, tmp, out=row)
        np.subtract(row, np.uint32(i), out=row)
        i += 1
        if i >= _N:
            mt[0] = mt[_N - 1]
            i = 1
    mt[0] = np.uint32(0x80000000)


def _regenerate_prefix(
    mt: np.ndarray, depth: int, tmp: np.ndarray, tmp2: np.ndarray
) -> None:
    """Twist only the first ``depth`` rows of the next MT19937 block,
    in place, along axis 0 (rows past ``depth`` keep the old block —
    callers that stop at this block never read them).

    Rows are rewritten one at a time in the C loop's own order, so its
    source ``mt[(kk + M) % N]`` re-reads already-rewritten rows exactly
    where the C code does; ``tmp`` and ``tmp2`` are row buffers."""
    for kk in range(min(depth, _N)):
        row = mt[kk]
        np.bitwise_and(row, _UPPER, out=tmp)
        np.bitwise_and(mt[kk + 1 if kk + 1 < _N else 0], _LOWER, out=tmp2)
        np.bitwise_or(tmp, tmp2, out=tmp)  # y
        np.bitwise_and(tmp, _S1, out=tmp2)
        np.multiply(tmp2, _MATRIX_A, out=tmp2)  # mag01[y & 1]
        np.right_shift(tmp, _S1, out=tmp)
        np.bitwise_xor(tmp, tmp2, out=tmp)
        np.bitwise_xor(mt[(kk + _M) % _N], tmp, out=row)


def _temper_into(y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """MT19937 output tempering of the row ``y`` into ``out``."""
    np.right_shift(y, np.uint32(11), out=tmp)
    np.bitwise_xor(y, tmp, out=out)
    np.left_shift(out, np.uint32(7), out=tmp)
    np.bitwise_and(tmp, np.uint32(0x9D2C5680), out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.left_shift(out, np.uint32(15), out=tmp)
    np.bitwise_and(tmp, np.uint32(0xEFC60000), out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    np.right_shift(out, np.uint32(18), out=tmp)
    np.bitwise_xor(out, tmp, out=out)


class VectorMT:
    """n independent MT19937 streams, bit-identical to
    ``[random.Random(s) for s in seeds]``.

    ``min_words`` sizes the initial per-vertex output buffer; streams
    that outrun it trigger a transparent (but costly at large n)
    regenerate-and-replay, so callers with a known draw budget should
    pass a generous bound.
    """

    def __init__(self, seeds: np.ndarray, min_words: int = 64) -> None:
        seeds = np.asarray(seeds, dtype=np.uint64)
        self.n = seeds.shape[0]
        self._seeds = seeds
        self._key0 = (seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32)
        self._key1 = (seeds >> np.uint64(32)).astype(np.uint32)
        self.words = max(1, min_words)
        self.pos = np.zeros(self.n, dtype=np.int64)
        self._refill()

    def _refill(self) -> None:
        """(Re)generate the first ``self.words`` tempered output words
        of every stream, chunk-by-chunk through one scratch state."""
        n, depth = self.n, self.words
        self.buf = np.empty((depth, n), dtype=np.uint32)
        nblocks = -(-depth // _N)
        width = min(_CHUNK, n)
        scratch = np.empty((_N, width), dtype=np.uint32)
        rows = np.empty((2, width), dtype=np.uint32)
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            mt = scratch[:, : hi - lo]
            tmp, tmp2 = rows[0, : hi - lo], rows[1, : hi - lo]
            _init_by_array_into(
                mt, self._key0[lo:hi], self._key1[lo:hi], tmp
            )
            short = np.flatnonzero(self._key1[lo:hi] == 0)
            # Seeds below 2³² have a one-limb init_by_array key (and
            # seed 0 a zero limb): rare under 64-bit derivation, so the
            # stdlib itself seeds them — exact by construction.
            for v in short.tolist():
                state = random.Random(int(self._seeds[lo + v])).getstate()
                mt[:, v] = np.array(state[1][:_N], dtype=np.uint32)
            # CPython seeding leaves the word index at 624: the first
            # draw twists a fresh block, and so does ours.  The last
            # block only twists the rows the buffer will keep.
            for b in range(nblocks):
                take = min(_N, depth - b * _N)
                _regenerate_prefix(mt, take, tmp, tmp2)
                for r in range(take):
                    _temper_into(mt[r], self.buf[b * _N + r, lo:hi], tmp)

    def _grow(self, needed: int) -> None:
        while self.words < needed:
            self.words *= 2
        self._refill()

    def restore_positions(self, pos: np.ndarray) -> None:
        """Restore per-vertex draw cursors from a checkpoint snapshot.

        The output buffer itself needs no restoring: it is a pure
        function of the seeds and the current depth, and any cursor
        past the depth triggers the usual transparent grow-and-replay
        on that vertex's next draw.  This is what keeps checkpoints
        O(n) — ``(words, pos)`` fully determines every future draw.
        """
        self.pos[:] = np.asarray(pos, dtype=np.int64)

    def _next_words(self, verts: np.ndarray) -> np.ndarray:
        """One tempered 32-bit word from each of ``verts``' streams."""
        pos = self.pos[verts]
        if pos.size and int(pos.max()) >= self.words:
            self._grow(int(pos.max()) + 1)
        words = self.buf[pos, verts]
        self.pos[verts] = pos + 1
        return words

    def random(self, verts: np.ndarray) -> np.ndarray:
        """``random.random()`` for each vertex: two words, 53 bits."""
        a = self._next_words(verts) >> np.uint32(5)
        b = self._next_words(verts) >> np.uint32(6)
        return (
            a.astype(np.float64) * 67108864.0 + b.astype(np.float64)
        ) * (1.0 / 9007199254740992.0)

    def getrandbits(self, verts: np.ndarray, nbits: np.ndarray) -> np.ndarray:
        """``getrandbits(k)`` per vertex, ``1 <= k <= 32`` (one word)."""
        return self._next_words(verts) >> (
            np.uint32(32) - nbits.astype(np.uint32)
        )

    def randrange(self, verts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """``randrange(size)`` per vertex — CPython's
        ``_randbelow_with_getrandbits`` rejection loop, word-exact."""
        sizes = np.asarray(sizes, dtype=np.int64)
        if (sizes <= 0).any():
            raise ValueError("empty range for randrange()")
        if (sizes > MAX_RANDRANGE).any():
            raise ValueError(
                f"VectorMT.randrange supports sizes up to "
                f"{MAX_RANDRANGE}, got {int(sizes.max())}"
            )
        nbits = _BITLEN[sizes]
        result = self.getrandbits(verts, nbits).astype(np.int64)
        rejected = result >= sizes
        while rejected.any():
            idx = np.flatnonzero(rejected)
            redraw = self.getrandbits(verts[idx], nbits[idx])
            result[idx] = redraw.astype(np.int64)
            rejected[idx] = result[idx] >= sizes[idx]
        return result

    def random_runs(self, verts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """``counts[i]`` consecutive ``random()`` draws per vertex,
        flattened vertex-major (each vertex's draws contiguous and in
        stream order — the scalar engines' iteration order)."""
        counts = np.asarray(counts, dtype=np.int64)
        offsets = np.zeros(verts.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=np.float64)
        depth = int(counts.max()) if counts.size else 0
        for d in range(depth):
            sel = counts > d
            out[offsets[:-1][sel] + d] = self.random(verts[sel])
        return out
