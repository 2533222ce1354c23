"""Deterministic pseudo-random numbers for reproducible experiments.

The generator is counter-based SplitMix64: draw ``i`` (1-indexed) of a
stream seeded with ``seed`` is ``mix64(seed + i * 0x9E3779B97F4A7C15)``
where ``mix64`` is the usual 64-bit avalanche finalizer.  Because every
draw is a pure function of ``(seed, i)``, blocks of draws vectorize with
numpy and independent streams never need coordination.

Floating-point conventions, frozen so results never drift:

* uniforms take the top 53 bits of a word: ``(word >> 11) * 2**-53``,
  giving doubles in ``[0, 1)``;
* normals come from the Marsaglia polar method; uniforms are consumed
  strictly in pairs ``(u, v)``, a rejected pair still consumes both, and
  when an odd count is requested the second normal of the final accepted
  pair is discarded (no spare is carried between calls);
* bounded integers are ``floor(u * bound)``;
* permutations are a Fisher-Yates shuffle walking ``i = n-1 .. 1`` and
  consuming one bounded integer per step.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    scratch = np.empty_like(z)  # z is mixed in place
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= np.uint64(factor)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _seed_array(seeds) -> np.ndarray:
    """A vector of seeds as uint64, each taken mod 2**64."""
    if getattr(seeds, "dtype", None) != np.uint64:
        # as objects: numpy reads a list of ints on both sides of 2**63 as floats
        seeds = np.fromiter((int(s) & _MASK for s in np.asarray(seeds, dtype=object).flat), np.uint64)
    return seeds.ravel()


def stream_seeds(master_seed, streams: range) -> np.ndarray:
    """uint64 seeds of the sub-streams ``streams`` of a master seed.

    Seed i is ``mix64(master_seed XOR (streams[i] + 1) * 0x9E3779B97F4A7C15)``
    (all mod 2**64).  The map is injective in the index for a fixed
    master seed, so distinct indices can never collide.  Given a vector
    of master seeds, row r holds the sub-stream seeds of master r.
    """
    index = np.arange(streams.start, streams.stop, streams.step, dtype=np.uint64) + np.uint64(1)
    if isinstance(master_seed, (int, np.integer)):
        master = np.uint64(int(master_seed) & _MASK)
    else:
        master = _seed_array(master_seed)[:, None]
    return _mix64_vec(master ^ (index * np.uint64(_GOLDEN)))


def _round_pairs(missing: int) -> int:
    """Pairs a polar round draws when some row still lacks ``missing`` accepted ones.

    A pair is accepted with probability pi/4, so half again and 8 more
    make a second round rare.  The count moves no output.
    """
    return missing + missing // 2 + 8


def _integers(uniforms: np.ndarray, bound) -> np.ndarray:
    return np.floor(uniforms * bound).astype(np.int64)


class Streams:
    """Sequential view of many SplitMix64 counter streams, one row each.

    Every method returns one row per stream; row i equals what
    ``Rng(seeds[i])`` returns for the same sequence of calls, bit for bit.
    Rows may consume different numbers of draws (polar rejection), so
    each keeps its own counter.
    """

    def __init__(self, seeds):
        self._seeds = _seed_array(seeds).reshape(-1, 1)
        self._drawn = np.zeros_like(self._seeds)

    def _uniforms_at(self, drawn: np.ndarray, n: int) -> np.ndarray:
        """Draws ``drawn+1 .. drawn+n`` of every stream, as uniforms."""
        words = drawn + np.arange(1, n + 1, dtype=np.uint64)  # then mixed in place
        words *= np.uint64(_GOLDEN)
        words += self._seeds
        uniforms = np.right_shift(_mix64_vec(words), np.uint64(11), out=words).astype(float)
        uniforms *= 2.0 ** -53  # in place: words times a float would add a cast buffer
        return uniforms

    def uniforms(self, n: int) -> np.ndarray:
        """(rows, n) doubles, i.i.d. uniform on [0, 1)."""
        uniforms = self._uniforms_at(self._drawn, n)
        self._drawn = self._drawn + np.uint64(n)
        return uniforms

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """(rows, n) doubles, i.i.d. uniform on [low, high)."""
        return low + (high - low) * self.uniforms(n)

    def normals(self, n: int) -> np.ndarray:
        """(rows, n) doubles, i.i.d. standard normal (polar method).

        Row i holds the first (n+1)//2 accepted pairs of its stream.
        Each round draws, for every row, ``_round_pairs`` of the pairs
        the row furthest from done still lacks; pairs a row draws past
        its last accepted one are not consumed.
        """
        rows, pairs = len(self._seeds), (n + 1) // 2
        u = v = s = np.empty((rows, 0))
        while (missing := pairs - np.count_nonzero((s > 0.0) & (s < 1.0), axis=1).min()) > 0:
            block = self._uniforms_at(self._drawn + np.uint64(2 * u.shape[1]),
                                      2 * _round_pairs(missing))
            block *= 2.0
            block -= 1.0
            bu, bv = block[:, 0::2], block[:, 1::2]  # views: the block is theirs alone
            bs = bu * bu + bv * bv
            u, v, s = (np.hstack(pair) if u.shape[1] else pair[1]  # a first round is not copied
                       for pair in ((u, bu), (v, bv), (s, bs)))
            del block, bu, bv, bs  # so the pairs kept below free them
        keep = (s > 0.0) & (s < 1.0)
        keep &= np.cumsum(keep, axis=1) <= pairs
        if pairs:
            used = u.shape[1] - np.argmax(keep[:, ::-1], axis=1)
            self._drawn = self._drawn + (2 * used).astype(np.uint64)[:, None]
        u, v, s = (a[keep].reshape(rows, pairs) for a in (u, v, s))
        f = np.sqrt(-2.0 * np.log(s) / s)
        out = np.empty((rows, 2 * pairs))
        out[:, 0::2] = u * f
        out[:, 1::2] = v * f
        return out[:, :n]

    def integers(self, bound: int, size: int) -> np.ndarray:
        """(rows, size) integers, i.i.d. uniform on {0, ..., bound-1}."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return _integers(self.uniforms(size), bound)

    def permutations(self, n: int) -> np.ndarray:
        """(rows, n): a uniform random permutation of range(n) per row (Fisher-Yates)."""
        rows = len(self._seeds)
        idx = np.tile(np.arange(n), (rows, 1))
        if n < 2:
            return idx
        swaps = _integers(self.uniforms(n - 1), np.arange(n, 1, -1))
        at = np.arange(rows)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = swaps[:, k]
            held = idx[at, j]
            idx[at, j] = idx[:, i]
            idx[:, i] = held
        return idx


class Rng:
    """Sequential view of one SplitMix64 counter stream: a one-row :class:`Streams`.

    Instances are cheap; seed one per task from :func:`stream_seeds`
    rather than sharing a stream across tasks.
    """

    def __init__(self, seed: int):
        self._streams = Streams([seed])

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles, i.i.d. uniform on [0, 1)."""
        return self._streams.uniforms(n)[0]

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n doubles, i.i.d. uniform on [low, high)."""
        return self._streams.uniform(low, high, n)[0]

    def normals(self, n: int) -> np.ndarray:
        """n doubles, i.i.d. standard normal (polar method)."""
        return self._streams.normals(n)[0]

    def integers(self, bound: int, size: int) -> np.ndarray:
        """size integers, i.i.d. uniform on {0, ..., bound-1}."""
        return self._streams.integers(bound, size)[0]

    def permutation(self, n: int) -> np.ndarray:
        """A uniform random permutation of range(n) (Fisher-Yates)."""
        return self._streams.permutations(n)[0]
