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


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Derive the seed of sub-stream ``index`` from a master seed.

    Computes ``mix64(master_seed XOR (index + 1) * 0x9E3779B97F4A7C15)``
    (all mod 2**64).  The map is injective in ``index`` for a fixed
    master seed, so distinct indices can never collide.
    """
    if index < 0:
        raise ValueError("index must be non-negative")
    return _mix64((master_seed & _MASK) ^ (((index + 1) * _GOLDEN) & _MASK))


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def _uniforms(seeds, drawn: int, n: int) -> np.ndarray:
    """Draws ``drawn+1 .. drawn+n`` of the streams seeded with ``seeds``, as uniforms.

    ``seeds`` is a uint64 scalar, or a column of them for one row per stream.
    """
    counters = np.arange(drawn + 1, drawn + n + 1, dtype=np.uint64)
    words = _mix64_vec(seeds + counters * np.uint64(_GOLDEN))
    return (words >> np.uint64(11)) * 2.0 ** -53


def _integers(uniforms: np.ndarray, bound: int) -> np.ndarray:
    return np.floor(uniforms * bound).astype(np.int64)


def stream_integers(master_seed: int, streams: range, bound: int, size: int) -> np.ndarray:
    """(len(streams), size) bounded integers, one row per derived stream.

    Row i equals ``Rng(derive_seed(master_seed, streams[i])).integers(bound, size)``
    bit for bit, so a forest can draw many bootstrap samples at once.
    """
    if bound <= 0:
        raise ValueError("bound must be positive")
    seeds = np.array([derive_seed(master_seed, t) for t in streams], dtype=np.uint64)
    return _integers(_uniforms(seeds[:, None], 0, size), bound)


class Rng:
    """Sequential view of one SplitMix64 counter stream.

    Instances are cheap; create one per task from :func:`derive_seed`
    rather than sharing a stream across tasks.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK)
        self._drawn = 0

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles, i.i.d. uniform on [0, 1)."""
        uniforms = _uniforms(self._seed, self._drawn, n)
        self._drawn += n
        return uniforms

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n doubles, i.i.d. uniform on [low, high)."""
        return low + (high - low) * self.uniforms(n)

    def normals(self, n: int) -> np.ndarray:
        """n doubles, i.i.d. standard normal (polar method)."""
        pairs_needed = (n + 1) // 2
        out = np.empty(2 * pairs_needed)
        have = 0
        while have < pairs_needed:
            block = self.uniforms(2 * (pairs_needed - have)).reshape(-1, 2)
            u = 2.0 * block[:, 0] - 1.0
            v = 2.0 * block[:, 1] - 1.0
            s = u * u + v * v
            keep = (s > 0.0) & (s < 1.0)
            u, v, s = u[keep], v[keep], s[keep]
            f = np.sqrt(-2.0 * np.log(s) / s)
            k = len(s)
            out[2 * have : 2 * (have + k) : 2] = u * f
            out[2 * have + 1 : 2 * (have + k) + 1 : 2] = v * f
            have += k
        return out[:n]

    def integers(self, bound: int, size: int) -> np.ndarray:
        """size integers, i.i.d. uniform on {0, ..., bound-1}."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return _integers(self.uniforms(size), bound)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform random permutation of range(n) (Fisher-Yates)."""
        idx = np.arange(n)
        if n < 2:
            return idx
        u = self.uniforms(n - 1)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = int(u[k] * (i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx
