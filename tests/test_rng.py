import random
import tracemalloc

import numpy as np
import pytest

from predbands import rng
from predbands.rng import Rng, Streams, stream_seeds

MASK = 2**64 - 1


def formula_seed(master: int, index: int) -> int:
    """Sub-stream ``index`` of ``master`` by README's formula, in Python ints."""
    z = master ^ ((index + 1) * 0x9E3779B97F4A7C15 & MASK)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
    return z ^ (z >> 31)


def test_stream_seeds_match_the_formula():
    draw = random.Random(2026)
    masters = [0, MASK] + [draw.getrandbits(64) for _ in range(6)]
    for streams in (range(5), range(1000, 1010), range(3, 40, 7), range(2**40, 2**40 + 3)):
        for master in masters:
            want = [formula_seed(master, i) for i in streams]
            assert stream_seeds(master, streams).tolist() == want, (master, streams)
        # a vector of masters gives one row per master
        want = [[formula_seed(m, i) for i in streams] for m in masters]
        assert stream_seeds(masters, streams).tolist() == want, streams


def test_derive_seed_distinct_adjacent():
    first, second = stream_seeds(123456789, range(2))
    assert first != second


def test_derive_seed_no_collisions_over_1000():
    outs = stream_seeds(0x9E3779B97F4A7C15, range(1000))
    assert len(set(outs.tolist())) == 1000


def test_stream_seeds_are_64_bit_words():
    seeds = stream_seeds(MASK, range(12, 13))
    assert seeds.dtype == np.uint64 and 0 <= int(seeds[0]) <= MASK


def test_uniform_stream_blocks_compose():
    whole = Rng(42).uniforms(10)
    r = Rng(42)
    pieces = np.concatenate([r.uniforms(3), r.uniforms(3), r.uniforms(4)])
    assert np.array_equal(whole, pieces)


def test_uniforms_in_unit_interval():
    u = Rng(7).uniforms(10000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_respects_bounds():
    v = Rng(3).uniform(150.0, 200.0, 5000)
    assert v.min() >= 150.0
    assert v.max() < 200.0


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).uniforms(8), Rng(2).uniforms(8))


def test_normals_deterministic_and_prefix_stable():
    a = Rng(11).normals(4)
    b = Rng(11).normals(4)
    assert np.array_equal(a, b)
    # an odd request discards the spare, so it shares the prefix
    c = Rng(11).normals(3)
    assert np.array_equal(c, a[:3])


@pytest.mark.parametrize("n", [7, 100])
def test_polar_round_size_moves_nothing(monkeypatch, n):
    # Rounds of only the missing pairs take many rounds; larger rounds draw
    # pairs past a row's last accepted one, which are not consumed.
    def draw():
        streams = Streams(stream_seeds(17, range(50)))
        return streams.normals(n), streams._drawn.copy(), streams.uniforms(5)

    wide, rounds = draw(), []
    monkeypatch.setattr(rng, "_round_pairs", lambda missing: rounds.append(missing) or missing)
    narrow = draw()
    assert len(rounds) > 2
    for got, want in zip(wide, narrow):
        assert np.array_equal(got, want)


def test_normals_hold_few_temporaries():
    # a 64 x 100 block is 51 KB; each round's mixing and split once made
    # several (rows, draws) arrays more, and the block outlived its split
    seeds = stream_seeds(3, range(64))
    Streams(seeds).normals(100)  # caches outside the trace
    tracemalloc.start()
    try:
        Streams(seeds).normals(100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 260_000, peak


def test_mixing_leaves_the_callers_arrays_alone():
    streams = Streams(stream_seeds(4, range(3)))
    drawn = streams._drawn.copy()
    first = streams._uniforms_at(drawn, 9)
    assert np.array_equal(drawn, streams._drawn)
    assert np.array_equal(first, streams.uniforms(9))
    masters = np.array([3, 2**63 + 1], dtype=np.uint64)  # _seed_array keeps a view of these
    stream_seeds(masters, range(4))
    assert masters.tolist() == [3, 2**63 + 1]


def test_normals_moments():
    z = Rng(5).normals(200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std(ddof=1) - 1.0) < 0.01
    # tail sanity: about 4.6% beyond +/-2
    frac = np.mean(np.abs(z) > 2.0)
    assert 0.035 < frac < 0.056


def test_integers_bounds_and_validation():
    idx = Rng(9).integers(100, size=10000)
    assert idx.min() >= 0
    assert idx.max() <= 99
    assert len(np.unique(idx)) > 90
    with pytest.raises(ValueError):
        Rng(9).integers(0, size=3)


def test_permutation_is_permutation():
    perm = Rng(13).permutation(50)
    assert sorted(perm.tolist()) == list(range(50))
    assert np.array_equal(perm, Rng(13).permutation(50))
    assert not np.array_equal(perm, np.arange(50))


def test_permutation_tiny():
    assert Rng(1).permutation(0).tolist() == []
    assert Rng(1).permutation(1).tolist() == [0]
