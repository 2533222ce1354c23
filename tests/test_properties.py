"""Property tests: block draws, block replications and batched forest trees
against per-row runs and oracles; the table writer against its reader."""

import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from predbands import forest, table
from predbands.dataset import GenConfig, generate_dataset, make_grid
from predbands.forest import DecisionTreeRegressor, ForestParams, RandomForestRegressor
from predbands.montecarlo import StudyConfig, _replicate
from predbands.rng import Rng, Streams, stream_seeds
from predbands.table import read_table, write_table

from test_forest import exhaustive_tree_oracle, forest_trees

# derandomized so that every run of the suite checks the same examples
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), first=st.integers(0, 50),
       n_trees=st.integers(1, 20), n=st.integers(1, 300))
def test_bootstrap_block_equals_per_tree_draws(seed, first, n_trees, n):
    trees = range(first, first + n_trees)
    block = Streams(stream_seeds(seed, trees)).integers(n, n)
    assert block.shape == (n_trees, n) and block.dtype == np.int64
    for row, t in zip(block, trees):
        assert np.array_equal(row, Rng(stream_seeds(seed, range(t + 1))[t]).integers(n, size=n))
    # a vector of masters gives one row of stream seeds per master
    masters = stream_seeds(seed, range(3))
    for master, row in zip(masters, stream_seeds(masters, trees)):
        assert np.array_equal(row, stream_seeds(int(master), trees))


def test_growing_in_batches_changes_no_tree(monkeypatch):
    """Trees of several datasets grown in shared passes equal each forest grown alone."""
    master, big_r, n = 11, 40, 30
    xs = np.array([Rng(r).uniform(0.0, 10.0, n) for r in range(5)])
    ys = np.array([Rng(10 + r).normals(n) for r in range(5)])
    xs[1] = np.floor(xs[1])  # repeated x
    xs[2, ::2] = xs[2, 1::2]  # repeated x with distinct targets
    ys[3] = 2.5  # constant targets
    ys[4] = np.floor(ys[4])  # tied targets
    seeds = stream_seeds(master, range(big_r, big_r + 5))
    params = ForestParams(n_trees=12, min_samples_leaf=2, min_samples_split=4)
    alone = [RandomForestRegressor.from_params(params, seed=int(seeds[r]))
             .fit(xs[r], ys[r]) for r in range(5)]
    grid = np.linspace(0.0, 10.0, 23)
    for rows_cap in (5 * n, 17 * n, forest._BATCH_ROWS):  # passes split a forest, or span several
        monkeypatch.setattr(forest, "_BATCH_ROWS", rows_cap)
        fits = forest.fit_forests(xs, ys, params, seeds)
        for r, model in enumerate(alone):
            trees = forest_trees(fits, r)
            assert len(trees) == 12
            for (tree_thresholds, tree_values), (thresholds, values) in zip(
                    forest_trees(model.fits_), trees):
                assert np.array_equal(tree_thresholds, thresholds), f"forest {r}"
                assert np.array_equal(tree_values, values), f"forest {r}"
            assert np.array_equal(fits.predict(grid)[r], model.predict(grid))
            assert np.array_equal(fits.predict(xs)[r], model.predict(xs[r]))
    assert alone[3].fits_.n_leaves[0, 0] == 1


@st.composite
def forest_cases(draw, integer_targets):
    """x on a coarse grid, so x values repeat; integer or continuous targets."""
    xs = draw(st.lists(st.integers(0, 8), min_size=1, max_size=25))
    n = len(xs)
    if integer_targets:
        ys = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    else:
        ys = 10.0 * Rng(draw(st.integers(0, 2**64 - 1))).normals(n)
    return dict(
        xs=np.array(xs, dtype=float),
        ys=np.array(ys, dtype=float),
        n_trees=draw(st.integers(1, 5)),
        max_depth=draw(st.none() | st.integers(0, 4)),
        min_leaf=draw(st.integers(1, min(4, n))),
        min_split=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def check_trees(case):
    forest = RandomForestRegressor(
        n_trees=case["n_trees"], max_depth=case["max_depth"],
        min_samples_leaf=case["min_leaf"], min_samples_split=case["min_split"],
        seed=case["seed"]).fit(case["xs"], case["ys"])
    n = len(case["xs"])
    trees = forest_trees(forest.fits_)
    assert len(trees) == case["n_trees"]
    for t, (thresholds, values) in enumerate(trees):
        idx = Rng(stream_seeds(case["seed"], range(t + 1))[t]).integers(n, size=n)
        want_t, want_v = exhaustive_tree_oracle(case["xs"][idx], case["ys"][idx],
                                                case["max_depth"], case["min_leaf"],
                                                case["min_split"])
        assert thresholds.shape == want_t.shape, f"tree {t}"
        assert np.allclose(thresholds, want_t, rtol=1e-12, atol=1e-12), f"tree {t}"
        assert np.allclose(values, want_v, rtol=1e-12, atol=1e-12), f"tree {t}"
        assert len(values) == len(want_v)


# Continuous targets: bootstrap repeats give tied rows, the grid gives
# duplicate x with distinct targets.
@PROPERTY
@given(forest_cases(integer_targets=False))
def test_bootstrapped_trees_match_exhaustive_oracle(case):
    check_trees(case)


# Few integer targets: constant nodes and exact SSE ties are common.
@PROPERTY
@given(forest_cases(integer_targets=True))
def test_bootstrapped_trees_with_tied_targets_match_exhaustive_oracle(case):
    check_trees(case)


@st.composite
def routing_cases(draw):
    """x drawn from a pool of at most 8 values, so x values repeat; integer targets."""
    pool = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    xs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    ys = draw(st.lists(st.integers(-3, 3), min_size=len(xs), max_size=len(xs)))
    return np.array(xs), np.array(ys, dtype=float), draw(st.sampled_from([None, 0, 1, 3]))


# three adjacent doubles whose two midpoints both round to the middle one
_ADJACENT = 1.0 + np.array([1.0, 2.0, 3.0]) * np.finfo(float).eps


@PROPERTY
@given(routing_cases())
@example((_ADJACENT, np.array([0.0, 5.0, 10.0]), None)).via("two equal cuts")
def test_tree_routing_matches_searchsorted(case):
    """A tree predicts through its one-tree forest; the per-tree router
    ``leaf_values_[searchsorted(thresholds_, x, side="left")]`` is the oracle."""
    xs, ys, max_depth = case
    tree = DecisionTreeRegressor(max_depth=max_depth).fit(xs, ys)
    cuts = tree.thresholds_
    points = np.concatenate([cuts, np.nextafter(cuts, np.inf), np.nextafter(cuts, -np.inf),
                             xs, [1e300, -1e300]])
    want = tree.leaf_values_[np.searchsorted(cuts, points, side="left")]
    assert tree.predict(points).tobytes() == want.tobytes()


def polar_oracle(seed, n):
    """Scalar polar method, one uniform pair at a time: (n normals, pairs consumed)."""
    rng, out, pairs = Rng(seed), [], 0
    while len(out) < n:
        a, b = rng.uniforms(2)
        pairs += 1
        u, v = 2.0 * a - 1.0, 2.0 * b - 1.0
        s = u * u + v * v
        if 0.0 < s < 1.0:
            f = math.sqrt(-2.0 * math.log(s) / s)
            out += [u * f, v * f]
    return np.array(out[:n]), pairs


def check_block_normals(seeds, n):
    """Each row of a block of normals equals its stream drawn alone, and the
    scalar oracle; the draw after it equals the oracle's next draw."""
    block = Streams(seeds)
    normals, after = block.normals(n), block.uniforms(1)[:, 0]
    rounds = []
    for i, seed in enumerate(map(int, seeds)):
        alone = Rng(seed)
        assert np.array_equal(normals[i], alone.normals(n)), f"row {i}"
        assert after[i] == alone.uniforms(1)[0], f"row {i}"
        want, pairs = polar_oracle(seed, n)
        assert np.allclose(normals[i], want, rtol=1e-14, atol=0.0), f"row {i}"
        assert after[i] == Rng(seed).uniforms(2 * pairs + 1)[-1], f"row {i}"
        rounds.append(pairs > (n + 1) // 2)
    return rounds


@PROPERTY
@given(master=st.integers(0, 2**64 - 1), rows=st.integers(1, 12), n=st.integers(0, 41))
def test_block_normals_equal_per_row_draws(master, rows, n):
    check_block_normals(stream_seeds(master, range(rows)), n)


def test_block_normals_with_several_rejection_rounds():
    # 101 pairs a row: every row rejects some pair, so the block's rows end
    # at different draws
    assert all(check_block_normals(stream_seeds(5, range(64)), 201))


@PROPERTY
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(0, 60), extra=st.integers(0, 60))
def test_normals_prefix(seed, k, extra):
    assert np.array_equal(Rng(seed).normals(k), Rng(seed).normals(k + extra)[:k])


@st.composite
def study_blocks(draw):
    """A small study and a block of its replications; n_test leaves >= 2 training rows."""
    n = draw(st.integers(2, 41))
    n_test = draw(st.integers(0, n - 2))
    replications = draw(st.integers(2, 40))
    first = draw(st.integers(0, replications - 1))
    return dict(seed=draw(st.integers(0, 2**64 - 1)), n=n, n_test=n_test,
                model=draw(st.sampled_from(["linear", "forest"])),
                replications=replications,
                reps=(first, draw(st.integers(first + 1, replications))),
                rows_cap=draw(st.sampled_from([None, 1, 30, 100])))


@PROPERTY
@given(study_blocks())
@example(dict(seed=3, n=2, n_test=0, model="linear", replications=9, reps=(0, 9), rows_cap=None))
@example(dict(seed=4, n=7, n_test=3, model="linear", replications=9, reps=(2, 9), rows_cap=None))
@example(dict(seed=5, n=9, n_test=2, model="forest", replications=5, reps=(0, 5), rows_cap=None))
# forest blocks that span several grower passes, with and without a holdout
@example(dict(seed=6, n=10, n_test=0, model="forest", replications=9, reps=(1, 9), rows_cap=30))
@example(dict(seed=7, n=12, n_test=4, model="forest", replications=9, reps=(0, 8), rows_cap=20))
def test_block_rows_equal_batches_of_one(case):
    config = StudyConfig(
        gen=GenConfig(n_samples=case["n"], seed=case["seed"]),
        grid=make_grid(150.0, 200.0, 7), replications=case["replications"],
        model=case["model"], forest=ForestParams(n_trees=2, min_samples_leaf=1),
        test_fraction=case["n_test"] / case["n"] if case["n_test"] else None)
    reps = range(*case["reps"])
    def with_rows(part):
        """A block's results, with a linear block's rows derived from its lines."""
        rows, slopes, intercepts, holdout = part
        assert (rows is None) == (config.model == "linear")
        if rows is None:
            rows = intercepts[:, None] + slopes[:, None] * config.grid.points
        return rows, slopes, intercepts, holdout

    with mock.patch.object(forest, "_BATCH_ROWS", case["rows_cap"] or forest._BATCH_ROWS):
        block = with_rows(_replicate(config, reps))
    assert len(block[0]) == len(reps)
    for i, r in enumerate(reps):
        one = with_rows(_replicate(config, range(r, r + 1)))
        for got, want in zip(block, one):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got[i], want[0], equal_nan=True), f"replication {r}"


@st.composite
def tied_rows(draw):
    """(rows, n) values from a pool of at most 6 values of mixed signs, so values tie."""
    finite = st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 0.0, 5e-324, -1.5])
    pool = draw(st.lists(finite, min_size=1, max_size=6))
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 12)))
    values = draw(arrays(np.float64, shape, elements=st.sampled_from(pool)))
    values[draw(arrays(np.bool_, shape)) & draw(st.booleans())] = np.nan
    return values


@PROPERTY
@given(tied_rows())
@example(np.array([[-0.0, -0.0], [1e300, 1e300], [-3.0, 3.0]]))
@example(np.array([[2.0, np.nan, 1.0]]))
def test_forest_median_equals_numpys(values):
    # the forest code avoids np.median, which imports numpy.ma
    assert forest._median(values).tobytes() == np.median(values, axis=1).tobytes()


# -0.0, subnormals, and the doubles around 1e16 and 1e-4, where repr
# switches between positional and exponent form
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308,
                9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,
                0.0001, 9.999999999999999e-05, 0.00010000000000000002, -0.0001,
                1.7976931348623157e308, 0.1, 1 / 3]


@st.composite
def tables(draw):
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 5)))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(arrays(np.float64, shape, elements=finite | st.sampled_from(EDGE_DOUBLES)))
    # coefficient cells of a forest study are nan
    rows[draw(arrays(np.bool_, shape))] = np.nan
    return rows


def repr_lines(rows):
    return [",".join(map(repr, row)) for row in rows.tolist()]


@PROPERTY
@given(tables())
@example(np.array([EDGE_DOUBLES]))
@example(np.array(EDGE_DOUBLES)[:, None])
@example(np.array([[np.nan, np.nan, 0.5]] * 3))
# a plain row at the bounds of orjson's range, an exponent row and a nan row
@example(np.array([[0.0001, -9999999999999998.0, -0.0, 1 / 3],
                   [1e16, 9.999999999999999e-05, 0.5, 1.0],
                   [0.25, np.nan, 2.0, -7.5]]))
def test_table_round_trip_is_bit_exact(rows):
    header = [f"c{j}" for j in range(rows.shape[1])]
    csv, doc = io.StringIO(), io.StringIO()
    # with no size threshold, even these small tables write plain rows with orjson
    with mock.patch.object(table, "_ORJSON_MIN_VALUES", 0):
        write_table(csv, header, rows)
    assert csv.getvalue().splitlines() == [",".join(header), *repr_lines(rows)]
    write_table(doc, header, rows, "json")
    names, back = read_table(io.StringIO(csv.getvalue()))
    assert names == header
    columns = json.loads(doc.getvalue())
    from_json = np.array([[np.nan if v is None else v for v in columns[name]]
                          for name in header]).T
    for got in (back, from_json):
        assert got.shape == rows.shape
        assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))


def test_table_at_the_size_threshold_is_repr_text():
    rows = np.random.default_rng(8).normal(size=(200, 1001))
    assert rows.size >= table._ORJSON_MIN_VALUES
    csv = io.StringIO()
    write_table(csv, [f"c{j}" for j in range(1001)], rows)
    assert csv.getvalue().splitlines()[1:] == repr_lines(rows)


# cells that orjson must refuse, or read as a non-float, so that float reads
# the row: ints (orjson reads -0 as 0), non-finite and overflowing numbers,
# JSON values that are not numbers, and spellings that JSON does not allow
LOADTXT_CELLS = ["-0", "7", "9007199254740993", "-18446744073709551617", "nan", "inf",
                 "-inf", "1e999", "true", "null", '"1.5"', "[2]", "01", "1.", ".5", ""]


@st.composite
def table_texts(draw):
    width = draw(st.integers(1, 4))
    # decimals of up to 26 digits in exponent form, such as 1e5 and -12.5E-3
    decimal = st.builds("{}{}{}{}".format, st.integers(-10**25, 10**25),
                        st.just("") | st.integers(0, 10**25).map(".{}".format),
                        st.sampled_from(["e", "E", "e+", "e-", "E-"]), st.integers(0, 400))
    plain = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
             | st.sampled_from(EDGE_DOUBLES).map(repr) | decimal)
    rows = draw(st.lists(st.lists(plain, min_size=width, max_size=width), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(LOADTXT_CELLS))
    if draw(st.integers(0, 9)) == 0:  # a row of the wrong width
        draw(st.sampled_from(rows)).append(draw(plain))
    pad = st.sampled_from(["", " ", "\t"])
    lines = [",".join(draw(pad) + cell + draw(pad) for cell in row)
             + draw(st.sampled_from(["\n", "\r\n"])) for row in rows]
    return ",".join(f"c{j}" for j in range(width)) + "\n" + "".join(lines)


@PROPERTY
@given(table_texts())
@example("c0,c1\n0.1,-2.5e-320\n9999999999999998.0,1e+16\n")  # repr of doubles
@example("c0\n-0\n")
@example("c0\n9007199254740993\n")
@example("c0,c1\n1e5,2E-3\n")
@example("c0,c1\n 1.5\t,\t-0.25 \r\n")
@example("c0\n1.5\nnan\n")
@example("c0\ninf\n")
@example("c0\n1e999\n")
@example("c0\ntrue\n")
@example("c0\nnull\n")
@example('c0\n"1.5"\n')
@example("c0\n[2]\n")
@example("c0\n01\n")
@example("c0\n1.\n")
@example("c0\n.5\n")
@example("c0,c1\n1.5,\n")
@example("c0,c1\n1,2],[3,4\n")
@example("c0,c1\n1.0,2.0],[3.0,4.0\n")
def test_orjson_reader_matches_loadtxt(text):
    got = []
    for threshold in (0, 10**9):  # orjson for any table, then float for every table
        with mock.patch.object(table, "_ORJSON_MIN_VALUES", threshold):
            try:
                got.append(read_table(io.StringIO(text)))
            except ValueError as exc:
                got.append(str(exc))
    fast, oracle = got
    if isinstance(oracle, str):
        assert fast == oracle
    else:
        assert fast[0] == oracle[0] and fast[1].shape == oracle[1].shape
        assert np.array_equal(fast[1].view(np.uint64), oracle[1].view(np.uint64))
    # numpy's own tokenizer, which shares no code with the reader
    try:
        want = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, skiprows=1, ndmin=2)
    except ValueError:
        want = None
    if want is None or want.shape[1] != len(text.partition("\n")[0].split(",")):
        assert isinstance(oracle, str) and oracle.startswith("line ")
    else:
        assert np.array_equal(oracle[1].view(np.uint64), want.view(np.uint64))


def test_tables_from_the_size_threshold_are_read_by_orjson(monkeypatch):
    rows = np.random.default_rng(9).normal(size=(10, 1000))
    assert rows.size == table._ORJSON_MIN_VALUES
    csv = io.StringIO()
    write_table(csv, [f"c{j}" for j in range(1000)], rows)
    import orjson
    loads = orjson.loads
    # one call per row of the table of 10,000 values, none for 9,000
    for text, n_rows, n_calls in ((csv.getvalue(), 10, 10), (csv.getvalue().rsplit("\n", 2)[0], 9, 0)):
        calls = []
        monkeypatch.setattr(orjson, "loads", lambda *args: calls.append(1) or loads(*args))
        back = read_table(io.StringIO(text))[1]
        assert np.array_equal(back.view(np.uint64), rows[:n_rows].view(np.uint64))
        assert len(calls) == n_calls


class _Stream:
    """A text handle that reads forward only: it has no seek and no tell."""

    def __init__(self, text):
        self._lines = iter(text.splitlines(keepends=True))

    def __iter__(self):
        return self._lines

    def read(self):
        return "".join(self._lines)


def test_table_is_read_in_one_forward_pass():
    rows = np.random.default_rng(10).normal(size=(12, 1001))
    rows[-1, 3] = np.nan  # a row orjson refuses, after 11 it reads
    csv = io.StringIO()
    write_table(csv, [f"c{j}" for j in range(1001)], rows)
    lines = csv.getvalue().splitlines(keepends=True)
    text = "".join(lines[:-1] + ["\n", lines[-1]])  # the nan row is line 14
    back = read_table(_Stream(text))[1]
    assert np.array_equal(back.view(np.uint64), rows.view(np.uint64))
    bad = text[:text.rindex(",")] + ",oops\n"
    with pytest.raises(ValueError, match="^line 14: could not parse 'oops'$"):
        read_table(_Stream(bad))
    # a small table's cells are whatever float reads
    assert read_table(io.StringIO("a,b\n1_0,2.5\n"))[1].tolist() == [[10.0, 2.5]]
