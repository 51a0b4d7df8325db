"""Unit and property tests for the compressed-row matrix storage.

The property suite keeps one dense reference: a numpy ``(3, n, n)``
count cube built inside the test.  Every accessor the detectors read
must equal it bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ratings.matrix import RatingMatrix

N = 12


def fill(matrix):
    """A fixed workload touching every plane, incl. neutrals and count=0."""
    matrix.add(1, 0, 1, count=3)
    matrix.add(2, 0, -1, count=2)
    matrix.add(3, 0, 0, count=4)   # neutral: counts only
    matrix.add(1, 5, 1)
    matrix.add(0, 5, -1, count=2)
    matrix.add(7, 6, 1, count=9)
    matrix.add(7, 6, -1)
    matrix.add(4, 2, 1, count=0)   # no-op
    return matrix


class TestBackendSemantics:
    def test_aggregates(self):
        m = fill(RatingMatrix(N))
        assert m.received_total()[0] == 9
        assert m.received_positive()[0] == 3
        assert m.received_negative()[0] == 2
        assert m.received_effective()[0] == 5   # neutrals excluded
        assert m.reputation_sum()[0] == 1
        assert m.received_total()[6] == 10

    def test_pair_accessors(self):
        m = fill(RatingMatrix(N))
        assert m.pair_count(3, 0) == 4
        assert m.pair_positive(3, 0) == 0
        assert m.pair_negative(3, 0) == 0
        assert m.pair_count(7, 6) == 10
        assert m.pair_positive(7, 6) == 9
        assert m.pair_negative(7, 6) == 1
        assert m.pair_count(9, 10) == 0
        assert m.pair_count(4, 2) == 0   # the count=0 add stored nothing

    def test_row_entries_sorted_and_elided(self):
        m = fill(RatingMatrix(N))
        raters, cnt, pos = m.row_entries(0, effective=True)
        # rater 3 contributed only neutrals: absent from the effective row
        assert raters.tolist() == [1, 2]
        assert cnt.tolist() == [3, 2]
        assert pos.tolist() == [3, 0]
        raters_raw, cnt_raw, _ = m.row_entries(0, effective=False)
        assert raters_raw.tolist() == [1, 2, 3]
        assert cnt_raw.tolist() == [3, 2, 4]
        empty = m.row_entries(11)
        assert all(a.size == 0 for a in empty)

    def test_entries_coo_sorted(self):
        m = fill(RatingMatrix(N))
        t, r, cnt, pos = m.entries(effective=True)
        order = sorted(zip(t.tolist(), r.tolist()))
        assert list(zip(t.tolist(), r.tolist())) == order
        assert int(cnt.sum()) == int(m.received_effective().sum())
        assert int(pos.sum()) == int(m.received_positive().sum())

    def test_reset_and_copy(self):
        m = fill(RatingMatrix(N))
        clone = m.copy()
        assert clone == m
        m.add(8, 9, 1)
        assert clone != m          # deep copy: originals diverge freely
        m.reset()
        assert int(m.received_total().sum()) == 0
        assert m.row_entries(0)[0].size == 0
        assert int(clone.received_total().sum()) > 0


@st.composite
def event_columns(draw):
    """One ``add_events`` batch: (raters, targets, values), no self-ratings."""
    size = draw(st.integers(0, 30))
    raters = draw(st.lists(st.integers(0, N - 1), min_size=size,
                           max_size=size))
    targets = [(r + draw(st.integers(1, N - 1))) % N for r in raters]
    values = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=size,
                           max_size=size))
    return (np.asarray(raters, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.asarray(values, dtype=np.int64))


@st.composite
def scripts(draw):
    """Interleaved ``add`` / ``add_events`` / ``reset`` operations.

    A small rater pool makes repeated (target, rater) pairs common, so
    both the in-place bump and the row insert/merge paths run.
    """
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["add"] * 4 + ["events"] * 3 + ["reset"]))
        if kind == "add":
            rater = draw(st.integers(0, N - 1))
            target = (rater + draw(st.integers(1, N - 1))) % N
            ops.append(("add", rater, target,
                        draw(st.sampled_from([-1, 0, 1])),
                        draw(st.integers(0, 4))))
        elif kind == "events":
            ops.append(("events",) + draw(event_columns()))
        else:
            ops.append(("reset",))
    return ops


def apply(matrix, cube, op):
    """Run one script step on the matrix and on the dense reference cube
    (planes: total, positive, negative; indexed ``[target, rater]``)."""
    if op[0] == "add":
        _, rater, target, value, count = op
        matrix.add(rater, target, value, count)
        cube[0, target, rater] += count
        if value:
            cube[1 if value == 1 else 2, target, rater] += count
    elif op[0] == "events":
        _, raters, targets, values = op
        matrix.add_events(raters, targets, values)
        np.add.at(cube[0], (targets, raters), 1)
        for plane, value in ((1, 1), (2, -1)):
            sel = values == value
            np.add.at(cube[plane], (targets[sel], raters[sel]), 1)
    else:
        matrix.reset()
        cube[:] = 0


def assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == np.int64
        np.testing.assert_array_equal(a, b)


def assert_matches_reference(matrix, cube):
    total, pos, neg = cube
    for effective in (True, False):
        plane = pos + neg if effective else total
        t, r = np.nonzero(plane)          # row-major: (target, rater) order
        assert_bits_equal(matrix.entries(effective),
                          (t, r, plane[t, r], pos[t, r]))
        for target in range(N):
            idx = np.flatnonzero(plane[target])
            assert_bits_equal(matrix.row_entries(target, effective),
                              (idx, plane[target, idx], pos[target, idx]))
    t, r = np.nonzero(total | pos | neg)
    assert_bits_equal(matrix.all_entries(),
                      (t, r, total[t, r], pos[t, r], neg[t, r]))
    for target in range(N):
        for rater in range(N):
            assert matrix.backend.pair_triple(rater, target) == (
                total[target, rater], pos[target, rater], neg[target, rater])
    assert_bits_equal(
        (matrix.received_total(), matrix.received_positive(),
         matrix.received_negative(), matrix.received_effective(),
         matrix.reputation_sum()),
        (total.sum(axis=1), pos.sum(axis=1), neg.sum(axis=1),
         (pos + neg).sum(axis=1), (pos - neg).sum(axis=1)))


def from_reference(cube):
    """A fresh matrix holding exactly the reference cube's counts."""
    out = RatingMatrix(N)
    total, pos, neg = cube
    for target, rater in zip(*np.nonzero(total)):
        for value, count in ((1, pos), (-1, neg), (0, total - pos - neg)):
            out.add(int(rater), int(target), value,
                    int(count[target, rater]))
    return out


class TestDenseReference:
    @given(scripts())
    @settings(max_examples=80, deadline=None)
    def test_every_accessor_matches_dense_reference(self, ops):
        matrix = RatingMatrix(N)
        cube = np.zeros((3, N, N), dtype=np.int64)
        for op in ops:
            apply(matrix, cube, op)
            assert_matches_reference(matrix, cube)
        rebuilt = from_reference(cube)
        assert rebuilt == matrix and matrix.copy() == matrix
        rebuilt.add(0, 1, 0)
        assert rebuilt != matrix


@st.composite
def event_batches(draw):
    """One to three ``add_events`` batches."""
    return [draw(event_columns()) for _ in range(draw(st.integers(1, 3)))]


class TestDenseSparseParity:
    """Bulk ingest into the compressed rows against the dense reference
    cube, and per-event ``add`` against bulk ``add_events``."""

    @given(event_batches())
    @settings(max_examples=60, deadline=None)
    def test_bulk_ingest_parity(self, batches):
        matrix = RatingMatrix(N)
        cube = np.zeros((3, N, N), dtype=np.int64)
        for raters, targets, values in batches:
            apply(matrix, cube, ("events", raters, targets, values))
        assert_matches_reference(matrix, cube)
        assert matrix == from_reference(cube)

    @given(event_batches())
    @settings(max_examples=30, deadline=None)
    def test_incremental_equals_bulk(self, batches):
        """Per-event add() and bulk add_events agree on the rows."""
        bulk = RatingMatrix(N)
        incremental = RatingMatrix(N)
        for raters, targets, values in batches:
            bulk.add_events(raters, targets, values)
            for r, t, v in zip(raters, targets, values):
                incremental.add(int(r), int(t), int(v))
        assert bulk == incremental


class TestStorageFootprint:
    """Every array the store holds sits in a ``__slots__`` attribute, so
    summing their ``nbytes`` sizes the whole matrix."""

    def test_slot_arrays_are_the_whole_store(self):
        m = fill(RatingMatrix(N))
        m.add_events(np.array([0, 3, 9]), np.array([1, 0, 4]),
                     np.array([1, -1, 0]))
        store = m.backend
        assert not hasattr(store, "__dict__")
        values = [getattr(store, name) for name in type(store).__slots__]
        for value in values:
            assert not isinstance(value, (list, dict, tuple, set))
        stored = m.all_entries()[0].size
        assert stored == 8
        # indptr (n + 1) + raters/counts/pos/neg (one each per stored
        # entry) + the three length-n node aggregates, all int64.
        assert sum(v.nbytes for v in values if isinstance(v, np.ndarray)) \
            == 8 * ((N + 1) + 4 * stored + 3 * N)
