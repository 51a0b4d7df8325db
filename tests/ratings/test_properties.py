"""Property-based tests on the rating substrate (hypothesis)."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.ratings import io as ratings_io
from repro.ratings.io import decode_jsonl, iter_jsonl, load_jsonl
from repro.ratings.ledger import RatingLedger
from repro.ratings.matrix import RatingMatrix

from tests.conftest import matrix_runs

N = 8

events_strategy = st.lists(
    st.tuples(
        st.integers(0, N - 1),                 # rater
        st.integers(0, N - 1),                 # target
        st.sampled_from([-1, 0, 1]),           # value
        st.floats(0, 100, allow_nan=False),    # time
    ).filter(lambda e: e[0] != e[1]),
    max_size=120,
)


def ledger_from(events):
    led = RatingLedger(N)
    for r, t, v, tm in events:
        led.add(r, t, v, tm)
    return led


class TestLedgerMatrixConsistency:
    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_bulk(self, events):
        """Matrix built event-by-event equals matrix built via the ledger."""
        incremental = RatingMatrix(N)
        for r, t, v, _ in events:
            incremental.add(r, t, v)
        assert ledger_from(events).to_matrix() == incremental

    @given(events_strategy, st.floats(0, 100, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_window_partition(self, events, split):
        """Counts over [0, split) + [split, inf) equal the full counts."""
        led = ledger_from(events)
        full = led.to_matrix()
        left = led.to_matrix(t1=split)
        right = led.to_matrix(t0=split)
        combined = RatingMatrix(N)
        for part in (left, right):
            for rater, target, value, count in matrix_runs(part):
                combined.add(rater, target, value, count)
        assert combined == full

    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_reputation_sum_identity(self, events):
        """R_i == N+_i - N-_i and |R_i| <= N_i always."""
        m = ledger_from(events).to_matrix()
        rep = m.reputation_sum()
        np.testing.assert_array_equal(
            rep, m.received_positive() - m.received_negative()
        )
        assert (np.abs(rep) <= m.received_total()).all()

    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_counts_bound_parts(self, events):
        """positives + negatives never exceed totals (neutrals fill the gap)."""
        m = ledger_from(events).to_matrix()
        _, _, counts, pos, neg = m.all_entries()
        assert (pos + neg <= counts).all()
        assert (counts >= 1).all()   # only nonzero entries are stored

    @given(events_strategy)
    @settings(max_examples=60, deadline=None)
    def test_pair_frequency_table_totals(self, events):
        """The frequency table's counts sum to the event count."""
        led = ledger_from(events)
        _, _, counts = led.pair_frequency_table()
        assert counts.sum() == len(led)

    @given(events_strategy)
    @settings(max_examples=40, deadline=None)
    def test_pair_series_matches_filter(self, events):
        """pair_series returns exactly the events of that pair, ordered."""
        led = ledger_from(events)
        for rater, target in {(e[0], e[1]) for e in events[:5]}:
            times, values = led.pair_series(rater, target)
            expected = sorted(
                [(tm, v) for r, t, v, tm in events if r == rater and t == target],
                key=lambda x: x[0],
            )
            assert len(times) == len(expected)
            assert (np.diff(times) >= 0).all()
            assert sorted(values.tolist()) == sorted(v for _, v in expected)


# ----------------------------------------------------------------------
# JSONL reader: the chunked columnar reader equals the per-line reference
# ----------------------------------------------------------------------
def reference_iter(path, n=None, skip=0):
    """Text-mode lines through ``decode_jsonl``: the per-line reference."""
    if skip < 0:
        raise TraceError(f"skip must be non-negative, got {skip}")
    with path.open(encoding="utf-8") as handle:
        seen = 0
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            seen += 1
            if seen <= skip:
                continue
            yield decode_jsonl(line, n=n, where=f"{path}:{line_no}")


INT64_MAX = 2**63 - 1


def reference_load(path, n=None):
    """Every reference event, then one ``add_rating`` each.  With no
    ``n``, the first event naming an id past ``int64`` is a
    ``TraceError`` at its line."""
    events = list(reference_iter(path))
    if n is None:
        with path.open(encoding="utf-8") as handle:
            numbered = [no for no, line in enumerate(handle, start=1)
                        if line.strip()]
        for line_no, event in zip(numbered, events):
            if max(event.rater, event.target) > INT64_MAX:
                node = (event.rater if event.rater > INT64_MAX
                        else event.target)
                raise TraceError(f"{path}:{line_no}: node id {node} does "
                                 f"not fit the ledger's int64 columns")
        n = 1 + max((max(e.rater, e.target) for e in events), default=0)
    ledger = RatingLedger(n)
    for event in events:
        ledger.add_rating(event)
    return ledger


def outcome(read):
    """What ``read()`` returns, bit for bit, or its exception's class
    and message."""
    try:
        result = read()
    except Exception as exc:  # the class and message are the outcome
        return type(exc), str(exc)
    if isinstance(result, RatingLedger):
        return result.n, [column.tobytes() for column in (
            result.raters, result.targets, result.values, result.times)]
    return [(e.rater, e.target, e.value, e.time.hex()) for e in result]


# Field text ``decode_jsonl`` refuses, or accepts only off the fast path.
_ODD_NUMBER = st.sampled_from([
    "true", "false", "null", "1.5", "3.0", "-0.0", "NaN", "Infinity",
    "1e400", "1" * 5000, '"7"', "[]", "-1", "-3", "20", str(2**63),
    str(2**64 + 1)])
_ODD_TIME = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "true", "null",
    '"7"', "7", "-0"])


def _record(fields, keys):
    return "{" + ", ".join(f'"{k}": {fields[k]}' for k in keys) + "}"


@st.composite
def rating_fields(draw):
    """The fields of a record ``decode_jsonl`` accepts: ids and values as
    ints or integral floats, a float, integer or missing time, maybe an
    extra field."""
    rater, target = draw(st.tuples(st.integers(0, 12), st.integers(0, 12))
                         .filter(lambda pair: pair[0] != pair[1]))
    integral = st.sampled_from(["{}", "{}", "{}", "{}.0"])
    fields = {
        "rater": draw(integral).format(rater),
        "target": draw(integral).format(target),
        "value": draw(integral).format(draw(st.sampled_from([-1, 0, 1]))),
    }
    if draw(st.integers(0, 3)):
        fields["time"] = draw(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.integers(-5, 5).map(str)))
    if not draw(st.integers(0, 5)):
        fields["note"] = '"x"'
    return fields


@st.composite
def rating_line(draw):
    """An accepted record in any key order, maybe padded."""
    fields = draw(rating_fields())
    line = _record(fields, draw(st.permutations(list(fields))))
    return (draw(st.sampled_from(["", "", " ", "\t ", "\xa0", "\x1c"])) + line
            + draw(st.sampled_from(["", "", " ", "\t", "\u2003"])))


@st.composite
def odd_record(draw):
    """An accepted record with one field dropped or made odd: a boolean,
    a fraction, a non-finite or huge number, a string, a bad value, a
    negative, self-rating or large id."""
    fields = draw(rating_fields())
    field = draw(st.sampled_from(["rater", "target", "value", "time"]))
    if draw(st.integers(0, 4)):
        fields[field] = draw(
            _ODD_TIME if field == "time" else st.one_of(
                _ODD_NUMBER, st.sampled_from(["2", "-2"]),
                st.just(fields["target" if field == "rater" else "rater"])))
    else:
        fields.pop(field, None)
    return _record(fields, draw(st.permutations(list(fields))))


_ODD_LINE = st.one_of(
    odd_record(), odd_record(), odd_record(),
    st.sampled_from(["{broken", "[1, 2]", "nul", "7", '"text"', "[" * 3000]),
    st.tuples(rating_line(), st.sampled_from([" x", "}", ",", " {}"])).map("".join),
    st.tuples(rating_line(), rating_line()).map("".join),
    rating_line().map("\ufeff".__add__),
)
# Lines the reference refuses or reads alone, but that one JSON array of
# the joined lines would read as one record, or as records off by a line:
# a record split over two lines, a ``}`` or ``{`` inside a string that
# closes on the next line, and a ``[`` inside a string.
_JOINABLE = st.sampled_from([
    ('{"rater": 1, "target": 2, "x": 0', '"value": 1}'),
    ('{"rater": 1, "target": 2, "value": 1, "x": "}', '{", "y": 0}'),
    ('{"rater": 1, "target": 2, "value": 1, "}', '{": 0}'),
    ('{"rater": 1, "x": "{', '", "target": 2, "value": 1}'),
    ('{"rater": 1, "target": 2, "value": 1, "x": [', '0]}'),
    ('{"rater": 1, "target": 2, "value": 1, "x": "[', ']"}'),
    ('{"rater": 1, "target": 2, "value": 1, "x": "["}',),
    ('{"rater": 1, "target": 2, "value": 1, "x": "}"}',),
])
_BLANK = st.sampled_from(["", "  ", "\t", "\x1c", "\u3000"])
_END = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def jsonl_file(draw):
    """Rating and blank lines with mixed line ends, at most two odd lines
    and maybe one joinable pair among them, and maybe no final line
    end."""
    lines = draw(st.lists(st.one_of(rating_line(), rating_line(), _BLANK),
                          max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ODD_LINE))
    if not draw(st.integers(0, 2)):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = draw(_JOINABLE)
    text = "".join(line + draw(_END) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


def assert_reads_equal(path, n, skip):
    assert (outcome(lambda: list(iter_jsonl(path, n=n, skip=skip)))
            == outcome(lambda: list(reference_iter(path, n=n, skip=skip))))
    assert outcome(lambda: load_jsonl(path)) == outcome(
        lambda: reference_load(path))
    assert outcome(lambda: load_jsonl(path, n=n)) == outcome(
        lambda: reference_load(path, n=n))


class TestJsonlReader:
    @given(jsonl_file(), st.one_of(st.none(), st.integers(1, 12)),
           st.integers(0, 4))
    @settings(max_examples=300, deadline=None)
    def test_reader_equals_the_per_line_reference(self, tmp_path_factory,
                                                  data, n, skip):
        path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
        path.write_bytes(data)
        assert_reads_equal(path, n, skip)

    @given(st.one_of(odd_record(), rating_line()),
           st.one_of(st.none(), st.integers(1, 12)))
    @settings(max_examples=300, deadline=None)
    def test_each_record_reads_as_the_reference_reads_it(
            self, tmp_path_factory, line, n):
        path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
        path.write_bytes(line.encode("utf-8") + b"\n")
        assert_reads_equal(path, n, 0)

    @given(jsonl_file(), st.one_of(st.none(), st.integers(1, 12)),
           st.integers(0, 12), st.integers(1, 160))
    @settings(max_examples=300, deadline=None)
    def test_small_chunks_read_as_the_reference(self, tmp_path_factory,
                                                data, n, skip, chunk_bytes):
        """Chunks of a few bytes: lines straddle chunk ends, an error in
        a later chunk keeps its ``path:line``, and ``skip`` runs over
        chunk ends."""
        path = tmp_path_factory.mktemp("jsonl") / "t.jsonl"
        path.write_bytes(data)
        with mock.patch.object(ratings_io, "_CHUNK_BYTES", chunk_bytes):
            assert_reads_equal(path, n, skip)
