"""Tests for ledger persistence (CSV / NPZ / JSONL)."""

import json

import numpy as np
import pytest

from repro.errors import TraceError
from repro.ratings import io as ratings_io
from repro.ratings.events import Rating
from repro.ratings.io import (
    append_jsonl,
    decode_jsonl,
    iter_jsonl,
    load_csv,
    load_jsonl,
    load_npz,
    save_csv,
    save_npz,
)
from repro.ratings.ledger import RatingLedger


@pytest.fixture
def ledger(rng):
    led = RatingLedger(20)
    for _ in range(300):
        r, t = rng.choice(20, size=2, replace=False)
        led.add(int(r), int(t), int(rng.choice([-1, 0, 1])),
                float(rng.uniform(0, 100)))
    return led


def assert_ledgers_equal(a, b):
    assert a.n == b.n
    assert len(a) == len(b)
    np.testing.assert_array_equal(a.raters, b.raters)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.times, b.times)


class TestCsvRoundtrip:
    def test_roundtrip_exact(self, ledger, tmp_path):
        path = tmp_path / "trace.csv"
        written = save_csv(ledger, path)
        assert written == len(ledger)
        assert_ledgers_equal(load_csv(path), ledger)

    def test_universe_size_from_header(self, ledger, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(ledger, path)
        assert load_csv(path).n == 20

    def test_universe_override(self, ledger, tmp_path):
        path = tmp_path / "trace.csv"
        save_csv(ledger, path)
        assert load_csv(path, n=50).n == 50

    def test_empty_ledger(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_csv(RatingLedger(5), path)
        out = load_csv(path)
        assert len(out) == 0
        assert out.n == 5

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(TraceError, match="header"):
            load_csv(path)

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rater,target,value,time,n=5\n1,2,maybe,0.0\n")
        with pytest.raises(TraceError, match=":2"):
            load_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rater,target,value,time,n=5\n1,2\n")
        with pytest.raises(TraceError, match="4 columns"):
            load_csv(path)

    def test_invalid_events_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rater,target,value,time,n=5\n3,3,1,0.0\n")
        with pytest.raises(Exception):  # self-rating via ledger validation
            load_csv(path)

    @pytest.mark.parametrize("time", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite_time_rejected(self, tmp_path, time):
        path = tmp_path / "bad.csv"
        path.write_text(f"rater,target,value,time,n=5\n0,1,1,0.5\n\n1,2,1,{time}\n")
        with pytest.raises(TraceError, match="time must be finite") as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}:4: ")

    def test_malformed_universe_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("rater,target,value,time,n=abc\n1,2,1,0.0\n")
        with pytest.raises(TraceError, match="n=abc") as exc:
            load_csv(path)
        assert str(exc.value).startswith(f"{path}:1: ")


class TestNpzRoundtrip:
    def test_roundtrip_exact(self, ledger, tmp_path):
        path = tmp_path / "trace.npz"
        written = save_npz(ledger, path)
        assert written == len(ledger)
        assert_ledgers_equal(load_npz(path), ledger)

    def test_timestamps_bit_exact(self, tmp_path):
        led = RatingLedger(4)
        led.add(0, 1, 1, 0.1 + 0.2)  # a float with no short repr
        path = tmp_path / "t.npz"
        save_npz(led, path)
        assert load_npz(path).times[0] == led.times[0]

    def test_empty_ledger(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_npz(RatingLedger(7), path)
        out = load_npz(path)
        assert len(out) == 0
        assert out.n == 7

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, n=np.int64(5), raters=np.array([0]))
        with pytest.raises(TraceError, match="missing"):
            load_npz(path)

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, tmp_path, time):
        path = tmp_path / "bad.npz"
        np.savez(path, n=np.int64(5), raters=np.array([0, 1]),
                 targets=np.array([1, 2]), values=np.array([1, -1]),
                 times=np.array([0.5, time]))
        with pytest.raises(TraceError, match="time must be finite") as exc:
            load_npz(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_csv_and_npz_agree(self, ledger, tmp_path):
        csv_path = tmp_path / "t.csv"
        npz_path = tmp_path / "t.npz"
        save_csv(ledger, csv_path)
        save_npz(ledger, npz_path)
        assert_ledgers_equal(load_csv(csv_path), load_npz(npz_path))


class TestJsonl:
    def events(self):
        return [Rating(0, 1, 1, time=0.5), Rating(2, 3, -1, time=1.25),
                Rating(4, 0, 0, time=2.0)]

    def test_append_iter_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert append_jsonl(path, self.events()) == 3
        assert list(iter_jsonl(path)) == self.events()

    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events()[:1])
        append_jsonl(path, self.events()[1:])
        assert list(iter_jsonl(path)) == self.events()

    def test_skip_streams_the_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events())
        assert list(iter_jsonl(path, skip=2)) == self.events()[2:]
        assert list(iter_jsonl(path, skip=99)) == []

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events()[:1])
        with path.open("a") as handle:
            handle.write("\n\n")
        append_jsonl(path, self.events()[1:])
        assert list(iter_jsonl(path)) == self.events()

    def test_timestamps_bit_exact(self, tmp_path):
        path = tmp_path / "t.jsonl"
        original = Rating(0, 1, 1, time=0.1 + 0.2)
        append_jsonl(path, [original])
        assert next(iter(iter_jsonl(path))).time == original.time

    def test_invalid_json_line_named_in_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events()[:1])
        with path.open("a") as handle:
            handle.write("{broken\n")
        with pytest.raises(TraceError, match=r":2"):
            list(iter_jsonl(path))

    def test_validation_matches_live_ingestion(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"rater":1,"target":1,"value":1,"time":0}\n')
        with pytest.raises(TraceError, match="self-rating"):
            list(iter_jsonl(path))

    def test_universe_bound_enforced(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events())
        with pytest.raises(TraceError):
            list(iter_jsonl(path, n=3))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"rater":1,"value":1}\n')
        with pytest.raises(TraceError):
            list(iter_jsonl(path))

    def write_undecodable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"rater": 0, "target": 1, "value": 1}\n'
                         b'{"rater": 1, "target": 2, "value": 1}\xff\n')
        return path

    def test_load_names_an_undecodable_line(self, tmp_path):
        path = self.write_undecodable(tmp_path)
        with pytest.raises(TraceError, match="invalid UTF-8") as exc:
            load_jsonl(path)
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_iter_names_an_undecodable_line(self, tmp_path):
        path = self.write_undecodable(tmp_path)
        events = iter_jsonl(path)
        assert next(events) == Rating(0, 1, 1)
        with pytest.raises(TraceError, match="invalid UTF-8") as exc:
            next(events)
        assert str(exc.value).startswith(f"{path}:2: ")

    def test_written_lines_take_the_columnar_path(self, tmp_path, monkeypatch):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events())
        with path.open("a") as handle:
            handle.write('\n{"rater": 3, "target": 4, "value": 1}\r\n')

        def per_line(*args, **kwargs):
            raise AssertionError("a written line went line by line")
        monkeypatch.setattr(ratings_io, "decode_jsonl", per_line)
        assert list(iter_jsonl(path)) == self.events() + [Rating(3, 4, 1)]
        assert len(load_jsonl(path)) == 4

    def test_load_jsonl_builds_ledger(self, tmp_path):
        path = tmp_path / "t.jsonl"
        append_jsonl(path, self.events())
        ledger = load_jsonl(path)
        assert ledger.n == 5  # max id + 1
        assert len(ledger) == 3
        explicit = load_jsonl(path, n=10)
        assert explicit.n == 10


# Lines json.loads accepts (or overflows on) that are not ratings: each
# must be a TraceError, never a bare RecursionError or OverflowError or
# a silently truncated id.  ``named`` is what the message must say.
UNREPRESENTABLE = [
    pytest.param("[" * 100_000, "invalid JSON", id="deep-nesting"),
    pytest.param('{"rater": 3, "target": 2, "value": 1e400}', "value",
                 id="inf-value"),
    pytest.param('{"rater": 3, "target": 2, "value": 1, "time": 1'
                 + "0" * 400 + "}", "too large", id="time-overflow"),
    pytest.param('{"rater": ' + "1" * 5000 + ', "target": 2, "value": 1}',
                 "invalid JSON", id="digit-limit"),
    pytest.param('{"rater": 1.9, "target": 2, "value": 1}', "rater",
                 id="fractional-rater"),
    pytest.param('{"rater": true, "target": 2, "value": 1}', "rater",
                 id="boolean-rater"),
    pytest.param('{"rater": 1, "target": 2.5, "value": 1}', "target",
                 id="fractional-target"),
    pytest.param('{"rater": 1, "target": false, "value": 1}', "target",
                 id="boolean-target"),
    pytest.param('{"rater": 1, "target": 2, "value": -0.5}', "value",
                 id="fractional-value"),
    pytest.param('{"rater": 1, "target": 2, "value": true}', "value",
                 id="boolean-value"),
    pytest.param('{"rater": NaN, "target": 2, "value": 1}', "rater",
                 id="nan-rater"),
    pytest.param('{"rater": 1, "target": 2, "value": 1, "time": NaN}',
                 "time", id="nan-time"),
    pytest.param('{"rater": 1, "target": 2, "value": 1, "time": -Infinity}',
                 "time", id="neg-infinity-time"),
    pytest.param('{"rater": 1, "target": 2, "value": 1, "time": 1e400}',
                 "time", id="inf-time"),
    pytest.param('{"rater": 1, "target": 2, "value": 1, "time": true}',
                 "time", id="boolean-time"),
    pytest.param('{"rater": 1, "target": 2, "value": 1, "time": "7"}',
                 "time", id="string-time"),
]


class TestJsonlNumbers:
    @pytest.mark.parametrize("line, named", UNREPRESENTABLE)
    def test_decode_rejects(self, line, named):
        with pytest.raises(TraceError, match=named) as exc:
            decode_jsonl(line, where="trace:7")
        assert str(exc.value).startswith("trace:7: ")

    @pytest.mark.parametrize("line, named", UNREPRESENTABLE)
    def test_load_rejects_with_line_number(self, tmp_path, line, named):
        path = tmp_path / "t.jsonl"
        path.write_text('{"rater": 0, "target": 1, "value": 1}\n'
                        + line + "\n")
        with pytest.raises(TraceError, match=named) as exc:
            load_jsonl(path)
        assert str(exc.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize("field", ["rater", "target"])
    @pytest.mark.parametrize("node", [2**63, 2**64 + 1])
    def test_load_rejects_id_past_int64_with_line_number(self, tmp_path,
                                                         field, node):
        """With no ``n`` the universe is ``max id + 1``; an id the
        ledger's int64 columns cannot hold is a TraceError at its line,
        not a bare OverflowError."""
        path = tmp_path / "t.jsonl"
        record = {"rater": 3, "target": 4, "value": 1, field: node}
        path.write_text('{"rater": 0, "target": 1, "value": 1}\n\n'
                        + json.dumps(record) + "\n")
        with pytest.raises(TraceError, match=f"node id {node} ") as exc:
            load_jsonl(path)
        assert str(exc.value).startswith(f"{path}:3: ")
        assert list(iter_jsonl(path))[-1] == Rating(**record)

    @pytest.mark.parametrize("raw, time", [
        ("2.5", 2.5), ("7", 7.0), ("-1e3", -1000.0),
    ])
    def test_finite_times_are_floats(self, raw, time):
        rating = decode_jsonl(
            f'{{"rater": 1, "target": 2, "value": 1, "time": {raw}}}')
        assert rating.time == time and type(rating.time) is float

    def test_integral_floats_are_ints(self):
        rating = decode_jsonl('{"rater": 3.0, "target": 2, "value": -1.0}')
        assert rating == Rating(3, 2, -1)
        assert type(rating.rater) is int and type(rating.value) is int
