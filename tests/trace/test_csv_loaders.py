"""Both CSV loaders run one reader: the same rows, errors and reports.

``sequence_from_csv_report`` (in memory) and ``convert_csv_to_store``
(on disk) share :func:`repro.trace.io.read_trace_csv`.  These tests pin
what the reader refuses, and where, through both loaders, and check its
chunked, vectorised row checks against a row-at-a-time reference.
"""

from __future__ import annotations

import csv
import io
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.model import Request
from repro.errors import ReproError, TraceRowError
from repro.trace import io as trace_io
from repro.trace.io import MAX_ERRORS_KEPT, sequence_from_csv_report
from repro.trace.store import TraceStore, convert_csv_to_store, write_store

INT32 = 2**31


def _in_memory(text: str, on_error: str, _directory=None):
    seq, report = sequence_from_csv_report(text, on_error=on_error)
    return seq.requests, seq.num_servers, seq.origin, report


def _converted(text: str, on_error: str, directory: Path):
    csv_path = Path(directory) / "t.csv"
    csv_path.write_bytes(text.encode())
    dest, report = convert_csv_to_store(
        csv_path, Path(directory) / "store", on_error=on_error
    )
    seq = TraceStore.open(dest)
    return seq.requests, seq.num_servers, seq.origin, report


def _outcome(load, text: str, on_error: str):
    """What a loader returns, or the type and text of what it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            return load(text, on_error, tmp)
        except ValueError as exc:
            return type(exc), str(exc)


@pytest.fixture(params=["memory", "store"])
def load(request, tmp_path):
    """One loader: ``load(text, on_error)`` -> (requests, num_servers,
    origin, report)."""
    if request.param == "memory":
        return _in_memory
    return lambda text, on_error: _converted(text, on_error, tmp_path)


class TestMetadata:
    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    @pytest.mark.parametrize("key", ["num_servers", "origin"])
    def test_metadata_after_the_header_is_refused(self, load, on_error, key):
        text = f"server,time,items\n5,0.5,1\n# {key}=3\n0,1.0,1\n"
        with pytest.raises(TraceRowError, match=f"{key} metadata after the header") as info:
            load(text, on_error)
        assert info.value.line == 3

    def test_a_late_metadata_line_comes_after_earlier_row_errors(self, load):
        text = "server,time,items\nx,0.5,1\n# num_servers=3\n"
        with pytest.raises(TraceRowError, match="unparseable") as info:
            load(text, "raise")
        assert info.value.line == 2

    def test_other_comments_and_blank_lines_are_skipped_anywhere(self, load):
        text = (
            "# num_servers=4\n# written by hand\n\nserver,time,items\n"
            "0,0.5,1\n# a note, with a comma\n\n 1,1.0,2\n-1,2.0,1\n"
        )
        requests, num_servers, _origin, report = load(text, "skip")
        assert [r.time for r in requests] == [0.5, 1.0]
        assert num_servers == 4
        assert (report.rows_total, report.rows_skipped) == (3, 1)
        assert report.errors == [(9, "server index must be non-negative, got -1")]

    @pytest.mark.parametrize("on_error", ["raise", "skip"])
    @pytest.mark.parametrize(
        "line, message",
        [
            ("# num_servers=abc", "bad num_servers metadata 'abc'"),
            ("# num_servers=0", "num_servers must be in"),
            ("# num_servers=2147483649", "num_servers must be in"),
            ("# origin=x", "bad origin metadata 'x'"),
        ],
    )
    def test_a_bad_metadata_value_raises_with_its_line(
        self, load, on_error, line, message
    ):
        text = f"# a comment\n{line}\nserver,time,items\n0,0.5,1\n"
        with pytest.raises(TraceRowError, match=message) as info:
            load(text, on_error)
        assert info.value.line == 2

    def test_trace_row_error_is_an_indexed_value_error(self, load):
        with pytest.raises(TraceRowError) as info:
            load("server,time,items\n0,0.5,1\n1,0.7\n", "raise")
        err = info.value
        assert isinstance(err, ValueError) and isinstance(err, ReproError)
        assert err.line == 3
        assert err.message == "malformed row ['1', '0.7']"
        assert str(err) == "line 3: malformed row ['1', '0.7']"
        back = pickle.loads(pickle.dumps(err))
        assert (type(back), back.line, str(back)) == (TraceRowError, 3, str(err))


class TestColumnRange:
    """Server and item ids must fit the store's int32 columns."""

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0,0.5,2147483648", "item 2147483648 outside [-2147483648, 2147483648)"),
            ("0,0.5,1|-2147483649", "item -2147483649 outside"),
            ("0,0.5,99999999999999999999", "item 99999999999999999999 outside"),
            ("2147483648,0.5,1", "server 2147483648 outside [0, 2147483648)"),
            ("99999999999999999999,0.5,1", "server 99999999999999999999 outside"),
            ("-99999999999999999999,0.5,1", "server index must be non-negative"),
        ],
    )
    def test_ids_the_columns_cannot_hold_are_rejected_with_their_line(
        self, load, row, message
    ):
        text = f"server,time,items\n{row}\n0,1.0,1\n"
        requests, num_servers, _origin, report = load(text, "skip")
        assert requests == (Request(0, 1.0, frozenset({1})),)
        assert num_servers == 1
        assert report.rows_skipped == 1
        assert report.errors[0][0] == 2 and message in report.errors[0][1]
        with pytest.raises(TraceRowError, match="outside|non-negative") as info:
            load(text, "raise")
        assert info.value.line == 2

    def test_the_int32_bounds_themselves_load(self, load):
        text = "server,time,items\n0,0.5,-2147483648|2147483647\n"
        requests, _m, _o, report = load(text, "raise")
        assert requests[0].items == {-INT32, INT32 - 1}
        assert report.rows_skipped == 0

    def test_num_servers_argument_is_bounded_too(self, tmp_path):
        with pytest.raises(ValueError, match="num_servers must be in"):
            sequence_from_csv_report("server,time,items\n", num_servers=0)
        with pytest.raises(ValueError, match="num_servers must be in"):
            convert_csv_to_store(
                tmp_path / "missing.csv", tmp_path / "s", num_servers=INT32 + 1
            )


class TestLineNumbers:
    def test_quoted_fields_spanning_lines(self, load):
        text = (
            'server,time,items\r\n0,0.5,"1|\r\n2"\r\n"x\ny",1.0,1\r\n'
            "\r\n0,0.25,1\r\n"
        )
        requests, _m, _o, report = load(text, "skip")
        assert requests == (Request(0, 0.5, frozenset({1, 2})),)
        assert [line for line, _msg in report.errors] == [5, 7]
        assert "unparseable" in report.errors[0][1]
        assert report.errors[1][1] == "time 0.25 not increasing past 0.5"

    def test_a_quote_left_open_at_the_end_of_the_file(self, load):
        text = 'server,time,items\n0,0.5,"1|\n2"\n0,1.0,"x\n'
        _requests, _m, _o, report = load(text, "skip")
        assert [line for line, _msg in report.errors] == [4]


# ---------------------------------------------------------------------------
# one property over both loaders
# ---------------------------------------------------------------------------


def _reference(text: str, on_error: str):
    """The reader's rules applied one row at a time: what both loaders
    must return, or the error they must raise."""
    reader = csv.reader(io.StringIO(text, newline=""))
    meta, header, total, last = {}, False, 0, -math.inf
    accepted, errors = [], []
    for raw in reader:
        line = reader.line_num
        if not raw:
            continue
        if raw[0].lstrip().startswith("#"):
            key, eq, value = raw[0].lstrip("# ").partition("=")
            if eq and key.strip() in ("num_servers", "origin"):
                if header:
                    raise TraceRowError(line, f"{key.strip()} metadata after the header row")
                meta[key.strip()] = int(value)
            continue
        if not header:
            header = True
            continue
        total += 1
        bound = meta.get("num_servers", INT32)
        try:
            if len(raw) < 3:
                raise LookupError(f"malformed row {raw!r}")
            try:
                server, t = int(raw[0]), float(raw[1])
                items = [int(tok) for tok in raw[2].split("|") if tok != ""]
            except ValueError as exc:
                raise LookupError(f"unparseable row {raw!r}: {exc}") from None
            if not items:
                raise LookupError(f"row at t={t} has no items")
            if server < 0:
                raise LookupError(f"server index must be non-negative, got {server}")
            if server >= bound:
                raise LookupError(f"server {server} outside [0, {bound})")
            for d in items:
                if not -INT32 <= d < INT32:
                    raise LookupError(f"item {d} outside [{-INT32}, {INT32})")
            if not (t >= 0 and t < math.inf):
                raise LookupError(f"row time must be finite and non-negative, got {t!r}")
            if t <= last:
                raise LookupError(f"time {t!r} not increasing past {last!r}")
        except LookupError as exc:
            if on_error == "raise":
                raise TraceRowError(line, exc.args[0]) from None
            errors.append((line, exc.args[0]))
            continue
        accepted.append(Request(server, t, frozenset(items)))
        last = t
    num_servers = meta.get("num_servers", max([r.server for r in accepted] + [0]) + 1)
    origin = meta.get("origin", 0)
    if not 0 <= origin < num_servers:
        raise ValueError(f"origin server {origin} outside [0, {num_servers})")
    counts = (total, len(accepted), len(errors), errors[:MAX_ERRORS_KEPT])
    return tuple(accepted), num_servers, origin, counts


_ID = st.integers(0, 5).map(str)
_ITEMS = st.lists(_ID, min_size=1, max_size=4).map("|".join)  # unsorted, repeats
_NEXT = st.just(None)  # the next increasing time
_DIRT = {
    "server": ["-1", "7", "x", "", " 2 ", "2147483648", "99999999999999999999"],
    "time": ["nan", "inf", "-0.5", "t", ""],
    "token": ["", "y", "1.0", "2147483648", "-2147483649", "-2147483648"],
}
# (server, time, items, fields kept, quote every field, break the item cell)
_CLEAN = st.tuples(_ID, _NEXT, _ITEMS, st.sampled_from([3, 4]), st.booleans(), st.booleans())
# an earlier time: out of order once a row was accepted
_EARLIER = st.floats(0, 10, allow_nan=False).map(repr)
_LATE = st.tuples(_ID, _EARLIER, _ITEMS, st.sampled_from([3, 4]), st.booleans(), st.booleans())
_DIRTY = st.tuples(
    st.one_of(_ID, st.sampled_from(_DIRT["server"])),
    st.one_of(_NEXT, _EARLIER, st.sampled_from(_DIRT["time"])),
    st.lists(st.one_of(_ID, st.sampled_from(_DIRT["token"])), min_size=1, max_size=4).map(
        "|".join
    ),
    st.integers(1, 4),  # 1-2 fields make a malformed row
    st.booleans(),
    st.booleans(),
)
_LINE = st.one_of(
    _CLEAN, _CLEAN, _LATE, _DIRTY, st.sampled_from(["", "# a note, with a comma", "#"])
)


@st.composite
def csv_texts(draw) -> str:
    """Clean rows mixed with every rejection kind, blank lines,
    comments, quoted fields and line breaks inside quotes."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    plain = csv.writer(out, lineterminator=newline)
    quoted = csv.writer(out, lineterminator=newline, quoting=csv.QUOTE_ALL)
    if draw(st.booleans()):
        out.write(f"# num_servers={draw(st.integers(1, 6))}{newline}")
    if draw(st.booleans()):
        out.write(f"# origin={draw(st.integers(0, 1))}{newline}")
    out.write(f"# a comment{newline}server,time,items{newline}")
    t = 0.0
    for line in draw(st.lists(_LINE, min_size=8, max_size=40)):
        if isinstance(line, str):
            out.write(line + newline)
            continue
        server, time, items, kept, quote, split = line
        t += 10.0
        if split:
            items = items.replace("|", "|" + newline, 1)
        cells = [server, repr(t) if time is None else time, items, "extra"]
        (quoted if quote or split else plain).writerow(cells[:kept])
    if draw(st.integers(0, 9)) == 0:
        out.write(f"# num_servers=3{newline}")
    return out.getvalue()


@given(text=csv_texts())
@settings(max_examples=60, deadline=None)
def test_both_loaders_match_the_row_at_a_time_reference(text):
    for on_error in ("skip", "raise"):
        try:
            ref = _reference(text, on_error)
        except ValueError as exc:
            ref = type(exc), str(exc)
        for load in (_in_memory, _converted):
            got = _outcome(load, text, on_error)
            if not isinstance(got[0], type):
                requests, num_servers, origin, r = got
                counts = (r.rows_total, r.rows_loaded, r.rows_skipped, r.errors)
                got = requests, num_servers, origin, counts
            assert got == ref


def _files(store: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(store.iterdir())}


@given(text=csv_texts())
@settings(max_examples=25, deadline=None)
def test_store_files_do_not_depend_on_the_chunk_size(text):
    """The converter writes the bytes ``write_store`` writes for the
    in-memory load of the same text, whatever the chunk size."""
    try:
        seq, report = sequence_from_csv_report(text, on_error="skip")
    except ValueError as exc:
        want = type(exc), str(exc)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            want = report, _files(write_store(seq, Path(tmp) / "store"))
    for chunk in (1, 2, 7, trace_io.CONVERT_CHUNK_ROWS):
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(trace_io, "CONVERT_CHUNK_ROWS", chunk)
            try:
                got = _converted(text, "skip", tmp)[3], _files(Path(tmp) / "store")
            except ValueError as exc:
                got = type(exc), str(exc)
            assert got == want
