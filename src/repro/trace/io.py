"""Trace persistence: CSV round-trips for request sequences.

Sequences serialise to/from a dead-simple CSV dialect::

    # num_servers=4
    server,time,items
    3,0.5,1
    1,0.8,1|2

``items`` is a ``|``-separated list of integer item ids.  Metadata
(``num_servers``, ``origin``) rides in ``# key=value`` comment lines
before the header row, so a file is self-contained; load-time
arguments override it.  Such a line after the header row is refused.

Both loaders -- :func:`sequence_from_csv_report` and
:func:`~repro.trace.store.convert_csv_to_store` -- run one reader,
:func:`read_trace_csv`: it pulls :data:`CONVERT_CHUNK_ROWS` rows at a
time from :mod:`csv`, converts each column in bulk through
``int()``/``float()``, and checks the chunk with one vectorised mask;
only the rows the mask rejects go through the per-row check that names
the broken rule.  By default the first rejected row raises a
:class:`~repro.errors.TraceRowError` naming its line; with
``on_error="skip"`` rejected rows -- unparseable fields, empty item
sets, ids outside the store's int32 columns or the server universe,
times not past the last accepted row -- are dropped and counted in a
:class:`LoadReport`.  A wrong header or metadata line raises in both
modes: that is the wrong file, not a dirty row.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from ..cache.model import RequestSequence, _sort_row_ids
from ..errors import TraceRowError

__all__ = [
    "CONVERT_CHUNK_ROWS", "LoadReport", "TraceRows", "read_trace_csv",
    "sequence_to_csv", "sequence_from_csv", "sequence_from_csv_report",
    "save_sequence", "load_sequence", "load_sequence_report",
]

#: Diagnostics kept per load; skipping is counted in full regardless.
MAX_ERRORS_KEPT = 20

#: Rows :func:`read_trace_csv` parses and checks at a time.
CONVERT_CHUNK_ROWS = 65_536

#: Server and item ids must fit the store's int32 columns.
_ID_BOUND = 2**31

_SERVER, _TIME, _ITEMS = itemgetter(0), itemgetter(1), itemgetter(2)
_BREAK = re.compile(r"\r\n|\r|\n")


@dataclass
class LoadReport:
    """What a tolerant load saw: row counts plus capped diagnostics.

    ``errors`` holds the first :data:`MAX_ERRORS_KEPT` ``(line_number,
    message)`` pairs; ``rows_skipped`` always counts every dropped row.
    The CLI surfaces ``rows_skipped`` as the ``trace.rows_skipped``
    metrics counter.
    """

    rows_total: int = 0
    rows_loaded: int = 0
    rows_skipped: int = 0
    errors: List[Tuple[int, str]] = field(default_factory=list)

    def note(self, line: int, message: str) -> None:
        self.rows_skipped += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append((line, message))


class TraceRows(NamedTuple):
    """One chunk of accepted rows: the request-major fields of
    :class:`~repro.cache.model.TraceColumns`, ``item_offsets`` from 0."""

    servers: np.ndarray
    times: np.ndarray
    item_offsets: np.ndarray
    item_ids: np.ndarray


#: A chunk of no rows: what :func:`_load` joins the reader's chunks onto.
_NO_ROWS = TraceRows(
    np.empty(0, np.int64), np.empty(0), np.zeros(1, np.int64), np.empty(0, np.int64)
)


def sequence_to_csv(seq: RequestSequence) -> str:
    """Serialise ``seq`` (with metadata header) to CSV text."""
    buf = io.StringIO()
    buf.write(f"# num_servers={seq.num_servers}\n")
    buf.write(f"# origin={seq.origin}\n")
    writer = csv.writer(buf)
    writer.writerow(["server", "time", "items"])
    offsets, ids = seq.item_csr()
    ids, bounds = ids.tolist(), offsets.tolist()
    cells = ("|".join(map(str, ids[lo:hi])) for lo, hi in zip(bounds, bounds[1:]))
    # repr(float) is the shortest round-tripping decimal: reloads are bit-exact
    writer.writerows(zip(seq.servers_array.tolist(), map(repr, seq.times_array.tolist()), cells))
    return buf.getvalue()


def _check_options(on_error: str, num_servers: Optional[int]) -> bool:
    """``True`` for skip mode; refuse a bad mode or server universe."""
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    if num_servers is not None:
        _check_num_servers(num_servers)
    return on_error == "skip"


def _check_num_servers(value: int) -> None:
    if not 1 <= value <= _ID_BOUND:
        raise ValueError(f"num_servers must be in [1, {_ID_BOUND}], got {value}")


def _metadata(cell: str) -> Optional[Tuple[str, str]]:
    """``(key, value)`` of a ``# num_servers=``/``# origin=`` comment;
    ``None`` for any other comment."""
    key, eq, value = cell.lstrip("# ").partition("=")
    key = key.strip()
    return (key, value.strip()) if eq and key in ("num_servers", "origin") else None


def _meta_value(line: int, key: str, value: str) -> int:
    try:
        number = int(value)
        if key == "num_servers":
            _check_num_servers(number)
    except ValueError as exc:
        raise TraceRowError(line, f"bad {key} metadata {value!r}: {exc}") from None
    return number


def _row_fault(raw: List[str], bound: int, prev: float) -> str:
    """The per-row check: the message of the first rule ``raw`` breaks,
    in order, for a row the chunk mask rejected.  ``prev`` is the last
    accepted time."""
    if len(raw) < 3:
        return f"malformed row {raw!r}"
    try:
        server = int(raw[0])
        time = float(raw[1])
        items = [int(tok) for tok in raw[2].split("|") if tok != ""]
    except ValueError as exc:
        return f"unparseable row {raw!r}: {exc}"
    if not items:
        return f"row at t={time} has no items"
    if server < 0:
        return f"server index must be non-negative, got {server}"
    if server >= bound:
        return f"server {server} outside [0, {bound})"
    for d in items:
        if not -_ID_BOUND <= d < _ID_BOUND:
            return f"item {d} outside [{-_ID_BOUND}, {_ID_BOUND})"
    if not 0 <= time < math.inf:
        return f"row time must be finite and non-negative, got {time!r}"
    return f"time {time!r} not increasing past {prev!r}"


def _parse(convert: Callable, cells: list, dtype, bad: np.ndarray) -> np.ndarray:
    """``convert`` every cell in bulk; a cell it refuses (or int64
    cannot hold) sets ``bad`` at its position and reads 0."""
    try:
        return np.fromiter(map(convert, cells), dtype, len(cells))
    except (ValueError, OverflowError):
        out = np.zeros(len(cells), dtype)
        for i, cell in enumerate(cells):
            try:
                out[i] = convert(cell)
            except (ValueError, OverflowError):
                bad[i] = True
        return out


def _line_numbers(batch: list, start: int, end: int) -> np.ndarray:
    """Each record's :mod:`csv` ``line_num`` (its last physical line),
    for a batch read from line ``start + 1`` through ``end``."""
    if end - start == len(batch):
        return np.arange(start + 1, end + 1)
    # a quoted field kept the line breaks its record spans; a quote left
    # open at the end of the file keeps one more than it spans
    spans = [1 + len(_BREAK.findall(",".join(r))) for r in batch]
    return np.minimum(start + np.cumsum(spans), end)


def _data_rows(batch: list, where: np.ndarray):
    """``(rows, lines, sizes, late)``: the batch's data rows with their
    line numbers and field counts -- blank and comment lines dropped --
    and the error for a metadata line among them, which ends the read
    (the rows after it are dropped too)."""
    sizes = np.fromiter(map(len, batch), np.intp, len(batch))
    data = sizes > 0
    firsts = list(map(_SERVER, batch)) if data.all() else [r[0] if r else "" for r in batch]
    late = None
    if "#" in "".join(firsts):
        for i in np.flatnonzero(data).tolist():
            if firsts[i].lstrip().startswith("#"):
                data[i] = False
                entry = _metadata(firsts[i])
                if entry:
                    late = TraceRowError(
                        int(where[i]), f"{entry[0]} metadata after the header row"
                    )
                    data[i:] = False
                    break
    if data.all():
        return batch, where, sizes, late
    return list(compress(batch, data)), where[data], sizes[data], late


def _check_chunk(rows: List[List[str]], sizes: np.ndarray, bound: int, last: float):
    """Check a chunk of data rows (``sizes`` fields each) with vectorised
    masks -> ``(accept, prev, accepted)``: the acceptance mask, each
    row's last accepted time before it (``last`` carries it in), and the
    accepted rows.  A row is accepted when it passes every check and its
    time is above the running maximum of the earlier rows that passed
    them -- the last accepted time."""
    n = len(rows)
    bad = sizes < 3
    cells = [r if len(r) >= 3 else ("0", "0", "") for r in rows] if bad.any() else rows
    servers = _parse(int, list(map(_SERVER, cells)), np.int64, bad)
    times = _parse(float, list(map(_TIME, cells)), np.float64, bad)
    items = list(map(_ITEMS, cells))
    # one split of the joined column gives every cell's tokens in order
    tokens = "|".join(items).split("|")
    row_of = np.repeat(
        np.arange(n), np.fromiter(map(str.count, items, repeat("|")), np.intp, n) + 1
    )
    if "" in tokens:
        filled = np.fromiter(map(len, tokens), np.intp, len(tokens)) > 0
        tokens, row_of = list(compress(tokens, filled)), row_of[filled]
    token_bad = np.zeros(len(tokens), dtype=bool)
    ids = _parse(int, tokens, np.int64, token_bad)
    token_bad |= (ids < -_ID_BOUND) | (ids >= _ID_BOUND)
    bad[row_of[token_bad]] = True
    bad |= np.bincount(row_of, minlength=n) == 0
    bad |= (servers < 0) | (servers >= bound)
    with np.errstate(invalid="ignore"):
        bad |= ~((times >= 0) & (times < math.inf))
    run = np.maximum.accumulate(np.concatenate(([last], np.where(bad, -np.inf, times))))
    prev = run[:-1]
    accept = ~bad & (times > prev)

    keep = accept[row_of]
    row_of, ids = _sort_row_ids(row_of[keep], ids[keep])
    offsets = np.zeros(int(accept.sum()) + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of, minlength=n)[accept], out=offsets[1:])
    return accept, prev, TraceRows(servers[accept], times[accept], offsets, ids)


def read_trace_csv(
    lines: Iterable[str],
    sink: Callable[[TraceRows], None],
    *,
    num_servers: Optional[int] = None,
    origin: Optional[int] = None,
    on_error: str = "raise",
) -> Tuple[int, int, LoadReport]:
    """Read a trace CSV chunk by chunk, handing each chunk's accepted
    rows to ``sink``; returns ``(num_servers, origin, report)``.

    ``lines`` is what :func:`csv.reader` reads (a file opened with
    ``newline=""``); line numbers are the reader's ``line_num``.
    Explicit ``num_servers``/``origin`` override the metadata lines.
    Without either, ``num_servers`` is the smallest universe covering
    the *accepted* rows, so a dropped dirty row cannot inflate it.
    ``on_error="raise"`` raises :class:`~repro.errors.TraceRowError` at
    the first rejected row; ``on_error="skip"`` notes every rejected
    row in line order (see :class:`LoadReport`).
    """
    skip = _check_options(on_error, num_servers)
    report = LoadReport()
    meta: dict = {}
    reader = csv.reader(lines)
    for raw in reader:  # metadata lines, then the header row
        if raw and raw[0].lstrip().startswith("#"):
            entry = _metadata(raw[0])
            if entry:
                meta[entry[0]] = _meta_value(reader.line_num, *entry)
        elif raw:
            if [c.strip().lower() for c in raw[:3]] != ["server", "time", "items"]:
                # wrong header = wrong file; never skippable
                raise TraceRowError(
                    reader.line_num,
                    f"unrecognised CSV header {raw!r}; expected server,time,items",
                )
            break
    if num_servers is None:
        num_servers = meta.get("num_servers")
    bound = _ID_BOUND if num_servers is None else num_servers
    last, top = -math.inf, -1
    start = reader.line_num
    while batch := list(islice(reader, CONVERT_CHUNK_ROWS)):
        rows, line_nos, sizes, late = _data_rows(
            batch, _line_numbers(batch, start, reader.line_num)
        )
        start = reader.line_num
        report.rows_total += len(rows)
        if rows:
            accept, prev, accepted = _check_chunk(rows, sizes, bound, last)
            for i in np.flatnonzero(~accept).tolist():
                message = _row_fault(rows[i], bound, float(prev[i]))
                if not skip:
                    raise TraceRowError(int(line_nos[i]), message)
                report.note(int(line_nos[i]), message)
            if len(accepted.servers):
                last = float(accepted.times[-1])
                top = max(top, int(accepted.servers.max()))
            report.rows_loaded += len(accepted.servers)
            sink(accepted)
        if late is not None:
            raise late
    if num_servers is None:
        num_servers = max(top, 0) + 1
    if origin is None:
        origin = meta.get("origin", 0)
    if not 0 <= origin < num_servers:
        raise ValueError(f"origin server {origin} outside [0, {num_servers})")
    return num_servers, origin, report


def _load(lines: Iterable[str], **options) -> Tuple[RequestSequence, LoadReport]:
    """Build a :class:`RequestSequence` from the reader's chunks, joined
    into one set of columns in one step."""
    chunks: List[TraceRows] = [_NO_ROWS]
    num_servers, origin, report = read_trace_csv(lines, chunks.append, **options)
    servers, times, _offsets, ids = map(np.concatenate, zip(*chunks))
    offsets = np.zeros(len(servers) + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(c.item_offsets) for c in chunks]), out=offsets[1:])
    seq = RequestSequence._from_csr((servers, times, offsets, ids), num_servers, origin)
    return seq, report


def sequence_from_csv_report(
    text: str, *, num_servers: Optional[int] = None,
    origin: Optional[int] = None, on_error: str = "raise",
) -> Tuple[RequestSequence, LoadReport]:
    """Parse CSV text produced by :func:`sequence_to_csv` (or compatible)
    with :func:`read_trace_csv`: explicit ``num_servers``/``origin``
    override the metadata, and ``on_error="skip"`` drops and counts the
    rows ``"raise"`` would refuse."""
    return _load(
        io.StringIO(text, newline=""),
        num_servers=num_servers, origin=origin, on_error=on_error,
    )


def sequence_from_csv(
    text: str, *, num_servers: Optional[int] = None,
    origin: Optional[int] = None, on_error: str = "raise",
) -> RequestSequence:
    """:func:`sequence_from_csv_report` without the report (compat API)."""
    return sequence_from_csv_report(
        text, num_servers=num_servers, origin=origin, on_error=on_error
    )[0]


def save_sequence(path: Union[str, Path], seq: RequestSequence) -> Path:
    """Write ``seq`` to ``path`` as CSV (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(sequence_to_csv(seq))
    return path


def load_sequence(
    path: Union[str, Path], *, num_servers: Optional[int] = None,
    origin: Optional[int] = None, on_error: str = "raise",
) -> RequestSequence:
    """Load a sequence saved by :func:`save_sequence`."""
    return load_sequence_report(
        path, num_servers=num_servers, origin=origin, on_error=on_error
    )[0]


def load_sequence_report(
    path: Union[str, Path], *, num_servers: Optional[int] = None,
    origin: Optional[int] = None, on_error: str = "raise",
) -> Tuple[RequestSequence, LoadReport]:
    """:func:`load_sequence` returning the :class:`LoadReport` too."""
    with open(path, newline="") as fh:
        return _load(fh, num_servers=num_servers, origin=origin, on_error=on_error)
