"""Out-of-core columnar trace store: mmap-backed request sequences.

Every :class:`~repro.cache.model.RequestSequence` runs on one columnar
layout, :class:`~repro.cache.model.TraceColumns`.  An in-memory sequence
builds it from its Python requests; a trace store *is* that layout on
disk: a directory of raw little-endian numpy column files plus a JSON
sidecar, memory-mappable as-is, so a 10^7-request trace opens in
milliseconds and only the pages a solve actually touches become
resident.

Store layout (schema ``repro.trace/store/v1``)
----------------------------------------------
``meta.json`` carries ``num_servers`` / ``origin`` / row counts / the
column manifest.  Request-major columns mirror the sequence::

    servers.bin       int32    (n,)    server id per request
    times.bin         float64  (n,)    strictly increasing timestamps
    item_offsets.bin  int64    (n+1,)  CSR row pointers into item_ids
    item_ids.bin      int32    (nnz,)  per-request item sets, each row
                                       sorted ascending and de-duplicated

Item-major *inverted* columns are written once at convert time, so the
per-item projections the Phase-2 solvers consume are literal zero-copy
mmap slices::

    inv_items.bin     int32    (k,)    sorted distinct item ids
    inv_offsets.bin   int64    (k+1,)  CSR pointers into the inv_* rows
    inv_positions.bin int64    (nnz,)  request positions per item
    inv_servers.bin   int32    (nnz,)  gathered servers per item
    inv_times.bin     float64  (nnz,)  gathered times per item

Opening (:meth:`TraceStore.open`) yields a :class:`StoreSequence`: the
shared sequence class over the mapped columns.  ``solve_dp_greedy`` and
the memo fingerprints consume it unchanged (fingerprints normalise int32
columns through ``np.asarray(..., int64)``, so store-backed and
in-memory views share memo entries bit-for-bit).  Pickling a store
sequence ships only the store *path*: pool workers re-open the mmap
instead of receiving a pickled payload.

The streaming converter (:func:`convert_csv_to_store`) parses the CSV
dialect of :mod:`repro.trace.io` row by row and appends fixed-size
chunks to the column files -- the full Python row list is never
materialised.  Its tolerant-loading semantics mirror
:func:`~repro.trace.io.sequence_from_csv_report`, including inferring
``num_servers`` from *accepted* rows only.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..cache.model import (
    Request,
    RequestSequence,
    SingleItemView,
    TraceColumns,
    invert_items,
)
from .io import LoadReport

__all__ = [
    "STORE_SCHEMA",
    "StoreSequence",
    "TraceStore",
    "convert_csv_to_store",
    "write_store",
]

#: Schema identifier written to (and required in) ``meta.json``.
STORE_SCHEMA = "repro.trace/store/v1"

#: Column manifest: file stem -> on-disk dtype.
_COLUMNS: Dict[str, np.dtype] = {
    "servers": np.dtype("<i4"),
    "times": np.dtype("<f8"),
    "item_offsets": np.dtype("<i8"),
    "item_ids": np.dtype("<i4"),
    "inv_items": np.dtype("<i4"),
    "inv_offsets": np.dtype("<i8"),
    "inv_positions": np.dtype("<i8"),
    "inv_servers": np.dtype("<i4"),
    "inv_times": np.dtype("<f8"),
}

#: Rows buffered per flush in the streaming converter.
CONVERT_CHUNK_ROWS = 65_536

#: Elements gathered per chunk when building the inverted columns.
_GATHER_CHUNK = 1 << 20


def _read_column(
    directory: Path, name: str, count: int, mmap: bool
) -> np.ndarray:
    """One column as a read-only array (mmap-backed or RAM-loaded)."""
    dtype = _COLUMNS[name]
    if count == 0:
        arr = np.empty(0, dtype=dtype)
        arr.setflags(write=False)
        return arr
    path = directory / f"{name}.bin"
    if mmap:
        return np.memmap(path, dtype=dtype, mode="r", shape=(count,))
    arr = np.fromfile(path, dtype=dtype, count=count)
    if len(arr) != count:
        raise ValueError(
            f"column {name!r} of store {directory} is truncated: "
            f"expected {count} entries, found {len(arr)}"
        )
    arr.setflags(write=False)
    return arr


class _ColumnWriter:
    """Buffered append-only writer of one raw binary column."""

    def __init__(self, directory: Path, name: str):
        self.dtype = _COLUMNS[name]
        self.path = directory / f"{name}.bin"
        self._fh = open(self.path, "wb")
        self.count = 0

    def append(self, values) -> None:
        arr = np.asarray(values, dtype=self.dtype)
        if arr.size:
            self._fh.write(arr.tobytes())
            self.count += arr.size

    def close(self) -> None:
        self._fh.close()


def _reopen_sequence(path: str, mmap: bool) -> "StoreSequence":
    """Pickle target of :class:`StoreSequence`: re-open from the path."""
    return TraceStore(path, mmap=mmap).sequence()


class StoreSequence(RequestSequence):
    """A :class:`RequestSequence` over an opened trace store.

    The store's files *are* the sequence's :class:`TraceColumns`, so
    every derived operation -- validation, Phase 1's join, the per-item
    and per-group views, ``restrict_to_*`` -- runs the shared
    implementation on zero-copy mmap slices.  What differs is kept
    here: ``Request`` objects are built on demand and only for the rows
    actually touched, and pickling ships the store path, not the data
    -- pool workers re-open the mmap on their side.
    """

    # Not a @dataclass: instances are assembled field-by-field from the
    # store handle, bypassing the parent constructor's full O(n) Python
    # validation (the converter already enforced the invariants; use
    # .validate() to re-audit vectorised).

    def __init__(self, store: "TraceStore"):
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "num_servers", store.num_servers)
        object.__setattr__(self, "origin", store.origin)
        object.__setattr__(
            self, "_item_universe", frozenset(store.columns.inv_items.tolist())
        )

    def _columns(self) -> TraceColumns:
        # int32 servers straight off the store; every consumer
        # normalises through np.asarray(..., int64) (solvers, memo
        # fingerprints), so the narrower dtype is observationally
        # identical and stays zero-copy
        return self._store.columns

    # -- container protocol over lazy Request objects -------------------
    def __len__(self) -> int:
        return self._store.num_requests

    def _request_at(self, i: int) -> Request:
        cols = self._store.columns
        lo, hi = int(cols.item_offsets[i]), int(cols.item_offsets[i + 1])
        return Request(
            server=int(cols.servers[i]),
            time=float(cols.times[i]),
            items=frozenset(cols.item_ids[lo:hi].tolist()),
        )

    def __iter__(self) -> Iterator[Request]:
        for i in range(self._store.num_requests):
            yield self._request_at(i)

    def __getitem__(self, idx):
        n = self._store.num_requests
        if isinstance(idx, slice):
            return tuple(self._request_at(i) for i in range(*idx.indices(n)))
        if idx < 0:
            idx += n
        if not 0 <= idx < n:
            raise IndexError(idx)
        return self._request_at(idx)

    @property
    def requests(self) -> Tuple[Request, ...]:
        """Full materialisation (cached).  O(n) Python objects -- only
        for callers that genuinely need the tuple surface."""
        reqs = self.__dict__.get("_req_cache")
        if reqs is None:
            reqs = tuple(self._request_at(i) for i in range(len(self)))
            object.__setattr__(self, "_req_cache", reqs)
        return reqs

    def __repr__(self) -> str:
        st = self._store
        return (
            f"StoreSequence(path={str(st.path)!r}, n={st.num_requests}, "
            f"num_servers={st.num_servers}, origin={st.origin}, "
            f"mmap={st.mmap})"
        )

    def single_item_view(self) -> SingleItemView:
        """The whole trajectory as the store's own columns (the parent
        returns tuples)."""
        self._check_single_item()
        return SingleItemView(
            servers=self.servers_array,
            times=self.times_array,
            num_servers=self.num_servers,
            origin=self.origin,
        )

    # -- pickling: ship the path, re-open on the other side --------------
    def __reduce__(self):
        return _reopen_sequence, (str(self._store.path), self._store.mmap)


class TraceStore:
    """Handle over one on-disk columnar trace store directory.

    ``TraceStore.open(path, mmap=True)`` is the main entry point and
    returns the :class:`StoreSequence` directly; constructing a
    ``TraceStore`` keeps the raw :class:`TraceColumns` accessible for
    tooling.  With ``mmap=False`` every column is loaded into RAM up
    front (the zero-copy slicing behaviour is identical; only residency
    differs).
    """

    def __init__(self, path: Union[str, Path], *, mmap: bool = True):
        self.path = Path(path)
        self.mmap = bool(mmap)
        meta_path = self.path / "meta.json"
        if not meta_path.is_file():
            raise FileNotFoundError(
                f"{self.path} is not a trace store (no meta.json)"
            )
        meta = json.loads(meta_path.read_text())
        if meta.get("schema") != STORE_SCHEMA:
            raise ValueError(
                f"unsupported store schema {meta.get('schema')!r} "
                f"(expected {STORE_SCHEMA})"
            )
        self.meta = meta
        self.num_servers = int(meta["num_servers"])
        self.origin = int(meta["origin"])
        self.num_requests = int(meta["num_requests"])
        self.nnz = int(meta["nnz"])
        self.num_items = int(meta["num_items"])
        n, nnz, k = self.num_requests, self.nnz, self.num_items
        counts = {
            "servers": n, "times": n, "item_offsets": n + 1, "item_ids": nnz,
            "inv_items": k, "inv_offsets": k + 1, "inv_positions": nnz,
            "inv_servers": nnz, "inv_times": nnz,
        }
        self.columns = TraceColumns(**{
            name: _read_column(self.path, name, count, mmap)
            for name, count in counts.items()
        })

    @classmethod
    def open(
        cls, path: Union[str, Path], mmap: bool = True
    ) -> StoreSequence:
        """Open a store directory as a :class:`RequestSequence`."""
        return cls(path, mmap=mmap).sequence()

    def sequence(self) -> StoreSequence:
        return StoreSequence(self)

    @staticmethod
    def from_sequence(
        seq: RequestSequence, path: Union[str, Path]
    ) -> Path:
        """Persist an in-memory sequence as a store (see :func:`write_store`)."""
        return write_store(seq, path)


class _StoreBuilder:
    """Streaming writer of the request-major columns + inverted build.

    ``add`` appends one request; ``finish`` closes the request-major
    files, derives the item-major inverted columns from them (one
    stable argsort of the item ids -- the only transient O(nnz)
    allocation of the whole conversion), and writes ``meta.json``.
    """

    def __init__(self, dest: Union[str, Path]):
        self.dest = Path(dest)
        self.dest.mkdir(parents=True, exist_ok=True)
        self._servers = _ColumnWriter(self.dest, "servers")
        self._times = _ColumnWriter(self.dest, "times")
        self._offsets = _ColumnWriter(self.dest, "item_offsets")
        self._ids = _ColumnWriter(self.dest, "item_ids")
        self._buf_servers: List[int] = []
        self._buf_times: List[float] = []
        self._buf_offsets: List[int] = [0]
        self._buf_ids: List[int] = []
        self.n = 0
        self.nnz = 0

    def add(self, server: int, time: float, items_sorted: List[int]) -> None:
        self._buf_servers.append(server)
        self._buf_times.append(time)
        self._buf_ids.extend(items_sorted)
        self.nnz += len(items_sorted)
        self._buf_offsets.append(self.nnz)
        self.n += 1
        if len(self._buf_servers) >= CONVERT_CHUNK_ROWS:
            self._flush()

    def _flush(self) -> None:
        self._servers.append(self._buf_servers)
        self._times.append(self._buf_times)
        self._offsets.append(self._buf_offsets)
        self._ids.append(self._buf_ids)
        self._buf_servers.clear()
        self._buf_times.clear()
        self._buf_offsets.clear()
        self._buf_ids.clear()

    def finish(self, *, num_servers: int, origin: int) -> Path:
        self._flush()
        for w in (self._servers, self._times, self._offsets, self._ids):
            w.close()
        n, nnz = self.n, self.nnz

        # -- inverted (item-major) columns -------------------------------
        inv_pos_w = _ColumnWriter(self.dest, "inv_positions")
        inv_srv_w = _ColumnWriter(self.dest, "inv_servers")
        inv_tim_w = _ColumnWriter(self.dest, "inv_times")
        if nnz:
            inv_items, inv_offsets, inv_positions = invert_items(
                np.fromfile(
                    self.dest / "item_offsets.bin", dtype=_COLUMNS["item_offsets"]
                ),
                np.fromfile(self.dest / "item_ids.bin", dtype=_COLUMNS["item_ids"]),
            )
            inv_pos_w.append(inv_positions)
            servers_col = np.memmap(
                self.dest / "servers.bin", dtype=_COLUMNS["servers"], mode="r"
            )
            times_col = np.memmap(
                self.dest / "times.bin", dtype=_COLUMNS["times"], mode="r"
            )
            # gather chunk-wise so the per-item server/time columns never
            # cost a second full-nnz resident allocation
            for lo in range(0, nnz, _GATHER_CHUNK):
                sel = inv_positions[lo : lo + _GATHER_CHUNK]
                inv_srv_w.append(servers_col[sel])
                inv_tim_w.append(times_col[sel])
            del inv_positions, servers_col, times_col
        else:
            inv_items = np.empty(0, dtype=_COLUMNS["inv_items"])
            inv_offsets = np.zeros(1, dtype=np.int64)
        for w in (inv_pos_w, inv_srv_w, inv_tim_w):
            w.close()
        k = len(inv_items)
        np.asarray(inv_items, dtype=_COLUMNS["inv_items"]).tofile(
            self.dest / "inv_items.bin"
        )
        np.asarray(inv_offsets, dtype=_COLUMNS["inv_offsets"]).tofile(
            self.dest / "inv_offsets.bin"
        )

        meta = {
            "schema": STORE_SCHEMA,
            "num_servers": int(num_servers),
            "origin": int(origin),
            "num_requests": int(n),
            "nnz": int(nnz),
            "num_items": int(k),
            "columns": {name: str(dt) for name, dt in _COLUMNS.items()},
        }
        # meta.json is written last: its presence marks a complete store
        (self.dest / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return self.dest


def write_store(seq: RequestSequence, path: Union[str, Path]) -> Path:
    """Persist ``seq`` as a columnar store directory; returns the path."""
    builder = _StoreBuilder(path)
    for r in seq:
        builder.add(int(r.server), float(r.time), sorted(int(d) for d in r.items))
    return builder.finish(num_servers=seq.num_servers, origin=seq.origin)


def convert_csv_to_store(
    csv_path: Union[str, Path],
    store_path: Union[str, Path],
    *,
    num_servers: Optional[int] = None,
    origin: Optional[int] = None,
    on_error: str = "raise",
) -> Tuple[Path, LoadReport]:
    """Stream a :mod:`repro.trace.io` CSV into a columnar store.

    The file is parsed row by row and flushed to the column files in
    :data:`CONVERT_CHUNK_ROWS` chunks -- the full row list is never
    materialised, so conversion memory is bounded regardless of trace
    size (the inverted-index build at the end is the only transient
    O(nnz) allocation).

    Semantics mirror :func:`~repro.trace.io.sequence_from_csv_report`:
    ``# key=value`` header metadata, explicit arguments override the
    header, ``on_error="skip"`` drops and counts dirty rows, and an
    inferred ``num_servers`` (no header, no argument) is computed from
    *accepted* rows only.  Returns ``(store_path, LoadReport)``.
    """
    if on_error not in ("raise", "skip"):
        raise ValueError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )
    skip = on_error == "skip"
    report = LoadReport()
    builder = _StoreBuilder(store_path)

    meta: Dict[str, str] = {}
    header_seen = False
    resolved_servers = num_servers  # None = infer from accepted rows
    resolved_origin = origin
    max_server = -1
    prev_time: Optional[float] = None

    def reject(line: int, message: str) -> None:
        if skip:
            report.note(line, message)
        else:
            raise ValueError(message)

    with open(csv_path, "r", newline="") as fh:
        reader = csv.reader(fh)
        for raw in reader:
            line = reader.line_num
            if not raw:
                continue
            if raw[0].lstrip().startswith("#"):
                entry = raw[0].lstrip("# ").strip()
                if "=" in entry:
                    k, v = entry.split("=", 1)
                    meta[k.strip()] = v.strip()
                    if k.strip() == "num_servers" and num_servers is None:
                        resolved_servers = int(v.strip())
                    if k.strip() == "origin" and origin is None:
                        resolved_origin = int(v.strip())
                continue
            if not header_seen:
                expected = [c.strip().lower() for c in raw]
                if expected[:3] != ["server", "time", "items"]:
                    raise ValueError(
                        f"unrecognised CSV header {raw!r}; "
                        "expected server,time,items"
                    )
                header_seen = True
                continue
            report.rows_total += 1
            if len(raw) < 3:
                reject(line, f"malformed row {raw!r}")
                continue
            try:
                server = int(raw[0])
                time = float(raw[1])
                items = sorted(
                    {int(tok) for tok in raw[2].split("|") if tok != ""}
                )
            except ValueError as exc:
                reject(line, f"unparseable row {raw!r}: {exc}")
                continue
            if not items:
                reject(line, f"row at t={time} has no items")
                continue
            if server < 0:
                reject(line, f"server index must be non-negative, got {server}")
                continue
            if resolved_servers is not None and server >= resolved_servers:
                reject(
                    line, f"server {server} outside [0, {resolved_servers})"
                )
                continue
            if not (time >= 0 and np.isfinite(time)):
                reject(line, f"row time must be finite and non-negative, got {time!r}")
                continue
            if prev_time is not None and time <= prev_time:
                reject(
                    line, f"time {time!r} not increasing past {prev_time!r}"
                )
                continue
            builder.add(server, time, items)
            prev_time = time
            if server > max_server:
                max_server = server
    report.rows_loaded = builder.n

    if resolved_servers is None:
        resolved_servers = max(max_server, 0) + 1
    if resolved_origin is None:
        resolved_origin = 0
    if not 0 <= resolved_origin < resolved_servers:
        raise ValueError(
            f"origin server {resolved_origin} outside [0, {resolved_servers})"
        )
    dest = builder.finish(
        num_servers=resolved_servers, origin=resolved_origin
    )
    return dest, report
