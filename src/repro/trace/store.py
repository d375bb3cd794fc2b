"""Out-of-core columnar trace store: mmap-backed request sequences.

Every :class:`~repro.cache.model.RequestSequence` runs on one columnar
layout, :class:`~repro.cache.model.TraceColumns`.  An in-memory sequence
builds it from its rows; a trace store *is* that layout on
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
sequence ships only the store *path*: pool workers re-open the mmap.

:func:`convert_csv_to_store` runs the CSV reader of
:mod:`repro.trace.io` and appends each chunk's checked columns straight
to the column files, so it loads the rows, raises the errors and
reports the :class:`~repro.trace.io.LoadReport` of
:func:`~repro.trace.io.sequence_from_csv_report` without ever holding
more than one chunk of Python rows.
"""

from __future__ import annotations

import json
from contextlib import closing
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..cache.model import RequestSequence, SingleItemView, TraceColumns, invert_items
from .io import LoadReport, TraceRows, _check_options, read_trace_csv

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


def _reopen_sequence(path: str, mmap: bool) -> "StoreSequence":
    """Pickle target of :class:`StoreSequence`: re-open from the path."""
    return TraceStore(path, mmap=mmap).sequence()


class StoreSequence(RequestSequence):
    """A :class:`RequestSequence` over an opened trace store.

    The store's files *are* the sequence's :class:`TraceColumns`, so
    every derived operation, ``Request`` objects included, runs the
    shared implementation on zero-copy mmap slices, and opening does no
    per-row work (``.validate()`` re-audits what the converter
    enforced).  What differs is kept here: a single-item view over the
    store's own columns, and pickling ships the store path, not the data
    -- pool workers re-open the mmap on their side.
    """

    def __init__(self, store: "TraceStore"):
        # int32 server and item columns straight off the store; every
        # consumer normalises through np.asarray(..., int64) (solvers,
        # memo fingerprints), so the narrower dtype is observationally
        # identical and stays zero-copy
        vars(self)["_store"] = store
        self._adopt(store.columns, store.num_servers, store.origin)

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


class _StoreBuilder:
    """Append-only writer of the store's column files: ``append`` writes
    request-major chunks; ``finish`` derives the item-major inverted
    columns from them (one stable argsort of the item ids, the only
    transient O(nnz) allocation) and writes ``meta.json``."""

    def __init__(self, dest: Union[str, Path]):
        self.dest = Path(dest)
        self.dest.mkdir(parents=True, exist_ok=True)
        self._files = {name: open(self.dest / f"{name}.bin", "wb") for name in _COLUMNS}
        self._write("item_offsets", [0])
        self.n = 0
        self.nnz = 0

    def close(self) -> None:
        for fh in self._files.values():
            fh.close()

    def _write(self, name: str, values) -> None:
        self._files[name].write(np.asarray(values, dtype=_COLUMNS[name]).tobytes())

    def append(self, rows: "TraceRows | TraceColumns") -> None:
        """Append request-major columns whose ``item_offsets`` start at 0."""
        self._write("servers", rows.servers)
        self._write("times", rows.times)
        self._write("item_offsets", rows.item_offsets[1:] + self.nnz)
        self._write("item_ids", rows.item_ids)
        self.n += len(rows.servers)
        self.nnz += int(rows.item_offsets[-1])

    def finish(self, *, num_servers: int, origin: int) -> Path:
        n, nnz = self.n, self.nnz
        for name in ("servers", "times", "item_offsets", "item_ids"):
            self._files[name].close()
        inverted = invert_items(
            _read_column(self.dest, "item_offsets", n + 1, mmap=False),
            _read_column(self.dest, "item_ids", nnz, mmap=False),
        )
        for name, column in zip(("inv_items", "inv_offsets", "inv_positions"), inverted):
            self._write(name, column)
        servers = _read_column(self.dest, "servers", n, mmap=True)
        times = _read_column(self.dest, "times", n, mmap=True)
        # gather chunk-wise so the per-item server/time columns never
        # cost a second full-nnz resident allocation
        for lo in range(0, nnz, _GATHER_CHUNK):
            sel = inverted[2][lo : lo + _GATHER_CHUNK]
            self._write("inv_servers", servers[sel])
            self._write("inv_times", times[sel])
        self.close()
        meta = {
            "schema": STORE_SCHEMA,
            "num_servers": int(num_servers),
            "origin": int(origin),
            "num_requests": int(n),
            "nnz": int(nnz),
            "num_items": len(inverted[0]),
            "columns": {name: str(dt) for name, dt in _COLUMNS.items()},
        }
        # meta.json is written last: its presence marks a complete store
        (self.dest / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
        return self.dest


def write_store(seq: RequestSequence, path: Union[str, Path]) -> Path:
    """Persist ``seq`` as a columnar store directory; returns the path."""
    cols = seq.columns
    for name in ("servers", "item_ids"):
        col = getattr(cols, name)
        if len(col) and not (-(2**31) <= col.min() and col.max() < 2**31):
            raise ValueError(f"{name} do not fit the store's int32 column")
    with closing(_StoreBuilder(path)) as builder:
        builder.append(cols)
        return builder.finish(num_servers=seq.num_servers, origin=seq.origin)


def convert_csv_to_store(
    csv_path: Union[str, Path],
    store_path: Union[str, Path],
    *,
    num_servers: Optional[int] = None,
    origin: Optional[int] = None,
    on_error: str = "raise",
) -> Tuple[Path, LoadReport]:
    """Convert a :mod:`repro.trace.io` CSV into a columnar store;
    returns ``(store_path, LoadReport)``.

    :func:`~repro.trace.io.read_trace_csv` checks the file in
    :data:`~repro.trace.io.CONVERT_CHUNK_ROWS`-row chunks, and each
    chunk's accepted columns are appended to the column files, so memory
    stays bounded by one chunk whatever the trace size (the inverted
    build at the end is the only transient O(nnz) allocation).  Rows,
    errors, overrides and report are those of
    :func:`~repro.trace.io.sequence_from_csv_report` on the same text.
    """
    _check_options(on_error, num_servers)
    with open(csv_path, newline="") as fh, closing(_StoreBuilder(store_path)) as builder:
        num_servers, origin, report = read_trace_csv(
            fh, builder.append,
            num_servers=num_servers, origin=origin, on_error=on_error,
        )
        return builder.finish(num_servers=num_servers, origin=origin), report
