"""The column codec: ``.leapscap`` captures and the serve wire's chunks.

A fleet-scale LEAPS deployment re-reads the same telemetry text for
every scan, so tokenizing dominates end-to-end time.  This module owns
the one binary form of parsed events, used both on disk and on the
wire (DESIGN.md §11, §12).

Chunk stream
------------
Events travel as self-delimiting *chunks* (header big-endian like the
frame protocol, body arrays little-endian int64 — the explicit ``<i8``
keeps the bytes independent of either machine)::

    +------+-----+------+-------------+----------------+
    | "LC" | ver | kind | body_len u32| body           |
    +------+-----+------+-------------+----------------+

A chunk stores **deltas against everything the stream has already
carried**: string vocabularies, the frame table and the walk table grow
monotonically, and every per-event cell is an index into those
cumulative tables.  Each distinct string, frame and walk is therefore
written exactly once per stream.  ``kind`` 1 (events) body, in order:

* ``u32 n_events``
* five vocabulary deltas (process, category, name, module, function):
  ``u32 n_new``, ``u32 blob_len``, then the new entries joined by
  ``"\\n"`` with a trailing ``"\\n"`` (absent when ``n_new == 0``).
  Field values never contain a newline
  (:func:`repro.etw.events._check_field`), so the join is lossless;
* frame-table delta: ``u32 n_new``, then ``int64[n]`` stack index,
  module id, function id, one ``u8`` address-dtype flag (0 = int64,
  1 = uint64), and the ``n`` addresses;
* walk-table delta: ``u32 n_new_walks``, ``u32 n_flat``, then
  ``int64[n_flat]`` flattened frame ids and ``int64[n_new_walks]``
  per-walk lengths;
* nine ``int64[n_events]`` event columns: eid, timestamp, pid, tid,
  opcode, process_id, category_id, name_id, walk_id.

``kind`` 2 (report) body is the UTF-8 JSON of a
:class:`~repro.etw.recovery.ParseReport`: a serve client's local parse
accounting rides the wire so a columnar stream's result is
bit-identical to the text path's.

:class:`ChunkEncoder` and :class:`CaptureChunkDecoder` are a stateful
pair: both sides grow the same cumulative tables in the same order.
The encoder reads :class:`~repro.etw.events.EventColumns` and interns
each distinct id once, in first-appearance order; the per-event work is
numpy gathers.  The decoder validates every id and length and returns
each events chunk as ``EventColumns`` over the cumulative tables, with
frames from the parser's process-wide intern table — the form the
featurizer reads, so no record is ever built.

Captures
--------
A *capture* is the one-time columnar form of a parsed raw log: a
``<name>.leapscap`` directory holding

``capture.json``
    Schema version (``leaps-capture/v2``), entity counts, provenance of
    the conversion (source path, parse policy), and the full
    :class:`~repro.etw.recovery.ParseReport` of the parse that produced
    the events — recovery accounting survives the binary detour.
``events.lc``
    Exactly the events chunks a fresh :class:`ChunkEncoder` writes for
    the log, cut every :data:`DEFAULT_CHUNK_EVENTS` events: a capture is the
    chunk stream a serve client would send, with no report chunk.

:func:`load_capture` checks the schema and runs the decoder over the
file's bytes: every byte must belong to a whole events chunk, and any
failure raises :class:`CaptureError` (:class:`CaptureVersionError` for a
schema mismatch, including ``leaps-capture/v1`` directories).
``Capture.events`` is a deferred :class:`~repro.etw.events.EventLog`
whose records are built on first use, so a scan never builds them.
"""

from __future__ import annotations

import gc
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.etw.events import EventColumns, EventLog, EventRecord, event_columns
from repro.etw.parser import intern_frame, read_log_lines
from repro.etw.recovery import ParseReport

#: Capture schema identifier; bump the suffix on incompatible changes.
SCHEMA = "leaps-capture/v2"

#: Directory suffix marking a path as a columnar capture.
CAPTURE_SUFFIX = ".leapscap"

JSON_NAME = "capture.json"
EVENTS_NAME = "events.lc"

#: events per chunk in a capture file and by default on the wire
DEFAULT_CHUNK_EVENTS = 8192

CHUNK_MAGIC = b"LC"
CHUNK_VERSION = 1

#: chunk kinds
CHUNK_EVENTS = 1
CHUNK_REPORT = 2

_CHUNK_HEADER = struct.Struct(">2sBBI")
CHUNK_HEADER_SIZE = _CHUNK_HEADER.size

#: refuse absurd chunk bodies before buffering for them (matches the
#: frame-level cap in :mod:`repro.serve.protocol`)
MAX_CHUNK_BODY = 64 * 1024 * 1024

_U32 = struct.Struct("<I")
_U8 = struct.Struct("B")
_I64 = np.dtype("<i8")
_U64 = np.dtype("<u8")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1

#: vocabulary serialization order; must never change within a version
_VOCAB_NAMES = ("process", "category", "name", "module", "function")

#: per-event columns, in serialization order
_EVENT_COLUMNS = (
    "eid", "timestamp", "pid", "tid", "opcode",
    "process_id", "category_id", "name_id", "walk_id",
)


class CaptureError(RuntimeError):
    """The capture is missing, malformed, or cannot be written."""


class CaptureVersionError(CaptureError):
    """The capture's schema version is not one this code understands."""


class ChunkError(RuntimeError):
    """A chunk failed validation — the stream cannot be trusted."""


def is_capture_path(path: Union[str, os.PathLike]) -> bool:
    """Whether a path addresses a columnar capture (by its suffix)."""
    return Path(os.fspath(path)).suffix == CAPTURE_SUFFIX


@dataclass
class Capture:
    """A loaded capture: the events, the conversion-time parse report
    (``None`` when the writer had none), the raw metadata document, and
    the validated interned columns the events are built from.

    ``events`` is deferred: ``len()`` answers from ``columns``, and the
    records are built on any other first use, bit-identical to an eager
    build."""

    events: EventLog
    report: Optional[ParseReport]
    meta: dict
    columns: EventColumns


# -- encoding ----------------------------------------------------------


def _encode_vocab_delta(name: str, new_entries: List[str]) -> bytes:
    if not new_entries:
        return _U32.pack(0) + _U32.pack(0)
    for value in new_entries:
        # construction-time validation normally guarantees this, but
        # trusted fast paths bypass __init__: recheck before the newline
        # join becomes the storage format
        if "\n" in value or "\r" in value or "|" in value:
            raise ChunkError(
                f"vocab_{name} entry {value!r} contains a raw-log delimiter"
            )
    blob = ("\n".join(new_entries) + "\n").encode("utf-8")
    return _U32.pack(len(new_entries)) + _U32.pack(len(blob)) + blob


def _int64_bytes(values, what: str) -> bytes:
    try:
        return np.asarray(values, dtype=_I64).tobytes()
    except OverflowError:
        raise ChunkError(f"{what} value out of int64 range") from None


def _remap(local_ids, intern) -> np.ndarray:
    """``local_ids`` mapped through ``intern``, which is called once per
    distinct id in first-appearance order — the order in which the
    cumulative tables grow."""
    local_ids = np.asarray(local_ids, dtype=np.int64)
    distinct, first, inverse = np.unique(
        local_ids, return_index=True, return_inverse=True
    )
    rank = np.argsort(first)
    mapped = np.empty(len(distinct), dtype=np.int64)
    mapped[rank] = [intern(local) for local in distinct[rank].tolist()]
    return mapped[inverse.reshape(-1)]


class ChunkEncoder:
    """Chunk writer; one instance per stream or capture file (ids are
    cumulative across every chunk it has encoded)."""

    def __init__(self):
        self._vocabs = {name: {} for name in _VOCAB_NAMES}
        self._frames: dict = {}
        self._walks: dict = {}

    @property
    def counts(self) -> dict:
        """Sizes of the cumulative frame, walk and vocabulary tables."""
        return {
            "frames": len(self._frames),
            "walks": len(self._walks),
            **{f"vocab_{name}": len(table) for name, table in self._vocabs.items()},
        }

    def encode_columns(self, columns: EventColumns) -> bytes:
        """One events chunk covering ``columns``, including whatever
        vocab/frame/walk entries they introduce.  ``columns`` needs only
        ids that index its vocabularies and walk table; each distinct id
        is interned once and the per-event ids are gathered by numpy."""
        vocabs = self._vocabs
        frames = self._frames
        walks = self._walks
        new_vocab = {name: [] for name in _VOCAB_NAMES}
        new_frames: List[Tuple[int, int, int, int]] = []
        new_walk_flat: List[int] = []
        new_walk_lens: List[int] = []

        def vocab_id(name: str, value: str) -> int:
            table = vocabs[name]
            index = table.get(value)
            if index is None:
                index = table[value] = len(table)
                new_vocab[name].append(value)
            return index

        def walk_id(walk) -> int:
            index = walks.get(walk)
            if index is None:
                for frame in walk:
                    frame_id = frames.get(frame)
                    if frame_id is None:
                        frame_id = frames[frame] = len(frames)
                        new_frames.append(
                            (
                                frame.index,
                                vocab_id("module", frame.module),
                                vocab_id("function", frame.function),
                                frame.address,
                            )
                        )
                    new_walk_flat.append(frame_id)
                index = walks[walk] = len(walks)
                new_walk_lens.append(len(walk))
            return index

        process_id = _remap(
            columns.process_id,
            lambda local: vocab_id("process", columns.process_vocab[local]),
        )
        category_id = _remap(
            columns.category_id,
            lambda local: vocab_id("category", columns.category_vocab[local]),
        )
        name_id = _remap(
            columns.name_id,
            lambda local: vocab_id("name", columns.name_vocab[local]),
        )
        walk_ids = _remap(
            columns.walk_id, lambda local: walk_id(columns.walks[local])
        )

        addresses = [row[3] for row in new_frames]
        if addresses and (
            min(addresses) < _INT64_MIN or max(addresses) > _INT64_MAX
        ):
            if min(addresses) < 0 or max(addresses) > _UINT64_MAX:
                raise ChunkError("frame address out of 64-bit range")
            addr_flag, addr_bytes = 1, np.array(addresses, dtype=_U64).tobytes()
        else:
            addr_flag = 0
            addr_bytes = _int64_bytes(addresses, "frame address")

        parts = [_U32.pack(columns.n_events)]
        for name in _VOCAB_NAMES:
            parts.append(_encode_vocab_delta(name, new_vocab[name]))
        parts.append(_U32.pack(len(new_frames)))
        parts.append(_int64_bytes([r[0] for r in new_frames], "frame index"))
        parts.append(_int64_bytes([r[1] for r in new_frames], "frame module"))
        parts.append(_int64_bytes([r[2] for r in new_frames], "frame function"))
        parts.append(_U8.pack(addr_flag))
        parts.append(addr_bytes)
        parts.append(_U32.pack(len(new_walk_lens)))
        parts.append(_U32.pack(len(new_walk_flat)))
        parts.append(_int64_bytes(new_walk_flat, "walk frame id"))
        parts.append(_int64_bytes(new_walk_lens, "walk length"))
        for column, what in (
            (columns.eid, "eid"),
            (columns.timestamp, "timestamp"),
            (columns.pid, "pid"),
            (columns.tid, "tid"),
            (columns.opcode, "opcode"),
            (process_id, "process_id"),
            (category_id, "category_id"),
            (name_id, "name_id"),
            (walk_ids, "walk_id"),
        ):
            parts.append(_int64_bytes(column, what))
        body = b"".join(parts)
        return (
            _CHUNK_HEADER.pack(
                CHUNK_MAGIC, CHUNK_VERSION, CHUNK_EVENTS, len(body)
            )
            + body
        )

    def encode_events(self, events: Sequence[EventRecord]) -> bytes:
        """:meth:`encode_columns` of a record list."""
        return self.encode_columns(EventColumns.from_records(events))

    def encode_stream(
        self, columns: EventColumns, chunk_events: int = DEFAULT_CHUNK_EVENTS
    ) -> List[bytes]:
        """``columns`` as events chunks of ``chunk_events`` events each
        (the last one may be shorter; no events, no chunks)."""
        step = max(1, int(chunk_events))
        return [
            self.encode_columns(_column_slice(columns, start, start + step))
            for start in range(0, columns.n_events, step)
        ]

    def encode_report(self, report: ParseReport) -> bytes:
        """One report chunk carrying the client's parse accounting."""
        body = json.dumps(
            report.to_dict(), separators=(",", ":")
        ).encode("utf-8")
        return (
            _CHUNK_HEADER.pack(
                CHUNK_MAGIC, CHUNK_VERSION, CHUNK_REPORT, len(body)
            )
            + body
        )


def _column_slice(columns: EventColumns, start: int, stop: int) -> EventColumns:
    """Events ``[start, stop)`` of ``columns`` over the same tables."""
    if start == 0 and stop >= columns.n_events:
        return columns
    part = EventColumns()
    for name in _EVENT_COLUMNS:
        setattr(part, name, getattr(columns, name)[start:stop])
    part.n_events = len(part.eid)
    part.process_vocab = columns.process_vocab
    part.category_vocab = columns.category_vocab
    part.name_vocab = columns.name_vocab
    part.walks = columns.walks
    return part


# -- decoding ----------------------------------------------------------


class _Cursor:
    """Bounds-checked reader over one chunk body."""

    __slots__ = ("view", "offset", "end")

    def __init__(self, view: memoryview):
        self.view = view
        self.offset = 0
        self.end = len(view)

    def take(self, n: int, what: str) -> memoryview:
        if n < 0 or self.end - self.offset < n:
            raise ChunkError(f"chunk body truncated reading {what}")
        piece = self.view[self.offset : self.offset + n]
        self.offset += n
        return piece

    def u32(self, what: str) -> int:
        return _U32.unpack(self.take(4, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def int64s(self, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(count * 8, what), dtype=_I64, count=count)

    def done(self) -> bool:
        return self.offset == self.end


def _chunk_end(data, offset: int) -> Optional[int]:
    """End offset of the chunk whose header starts at ``offset``, or
    ``None`` while ``data`` does not hold all of it; the header is
    validated as soon as it is complete."""
    if len(data) - offset < CHUNK_HEADER_SIZE:
        return None
    magic, version, _, body_len = _CHUNK_HEADER.unpack_from(data, offset)
    if magic != CHUNK_MAGIC:
        raise ChunkError(f"bad chunk magic {bytes(magic)!r}")
    if version != CHUNK_VERSION:
        raise ChunkError(
            f"chunk version {version} is not supported "
            f"(expected {CHUNK_VERSION})"
        )
    if body_len > MAX_CHUNK_BODY:
        raise ChunkError(f"chunk body of {body_len} bytes exceeds cap")
    end = offset + CHUNK_HEADER_SIZE + body_len
    return end if end <= len(data) else None


class CaptureChunkDecoder:
    """Chunk reader; one instance per stream or capture file.

    :meth:`decode` reads a byte string of whole chunks (a capture's
    ``events.lc``) without copying it; :meth:`feed` accepts wire
    fragments cut at *any* boundary and decodes whatever whole chunks
    they complete.  Both return ``(columns, reports)``: one
    :class:`EventColumns` per events chunk.  State (vocabularies,
    interned frames, walk tuples) accumulates across chunks, mirroring
    the encoder; every chunk's columns index the cumulative tables.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._vocabs = {name: [] for name in _VOCAB_NAMES}
        self._frames: list = []
        self._walks: list = []

    @property
    def buffered_bytes(self) -> int:
        """Bytes received but not yet part of a complete chunk — a
        nonzero value at END means the client cut a chunk short."""
        return len(self._buffer)

    def feed(
        self, data: bytes
    ) -> Tuple[List[EventColumns], List[ParseReport]]:
        """Buffer ``data`` and decode every now-complete chunk."""
        buffer = self._buffer
        buffer.extend(data)
        end = 0
        while True:
            chunk_end = _chunk_end(buffer, end)
            if chunk_end is None:
                break
            end = chunk_end
        if not end:
            return [], []
        # the decoded columns are views into their bytes: copy the whole
        # chunks out of the buffer, once, so it stays resizable
        whole = bytes(memoryview(buffer)[:end])
        del buffer[:end]
        return self.decode(whole)

    def decode(
        self, data: bytes
    ) -> Tuple[List[EventColumns], List[ParseReport]]:
        """Decode ``data``, which must be whole chunks to its last byte."""
        view = memoryview(data)
        blocks: List[EventColumns] = []
        reports: List[ParseReport] = []
        offset = 0
        while offset < len(view):
            end = _chunk_end(view, offset)
            if end is None:
                raise ChunkError(
                    f"{len(view) - offset} bytes of an incomplete chunk "
                    "at the end"
                )
            kind = view[offset + 3]
            body = view[offset + CHUNK_HEADER_SIZE : end]
            if kind == CHUNK_EVENTS:
                blocks.append(self._decode_events(body))
            elif kind == CHUNK_REPORT:
                reports.append(self._decode_report(body))
            else:
                raise ChunkError(f"unknown chunk kind {kind}")
            offset = end
        return blocks, reports

    # -- internals -----------------------------------------------------
    def _decode_report(self, body: memoryview) -> ParseReport:
        try:
            doc = json.loads(str(body, "utf-8"))
            return ParseReport.from_dict(doc)
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                TypeError, ValueError, AttributeError) as error:
            raise ChunkError(f"bad report chunk: {error}") from error

    def _read_vocab_delta(self, cursor: _Cursor, name: str) -> None:
        n_new = cursor.u32(f"vocab_{name} count")
        blob_len = cursor.u32(f"vocab_{name} blob length")
        blob = cursor.take(blob_len, f"vocab_{name} blob")
        if n_new == 0:
            if blob_len:
                raise ChunkError(f"vocab_{name} has bytes but no entries")
            return
        try:
            text = str(blob, "utf-8")
        except UnicodeDecodeError as error:
            raise ChunkError(f"vocab_{name} blob is not UTF-8") from error
        if not text.endswith("\n"):
            raise ChunkError(f"vocab_{name} blob missing trailing sentinel")
        entries = text.split("\n")
        entries.pop()
        if len(entries) != n_new:
            raise ChunkError(
                f"vocab_{name} declares {n_new} entries, blob has "
                f"{len(entries)}"
            )
        for value in entries:
            if "|" in value or "\r" in value:
                raise ChunkError(
                    f"vocab_{name} entry {value!r} contains a raw-log "
                    "delimiter"
                )
        self._vocabs[name].extend(entries)

    def _decode_events(self, view: memoryview) -> EventColumns:
        cursor = _Cursor(view)
        n_events = cursor.u32("event count")
        for name in _VOCAB_NAMES:
            self._read_vocab_delta(cursor, name)

        vocabs = self._vocabs
        modules = vocabs["module"]
        functions = vocabs["function"]

        n_new_frames = cursor.u32("frame count")
        frame_index = cursor.int64s(n_new_frames, "frame index")
        frame_module = cursor.int64s(n_new_frames, "frame module ids")
        frame_function = cursor.int64s(n_new_frames, "frame function ids")
        addr_flag = cursor.u8("frame address dtype")
        if addr_flag not in (0, 1):
            raise ChunkError(f"bad frame address dtype flag {addr_flag}")
        addr_raw = cursor.take(n_new_frames * 8, "frame addresses")
        addresses = np.frombuffer(
            addr_raw, dtype=_U64 if addr_flag else _I64, count=n_new_frames
        )

        n_new_walks = cursor.u32("walk count")
        n_flat = cursor.u32("walk flat length")
        walk_flat = cursor.int64s(n_flat, "walk frame ids")
        walk_lens = cursor.int64s(n_new_walks, "walk lengths")

        columns = EventColumns()
        columns.n_events = n_events
        for what in _EVENT_COLUMNS:
            setattr(columns, what, cursor.int64s(n_events, what))
        if not cursor.done():
            raise ChunkError(
                f"{cursor.end - cursor.offset} trailing bytes in events chunk"
            )

        # -- validate ids against the cumulative tables ----------------
        frames = self._frames
        walks = self._walks
        if not _in_range(frame_module, len(modules)):
            raise ChunkError("frame module id out of range")
        if not _in_range(frame_function, len(functions)):
            raise ChunkError("frame function id out of range")
        # each length in [0, n_flat] keeps the int64 sum exact
        if not _in_range(walk_lens, n_flat + 1) or int(walk_lens.sum()) != n_flat:
            raise ChunkError("walk lengths do not cover the flat frame ids")
        if not _in_range(walk_flat, len(frames) + n_new_frames):
            raise ChunkError("walk frame id out of range")
        for what, bound in (
            ("process_id", len(vocabs["process"])),
            ("category_id", len(vocabs["category"])),
            ("name_id", len(vocabs["name"])),
            ("walk_id", len(walks) + n_new_walks),
        ):
            if not _in_range(getattr(columns, what), bound):
                raise ChunkError(f"{what} out of range [0, {bound})")

        # -- grow the frame and walk tables ----------------------------
        for index, module, function, address in zip(
            frame_index.tolist(),
            frame_module.tolist(),
            frame_function.tolist(),
            addresses.tolist(),
        ):
            frames.append(
                intern_frame(index, modules[module], functions[function], address)
            )
        flat = walk_flat.tolist()
        offset = 0
        for length in walk_lens.tolist():
            walks.append(
                tuple(frames[frame_id] for frame_id in flat[offset : offset + length])
            )
            offset += length
        columns.process_vocab = vocabs["process"]
        columns.category_vocab = vocabs["category"]
        columns.name_vocab = vocabs["name"]
        columns.walks = walks
        return columns


def _in_range(column: np.ndarray, bound: int) -> bool:
    """Every id of ``column`` lies in ``[0, bound)``."""
    return not len(column) or (int(column.min()) >= 0 and int(column.max()) < bound)


def _joined(blocks: List[EventColumns]) -> EventColumns:
    """One :class:`EventColumns` over consecutive decoded chunks (they
    share the decoder's cumulative tables)."""
    if len(blocks) == 1:
        return blocks[0]
    columns = EventColumns()
    for name in _EVENT_COLUMNS:
        setattr(
            columns,
            name,
            np.concatenate([getattr(block, name) for block in blocks])
            if blocks
            else np.zeros(0, dtype=_I64),
        )
    columns.n_events = len(columns.eid)
    if blocks:
        last = blocks[-1]
        columns.process_vocab = last.process_vocab
        columns.category_vocab = last.category_vocab
        columns.name_vocab = last.name_vocab
        columns.walks = last.walks
    return columns


# -- capture files -----------------------------------------------------


def captures_byte_identical(
    a: Union[str, os.PathLike], b: Union[str, os.PathLike]
) -> bool:
    """Whether two captures hold identical metadata and event bytes."""
    a, b = Path(os.fspath(a)), Path(os.fspath(b))
    return all(
        (a / name).read_bytes() == (b / name).read_bytes()
        for name in (JSON_NAME, EVENTS_NAME)
    )


def write_capture_columns(
    path: Union[str, os.PathLike],
    cols: EventColumns,
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """Serialize an :class:`~repro.etw.events.EventColumns` to a capture
    directory ``path``: the chunks of a fresh :class:`ChunkEncoder` in
    ``events.lc``, counts and provenance in ``capture.json``.

    Creates the directory (and parents) if needed; overwrites an
    existing capture in place.  Returns the capture path.  The
    generation fast path writes its column blocks here without ever
    materializing an ``EventRecord`` or a line of text.
    """
    path = Path(os.fspath(path))
    encoder = ChunkEncoder()
    try:
        chunks = encoder.encode_stream(cols)
    except ChunkError as error:
        raise CaptureError(str(error)) from error
    meta = {
        "schema": SCHEMA,
        "counts": {"events": cols.n_events, **encoder.counts},
        "source": source,
        "parse_report": None if report is None else report.to_dict(),
    }
    path.mkdir(parents=True, exist_ok=True)
    (path / JSON_NAME).write_text(json.dumps(meta, indent=2) + "\n")
    with open(path / EVENTS_NAME, "wb") as out:
        out.writelines(chunks)
    return path


def write_capture(
    path: Union[str, os.PathLike],
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """:func:`write_capture_columns` of parsed events: an
    :class:`~repro.etw.events.EventLog`'s columns when it carries them
    (``parse_fast(..., columns=True)``, as :func:`convert_log` uses, or
    a loaded capture), else the columns of the records."""
    return write_capture_columns(
        path, event_columns(events), report=report, source=source
    )


def convert_log(
    src: Union[str, os.PathLike],
    dst: Optional[Union[str, os.PathLike]] = None,
    *,
    policy: str = "drop",
    require_complete_tail: bool = False,
) -> Path:
    """One-time text → columnar conversion of a raw log file.

    Parses ``src`` under the given recovery ``policy`` (default
    ``"drop"``: corrupt lines are classified and skipped, not fatal) and
    writes the capture to ``dst`` (default: ``src`` with its suffix
    replaced by ``.leapscap``).  The conversion's
    :class:`~repro.etw.recovery.ParseReport` is recorded in the capture
    metadata, so nothing recovery learned about the text is lost.
    """
    from repro.etw.fastparse import parse_fast

    src = Path(os.fspath(src))
    if dst is None:
        dst = src.with_suffix(CAPTURE_SUFFIX)
    report = ParseReport()
    events = parse_fast(
        read_log_lines(src),
        policy=policy,
        report=report,
        require_complete_tail=require_complete_tail,
        columns=True,
    )
    return write_capture(
        dst,
        events,
        report=report,
        source={
            "path": str(src),
            "policy": policy,
            "require_complete_tail": bool(require_complete_tail),
        },
    )


def load_capture(path: Union[str, os.PathLike]) -> Capture:
    """Load and validate a capture; its events are bit-identical to the
    parse that was converted (same interned frames, same report).

    Every chunk is checked before it is trusted; the records themselves
    are only built when ``Capture.events`` is first used."""
    path = Path(os.fspath(path))
    json_path = path / JSON_NAME
    events_path = path / EVENTS_NAME
    if not json_path.is_file():
        raise CaptureError(
            f"{path} is not a capture (needs {JSON_NAME} + {EVENTS_NAME})"
        )
    try:
        meta = json.loads(json_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise CaptureError(f"unparseable {json_path}: {error}") from error
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema != SCHEMA:
        raise CaptureVersionError(
            f"capture schema {schema!r} is not supported (expected {SCHEMA!r})"
        )
    try:
        data = events_path.read_bytes()
    except OSError as error:
        raise CaptureError(
            f"{path} is not a capture (needs {JSON_NAME} + {EVENTS_NAME})"
        ) from error
    try:
        blocks, reports = CaptureChunkDecoder().decode(data)
    except ChunkError as error:
        raise CaptureError(f"{events_path}: {error}") from error
    if reports:
        raise CaptureError(f"{events_path}: only events chunks are allowed")
    report_doc = meta.get("parse_report")
    try:
        report = None if report_doc is None else ParseReport.from_dict(report_doc)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise CaptureError(f"bad parse_report in {json_path}: {error}") from error
    columns = _joined(blocks)
    events = EventLog.deferred(
        columns, _capture_records, report=report, source=os.fspath(path)
    )
    return Capture(events=events, report=report, meta=meta, columns=columns)


def _capture_records(columns: EventColumns) -> List[EventRecord]:
    """The records of a loaded capture's columns, in event order."""
    # Pure C-driven loops over Python ints and interned objects.  Pause
    # generational GC as in the vectorized text parser — the transient
    # containers otherwise trigger rescans costing more than the
    # reconstruction itself.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        walks = columns.walks
        processes = columns.process_vocab
        categories = columns.category_vocab
        names = columns.name_vocab
        events: List[EventRecord] = []
        append = events.append
        new = EventRecord.__new__
        # Vocab strings are validated delimiter-free and integer fields
        # are exact int64 round-trips, so __init__ can be bypassed
        # exactly as in the vectorized text parser.
        for (
            event_eid,
            event_timestamp,
            event_pid,
            event_process,
            event_tid,
            event_category,
            event_opcode,
            event_name,
            event_walk,
        ) in zip(
            columns.eid.tolist(),
            columns.timestamp.tolist(),
            columns.pid.tolist(),
            columns.process_id.tolist(),
            columns.tid.tolist(),
            columns.category_id.tolist(),
            columns.opcode.tolist(),
            columns.name_id.tolist(),
            columns.walk_id.tolist(),
        ):
            record = new(EventRecord)
            record.eid = event_eid
            record.timestamp = event_timestamp
            record.pid = event_pid
            record.process = processes[event_process]
            record.tid = event_tid
            record.category = categories[event_category]
            record.opcode = event_opcode
            record.name = names[event_name]
            record.frames = walks[event_walk]
            append(record)
    finally:
        if gc_was_enabled:
            gc.enable()
    return events


def read_capture(
    path: Union[str, os.PathLike],
) -> Tuple[EventLog, Optional[ParseReport]]:
    """Events + conversion report of a capture (convenience wrapper)."""
    capture = load_capture(path)
    return capture.events, capture.report


def iter_capture(path: Union[str, os.PathLike]) -> Iterator[EventRecord]:
    """``iter_parse``-shaped access: yield the capture's events in order."""
    return iter(load_capture(path).events)


# -- command line ------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.etw.capture`` — convert raw logs and inspect
    captures from the shell:

    ``convert <log> [<out.leapscap>]``
        One-time text → columnar conversion (:func:`convert_log`).
    ``info <capture.leapscap>``
        Schema, entity counts, provenance, and parse-report summary.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.etw.capture",
        description="Columnar capture tools: parse once, scan forever.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    convert = commands.add_parser(
        "convert", help="convert a raw text log to a .leapscap capture"
    )
    convert.add_argument("log", help="raw pipe-delimited log file")
    convert.add_argument(
        "capture", nargs="?", default=None,
        help="output capture directory (default: <log>.leapscap)",
    )
    convert.add_argument(
        "--policy", default="drop", choices=("strict", "warn", "drop"),
        help="parse recovery policy (default: drop)",
    )
    info = commands.add_parser(
        "info", help="print a capture's schema, counts, and provenance"
    )
    info.add_argument("capture", help="capture directory (.leapscap)")
    args = parser.parse_args(argv)

    if args.command == "convert":
        try:
            out = convert_log(args.log, args.capture, policy=args.policy)
        except (OSError, CaptureError) as error:
            print(f"error: {error}")
            return 1
        meta = json.loads((out / JSON_NAME).read_text(encoding="utf-8"))
        counts = meta["counts"]
        print(f"wrote {out}")
        print(
            f"  events={counts['events']}  frames={counts['frames']}  "
            f"walks={counts['walks']}"
        )
        report = meta.get("parse_report") or {}
        if report:
            print(
                f"  lines={report.get('total_lines')}  "
                f"dropped={report.get('events_dropped')}  "
                f"errors={report.get('error_lines')}"
            )
        return 0

    try:
        capture = load_capture(args.capture)
    except CaptureError as error:
        print(f"error: {error}")
        return 1
    meta = capture.meta
    print(f"{args.capture}: schema {meta['schema']}")
    for key, value in meta["counts"].items():
        print(f"  {key}: {value}")
    source = meta.get("source") or {}
    if source:
        print(f"  source: {source.get('path')} (policy={source.get('policy')})")
    if capture.report is not None:
        report = capture.report
        print(
            f"  parse report: {report.total_lines} lines, "
            f"{report.events_yielded} events, "
            f"{report.error_lines} error lines, "
            f"truncated_tail={report.truncated_tail}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
