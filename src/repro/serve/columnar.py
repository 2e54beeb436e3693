"""Self-delimiting columnar chunks — the serve wire's binary fast path.

A ``FRAME_DATA_COLUMNAR`` frame carries one or more *chunks*: the
streaming analogue of a ``.leapscap`` capture (DESIGN.md §12).  Where a
capture stores whole-log vocabularies and tables, a chunk stores
**deltas against everything the stream has already sent** — string
vocabularies, the frame table, and the walk table grow monotonically
over a stream's life, and every per-event cell is an index into those
cumulative tables.  A fleet client therefore pays for each distinct
string, frame, and walk exactly once per connection, and the server
decodes events without ever tokenizing text.

Chunk layout (header big-endian like the frame protocol, body arrays
little-endian int64 — the explicit ``<i8`` keeps the wire byte-order
independent of either machine)::

    +------+-----+------+-------------+----------------+
    | "LC" | ver | kind | body_len u32| body           |
    +------+-----+------+-------------+----------------+

``kind`` 1 (events) body, in order:

* ``u32 n_events``
* five vocabulary deltas (process, category, name, module, function):
  ``u32 n_new``, ``u32 blob_len``, then the newline-joined new entries
  with a trailing ``"\\n"`` (absent when ``n_new == 0``) — the same
  lossless join the capture format uses;
* frame-table delta: ``u32 n_new``, then ``int64[n]`` stack index,
  module id, function id, one ``u8`` address-dtype flag (0 = int64,
  1 = uint64), and the ``n`` addresses;
* walk-table delta: ``u32 n_new_walks``, ``u32 n_flat``, then
  ``int64[n_flat]`` flattened frame ids and ``int64[n_new_walks]``
  per-walk lengths;
* nine ``int64[n_events]`` event columns: eid, timestamp, pid, tid,
  opcode, process_id, category_id, name_id, walk_id.

``kind`` 2 (report) body is the UTF-8 JSON of a
:class:`~repro.etw.recovery.ParseReport` — the client's local parse
accounting rides the wire so a columnar stream's terminal ``RESULT``
is bit-identical to the text path's.

:class:`ChunkEncoder` and :class:`CaptureChunkDecoder` are a stateful
pair: both sides grow the same cumulative tables in the same order, so
ids never need renegotiating.  The decoder buffers arbitrary byte
fragments (chunks may split anywhere, across frames or socket reads),
validates every id and length, and returns each events chunk as
:class:`~repro.etw.events.EventColumns` over the cumulative
vocabularies and walk table — the form the featurizer reads, so no
record is ever built.  Frames come out of the process-wide intern table
exactly as after a text parse.
"""

from __future__ import annotations

import json
import struct
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.etw.events import EventColumns, EventRecord, StackFrame
from repro.etw.parser import intern_frame
from repro.etw.recovery import ParseReport

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


class ChunkError(RuntimeError):
    """A chunk failed validation — the stream cannot be trusted."""


# -- encoding ----------------------------------------------------------


def _encode_vocab_delta(new_entries: List[str]) -> bytes:
    if not new_entries:
        return _U32.pack(0) + _U32.pack(0)
    blob = ("\n".join(new_entries) + "\n").encode("utf-8")
    return _U32.pack(len(new_entries)) + _U32.pack(len(blob)) + blob


def _int64_bytes(values: Sequence[int], what: str) -> bytes:
    try:
        return np.array(values, dtype=_I64).tobytes()
    except OverflowError:
        raise ChunkError(f"{what} value out of int64 range") from None


class ChunkEncoder:
    """Client-side chunk writer; one instance per stream (ids are
    cumulative across every chunk it has encoded)."""

    def __init__(self):
        self._vocabs = {name: {} for name in _VOCAB_NAMES}
        self._frames: dict = {}
        self._walks: dict = {}

    def _vocab_id(self, name: str, value: str, new: List[str]) -> int:
        table = self._vocabs[name]
        index = table.get(value)
        if index is None:
            index = len(table)
            table[value] = index
            new.append(value)
        return index

    def encode_events(self, events: Sequence[EventRecord]) -> bytes:
        """One events chunk covering ``events``, including whatever
        vocab/frame/walk entries they introduce."""
        new_vocab = {name: [] for name in _VOCAB_NAMES}
        new_frames: List[Tuple[int, int, int, int]] = []
        new_walk_flat: List[int] = []
        new_walk_lens: List[int] = []

        eid: List[int] = []
        timestamp: List[int] = []
        pid: List[int] = []
        tid: List[int] = []
        opcode: List[int] = []
        process_id: List[int] = []
        category_id: List[int] = []
        name_id: List[int] = []
        walk_id: List[int] = []

        frames = self._frames
        walks = self._walks
        for event in events:
            eid.append(event.eid)
            timestamp.append(event.timestamp)
            pid.append(event.pid)
            tid.append(event.tid)
            opcode.append(event.opcode)
            process_id.append(
                self._vocab_id("process", event.process, new_vocab["process"])
            )
            category_id.append(
                self._vocab_id(
                    "category", event.category, new_vocab["category"]
                )
            )
            name_id.append(self._vocab_id("name", event.name, new_vocab["name"]))

            walk = event.frames
            index = walks.get(walk)
            if index is None:
                ids = []
                for frame in walk:
                    frame_id = frames.get(frame)
                    if frame_id is None:
                        frame_id = len(frames)
                        frames[frame] = frame_id
                        new_frames.append(
                            (
                                frame.index,
                                self._vocab_id(
                                    "module",
                                    frame.module,
                                    new_vocab["module"],
                                ),
                                self._vocab_id(
                                    "function",
                                    frame.function,
                                    new_vocab["function"],
                                ),
                                frame.address,
                            )
                        )
                    ids.append(frame_id)
                index = len(walks)
                walks[walk] = index
                new_walk_flat.extend(ids)
                new_walk_lens.append(len(ids))
            walk_id.append(index)

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

        parts = [_U32.pack(len(eid))]
        for name in _VOCAB_NAMES:
            parts.append(_encode_vocab_delta(new_vocab[name]))
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
            (eid, "eid"),
            (timestamp, "timestamp"),
            (pid, "pid"),
            (tid, "tid"),
            (opcode, "opcode"),
            (process_id, "process_id"),
            (category_id, "category_id"),
            (name_id, "name_id"),
            (walk_id, "walk_id"),
        ):
            parts.append(_int64_bytes(column, what))
        body = b"".join(parts)
        return (
            _CHUNK_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, CHUNK_EVENTS, len(body))
            + body
        )

    def encode_report(self, report: ParseReport) -> bytes:
        """One report chunk carrying the client's parse accounting."""
        body = json.dumps(
            report.to_dict(), separators=(",", ":")
        ).encode("utf-8")
        return (
            _CHUNK_HEADER.pack(CHUNK_MAGIC, CHUNK_VERSION, CHUNK_REPORT, len(body))
            + body
        )


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


class CaptureChunkDecoder:
    """Server-side incremental chunk reader; one instance per stream.

    :meth:`feed` accepts byte fragments cut at *any* boundary and
    returns whatever whole chunks they complete, decoded into
    ``(columns, reports)``: one :class:`EventColumns` per events chunk.
    State (vocabularies, interned frames, walk tuples) accumulates
    across chunks, mirroring the encoder; every chunk's columns index
    the cumulative tables.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._vocabs = {name: [] for name in _VOCAB_NAMES}
        self._frames: List[StackFrame] = []
        self._walks: List[Tuple[StackFrame, ...]] = []

    @property
    def buffered_bytes(self) -> int:
        """Bytes received but not yet part of a complete chunk — a
        nonzero value at END means the client cut a chunk short."""
        return len(self._buffer)

    def feed(
        self, data: bytes
    ) -> Tuple[List[EventColumns], List[ParseReport]]:
        """Buffer ``data`` and decode every now-complete chunk."""
        self._buffer.extend(data)
        blocks: List[EventColumns] = []
        reports: List[ParseReport] = []
        while len(self._buffer) >= CHUNK_HEADER_SIZE:
            magic, version, kind, body_len = _CHUNK_HEADER.unpack_from(
                self._buffer
            )
            if magic != CHUNK_MAGIC:
                raise ChunkError(f"bad chunk magic {bytes(magic)!r}")
            if version != CHUNK_VERSION:
                raise ChunkError(
                    f"chunk version {version} is not supported "
                    f"(expected {CHUNK_VERSION})"
                )
            if body_len > MAX_CHUNK_BODY:
                raise ChunkError(f"chunk body of {body_len} bytes exceeds cap")
            if len(self._buffer) < CHUNK_HEADER_SIZE + body_len:
                break
            body = bytes(
                memoryview(self._buffer)[
                    CHUNK_HEADER_SIZE : CHUNK_HEADER_SIZE + body_len
                ]
            )
            del self._buffer[: CHUNK_HEADER_SIZE + body_len]
            if kind == CHUNK_EVENTS:
                blocks.append(self._decode_events(memoryview(body)))
            elif kind == CHUNK_REPORT:
                reports.append(self._decode_report(body))
            else:
                raise ChunkError(f"unknown chunk kind {kind}")
        return blocks, reports

    # -- internals -----------------------------------------------------
    def _decode_report(self, body: bytes) -> ParseReport:
        try:
            doc = json.loads(body.decode("utf-8"))
            return ParseReport.from_dict(doc)
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError,
                TypeError, ValueError) as error:
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
            text = bytes(blob).decode("utf-8")
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
        for what in (
            "eid", "timestamp", "pid", "tid", "opcode",
            "process_id", "category_id", "name_id", "walk_id",
        ):
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


def encode_event_stream(
    events: Sequence[EventRecord],
    report: Optional[ParseReport] = None,
    chunk_events: int = 8192,
) -> List[bytes]:
    """Whole event list → chunk list with a fresh encoder (convenience
    for benchmarks and tests; live clients hold a
    :class:`ChunkEncoder` on the connection instead)."""
    encoder = ChunkEncoder()
    chunks = [
        encoder.encode_events(events[start : start + chunk_events])
        for start in range(0, len(events), max(1, int(chunk_events)))
    ]
    if report is not None:
        chunks.append(encoder.encode_report(report))
    return chunks
