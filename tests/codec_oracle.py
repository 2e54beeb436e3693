"""Byte-identity oracle for the column codec.

:class:`OracleChunkEncoder` is the original per-record chunk encoder: a
plain Python loop that interns every event's strings, frames and walk
in event order.  ``repro.etw.capture.ChunkEncoder.encode_columns`` must
write the same bytes for every input (tests/test_capture.py,
tests/test_columnar_wire.py, benchmarks/bench_e2e.py), and
:func:`write_capture_oracle` must write the same capture directory as
``repro.etw.capture.write_capture``.  Deliberately self-contained: it
shares no code with the product encoder it checks.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.etw.events import EventRecord
from repro.etw.recovery import ParseReport

_CHUNK_HEADER = struct.Struct(">2sBBI")
_U32 = struct.Struct("<I")
_U8 = struct.Struct("B")
_I64 = np.dtype("<i8")
_U64 = np.dtype("<u8")

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1
_UINT64_MAX = 2**64 - 1

_VOCAB_NAMES = ("process", "category", "name", "module", "function")


class OracleError(RuntimeError):
    """The oracle cannot encode the input."""


def _encode_vocab_delta(new_entries: List[str]) -> bytes:
    if not new_entries:
        return _U32.pack(0) + _U32.pack(0)
    blob = ("\n".join(new_entries) + "\n").encode("utf-8")
    return _U32.pack(len(new_entries)) + _U32.pack(len(blob)) + blob


def _int64_bytes(values: Sequence[int], what: str) -> bytes:
    try:
        return np.array(values, dtype=_I64).tobytes()
    except OverflowError:
        raise OracleError(f"{what} value out of int64 range") from None


class OracleChunkEncoder:
    """Per-record chunk writer; one instance per stream."""

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
                raise OracleError("frame address out of 64-bit range")
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
        return _CHUNK_HEADER.pack(b"LC", 1, 1, len(body)) + body

    def encode_report(self, report: ParseReport) -> bytes:
        """One report chunk carrying the client's parse accounting."""
        body = json.dumps(
            report.to_dict(), separators=(",", ":")
        ).encode("utf-8")
        return _CHUNK_HEADER.pack(b"LC", 1, 2, len(body)) + body


def oracle_stream(
    events: Sequence[EventRecord],
    report: Optional[ParseReport] = None,
    chunk_events: int = 8192,
) -> List[bytes]:
    """Whole event list → chunk list with a fresh oracle encoder."""
    encoder = OracleChunkEncoder()
    chunks = [
        encoder.encode_events(events[start : start + chunk_events])
        for start in range(0, len(events), max(1, int(chunk_events)))
    ]
    if report is not None:
        chunks.append(encoder.encode_report(report))
    return chunks


def write_capture_oracle(
    path,
    events: Sequence[EventRecord],
    *,
    report: Optional[ParseReport] = None,
    source: Optional[dict] = None,
) -> Path:
    """A ``leaps-capture/v2`` directory written by the oracle encoder:
    ``events.lc`` is its chunk stream at 8192 events per chunk, and
    ``capture.json`` counts its tables."""
    path = Path(os.fspath(path))
    events = list(events)
    encoder = OracleChunkEncoder()
    chunks = [
        encoder.encode_events(events[start : start + 8192])
        for start in range(0, len(events), 8192)
    ]
    meta = {
        "schema": "leaps-capture/v2",
        "counts": {
            "events": len(events),
            "frames": len(encoder._frames),
            "walks": len(encoder._walks),
            **{
                f"vocab_{name}": len(table)
                for name, table in encoder._vocabs.items()
            },
        },
        "source": source,
        "parse_report": None if report is None else report.to_dict(),
    }
    path.mkdir(parents=True, exist_ok=True)
    (path / "capture.json").write_text(json.dumps(meta, indent=2) + "\n")
    (path / "events.lc").write_bytes(b"".join(chunks))
    return path
