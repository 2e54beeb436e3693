"""Load generator for the fleet detection service.

The server runs in its own child process (``serve_child.py``).  The
client is one thread driving at most ``nproc`` connections through
``selectors``; each connection streams hosts back to back, alternating
the columnar and the text wire mode, one stream per connection at a
time.  Chunks are encoded before any phase starts.

* saturate: a closed loop; each connection sends a whole host as fast
  as the socket takes it, then ``END``, and opens its next stream when
  the ``RESULT`` arrives.
* paced: an open loop inside each stream; a chunk is due when the
  stream has been open long enough to have produced its last event at
  ``PACED_EVENTS_PER_S``, a fixed rate that never depends on measured
  throughput.  A window's latency runs
  from the due time of the chunk holding its last event to the receipt
  of its detection; the generator's own lateness is recorded apart.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
import select
import selectors
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.etw import capture
from repro.serve import request_status
from repro.serve.columnar import ChunkEncoder
from repro.serve.protocol import (
    FRAME_DATA,
    FRAME_DATA_COLUMNAR,
    FRAME_DETECTIONS,
    FRAME_END,
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_RESULT,
    HEADER_SIZE,
    pack_frame,
    pack_json,
)

#: shard workers of the server under test, and their executor
N_SHARDS = 2
EXECUTOR = "process"
#: events per wire chunk, in both modes: the columnar chunk size of
#: benchmarks/bench_serve.py
CHUNK_EVENTS = 2048
#: paced phase: events per second per connection.  This is an assumed
#: rate, not measured traffic: the repository records no per-host event
#: rate.  On a 2-core machine (2 connections) it offers 2 x 5000 = 10k
#: ev/s, a quarter to a third of the 35-43k ev/s that one connection
#: streaming these hosts back to back sustains in the text wire mode
#: (63-70k ev/s columnar), so the service is loaded but never saturated.
#: A chunk then arrives every 2048 / 5000 = 0.41 s per connection, far
#: apart next to the 0.05 s flush deadline: the paced latency is that of
#: deadline flushes, plus the wait of the windows that do not fill a
#: scoring chunk (``stream_chunk_windows``) for the stream's next chunk.
PACED_EVENTS_PER_S = 5000
#: a stream without its RESULT this long after it opened has failed
STREAM_TIMEOUT_S = 60.0
MODES = ("columnar", "text")

_HERE = Path(__file__).resolve().parent
_HEADER = struct.Struct(">IB")
_EVENT_LINE = re.compile(rb"(?m)^EVENT\|")


@dataclass
class WireHost:
    """A host's stream, pre-framed in both wire modes on the same event
    boundaries."""

    n_events: int
    frames: Dict[str, List[bytes]]
    #: eid of the last event of each chunk
    last_eids: List[int]

    def wire_bytes(self, mode: str) -> int:
        return sum(len(frame) for frame in self.frames[mode])


def prepare_wire_host(host) -> WireHost:
    events = capture.load_capture(host.capture_path).events
    n = len(events)
    bounds = list(range(0, n, CHUNK_EVENTS))
    encoder = ChunkEncoder()
    columnar = [
        pack_frame(FRAME_DATA_COLUMNAR, encoder.encode_events(events[start : start + CHUNK_EVENTS]))
        for start in bounds
    ]
    raw = host.text_path.read_bytes()
    offsets = [match.start() for match in _EVENT_LINE.finditer(raw)]
    if len(offsets) != n:
        raise RuntimeError(
            f"{host.text_path}: {len(offsets)} EVENT lines, capture holds {n} events"
        )
    cuts = [offsets[start] for start in bounds] + [len(raw)]
    text = [pack_frame(FRAME_DATA, raw[cuts[k] : cuts[k + 1]]) for k in range(len(bounds))]
    last_eids = [events[min(start + CHUNK_EVENTS, n) - 1].eid for start in bounds]
    return WireHost(n_events=n, frames={"columnar": columnar, "text": text}, last_eids=last_eids)


# -- server child ----------------------------------------------------------
class ServerProcess:
    def __init__(self, bundle: Path, start_timeout: float = 60.0):
        self.proc = subprocess.Popen(
            [sys.executable, str(_HERE / "serve_child.py"), str(bundle), str(N_SHARDS), EXECUTOR],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], start_timeout)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("detection server did not start")
            self.address = tuple(json.loads(line)["address"])
        except BaseException:
            self.stop()
            raise

    def status(self) -> dict:
        return request_status(self.address, timeout=30.0)

    def stop(self, timeout: float = 30.0) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# -- one stream --------------------------------------------------------------
@dataclass
class StreamRecord:
    host: int
    mode: str
    events: int
    ok: bool
    error: Optional[str] = None
    drain_s: Optional[float] = None
    window_latency_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)


class _Stream:
    def __init__(self, stream_id: str, address, wire: WireHost, host: int, mode: str, paced: bool):
        self.wire, self.host, self.mode, self.paced = wire, host, mode, paced
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setblocking(False)
        self.start = time.perf_counter()
        self.out = bytearray(pack_json(FRAME_HELLO, {"stream_id": stream_id, "app": "leaps"}))
        self.queued = len(self.out)
        self.sent = 0
        self.end_mark: Optional[int] = None
        self.end_sent: Optional[float] = None
        self.next_chunk = 0
        self.inbuf = bytearray()
        self.rows: List[tuple] = []
        self.row_times: List[float] = []
        self.result_time: Optional[float] = None
        self.error: Optional[str] = None
        self.lags: List[float] = []
        if not paced:
            self.enqueue_due(float("inf"))

    def due(self, chunk: int) -> float:
        produced = min((chunk + 1) * CHUNK_EVENTS, self.wire.n_events)
        return self.start + produced / PACED_EVENTS_PER_S

    def next_due(self) -> Optional[float]:
        if not self.paced or self.end_mark is not None:
            return None
        return self.due(self.next_chunk)

    def _queue(self, frame: bytes) -> None:
        self.out += frame
        self.queued += len(frame)

    def enqueue_due(self, now: float) -> None:
        frames = self.wire.frames[self.mode]
        while self.next_chunk < len(frames) and (not self.paced or self.due(self.next_chunk) <= now):
            if self.paced:
                self.lags.append(now - self.due(self.next_chunk))
            self._queue(frames[self.next_chunk])
            self.next_chunk += 1
        if self.next_chunk == len(frames) and self.end_mark is None:
            self._queue(pack_frame(FRAME_END))
            self.end_mark = self.queued

    def flush(self) -> None:
        try:
            n = self.sock.send(self.out)
        except BlockingIOError:
            return
        del self.out[:n]
        self.sent += n
        if self.end_mark is not None and self.end_sent is None and self.sent >= self.end_mark:
            self.end_sent = time.perf_counter()

    def receive(self) -> None:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return
        now = time.perf_counter()
        if not data:
            self.error = "server closed the connection"
            return
        self.inbuf += data
        while len(self.inbuf) >= HEADER_SIZE:
            length, frame_type = _HEADER.unpack_from(self.inbuf)
            if len(self.inbuf) < HEADER_SIZE + length:
                break
            payload = bytes(self.inbuf[HEADER_SIZE : HEADER_SIZE + length])
            del self.inbuf[: HEADER_SIZE + length]
            if frame_type == FRAME_DETECTIONS:
                rows = json.loads(payload)["detections"]
                self.rows.extend(tuple(row) for row in rows)
                self.row_times.extend(itertools.repeat(now, len(rows)))
            elif frame_type == FRAME_RESULT:
                self.result_time = now
            elif frame_type == FRAME_ERROR:
                self.error = json.loads(payload).get("error", "error frame")
            else:
                self.error = f"unexpected frame type {frame_type:#x}"

    @property
    def done(self) -> bool:
        return self.result_time is not None or self.error is not None

    def record(self, expected: List[tuple]) -> StreamRecord:
        ok = self.error is None and self.rows == expected
        record = StreamRecord(
            host=self.host, mode=self.mode, events=self.wire.n_events, ok=ok,
            error=self.error if self.error else (None if ok else "detections differ from the offline scan"),
            lag_s=self.lags,
        )
        if self.error is None:
            if self.paced:
                last_eids = self.wire.last_eids
                record.window_latency_s = [
                    received - self.due(bisect.bisect_left(last_eids, row[2]))
                    for row, received in zip(self.rows, self.row_times)
                ]
            elif self.end_sent is not None:
                record.drain_s = self.result_time - self.end_sent
        return record


# -- a phase -------------------------------------------------------------------
def alternating_schedule(n_hosts: int, connection: int, connections: int) -> Iterator[Tuple[int, str]]:
    """Connection ``c`` streams hosts c, c+C, c+2C, ... round the fleet,
    alternating wire modes; the mode parity flips every lap, so every
    host is streamed in both modes."""
    for j in itertools.count():
        slot = connection + j * connections
        yield slot % n_hosts, MODES[(j + connection + slot // n_hosts) % 2]


def drive(
    address,
    wire_hosts: Sequence[WireHost],
    expected: Sequence[List[tuple]],
    schedules: Sequence[Iterator[Tuple[int, str]]],
    paced: bool,
    stop_at: Optional[float] = None,
    tag: str = "",
) -> Tuple[float, List[StreamRecord]]:
    """Run one phase: each schedule is one connection's stream sequence.
    A connection opens no new stream once ``stop_at`` has passed.
    Returns (phase wall seconds, finished streams)."""
    selector = selectors.DefaultSelector()
    active: Dict[int, _Stream] = {}
    records: List[StreamRecord] = []
    counter = itertools.count()
    began = time.perf_counter()

    def open_next(conn: int) -> None:
        if stop_at is not None and time.perf_counter() >= stop_at:
            return
        task = next(schedules[conn], None)
        if task is None:
            return
        host, mode = task
        stream = _Stream(f"{tag}s{next(counter)}-c{conn}", address, wire_hosts[host], host, mode, paced)
        active[conn] = stream
        selector.register(stream.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)

    try:
        for conn in range(len(schedules)):
            open_next(conn)
        while active:
            now = time.perf_counter()
            timeout = 0.05
            for conn, stream in active.items():
                if paced:
                    stream.enqueue_due(now)
                    due = stream.next_due()
                    if due is not None:
                        timeout = min(timeout, max(0.0, due - now))
                mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if stream.out else 0)
                selector.modify(stream.sock, mask, conn)
            for key, mask in selector.select(timeout):
                stream = active[key.data]
                if mask & selectors.EVENT_WRITE:
                    stream.flush()
                if mask & selectors.EVENT_READ:
                    stream.receive()
            for stream in active.values():
                if not stream.done and time.perf_counter() - stream.start > STREAM_TIMEOUT_S:
                    stream.error = f"no RESULT within {STREAM_TIMEOUT_S:.0f} s"
            for conn in [c for c, s in active.items() if s.done]:
                stream = active.pop(conn)
                selector.unregister(stream.sock)
                stream.sock.close()
                records.append(stream.record(expected[stream.host]))
                open_next(conn)
    finally:
        for stream in active.values():
            selector.unregister(stream.sock)
            stream.sock.close()
        selector.close()
    return time.perf_counter() - began, records


def server_totals(status: dict) -> dict:
    shards = status["shards"]
    totals = {
        key: sum(shard["stages"][key] for shard in shards)
        for key in ("decode_s", "featurize_s", "score_s", "lines_parsed", "events_decoded", "flushed_chunks")
    }
    totals["windows_scored"] = sum(shard["windows_scored"] for shard in shards)
    totals["batches"] = sum(shard["batches"] for shard in shards)
    totals["flush_wait_s"] = sum(
        shard["mean_flush_wait_s"] * shard["stages"]["flushed_chunks"] for shard in shards
    )
    totals["pauses"] = status["counters"]["pauses"]
    return totals


def server_layers(phase: str, before: dict, after: dict, wall: float) -> Dict[str, float]:
    """Per-layer serve metrics of one phase, from STATUS_REPLY deltas."""
    delta = {key: after[key] - before[key] for key in after}
    stage_s = delta["decode_s"] + delta["featurize_s"] + delta["score_s"]
    prefix = f"serve.{phase}."
    return {
        prefix + "decode_s": delta["decode_s"],
        prefix + "featurize_s": delta["featurize_s"],
        prefix + "score_s": delta["score_s"],
        prefix + "lines_parsed": delta["lines_parsed"],
        prefix + "events_decoded": delta["events_decoded"],
        prefix + "unattributed_frac": 1.0 - stage_s / (N_SHARDS * wall),
        prefix + "mean_batch_windows": delta["windows_scored"] / max(delta["batches"], 1),
        prefix + "mean_flush_wait_s": delta["flush_wait_s"] / max(delta["flushed_chunks"], 1),
        prefix + "flushed_chunks": delta["flushed_chunks"],
        prefix + "pauses": delta["pauses"],
    }


@dataclass
class PhaseResult:
    wall_s: float
    records: List[StreamRecord]
    layers: Dict[str, float]

    @property
    def events(self) -> int:
        return sum(record.events for record in self.records if record.ok)


def run_phase(
    server: ServerProcess,
    phase: str,
    wire_hosts: Sequence[WireHost],
    expected: Sequence[List[tuple]],
    schedules: Sequence[Iterator[Tuple[int, str]]],
    stop_at: Optional[float] = None,
) -> PhaseResult:
    before = server_totals(server.status())
    wall, records = drive(
        server.address, wire_hosts, expected, schedules,
        paced=phase == "paced", stop_at=stop_at, tag=phase,
    )
    after = server_totals(server.status())
    return PhaseResult(wall, records, server_layers(phase, before, after, wall))
