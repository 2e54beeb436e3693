"""Per-stream push pipeline: socket bytes → score-ready window chunks.

One :class:`StreamScanner` holds everything a live stream needs between
payloads: the byte-fragment buffer (lines split across socket reads),
the incremental parser (:class:`repro.etw.fastparse.StreamingParser`)
or the columnar chunk decoder, and the stream's
:class:`~repro.core.pipeline.StreamChunker` (windower tail and open
scoring chunk).  Every parsed or decoded block reaches the chunker as
:class:`~repro.etw.events.EventColumns` — the path ``scan_stream``
takes.  Feeding a scanner the stream's bytes in *any* chunking produces
windows — and, after scoring, detections — bit-identical to
:meth:`LeapsDetector.scan_stream` over the whole log at once:

* byte → line splitting mirrors :func:`repro.etw.parser.read_log_lines`
  (``\\n``/``\\r\\n`` boundaries only; undecodable lines pass through as
  ``bytes`` for ``BAD_ENCODING`` classification);
* parsing *is* the scalar parser (shared
  :class:`~repro.etw.parser.ParseMachine`), bulk-accelerated on clean
  regions;
* chunk boundaries are ``scan_stream``'s, from the same
  :class:`~repro.core.pipeline.StreamChunker` — chunk k covers windows
  ``[k·chunk, (k+1)·chunk)`` of *this stream*, independent of how its
  bytes interleaved with other streams' — which is what lets the
  cross-stream micro-batcher score many streams per kernel call without
  moving a single score bit (DESIGN.md §12).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from repro.core.pipeline import StreamChunker
from repro.etw.events import EventColumns, event_columns
from repro.etw.fastparse import StreamingParser
from repro.etw.parser import LogLine, ParseError
from repro.serve.batching import ScoreChunk
from repro.serve.columnar import CaptureChunkDecoder, ChunkError


class StreamScanner:
    """Push-mode equivalent of one ``scan_stream`` call."""

    def __init__(
        self,
        stream_id: str,
        pipeline,
        policy: Optional[str] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if pipeline.model is None or pipeline.featurizer is None:
            raise ValueError("StreamScanner needs a trained pipeline")
        self.stream_id = stream_id
        self.pipeline = pipeline
        self.policy = policy or pipeline.parser.policy
        self.parser = StreamingParser(policy=self.policy)
        self.report = self.parser.report
        self.chunker = StreamChunker(pipeline)
        self._clock = clock
        self._fragment = b""
        self._ready: List[ScoreChunk] = []
        self._decoder: Optional[CaptureChunkDecoder] = None
        self._mode: Optional[str] = None  # "text" | "columnar" once fed
        self.events_seen = 0
        self.windows_made = 0
        self.bytes_seen = 0
        self.lines_seen = 0
        # bytes → events in both wire modes: line split + parse (text),
        # chunk decode (columnar)
        self.decode_s = 0.0
        self.featurize_s = 0.0  # transform + coalesce + chunk time
        self.finished = False
        self.disconnected = False

    # -- ingest --------------------------------------------------------
    def feed_bytes(self, data: bytes) -> None:
        """Ingest the next raw text payload; lines split across
        payloads are held as a fragment until their newline arrives.

        The whole completed region is decoded in one pass (one
        ``decode`` + one ``split`` instead of per-line calls); the
        result is identical to per-piece decoding because ``\\n`` is a
        single byte no UTF-8 sequence can span, ``\\r\\n`` collapse
        touches exactly the bytes per-piece ``strip_cr`` would, and an
        undecodable region falls back to the per-piece path so only
        genuinely broken lines pass through as ``bytes``."""
        self.bytes_seen += len(data)
        if self._mode == "columnar":
            raise ChunkError("stream already carries columnar data")
        self._mode = "text"
        start = time.perf_counter()
        buffer = self._fragment + data
        cut = buffer.rfind(b"\n")
        if cut < 0:
            self._fragment = buffer
            self.decode_s += time.perf_counter() - start
            return
        region = buffer[: cut + 1]
        self._fragment = buffer[cut + 1 :]
        cr_free = False
        try:
            text = region.decode("utf-8")
        except UnicodeDecodeError:
            pieces = region.split(b"\n")
            pieces.pop()  # region ends with the delimiter
            lines: List[LogLine] = [
                self._decode(piece, strip_cr=True) for piece in pieces
            ]
        else:
            if "\r" in text:
                text = text.replace("\r\n", "\n")
            else:
                # one C-speed scan proved the whole region \r-free, so
                # the bulk parser can skip its per-line gate
                cr_free = True
            lines = text.split("\n")
            lines.pop()
        self.decode_s += time.perf_counter() - start
        self.feed_lines(lines, cr_free=cr_free)

    def feed_chunk_bytes(self, data: bytes) -> None:
        """Ingest columnar chunk bytes (``FRAME_DATA_COLUMNAR``
        payloads) in arbitrary fragments; client-shipped report chunks
        merge into this stream's report so the terminal result matches
        a server-side parse of the same text."""
        self.bytes_seen += len(data)
        if self._mode == "text":
            raise ChunkError("stream already carries text data")
        self._mode = "columnar"
        if self._decoder is None:
            self._decoder = CaptureChunkDecoder()
        start = time.perf_counter()
        blocks, reports = self._decoder.feed(data)
        self.decode_s += time.perf_counter() - start
        for report in reports:
            self.report.merge(report)
        for columns in blocks:
            self.feed_events(columns)

    def feed_lines(self, lines: List[LogLine], cr_free: bool = False) -> None:
        self.lines_seen += len(lines)
        start = time.perf_counter()
        try:
            columns = event_columns(
                self.parser.feed_lines(lines, cr_free=cr_free)
            )
        except ParseError:
            # strict policy: the stream is dead; the report was
            # finalized by the machine before raising
            self.finished = True
            raise
        finally:
            self.decode_s += time.perf_counter() - start
        self.feed_events(columns)

    def finish(self, disconnected: bool = False) -> None:
        """End of stream: flush the fragment, run the parser's real
        end-of-input (truncated-tail) logic, and close the open chunk.

        ``disconnected`` marks a client that vanished without ``END`` —
        its tail cannot be trusted, so ``report.truncated_tail`` is
        forced on (recording a ``TRUNCATED_TAIL`` issue if the depth
        heuristic had not already fired) and the partial result is
        emitted rather than silently dropped.
        """
        if self.finished:
            return
        self.disconnected = disconnected
        if self._decoder is not None and self._decoder.buffered_bytes:
            # a columnar chunk was cut short: fatal on a clean END (the
            # client claims it sent everything), merely truncation on a
            # disconnect (the partial chunk is discarded; the forced
            # truncated-tail below records the loss)
            if not disconnected:
                self.finished = True
                raise ChunkError(
                    f"{self._decoder.buffered_bytes} bytes of an "
                    "incomplete columnar chunk at END"
                )
            self._decoder = CaptureChunkDecoder()
        tail: List[LogLine] = []
        if self._fragment:
            # final unterminated line; a trailing \r is content here,
            # exactly as in a batch read of the whole file
            tail.append(self._decode(self._fragment, strip_cr=False))
            self._fragment = b""
        start = time.perf_counter()
        try:
            events = self.parser.feed_lines(tail) if tail else []
            events.extend(self.parser.finish())
            columns = event_columns(events)
        except ParseError:
            self.finished = True
            raise
        finally:
            self.decode_s += time.perf_counter() - start
        self.feed_events(columns)
        if disconnected and not self.report.truncated_tail:
            from repro.etw.recovery import ParseErrorKind

            self.report.truncated_tail = True
            self.report.record(
                ParseErrorKind.TRUNCATED_TAIL,
                max(self.parser.machine.lineno, 1),
                "stream disconnected before END",
            )
        self._make_ready(self.chunker.close())
        self.finished = True

    # -- scoring handoff -----------------------------------------------
    @property
    def unscored_windows(self) -> int:
        """Windows parsed but not yet handed to a scoring call — the
        backpressure watermark input."""
        return self.chunker.pending + self.ready_window_count

    @property
    def ready_window_count(self) -> int:
        """Windows sitting in completed (score-ready) chunks."""
        return sum(len(chunk.spans) for chunk in self._ready)

    def take_ready(self) -> List[ScoreChunk]:
        """Claim the completed chunks (the micro-batcher's input)."""
        ready, self._ready = self._ready, []
        return ready

    # -- internals -----------------------------------------------------
    @staticmethod
    def _decode(piece: bytes, strip_cr: bool) -> LogLine:
        if strip_cr and piece.endswith(b"\r"):
            piece = piece[:-1]
        try:
            return piece.decode("utf-8")
        except UnicodeDecodeError:
            return piece

    def feed_events(self, columns: EventColumns) -> None:
        """Featurize, window and chunk one block of events: every parsed
        or decoded block, or a ``.leapscap`` capture served by path."""
        start = time.perf_counter()
        self._make_ready(self.chunker.push(columns, self._clock()))
        self.events_seen += columns.n_events
        self.featurize_s += time.perf_counter() - start

    def _make_ready(self, chunks) -> None:
        now = self._clock()
        for spans, matrix, times in chunks:
            self.windows_made += len(spans)
            self._ready.append(
                ScoreChunk(self.stream_id, self.pipeline, spans, matrix, times, now)
            )
