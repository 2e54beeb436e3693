"""Columnar wire chunks: the binary fast path must be invisible.

A stream shipped as ``FRAME_DATA_COLUMNAR`` chunks — cut at *any* byte
boundary — must decode into the same interned events, merge into the
same :class:`ParseReport`, and score into the same detections as the
whole-log text path.  Property-tested here with hypothesis-driven
fragmentation across all three parse policies, plus direct validation
of the codec's tamper rejection.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.etw.capture import (
    CHUNK_HEADER_SIZE,
    CaptureChunkDecoder,
    ChunkEncoder,
    ChunkError,
    _capture_records,
)
from repro.etw.events import event_columns
from repro.etw.fastparse import parse_fast
from repro.etw.recovery import ParseReport
from repro.serve.batching import score_chunks
from repro.serve.streams import StreamScanner

from tests.conftest import TINY_LOG
from tests.test_api import make_log
from tests.test_stream_scan import SCAN_SPECS, tiny_detector


@pytest.fixture(scope="module")
def detector():
    return tiny_detector()


def decode_records(decoder, blob):
    """Feed ``blob`` to ``decoder``; the records rebuilt from the
    decoded columns (as a capture's are), and the decoded reports."""
    blocks, reports = decoder.feed(blob)
    return [event for columns in blocks for event in _capture_records(columns)], reports


def encode_blob(events, report=None, chunk_events=8192):
    """Whole stream as one contiguous byte blob of columnar chunks."""
    encoder = ChunkEncoder()
    chunks = encoder.encode_stream(event_columns(events), chunk_events)
    if report is not None:
        chunks.append(encoder.encode_report(report))
    return b"".join(chunks)


def scan_columnar(detector, blob, cuts=()):
    """Feed a chunk blob through a :class:`StreamScanner` in fragments
    cut at ``cuts`` and score it; returns (detection rows, scanner)."""
    scanner = StreamScanner("wire", detector.pipeline, policy="drop")
    bounds = sorted({0, *cuts, len(blob)})
    for start, stop in zip(bounds, bounds[1:]):
        scanner.feed_chunk_bytes(blob[start:stop])
    scanner.finish()
    chunks = scanner.take_ready()
    rows = []
    for chunk, scores in zip(chunks, score_chunks(chunks)):
        for (index, start_eid, end_eid), score in zip(
            chunk.spans.tolist(), scores.tolist()
        ):
            rows.append((index, start_eid, end_eid, score))
    return rows, scanner


def text_reference(detector, lines, policy):
    """The whole-log text path: detections plus its ParseReport."""
    report = ParseReport()
    rows = [
        (d.index, d.start_eid, d.end_eid, d.score)
        for d in detector.scan_stream(lines, policy=policy, report=report)
    ]
    return rows, report


class TestCodecRoundTrip:
    def test_events_and_interning_survive_the_wire(self):
        events = parse_fast(TINY_LOG.splitlines())
        decoder = CaptureChunkDecoder()
        got, reports = decode_records(decoder, encode_blob(events, chunk_events=2))
        assert reports == []
        assert got == list(events)
        for mine, theirs in zip(got, events):
            for frame_a, frame_b in zip(mine.frames, theirs.frames):
                assert frame_a is frame_b  # process-wide intern table
            assert mine.frames is theirs.frames or mine.frames == theirs.frames

    def test_deltas_are_cumulative_across_chunks(self):
        """Repeated events cost a header + columns, never re-shipped
        vocab/frame/walk tables — the whole point of the delta scheme."""
        events = parse_fast(TINY_LOG.splitlines())
        encoder = ChunkEncoder()
        first = encoder.encode_events(events)
        again = encoder.encode_events(events)
        assert len(again) < len(first)
        decoder = CaptureChunkDecoder()
        got, _ = decode_records(decoder, first + again)
        assert got == list(events) + list(events)
        # the repeat decodes onto the walk tuples the first chunk made
        assert all(
            mine.frames is theirs.frames
            for mine, theirs in zip(got, got[len(events):])
        )

    def test_report_chunk_round_trips(self):
        report = ParseReport()
        lines = TINY_LOG.splitlines()
        events = parse_fast(
            lines[:3] + ["@@corrupt@@"] + lines[3:],
            policy="drop",
            report=report,
        )
        blob = encode_blob(events, report)
        _, reports = CaptureChunkDecoder().feed(blob)
        assert len(reports) == 1
        assert reports[0].to_dict() == report.to_dict()


class TestCodecValidation:
    def blob(self):
        return encode_blob(parse_fast(TINY_LOG.splitlines()))

    def test_bad_magic(self):
        with pytest.raises(ChunkError, match="magic"):
            CaptureChunkDecoder().feed(b"XX" + self.blob()[2:])

    def test_bad_version(self):
        blob = bytearray(self.blob())
        blob[2] = 99
        with pytest.raises(ChunkError, match="version 99"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_unknown_kind(self):
        blob = bytearray(self.blob())
        blob[3] = 7
        with pytest.raises(ChunkError, match="kind 7"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_truncated_body_stays_buffered(self):
        blob = self.blob()
        decoder = CaptureChunkDecoder()
        blocks, _ = decoder.feed(blob[:-1])
        assert blocks == []
        assert decoder.buffered_bytes == len(blob) - 1
        blocks, _ = decoder.feed(blob[-1:])
        assert [columns.n_events for columns in blocks] == [
            len(TINY_LOG.splitlines()) // 5
        ]
        assert decoder.buffered_bytes == 0

    def test_id_out_of_range(self):
        blob = bytearray(self.blob())
        # walk_id is the last int64 column; corrupt its final cell
        struct.pack_into("<q", blob, len(blob) - 8, 999)
        with pytest.raises(ChunkError, match="walk_id out of range"):
            CaptureChunkDecoder().feed(bytes(blob))

    def test_trailing_garbage_in_body(self):
        blob = self.blob()
        magic, version, kind, body_len = struct.unpack(
            ">2sBBI", blob[:CHUNK_HEADER_SIZE]
        )
        grown = (
            struct.pack(">2sBBI", magic, version, kind, body_len + 3)
            + blob[CHUNK_HEADER_SIZE:]
            + b"\0\0\0"
        )
        with pytest.raises(ChunkError, match="trailing bytes"):
            CaptureChunkDecoder().feed(grown)


def events_chunk(
    frames=((0, 0, 0, 0x10),),
    walk_flat=(0,),
    walk_lens=(1,),
    process_id=0,
    category_id=0,
    name_id=0,
    walk_id=0,
):
    """One hand-built one-event chunk over one-entry vocabularies,
    with every id settable (valid by default)."""

    def int64s(values):
        return struct.pack(f"<{len(values)}q", *values)

    body = [struct.pack("<I", 1)]
    for value in ("p.exe", "CAT", "name", "mod.dll", "fn"):
        blob = (value + "\n").encode()
        body.append(struct.pack("<II", 1, len(blob)) + blob)
    body.append(struct.pack("<I", len(frames)))
    for field in range(3):
        body.append(int64s([frame[field] for frame in frames]))
    body.append(struct.pack("B", 0) + int64s([frame[3] for frame in frames]))
    body.append(struct.pack("<II", len(walk_lens), len(walk_flat)))
    body.append(int64s(walk_flat) + int64s(walk_lens))
    for value in (5, 100, 7, 8, 1, process_id, category_id, name_id, walk_id):
        body.append(int64s([value]))
    payload = b"".join(body)
    return struct.pack(">2sBBI", b"LC", 1, 1, len(payload)) + payload


class TestVectorizedIdChecks:
    """Every id and length check of the decoder, one tampered field at
    a time, with its message."""

    def test_valid_chunk_decodes(self):
        (columns,), _ = CaptureChunkDecoder().feed(events_chunk())
        (event,) = _capture_records(columns)
        assert (event.eid, event.process, event.category, event.name) == (
            5, "p.exe", "CAT", "name"
        )
        assert [(f.module, f.function, f.address) for f in event.frames] == [
            ("mod.dll", "fn", 0x10)
        ]

    @pytest.mark.parametrize(
        "tamper,message",
        [
            ({"frames": ((0, 1, 0, 0x10),)}, "frame module id out of range"),
            ({"frames": ((0, -1, 0, 0x10),)}, "frame module id out of range"),
            ({"frames": ((0, 0, 1, 0x10),)}, "frame function id out of range"),
            ({"walk_lens": (2,)}, "walk lengths do not cover"),
            ({"walk_lens": (-1, 2)}, "walk lengths do not cover"),
            ({"walk_lens": (2**62,) * 4, "walk_flat": ()}, "walk lengths do not cover"),
            ({"walk_flat": (1,)}, "walk frame id out of range"),
            ({"walk_flat": (-1,)}, "walk frame id out of range"),
            ({"process_id": 1}, r"process_id out of range \[0, 1\)"),
            ({"category_id": -1}, r"category_id out of range \[0, 1\)"),
            ({"name_id": 1}, r"name_id out of range \[0, 1\)"),
            ({"walk_id": 1}, r"walk_id out of range \[0, 1\)"),
        ],
    )
    def test_tampered_id_is_rejected(self, tamper, message):
        with pytest.raises(ChunkError, match=message):
            CaptureChunkDecoder().feed(events_chunk(**tamper))


class TestFragmentationEquivalence:
    """The tentpole property: any byte fragmentation of the columnar
    stream equals the whole-log text path, for every parse policy."""

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_boundaries_match_text_path(self, detector, data):
        policy = data.draw(st.sampled_from(["strict", "warn", "drop"]))
        lines = make_log(SCAN_SPECS)
        if policy != "strict":
            # recovery policies must agree on streams that needed them
            where = data.draw(st.integers(0, len(lines)))
            lines = lines[:where] + ["@@corrupt@@"] + lines[where:]
        want_rows, want_report = text_reference(detector, lines, policy)

        client_report = ParseReport()
        events = parse_fast(lines, policy=policy, report=client_report)
        chunk_events = data.draw(st.integers(1, 9))
        blob = encode_blob(events, client_report, chunk_events=chunk_events)
        cuts = data.draw(
            st.lists(st.integers(0, len(blob)), max_size=12)
        )
        got_rows, scanner = scan_columnar(detector, blob, cuts)
        assert got_rows == want_rows
        assert scanner.report.to_dict() == want_report.to_dict()

    def test_single_byte_fragments(self, detector):
        lines = make_log(SCAN_SPECS[:6])
        want_rows, want_report = text_reference(detector, lines, "drop")
        report = ParseReport()
        events = parse_fast(lines, policy="drop", report=report)
        blob = encode_blob(events, report, chunk_events=3)
        got_rows, scanner = scan_columnar(
            detector, blob, cuts=range(len(blob))
        )
        assert got_rows == want_rows
        assert scanner.report.to_dict() == want_report.to_dict()
