"""Columnar capture format: round-trip fidelity, validation, wiring.

The capture is only useful if it is *invisible*: loading a
``.leapscap`` must reproduce the exact events (and recovery
accounting) that parsing the original text produced — property-tested
here on synthetic logs, the fault-injection corpus, and every golden
log head when the dataset cache is present.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.etw.capture import (
    EVENTS_NAME,
    SCHEMA,
    Capture,
    CaptureError,
    CaptureVersionError,
    ChunkEncoder,
    _column_slice,
    convert_log,
    is_capture_path,
    iter_capture,
    load_capture,
    read_capture,
    write_capture,
)
from repro.etw.events import EventColumns, EventLog, event_columns
from repro.etw.parser import (
    RawLogParser,
    iter_parse,
    read_log_lines,
    serialize_events,
)
from repro.etw.recovery import ParseReport

from tests.codec_oracle import (
    OracleChunkEncoder,
    OracleError,
    write_capture_oracle,
)
from tests.conftest import HAS_GOLDEN_DATA, TINY_LOG
from tests.faults import fault_corpus


def many_chunk_lines(n_events=2 * 8192 + 500):
    """A text log that a capture stores as three chunks, with names and
    stacks that first appear in later chunks."""
    from tests.test_api import APP, NET, PAYLOAD, SYS, make_log

    stacks = (APP + SYS, PAYLOAD + NET, APP + NET)
    return make_log(
        [
            (f"op{index % 7}_{index // 6000}", stacks[index % 3])
            for index in range(n_events)
        ]
    )


_PARSED: dict = {}


def parse_many_chunks():
    """``many_chunk_lines`` parsed once per test run (with its sidecar)."""
    from repro.etw.fastparse import parse_fast

    if "many" not in _PARSED:
        _PARSED["many"] = parse_fast(many_chunk_lines(), columns=True)
    return _PARSED["many"]


def roundtrip(tmp_path, lines, policy="drop", name="log"):
    """text → file → convert_log → load_capture, plus the reference
    scalar parse of the same text under the same policy."""
    src = tmp_path / f"{name}.log"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capture_path = convert_log(src, policy=policy)
    capture = load_capture(capture_path)
    reference_report = ParseReport()
    reference = list(
        iter_parse(read_log_lines(src), policy=policy, report=reference_report)
    )
    return capture, reference, reference_report


class TestRoundTrip:
    def test_clean_log_bit_identical(self, tmp_path):
        lines = TINY_LOG.splitlines()
        capture, reference, reference_report = roundtrip(tmp_path, lines)
        assert list(capture.events) == reference
        assert serialize_events(capture.events) == lines
        assert capture.report.to_dict() == reference_report.to_dict()

    def test_frames_are_interned_objects(self, tmp_path):
        capture, reference, _ = roundtrip(tmp_path, TINY_LOG.splitlines())
        for mine, theirs in zip(capture.events, reference):
            for frame_a, frame_b in zip(mine.frames, theirs.frames):
                assert frame_a is frame_b

    def test_identical_walks_share_one_tuple(self, tmp_path):
        lines = TINY_LOG.splitlines() + [
            line.replace("|2|", "|3|", 1) if line.startswith("EVENT|2")
            else line.replace("STACK|2", "STACK|3")
            for line in TINY_LOG.splitlines()[-5:]
        ]
        capture, reference, _ = roundtrip(tmp_path, lines)
        assert list(capture.events) == reference
        assert capture.events[-1].frames is capture.events[2].frames

    @pytest.mark.parametrize("seed", range(3))
    def test_fault_corpus_round_trips_with_report(self, tmp_path, seed):
        """Logs with recovery-dropped lines: the capture carries both
        the surviving events and the conversion's full ParseReport."""
        for variant in fault_corpus(TINY_LOG.splitlines(), seed=seed):
            if any("\x00" in line for line in variant.lines):
                # NUL is legal field content but unwritable as a text
                # file round-trip oracle on every filesystem; covered
                # by the in-memory fastparse equivalence tests.
                continue
            capture, reference, reference_report = roundtrip(
                tmp_path, variant.lines, name=variant.name
            )
            assert list(capture.events) == reference, variant.name
            assert (
                capture.report.to_dict() == reference_report.to_dict()
            ), variant.name
            assert capture.meta["counts"]["events"] == len(reference)

    def test_empty_log(self, tmp_path):
        capture, reference, _ = roundtrip(tmp_path, [])
        assert list(capture.events) == reference == []

    def test_write_capture_without_report(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        path = write_capture(tmp_path / "x.leapscap", events)
        events_back, report = read_capture(path)
        assert list(events_back) == events
        assert report is None

    def test_iter_capture_yields_in_order(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        path = write_capture(tmp_path / "x.leapscap", events)
        assert list(iter_capture(path)) == events

    def test_loaded_capture_is_event_log_with_report(self, tmp_path):
        capture, _, _ = roundtrip(tmp_path, TINY_LOG.splitlines())
        assert isinstance(capture.events, EventLog)
        assert capture.events.report is capture.report
        assert isinstance(capture, Capture)


@pytest.mark.skipif(not HAS_GOLDEN_DATA, reason="golden cache missing")
class TestGoldenRoundTrip:
    def test_every_golden_head_round_trips(self, tmp_path):
        from tests.test_golden_logs import ALL_LOGS, read_header

        for relpath in ALL_LOGS:
            lines = [raw.rstrip("\n") for raw in read_header(relpath)]
            capture, reference, reference_report = roundtrip(
                tmp_path, lines, name=relpath.replace("/", "_")
            )
            assert list(capture.events) == reference, relpath
            assert (
                capture.report.to_dict() == reference_report.to_dict()
            ), relpath


def test_capture_module_does_not_import_serve():
    """The codec lives below the service: a scan that loads captures
    never pays for importing ``repro.serve``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.etw.capture; "
         "print(sorted(m for m in sys.modules if m.startswith('repro.serve')))"],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


class TestPathAddressing:
    def test_is_capture_path(self, tmp_path):
        assert is_capture_path("x.leapscap")
        assert is_capture_path(tmp_path / "deep" / "y.leapscap")
        assert not is_capture_path("x.log")
        assert not is_capture_path("x.leapscap.bak")

    def test_convert_log_default_destination(self, tmp_path):
        src = tmp_path / "benign.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        assert convert_log(src) == tmp_path / "benign.leapscap"

    def test_parser_passes_event_log_through(self):
        events = list(iter_parse(TINY_LOG.splitlines()))
        conversion_report = ParseReport()
        list(iter_parse(TINY_LOG.splitlines(), report=conversion_report))
        log = EventLog(events, report=conversion_report)
        scan_report = ParseReport()
        parsed = RawLogParser().parse_lines(log, report=scan_report)
        assert parsed == events
        assert scan_report.to_dict() == conversion_report.to_dict()


class TestValidation:
    @pytest.fixture
    def capture_path(self, tmp_path):
        src = tmp_path / "x.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        return convert_log(src)

    def test_missing_files(self, tmp_path):
        with pytest.raises(CaptureError, match="is not a capture"):
            load_capture(tmp_path / "nope.leapscap")

    def test_unknown_schema(self, capture_path):
        meta = json.loads((capture_path / "capture.json").read_text())
        meta["schema"] = "leaps-capture/v99"
        (capture_path / "capture.json").write_text(json.dumps(meta))
        with pytest.raises(CaptureVersionError, match="v99"):
            load_capture(capture_path)
        assert issubclass(CaptureVersionError, CaptureError)

    @staticmethod
    def _tamper(capture_path, edit):
        """Rewrite ``events.lc`` as ``edit(bytearray, n_events)`` returns
        it (the TINY_LOG capture is one chunk)."""
        counts = json.loads((capture_path / "capture.json").read_text())["counts"]
        blob = bytearray((capture_path / EVENTS_NAME).read_bytes())
        blob = edit(blob, counts["events"])
        (capture_path / EVENTS_NAME).write_bytes(bytes(blob))

    def test_id_out_of_range(self, capture_path):
        def edit(blob, n):
            # name_id is the second-to-last int64 column
            struct.pack_into("<q", blob, len(blob) - 2 * n * 8, 999)
            return blob

        self._tamper(capture_path, edit)
        with pytest.raises(CaptureError, match="name_id out of range"):
            load_capture(capture_path)

    def test_broken_offsets(self, capture_path):
        def edit(blob, n):
            # the last walk length sits just before the event columns
            at = len(blob) - 9 * n * 8 - 8
            (length,) = struct.unpack_from("<q", blob, at)
            struct.pack_into("<q", blob, at, length + 5)
            return blob

        self._tamper(capture_path, edit)
        with pytest.raises(CaptureError, match="walk lengths do not cover"):
            load_capture(capture_path)

    def test_missing_array(self, capture_path):
        def edit(blob, n):
            # drop the walk_id column and shrink the chunk to match
            magic, version, kind, body_len = struct.unpack_from(">2sBBI", blob)
            struct.pack_into(">2sBBI", blob, 0, magic, version, kind, body_len - n * 8)
            return blob[: -n * 8]

        self._tamper(capture_path, edit)
        with pytest.raises(CaptureError, match="truncated reading walk_id"):
            load_capture(capture_path)

    def test_delimiter_in_vocab(self, capture_path):
        def edit(blob, n):
            # header, n_events, the process delta's two counts, then its blob
            at = 8 + 4 + 8
            assert blob[at : at + 7] == b"app.exe"
            blob[at + 3] = ord("|")
            return blob

        self._tamper(capture_path, edit)
        with pytest.raises(CaptureError, match="delimiter"):
            load_capture(capture_path)

    def test_v1_directory_is_a_version_error(self, capture_path):
        meta = json.loads((capture_path / "capture.json").read_text())
        meta["schema"] = "leaps-capture/v1"
        (capture_path / "capture.json").write_text(json.dumps(meta))
        (capture_path / EVENTS_NAME).rename(capture_path / "arrays.npz")
        with pytest.raises(CaptureVersionError, match="v1"):
            load_capture(capture_path)

    def test_missing_events_file(self, capture_path):
        (capture_path / EVENTS_NAME).unlink()
        with pytest.raises(CaptureError, match="is not a capture"):
            load_capture(capture_path)

    def test_write_rejects_out_of_range_ints(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        huge = events[0].with_frames(events[0].frames)
        huge.timestamp = 2**70
        with pytest.raises(CaptureError, match="int64 range"):
            write_capture(tmp_path / "x.leapscap", [huge])

    def test_schema_constant(self):
        assert SCHEMA == "leaps-capture/v2"


class TestWriterEquivalence:
    """``write_capture`` is byte-identical to the per-record oracle
    (tests/codec_oracle.py) on every input shape."""

    @staticmethod
    def assert_captures_identical(a, b):
        """Byte-compare two capture directories, file by file."""
        assert sorted(p.name for p in a.iterdir()) == sorted(
            p.name for p in b.iterdir()
        )
        for member in a.iterdir():
            assert member.read_bytes() == (b / member.name).read_bytes(), member

    def write_both(self, tmp_path, events, **kwargs):
        oracle = write_capture_oracle(
            tmp_path / "oracle.leapscap", events, **kwargs
        )
        vec = write_capture(tmp_path / "vec.leapscap", events, **kwargs)
        self.assert_captures_identical(oracle, vec)
        return vec

    def test_columns_sidecar_path(self, tmp_path):
        from repro.etw.fastparse import parse_fast

        report = ParseReport()
        events = parse_fast(
            TINY_LOG.splitlines(), policy="drop", report=report, columns=True
        )
        assert events.columns is not None  # the fast assembly path
        vec = self.write_both(
            tmp_path, events, report=report, source={"path": "x.log"}
        )
        assert list(load_capture(vec).events) == list(events)

    def test_generic_event_list_path(self, tmp_path):
        events = RawLogParser().parse_lines(TINY_LOG.splitlines())
        self.write_both(tmp_path, events)

    def test_empty_events(self, tmp_path):
        self.write_both(tmp_path, [])

    def test_uint64_addresses(self, tmp_path):
        lines = TINY_LOG.splitlines()
        lines[1] = "STACK|0|0|app.exe|WinMain|0xfffffffffffff012"
        events = RawLogParser().parse_lines(lines)
        vec = self.write_both(tmp_path, events)
        loaded = list(load_capture(vec).events)
        assert loaded[0].frames[0].address == 0xFFFFFFFFFFFFF012

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fault_corpus(self, tmp_path, seed):
        from repro.etw.fastparse import parse_fast

        base = TINY_LOG.splitlines() * 3
        for variant in fault_corpus(base, seed=seed):
            report = ParseReport()
            events = parse_fast(
                variant.lines, policy="drop", report=report, columns=True
            )
            scratch = tmp_path / variant.name
            scratch.mkdir()
            self.write_both(scratch, events, report=report)

    def test_out_of_range_error_parity(self, tmp_path):
        events = list(iter_parse(TINY_LOG.splitlines()))
        huge = events[0].with_frames(events[0].frames)
        huge.timestamp = 2**70
        for writer, error in (
            (write_capture_oracle, OracleError),
            (write_capture, CaptureError),
        ):
            with pytest.raises(error, match="int64 range"):
                writer(tmp_path / "x.leapscap", [huge])

    def test_loaded_capture_rewrites_identically(self, tmp_path):
        """A loaded capture's columns are a writer's input too: writing
        them back reproduces the file, with or without built records."""
        events = parse_many_chunks()
        first = write_capture(tmp_path / "a.leapscap", events)
        loaded = load_capture(first).events
        again = write_capture(tmp_path / "b.leapscap", loaded)
        self.assert_captures_identical(first, again)
        list(loaded)  # build the records; the columns stay the sidecar
        assert loaded.columns is not None
        third = write_capture(tmp_path / "c.leapscap", loaded)
        self.assert_captures_identical(first, third)


    @pytest.mark.skipif(not HAS_GOLDEN_DATA, reason="golden cache missing")
    def test_golden_heads(self, tmp_path):
        from repro.etw.fastparse import parse_fast

        from tests.test_golden_logs import ALL_LOGS, read_header

        for relpath in ALL_LOGS:
            lines = [raw.rstrip("\n") for raw in read_header(relpath)]
            report = ParseReport()
            events = parse_fast(
                lines, policy="drop", report=report, columns=True
            )
            scratch = tmp_path / relpath.replace("/", "_")
            scratch.mkdir()
            self.write_both(scratch, events, report=report)


def codec_inputs():
    """Name → parsed events for the encoder-vs-oracle property: text,
    the fault corpus, uint64 addresses, the empty log, and a log of
    three chunks."""
    from repro.etw.fastparse import parse_fast

    from tests.test_api import make_log
    from tests.test_stream_scan import SCAN_SPECS

    if "inputs" not in _PARSED:
        text = TINY_LOG.splitlines() * 3 + make_log(SCAN_SPECS, start_eid=3)
        inputs = {"text": parse_fast(text, columns=True)}
        for variant in fault_corpus(TINY_LOG.splitlines() * 3, seed=0):
            inputs[f"fault-{variant.name}"] = parse_fast(
                variant.lines, policy="drop", columns=True
            )
        lines = TINY_LOG.splitlines()
        lines[1] = "STACK|0|0|app.exe|WinMain|0xfffffffffffff012"
        inputs["uint64"] = RawLogParser().parse_lines(lines)
        inputs["empty"] = []
        inputs["three-chunks"] = parse_many_chunks()
        _PARSED["inputs"] = inputs
    return _PARSED["inputs"]


def shuffled_tables(columns, seed):
    """The same events over vocabularies and a walk table listed in a
    random order: ids no longer appear in first-appearance order."""
    rng = np.random.default_rng(seed)
    out = EventColumns()
    out.n_events = columns.n_events
    for name in ("eid", "timestamp", "pid", "tid", "opcode"):
        setattr(out, name, getattr(columns, name))
    for ids, table in (
        ("process_id", "process_vocab"),
        ("category_id", "category_vocab"),
        ("name_id", "name_vocab"),
        ("walk_id", "walks"),
    ):
        values = getattr(columns, table)
        order = rng.permutation(len(values))
        position = np.empty(len(values), dtype=np.int64)
        position[order] = np.arange(len(values))
        setattr(out, table, [values[index] for index in order])
        setattr(out, ids, position[np.asarray(getattr(columns, ids), dtype=np.int64)])
    return out


class TestEncoderMatchesOracle:
    """``encode_columns`` writes the per-record oracle's bytes over any
    split of a log into chunks on one encoder."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_split_points(self, data):
        inputs = codec_inputs()
        name = data.draw(st.sampled_from(sorted(inputs)))
        events = inputs[name]
        columns = event_columns(events)
        if data.draw(st.booleans()):
            columns = shuffled_tables(columns, data.draw(st.integers(0, 2**32 - 1)))
        cuts = data.draw(st.lists(st.integers(0, len(events)), max_size=6))
        bounds = [0, *sorted(cuts), len(events)]
        encoder, oracle = ChunkEncoder(), OracleChunkEncoder()
        for start, stop in zip(bounds, bounds[1:]):
            assert encoder.encode_columns(
                _column_slice(columns, start, stop)
            ) == oracle.encode_events(events[start:stop]), (name, start, stop)

    def test_three_chunk_capture(self, tmp_path):
        events = parse_many_chunks()
        path = write_capture(tmp_path / "x.leapscap", events)
        oracle = write_capture_oracle(tmp_path / "o.leapscap", events)
        for name in ("capture.json", EVENTS_NAME):
            assert (path / name).read_bytes() == (oracle / name).read_bytes()
        blob = (path / EVENTS_NAME).read_bytes()
        assert chunk_offsets(blob)[1:] != [] and len(chunk_offsets(blob)) == 3
        capture = load_capture(path)
        assert capture.columns.n_events == len(events)
        assert list(capture.events) == list(events)

    def test_generated_capture_matches_oracle(self, tmp_path):
        """The generation fast path's numpy columns, three chunks."""
        from repro.datasets.generation import generate_dataset

        generate_dataset(
            "vim_reverse_tcp", tmp_path, seed=3, train_events=200,
            scan_events=2 * 8192 + 100, format="capture",
        )
        path = tmp_path / "malicious.leapscap"
        capture = load_capture(path)
        oracle = write_capture_oracle(
            tmp_path / "o.leapscap", list(capture.events),
            source=capture.meta["source"],
        )
        assert len(chunk_offsets((path / EVENTS_NAME).read_bytes())) == 3
        for name in ("capture.json", EVENTS_NAME):
            assert (path / name).read_bytes() == (oracle / name).read_bytes()


def chunk_offsets(blob):
    """Start offset of every chunk in a chunk stream."""
    offsets, at = [], 0
    while at < len(blob):
        offsets.append(at)
        at += 8 + struct.unpack_from(">I", blob, at + 4)[0]
    return offsets


def count_field_bytes(blob):
    """Offsets of the header bytes and of every count field byte of a
    one-chunk events stream (plus the frame address dtype flag)."""
    fields = [(0, 8), (8, 4)]  # header, n_events
    at = 12
    for _ in range(5):  # vocabulary deltas
        _, blob_len = struct.unpack_from("<II", blob, at)
        fields.append((at, 8))
        at += 8 + blob_len
    (n_frames,) = struct.unpack_from("<I", blob, at)
    fields.append((at, 4))
    at += 4 + 3 * 8 * n_frames
    fields.append((at, 1))  # address dtype flag
    at += 1 + 8 * n_frames
    fields.append((at, 8))  # walk count, flat length
    return [offset + k for offset, size in fields for k in range(size)]


class TestHostileCapture:
    """A damaged ``events.lc`` either loads (and its records build) or
    raises CaptureError — never any other exception."""

    @pytest.fixture
    def capture_path(self, tmp_path):
        src = tmp_path / "x.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        return convert_log(src)

    @staticmethod
    def loads(path) -> bool:
        try:
            capture = load_capture(path)
        except CaptureError:
            return False
        assert len(list(capture.events)) == capture.columns.n_events
        return True

    def test_truncated_at_every_offset(self, capture_path):
        blob = (capture_path / EVENTS_NAME).read_bytes()
        outcomes = []
        for cut in range(len(blob)):
            (capture_path / EVENTS_NAME).write_bytes(blob[:cut])
            outcomes.append(self.loads(capture_path))
        # only the empty file (an empty capture) is whole
        assert outcomes == [True] + [False] * (len(blob) - 1)

    def test_truncated_around_chunk_boundaries(self, tmp_path):
        path = write_capture(tmp_path / "x.leapscap", parse_many_chunks())
        blob = (path / EVENTS_NAME).read_bytes()
        for boundary in chunk_offsets(blob)[1:]:
            for cut, whole in ((boundary - 1, False), (boundary, True),
                               (boundary + 1, False)):
                (path / EVENTS_NAME).write_bytes(blob[:cut])
                assert self.loads(path) is whole, cut

    def test_flipped_header_and_count_bytes(self, capture_path):
        blob = (capture_path / EVENTS_NAME).read_bytes()
        loaded = []
        for offset in count_field_bytes(blob):
            for mask in (0x01, 0x80, 0xFF):
                damaged = bytearray(blob)
                damaged[offset] ^= mask
                (capture_path / EVENTS_NAME).write_bytes(bytes(damaged))
                if self.loads(capture_path):
                    loaded.append((offset, mask))
        # only reading the small addresses as uint64 leaves a valid chunk
        flag = count_field_bytes(blob)[-9]
        assert loaded == [(flag, 0x01)]

    def test_report_chunk_is_rejected(self, capture_path):
        blob = (capture_path / EVENTS_NAME).read_bytes()
        report = ChunkEncoder().encode_report(ParseReport())
        (capture_path / EVENTS_NAME).write_bytes(blob + report)
        with pytest.raises(CaptureError, match="only events chunks"):
            load_capture(capture_path)

    @pytest.mark.parametrize(
        "garbage", [b"\0", b"LC", b"LC\x01\x01", b"LC\x01\x01\0\0\0\x10", b"\xff" * 64]
    )
    def test_trailing_garbage_is_rejected(self, capture_path, garbage):
        blob = (capture_path / EVENTS_NAME).read_bytes()
        (capture_path / EVENTS_NAME).write_bytes(blob + garbage)
        with pytest.raises(CaptureError):
            load_capture(capture_path)

    @pytest.mark.parametrize(
        "meta", ["[]", '{"schema": "leaps-capture/v2", "parse_report": 7}',
                 '{"schema": "leaps-capture/v2", "parse_report": {}}']
    )
    def test_hostile_metadata_is_rejected(self, capture_path, meta):
        (capture_path / "capture.json").write_text(meta)
        with pytest.raises(CaptureError):
            load_capture(capture_path)


class TestCaptureCli:
    """``python -m repro.etw.capture`` convert/info round trip."""

    def test_convert_then_info(self, tmp_path, capsys):
        from repro.etw.capture import main

        src = tmp_path / "host.log"
        src.write_text(TINY_LOG, encoding="utf-8")
        assert main(["convert", str(src)]) == 0
        out = capsys.readouterr().out
        capture_path = tmp_path / "host.leapscap"
        assert str(capture_path) in out
        assert "events=3" in out
        assert main(["info", str(capture_path)]) == 0
        out = capsys.readouterr().out
        assert f"schema {SCHEMA}" in out
        assert "parse report: 15 lines, 3 events" in out

    def test_convert_explicit_destination_and_policy(self, tmp_path, capsys):
        from repro.etw.capture import main

        src = tmp_path / "host.log"
        src.write_text(
            TINY_LOG + "@@corrupt@@\n" + TINY_LOG, encoding="utf-8"
        )
        dst = tmp_path / "out.leapscap"
        assert main(["convert", str(src), str(dst), "--policy", "drop"]) == 0
        out = capsys.readouterr().out
        assert "events=6" in out
        assert "dropped=" in out
        capture = load_capture(dst)
        assert capture.report.error_lines == 1

    def test_missing_log_fails_cleanly(self, tmp_path, capsys):
        from repro.etw.capture import main

        assert main(["convert", str(tmp_path / "nope.log")]) == 1
        assert "error:" in capsys.readouterr().out

    def test_info_on_non_capture_fails_cleanly(self, tmp_path, capsys):
        from repro.etw.capture import main

        assert main(["info", str(tmp_path / "nope.leapscap")]) == 1
        assert "error:" in capsys.readouterr().out