"""Scan fast path: vectorized featurization and the parallel fleet scan.

The fast path must be invisible in the results: ``transform`` equals
the per-record oracle rows (:func:`oracle_rows`) bit for bit, ``scan_log`` equals the
streaming scan, ``scan_logs`` returns the same detections for any
worker count or executor flavor, and the column scorer equals the
per-record scorer for every window geometry and input form.
"""

import functools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import LeapsConfig, LeapsDetector, ScanResult
from repro.core.detector import WindowDetection, detections
from repro.core.pipeline import NotTrainedError
from repro.etw.capture import convert_log, load_capture, write_capture
from repro.etw.events import EventColumns, EventLog
from repro.etw.fastparse import parse_fast
from repro.etw.parser import RawLogParser, read_log_lines
from repro.etw.recovery import ParseReport
from repro.preprocessing.features import UNKNOWN_ID, EventFeaturizer, distinct_keys

from tests.test_api import APP, NET, PAYLOAD, SYS, make_log, tiny_training_logs
from tests.test_golden_logs import ALL_LOGS, read_header
from tests.test_stream_scan import SCAN_SPECS, tiny_detector


def oracle_rows(featurizer, events):
    """Per-record feature rows resolved from ``attributes()`` plus
    vocabulary lookups — no product memo involved."""
    rows = [
        (
            featurizer.etype_vocab.lookup(etype),
            featurizer.app_vocab.lookup(app),
            featurizer.system_vocab.lookup(system),
        )
        for etype, app, system in map(featurizer.attributes, events)
    ]
    return np.array(rows, dtype=float).reshape(-1, 3)


class TestVectorizedTransform:
    def fitted(self, events):
        return EventFeaturizer().fit(events)

    def test_matches_stacked_transform_event_rows(self):
        """``transform`` equals the stacked per-record oracle rows."""
        events = RawLogParser().parse_lines(make_log(SCAN_SPECS))
        featurizer = self.fitted(events)
        batch = featurizer.transform(events)
        rows = oracle_rows(featurizer, events)
        assert batch.shape == (len(events), 3)
        assert np.array_equal(batch, rows)

    def test_unseen_attributes_hit_unknown_id(self):
        featurizer = self.fitted(
            RawLogParser().parse_lines(make_log([("read", APP + SYS)] * 4))
        )
        novel = RawLogParser().parse_lines(make_log([("beacon", PAYLOAD + NET)] * 2))
        batch = featurizer.transform(novel)
        rows = oracle_rows(featurizer, novel)
        assert np.array_equal(batch, rows)
        assert (batch[:, 1] == 0).all()  # app signature never trained

    def test_empty_transform_shape(self):
        featurizer = self.fitted(
            RawLogParser().parse_lines(make_log([("read", APP + SYS)] * 4))
        )
        assert featurizer.transform([]).shape == (0, 3)

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            EventFeaturizer().transform([])


@pytest.mark.parametrize("relpath", ALL_LOGS)
def test_transform_matches_event_rows_on_golden_heads(relpath):
    """Property over every golden log head: the record and column
    transforms and the per-record oracle produce bit-identical rows."""
    events = RawLogParser().parse_lines(read_header(relpath))
    assert events
    featurizer = EventFeaturizer().fit(events)
    batch = featurizer.transform(events)
    rows = oracle_rows(featurizer, events)
    assert np.array_equal(batch, rows), relpath
    columns = featurizer.transform_columns(EventColumns.from_records(events))
    assert np.array_equal(columns, rows), relpath


class TestScanLogFastPath:
    def test_scan_log_equals_stream_bit_identically(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        assert detector.scan_log(lines) == list(detector.scan_stream(lines))

    def test_scan_log_accepts_iterator(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        assert detector.scan_log(iter(lines)) == detector.scan_log(lines)

    def test_score_events_chunking_is_invisible(self):
        """Chunked scoring (tiny chunks) and one-chunk scoring agree to
        float64 noise, and identical chunk sizes are bit-identical."""
        small = tiny_detector(stream_chunk_windows=3)
        big = tiny_detector(stream_chunk_windows=1 << 20)
        events = RawLogParser().parse_lines(make_log(SCAN_SPECS))
        _, chunked = small.pipeline.score_events(events)
        _, whole = big.pipeline.score_events(events)
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-12)


class TestFleetScan:
    @pytest.fixture(scope="class")
    def detector(self):
        return tiny_detector()

    @pytest.fixture(scope="class")
    def fleet(self, tmp_path_factory):
        """Three distinct on-disk logs: benign, mixed, payload-only."""
        root = tmp_path_factory.mktemp("fleet")
        logs = {
            "clean.log": make_log([("read", APP + SYS)] * 8),
            # blocked layout: some windows are purely benign, some not
            "mixed.log": make_log(
                [("read", APP + SYS)] * 4
                + [("beacon", PAYLOAD + NET)] * 4
                + [("read", APP + SYS)] * 4
            ),
            "owned.log": make_log([("beacon", PAYLOAD + NET)] * 8),
        }
        paths = []
        for name, lines in logs.items():
            path = root / name
            path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        return paths

    def test_serial_matches_scan_log(self, detector, fleet):
        results = detector.scan_logs(fleet)
        assert [r.source for r in results] == fleet
        for result, path in zip(results, fleet):
            with open(path) as handle:
                assert result.detections == detector.scan_log(handle)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_parallel_equals_serial(self, detector, fleet, executor, n_jobs):
        serial = detector.scan_logs(fleet)
        parallel = detector.scan_logs(fleet, n_jobs=n_jobs, executor=executor)
        assert [r.source for r in parallel] == [r.source for r in serial]
        assert [r.detections for r in parallel] == [r.detections for r in serial]

    def test_accepts_iterables_and_paths_mixed(self, detector, fleet):
        lines = make_log(SCAN_SPECS)
        results = detector.scan_logs([lines, fleet[0], iter(lines)])
        assert [r.source for r in results] == [None, fleet[0], None]
        assert results[0].detections == results[2].detections == detector.scan_log(lines)

    def test_flagged_property(self, detector, fleet):
        clean, mixed, owned = detector.scan_logs(fleet)
        assert clean.flagged == 0
        assert owned.flagged == len(owned.detections) > 0
        assert 0 < mixed.flagged < len(mixed.detections)

    def test_with_reports_accounts_every_line(self, detector, tmp_path):
        lines = make_log(SCAN_SPECS)
        corrupt = lines[:9] + ["@@corrupt@@"] + lines[9:]
        path = tmp_path / "corrupt.log"
        path.write_text("\n".join(corrupt) + "\n")
        (result,) = detector.scan_logs(
            [str(path)], policy="drop", with_reports=True
        )
        assert result.report is not None
        assert result.report.n_issues == 1
        assert result.report.lines_accounted == result.report.total_lines
        assert result.detections

    def test_reports_cross_process_boundary(self, detector, tmp_path):
        lines = make_log(SCAN_SPECS)
        path = tmp_path / "a.log"
        path.write_text("\n".join(lines) + "\n")
        results = detector.scan_logs(
            [str(path), str(path)], n_jobs=2, executor="process",
            with_reports=True,
        )
        for result in results:
            assert result.report.events_yielded == len(SCAN_SPECS)

    def test_without_reports_report_is_none(self, detector, fleet):
        assert all(r.report is None for r in detector.scan_logs(fleet))

    def test_empty_fleet(self, detector):
        assert detector.scan_logs([]) == []
        assert detector.scan_logs([], n_jobs=4) == []

    def test_rejects_bad_arguments(self, detector, fleet):
        with pytest.raises(ValueError, match="n_jobs"):
            detector.scan_logs(fleet, n_jobs=0)
        with pytest.raises(ValueError, match="executor"):
            detector.scan_logs(fleet, executor="fiber")

    def test_untrained_raises_before_reading_logs(self):
        with pytest.raises(NotTrainedError):
            LeapsDetector().scan_logs(["/nonexistent/never-touched.log"])

    def test_scan_result_is_importable_dataclass(self):
        result = ScanResult(source=None)
        assert result.detections == []
        assert result.flagged == 0


@pytest.mark.e2e
class TestGoldenFleetScan:
    def test_parallel_fleet_scan_matches_serial_on_golden_logs(self, e2e_dataset):
        from repro import LeapsConfig

        config = LeapsConfig(
            lam_grid=(1.0,), sigma2_grid=(30.0,), cv_folds=0,
            max_train_windows=400, seed=0,
        )
        detector = LeapsDetector(config)
        detector.train_from_logs(
            (e2e_dataset / "benign.log").read_text().splitlines(),
            (e2e_dataset / "mixed.log").read_text().splitlines(),
        )
        paths = [
            str(e2e_dataset / log)
            for log in ("benign.log", "mixed.log", "malicious.log")
        ]
        serial = detector.scan_logs(paths)
        thread = detector.scan_logs(paths, n_jobs=2, executor="thread")
        process = detector.scan_logs(paths, n_jobs=2, executor="process")
        assert [r.detections for r in serial] == [r.detections for r in thread]
        assert [r.detections for r in serial] == [r.detections for r in process]
        assert all(r.detections for r in serial)


class TestCaptureFleetScan:
    """``.leapscap`` inputs through the fleet scan: in-memory capture
    EventLogs reroute to the process pool as path references (the
    worker re-reads the columnar file instead of unpickling events)."""

    @pytest.fixture(scope="class")
    def detector(self):
        return tiny_detector()

    @pytest.fixture(scope="class")
    def capture_fixture(self, tmp_path_factory):
        from repro.etw.capture import load_capture, write_capture

        lines = make_log(SCAN_SPECS)
        events = RawLogParser().parse_lines(lines)
        path = write_capture(
            tmp_path_factory.mktemp("caps") / "fleet.leapscap", events
        )
        return lines, str(path), load_capture(path)

    def test_loaded_capture_carries_source(self, capture_fixture):
        _, path, capture = capture_fixture
        assert capture.events.source == path

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_capture_eventlog_parallel_equals_serial(
        self, detector, capture_fixture, executor
    ):
        lines, path, capture = capture_fixture
        want = detector.scan_log(lines)
        results = detector.scan_logs(
            [capture.events, path, lines],
            n_jobs=2,
            executor=executor,
        )
        assert [r.detections for r in results] == [want, want, want]
        # the rerouted EventLog keeps its capture provenance
        assert results[0].source == path
        assert results[1].source == path
        assert results[2].source is None

    def test_capture_ref_detects_changed_capture(
        self, detector, capture_fixture
    ):
        from repro.core.detector import _CaptureRef

        _, path, capture = capture_fixture
        stale = _CaptureRef(path, n_events=len(capture.events) + 1)
        with pytest.raises(RuntimeError, match="changed during the scan"):
            detector._scan_job(None, stale, None, False)

    def test_eventlog_pickles_with_report_and_source(self, capture_fixture):
        import pickle

        _, path, capture = capture_fixture
        clone = pickle.loads(pickle.dumps(capture.events))
        assert list(clone) == list(capture.events)
        assert clone.source == path
        assert (clone.report is None) == (capture.events.report is None)
        if clone.report is not None:
            assert clone.report.to_dict() == capture.events.report.to_dict()


# -- the column scorer ---------------------------------------------------
#
# Every offline scan goes through ``LeapsPipeline.score_columns``.  The
# oracle below is the per-record scorer: one :func:`oracle_rows` row per
# record, one concatenated vector per window start, and scoring batches
# of ``stream_chunk_windows`` windows.

#: an app signature the tiny training logs never saw
UNSEEN = [("app.exe", "WinMain"), ("dropper.exe", "stage")]
KINDS = {
    "read": ("read", APP + SYS),
    "beacon": ("beacon", PAYLOAD + NET),
    "novel": ("beacon", UNSEEN + NET),
}


@functools.lru_cache(maxsize=None)
def column_detector(window, stride, chunk=256, opcodes=(1,)):
    """A tiny trained detector; ``opcodes`` cycle through the training
    events so the event-type vocabulary holds each of them."""
    config = LeapsConfig(
        window_events=window,
        stride=stride,
        lam_grid=(10.0,),
        sigma2_grid=(5.0,),
        cv_folds=0,
        max_train_windows=0,
        seed=1,
        stream_chunk_windows=chunk,
    )
    detector = LeapsDetector(config)
    benign, mixed = tiny_training_logs()
    detector.train_from_logs(
        with_opcodes(benign, opcodes), with_opcodes(mixed, opcodes)
    )
    return detector


def with_opcodes(lines, opcodes):
    """Raw-log lines with the i-th event's opcode set to
    ``opcodes[i % len(opcodes)]``."""
    out, index = [], -1
    for line in lines:
        if line.startswith("EVENT|"):
            index += 1
            fields = line.split("|")
            fields[7] = str(opcodes[index % len(opcodes)])
            line = "|".join(fields)
        out.append(line)
    return out


def record_oracle(detector, events):
    pipeline = detector.pipeline
    config = detector.config
    window = config.window_events
    rows = oracle_rows(pipeline.featurizer, events)
    starts = range(0, len(events) - window + 1, config.stride)
    vectors = [rows[start : start + window].reshape(-1) for start in starts]
    chunk = config.stream_chunk_windows
    out = []
    for low in range(0, len(vectors), chunk):
        matrix = pipeline.standardizer.transform(np.stack(vectors[low : low + chunk]))
        scores = pipeline.model.decision_function(matrix)
        for start, score in zip(starts[low : low + chunk], scores):
            out.append(
                WindowDetection(
                    index=start,
                    start_eid=events[start].eid,
                    end_eid=events[start + window - 1].eid,
                    score=float(score),
                    malicious=bool(score < 0.0),
                )
            )
    return out


@settings(max_examples=40, deadline=None)
@given(
    window=st.integers(1, 5),
    stride=st.integers(1, 7),
    kinds=st.lists(st.sampled_from(sorted(KINDS)), max_size=24),
    chunk=st.sampled_from([2, 256]),
)
@example(window=3, stride=1, kinds=[], chunk=256)  # n = 0
@example(window=4, stride=2, kinds=["read"] * 3, chunk=256)  # n < W
@example(window=4, stride=1, kinds=["read", "beacon", "novel", "read"], chunk=2)
@example(window=2, stride=5, kinds=["beacon", "read", "novel"] * 5, chunk=2)
def test_column_scorer_matches_record_oracle(window, stride, kinds, chunk):
    """Text (parse sidecar), record-list (adapter) and capture inputs
    all score bit-identically to the per-record oracle."""
    detector = column_detector(window, stride, chunk)
    lines = make_log([KINDS[kind] for kind in kinds], start_eid=7)
    events = RawLogParser().parse_lines(lines)
    want = record_oracle(detector, events)
    assert detector.scan_log(lines) == want
    assert detections(*detector.pipeline.score_events(events)) == want
    with tempfile.TemporaryDirectory() as scratch:
        path = write_capture(Path(scratch) / "host.leapscap", events)
        (result,) = detector.scan_logs([str(path)])
    assert result.detections == want


class TestColumnScorer:
    def test_capture_text_and_eventlog_score_alike(self, tmp_path):
        detector = column_detector(3, 2)
        lines = make_log(
            [KINDS[kind] for kind in ["read", "beacon", "novel", "read"] * 6]
        )
        text = tmp_path / "host.log"
        text.write_text("\n".join(lines) + "\n")
        capture = convert_log(text)
        events = RawLogParser().parse_lines(lines)
        results = detector.scan_logs(
            [
                str(text),
                str(capture),
                lines,
                EventLog(events),
                load_capture(capture).events,
            ]
        )
        want = record_oracle(detector, events)
        assert want
        assert [result.detections for result in results] == [want] * 5

    def test_unseen_app_signatures_resolve_to_unknown_id(self):
        detector = column_detector(2, 1)
        featurizer = detector.pipeline.featurizer
        events = parse_fast(
            make_log([KINDS["novel"]] * 3 + [KINDS["read"]] * 2), columns=True
        )
        features = featurizer.transform_columns(events.columns)
        assert (features[:3, 1] == UNKNOWN_ID).all()
        assert (features[3:, 1] != UNKNOWN_ID).all()
        rows = oracle_rows(featurizer, events)
        assert np.array_equal(features, rows)

    def test_scalar_fallback_parse_scores_alike(self):
        detector = column_detector(2, 1)
        lines = make_log([KINDS[kind] for kind in ["read", "beacon"] * 6])
        corrupt = lines[:5] + ["@@corrupt@@"] + lines[5:]
        parsed = parse_fast(corrupt, policy="drop", columns=True)
        assert getattr(parsed, "columns", None) is None  # no sidecar
        (result,) = detector.scan_logs([corrupt], policy="drop")
        assert result.detections == record_oracle(detector, parsed)
        assert result.detections == list(
            detector.scan_stream(corrupt, policy="drop")
        )

    @pytest.mark.parametrize("dirty", [False, True])
    def test_text_path_reads_like_read_log_lines(self, tmp_path, dirty):
        """A text path is parsed from its bytes: CRLF endings, a Unicode
        line boundary inside a field and an undecodable line read
        exactly as through ``read_log_lines``."""
        detector = column_detector(2, 1)
        lines = make_log([KINDS[kind] for kind in ["read", "beacon"] * 6])
        text = "\r\n".join(lines[:10]) + "\r\n" + "\n".join(lines[10:]) + "\n"
        raw = text.encode()
        raw = raw.replace(b"beacon", b"bea\xc2\x85con", 1)
        if dirty:
            raw += b"\xff\xfe not utf-8\n"
        path = tmp_path / "host.log"
        path.write_bytes(raw)
        (result,) = detector.scan_logs(
            [str(path)], policy="drop", with_reports=True
        )
        report = ParseReport()
        want = list(
            detector.scan_stream(read_log_lines(path), report=report, policy="drop")
        )
        assert want and result.detections == want
        assert result.report.to_dict() == report.to_dict()

    def test_mutated_eventlog_drops_its_sidecar(self):
        detector = column_detector(2, 1)
        events = parse_fast(
            make_log([KINDS[kind] for kind in ["read", "beacon", "novel"] * 4]),
            columns=True,
        )
        assert events.columns is not None
        events.append(events.pop(0))  # same length, different order
        assert events.columns is None
        assert detections(
            *detector.pipeline.score_events(events)
        ) == record_oracle(detector, events)

    def test_extreme_opcodes_keep_distinct_keys(self):
        """Opcodes of ±2**62 and 0 (and 2**70, beyond int64, from text)
        are distinct event types: a lossy key would merge them."""
        opcodes = (2**62, -(2**62), 0, 2**70)
        detector = column_detector(2, 1, opcodes=opcodes)
        lines = with_opcodes(
            make_log([KINDS[kind] for kind in ["read", "beacon"] * 8]),
            (2**62, 2**70, -(2**62), 0, 2**62),
        )
        events = RawLogParser().parse_lines(lines)
        want = record_oracle(detector, events)
        assert detector.scan_log(lines) == want
        assert detections(*detector.pipeline.score_events(events)) == want
        reads = with_opcodes(make_log([KINDS["read"]] * 8), opcodes)
        featurizer = detector.pipeline.featurizer
        features = featurizer.transform_columns(
            parse_fast(reads, columns=True).columns
        )
        etypes = features[:4, 0].tolist()
        assert UNKNOWN_ID not in etypes and len(set(etypes)) == 4
        assert features[4:, 0].tolist() == etypes

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                *[
                    st.sampled_from(
                        [-(2**63), -(2**62), -1, 0, 1, 2**62, 2**63 - 1]
                    )
                ]
                * 4
            ),
            max_size=30,
        )
    )
    def test_distinct_keys_is_an_exact_factorization(self, rows):
        columns = [np.array(column, dtype=np.int64) for column in zip(*rows)] or [
            np.zeros(0, dtype=np.int64)
        ] * 4
        inverse, first = distinct_keys(columns)
        assert len(inverse) == len(rows)
        assert len(first) == len(set(rows))
        for i, row in enumerate(rows):
            assert first[inverse[i]] == rows.index(row)

    def test_distinct_keys_redensifies_before_overflow(self):
        """Four key columns spanning 2**17 values each: their plain
        combination would wrap int64, and (0, 0, 0, 0) would collide
        with (2**13, 0, 0, 0)."""
        span = np.arange(2**17, dtype=np.int64)
        columns = [np.concatenate([[0, 2**13], span])] + [
            np.concatenate([[0, 0], span])
        ] * 3
        inverse, first = distinct_keys(columns)
        assert inverse[0] != inverse[1]
        assert len(first) == len(span) + 1
        assert inverse[2] == inverse[0] and inverse[2 + 2**13] != inverse[1]
        assert sorted(first.tolist()) == [0, 1] + list(range(3, 2**17 + 2))

    def test_changed_capture_raises_under_process_pool(self, tmp_path):
        detector = column_detector(2, 1)
        events = RawLogParser().parse_lines(make_log(SCAN_SPECS))
        path = write_capture(tmp_path / "host.leapscap", events)
        loaded = load_capture(path).events
        write_capture(path, events[:-3])  # the capture changes on disk
        with pytest.raises(RuntimeError, match="changed during the scan"):
            detector.scan_logs([loaded, loaded], n_jobs=2, executor="process")


class TestDeferredCaptureEvents:
    def test_loaded_events_equal_the_eager_reference(self, tmp_path):
        report = ParseReport()
        reference = parse_fast(make_log(SCAN_SPECS), report=report)
        path = write_capture(tmp_path / "host.leapscap", reference, report=report)
        events = load_capture(path).events
        assert len(events) == len(reference)
        assert events.unbuilt_columns is not None  # len() built nothing
        assert events == reference
        assert type(events) is EventLog and events.unbuilt_columns is None
        assert all(
            mine is theirs
            for built, parsed in zip(events, reference)
            for mine, theirs in zip(built.frames, parsed.frames)
        )
        assert events.source == str(path)
        assert events.report.to_dict() == report.to_dict()

    def test_every_list_operation_builds_first(self, tmp_path):
        reference = parse_fast(make_log(SCAN_SPECS))
        path = write_capture(tmp_path / "host.leapscap", reference)
        assert load_capture(path).events[3] == reference[3]
        assert list(load_capture(path).events) == reference
        assert reference == load_capture(path).events
        assert [] + load_capture(path).events == reference
        assert load_capture(path).events == load_capture(path).events

    def test_capture_scan_builds_no_records(self, tmp_path):
        """Spy on every EventRecord construction (``__new__``, which the
        bypassing builders call too) in a fresh interpreter: a capture
        scan makes none; building the events afterwards makes them all."""
        detector = column_detector(2, 1)
        bundle = detector.save(tmp_path / "bundle")
        path = write_capture(
            tmp_path / "host.leapscap",
            RawLogParser().parse_lines(make_log(SCAN_SPECS)),
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )}
        out = subprocess.run(
            [sys.executable, "-c", SPY_SCRIPT, str(bundle), str(path)],
            capture_output=True, text=True, check=True, env=env,
        )
        scanned, built, n_events, n_windows = map(int, out.stdout.split())
        assert scanned == 0
        assert built == n_events == len(SCAN_SPECS)
        assert n_windows == len(SCAN_SPECS) - 1


SPY_SCRIPT = """
import sys
from repro.core.detector import LeapsDetector
from repro.etw.capture import load_capture
from repro.etw.events import EventRecord

made = []

def counting_new(cls, *args, **kwargs):
    made.append(cls)
    return object.__new__(cls)

detector = LeapsDetector.load(sys.argv[1])
EventRecord.__new__ = staticmethod(counting_new)
(result,) = detector.scan_logs([sys.argv[2]])
scanned = len(made)
events = list(load_capture(sys.argv[2]).events)
print(scanned, len(made), len(events), len(result.detections))
"""
