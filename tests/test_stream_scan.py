"""Streaming scan: equivalence with the batch path and bounded memory."""

import warnings

import numpy as np
import pytest

from repro import LeapsConfig, LeapsDetector, ParseReport
from repro.core.pipeline import LeapsPipeline, NotTrainedError
from repro.etw.parser import iter_parse
from repro.preprocessing.windows import WindowCoalescer

from tests.faults import fault_corpus
from tests.test_api import APP, NET, PAYLOAD, SYS, make_log, tiny_training_logs


def tiny_detector(**overrides):
    config = LeapsConfig(
        window_events=2,
        stride=1,
        lam_grid=(10.0,),
        sigma2_grid=(5.0,),
        cv_folds=0,
        max_train_windows=0,
        seed=1,
        **overrides,
    )
    detector = LeapsDetector(config)
    detector.train_from_logs(*tiny_training_logs())
    return detector


SCAN_SPECS = [("read", APP + SYS), ("beacon", PAYLOAD + NET)] * 8


class TestCoalescerStream:
    """The per-stream windower over a parsed log equals the offline
    :class:`Window` list, one-event pushes included."""

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_iter_coalesce_matches_batch(self, window, stride):
        events = list(iter_parse(make_log(SCAN_SPECS)))
        features = np.arange(len(events) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        batch = coalescer.coalesce(features, events)
        windower = coalescer.windower()
        stream = [
            windower.push(features[i : i + 1], [event.eid])
            for i, event in enumerate(events)
        ]
        spans = np.concatenate([spans for spans, _ in stream])
        matrix = np.concatenate([matrix for _, matrix in stream])
        assert batch
        assert spans.tolist() == [
            [w.start_index, w.start_eid, w.end_eid] for w in batch
        ]
        assert np.array_equal(matrix, np.stack([w.vector for w in batch]))

    def test_short_stream_yields_nothing(self):
        windower = WindowCoalescer(window_events=10, stride=5).windower()
        events = list(iter_parse(make_log(SCAN_SPECS[:3])))
        spans, matrix = windower.push(
            np.zeros((len(events), 3)), [e.eid for e in events]
        )
        assert spans.shape == (0, 3) and matrix.shape == (0, 30)


class TestStreamEquivalence:
    def test_scan_log_is_scan_stream(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        assert detector.scan_log(lines) == list(detector.scan_stream(lines))

    def test_stream_matches_batch_reference_bit_identically(self):
        """With the whole log in one scoring chunk, the streaming path
        reproduces the historical batch scores bit for bit."""
        detector = tiny_detector(stream_chunk_windows=1 << 20)
        lines = make_log(SCAN_SPECS)
        windows, matrix = detector.pipeline.featurize_log(lines)
        reference = detector.pipeline.model.decision_function(matrix)
        streamed = list(detector.scan_stream(lines))
        assert len(streamed) == len(windows)
        for detection, window, score in zip(streamed, windows, reference):
            assert detection.index == window.start_index
            assert detection.start_eid == window.start_eid
            assert detection.end_eid == window.end_eid
            assert detection.score == float(score)

    def test_chunked_stream_matches_batch_reference(self):
        """Tiny chunks exercise multi-batch scoring; scores agree with
        the full-batch reference to float64 noise."""
        detector = tiny_detector(stream_chunk_windows=3)
        lines = make_log(SCAN_SPECS)
        _, matrix = detector.pipeline.featurize_log(lines)
        reference = detector.pipeline.model.decision_function(matrix)
        streamed = [d.score for d in detector.scan_stream(lines)]
        np.testing.assert_allclose(streamed, reference, rtol=0, atol=1e-12)

    def test_chunks_hold_stream_chunk_windows(self):
        """``score_stream`` and a served stream fed in odd pieces both
        cut chunk k at windows ``[k·chunk, (k+1)·chunk)``."""
        from repro.serve.streams import StreamScanner

        detector = tiny_detector(stream_chunk_windows=4)
        lines = make_log(SCAN_SPECS)
        n = len(detector.scan_log(lines))
        want = [4] * (n // 4) + ([n % 4] if n % 4 else [])
        sizes = [len(spans) for spans, _ in detector.pipeline.score_stream(lines)]
        assert sizes == want
        scanner = StreamScanner("odd", detector.pipeline)
        payload = ("\n".join(lines) + "\n").encode()
        for start in range(0, len(payload), 37):
            scanner.feed_bytes(payload[start : start + 37])
        scanner.finish()
        assert [len(chunk.spans) for chunk in scanner.take_ready()] == want

    def test_text_parse_counts_as_decode(self):
        """A text stream's parse is bytes → events work: it lands in
        ``decode_s``, as a columnar stream's chunk decode does."""
        from repro.serve.streams import StreamScanner

        scanner = StreamScanner("parse", tiny_detector().pipeline)
        scanner.feed_lines(make_log(SCAN_SPECS))
        assert scanner.decode_s > 0.0
        scanner.finish()
        assert scanner.events_seen == len(SCAN_SPECS)

    def test_stream_reads_an_open_file(self, tmp_path):
        """Lines as a text file yields them, ``\n`` included."""
        detector = tiny_detector(stream_chunk_windows=3)
        lines = make_log(SCAN_SPECS)
        path = tmp_path / "host.log"
        path.write_text("\n".join(lines) + "\n")
        with open(path, encoding="utf-8") as stream:
            streamed = list(detector.scan_stream(stream))
        assert streamed == detector.scan_log(lines)

    def test_stream_accepts_pure_iterator(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        from_list = detector.scan_log(lines)
        from_iter = list(detector.scan_stream(iter(lines)))
        assert from_iter == from_list


class TestFaultCorpusMatchesOffline:
    """``scan_stream`` (streaming parser, line blocks, windower) equals
    the offline ``scan_logs`` (whole-log ``parse_fast``, column scorer)
    on every fault variant: same detections, same ParseReport."""

    @pytest.mark.parametrize("policy", ["warn", "drop"])
    @pytest.mark.parametrize("chunk", [3, 256])
    def test_scan_stream_equals_scan_logs(self, policy, chunk):
        detector = tiny_detector(stream_chunk_windows=chunk)
        variants = fault_corpus(make_log(SCAN_SPECS * 3), seed=0)
        assert variants
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for variant in variants:
                report = ParseReport()
                streamed = list(
                    detector.scan_stream(variant.lines, report=report, policy=policy)
                )
                (result,) = detector.scan_logs(
                    [variant.lines], policy=policy, with_reports=True
                )
                assert streamed == result.detections, variant.name
                assert report.to_dict() == result.report.to_dict(), variant.name


class TestStreamIngestion:
    def test_policy_and_report_reach_the_parser(self):
        detector = tiny_detector()
        lines = make_log(SCAN_SPECS)
        corrupt = lines[:9] + ["@@corrupt@@"] + lines[9:]
        report = ParseReport()
        detections = list(
            detector.scan_stream(corrupt, report=report, policy="drop")
        )
        assert detections
        assert report.n_issues == 1
        assert report.lines_accounted == report.total_lines == len(corrupt)

    def test_strict_default_raises_on_corrupt_stream(self):
        from repro.etw.parser import ParseError

        detector = tiny_detector()
        corrupt = ["@@corrupt@@"] + make_log(SCAN_SPECS)
        with pytest.raises(ParseError):
            list(detector.scan_stream(corrupt))

    def test_config_policy_is_stream_default(self):
        detector = tiny_detector(parse_policy="drop")
        corrupt = ["@@corrupt@@"] + make_log(SCAN_SPECS)
        assert list(detector.scan_stream(corrupt))

    def test_not_trained_raises_eagerly(self):
        pipeline = LeapsPipeline()
        with pytest.raises(NotTrainedError):
            pipeline.score_stream([])  # no iteration needed
        with pytest.raises(NotTrainedError):
            LeapsDetector().scan_stream([])


@pytest.mark.e2e
class TestGoldenEquivalence:
    """scan_stream ≡ scan_log on every complete golden dataset."""

    @pytest.fixture(scope="class")
    def trained(self, e2e_dataset):
        config = LeapsConfig(
            window_events=10,
            stride=5,
            lam_grid=(1.0,),
            sigma2_grid=(30.0,),
            cv_folds=0,
            max_train_windows=400,
            seed=0,
            # whole log in one scoring chunk → bit-identical to the
            # historical full-batch decision_function
            stream_chunk_windows=1 << 20,
        )
        detector = LeapsDetector(config)
        detector.train_from_logs(
            (e2e_dataset / "benign.log").read_text().splitlines(),
            (e2e_dataset / "mixed.log").read_text().splitlines(),
        )
        return detector

    def complete_datasets(self, data_dir):
        from tests.conftest import is_generated_cache

        return sorted(
            p.parent
            for p in data_dir.glob("*/benign.log")
            if not is_generated_cache(p.parent.name)
            and (p.parent / "mixed.log").exists()
            and (p.parent / "malicious.log").exists()
        )

    def test_stream_equals_log_on_all_complete_datasets(self, trained, data_dir):
        datasets = self.complete_datasets(data_dir)
        assert datasets
        for dataset in datasets:
            for log in ("benign.log", "mixed.log", "malicious.log"):
                lines = (dataset / log).read_text().splitlines()
                streamed = list(trained.scan_stream(lines))
                assert streamed == trained.scan_log(lines), (dataset.name, log)

    def test_stream_equals_batch_reference_on_all_complete_datasets(
        self, trained, data_dir
    ):
        """Non-vacuous check: the incremental path reproduces the
        independent batch computation (featurize_log + full-matrix
        decision_function) bit for bit."""
        for dataset in self.complete_datasets(data_dir):
            for log in ("benign.log", "mixed.log", "malicious.log"):
                lines = (dataset / log).read_text().splitlines()
                windows, matrix = trained.pipeline.featurize_log(lines)
                reference = trained.pipeline.model.decision_function(matrix)
                streamed = list(trained.scan_stream(lines))
                assert [d.score for d in streamed] == [float(s) for s in reference]
                assert [d.index for d in streamed] == [
                    w.start_index for w in windows
                ], (dataset.name, log)


class TestBoundedMemory:
    N_EVENTS = 30_000

    def big_log_lines(self):
        """A pure generator over a log larger than any pending buffer."""
        for eid in range(self.N_EVENTS):
            name, stack = SCAN_SPECS[eid % len(SCAN_SPECS)]
            yield f"EVENT|{eid}|{eid * 1000}|1000|app.exe|4|SYSCALL_ENTER|1|{name}"
            for depth, (module, function) in enumerate(stack):
                yield (
                    f"STACK|{eid}|{depth}|{module}|{function}|"
                    f"0x{0x400000 + depth * 0x40:x}"
                )

    def test_streams_a_log_larger_than_the_window_deque(self):
        detector = tiny_detector()
        count = sum(1 for _ in detector.scan_stream(self.big_log_lines()))
        # window=2, stride=1 → one window per event after the first
        assert count == self.N_EVENTS - 1

    def test_detections_yield_before_input_is_exhausted(self):
        """First verdicts must surface after ~one scoring chunk of
        events, not after the whole log — the streaming property."""
        detector = tiny_detector()  # stream_chunk_windows=256
        consumed = 0

        def counting_lines():
            nonlocal consumed
            for line in self.big_log_lines():
                consumed += 1
                yield line

        stream = detector.scan_stream(counting_lines())
        next(stream)
        lines_per_event = 1 + len(SCAN_SPECS[0][1])
        budget = 2 * detector.config.stream_chunk_windows * lines_per_event
        assert consumed < budget < self.N_EVENTS * lines_per_event
