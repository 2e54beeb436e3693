"""Window coalescing: 3-tuples → 30-dim samples, weight aggregation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.etw.events import EventRecord
from repro.preprocessing.windows import WindowCoalescer


def make_events(n):
    return [
        EventRecord(
            eid=i, timestamp=i * 1000, pid=1, process="app.exe",
            tid=4, category="C", opcode=0, name="n",
        )
        for i in range(n)
    ]


class TestCoalesce:
    def test_paper_dimensions(self):
        coalescer = WindowCoalescer(window_events=10, stride=10)
        assert coalescer.dims == 30
        matrix = coalescer.coalesce_matrix(np.arange(60).reshape(20, 3))
        assert matrix.shape == (2, 30)

    def test_window_vector_is_concatenation(self):
        features = np.arange(12).reshape(4, 3)
        matrix = WindowCoalescer(window_events=2, stride=2).coalesce_matrix(features)
        assert matrix[0].tolist() == [0, 1, 2, 3, 4, 5]
        assert matrix[1].tolist() == [6, 7, 8, 9, 10, 11]

    def test_stride_overlap(self):
        features = np.arange(12).reshape(4, 3)
        matrix = WindowCoalescer(window_events=2, stride=1).coalesce_matrix(features)
        assert matrix.shape == (3, 6)
        assert matrix[1].tolist() == [3, 4, 5, 6, 7, 8]

    def test_trailing_partial_window_dropped(self):
        features = np.arange(15).reshape(5, 3)
        matrix = WindowCoalescer(window_events=2, stride=2).coalesce_matrix(features)
        assert matrix.shape == (2, 6)

    def test_too_few_events_yields_nothing(self):
        matrix = WindowCoalescer(window_events=10).coalesce_matrix(np.ones((4, 3)))
        assert matrix.shape == (0, 30)

    def test_window_metadata(self):
        events = make_events(5)
        features = np.zeros((5, 3))
        windows = WindowCoalescer(window_events=2, stride=2).coalesce(features, events)
        assert [(w.start_eid, w.end_eid) for w in windows] == [(0, 1), (2, 3)]
        assert windows[1].start_index == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            WindowCoalescer().coalesce(np.zeros((3, 3)), make_events(4))


class TestWindowWeights:
    def test_mean_aggregation(self):
        weights = np.array([0.0, 1.0, 1.0, 0.0])
        out = WindowCoalescer(window_events=2, stride=2).window_weights(weights)
        assert out.tolist() == [0.5, 0.5]

    def test_max_aggregation(self):
        weights = np.array([0.0, 1.0, 0.0, 0.0])
        coalescer = WindowCoalescer(window_events=2, stride=2)
        assert coalescer.window_weights(weights, aggregate="max").tolist() == [1.0, 0.0]

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            WindowCoalescer().window_weights(np.ones(10), aggregate="median")

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            WindowCoalescer(window_events=0)
        with pytest.raises(ValueError):
            WindowCoalescer(stride=0)


def push_blocks(windower, features, eids, sizes):
    """Push a log through ``windower`` in consecutive blocks of
    ``sizes`` (any rest in one final block); every block's spans and
    matrix, stacked."""
    spans, matrices, low = [], [], 0
    for size in list(sizes) + [len(eids)]:
        high = min(low + size, len(eids))
        got = windower.push(features[low:high], eids[low:high])
        spans.append(got[0])
        matrices.append(got[1])
        low = high
    return np.concatenate(spans), np.concatenate(matrices)


def assert_same_windows(got, want):
    assert got[0].tolist() == want[0].tolist()
    assert got[1].shape == want[1].shape
    assert np.array_equal(got[1], want[1])


class TestPushCoalescer:
    """Push-mode windowing: a :class:`StreamWindower` fed a stream in
    any block sizes reproduces the offline ``coalesce_with_matrix`` of
    the whole log window for window, bit for bit."""

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_push_matches_iter_coalesce(self, window, stride):
        """One-event pushes equal the offline windows."""
        eids = list(range(100, 117))
        features = np.arange(len(eids) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        got = push_blocks(coalescer.windower(), features, eids, [1] * len(eids))
        assert len(got[0])
        assert_same_windows(got, coalescer.coalesce_with_matrix(features, eids))

    def test_short_stream_pushes_nothing(self):
        windower = WindowCoalescer(window_events=10, stride=5).windower()
        for eid in range(9):
            spans, matrix = windower.push(np.zeros((1, 3)), [eid])
            assert spans.shape == (0, 3) and matrix.shape == (0, 30)

    def test_fresh_push_coalescer_per_stream(self):
        coalescer = WindowCoalescer(window_events=2, stride=1)
        first, second = coalescer.windower(), coalescer.windower()
        first.push(np.zeros((3, 3)), [0, 1, 2])
        # a second stream's windower starts from scratch
        assert len(second.push(np.zeros((1, 3)), [0])[0]) == 0
        assert second.push(np.zeros((1, 3)), [1])[0].tolist() == [[0, 0, 1]]

    @pytest.mark.parametrize("window,stride", [(2, 1), (3, 2), (4, 4), (5, 3)])
    @pytest.mark.parametrize("split", [1, 3, 6, 17])
    def test_push_block_matches_scalar_push(self, window, stride, split):
        """Block pushes in any splitting reproduce one-event pushes
        window for window, bit for bit, and the two windowers stay
        interchangeable mid-stream."""
        eids = list(range(17))
        features = np.arange(len(eids) * 3, dtype=float).reshape(-1, 3)
        coalescer = WindowCoalescer(window_events=window, stride=stride)
        scalar, block = coalescer.windower(), coalescer.windower()
        want = push_blocks(scalar, features, eids, [1] * len(eids))
        got = push_blocks(block, features, eids, [split] * len(eids))
        assert_same_windows(got, want)
        for eid in range(17, 20):
            row = np.full((1, 3), float(eid))
            assert_same_windows(block.push(row, [eid]), scalar.push(row, [eid]))


@settings(max_examples=200, deadline=None)
@given(
    window=st.integers(1, 5),
    stride=st.integers(1, 7),
    n=st.integers(0, 30),
    sizes=st.lists(st.integers(0, 8), max_size=12),
)
@example(window=5, stride=7, n=4, sizes=[0, 1, 0, 1])  # n < W, S > W
@example(window=3, stride=5, n=30, sizes=[1] * 12)  # S > W
@example(window=1, stride=1, n=6, sizes=[0, 0, 6])
def test_windower_over_random_splits_equals_offline(window, stride, n, sizes):
    """The windower over any block split — empty and one-event blocks
    included — equals ``coalesce_with_matrix`` on the whole log."""
    coalescer = WindowCoalescer(window_events=window, stride=stride)
    eids = [7 + 3 * i for i in range(n)]
    features = np.arange(n * 3, dtype=float).reshape(-1, 3)
    windower = coalescer.windower()
    got = push_blocks(windower, features, eids, sizes)
    assert_same_windows(got, coalescer.coalesce_with_matrix(features, eids))
    # the tail never holds more than window_events - 1 rows
    assert len(windower.rows) == len(windower.eids) == min(n, window - 1)
