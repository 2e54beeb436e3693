"""Window coalescing: per-event 3-tuples → fixed-width sample vectors.

Classifying single events is too noisy (paper §III-B, window ablation):
LEAPS concatenates the 3-tuples of ``window_events`` consecutive events
into one sample — 10 events × 3 dims = the paper's 30-dim vectors — and
slides the window by ``stride`` events.  Trailing events that do not
fill a whole window are dropped.

Per-window sample weights aggregate the member events' Algorithm-2
weights (mean by default, max as the pessimistic alternative).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.etw.events import EventRecord, int_column


@dataclass(frozen=True)
class Window:
    """One coalesced sample and the event span it covers."""

    start_index: int
    start_eid: int
    end_eid: int
    vector: np.ndarray


class WindowCoalescer:
    def __init__(self, window_events: int = 10, stride: int = 10):
        if window_events < 1:
            raise ValueError("window_events must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.window_events = window_events
        self.stride = stride

    @property
    def dims(self) -> int:
        return 3 * self.window_events

    def _starts(self, count: int) -> range:
        if count < self.window_events:
            return range(0)
        return range(0, count - self.window_events + 1, self.stride)

    def _gather(self, features: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """All window vectors in one fancy-indexed gather — one numpy
        call instead of a per-window slice/concatenate; values are
        bit-identical to the per-window construction."""
        offsets = np.arange(self.window_events)
        rows = np.asarray(features, dtype=float)[starts[:, None] + offsets]
        return rows.reshape(len(starts), -1)

    def coalesce_with_matrix(
        self, features: np.ndarray, eids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every window of a log by index arithmetic: the ``(m, 3)``
        integer array of ``(start_index, start_eid, end_eid)`` rows and
        the stacked ``(m, 3*window)`` sample matrix, from the per-event
        ``(n, 3)`` features and the ``n`` event ids."""
        if len(features) != len(eids):
            raise ValueError("features/eids length mismatch")
        ids = int_column(eids)
        starts = np.asarray(self._starts(len(ids)), dtype=np.intp)
        return self._windows(features, ids, starts)

    def _windows(
        self, features: np.ndarray, ids: np.ndarray, starts: np.ndarray, base: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Spans and vectors of the windows at ``starts`` (row positions
        in ``features``; ``base`` is the stream index of row 0)."""
        if not len(starts):
            return np.zeros((0, 3), dtype=ids.dtype), np.zeros((0, self.dims))
        spans = np.stack(
            [starts + base, ids[starts], ids[starts + self.window_events - 1]],
            axis=1,
        )
        return spans, self._gather(features, starts)

    def coalesce(
        self, features: np.ndarray, events: Sequence[EventRecord]
    ) -> List[Window]:
        """:meth:`coalesce_with_matrix` as :class:`Window` objects, each
        ``vector`` a row view of the sample matrix."""
        spans, matrix = self.coalesce_with_matrix(
            features, [event.eid for event in events]
        )
        return [
            Window(start_index=start, start_eid=first, end_eid=last, vector=row)
            for (start, first, last), row in zip(spans.tolist(), matrix)
        ]

    def windower(self) -> "StreamWindower":
        """A fresh per-stream windower with this coalescer's geometry."""
        return StreamWindower(self)

    def coalesce_matrix(self, features: np.ndarray) -> np.ndarray:
        """Window vectors only, stacked into an ``(m, 3*window)`` matrix."""
        starts = np.asarray(self._starts(len(features)), dtype=np.intp)
        if not len(starts):
            return np.zeros((0, self.dims))
        return self._gather(features, starts)

    def window_weights(
        self, event_weights: np.ndarray, aggregate: str = "mean"
    ) -> np.ndarray:
        """Aggregate per-event Algorithm-2 weights into per-window weights."""
        if aggregate not in ("mean", "max"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        reduce = np.mean if aggregate == "mean" else np.max
        values = [
            float(reduce(event_weights[start : start + self.window_events]))
            for start in self._starts(len(event_weights))
        ]
        return np.asarray(values)


class StreamWindower:
    """One stream's windowing state between blocks: the last
    ``window_events - 1`` feature rows and eids plus the running event
    count.

    :meth:`push` returns every window that closes in a block, computed
    by :meth:`WindowCoalescer.coalesce_with_matrix`'s index arithmetic
    over tail + block, so a stream pushed in any block sizes yields the
    spans and vectors of one offline pass over the whole log (window
    vectors are pure row slices; no arithmetic touches them).
    """

    __slots__ = ("coalescer", "rows", "eids", "count")

    def __init__(self, coalescer: WindowCoalescer):
        self.coalescer = coalescer
        self.rows = np.zeros((0, 3))
        self.eids = np.zeros(0, dtype=np.int64)
        self.count = 0

    def push(
        self, rows: np.ndarray, eids: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(m, 3)`` spans and ``(m, 3*window)`` matrix of the
        windows whose last event is in this block of ``(n, 3)`` feature
        rows and ``n`` event ids."""
        if len(rows) != len(eids):
            raise ValueError("features/eids length mismatch")
        rows = np.concatenate([self.rows, np.asarray(rows, dtype=float)])
        ids = np.concatenate([self.eids, int_column(eids)])
        base = self.count - len(self.eids)  # stream index of rows[0]
        self.count += len(eids)
        coalescer = self.coalescer
        stride = coalescer.stride
        first = -(-base // stride) * stride - base
        starts = np.arange(
            first, len(ids) - coalescer.window_events + 1, stride, dtype=np.intp
        )
        drop = max(0, len(ids) - coalescer.window_events + 1)
        self.rows, self.eids = rows[drop:].copy(), ids[drop:].copy()
        return coalescer._windows(rows, ids, starts, base)
