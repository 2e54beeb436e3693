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

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

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
        if not len(starts):
            return np.zeros((0, 3), dtype=ids.dtype), np.zeros((0, self.dims))
        spans = np.stack(
            [starts, ids[starts], ids[starts + self.window_events - 1]], axis=1
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

    def push_coalescer(self) -> "PushCoalescer":
        """A fresh push-mode coalescer carrying this coalescer's geometry
        — one per live stream in the serving path."""
        return PushCoalescer(self.window_events, self.stride)

    def iter_coalesce(
        self, pairs: Iterable[Tuple[EventRecord, np.ndarray]]
    ) -> Iterator[Window]:
        """Incremental coalescing over an ``(event, feature_row)`` stream.

        Holds a deque of at most ``window_events`` pending pairs — the
        streaming-scan memory bound — and yields each :class:`Window` the
        moment its last event arrives.  Produces exactly the windows of
        :meth:`coalesce` (same spans, bit-identical vectors) without ever
        materializing the event list.
        """
        coalescer = self.push_coalescer()
        for event, row in pairs:
            window = coalescer.push(event, row)
            if window is not None:
                yield window

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


class PushCoalescer:
    """Push-mode core of :meth:`WindowCoalescer.iter_coalesce`: feed one
    ``(event, feature_row)`` pair, get back the :class:`Window` it
    completed, if any.

    This is the per-stream coalescing state the serving workers keep
    alive between socket payloads — a deque of at most ``window_events``
    pending rows plus the running event count — so window spans and
    vectors are bit-identical to the pull path no matter how the stream's
    bytes were chunked in flight.
    """

    __slots__ = ("window_events", "stride", "buffer", "count")

    def __init__(self, window_events: int, stride: int):
        if window_events < 1:
            raise ValueError("window_events must be >= 1")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.window_events = window_events
        self.stride = stride
        self.buffer: deque = deque(maxlen=window_events)
        self.count = 0

    def push(self, event: EventRecord, row: np.ndarray) -> "Window | None":
        self.buffer.append((event, row))
        self.count += 1
        start = self.count - self.window_events
        if start >= 0 and start % self.stride == 0:
            return Window(
                start_index=start,
                start_eid=self.buffer[0][0].eid,
                end_eid=event.eid,
                vector=np.concatenate([pair[1] for pair in self.buffer]),
            )
        return None

    def push_block(self, events, rows: np.ndarray) -> "list[Window]":
        """Push a whole parsed block at once — the serving fast path for
        bulk regions, equivalent to ``push(events[i], rows[i])`` per pair.

        Window vectors come out bit-identical to the scalar path: a
        window covering rows ``[j, j+w)`` of the held+new row matrix is
        that slice flattened, which is exactly the ``np.concatenate`` of
        the same per-event rows (pure data movement, no arithmetic).
        """
        n = len(events)
        if n == 0:
            return []
        if n == 1:
            window = self.push(events[0], rows[0])
            return [window] if window is not None else []
        window_events = self.window_events
        stride = self.stride
        base = self.count
        held = list(self.buffer)
        first_global = base - len(held)
        if held:
            combined = np.concatenate(
                [np.stack([pair[1] for pair in held]), rows]
            )
            all_events = [pair[0] for pair in held]
            all_events.extend(events)
        else:
            combined = np.asarray(rows)
            all_events = list(events)
        self.count = base + n
        out: list = []
        # windows whose final event lies in this block: start index in
        # [base - w + 1, base + n - w], clamped to >= 0, on the stride
        lo = max(0, base - window_events + 1)
        first_start = -(-lo // stride) * stride
        for start in range(first_start, base + n - window_events + 1, stride):
            j = start - first_global
            out.append(
                Window(
                    start_index=start,
                    start_eid=all_events[j].eid,
                    end_eid=all_events[j + window_events - 1].eid,
                    vector=combined[j : j + window_events].reshape(-1),
                )
            )
        for pair in zip(events[-window_events:], rows[-window_events:]):
            self.buffer.append(pair)
        return out
