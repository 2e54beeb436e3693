"""3-tuple event features.

Each event is reduced to a numeric 3-tuple (paper §III-B / Fig. 2):

``(event_type_id, app_signature_id, system_signature_id)``

* *event type* — the behaviour-level identity ``(category, opcode,
  name)``.  Stable across payload rebuilds, so this dimension carries
  the cross-build detection signal.
* *app signature* — the app-space call path ``((module, function), …)``.
  Payload polymorphism re-randomizes these per build; unseen signatures
  map to the reserved UNKNOWN id.
* *system signature* — the system-space call chain; shared OS code, so
  stable.

Ids are assigned by first-appearance order during :meth:`fit`, which
makes featurization deterministic for a fixed training corpus.  The
paper's Figure 2 collapses *similar* attributes to one id by UPGMA
clustering; that refinement is not built, so only identical attributes
share an id.

Column featurization: an event's features are a pure function of its
key ``(category, opcode, name, walk)``, and production logs are highly
repetitive — a 5k-event host holds a few dozen distinct keys.
:meth:`EventFeaturizer.transform_columns` takes the interned columns of
a log or of one streamed block (:class:`~repro.etw.events.EventColumns`),
factorizes the four key columns exactly, featurizes one
:class:`EventKey` per distinct key through
:meth:`~EventFeaturizer.transform`, and gathers the ``(n, 3)`` matrix
with the inverse index.  Rows are bit-identical to featurizing every
record: the same vocabulary lookups, stored into the same float64
cells.  Training, the offline scan, ``scan_stream`` and the serve
workers all featurize this way; :meth:`~EventFeaturizer.transform`
memoizes resolved ids per attribute triple.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, NamedTuple, Sequence, Tuple

import numpy as np

from repro.etw.events import EventColumns, EventRecord, StackFrame, int_column
from repro.etw.stack_partition import StackPartitioner

#: Reserved id for attribute values never seen during training.
UNKNOWN_ID = 0

#: One event's attribute triple: (etype, app signature, system signature).
AttributeTriple = Tuple[Hashable, Hashable, Hashable]


class EventKey(NamedTuple):
    """The fields an event's features depend on; featurizes exactly as
    any record that shares them."""

    category: str
    opcode: int
    name: str
    frames: Tuple[StackFrame, ...]

    @property
    def etype(self) -> Tuple[str, int, str]:
        return (self.category, self.opcode, self.name)


def distinct_keys(key_columns: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Exact factorization of equal-length integer key columns:
    ``(inverse, first)``, where event ``i`` holds distinct key
    ``inverse[i]`` and ``first[k]`` is the first event holding key ``k``.

    Each column becomes codes below ``n``: its offset from the minimum
    when the column spans fewer than ``n`` values (interned ids do),
    else its ``np.unique`` inverse.  The codes are combined column by
    column into one int64 code; whenever the next combination could
    pass 2**62 the running code is first re-densified below ``n``, so
    no combination ever exceeds ``n**2`` whatever the opcode range.
    One ``np.unique`` over the combined code then finds the keys."""
    n = len(key_columns[0])
    if not n:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty
    combined = np.zeros(n, dtype=np.int64)
    bound = 1  # combined < bound
    for column in key_columns:
        low, high = int(column.min()), int(column.max())
        if high - low < n:
            codes = (column - low).astype(np.int64)
            radix = high - low + 1
        else:
            codes = np.unique(column, return_inverse=True)[1]
            radix = int(codes.max()) + 1
        if bound * radix > 2**62:
            combined = np.unique(combined, return_inverse=True)[1]
            bound = int(combined.max()) + 1
        combined = combined * radix + codes
        bound *= radix
    _, first, inverse = np.unique(combined, return_index=True, return_inverse=True)
    return inverse, first


class Vocabulary:
    """First-appearance-ordered mapping of hashable keys to ids ≥ 1."""

    def __init__(self):
        self._ids: Dict[Hashable, int] = {}
        self.frozen = False

    def add(self, key: Hashable) -> int:
        if key not in self._ids:
            if self.frozen:
                return UNKNOWN_ID
            self._ids[key] = len(self._ids) + 1
        return self._ids[key]

    def lookup(self, key: Hashable) -> int:
        return self._ids.get(key, UNKNOWN_ID)

    def keys(self):
        """Keys in first-appearance (id) order."""
        return self._ids.keys()

    def freeze(self) -> None:
        self.frozen = True

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._ids


class EventFeaturizer:
    """Fit attribute vocabularies on training logs, then map any event
    stream to an ``(n, 3)`` feature matrix."""

    DIMS = 3

    def __init__(self, partitioner: StackPartitioner | None = None):
        self.partitioner = partitioner or StackPartitioner()
        self.etype_vocab = Vocabulary()
        self.app_vocab = Vocabulary()
        self.system_vocab = Vocabulary()
        self.fitted = False
        # attribute triple → resolved (etype_id, app_id, system_id);
        # valid only after the vocabularies are frozen in fit()
        self._id_cache: Dict[AttributeTriple, Tuple[int, int, int]] = {}

    # -- attribute extraction -----------------------------------------
    def attributes(self, event: EventRecord) -> AttributeTriple:
        """One partition pass per event (the pre-fast-path version
        partitioned twice, once per stack half)."""
        frames = event.frames
        split = self.partitioner.split_index(frames)
        app = tuple((frame.module, frame.function) for frame in frames[:split])
        system = tuple((frame.module, frame.function) for frame in frames[split:])
        return (event.etype, app, system)

    # -- fit / transform ----------------------------------------------
    def fit(self, *event_streams: Iterable[EventRecord]) -> "EventFeaturizer":
        self._id_cache.clear()
        for stream in event_streams:
            for event in stream:
                etype, app, system = self.attributes(event)
                self.etype_vocab.add(etype)
                self.app_vocab.add(app)
                self.system_vocab.add(system)
        self.etype_vocab.freeze()
        self.app_vocab.freeze()
        self.system_vocab.freeze()
        self.fitted = True
        return self

    def _resolve(self, attrs: AttributeTriple) -> Tuple[int, int, int]:
        """Vocabulary ids for one attribute triple, through the memo."""
        ids = self._id_cache.get(attrs)
        if ids is None:
            etype, app, system = attrs
            ids = (
                self.etype_vocab.lookup(etype),
                self.app_vocab.lookup(app),
                self.system_vocab.lookup(system),
            )
            self._id_cache[attrs] = ids
        return ids

    def transform(self, events: Sequence[EventRecord]) -> np.ndarray:
        if not self.fitted:
            raise RuntimeError("EventFeaturizer.transform before fit")
        out = np.empty((len(events), self.DIMS), dtype=float)
        resolve, attributes = self._resolve, self.attributes
        rows = [resolve(attributes(event)) for event in events]
        if rows:
            out[:] = rows
        return out

    def transform_columns(self, columns: EventColumns) -> np.ndarray:
        """:meth:`transform` of a whole log from its interned columns:
        each distinct ``(category, opcode, name, walk)`` key is
        featurized once, then gathered per event."""
        if not self.fitted:
            raise RuntimeError("EventFeaturizer.transform before fit")
        key_columns = [
            int_column(column)
            for column in (
                columns.category_id,
                columns.opcode,
                columns.name_id,
                columns.walk_id,
            )
        ]
        inverse, first = distinct_keys(key_columns)
        categories = columns.category_vocab
        names = columns.name_vocab
        walks = columns.walks
        keys = [
            EventKey(categories[category], opcode, names[name], walks[walk])
            for category, opcode, name, walk in zip(
                *(column[first].tolist() for column in key_columns)
            )
        ]
        return self.transform(keys)[inverse]

    def fit_transform(self, events: Sequence[EventRecord]) -> np.ndarray:
        self.fit(events)
        return self.transform(events)
