"""Event records and stack frames — the unit of everything LEAPS consumes.

A raw "ETL" log (see :mod:`repro.etw.parser`) is an ordered sequence of
system events; each event carries the full stack walk captured at the
moment the event fired, from the app-level entry point (frame 0) down to
the kernel routine that raised the event.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.etw.recovery import ParseReport

#: Node identity used throughout CFG inference: (module, function).
FrameNode = Tuple[str, str]


def _check_field(owner: str, name: str, value: str) -> None:
    """Reject values the pipe-delimited raw-log format cannot represent.

    A raw ``|`` (or newline) inside a string field would serialize into
    extra fields and make ``iter_parse(serialize_event(e))`` fail with a
    field-count error; catching it at construction time turns a silent
    round-trip corruption into an immediate, clear error.
    """
    if "|" in value or "\n" in value or "\r" in value:
        raise ValueError(
            f"{owner}.{name} {value!r} contains a raw-log delimiter "
            "('|' or newline); these characters cannot round-trip through "
            "the pipe-delimited ETL format"
        )


@dataclass(frozen=True)
class StackFrame:
    """One frame of a stack walk.

    ``index`` 0 is the outermost (app entry point) frame; indices increase
    toward the kernel routine that raised the event.
    """

    index: int
    module: str
    function: str
    address: int

    def __post_init__(self):
        _check_field("StackFrame", "module", self.module)
        _check_field("StackFrame", "function", self.function)
        # Frames are the unit of the featurization memo (hashed inside
        # every ``event.frames`` cache key, once per event); the
        # dataclass-generated hash rebuilds a field tuple per call, so
        # compute it once here instead.
        object.__setattr__(
            self,
            "_hash",
            hash((self.index, self.module, self.function, self.address)),
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def node(self) -> FrameNode:
        """CFG node identity of this frame."""
        return (self.module, self.function)


@dataclass
class EventRecord:
    """A system event with its correlated stack walk."""

    eid: int
    timestamp: int
    pid: int
    process: str
    tid: int
    category: str
    opcode: int
    name: str
    frames: Tuple[StackFrame, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_field("EventRecord", "process", self.process)
        _check_field("EventRecord", "category", self.category)
        _check_field("EventRecord", "name", self.name)

    @property
    def etype(self) -> Tuple[str, int, str]:
        """Behaviour-level identity of the event (stable across payload
        rebuilds, unlike app-space addresses/function names)."""
        return (self.category, self.opcode, self.name)

    def with_frames(self, frames) -> "EventRecord":
        return replace(self, frames=tuple(frames))

    def iter_nodes(self) -> Iterator[FrameNode]:
        for frame in self.frames:
            yield frame.node


class EventColumns:
    """Columnar view of a parsed event list: the interned form that the
    capture writer and the batch scorer read (DESIGN.md §9, §11).

    Producers:

    * the vectorized text parser (``parse_fast(..., columns=True)``)
      builds it alongside the records as Python lists, for the price of
      a few dict lookups per event;
    * the generation fast path (``fastgen.to_event_columns``) builds it
      without any records;
    * :meth:`from_records` columnizes any record list;
    * the chunk decoder (:mod:`repro.etw.capture`, shared by
      ``load_capture`` and the serve wire) returns validated int64
      ndarrays over its cumulative vocabularies and walk table.

    Every producer guarantees that each ``*_id`` column indexes its
    vocabulary, ``walk_id`` indexes ``walks``, and all per-event columns
    are exactly ``n_events`` long.  The batch scorer
    (``LeapsPipeline.score_columns``) and the chunk encoder need no more
    than that: the encoder re-interns ids in first-appearance order
    itself.
    """

    __slots__ = (
        "n_events",
        "eid", "timestamp", "pid", "tid", "opcode",
        "process_id", "category_id", "name_id", "walk_id",
        "process_vocab", "category_vocab", "name_vocab",
        "walks",
    )

    def __init__(self):
        self.n_events = 0
        self.eid: list = []
        self.timestamp: list = []
        self.pid: list = []
        self.tid: list = []
        self.opcode: list = []
        self.process_id: list = []
        self.category_id: list = []
        self.name_id: list = []
        self.walk_id: list = []
        self.process_vocab: list = []
        self.category_vocab: list = []
        self.name_vocab: list = []
        self.walks: list = []

    @classmethod
    def from_records(cls, events: Sequence[EventRecord]) -> "EventColumns":
        """The columns of a record list, with the parser's guarantees
        (first-appearance vocabularies, equality-distinct walks) — for
        records that carry no sidecar."""
        cols = cls()
        cols.n_events = len(events)
        cols.eid = [event.eid for event in events]
        cols.timestamp = [event.timestamp for event in events]
        cols.pid = [event.pid for event in events]
        cols.tid = [event.tid for event in events]
        cols.opcode = [event.opcode for event in events]
        cols.process_id, cols.process_vocab = first_appearance_ids(
            [event.process for event in events]
        )
        cols.category_id, cols.category_vocab = first_appearance_ids(
            [event.category for event in events]
        )
        cols.name_id, cols.name_vocab = first_appearance_ids(
            [event.name for event in events]
        )
        cols.walk_id, cols.walks = _walk_ids([event.frames for event in events])
        return cols


def event_columns(events: Sequence[EventRecord]) -> EventColumns:
    """The interned columns of an event sequence: a deferred capture
    log's columns, a log's sidecar, or the columns of the records
    themselves."""
    if isinstance(events, EventLog):
        if events.unbuilt_columns is not None:
            return events.unbuilt_columns
        if events.columns is not None and events.columns.n_events == len(events):
            return events.columns
    return EventColumns.from_records(events)


def first_appearance_ids(values: list) -> Tuple[np.ndarray, list]:
    """(id per value, distinct values in first-appearance order);
    ``dict.fromkeys`` keeps first-appearance order in one C pass."""
    table = {value: index for index, value in enumerate(dict.fromkeys(values))}
    ids = np.fromiter(map(table.__getitem__, values), np.int64, count=len(values))
    return ids, list(table)


def _walk_ids(walks: list) -> Tuple[np.ndarray, list]:
    """:func:`first_appearance_ids` for walk tuples, with an identity
    pre-pass: interned walks collapse by ``id()`` before any tuple is
    hashed, then equal but distinct tuples still collapse to one id."""
    uniq = dict(zip(map(id, walks), walks))
    table: dict = {}
    distinct: list = []
    by_identity: dict = {}
    for key, walk in uniq.items():
        index = table.get(walk)
        if index is None:
            index = len(distinct)
            table[walk] = index
            distinct.append(walk)
        by_identity[key] = index
    ids = np.fromiter(
        map(by_identity.__getitem__, map(id, walks)), np.int64, count=len(walks)
    )
    return ids, distinct


def int_column(values) -> np.ndarray:
    """An exact 1-d integer array of ``values`` (a list of ints or an
    integer ndarray): int64 where every value fits, else an object array
    of Python ints.  Text-parsed fields are unbounded Python ints, and
    numpy would silently round a mix beyond int64 to float64."""
    if isinstance(values, np.ndarray):
        if values.dtype == np.int64:
            return values
        if np.can_cast(values.dtype, np.int64):
            return values.astype(np.int64)
        return np.array(values.tolist(), dtype=object)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class EventLog(list):
    """A list of already-parsed :class:`EventRecord` objects.

    Front ends that produce events without a text parse (the columnar
    capture reader, pre-parsed in-memory fleets) hand the pipeline an
    ``EventLog`` where raw lines are otherwise expected; parse entry
    points recognize the type and skip re-parsing.  ``report`` carries
    the :class:`~repro.etw.recovery.ParseReport` of whatever parse
    originally produced these events (``None`` when unknown), so
    recovery accounting survives the detour through a binary format.
    ``source`` records where the events came from (the capture
    directory path for the columnar reader, ``None`` for hand-built
    logs) — fleet scans use it to ship a *path* to pool workers instead
    of pickling the whole event list.  ``columns`` optionally carries
    the log's :class:`EventColumns` sidecar (the parser's, or a deferred
    log's columns once its records are built); it is only valid while
    the log is unmodified, so every mutation drops it.

    A *deferred* log (:meth:`deferred`) holds interned columns instead
    of records: ``len()`` answers from the columns, and any other list
    operation builds the records first, after which the log is a plain
    ``EventLog``.  Until then :attr:`unbuilt_columns` exposes the
    columns, so a batch scan never builds the records at all.
    """

    __slots__ = ("report", "source", "columns", "_deferred")

    def __init__(
        self,
        events: Iterable[EventRecord] = (),
        report: Optional["ParseReport"] = None,
        source: Optional[str] = None,
    ):
        super().__init__(events)
        self.report = report
        self.source = source
        self.columns: Optional[EventColumns] = None
        self._deferred: Optional[
            Tuple[EventColumns, Callable[[EventColumns], List[EventRecord]]]
        ] = None

    @classmethod
    def deferred(
        cls,
        columns: EventColumns,
        build: Callable[[EventColumns], List[EventRecord]],
        report: Optional["ParseReport"] = None,
        source: Optional[str] = None,
    ) -> "EventLog":
        """A log whose records ``build(columns)`` makes on first use."""
        log = _DeferredEventLog((), report, source)
        log._deferred = (columns, build)
        return log

    @property
    def unbuilt_columns(self) -> Optional[EventColumns]:
        """The columns of a deferred log whose records are not built
        yet; ``None`` otherwise."""
        deferred = self._deferred
        return None if deferred is None else deferred[0]

    def __reduce__(self):
        # list subclass with __slots__: default pickling would drop
        # ``report``/``source``; fleet scans ship EventLogs to workers.
        # The columns sidecar is deliberately not shipped.
        return (type(self), (list(self), self.report, self.source))


def _dropping_columns(name: str):
    method = getattr(list, name)

    def mutate(self, *args, **kwargs):
        self.columns = None
        return method(self, *args, **kwargs)

    mutate.__name__ = name
    return mutate


# Every mutation would silently desynchronize the columnar sidecar, so
# each one drops it.
for _name in (
    "__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
    "insert", "pop", "remove", "clear", "sort", "reverse",
):
    setattr(EventLog, _name, _dropping_columns(_name))


#: Serializes record builds, so threads sharing one deferred log build
#: it once.
_BUILD_LOCK = threading.Lock()


class _DeferredEventLog(EventLog):
    """:meth:`EventLog.deferred`'s type until the records exist; then
    the instance switches to plain :class:`EventLog` (same layout)."""

    __slots__ = ()

    def __len__(self):
        deferred = self._deferred
        if deferred is None:  # built by another thread mid-call
            return list.__len__(self)
        return deferred[0].n_events

    def _build(self) -> None:
        with _BUILD_LOCK:
            deferred = self._deferred
            if deferred is not None:
                columns, build = deferred
                list.extend(self, build(columns))
                self._deferred = None
                self.__class__ = EventLog
                # the records match the columns: keep them as the sidecar
                self.columns = columns


def _building(name: str):
    method = getattr(EventLog, name)

    def built_first(self, *args, **kwargs):
        # list's C methods read operands' storage directly: build every
        # deferred operand, not just self
        for value in (self, *args):
            if isinstance(value, _DeferredEventLog):
                value._build()
        return method(self, *args, **kwargs)

    built_first.__name__ = name
    return built_first


for _name in (
    "__iter__", "__reversed__", "__getitem__", "__setitem__", "__delitem__",
    "__contains__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__",
    "__ge__", "__add__", "__iadd__", "__mul__", "__rmul__", "__imul__",
    "__repr__", "__reduce__", "append", "extend", "insert", "pop",
    "remove", "index", "count", "copy", "clear", "sort", "reverse",
):
    setattr(_DeferredEventLog, _name, _building(_name))


def _deferred_radd(self, other):
    # ``plain_list + deferred``: list's concat would read the unbuilt
    # storage, so this reflected add runs first and builds
    self._build()
    return other + self


_DeferredEventLog.__radd__ = _deferred_radd
