"""Vectorized columnar scenario synthesis — the generation fast path.

The per-event tracer (``repro.winsys.process.EventTracer`` driven by
``repro.datasets.generation``) costs ~30µs/event: one ``EventRecord``,
one stack walk, one RNG draw per event, then a text serialization pass.
This module replaces the hot path with column synthesis: every distinct
*emission* a session can produce — a (benign operation, call path) pair
or a payload operation — is materialized **once** per session as a row
of an :class:`EmissionTable` (walk tuple, pre-escaped bytes template,
opcode, tid), and a session then becomes a handful of numpy gathers
over an ``int64`` emission-type column.

Determinism: counter-based word streams
---------------------------------------
The original generator drew from ``random.Random(<tag string>)``
sequences, which are inherently sequential — event *i*'s draw depends
on having consumed draws ``0..i-1``, so a segment of events cannot be
synthesized without replaying everything before it.  The fast path
(and the retained naive tracer, which is the byte-identity oracle)
instead draws from **counter-based Philox streams**:

* a stream is named by a role-qualified tag string; its 128-bit Philox
  key is the first 16 bytes of ``SHA-512(tag)`` — the same
  PYTHONHASHSEED-independent string-seed contract the ``random.Random``
  tags used;
* :func:`stream_words` returns words ``[start, stop)`` of the tag's
  infinite uint64 stream by seeking the Philox counter to the
  containing 4-word block — any slice costs O(slice), independent of
  its position;
* each per-event draw is **indexed**, not sequential: clock jitter by
  global event index, steady-state operation picks by steady ordinal,
  call-path picks by benign ordinal, beacon picks by beacon ordinal.

Indexed draws are what make sharded generation byte-identical for any
worker count: a segment ``[s, e)`` reads exactly the words its ordinals
name, wherever the segment boundaries fall (DESIGN.md §13).

One-shot draws (burst sizes/positions, payload encoding, image layout)
stay on ``random.Random(<tag>)`` — they are computed identically by
every engine and every worker before segmentation begins.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import AppSpec, Operation
from repro.attacks.infection import AttackInstance
from repro.attacks.payloads import PayloadOp
from repro.etw.events import EventColumns, StackFrame
from repro.winsys.process import SimulatedProcess
from repro.winsys.syscalls import SYSCALLS

#: numpy's Philox advances its counter once per 4 generated uint64 words.
WORDS_PER_BLOCK = 4

#: Clock jitter bounds (µs): identical to the tracer's historical
#: ``randrange(120, 2400)``.
CLOCK_JITTER_MIN = 120
CLOCK_JITTER_SPAN = 2280


# -- counter-based word streams ----------------------------------------


def philox_key(tag: str) -> int:
    """128-bit Philox key for a tag string: first 16 bytes of its
    SHA-512 digest (the string-seed contract, PYTHONHASHSEED-free)."""
    return int.from_bytes(
        hashlib.sha512(tag.encode("utf-8")).digest()[:16], "big"
    )


def stream_words(tag: str, start: int, stop: int) -> np.ndarray:
    """Words ``[start, stop)`` of ``tag``'s infinite uint64 stream.

    Seekable: the Philox counter is advanced to the containing 4-word
    block, so the cost is O(stop - start) regardless of ``start`` —
    the property that makes segment synthesis position-independent.
    """
    if stop <= start:
        return np.zeros(0, dtype=np.uint64)
    first_block, offset = divmod(start, WORDS_PER_BLOCK)
    n_blocks = -(-(stop - first_block * WORDS_PER_BLOCK) // WORDS_PER_BLOCK)
    bits = np.random.Philox(key=philox_key(tag), counter=first_block)
    raw = bits.random_raw(n_blocks * WORDS_PER_BLOCK)
    return raw[offset:offset + (stop - start)]


class WordStream:
    """Sequential scalar cursor over one tag's word stream — the naive
    tracer's side of the shared-draw contract (block-buffered so the
    per-draw cost is one list pop)."""

    __slots__ = ("tag", "_fetched", "_buf", "_chunk")

    def __init__(self, tag: str, chunk: int = 1024):
        self.tag = tag
        self._fetched = 0
        self._chunk = chunk
        self._buf: List[int] = []

    def next_word(self) -> int:
        if not self._buf:
            self._buf = stream_words(
                self.tag, self._fetched, self._fetched + self._chunk
            )[::-1].tolist()
            self._fetched += self._chunk
        return self._buf.pop()


class WordClock:
    """``randrange``-shaped adapter over a word stream, accepted by
    :class:`~repro.winsys.process.EventTracer` as its jitter source: the
    naive tracer and the vectorized fast path read the same words."""

    __slots__ = ("_stream",)

    def __init__(self, tag: str):
        self._stream = WordStream(tag)

    def randrange(self, lo: int, hi: int) -> int:
        return lo + self._stream.next_word() % (hi - lo)


def unit_floats(words: np.ndarray) -> np.ndarray:
    """Words → floats in [0, 1) with 53-bit precision (the standard
    ``>> 11`` construction, elementwise so scalar == vector)."""
    return (words >> np.uint64(11)) * (2.0 ** -53)


def jitter_from_words(words: np.ndarray) -> np.ndarray:
    """Per-event clock jitter from stream words (µs)."""
    return (
        CLOCK_JITTER_MIN + (words % np.uint64(CLOCK_JITTER_SPAN))
    ).astype(np.int64)


def pick_table(weights: Sequence[float]) -> Tuple[np.ndarray, float]:
    """Cumulative-weight table for :func:`pick_indices`."""
    cum = np.cumsum(np.asarray(list(weights), dtype=np.float64))
    return cum, float(cum[-1])


def pick_indices(
    cum: np.ndarray, total: float, words: np.ndarray
) -> np.ndarray:
    """Weighted picks from stream words (vector; clamped like
    ``random.choices`` so a unit float rounding up to 1.0 cannot index
    past the table)."""
    idx = np.searchsorted(cum, unit_floats(words) * total, side="right")
    return np.minimum(idx, len(cum) - 1)


def pick_index(cum: np.ndarray, total: float, word: int) -> int:
    """Scalar twin of :func:`pick_indices` (same code path, so equality
    is structural, not coincidental)."""
    return int(pick_indices(cum, total, np.array([word], dtype=np.uint64))[0])


# -- burst layout ------------------------------------------------------


@dataclass(frozen=True)
class BurstLayout:
    """Attack-burst placement of one session in global event indices.

    Computed once per session from one-shot ``random.Random`` draws (so
    it is identical in every engine and worker); everything downstream
    — masks, ordinals, labels, segment snapping — derives from it by
    arithmetic.
    """

    n_events: int
    n_startup: int
    n_steady: int
    n_shutdown: int
    #: global start index of each burst, ascending
    starts: np.ndarray
    #: events per burst
    sizes: np.ndarray

    @property
    def n_attack(self) -> int:
        return int(self.sizes.sum()) if len(self.sizes) else 0

    @property
    def ends(self) -> np.ndarray:
        return self.starts + self.sizes

    def attack_eids(self) -> np.ndarray:
        """Every attack event's global index, ascending."""
        if not len(self.starts):
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(
            [
                np.arange(start, start + size, dtype=np.int64)
                for start, size in zip(
                    self.starts.tolist(), self.sizes.tolist()
                )
            ]
        )

    def attack_count_before(self, pos: int) -> int:
        """Attack events strictly before global index ``pos``."""
        j = int(np.searchsorted(self.starts, pos, side="left"))
        before = int(self.sizes[:j].sum())
        if j > 0:
            overhang = int(self.ends[j - 1]) - pos
            if overhang > 0:
                before -= overhang
        return before

    def attack_mask(self, start: int, stop: int) -> np.ndarray:
        """Boolean mask over ``[start, stop)``: True on attack events."""
        mask = np.zeros(stop - start, dtype=bool)
        ends = self.ends
        j0 = int(np.searchsorted(ends, start, side="right"))
        j1 = int(np.searchsorted(self.starts, stop, side="left"))
        for j in range(j0, j1):
            lo = max(int(self.starts[j]), start)
            hi = min(int(ends[j]), stop)
            if lo < hi:
                mask[lo - start:hi - start] = True
        return mask


def build_burst_layout(
    n_events: int,
    n_startup: int,
    n_steady: int,
    n_shutdown: int,
    burst_sizes: Sequence[int],
    positions: Sequence[int],
) -> BurstLayout:
    """Global burst placement from steady-slot positions.

    Burst *j* sits immediately before steady slot ``positions[j]``
    (position ``n_steady`` means after the last steady event, before
    shutdown), so its global start is ``n_startup + positions[j] +
    sum(sizes[:j])``.
    """
    sizes = np.asarray(list(burst_sizes), dtype=np.int64)
    pos = np.asarray(list(positions), dtype=np.int64)
    cum = np.concatenate([[0], np.cumsum(sizes)[:-1]]) if len(sizes) else sizes
    starts = n_startup + pos + cum
    return BurstLayout(
        n_events=n_events,
        n_startup=n_startup,
        n_steady=n_steady,
        n_shutdown=n_shutdown,
        starts=starts,
        sizes=sizes,
    )


# -- emission tables ---------------------------------------------------


def _escape_template(text: str) -> str:
    return text.replace("%", "%%")


@dataclass
class EmissionTable:
    """Every distinct event a session can emit, pre-materialized.

    Row identity: benign rows first — one per (operation, call path),
    operations in ``startup + steady + shutdown`` declaration order —
    then one row per payload op (spec declaration order).  ``templates``
    render one event's full text block (EVENT line + STACK lines, each
    ``\\n``-terminated) via ``template % ((eid, ts) + (eid,) * arity)``
    — as UTF-8 **bytes** templates, so ``%`` substitutes ASCII digits
    directly into encoded bytes and the rendered log never exists as a
    Python ``str``.
    """

    process: str
    pid: int
    names: List[str]
    categories: List[str]
    opcodes: np.ndarray
    tids: np.ndarray
    walks: List[Tuple[StackFrame, ...]]
    templates: List[bytes]
    arities: np.ndarray
    # benign plan metadata (indices into the unified benign op list)
    startup_ops: np.ndarray
    shutdown_ops: np.ndarray
    steady_ops: np.ndarray
    steady_cum: np.ndarray
    steady_total: float
    op_base: np.ndarray
    op_npaths: np.ndarray
    # attack metadata (empty arrays when the session carries no payload)
    setup_types: np.ndarray
    beacon_types: np.ndarray
    beacon_cum: np.ndarray
    beacon_total: float


def _row_template(
    pid: int,
    process: str,
    tid: int,
    category: str,
    opcode: int,
    name: str,
    walk: Tuple[StackFrame, ...],
) -> bytes:
    parts = [
        "EVENT|%d|%d|"
        + _escape_template(
            f"{pid}|{process}|{tid}|{category}|{opcode}|{name}"
        )
        + "\n"
    ]
    for frame in walk:
        parts.append(
            "STACK|%d|"
            + _escape_template(
                f"{frame.index}|{frame.module}|{frame.function}|"
                f"0x{frame.address:x}"
            )
            + "\n"
        )
    return "".join(parts).encode("utf-8")


def build_emission_table(
    process: SimulatedProcess,
    app: AppSpec,
    instance: Optional[AttackInstance] = None,
) -> EmissionTable:
    """Materialize every emission row of one session.

    Walks are resolved through the live (possibly trojaned/injected)
    process exactly as the per-event tracer would resolve them, but once
    per row instead of once per event.
    """
    names: List[str] = []
    categories: List[str] = []
    opcodes: List[int] = []
    tids: List[int] = []
    walks: List[Tuple[StackFrame, ...]] = []
    templates: List[bytes] = []

    def add_row(
        name: str, syscall_key: str, app_path, tid: Optional[int]
    ) -> int:
        spec = SYSCALLS[syscall_key]
        walk = process.walk(app_path, spec)
        row_tid = process.main_tid if tid is None else tid
        names.append(name)
        categories.append(spec.category)
        opcodes.append(spec.opcode)
        tids.append(row_tid)
        walks.append(walk)
        templates.append(
            _row_template(
                process.pid,
                process.name,
                row_tid,
                spec.category,
                spec.opcode,
                name,
                walk,
            )
        )
        return len(names) - 1

    startup = app.ops_in_phase("startup")
    steady = app.ops_in_phase("steady")
    shutdown = app.ops_in_phase("shutdown")
    benign_ops: List[Operation] = [*startup, *steady, *shutdown]
    op_base: List[int] = []
    op_npaths: List[int] = []
    for op in benign_ops:
        op_base.append(len(names))
        op_npaths.append(len(op.paths))
        for path in op.paths:
            add_row(
                op.name,
                op.syscall,
                [(app.exe, function) for function in path],
                None,
            )

    setup_types: List[int] = []
    beacon_types: List[int] = []
    beacon_weights: List[float] = []
    if instance is not None:
        for op in instance.build.spec.setup_ops():
            setup_types.append(
                add_row(op.name, op.syscall, instance.app_path(op), instance.tid)
            )
        for op in instance.build.spec.beacon_ops():
            beacon_types.append(
                add_row(op.name, op.syscall, instance.app_path(op), instance.tid)
            )
            beacon_weights.append(op.weight)

    n_startup = len(startup)
    n_steady_ops = len(steady)
    steady_cum, steady_total = pick_table(
        [op.weight for op in steady]
    ) if steady else (np.zeros(0), 0.0)
    beacon_cum, beacon_total = pick_table(beacon_weights) if (
        beacon_weights
    ) else (np.zeros(0), 0.0)
    return EmissionTable(
        process=process.name,
        pid=process.pid,
        names=names,
        categories=categories,
        opcodes=np.asarray(opcodes, dtype=np.int64),
        tids=np.asarray(tids, dtype=np.int64),
        walks=walks,
        templates=templates,
        arities=np.asarray([len(walk) for walk in walks], dtype=np.int64),
        startup_ops=np.arange(n_startup, dtype=np.int64),
        shutdown_ops=np.arange(
            n_startup + n_steady_ops, len(benign_ops), dtype=np.int64
        ),
        steady_ops=np.arange(
            n_startup, n_startup + n_steady_ops, dtype=np.int64
        ),
        steady_cum=steady_cum,
        steady_total=steady_total,
        op_base=np.asarray(op_base, dtype=np.int64),
        op_npaths=np.asarray(op_npaths, dtype=np.int64),
        setup_types=np.asarray(setup_types, dtype=np.int64),
        beacon_types=np.asarray(beacon_types, dtype=np.int64),
        beacon_cum=beacon_cum,
        beacon_total=beacon_total,
    )


# -- session synthesis -------------------------------------------------


@dataclass
class SessionSynth:
    """One session's deterministic column synthesizer.

    ``columns(s, e)`` materializes any half-open segment of the session
    independently of every other segment — segment workers need only
    this object's (small, picklable) state.
    """

    table: EmissionTable
    layout: BurstLayout
    clock_tag: str
    op_tag: str
    path_tag: str
    beacon_tag: str

    @property
    def n_events(self) -> int:
        return self.layout.n_events

    def type_ids(self, start: int, stop: int) -> np.ndarray:
        """Emission-type id of every event in ``[start, stop)``."""
        table, layout = self.table, self.layout
        n = stop - start
        out = np.empty(n, dtype=np.int64)
        attack = layout.attack_mask(start, stop)
        benign_pos = np.flatnonzero(~attack)
        attack_pos = np.flatnonzero(attack)

        # Benign events: ordinals are consecutive across the segment.
        if len(benign_pos):
            first_ord = (start - layout.attack_count_before(start)) + 0
            ords = first_ord + np.arange(len(benign_pos), dtype=np.int64)
            op_idx = np.empty(len(ords), dtype=np.int64)
            n_startup = len(table.startup_ops)
            n_steady = layout.n_steady
            in_startup = ords < n_startup
            in_steady = (~in_startup) & (ords < n_startup + n_steady)
            in_shutdown = ords >= n_startup + n_steady
            if in_startup.any():
                op_idx[in_startup] = table.startup_ops[ords[in_startup]]
            if in_steady.any():
                steady_ords = ords[in_steady] - n_startup
                words = stream_words(
                    self.op_tag,
                    int(steady_ords[0]),
                    int(steady_ords[-1]) + 1,
                )
                op_idx[in_steady] = table.steady_ops[
                    pick_indices(table.steady_cum, table.steady_total, words)
                ]
            if in_shutdown.any():
                op_idx[in_shutdown] = table.shutdown_ops[
                    ords[in_shutdown] - n_startup - n_steady
                ]
            # One path word per benign event, multi-path or not, so the
            # path stream stays indexable by benign ordinal.
            path_words = stream_words(
                self.path_tag, int(ords[0]), int(ords[-1]) + 1
            )
            path_idx = (
                path_words % table.op_npaths[op_idx].astype(np.uint64)
            ).astype(np.int64)
            out[benign_pos] = table.op_base[op_idx] + path_idx

        # Attack events: ordinals are likewise consecutive.
        if len(attack_pos):
            first_ord = layout.attack_count_before(start) + 0
            ords = first_ord + np.arange(len(attack_pos), dtype=np.int64)
            n_setup = len(table.setup_types)
            in_setup = ords < n_setup
            atk = np.empty(len(ords), dtype=np.int64)
            if in_setup.any():
                atk[in_setup] = table.setup_types[ords[in_setup]]
            in_beacon = ~in_setup
            if in_beacon.any():
                beacon_ords = ords[in_beacon] - n_setup
                words = stream_words(
                    self.beacon_tag,
                    int(beacon_ords[0]),
                    int(beacon_ords[-1]) + 1,
                )
                atk[in_beacon] = table.beacon_types[
                    pick_indices(table.beacon_cum, table.beacon_total, words)
                ]
            out[attack_pos] = atk
        return out

    def clock_base(self, pos: int) -> int:
        """Clock value after the first ``pos`` events (sum of their
        jitters); O(pos) but fully vectorized."""
        if pos <= 0:
            return 0
        return int(
            jitter_from_words(stream_words(self.clock_tag, 0, pos)).sum()
        )

    def timestamps(
        self, start: int, stop: int, clock_base: Optional[int] = None
    ) -> np.ndarray:
        """Event timestamps for ``[start, stop)`` (µs, cumulative)."""
        if clock_base is None:
            clock_base = self.clock_base(start)
        jitter = jitter_from_words(stream_words(self.clock_tag, start, stop))
        return clock_base + np.cumsum(jitter)

    def columns(
        self, start: int, stop: int, clock_base: Optional[int] = None
    ) -> "SegmentColumns":
        type_ids = self.type_ids(start, stop)
        return SegmentColumns(
            start=start,
            type_ids=type_ids,
            timestamps=self.timestamps(start, stop, clock_base),
        )

    def synthesize(self) -> "SegmentColumns":
        return self.columns(0, self.n_events, clock_base=0)


@dataclass
class SegmentColumns:
    """Synthesized per-event columns of one contiguous segment."""

    start: int
    type_ids: np.ndarray
    timestamps: np.ndarray

    def __len__(self) -> int:
        return len(self.type_ids)


def segment_bounds(
    layout: BurstLayout, segment_events: int
) -> List[Tuple[int, int]]:
    """Half-open segment bounds covering the session, each boundary
    snapped forward past any attack burst it would split — bursts never
    span segments, so a rendered segment is a self-contained block of
    whole bursts and benign runs."""
    n = layout.n_events
    if segment_events <= 0:
        raise ValueError("segment_events must be positive")
    cuts = [0]
    ends = layout.ends
    for raw in range(segment_events, n, segment_events):
        j = int(np.searchsorted(layout.starts, raw, side="left"))
        if j > 0 and raw < int(ends[j - 1]):
            raw = int(ends[j - 1])
        if cuts[-1] < raw < n:
            cuts.append(raw)
    cuts.append(n)
    return list(zip(cuts, cuts[1:]))


# -- sinks: text rendering and event columns ---------------------------


def render_text(
    templates: Sequence[bytes],
    arities: Sequence[int],
    type_ids: np.ndarray,
    timestamps: np.ndarray,
    start_eid: int,
) -> bytes:
    """Render one segment to raw-log bytes — byte-identical to
    ``serialize_events`` over the equivalent ``EventRecord`` list.
    Templates are UTF-8 bytes: ``bytes.__mod__`` substitutes the ints
    as ASCII digits, so nothing is re-encoded afterwards."""
    parts: List[bytes] = []
    append = parts.append
    arity_list = [int(a) for a in arities]
    for offset, (type_id, timestamp) in enumerate(
        zip(type_ids.tolist(), timestamps.tolist())
    ):
        eid = start_eid + offset
        append(
            templates[type_id]
            % ((eid, timestamp) + (eid,) * arity_list[type_id])
        )
    return b"".join(parts)


def render_segment_job(job) -> bytes:
    """Pool-friendly wrapper: one tuple in, one rendered chunk out."""
    templates, arities, type_ids, timestamps, start_eid = job
    return render_text(templates, arities, type_ids, timestamps, start_eid)


def to_event_columns(
    table: EmissionTable,
    type_ids: np.ndarray,
    timestamps: np.ndarray,
) -> EventColumns:
    """Assemble an :class:`EventColumns` for the capture writer: the
    category, name and walk ids are the emission type ids themselves,
    over the table's per-type lists (the chunk encoder interns the
    distinct values in first-appearance order)."""
    n = len(type_ids)
    type_ids = np.asarray(type_ids, dtype=np.int64)
    cols = EventColumns()
    cols.n_events = n
    cols.eid = np.arange(n, dtype=np.int64)
    cols.timestamp = np.asarray(timestamps, dtype=np.int64)
    cols.pid = np.full(n, table.pid, dtype=np.int64)
    cols.tid = table.tids[type_ids]
    cols.opcode = table.opcodes[type_ids]
    cols.process_vocab = [table.process]
    cols.process_id = np.zeros(n, dtype=np.int64)
    cols.category_id = cols.name_id = cols.walk_id = type_ids
    cols.category_vocab = table.categories
    cols.name_vocab = table.names
    cols.walks = table.walks
    return cols
