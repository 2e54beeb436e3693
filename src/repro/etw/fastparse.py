"""Vectorized cold-path text parser: bulk splits instead of per-line work.

:func:`parse_fast` produces exactly what draining
:func:`repro.etw.parser.iter_parse` over the same lines produces —
same :class:`EventRecord` list, same :class:`ParseReport` accounting,
same exceptions — but parses *clean* logs through bulk columnar
operations instead of the scalar parser's per-line state machine:

1. one ``str.split`` over the whole text for line boundaries
   (``\\n``/``\\r\\n`` only, matching
   :func:`~repro.etw.parser.split_log_text`);
2. a single lean tag-classification pass, then C-driven comprehensions
   that split each record tag's lines into columns and convert the
   numeric columns with the *same* ``int()`` the scalar parser uses;
3. numpy over the resulting integer columns for the stack–event
   correlation checks: every STACK line's eid must match its owning
   EVENT's and its frame index must equal its offset in the block
   (one ``searchsorted`` + two array comparisons instead of a quarter
   million Python branches).

``np.char``-style fixed-width string arrays are deliberately **not**
used: building a unicode array from a million Python lines costs more
than the whole scalar parse, and numpy strips trailing NULs from such
arrays, which would silently corrupt pathological field values.

**Any** anomaly — an unknown tag, a wrong field count, a non-numeric
field, a correlation mismatch, undecodable bytes, a suspect truncated
tail, a ``\\r`` anywhere in the input — abandons the fast path *before
touching the caller's report* and re-parses everything through the
scalar ``iter_parse``, so the strict/warn/drop recovery semantics are
the scalar parser's own, not a reimplementation.  The fast path
therefore only ever handles logs it can prove are perfectly clean and
complete.

Frame objects come from the parser's process-wide intern table
(:func:`repro.etw.parser.intern_frame`), so downstream featurization
memos hit on object identity exactly as they do after a scalar parse.
"""

from __future__ import annotations

import gc
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.etw.events import (
    EventColumns,
    EventLog,
    EventRecord,
    StackFrame,
    first_appearance_ids,
)
from repro.etw.parser import (
    PARSE_POLICIES,
    LogLine,
    ParseMachine,
    intern_frame,
    iter_parse,
)
from repro.etw.recovery import ParseReport

_EVENT_FIELDS = 9
_STACK_FIELDS = 6


class _Fallback(Exception):
    """Internal: the fast path met something only the scalar parser can
    classify; no observable state has been touched yet."""


def _scalar(
    lines: Iterable[LogLine],
    policy: str,
    report: Optional[ParseReport],
    require_complete_tail: bool,
) -> List[EventRecord]:
    return list(
        iter_parse(
            lines,
            policy=policy,
            report=report,
            require_complete_tail=require_complete_tail,
        )
    )


def _decode_lines(data: bytes) -> List[LogLine]:
    raw_lines = data.split(b"\n")
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    lines: List[LogLine] = []
    for raw in raw_lines:
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(raw)
    return lines


def _columns(lines: List[str], n_fields: int) -> List[List[str]]:
    """Columnize record lines without a per-line split: verify every
    line has exactly ``n_fields - 1`` pipes (which makes the flat
    ``join().split`` below provably aligned), then stride-slice the one
    flat field list into columns — all C-level passes."""
    n_pipes = n_fields - 1
    if any(line.count("|") != n_pipes for line in lines):
        raise _Fallback
    fields = "|".join(lines).split("|")
    return [fields[start::n_fields] for start in range(n_fields)]


def _ints(column: Sequence[str]) -> List[int]:
    # The same int() the scalar parser applies per field, so accepted
    # spellings ("007", "+3", unicode digits) stay bit-for-bit identical.
    try:
        return [int(value) for value in column]
    except ValueError:
        raise _Fallback from None


def parse_fast(
    source: Union[str, bytes, Sequence[LogLine]],
    *,
    policy: str = "strict",
    report: Optional[ParseReport] = None,
    require_complete_tail: bool = False,
    columns: bool = False,
) -> List[EventRecord]:
    """Parse raw log text (or a line sequence) into events, fast.

    Equivalent to ``list(iter_parse(lines, ...))`` for every input and
    policy — identical events, reports, and exceptions — via the bulk
    fast path when the log is clean and the scalar parser otherwise.
    ``bytes`` input additionally mirrors
    :func:`~repro.etw.parser.read_log_lines`: undecodable lines reach
    the parser as raw ``bytes`` for ``BAD_ENCODING`` classification.

    With ``columns=True`` the fast path additionally builds the
    :class:`~repro.etw.events.EventColumns` sidecar (vocabulary ids and
    interned walks, assembled for a few dict lookups per event while
    the build loop is hot) and returns an
    :class:`~repro.etw.events.EventLog` carrying it — the capture
    writer's fast input.  Inputs that fall back to the scalar parser
    return without a sidecar; consumers must treat the sidecar as
    optional.
    """
    if policy not in PARSE_POLICIES:
        raise ValueError(
            f"unknown parse policy {policy!r}; expected one of {PARSE_POLICIES}"
        )

    if isinstance(source, bytes):
        data = source.replace(b"\r\n", b"\n")
        try:
            source = data.decode("utf-8")
        except UnicodeDecodeError:
            return _scalar(
                _decode_lines(data), policy, report, require_complete_tail
            )
        # already normalized; the str branch's replace is a no-op
    if isinstance(source, str):
        text = source.replace("\r\n", "\n")
        lines: Sequence[LogLine] = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        # A lone \r is field content to the scalar parser (classified
        # BAD_FIELD via the EventRecord delimiter check) — scalar owns it.
        clean = "\r" not in text
    else:
        # The scalar parser rstrips "\n" per line (idempotent), so
        # pre-stripping here changes nothing for the fallback either.
        try:
            lines = [
                line.rstrip("\n") if isinstance(line, str) else line
                for line in source
            ]
        except (TypeError, AttributeError):
            return _scalar(source, policy, report, require_complete_tail)
        clean = not any(
            isinstance(line, str) and "\r" in line for line in lines
        )

    events = None
    if clean:
        # The bulk passes allocate millions of short-lived containers;
        # generational GC rescanning them mid-parse costs more than the
        # parse itself, so pause collection for the duration.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            events, n_blank = _parse_clean(lines, columns=columns)
        except _Fallback:
            events = None
        finally:
            if gc_was_enabled:
                gc.enable()
    if events is None:
        return _scalar(lines, policy, report, require_complete_tail)

    if report is not None:
        report.total_lines += len(lines)
        report.blank_lines += n_blank
        report.consumed_lines += len(lines) - n_blank
        report.events_yielded += len(events)
    return events


def _parse_clean(
    lines: Sequence[LogLine],
    check_tail: bool = True,
    columns: bool = False,
) -> "tuple[List[EventRecord], int]":
    """The fast path proper: raises :class:`_Fallback` on any line the
    scalar parser would classify.  Input lines must already be free of
    ``\\n``/``\\r`` (the caller guarantees it).

    ``check_tail=False`` skips the truncated-tail heuristic — only valid
    when the caller *knows* the final block is complete, i.e. for a
    streaming region cut immediately before the next ``EVENT`` line
    (:class:`StreamingParser`); end-of-input always checks.

    ``columns=True`` builds the :class:`EventColumns` sidecar in the
    same build loop and returns an :class:`EventLog` carrying it."""
    # -- classification pass: tag per line, nonblank positions ---------
    event_lines: List[str] = []
    stack_lines: List[str] = []
    event_pos: List[int] = []
    stack_pos: List[int] = []
    n_blank = 0
    position = 0
    add_event, add_stack = event_lines.append, stack_lines.append
    add_epos, add_spos = event_pos.append, stack_pos.append
    for line in lines:
        tag = line[:6]
        if tag == "EVENT|":
            add_event(line)
            add_epos(position)
            position += 1
        elif tag == "STACK|":
            add_stack(line)
            add_spos(position)
            position += 1
        elif isinstance(line, str) and not line.strip():
            n_blank += 1
        else:
            # unknown tag, short EVENT/STACK prefix, or a bytes line
            raise _Fallback
    if not event_lines:
        if stack_lines:
            raise _Fallback  # orphan stacks; scalar classifies them
        if columns:
            empty = EventLog()
            empty.columns = EventColumns()
            return empty, n_blank
        return [], n_blank
    if stack_pos and stack_pos[0] < event_pos[0]:
        raise _Fallback  # stack walk before the first event

    # -- columnize + integer conversion --------------------------------
    ecols = _columns(event_lines, _EVENT_FIELDS)
    eids = _ints(ecols[1])
    timestamps = _ints(ecols[2])
    pids = _ints(ecols[3])
    tids = _ints(ecols[5])
    opcodes = _ints(ecols[7])

    # -- stack–event correlation, vectorized ---------------------------
    epos_arr = np.array(event_pos, dtype=np.int64)
    if stack_lines:
        scols = _columns(stack_lines, _STACK_FIELDS)
        stack_eids = np.array(_ints(scols[1]), dtype=np.int64)
        stack_idx = np.array(_ints(scols[2]), dtype=np.int64)
        spos_arr = np.array(stack_pos, dtype=np.int64)
        owner = np.searchsorted(epos_arr, spos_arr, side="right") - 1
        eid_arr = np.array(eids, dtype=np.int64)
        if (stack_eids != eid_arr[owner]).any():
            raise _Fallback
        if (stack_idx != spos_arr - epos_arr[owner] - 1).any():
            raise _Fallback
        frames = _frame_objects(scols)
    else:
        frames = []

    # per-event stack depth: every nonblank line between two EVENT lines
    # belongs to the first (proven by the index-contiguity check above)
    depths = np.diff(np.append(epos_arr, position)) - 1
    if check_tail:
        _check_tail(ecols, opcodes, depths)

    # -- build the records --------------------------------------------
    offsets = np.concatenate([[0], np.cumsum(depths)]).tolist()
    if columns:
        return _build_with_columns(
            eids, timestamps, pids, tids, opcodes, ecols, frames, offsets
        ), n_blank
    events: List[EventRecord] = []
    append = events.append
    new = EventRecord.__new__
    # Field values came out of a pipe split of newline-split CR-free
    # text, so the _check_field invariants hold by construction and
    # __init__ can be bypassed.
    for index, (eid, timestamp, pid, process, tid, category, opcode, name) in (
        enumerate(
            zip(
                eids, timestamps, pids, ecols[4], tids,
                ecols[6], opcodes, ecols[8],
            )
        )
    ):
        record = new(EventRecord)
        record.eid = eid
        record.timestamp = timestamp
        record.pid = pid
        record.process = process
        record.tid = tid
        record.category = category
        record.opcode = opcode
        record.name = name
        record.frames = tuple(frames[offsets[index] : offsets[index + 1]])
        append(record)
    return events, n_blank


def _build_with_columns(
    eids: List[int],
    timestamps: List[int],
    pids: List[int],
    tids: List[int],
    opcodes: List[int],
    ecols: List[List[str]],
    frames: List[StackFrame],
    offsets: List[int],
) -> EventLog:
    """The record build loop with the :class:`EventColumns` sidecar:
    identical records (same bypassed-``__init__`` construction), plus
    interned walk tuples assembled while the loop already holds every
    field, and the vocabulary ids of the string columns.  Repeated walks
    share one tuple object — the interning that makes the capture
    writer's id-based dedup an O(1)-per-event dict hit instead of a
    per-frame hash."""
    cols = EventColumns()
    cols.eid = eids
    cols.timestamp = timestamps
    cols.pid = pids
    cols.tid = tids
    cols.opcode = opcodes
    cols.process_id, cols.process_vocab = first_appearance_ids(ecols[4])
    cols.category_id, cols.category_vocab = first_appearance_ids(ecols[6])
    cols.name_id, cols.name_vocab = first_appearance_ids(ecols[8])
    walks = cols.walks
    wtable: dict = {}
    # Walks are looked up by the identities of their interned frames —
    # a tuple of ints hashes in C, where a tuple of frames calls
    # StackFrame.__hash__ per frame — and only a new identity tuple is
    # checked against the equality-keyed table.
    frame_ids = list(map(id, frames))
    id_table: dict = {}
    add_wid = cols.walk_id.append
    records: List[EventRecord] = []
    append = records.append
    new = EventRecord.__new__
    for index, (eid, timestamp, pid, process, tid, category, opcode, name) in (
        enumerate(
            zip(
                eids, timestamps, pids, ecols[4], tids,
                ecols[6], opcodes, ecols[8],
            )
        )
    ):
        record = new(EventRecord)
        record.eid = eid
        record.timestamp = timestamp
        record.pid = pid
        record.process = process
        record.tid = tid
        record.category = category
        record.opcode = opcode
        record.name = name
        start, stop = offsets[index], offsets[index + 1]
        key = tuple(frame_ids[start:stop])
        walk_index = id_table.get(key)
        if walk_index is None:
            walk = tuple(frames[start:stop])
            walk_index = wtable.get(walk)
            if walk_index is None:
                walk_index = len(walks)
                wtable[walk] = walk_index
                walks.append(walk)
            id_table[key] = walk_index
        record.frames = walks[walk_index]
        append(record)
        add_wid(walk_index)
    events = EventLog(records)
    cols.n_events = len(events)
    events.columns = cols
    return events


def _frame_objects(scols: List[List[str]]) -> List[StackFrame]:
    """Interned StackFrames for every stack line, memoized per distinct
    field tuple (stack walks are massively repetitive)."""
    memo: dict = {}
    frames: List[StackFrame] = []
    append = frames.append
    try:
        for fields in zip(scols[2], scols[3], scols[4], scols[5]):
            frame = memo.get(fields)
            if frame is None:
                index_str, module, function, address_str = fields
                frame = intern_frame(
                    int(index_str), module, function, int(address_str, 16)
                )
                memo[fields] = frame
            append(frame)
    except ValueError:
        raise _Fallback from None
    return frames


def _check_tail(
    ecols: List[List[str]],
    opcodes: List[int],
    depths: np.ndarray,
) -> None:
    """Raise :class:`_Fallback` when the scalar truncated-tail heuristic
    would fire: the final walk is shallower than *every* earlier walk of
    the same etype.  Suspect tails take the scalar path — it owns the
    report/raise semantics for them."""
    n_events = len(opcodes)
    if n_events < 2:
        return
    categories, names = ecols[6], ecols[8]
    last_etype = (categories[-1], opcodes[-1], names[-1])
    last_depth = int(depths[-1])
    depth_list = depths.tolist()
    for position in range(n_events - 1):
        if (
            depth_list[position] <= last_depth
            and (categories[position], opcodes[position], names[position])
            == last_etype
        ):
            return  # an earlier walk at or below the tail's depth
    for position in range(n_events - 1):
        if (categories[position], opcodes[position], names[position]) == (
            last_etype
        ):
            raise _Fallback  # every same-etype walk is deeper: suspect


class StreamingParser:
    """Incremental :func:`parse_fast`: feed a live stream's lines in
    arbitrary chunks, get completed events back, bit-identically to one
    scalar parse of the whole stream.

    ``scan_stream`` and the serving workers keep one of these per
    stream.  Clean input goes through the same bulk columnar machinery
    as :func:`parse_fast`, one *region* at a time (a region's events
    carry the column sidecar, as ``parse_fast(..., columns=True)``
    returns it): fed lines accumulate in
    a holdback list, and whenever a new ``EVENT`` line arrives the lines
    *before* the last one — whole, provably complete stack blocks — are
    bulk-parsed, while the potentially still-growing final block stays
    held.  Regions skip the truncated-tail heuristic (their last block
    is complete by construction); :meth:`finish` scalar-feeds the
    holdback and runs the real end-of-input tail logic via the shared
    :class:`~repro.etw.parser.ParseMachine`.

    The first line a bulk region cannot prove clean flips the stream
    permanently to scalar mode — every subsequent line goes through
    ``ParseMachine.feed`` — so strict/warn/drop recovery semantics,
    report accounting, and error line numbers are the scalar parser's
    own.  A stream that never shows an ``EVENT`` line is bounded by
    ``backlog_limit``: past it, the stream goes scalar rather than
    buffering without bound.
    """

    #: holdback bound (lines) for streams that never start an event
    BACKLOG_LIMIT = 65536

    def __init__(
        self,
        policy: str = "strict",
        report: Optional[ParseReport] = None,
        require_complete_tail: bool = False,
        backlog_limit: int = BACKLOG_LIMIT,
    ):
        self.machine = ParseMachine(
            policy=policy,
            report=report,
            require_complete_tail=require_complete_tail,
        )
        self.report = self.machine.report
        self.backlog_limit = backlog_limit
        self._holdback: List[LogLine] = []
        #: every holdback line is known \r-free str (set by cr_free feeds)
        self._holdback_cr_free = True
        self._scalar_mode = False
        self._finished = False

    @property
    def scalar_mode(self) -> bool:
        """True once the stream has permanently left the bulk fast path."""
        return self._scalar_mode

    def feed_lines(
        self, lines: Sequence[LogLine], cr_free: bool = False
    ) -> List[EventRecord]:
        """Feed the next chunk of (already newline-split, ``\\r\\n``-
        normalized) lines; returns the events they completed.  Strict
        mode raises :class:`~repro.etw.parser.ParseError` exactly as the
        scalar parser would, with matching line numbers.

        ``cr_free=True`` asserts every line is a ``str`` with no ``\\r``
        anywhere (the byte-fed serving path proves this with one C-speed
        scan of the decoded region), letting the bulk gate skip its
        per-line re-scan."""
        if self._finished:
            raise RuntimeError("feed_lines() after finish()")
        if self._scalar_mode:
            return self._feed_scalar(lines)
        cut = None
        for position in range(len(lines) - 1, -1, -1):
            line = lines[position]
            if isinstance(line, str) and line.startswith("EVENT|"):
                cut = position
                break
        if cut is None:
            if not lines:
                return []
            self._holdback.extend(lines)
            self._holdback_cr_free = self._holdback_cr_free and cr_free
            if len(self._holdback) > self.backlog_limit:
                self._scalar_mode = True
                held, self._holdback = self._holdback, []
                return self._feed_scalar(held)
            return []
        region = self._holdback + list(lines[:cut])
        region_cr_free = self._holdback_cr_free and cr_free
        self._holdback = list(lines[cut:])
        self._holdback_cr_free = cr_free
        if not region:
            return []
        return self._bulk_region(region, cr_free=region_cr_free)

    def finish(self) -> List[EventRecord]:
        """End of stream: drain the holdback through the scalar machine
        and run the real truncated-tail logic.  Returns the final
        events, if any."""
        if self._finished:
            return []
        self._finished = True
        held, self._holdback = self._holdback, []
        out = self._feed_scalar(held)
        event = self.machine.finish()
        if event is not None:
            out.append(event)
        return out

    def _feed_scalar(self, lines: Sequence[LogLine]) -> List[EventRecord]:
        out: List[EventRecord] = []
        feed = self.machine.feed
        for raw in lines:
            event = feed(raw)
            if event is not None:
                out.append(event)
        return out

    def _bulk_region(
        self, region: List[LogLine], cr_free: bool = False
    ) -> List[EventRecord]:
        # The machine is virgin here (bulk mode never leaves an open
        # block in it), so the region starts at a block boundary.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # A lone \r is field content only the scalar parser can
            # classify — same gate as parse_fast.  A cr_free region was
            # already proven clean by the caller's whole-buffer scan.
            if not cr_free and any(
                isinstance(line, str) and "\r" in line for line in region
            ):
                raise _Fallback
            events, n_blank = _parse_clean(region, check_tail=False, columns=True)
        except _Fallback:
            self._scalar_mode = True
            out = self._feed_scalar(region)
            held, self._holdback = self._holdback, []
            out.extend(self._feed_scalar(held))
            return out
        finally:
            if gc_was_enabled:
                gc.enable()
        report = self.machine.report
        report.total_lines += len(region)
        report.blank_lines += n_blank
        report.consumed_lines += len(region) - n_blank
        self.machine.observe_bulk_events(events)
        self.machine.lineno += len(region)
        return events
