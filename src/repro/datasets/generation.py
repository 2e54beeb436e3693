"""Deterministic scenario generation: catalog specs → log triples.

For each :class:`~repro.datasets.catalog.DatasetSpec` the generator
produces the paper's experimental unit (DESIGN.md §13):

* ``benign.log`` — a clean single-app trace (training first half,
  held-out test second half);
* ``mixed.log`` — the same app trojaned/injected with payload **build
  A**, attack bursts interleaved into benign traffic at a low rate
  (the "user keeps working while the implant beacons" picture);
* ``malicious.log`` — payload **build B** (a fresh polymorphic
  rebuild: new symbols, new addresses) at high density — the
  camouflaged attack the detector must flag despite never having seen
  this build's app-space signatures;
* ``labels.json`` — exact per-event ground truth: every attack eid of
  every log, plus the build identifiers and generation parameters.

Two engines, one output
-----------------------
``engine="fast"`` (default) synthesizes sessions as numpy columns via
:mod:`repro.datasets.fastgen` and writes text/captures from column
blocks; ``engine="naive"`` replays the original per-event tracer.  The
naive engine is retained as the byte-identity oracle: for any
``(spec, seed, sizes)`` both
engines write byte-identical logs, captures, and labels, for any
``n_jobs`` — ``tests/test_fastgen.py`` and ``benchmarks/bench_table1.py``
enforce it.

Determinism contract
--------------------
Byte-identical output for a fixed ``(name, seed)`` across interpreter
processes, platforms, engines, and worker counts:

* per-event draws (clock jitter, steady-op picks, call-path picks,
  beacon picks) come from counter-based Philox word streams keyed by
  SHA-512 of role-qualified tag strings and **indexed by ordinal**
  (event index / steady ordinal / benign ordinal / beacon ordinal), so
  any segment of a session reads exactly its own words — see
  :mod:`repro.datasets.fastgen`;
* one-shot draws (burst sizes and positions, payload encoding, image
  layout) still flow from ``random.Random(<string>)`` instances seeded
  with role-qualified strings (string seeding hashes via SHA-512
  inside CPython, independent of ``PYTHONHASHSEED``) and are computed
  identically by every engine and worker;
* builtin ``hash()`` is never used (the bug that sank
  ``benchmarks/synth.py``);
* files are written via binary handles with ``\\n`` separators, so no
  platform newline translation applies.

``tests/test_datasets.py`` enforces the contract by generating the
same dataset in two fresh subprocess interpreters with different
``PYTHONHASHSEED`` values and comparing bytes.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.apps import APPS
from repro.apps.base import AppSpec
from repro.attacks.metasploit import deliver, msfvenom
from repro.datasets.catalog import CATALOG, DatasetSpec
from repro.datasets.fastgen import (
    BurstLayout,
    SessionSynth,
    WordClock,
    WordStream,
    build_burst_layout,
    build_emission_table,
    pick_index,
    pick_table,
    render_segment_job,
    segment_bounds,
    to_event_columns,
)
from repro.etw.capture import CAPTURE_SUFFIX, write_capture, write_capture_columns
from repro.etw.events import EventRecord
from repro.etw.parser import serialize_events
from repro.winsys.process import EventTracer, WindowsMachine

#: labels.json schema identifier.
LABELS_SCHEMA = "leaps-dataset/v1"

#: Attack-event fraction of the mixed (training) log.
MIXED_ATTACK_RATE = 0.3
#: Attack-event fraction of the malicious (scan) log.
MALICIOUS_ATTACK_RATE = 0.8
#: Attack events arrive in sustained bursts of this size range (an
#: interactive beacon session, not single stray events).  Long bursts
#: matter twice over: scan windows inside one are payload-dense, and
#: the benign gaps *between* them are long enough that the mixed log
#: is full of pure-benign windows carrying the malicious label — the
#: mislabeled noise whose weight Algorithm 2 removes and whose drag on
#: the plain SVM the paper's Figure 5 illustrates.
BURST_EVENTS = (16, 32)

#: Default log sizes (events), matching the golden captures' scale.
DEFAULT_TRAIN_EVENTS = 4000
DEFAULT_SCAN_EVENTS = 2000

LOG_NAMES = ("benign.log", "mixed.log", "malicious.log")

OUTPUT_FORMATS = ("text", "capture", "both")
ENGINES = ("fast", "naive")
EXECUTORS = ("process", "thread")

#: Events per render segment on the fast path — small enough that text
#: output streams in bounded chunks, large enough that per-segment
#: overhead (stream seeks, pool dispatch) stays negligible.
SEGMENT_EVENTS = 8192


@dataclass(frozen=True)
class GeneratedLog:
    """One written log plus its exact ground truth."""

    path: Path
    n_events: int
    attack_eids: Tuple[int, ...]
    build_id: str = ""
    #: the ``.leapscap`` twin (``format="capture"|"both"``), else None
    capture_path: Optional[Path] = None


@dataclass(frozen=True)
class GeneratedDataset:
    spec: DatasetSpec
    seed: int
    root: Path
    logs: Mapping[str, GeneratedLog]

    @property
    def labels_path(self) -> Path:
        return self.root / "labels.json"

    def log_paths(self) -> Dict[str, Path]:
        return {name: log.path for name, log in self.logs.items()}


class ScenarioGenerator:
    """Deterministic generator for one dataset's scenario.

    One instance owns one simulated machine (so app and system layout
    are shared by all three logs — the benign half of a trojaned trace
    must match the clean trace symbol-for-symbol) and derives every
    RNG stream from role-qualified tags under ``(dataset, seed)``.
    """

    def __init__(self, spec: DatasetSpec, seed: Union[int, str]):
        self.spec = spec
        self.seed = seed
        self.app: AppSpec = APPS[spec.app]
        self.machine = WindowsMachine(self._tag("machine"))

    def _tag(self, *parts: str) -> str:
        return ":".join(
            ("leaps-scenario", self.spec.name, f"s{self.seed}") + parts
        )

    def _rng(self, *parts: str) -> random.Random:
        return random.Random(self._tag(*parts))

    # -- shared planning ----------------------------------------------
    def _spawn(self):
        return self.machine.spawn(
            self.app.exe, self.app.functions, image_size=self.app.image_size
        )

    def _phase_sizes(self) -> Tuple[int, int]:
        return (
            len(self.app.ops_in_phase("startup")),
            len(self.app.ops_in_phase("shutdown")),
        )

    def benign_layout(self, n_events: int) -> BurstLayout:
        """Burst-free layout of a clean trace (the count is clamped up
        to fit the scripted startup/shutdown phases)."""
        n_startup, n_shutdown = self._phase_sizes()
        n_steady = max(0, n_events - n_startup - n_shutdown)
        return build_burst_layout(
            n_startup + n_steady + n_shutdown,
            n_startup, n_steady, n_shutdown, (), (),
        )

    def session_layout(
        self, log: str, n_events: int, attack_rate: float
    ) -> BurstLayout:
        """Attack-burst placement of a trojaned/injected session.

        Bursts land between steady-state benign events only: the
        payload activates after app startup and stops before exit.
        """
        n_attack = int(round(n_events * attack_rate))
        n_startup, n_shutdown = self._phase_sizes()
        n_steady = n_events - n_attack - n_startup - n_shutdown
        if n_steady < 0:
            raise ValueError(
                f"{self.spec.name}: {n_events} events cannot hold "
                f"{n_attack} attack events plus the app's scripted phases"
            )
        layout_rng = self._rng(log, "attack")
        bursts = _burst_sizes(n_attack, layout_rng)
        positions = sorted(
            layout_rng.sample(range(n_steady + 1), len(bursts))
        )
        return build_burst_layout(
            n_events, n_startup, n_steady, n_shutdown, bursts, positions
        )

    def _synth(self, log: str, layout: BurstLayout, instance) -> SessionSynth:
        process = instance.process if isinstance(
            instance, _DeliveredInstance
        ) else instance
        table = build_emission_table(
            process,
            self.app,
            instance.instance if isinstance(instance, _DeliveredInstance)
            else None,
        )
        return SessionSynth(
            table=table,
            layout=layout,
            clock_tag=self._tag(log, "clock"),
            op_tag=self._tag(log, "workload", "op"),
            path_tag=self._tag(log, "workload", "path"),
            beacon_tag=self._tag(log, "attack", "beacon"),
        )

    def _deliver(self, build_id: str):
        process = self._spawn()
        build = msfvenom(self.spec.payload, self._tag("payload"), build_id)
        instance = deliver(process, self.app, build, self.spec.method)
        return _DeliveredInstance(process=process, instance=instance)

    # -- fast engine ---------------------------------------------------
    def benign_synth(self, n_events: int) -> SessionSynth:
        """Column synthesizer for the clean trace."""
        return self._synth("benign", self.benign_layout(n_events), self._spawn())

    def session_synth(
        self, log: str, n_events: int, attack_rate: float, build_id: str
    ) -> SessionSynth:
        """Column synthesizer for a trojaned/injected session."""
        layout = self.session_layout(log, n_events, attack_rate)
        return self._synth(log, layout, self._deliver(build_id))

    # -- naive engine (the byte-identity oracle) -----------------------
    def trace_benign(self, n_events: int) -> List[EventRecord]:
        process = self._spawn()
        layout = self.benign_layout(n_events)
        tracer = EventTracer(process, WordClock(self._tag("benign", "clock")))
        plan = _NaiveBenignPlan(self, "benign", layout)
        return [
            plan.emit(tracer, ordinal)
            for ordinal in range(layout.n_events)
        ]

    def trace_session(
        self, log: str, n_events: int, attack_rate: float, build_id: str
    ) -> Tuple[List[EventRecord], List[int]]:
        """A trojaned/injected session: benign workload with attack
        bursts at ``attack_rate``, payload ``build_id``.

        Returns the events and the eids of the attack events — every
        attack walk carries at least one payload frame by construction
        (payload ops always descend through payload symbols).
        """
        delivered = self._deliver(build_id)
        layout = self.session_layout(log, n_events, attack_rate)
        tracer = EventTracer(
            delivered.process, WordClock(self._tag(log, "clock"))
        )
        benign_plan = _NaiveBenignPlan(self, log, layout)
        attack_plan = _NaiveAttackPlan(self, log, delivered.instance)
        attack_mask = layout.attack_mask(0, layout.n_events).tolist()
        events: List[EventRecord] = []
        attack_eids: List[int] = []
        benign_ordinal = 0
        attack_ordinal = 0
        for is_attack in attack_mask:
            if is_attack:
                event = attack_plan.emit(tracer, attack_ordinal)
                attack_ordinal += 1
                attack_eids.append(event.eid)
            else:
                event = benign_plan.emit(tracer, benign_ordinal)
                benign_ordinal += 1
            events.append(event)
        return events, attack_eids


@dataclass
class _DeliveredInstance:
    """A spawned process with its payload delivered."""

    process: object
    instance: object


class _NaiveBenignPlan:
    """Scalar benign-op emitter reading the same indexed word streams
    the fast path reads in bulk (op picks by steady ordinal, call-path
    picks by benign ordinal — one path word per event, multi-path op or
    not, so the stream stays indexable)."""

    def __init__(self, generator: ScenarioGenerator, log: str, layout):
        app = generator.app
        self.app = app
        self.startup = app.ops_in_phase("startup")
        self.steady = app.ops_in_phase("steady")
        self.shutdown = app.ops_in_phase("shutdown")
        if self.steady:
            self.cum, self.total = pick_table(
                [op.weight for op in self.steady]
            )
        self.n_steady = layout.n_steady
        self.op_stream = WordStream(generator._tag(log, "workload", "op"))
        self.path_stream = WordStream(generator._tag(log, "workload", "path"))

    def emit(self, tracer: EventTracer, ordinal: int) -> EventRecord:
        if ordinal < len(self.startup):
            op = self.startup[ordinal]
        elif ordinal < len(self.startup) + self.n_steady:
            op = self.steady[
                pick_index(self.cum, self.total, self.op_stream.next_word())
            ]
        else:
            op = self.shutdown[ordinal - len(self.startup) - self.n_steady]
        path = op.paths[self.path_stream.next_word() % len(op.paths)]
        app_path = [(self.app.exe, function) for function in path]
        return tracer.emit(op.name, op.syscall, app_path)


class _NaiveAttackPlan:
    """Scalar attack-op emitter: setup ops once (by attack ordinal),
    then weighted beacon traffic indexed by beacon ordinal."""

    def __init__(self, generator: ScenarioGenerator, log: str, instance):
        self.instance = instance
        self.setup = instance.build.spec.setup_ops()
        self.beacon = instance.build.spec.beacon_ops()
        if self.beacon:
            self.cum, self.total = pick_table(
                [op.weight for op in self.beacon]
            )
        self.beacon_stream = WordStream(
            generator._tag(log, "attack", "beacon")
        )

    def emit(self, tracer: EventTracer, ordinal: int) -> EventRecord:
        if ordinal < len(self.setup):
            op = self.setup[ordinal]
        else:
            op = self.beacon[
                pick_index(
                    self.cum, self.total, self.beacon_stream.next_word()
                )
            ]
        return tracer.emit(
            op.name, op.syscall, self.instance.app_path(op),
            tid=self.instance.tid,
        )


def _burst_sizes(n_attack: int, rng: random.Random) -> List[int]:
    sizes: List[int] = []
    remaining = n_attack
    while remaining > 0:
        size = min(remaining, rng.randint(*BURST_EVENTS))
        sizes.append(size)
        remaining -= size
    return sizes


def _write_log(
    path: Path, events: Sequence[EventRecord], chunk_events: int = 2048
) -> None:
    """Serialize to raw-log bytes in bounded chunks — paper-scale logs
    never exist twice in memory (once as events, once as one string)."""
    with open(path, "wb") as handle:
        for start in range(0, len(events), chunk_events):
            chunk = serialize_events(events[start:start + chunk_events])
            handle.write(("\n".join(chunk) + "\n").encode("utf-8"))


def _write_rendered(path: Path, chunks) -> None:
    with open(path, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)


def _capture_source(spec: DatasetSpec, seed, log_name: str) -> dict:
    # Identical across engines and worker counts: captures must be
    # byte-comparable whole, metadata included.
    return {
        "generator": "repro.datasets",
        "dataset": spec.name,
        "log": log_name,
        "seed": seed,
    }


def _render_session_text(synth: SessionSynth, segment, pool=None):
    """Rendered text chunks of one synthesized session, in order.

    Segments are bounded by :func:`~repro.datasets.fastgen.segment_bounds`
    (bursts never span a boundary) and rendered independently — across
    ``pool`` when given — then concatenated in order, so output bytes
    are invariant to ``n_jobs``.
    """
    bounds = segment_bounds(synth.layout, SEGMENT_EVENTS)
    templates = synth.table.templates
    arities = synth.table.arities.tolist()
    jobs = [
        (
            templates,
            arities,
            segment.type_ids[start:stop],
            segment.timestamps[start:stop],
            start,
        )
        for start, stop in bounds
    ]
    if pool is None:
        return map(render_segment_job, jobs)
    return pool.map(render_segment_job, jobs)


def _make_pool(n_jobs: int, executor: str):
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; expected {EXECUTORS}"
        )
    if n_jobs <= 1:
        return None
    if executor == "thread":
        return ThreadPoolExecutor(max_workers=n_jobs)
    return ProcessPoolExecutor(max_workers=n_jobs)


def _resolve_spec(name: Union[str, DatasetSpec]) -> DatasetSpec:
    if isinstance(name, DatasetSpec):
        return name
    return CATALOG[name]


def generate_dataset(
    name: Union[str, DatasetSpec],
    dst: Path,
    seed: int = 0,
    *,
    train_events: int = DEFAULT_TRAIN_EVENTS,
    scan_events: int = DEFAULT_SCAN_EVENTS,
    format: str = "text",
    engine: str = "fast",
    n_jobs: int = 1,
    executor: str = "process",
) -> GeneratedDataset:
    """Generate one dataset into ``dst`` (created if needed).

    ``name`` is a catalog name or a :class:`DatasetSpec` (custom
    scenarios need not be registered).  ``format`` selects the outputs:
    ``"text"`` writes the three ``.log`` files, ``"capture"`` writes
    ``.leapscap`` columnar captures directly from synthesized columns
    (no text round-trip), ``"both"`` writes both.  ``labels.json`` is
    always written.  ``engine="naive"`` replays the per-event tracer
    (the byte-identity oracle); ``n_jobs``/``executor`` shard fast-path
    text rendering.  Output bytes are identical for every
    (engine, n_jobs, executor) combination.
    """
    spec = _resolve_spec(name)
    if format not in OUTPUT_FORMATS:
        raise ValueError(
            f"unknown format {format!r}; expected {OUTPUT_FORMATS}"
        )
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")
    dst = Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    generator = ScenarioGenerator(spec, seed)
    write_text = format in ("text", "both")
    emit_capture = format in ("capture", "both")

    plans = [
        ("benign.log", train_events, 0.0, ""),
        ("mixed.log", train_events, MIXED_ATTACK_RATE, "A"),
        ("malicious.log", scan_events, MALICIOUS_ATTACK_RATE, "B"),
    ]
    logs: Dict[str, GeneratedLog] = {}
    pool = _make_pool(n_jobs, executor) if engine == "fast" else None
    try:
        for log_name, n_events, attack_rate, build_id in plans:
            stem = log_name[: -len(".log")]
            log_path = dst / log_name
            capture_path = dst / f"{stem}{CAPTURE_SUFFIX}"
            source = _capture_source(spec, seed, log_name)
            if engine == "naive":
                if build_id:
                    events, attack_eids = generator.trace_session(
                        stem, n_events, attack_rate, build_id
                    )
                else:
                    events = generator.trace_benign(n_events)
                    attack_eids = []
                if write_text:
                    _write_log(log_path, events)
                if emit_capture:
                    write_capture(capture_path, events, source=source)
                n_total = len(events)
            else:
                if build_id:
                    synth = generator.session_synth(
                        stem, n_events, attack_rate, build_id
                    )
                else:
                    synth = generator.benign_synth(n_events)
                segment = synth.synthesize()
                attack_eids = synth.layout.attack_eids().tolist()
                if write_text:
                    _write_rendered(
                        log_path,
                        _render_session_text(synth, segment, pool),
                    )
                if emit_capture:
                    cols = to_event_columns(
                        synth.table, segment.type_ids, segment.timestamps
                    )
                    write_capture_columns(capture_path, cols, source=source)
                n_total = synth.n_events
            logs[log_name] = GeneratedLog(
                path=log_path,
                n_events=n_total,
                attack_eids=tuple(int(eid) for eid in attack_eids),
                build_id=build_id,
                capture_path=capture_path if emit_capture else None,
            )
    finally:
        if pool is not None:
            pool.shutdown()

    labels = {
        "schema": LABELS_SCHEMA,
        "dataset": spec.name,
        "app": spec.app,
        "payload": spec.payload,
        "method": spec.method,
        "seed": seed,
        "params": {
            "train_events": train_events,
            "scan_events": scan_events,
            "mixed_attack_rate": MIXED_ATTACK_RATE,
            "malicious_attack_rate": MALICIOUS_ATTACK_RATE,
        },
        "logs": {
            log_name: {
                "events": log.n_events,
                "build": log.build_id,
                "attack_eids": list(log.attack_eids),
            }
            for log_name, log in logs.items()
        },
    }
    (dst / "labels.json").write_bytes(
        (json.dumps(labels, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    return GeneratedDataset(spec=spec, seed=seed, root=dst, logs=logs)


def _generate_catalog_entry(args) -> Tuple[str, GeneratedDataset]:
    name, root, seed, kwargs = args
    return name, generate_dataset(name, root, seed, **kwargs)


def generate_catalog(
    root: Path,
    seed: int = 0,
    *,
    names: Sequence[str] = (),
    train_events: int = DEFAULT_TRAIN_EVENTS,
    scan_events: int = DEFAULT_SCAN_EVENTS,
    format: str = "text",
    engine: str = "fast",
    n_jobs: int = 1,
) -> Dict[str, GeneratedDataset]:
    """Generate named datasets (default: all 21) under
    ``root/<name>-s<seed>/``.

    ``n_jobs > 1`` generates datasets across a process pool — rows are
    independent, so this parallelizes across the catalog rather than
    within one session.
    """
    root = Path(root)
    selected = list(names) if names else list(CATALOG)
    kwargs = dict(
        train_events=train_events,
        scan_events=scan_events,
        format=format,
        engine=engine,
    )
    jobs = [
        (name, root / f"{name}-s{seed}", seed, kwargs) for name in selected
    ]
    results: Dict[str, GeneratedDataset] = {}
    if n_jobs <= 1 or len(jobs) <= 1:
        for job in jobs:
            name, dataset = _generate_catalog_entry(job)
            results[name] = dataset
        return results
    with ProcessPoolExecutor(max_workers=min(n_jobs, len(jobs))) as pool:
        for name, dataset in pool.map(_generate_catalog_entry, jobs):
            results[name] = dataset
    return results
