"""The four workloads: set-up, timed passes, traced pass and checks.

Each workload returns an :class:`Outcome` whose ``metrics`` are the
end-to-end metrics (untraced run) or the per-layer metrics (traced
run) that ``BENCHMARK.json`` names.  Every operation the workload
attempts is checked, and each mismatch is one entry of
``Outcome.failures``:

* text form against capture form of every host;
* ``n_jobs=1`` against ``n_jobs=nproc``;
* every serve stream, in either wire mode, against the offline scan of
  the same host;
* the traced run against the untraced run (bundle fingerprint and
  detections);
* Table-I accuracy metrics byte-stable across sweeps.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

import common
import numpy as np
import serve_load
from common import Host, Seeds, cold_sweep, fresh_dir
from tracing import LAYER_SPANS, repro_tracer

from repro.core.persistence import bundle_fingerprint

#: set-ups per timed run; setup_s is their median
SETUP_REPEATS = 3
#: share of --seconds given to each part of serve-fleet: the offline
#: yardstick, the saturate phase and the paced phase; the paced window
#: latency is set by about 8 scoring flushes a second, so its median
#: needs the seconds as much as the throughputs do
PHASE_SHARES = {"offline": 0.3, "saturate": 0.35, "paced": 0.35}
#: the offline yardstick and the saturate phase alternate in this many
#: rounds, so both sample the same stretch of the machine's time
SERVE_ROUNDS = 3
#: hosts of the traced serve check: the first two compromised and the
#: first two clean hosts
TRACE_SERVE_HOSTS = 2
#: untraced/traced pairs of the set-up and main pass behind
#: trace.overhead_frac
OVERHEAD_PAIRS = 3


#: timings that the speed reference normalizes (common.SpeedReference)
DURATIONS = ("setup_s", "wait_p50_s")


@dataclass
class Context:
    work: Path
    seconds: float
    sizes: common.Sizes
    seeds: Seeds
    workers: int
    record: dict
    speed: common.SpeedReference

    @classmethod
    def create(cls, args, work: Path) -> "Context":
        return cls(
            work=work,
            seconds=args.seconds,
            sizes=common.SHORT if args.short else common.FULL,
            seeds=Seeds(args.seed),
            workers=common.worker_count(),
            record=common.host_record(work),
            # the traced run times no passes, so it needs no parallel samples
            speed=common.SpeedReference(1 if args.trace else common.worker_count()),
        )


@dataclass
class Outcome:
    metrics: Dict[str, float]
    attempted: int
    failures: List[str]
    samples: dict = field(default_factory=dict)
    spans: Optional[list] = None


class Checks:
    """Counts attempted operations and records each mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def compare(self, what: str, names: Sequence[str], got, expected) -> None:
        if not len(names) == len(got) == len(expected):
            self.attempted += 1
            self.failures.append(f"{what}: {len(got)} results for {len(expected)} expected")
            return
        for name, mine, reference in zip(names, got, expected):
            self.attempted += 1
            if mine != reference:
                self.failures.append(f"{what}: {name}")

    def streams(self, what: str, hosts: Sequence[Host], phase) -> None:
        for record in phase.records:
            self.attempted += 1
            if not record.ok:
                self.failures.append(
                    f"{what}: {hosts[record.host].name} ({record.mode}): {record.error}"
                )


def timed_setups(ctx: Context, setup: Callable, teardown: Callable = lambda state: None):
    """Run the set-up SETUP_REPEATS times into fresh directories; keep
    the last state.  Then reset this process's peak RSS, so
    ``peak_rss_mb`` covers the timed part.  Returns (median seconds,
    set-up samples, state)."""
    seconds, state = [], None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            teardown(state)
            shutil.rmtree(state.root)
        ctx.speed.measure()
        start = time.perf_counter()
        state = setup(ctx, ctx.work / f"setup{attempt}")
        seconds.append(time.perf_counter() - start)
    samples = {
        "seconds": seconds,
        # ended child processes of the set-up; they count in peak_rss_mb
        # only where they exceed every child of the timed part
        "children_peak_mb": common.children_peak_kib() / 1024.0,
    }
    ctx.record["peak_rss_scope"] = (
        "timed part" if common.reset_peak_rss() else "whole process (no peak reset)"
    )
    return median(seconds), samples, state


def speed_samples(ctx: Context, measured: dict) -> dict:
    """The speed reference's samples and the metrics before
    normalization, for result.json."""
    return {
        "speed_reference_s": ctx.speed.samples,
        "speed_reference_parallel_s": ctx.speed.parallel_samples,
        "speed_factor": ctx.speed.factor(),
        "speed_factor_parallel": ctx.speed.factor(parallel=True),
        "measured_metrics": measured,
    }


# -- scan and serve fleet ----------------------------------------------------
def fleet_setup(ctx: Context, root: Path) -> SimpleNamespace:
    """Corpus generation (training logs and hosts), training, bundle
    save."""
    fresh_dir(root)
    hosts = common.generate_hosts(
        root / "hosts", ctx.seeds.take("host", ctx.sizes.host_pairs), ctx.sizes.host_events
    )
    detector, bundle, _ = common.train_bundle(
        root, common.HOST_ROW, ctx.seeds.take("train", 1)[0], ctx.sizes.train_events
    )
    return SimpleNamespace(root=root, hosts=hosts, detector=detector, bundle=bundle)


def host_logs(hosts: Sequence[Host], form: str) -> List[Path]:
    return [host.capture_path if form == "capture" else host.text_path for host in hosts]


def scan_timed(ctx: Context, form: str) -> Outcome:
    setup_s, setup_samples, state = timed_setups(ctx, fleet_setup)
    hosts, bundle, checks = state.hosts, state.bundle, Checks()
    names = [host.name for host in hosts]
    logs = host_logs(hosts, form)
    n_events = sum(host.n_events for host in hosts)
    walls: Dict[int, List[float]] = {1: [], ctx.workers: []}
    host_waits: List[float] = []  # per host, n_jobs=1
    reference = None
    order = [1, ctx.workers]
    start = time.perf_counter()
    while True:
        ctx.speed.measure()
        for n_jobs in order:
            pass_walls, detections = cold_sweep(bundle, logs, n_jobs)
            walls[n_jobs].append(sum(pass_walls))
            if n_jobs == 1:
                host_waits += pass_walls
            if reference is None:
                reference = detections
            else:
                checks.compare(f"n_jobs={n_jobs} vs first pass", names, detections, reference)
        order.reverse()
        if time.perf_counter() - start >= ctx.seconds:
            break
    other = "text" if form == "capture" else "capture"
    _, other_detections = cold_sweep(bundle, host_logs(hosts, other), 1)
    checks.compare(f"{other} form vs {form} form", names, other_detections, reference)
    checks.attempted += len(hosts)  # the reference pass itself
    sweep = median(walls[ctx.workers])
    measured = {
        "setup_s": setup_s,
        "events_per_s": n_events / sweep,
        "scan_1core_events_per_s": n_events / median(walls[1]),
        "wait_p50_s": median(host_waits),
        **common.host_quality(hosts, reference),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    metrics = ctx.speed.normalize(
        measured, DURATIONS, ["scan_1core_events_per_s"], parallel_rates=["events_per_s"]
    )
    samples = {
        **speed_samples(ctx, measured),
        "setup": setup_samples,
        "sweep_s": {str(n): values for n, values in walls.items()},
        "host_wait_s": host_waits,
        "sweep_events": n_events,
        "workers": ctx.workers,
    }
    return Outcome(metrics, checks.attempted, checks.failures, samples)


def serve_setup(ctx: Context, root: Path) -> SimpleNamespace:
    """The fleet set-up, plus wire chunks encoded per host and the
    server started in its child process."""
    state = fleet_setup(ctx, root)
    state.wire = [serve_load.prepare_wire_host(host) for host in state.hosts]
    state.server = serve_load.ServerProcess(state.bundle)
    return state


def serve_timed(ctx: Context) -> Outcome:
    setup_s, setup_samples, state = timed_setups(
        ctx, serve_setup, teardown=lambda state: state.server.stop()
    )
    hosts, bundle, checks = state.hosts, state.bundle, Checks()
    names = [host.name for host in hosts]
    logs = host_logs(hosts, "capture")
    n_events = sum(host.n_events for host in hosts)
    one_core: List[float] = []
    expected = None

    def offline_slot() -> None:
        nonlocal expected
        slot_end = time.perf_counter() + ctx.seconds * PHASE_SHARES["offline"] / SERVE_ROUNDS
        while expected is None or time.perf_counter() < slot_end:
            ctx.speed.measure()
            walls, detections = cold_sweep(bundle, logs, 1)
            one_core.append(sum(walls))
            if expected is None:
                expected = detections
                checks.attempted += len(hosts)
            else:
                checks.compare("offline n_jobs=1 repeat", names, detections, expected)

    connections = ctx.workers

    def schedules():
        return [
            serve_load.alternating_schedule(len(hosts), conn, connections)
            for conn in range(connections)
        ]

    saturate_schedules = schedules()  # the host rotation runs on across rounds
    rounds = []
    try:
        for round_index in range(SERVE_ROUNDS):
            offline_slot()
            if round_index == 0:
                _, parallel = cold_sweep(bundle, logs, ctx.workers)
                checks.compare(f"offline n_jobs={ctx.workers}", names, parallel, expected)
            ctx.speed.measure()
            stop_at = time.perf_counter() + ctx.seconds * PHASE_SHARES["saturate"] / SERVE_ROUNDS
            rounds.append(serve_load.run_phase(
                state.server, "saturate", state.wire, expected, saturate_schedules, stop_at
            ))
            checks.streams("saturate stream vs offline scan", hosts, rounds[-1])
        stop_at = time.perf_counter() + ctx.seconds * PHASE_SHARES["paced"]
        paced = serve_load.run_phase(state.server, "paced", state.wire, expected, schedules(), stop_at)
        checks.streams("paced stream vs offline scan", hosts, paced)
    finally:
        state.server.stop()
    phases = {
        "saturate": serve_load.PhaseResult(
            wall_s=sum(part.wall_s for part in rounds),
            records=[record for part in rounds for record in part.records],
            layers={},
        ),
        "paced": paced,
    }
    summaries = {name: phase_summary(phase) for name, phase in phases.items()}
    measured = {
        "setup_s": setup_s,
        "events_per_s": summaries["saturate"]["events_per_s"],
        "scan_1core_events_per_s": n_events / median(one_core),
        "wait_p50_s": float(np.mean([
            by_mode["p50"] for by_mode in summaries["paced"]["window_latency_s_by_mode"].values()
            if by_mode["count"]
        ])),
        **common.host_quality(hosts, expected),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    # the paced window latency is mostly the wait for the chunk schedule
    # and the flush deadline, which do not scale with the machine's speed
    metrics = ctx.speed.normalize(
        measured, ["setup_s"], ["scan_1core_events_per_s"], parallel_rates=["events_per_s"]
    )
    samples = {
        **speed_samples(ctx, measured),
        "setup": setup_samples,
        "offline_1core_s": one_core,
        "shards": serve_load.N_SHARDS,
        "executor": serve_load.EXECUTOR,
        "connections": connections,
        "paced_events_per_s_per_connection": serve_load.PACED_EVENTS_PER_S,
        "chunk_events": serve_load.CHUNK_EVENTS,
        **{f"{name}_phase": summary for name, summary in summaries.items()},
        "server_layers": [part.layers for part in rounds] + [paced.layers],
    }
    return Outcome(metrics, checks.attempted, checks.failures, samples)


def phase_summary(phase) -> dict:
    drains = [record.drain_s for record in phase.records if record.drain_s is not None]
    latencies = [value for record in phase.records for value in record.window_latency_s]
    lags = [value for record in phase.records for value in record.lag_s]
    return {
        "wall_s": phase.wall_s,
        "streams": len(phase.records),
        "events": phase.events,
        "events_per_s": phase.events / phase.wall_s,
        "drain_s": quantiles(drains),
        "window_latency_s": quantiles(latencies),
        # the modes' latencies form two humps (text windows wait for the
        # server's line parse), and the median of both together falls in
        # the gap between them, where a small shift of the mix moves it
        "window_latency_s_by_mode": {
            mode: quantiles([
                value for record in phase.records if record.mode == mode
                for value in record.window_latency_s
            ])
            for mode in serve_load.MODES
        },
        "generator_lag_s": quantiles(lags),
    }


def quantiles(values: Sequence[float]) -> dict:
    if not values:
        return {"count": 0}
    array = np.asarray(values)
    return {
        "count": len(values),
        **{f"p{q}": float(np.quantile(array, q / 100)) for q in (50, 90, 99)},
    }


# -- Table I -------------------------------------------------------------------
def table1_setup(ctx: Context, root: Path) -> SimpleNamespace:
    """Held-out benign logs, one per row, generated at their own seeds
    (this also builds each application's emission tables, so every
    sweep does the same work)."""
    fresh_dir(root)
    heldout = []
    for name, seed in zip(common.TABLE1_ROWS, ctx.seeds.take("heldout", len(common.TABLE1_ROWS))):
        dataset = common.generate(
            name, root / f"heldout-{name}", seed, ctx.sizes.row_scan_events, 200, "both"
        )
        heldout.append(common.host_from(dataset, "benign.log", f"{name}/heldout-benign"))
    row_seeds = ctx.seeds.take("row", len(common.TABLE1_ROWS))
    return SimpleNamespace(root=root, heldout=heldout, row_seeds=row_seeds)


@dataclass
class RowResult:
    name: str
    wall_s: float
    generated_events: int
    scanned_events: int
    scan_1core_s: float
    hosts: List[Host]
    detections: Dict[int, List[List[tuple]]]
    quality: dict
    detector: object
    bundle: Path


def table1_row(
    ctx: Context, root: Path, name: str, seed: int, heldout: Host, jobs: Sequence[int]
) -> RowResult:
    start = time.perf_counter()
    sizes = ctx.sizes
    detector, bundle, dataset = common.train_bundle(
        fresh_dir(root / name), name, seed, sizes.row_train_events, sizes.row_scan_events, "both"
    )
    hosts = [common.host_from(dataset, "malicious.log", f"{name}/malicious"), heldout]
    logs = [hosts[0].capture_path, heldout.text_path]
    detections, scan_1core_s = {}, 0.0
    for n_jobs in jobs:
        walls, detections[n_jobs] = cold_sweep(bundle, logs, n_jobs)
        if n_jobs == 1:
            scan_1core_s = sum(walls)
    quality = common.host_quality(hosts, detections[1])
    return RowResult(
        name=name,
        wall_s=time.perf_counter() - start,
        generated_events=sum(log.n_events for log in dataset.logs.values()),
        scanned_events=sum(host.n_events for host in hosts),
        scan_1core_s=scan_1core_s,
        hosts=hosts,
        detections=detections,
        quality=quality,
        detector=detector,
        bundle=bundle,
    )


def table1_sweep(
    ctx: Context, state, root: Path, jobs: Sequence[int], before_row: Callable = lambda: None
) -> List[RowResult]:
    rows = []
    for name, seed, heldout in zip(common.TABLE1_ROWS, state.row_seeds, state.heldout):
        before_row()
        rows.append(table1_row(ctx, root, name, seed, heldout, jobs))
    return rows


def table1_signature(rows: Sequence[RowResult]) -> str:
    """The sweep's accuracy metrics, byte for byte."""
    return json.dumps({row.name: row.quality for row in rows}, sort_keys=True)


def table1_quality(rows: Sequence[RowResult]) -> dict:
    pooled = common.Quality()
    for row in rows:
        for host, detections in zip(row.hosts, row.detections[1]):
            pooled.add(host, detections)
    metrics = pooled.metrics()
    return {
        "alert_tpr": metrics["alert_tpr"],
        "alert_tnr": metrics["alert_tnr"],
        "window_acc": float(np.mean([row.quality["window_acc"] for row in rows])),
        "event_auc": float(np.mean([row.quality["event_auc"] for row in rows])),
    }


def table1_timed(ctx: Context) -> Outcome:
    setup_s, setup_samples, state = timed_setups(ctx, table1_setup)
    checks = Checks()
    start = time.perf_counter()
    # an untimed first sweep warms the process and checks every row's
    # scan at n_jobs=nproc against n_jobs=1; the timed sweeps scan at
    # n_jobs=1 only, so no pool starts or stops while they run
    first = table1_sweep(ctx, state, ctx.work / "sweep0", sorted({1, ctx.workers}))
    for row in first:
        names = [host.name for host in row.hosts]
        if ctx.workers > 1:
            checks.compare(
                f"n_jobs={ctx.workers} vs n_jobs=1", names,
                row.detections[ctx.workers], row.detections[1],
            )
        checks.attempted += 1  # the row itself
    walls, row_walls, scan_rates = [], [], []
    while not walls or time.perf_counter() - start < ctx.seconds:
        root = ctx.work / f"sweep{len(walls) + 1}"
        sweep_start = time.perf_counter()
        rows = table1_sweep(ctx, state, root, [1], ctx.speed.measure)
        walls.append(time.perf_counter() - sweep_start)
        row_walls += [row.wall_s for row in rows]
        scan_rates.append(
            sum(row.scanned_events for row in rows) / sum(row.scan_1core_s for row in rows)
        )
        checks.attempted += len(rows)
        checks.compare(
            "accuracy metrics vs first sweep", ["sweep"],
            [table1_signature(rows)], [table1_signature(first)],
        )
        shutil.rmtree(root)
    generated = sum(row.generated_events for row in first)
    measured = {
        "setup_s": setup_s,
        "events_per_s": generated / median(walls),
        "scan_1core_events_per_s": median(scan_rates),
        "wait_p50_s": median(row_walls),
        **table1_quality(first),
        "peak_rss_mb": common.peak_rss_mb(),
    }
    metrics = ctx.speed.normalize(measured, DURATIONS, ["events_per_s", "scan_1core_events_per_s"])
    samples = {
        **speed_samples(ctx, measured),
        "setup": setup_samples,
        "sweep_s": walls,
        "row_wall_s": row_walls,
        "rows": {row.name: {"wall_s": row.wall_s, **row.quality} for row in first},
        "workers": ctx.workers,
    }
    return Outcome(metrics, checks.attempted, checks.failures, samples)


# -- traced runs ---------------------------------------------------------------
def serve_check(ctx, tracer, checks, bundle, hosts, expected) -> dict:
    """Stream ``hosts`` through a server: a saturate pass (every host in
    both wire modes) and a paced pass (every host once, modes
    alternating); every stream must equal the offline scan."""
    with tracer.span("serve.client"):
        wire = [serve_load.prepare_wire_host(host) for host in hosts]
        connections = ctx.workers
        saturate = [(i, mode) for i in range(len(hosts)) for mode in serve_load.MODES]
        paced = [(i, serve_load.MODES[i % 2]) for i in range(len(hosts))]
        server = serve_load.ServerProcess(bundle)
        try:
            phases = {
                name: serve_load.run_phase(
                    server, name, wire, expected,
                    [iter(tasks[conn::connections]) for conn in range(connections)],
                )
                for name, tasks in (("saturate", saturate), ("paced", paced))
            }
        finally:
            server.stop()
    for name, phase in phases.items():
        checks.streams(f"traced {name} stream vs offline scan", hosts, phase)
    layers = {}
    for phase in phases.values():
        layers.update(phase.layers)
    saturate, paced = (phase_summary(phases[name]) for name in ("saturate", "paced"))
    for mode in serve_load.MODES:
        layers[f"serve.wire_bytes_per_event.{mode}"] = sum(
            w.wire_bytes(mode) for w in wire
        ) / sum(w.n_events for w in wire)
    layers.update({
        "serve.drain_p50_s": saturate["drain_s"]["p50"],
        "serve.drain_p90_s": saturate["drain_s"]["p90"],
        "serve.window_p50_s": paced["window_latency_s"]["p50"],
        "serve.window_p99_s": paced["window_latency_s"]["p99"],
        "serve.generator_lag_p99_s": paced["generator_lag_s"]["p99"],
    })
    return layers


def model_counts(detectors) -> dict:
    """CFG size, Algorithm-2 weight and solver counts, averaged over the
    trained models."""
    rows = []
    for detector in detectors:
        pipeline = detector.pipeline
        rows.append([
            sum(1 for _ in pipeline.benign_cfg.nodes()) + sum(1 for _ in pipeline.mixed_cfg.nodes()),
            sum(1 for _ in pipeline.benign_cfg.edges()) + sum(1 for _ in pipeline.mixed_cfg.edges()),
            detector.report.mean_mixed_weight,
            len(pipeline.model.support_),
            pipeline.model.n_sweeps_,
        ])
    means = np.mean(np.asarray(rows, dtype=float), axis=0)
    names = (
        "core.cfg_nodes", "core.cfg_edges", "core.mean_mixed_weight",
        "learning.n_sv", "learning.smo_sweeps",
    )
    return {name: float(value) for name, value in zip(names, means)}


def layer_metrics(tracer, traced_wall: float, overhead: float) -> dict:
    self_times = tracer.self_times()
    unknown = sorted(set(self_times) - set(LAYER_SPANS))
    if unknown:
        raise RuntimeError(f"spans without a per-layer metric: {unknown}")
    metrics = {f"{name}_s": self_times.get(name, 0.0) for name in LAYER_SPANS}
    counts = tracer.counts
    totals = tracer.totals()
    metrics.update({
        "datasets.events_per_s": counts["datasets.events"] / totals["datasets.generate"],
        "etw.fastparse.lines_per_s": counts["etw.fastparse.lines"] / self_times["etw.fastparse.parse"],
        "etw.capture.events_per_s": counts["etw.capture.events"] / self_times["etw.capture.load"],
        "preprocessing.windows": counts["preprocessing.windows"],
        "preprocessing.unknown_frac": (
            counts["preprocessing.unknown_entries"] / counts["preprocessing.feature_entries"]
        ),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": overhead,
        "trace.unattributed_frac": (traced_wall - tracer.top_level_seconds()) / traced_wall,
    })
    return metrics


def traced_run(ctx: Context, workload: str) -> Outcome:
    """The workload's work once untraced and once traced, serially in
    this process; then the cross-form and serve checks, traced."""
    checks = Checks()
    tracer = repro_tracer()
    if workload == "train-table1":
        setup, main = table1_setup, lambda state, root: table1_sweep(ctx, state, root, [1])
    else:
        setup = fleet_setup
        form = "text" if workload == "scan-text" else "capture"

        def main(state, root):
            return cold_sweep(state.bundle, host_logs(state.hosts, form), 1)[1]

    # untraced: once for the reference outputs (and to warm the
    # process), once more as the timing base of the trace overhead
    untraced_state = setup(ctx, ctx.work / "untraced")
    untraced = main(untraced_state, ctx.work / "untraced-main")

    with tracer.active():
        with_trace = time.perf_counter()
        state = setup(ctx, ctx.work / "traced")
        result = main(state, ctx.work / "traced-main")
        traced_main_wall = time.perf_counter() - with_trace

        if workload == "train-table1":
            checks.compare(
                "traced vs untraced accuracy metrics", ["sweep"],
                [table1_signature(result)], [table1_signature(untraced)],
            )
            checks.attempted += len(result)
            detectors = [row.detector for row in result]
            serve_args = (result[0].bundle, result[0].hosts, result[0].detections[1])
        else:
            names = [host.name for host in state.hosts]
            checks.compare("traced vs untraced detections", names, result, untraced)
            checks.compare(
                "traced vs untraced bundle", ["bundle"],
                [bundle_fingerprint(state.bundle)], [bundle_fingerprint(untraced_state.bundle)],
            )
            other = "capture" if form == "text" else "text"
            _, other_detections = cold_sweep(state.bundle, host_logs(state.hosts, other), 1)
            checks.compare(f"{other} form vs {form} form", names, other_detections, result)
            detectors = [state.detector]
            pairs = ctx.sizes.host_pairs
            picks = list(range(TRACE_SERVE_HOSTS)) + list(range(pairs, pairs + TRACE_SERVE_HOSTS))
            serve_args = (state.bundle, [state.hosts[i] for i in picks], [result[i] for i in picks])
        serve_layers = serve_check(ctx, tracer, checks, *serve_args)
        traced_end = time.perf_counter()
        traced_wall = traced_end - with_trace
    nesting = tracer.nesting_errors(with_trace, traced_end)
    checks.attempted += 1
    if nesting:
        checks.failures.append(f"trace spans do not nest: {'; '.join(nesting[:3])}")

    walls = overhead_walls(ctx, setup, main)
    overhead = median(walls["traced"]) / median(walls["untraced"]) - 1.0
    metrics = layer_metrics(tracer, traced_wall, overhead)
    metrics.update(serve_layers)
    metrics.update(model_counts(detectors))
    samples = {**walls, "recorded_traced_s": traced_main_wall, "traced_with_checks_s": traced_wall}
    return Outcome(metrics, checks.attempted, checks.failures, samples, tracer.to_json(with_trace))


def overhead_walls(ctx: Context, setup: Callable, main: Callable) -> Dict[str, List[float]]:
    """Walls of the set-up plus main pass, untraced and traced (by a
    tracer whose spans are dropped), in OVERHEAD_PAIRS pairs whose order
    alternates, so drift of the machine's speed hits both sides alike."""
    walls: Dict[str, List[float]] = {"untraced": [], "traced": []}
    for pair in range(OVERHEAD_PAIRS):
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            root = ctx.work / f"overhead{pair}-{int(traced)}"
            start = time.perf_counter()
            with repro_tracer().active() if traced else nullcontext():
                main(setup(ctx, root / "setup"), root / "main")
            walls["traced" if traced else "untraced"].append(time.perf_counter() - start)
            shutil.rmtree(root)
    return walls


def run(ctx: Context, workload: str, trace: bool) -> Outcome:
    if trace:
        return traced_run(ctx, workload)
    if workload == "serve-fleet":
        return serve_timed(ctx)
    if workload == "train-table1":
        return table1_timed(ctx)
    return scan_timed(ctx, "text" if workload == "scan-text" else "capture")
