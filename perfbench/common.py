"""Inputs, seeds, host record and output checks shared by the workloads.

Every input is generated from the workload seed given on the command
line.  Each role (training logs, host logs, Table-I rows, held-out
logs) draws its generation seeds from its own hash stream, and the
seeds are checked to be pairwise disjoint, so no host log is ever
generated at a training seed.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import LeapsConfig, LeapsDetector
from repro.datasets import generation
from repro.etw.parser import clear_frame_intern

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from bench_table1 import per_event_roc  # noqa: E402  (the Table-I bench's scoring)

#: the catalog row whose hosts the scan and serve workloads sweep
HOST_ROW = "vim_reverse_tcp"
#: the Table-I rows the train-table1 workload sweeps (offline, code
#: injection and online infection, across three applications)
TABLE1_ROWS = ("vim_reverse_tcp", "putty_codeinject", "notepad++_reverse_https_online")


@dataclass(frozen=True)
class Sizes:
    train_events: int  # events per training log (benign and mixed)
    host_pairs: int  # each pair is one compromised and one clean host
    host_events: int  # events per host log
    row_train_events: int  # Table-I rows: events per training log
    row_scan_events: int  # Table-I rows: malicious and held-out benign log


FULL = Sizes(
    train_events=10000,
    host_pairs=6,
    host_events=5000,
    row_train_events=8000,
    row_scan_events=4000,
)
SHORT = Sizes(
    train_events=3000,
    host_pairs=2,
    host_events=2000,
    row_train_events=3000,
    row_scan_events=1500,
)


def model_config() -> LeapsConfig:
    """The training protocol of the repository's generated-data tests:
    serial training (n_jobs=1), fixed model-selection seed."""
    return LeapsConfig(
        window_events=10,
        stride=5,
        lam_grid=(1.0, 10.0),
        sigma2_grid=(30.0,),
        cv_folds=2,
        max_train_windows=400,
        seed=0,
    )


# -- seeds -----------------------------------------------------------------
class Seeds:
    """Generation seeds per role, derived from the workload seed."""

    def __init__(self, workload_seed: int):
        self.workload_seed = workload_seed
        self._used: Dict[int, str] = {}
        self.by_role: Dict[str, List[int]] = {}

    def take(self, role: str, count: int) -> List[int]:
        """The role's ``count`` seeds; the same list on every call."""
        if role in self.by_role:
            if len(self.by_role[role]) != count:
                raise ValueError(f"role {role!r} already holds {len(self.by_role[role])} seeds")
            return list(self.by_role[role])
        seeds = []
        counter = 0
        while len(seeds) < count:
            digest = hashlib.sha256(
                f"perfbench/{self.workload_seed}/{role}/{counter}".encode()
            ).digest()
            counter += 1
            seed = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
            if seed in self._used:
                continue  # keep every role's seeds disjoint
            self._used[seed] = role
            seeds.append(seed)
        self.by_role[role] = seeds
        return list(seeds)

    def record(self) -> dict:
        return {"workload_seed": self.workload_seed, **self.by_role}


# -- corpus ------------------------------------------------------------------
@dataclass(frozen=True)
class Host:
    """One monitored host's log, in both ingest forms."""

    name: str
    text_path: Path
    capture_path: Path
    compromised: bool
    attack_eids: np.ndarray  # sorted
    n_events: int


def generate(name: str, dst: Path, seed: int, train_events: int, scan_events: int, fmt: str):
    # through the module attribute, so a traced run sees the call
    return generation.generate_dataset(
        name, dst, seed=seed, train_events=train_events,
        scan_events=scan_events, format=fmt,
    )


def host_from(dataset, log_name: str, name: str) -> Host:
    log = dataset.logs[log_name]
    stem = log_name[: -len(".log")]
    return Host(
        name=name,
        text_path=log.path,
        capture_path=dataset.root / f"{stem}.leapscap",
        compromised=bool(log.attack_eids),
        attack_eids=np.asarray(sorted(log.attack_eids), dtype=np.int64),
        n_events=log.n_events,
    )


def generate_hosts(root: Path, seeds: Sequence[int], host_events: int) -> List[Host]:
    """Compromised hosts (a malicious log: a polymorphic build the model
    never saw) and clean hosts (a benign log), one pair per seed."""
    compromised, clean = [], []
    for index, seed in enumerate(seeds):
        dataset = generate(
            HOST_ROW, root / f"host{index}", seed, host_events, host_events, "both"
        )
        compromised.append(host_from(dataset, "malicious.log", f"compromised-{index}"))
        clean.append(host_from(dataset, "benign.log", f"clean-{index}"))
    return compromised + clean


def train_bundle(
    root: Path, name: str, seed: int, train_events: int, scan_events: int = 200, fmt: str = "text"
):
    """Generate a row's dataset under ``root/train`` in ``fmt``, train
    from its text logs, save the bundle under ``root/bundle``; returns
    (detector, bundle path, dataset)."""
    dataset = generate(name, root / "train", seed, train_events, scan_events, fmt)
    detector = LeapsDetector(model_config())
    detector.fit_logs([dataset.logs["benign.log"].path], [dataset.logs["mixed.log"].path])
    bundle = detector.save(root / "bundle")
    return detector, bundle, dataset


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# -- scanning ------------------------------------------------------------------
#: one detection, compared field by field; equal to the plain tuple a
#: serve stream returns
Row = namedtuple("Row", "index start_eid end_eid score malicious")


def detection_rows(result) -> List[Row]:
    return [
        Row(d.index, d.start_eid, d.end_eid, d.score, d.malicious)
        for d in result.detections
    ]


def cold_sweep(
    bundle: Path, logs: Sequence[Path], n_jobs: int
) -> Tuple[List[float], List[List[Row]]]:
    """One fleet scan from a cold memo state: the process-wide frame
    intern table is cleared and the detector (with its featurizer memo)
    is freshly loaded from the bundle, as fresh pool workers are.

    With ``n_jobs=1`` every log is its own ``scan_logs`` call (the same
    serial work as one call over the list), so the walls are per host:
    each host's wait for its verdict.  Otherwise there is one wall, the
    whole sweep's.  Returns (wall seconds, detections per log)."""
    clear_frame_intern()
    detector = LeapsDetector.load(bundle)
    batches = [[log] for log in logs] if n_jobs == 1 else [list(logs)]
    walls, results = [], []
    for batch in batches:
        start = time.perf_counter()
        results += detector.scan_logs(
            [str(path) for path in batch], n_jobs=n_jobs, executor="process",
            bundle_path=bundle,
        )
        walls.append(time.perf_counter() - start)
    return walls, [detection_rows(result) for result in results]


# -- detection quality -----------------------------------------------------------
def per_event_auc(rows: List[Row], attack_eids: np.ndarray, n_events: int) -> float:
    """ROC AUC of the per-event score, as the Table-I bench scores it:
    each event takes the minimum decision value over the windows
    covering it; uncovered events are left out."""
    auc = per_event_roc(rows, attack_eids, n_events)["auc"]
    if auc is None:
        raise ValueError("per-event AUC needs attack and benign events")
    return auc


@dataclass
class Quality:
    cover_windows: int = 0  # windows covering an attack event
    cover_flagged: int = 0
    clean_windows: int = 0  # windows of clean hosts
    clean_flagged: int = 0
    correct_windows: int = 0  # compromised-host windows flagged + clean not
    all_windows: int = 0

    def add(self, host: Host, rows: List[tuple]) -> None:
        for _, start, end, _, malicious in rows:
            self.all_windows += 1
            if host.compromised:
                self.correct_windows += malicious
                first = np.searchsorted(host.attack_eids, start)
                if first < len(host.attack_eids) and host.attack_eids[first] <= end:
                    self.cover_windows += 1
                    self.cover_flagged += malicious
            else:
                self.clean_windows += 1
                self.clean_flagged += malicious
                self.correct_windows += not malicious

    def metrics(self) -> dict:
        return {
            "alert_tpr": self.cover_flagged / self.cover_windows,
            "alert_tnr": 1.0 - self.clean_flagged / self.clean_windows,
            "window_acc": self.correct_windows / self.all_windows,
        }


def host_quality(hosts: Sequence[Host], detections: Sequence[List[tuple]]) -> dict:
    quality = Quality()
    aucs = []
    for host, rows in zip(hosts, detections):
        quality.add(host, rows)
        if host.compromised:
            aucs.append(per_event_auc(rows, host.attack_eids, host.n_events))
    return {**quality.metrics(), "event_auc": float(np.mean(aucs))}


# -- machine speed -----------------------------------------------------------------
#: median seconds of one run of the reference work on a 2-core x86-64
#: container of a shared host, where the benchmark was tuned, alone and
#: as the slowest of two copies run at once; normalized timings read as
#: if every run had had that speed
REFERENCE_S = 0.055
PARALLEL_REFERENCE_S = 0.07
#: the reference of the process whose pool workers run it (set before
#: they fork)
_FORKED_REFERENCE: "Optional[SpeedReference]" = None


def _timed_reference(_) -> float:
    """Run in a pool worker: wait until every worker holds a copy, then
    time the reference work."""
    _FORKED_REFERENCE.barrier.wait(timeout=60)
    start = time.perf_counter()
    _FORKED_REFERENCE.work()
    return time.perf_counter() - start


class SpeedReference:
    """A fixed piece of work, timed beside the timed passes of a run.

    The benchmark runs on a share of a host whose speed drifts by 20-30%
    over minutes, with the load of other tenants; every pass of one run
    slows alike, so medians within a run do not remove it.  This work
    has the program's mix, interpreted string splitting and dict
    interning plus numpy array passes, but is the benchmark's own code
    and no change to the program moves it.  Timed next to the passes, it
    says how fast the machine ran during the run: :meth:`factor` is the
    run's median over :data:`REFERENCE_S`, above 1 on a slow stretch.
    It uses no BLAS call, so thread settings do not change it.

    With ``workers`` > 1 each sample also runs the work in ``workers``
    pool processes at once; the slowest copy's time is the parallel
    sample, and the parallel factor is their median over
    :data:`PARALLEL_REFERENCE_S`.  It tracks how much of the other cores
    the run had, which the passes at ``n_jobs=nproc`` and the sharded
    server depend on and a serial sample does not see.  Call
    :meth:`close` to stop the pool."""

    def __init__(self, workers: int = 1):
        modules = [f"module{i}.dll" for i in range(40)]
        functions = [f"Function{i}" for i in range(300)]
        self.lines = []
        for eid in range(2500):
            self.lines.append(f"EVENT|{eid}|{eid * 7}|1234|vim.exe|77|FileIO|{eid % 9}|Read")
            for frame in range(6):
                self.lines.append(
                    f"STACK|{eid}|{frame}|{modules[(eid * 3 + frame) % 40]}"
                    f"|{functions[(eid * 7 + frame * 13) % 300]}|0x{(eid * 9973 + frame) & 0xFFFFFFFF:x}"
                )
        self.values = np.random.default_rng(0).random(300_000)
        self.samples: List[float] = []
        self.parallel_samples: List[float] = []
        self.work()  # first touch of the pages, untimed
        self.workers = workers
        self.pool = None
        if workers > 1:
            global _FORKED_REFERENCE
            _FORKED_REFERENCE = self
            context = multiprocessing.get_context("fork")
            self.barrier = context.Barrier(workers)
            self.pool = ProcessPoolExecutor(workers, mp_context=context)
            self._parallel()  # start every worker, untimed

    def work(self) -> float:
        frames: Dict[tuple, int] = {}
        walks: Dict[tuple, int] = {}
        events: List[list] = []
        for line in self.lines:
            parts = line.split("|")
            if parts[0] == "EVENT":
                walk: List[int] = []
                events.append([int(parts[1]), int(parts[2]), parts[8], walk])
            else:
                walk.append(frames.setdefault((parts[3], parts[4], int(parts[5], 16)), len(frames)))
        ids = np.array([walks.setdefault(tuple(event[3]), len(walks)) for event in events])
        counts: Dict[int, int] = {}
        for i in range(100_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        ordered = np.sort(self.values)
        return float(np.exp(-ordered * ordered).sum() + np.bincount(ids).sum() + len(counts))

    def _parallel(self) -> float:
        return max(self.pool.map(_timed_reference, range(self.workers)))

    def measure(self) -> None:
        start = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - start)
        if self.pool is not None:
            self.parallel_samples.append(self._parallel())

    def factor(self, parallel: bool = False) -> float:
        if parallel and self.parallel_samples:
            return float(np.median(self.parallel_samples)) / PARALLEL_REFERENCE_S
        return float(np.median(self.samples)) / REFERENCE_S

    def normalize(
        self, metrics: dict, durations: Sequence[str] = (), rates: Sequence[str] = (),
        parallel_rates: Sequence[str] = (),
    ) -> dict:
        """``metrics`` with each named duration divided and each named
        rate multiplied by :meth:`factor`.  ``parallel_rates`` are
        multiplied by the geometric mean of the serial and the parallel
        factor: a pass on ``nproc`` processes has serial parts too (the
        parent starts the pool, hands out the work and gathers the
        results), and over ten-run sets on the 2-core machine this mean
        left the parallel rates of all three workloads steadier than
        either factor alone."""
        out = dict(metrics)
        for name in durations:
            out[name] = metrics[name] / self.factor()
        for name in rates:
            out[name] = metrics[name] * self.factor()
        for name in parallel_rates:
            out[name] = metrics[name] * (self.factor() * self.factor(parallel=True)) ** 0.5
        return out

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown(wait=True)
            self.pool = None


# -- host record -----------------------------------------------------------------
def worker_count() -> int:
    return len(os.sched_getaffinity(0))


def filesystem_of(path: Path) -> str:
    """The filesystem type holding ``path``, from the mount table."""
    target = str(path.resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                point = fields[1]
                inside = target == point or target.startswith(point.rstrip("/") + "/")
                if inside and len(point) > len(best):
                    best, fstype = point, fields[2]
    except OSError:
        pass
    return fstype


def host_record(work: Path) -> dict:
    workers = worker_count()
    fstype = filesystem_of(work)
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": workers,
        "workers": workers,
        "scaling": (
            f"measured with {workers} workers"
            if workers > 1
            else "unmeasured: one core available, so n_jobs=nproc equals n_jobs=1"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "scratch_dir": str(work),
        "scratch_fs": fstype,
        "scratch_tmpfs": fstype == "tmpfs",
        "memo_state": "cold: frame intern cleared and bundle reloaded before every scan pass",
    }


def reset_peak_rss() -> bool:
    """Reset this process's RSS high-water mark to its current RSS, so
    the peak read later covers only what ran since.  False where the
    kernel offers no reset (the peak then covers the whole process)."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def children_peak_kib() -> int:
    """The largest peak RSS among this process's ended descendants."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb() -> float:
    """This process's RSS high-water mark (``VmHWM``, which
    :func:`reset_peak_rss` resets) plus the largest peak among its ended
    child processes, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        pass
    return (own + children_peak_kib()) / 1024.0
