"""Spans around the public calls into each ``repro`` layer, recorded from
outside the program.

A :class:`Tracer` patches the listed functions and methods for the
duration of a ``with tracer.active():`` block.  Each call opens a span
(name, start, end, parent) kept in memory; :meth:`Tracer.self_times`
gives every span name's self time, the span's duration minus the part
its child spans cover.  Calls are traced on the calling thread only,
so traced work must run serially in-process.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Union

import numpy as np

#: every span name a traced run records, each reported as "<name>_s";
#: "serve.client" is the benchmark's own span around its serve check
LAYER_SPANS = (
    "datasets.generate",
    "etw.fastparse.parse",
    "etw.parser.parse",
    "etw.capture.load",
    "etw.capture.write",
    "core.partition",
    "core.cfg_inference",
    "core.weights",
    "core.detector.fit",
    "core.detector.scan",
    "core.persistence.save",
    "core.persistence.load",
    "preprocessing.featurize",
    "preprocessing.coalesce",
    "learning.scale",
    "learning.score",
    "learning.kernel",
    "learning.grid_search",
    "learning.cv_fit",
    "learning.cv_score",
    "learning.final_fit",
    "serve.encode",
    "serve.client",
)


#: a span name, or a function of the enclosing span names that picks one
SpanName = Union[str, Callable[[List[str]], str]]


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._targets: List[tuple] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def open_names(self) -> List[str]:
        return [self.spans[index][0] for index in self._stack]

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: SpanName, after, inline_under):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            names = self.open_names()
            if names and names[-1] in inline_under:
                # the enclosing layer's own implementation: no new span
                return fn(*args, **kwargs)
            index = self._open(name(names) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self, result, args)
            return result

        return traced

    # -- patching ------------------------------------------------------
    def add(
        self,
        owner,
        attr: str,
        name: SpanName,
        after: Optional[Callable] = None,
        inline_under: tuple = (),
    ) -> None:
        """Trace ``owner.attr`` (a module function or a class method)
        while the tracer is active.  A module function is also replaced
        in every ``repro`` module that imported it by name."""
        self._targets.append((owner, attr, name, after, inline_under))

    @contextmanager
    def active(self):
        for owner, attr, name, after, inline_under in self._targets:
            original = owner.__dict__[attr]
            traced = self._wrap(original, name, after, inline_under)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    module
                    for module_name, module in list(sys.modules.items())
                    if module_name.startswith("repro")
                    and module is not owner
                    and module.__dict__.get(attr) is original
                ]
            for holder in holders:
                setattr(holder, attr, traced)
                self._patches.append((holder, attr, original))
        try:
            yield self
        finally:
            while self._patches:
                holder, attr, original = self._patches.pop()
                setattr(holder, attr, original)

    # -- results -------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return dict(totals)

    def totals(self) -> Dict[str, float]:
        """Inclusive duration per span name (outermost spans of a name
        only, so recursion is not counted twice)."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != name:
                totals[name] += end - start
        return dict(totals)

    def nesting_errors(self, wall_start: float, wall_end: float) -> List[str]:
        """Spans that break the tree the self times assume: each must end
        after it starts, lie inside its parent (top-level spans inside
        the independently timed ``[wall_start, wall_end]``), and not
        overlap its siblings."""
        errors = []
        last_end: Dict[int, float] = {}  # per parent, the previous child's end
        for index, (name, start, end, parent) in enumerate(self.spans):
            low, high = (wall_start, wall_end) if parent < 0 else self.spans[parent][1:3]
            if end < start:
                errors.append(f"span {index} ({name}) ends before it starts")
            if start < low or end > high:
                errors.append(f"span {index} ({name}) lies outside its parent")
            if start < last_end.get(parent, -np.inf):
                errors.append(f"span {index} ({name}) overlaps its previous sibling")
            last_end[parent] = end
        return errors

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def to_json(self, origin: float) -> list:
        return [
            [name, start - origin, end - origin, parent]
            for name, start, end, parent in self.spans
        ]


def _outside_or_in_grid_search(outside: str, inside: str):
    """Model-selection fits and scores are their own spans, apart from
    the final fit and the scan-time scoring."""

    def pick(names: List[str]) -> str:
        return inside if "learning.grid_search" in names else outside

    return pick


def _count_lines(tracer: Tracer, events, args) -> None:
    # one EVENT line plus one STACK line per frame
    tracer.counts["etw.fastparse.lines"] += len(events) + sum(
        len(event.frames) for event in events
    )


def _count_loaded(tracer: Tracer, capture, args) -> None:
    tracer.counts["etw.capture.events"] += len(capture.events)


def _count_generated(tracer: Tracer, dataset, args) -> None:
    tracer.counts["datasets.events"] += sum(
        log.n_events for log in dataset.logs.values()
    )


def _count_windows(tracer: Tracer, result, args) -> None:
    from repro.preprocessing.features import UNKNOWN_ID

    features = np.asarray(args[1])
    tracer.counts["preprocessing.windows"] += len(result[0])
    tracer.counts["preprocessing.feature_entries"] += int(features.size)
    tracer.counts["preprocessing.unknown_entries"] += int(
        np.count_nonzero(features == UNKNOWN_ID)
    )


def repro_tracer() -> Tracer:
    """A tracer over the public layer calls the benchmark measures."""
    from repro.core import persistence
    from repro.core.cfg_inference import CFGInferencer
    from repro.core.detector import LeapsDetector
    from repro.core.weights import WeightAssessor
    from repro.datasets import generation
    from repro.etw import capture, fastparse
    from repro.etw.parser import RawLogParser
    from repro.etw.stack_partition import StackPartitioner
    from repro.learning import cross_validation
    from repro.learning.kernels import PrecomputedKernel
    from repro.learning.scaling import Standardizer
    from repro.learning.svm import KernelSVM
    from repro.learning.wsvm import WeightedSVM
    from repro.preprocessing.features import EventFeaturizer
    from repro.preprocessing.windows import WindowCoalescer
    from repro.serve.columnar import ChunkEncoder

    tracer = Tracer()
    add = tracer.add
    add(generation, "generate_dataset", "datasets.generate", after=_count_generated)
    add(
        fastparse,
        "parse_fast",
        "etw.fastparse.parse",
        after=_count_lines,
        # the training parser delegates to parse_fast: one layer, one span
        inline_under=("etw.parser.parse",),
    )
    add(RawLogParser, "parse_lines", "etw.parser.parse")
    add(capture, "load_capture", "etw.capture.load", after=_count_loaded)
    add(capture, "write_capture_columns", "etw.capture.write")
    # the detector's own work around the layers it calls: reading the
    # training logs, building detections and scan results
    add(LeapsDetector, "fit_logs", "core.detector.fit")
    add(LeapsDetector, "scan_logs", "core.detector.scan")
    add(StackPartitioner, "app_path", "core.partition")
    add(CFGInferencer, "infer_many", "core.cfg_inference")
    add(WeightAssessor, "assess", "core.weights")
    # training's vocabulary fit, window matrix and scaler fit belong to
    # the same layers as their scan-time counterparts
    add(EventFeaturizer, "fit", "preprocessing.featurize")
    add(EventFeaturizer, "transform", "preprocessing.featurize")
    add(
        WindowCoalescer,
        "coalesce_with_matrix",
        "preprocessing.coalesce",
        after=_count_windows,
    )
    add(WindowCoalescer, "coalesce_matrix", "preprocessing.coalesce")
    add(Standardizer, "fit", "learning.scale")
    add(Standardizer, "transform", "learning.scale")
    # the pairwise distances behind the Gram cache of model selection
    add(PrecomputedKernel, "__init__", "learning.kernel")
    add(
        KernelSVM,
        "decision_function",
        _outside_or_in_grid_search("learning.score", "learning.cv_score"),
    )
    add(
        WeightedSVM,
        "fit",
        _outside_or_in_grid_search("learning.final_fit", "learning.cv_fit"),
    )
    add(cross_validation, "grid_search_wsvm", "learning.grid_search")
    add(persistence, "save_bundle", "core.persistence.save")
    add(persistence, "load_bundle", "core.persistence.load")
    add(ChunkEncoder, "encode_events", "serve.encode")
    return tracer
