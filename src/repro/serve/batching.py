"""Cross-stream micro-batched scoring — many streams, one kernel call.

The Gaussian kernel dominates serving cost, and a fleet of trickling
streams would otherwise pay it per-stream on tiny matrices.  The
micro-batcher coalesces *ready chunks* from many streams into one
``(k, 30)`` matrix per model and scores them in a single fused call —
with every chunk's scores **bit-identical** to the serial per-stream
path (``LeapsPipeline.score_stream`` scoring that chunk alone).

Why that holds (the equality argument, DESIGN.md §12):

* chunk boundaries are *per-stream* — chunk k of a stream covers its
  windows ``[k·chunk, (k+1)·chunk)`` regardless of arrival interleaving
  or shard count (:class:`~repro.core.pipeline.StreamChunker`) — so the
  blocks being scored are the exact matrices the serial path builds;
* standardization and every kernel stage except the two BLAS products
  are elementwise, hence bit-deterministic per row whether evaluated on
  one chunk or on the concatenation of fifty;
* the BLAS products round shape-dependently, so
  :meth:`~repro.learning.svm.KernelSVM.decision_function_blocked` runs
  them per block at exactly the serial shapes while fusing the
  elementwise stages (the exp is the bulk of the cost) across the whole
  batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class ScoreChunk:
    """One stream's scoring unit: up to ``stream_chunk_windows``
    consecutive windows (the final chunk of a stream may be partial)."""

    stream_id: str
    pipeline: object
    #: ``(k, 3)`` window spans ``(start_index, start_eid, end_eid)``
    spans: np.ndarray
    #: ``(k, 3*window)`` unscaled window vectors
    matrix: np.ndarray
    #: per-window parse-completion timestamps (latency accounting)
    times: np.ndarray
    #: when the chunk became score-ready (flush-wait accounting for the
    #: adaptive micro-batcher)
    ready_at: float = 0.0


def score_chunks(chunks: Sequence[ScoreChunk]) -> List[np.ndarray]:
    """Score every chunk, micro-batching across streams per model.

    Returns one decision-value array per chunk, in input order, each
    bit-identical to
    ``pipeline.model.decision_function(standardize(chunk))`` evaluated
    on that chunk alone.
    """
    results: List = [None] * len(chunks)
    by_model: dict = {}
    for position, chunk in enumerate(chunks):
        by_model.setdefault(id(chunk.pipeline), []).append(position)
    for positions in by_model.values():
        pipeline = chunks[positions[0]].pipeline
        stacks = [chunks[position].matrix for position in positions]
        matrix = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        matrix = pipeline.standardizer.transform(matrix)
        bounds = []
        cursor = 0
        for stack in stacks:
            bounds.append((cursor, cursor + len(stack)))
            cursor += len(stack)
        scores = pipeline.model.decision_function_blocked(matrix, bounds)
        for position, (start, stop) in zip(positions, bounds):
            results[position] = scores[start:stop]
    return results
