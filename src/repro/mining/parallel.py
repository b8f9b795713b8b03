"""Parallel task-centric mining on real CPU cores: what one chunk computes.

The paper's software baseline is "a task-centric multi-threaded
implementation (similar to [the] proposed programming model) using work
stealing OpenMP threads" (§VII-D).  The Python analog partitions root
tasks (search trees) into root-range chunks, mines them in worker
processes and merges per-chunk counters.  This module holds the parts
of that scheme that do not depend on who runs a chunk:

- **Chunk bodies.**  :data:`CHUNK_KINDS` maps each chunk kind —
  ``"motif"`` (the Mackey DFS), ``"batched"`` (vectorized frontier
  expansion), ``"family"`` (one co-mining traversal for a motif family)
  and ``"sample"`` (approximate interval sampling) — to the engine it
  builds against a worker's resident graph and the wire payload it
  returns.  :func:`run_chunk` is the one entry point every worker calls.
- **Zero-copy graph shipping.**  :class:`GraphShipment` places the
  graph's seven backing numpy arrays (edge list + both CSR adjacency
  structures) in one ``multiprocessing.shared_memory`` segment; workers
  adopt views of that segment (:meth:`ResidentGraph.adopt`), so no
  per-run pickling and no CSR rebuild happens in workers.
- **Guided chunking.**  :func:`_guided_bounds` cuts root ranges with a
  decaying-size schedule so hub-rooted stragglers cannot serialize the
  tail — the work-stealing effect of the paper's baseline.

The process side — workers, dispatch, retries — is
:class:`~repro.resilience.supervisor.SupervisedMiningPool`, which keeps
the graph resident in every worker across many calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph
from repro.graph.window import window_t_limit
from repro.mining.mackey import MackeyMiner
from repro.mining.results import MiningResult, SearchCounters
from repro.motifs.motif import Motif

#: Engines a pool can run per root chunk.  Both are exact and produce
#: byte-identical counts/counters; ``batched`` replaces the scalar DFS
#: inner loop with vectorized frontier expansion
#: (:mod:`repro.mining.batched`).
POOL_ENGINES = ("mackey", "batched")

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover
    _shm = None


# -- worker side ---------------------------------------------------------------


def _attach_untracked(shm_name: str):
    """Attach to an existing segment without resource-tracker bookkeeping.

    The parent owns (and unlinks) the segment; if every worker also
    registered it, the tracker would warn about double-unregistration at
    shutdown.  Python >= 3.13 exposes ``track=False`` for exactly this;
    older versions need the register call suppressed during attach.
    """
    try:
        return _shm.SharedMemory(name=shm_name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return _shm.SharedMemory(name=shm_name)
        finally:
            resource_tracker.register = original


class _RangeMiner(MackeyMiner):
    """A Mackey miner that can restrict root tasks to an index range."""

    def mine_range(self, root_lo: int, root_hi: int) -> MiningResult:
        self._counters = SearchCounters()
        self._matches = []
        self._count = 0
        self._m2g = [-1] * self.motif.num_nodes
        self._g2m = {}
        self._seq = []
        self._root_edge = -1
        self._memo["out"].clear()
        self._memo["in"].clear()

        l = self.motif.num_edges
        u0, v0 = self.motif.edge(0)
        counters = self._counters
        src, dst, ts = self._src, self._dst, self._ts
        for e0 in range(root_lo, min(root_hi, self.graph.num_edges)):
            counters.root_tasks += 1
            s, d = src[e0], dst[e0]
            if s == d:
                continue
            self._root_edge = e0
            self._m2g[u0] = s
            self._m2g[v0] = d
            self._g2m[s] = u0
            self._g2m[d] = v0
            self._seq.append(e0)
            counters.bookkeeps += 1
            if l == 1:
                self._emit()
            else:
                self._extend(1, e0, window_t_limit(ts[e0], self.delta))
            self._seq.pop()
            del self._g2m[s]
            del self._g2m[d]
            self._m2g[u0] = -1
            self._m2g[v0] = -1
            counters.backtracks += 1
        return MiningResult(count=self._count, counters=counters)


class ResidentGraph:
    """A worker's copy of one shipped graph and the engines built on it.

    Engines are built once per ``(chunk kind, spec, delta)`` and reused
    across that query's chunks, so per-engine setup (a miner's memo
    tables, a co-miner's motif trie, a sampler's bin weights) is paid
    once per worker, not once per chunk.
    """

    __slots__ = ("graph", "engines", "_keepalive")

    def __init__(self, graph: TemporalGraph, keepalive=None) -> None:
        self.graph = graph
        self.engines: Dict[Tuple, object] = {}
        #: The shared-memory segment the graph's arrays view, if any.
        self._keepalive = keepalive

    @classmethod
    def from_arrays(
        cls, arrays: Dict[str, np.ndarray], num_nodes: int, keepalive=None
    ) -> "ResidentGraph":
        graph = TemporalGraph.from_arrays(
            num_nodes=num_nodes, validate=False, **arrays
        )
        return cls(graph, keepalive)

    @classmethod
    def adopt(cls, payload) -> "ResidentGraph":
        """Rebuild a graph shipped as :attr:`GraphShipment.payload`."""
        shm_name, data, num_nodes = payload
        if shm_name is None:
            return cls.from_arrays(data, num_nodes)
        seg = _attach_untracked(shm_name)
        arrays = {
            name: np.ndarray(
                (length,), dtype=np.int64, buffer=seg.buf, offset=start * 8
            )
            for name, (start, length) in data.items()
        }
        return cls.from_arrays(arrays, num_nodes, keepalive=seg)


def _mining_payload(result: MiningResult) -> Tuple[int, dict]:
    return result.count, result.counters.as_dict()


def _batched_miner(graph: TemporalGraph, edges, delta: int):
    from repro.mining.batched import BatchedMiner  # lazy: avoids an import cycle

    return BatchedMiner(graph, Motif(edges), delta)


def _cominer(graph: TemporalGraph, family_edges, delta: int):
    from repro.comine.engine import CoMiner  # lazy: avoids an import cycle

    return CoMiner(graph, [Motif(edges) for edges in family_edges], delta)


def _sampler(graph: TemporalGraph, spec, delta: int):
    from repro.approx.sampler import IntervalSampler, spec_from_params

    # spec = (motif_edges, ApproxSpec.sampler_params()); lo/hi of a
    # sample chunk are sample indices, not root edges.
    edges, params = spec
    return IntervalSampler(graph, Motif(edges), delta, spec_from_params(params))


#: chunk kind -> (engine factory ``(graph, spec, delta)``,
#: ``run(engine, lo, hi)`` returning the chunk's wire payload).
CHUNK_KINDS = {
    "motif": (
        lambda graph, edges, delta: _RangeMiner(graph, Motif(edges), delta),
        lambda engine, lo, hi: _mining_payload(engine.mine_range(lo, hi)),
    ),
    "batched": (
        _batched_miner,
        lambda engine, lo, hi: _mining_payload(engine.mine_range(lo, hi)),
    ),
    "family": (
        _cominer,
        lambda engine, lo, hi: engine.mine_range(lo, hi).as_payload(),
    ),
    "sample": (
        _sampler,
        lambda engine, lo, hi: engine.sample_range(lo, hi).as_payload(),
    ),
}


def run_chunk(
    resident: ResidentGraph, kind: str, spec, delta: int, lo: int, hi: int
):
    """Run one chunk of ``kind`` on ``resident``'s graph.

    Every chunk is a pure function of ``(graph, kind, spec, delta, lo,
    hi)``, so it can be retried on any worker holding the same graph
    and its payload merged in any order.
    """
    try:
        build, run = CHUNK_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown chunk kind {kind!r}") from None
    key = (kind, spec, delta)
    engine = resident.engines.get(key)
    if engine is None:
        engine = resident.engines[key] = build(resident.graph, spec, delta)
    return run(engine, lo, hi)


# -- parent side ---------------------------------------------------------------


class GraphShipment:
    """One-time shipment of a graph's backing arrays to worker processes.

    The arrays go into a single ``multiprocessing.shared_memory``
    segment and workers adopt zero-copy views; where shared memory is
    unavailable the contiguous arrays are pickled once per worker.
    :attr:`payload` is what a worker's :meth:`ResidentGraph.adopt`
    takes; ``close`` unlinks the segment.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        self._seg = None
        arrays = graph.as_arrays()
        if _shm is not None:
            try:
                total = sum(len(a) for a in arrays.values())
                seg = _shm.SharedMemory(create=True, size=max(1, total * 8))
                layout: Dict[str, Tuple[int, int]] = {}
                start = 0
                for name, a in arrays.items():
                    length = len(a)
                    view = np.ndarray(
                        (length,), dtype=np.int64, buffer=seg.buf, offset=start * 8
                    )
                    view[:] = np.asarray(a, dtype=np.int64)
                    layout[name] = (start, length)
                    start += length
                self._seg = seg
                self.payload = (seg.name, layout, graph.num_nodes)
                return
            except OSError:  # pragma: no cover - e.g. /dev/shm unavailable
                self._seg = None
        contiguous = {
            name: np.ascontiguousarray(a, dtype=np.int64)
            for name, a in arrays.items()
        }
        self.payload = (None, contiguous, graph.num_nodes)

    def close(self) -> None:
        if self._seg is not None:
            self._seg.close()
            try:
                self._seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._seg = None


class MiningCancelled(RuntimeError):
    """Raised by the pool's mining calls when their ``cancel_check``
    fires.  Cancellation is best-effort at chunk granularity: chunks
    already executing run to completion, but no further chunks are
    dispatched and partial counts are discarded."""


@dataclass(frozen=True)
class ParallelResult:
    count: int
    counters: SearchCounters
    num_workers: int
    num_chunks: int


@dataclass(frozen=True)
class FamilyParallelResult:
    """Per-motif results of one sharded co-mining wave.

    ``results`` follow the family's input order; each carries the
    motif's exact count and its attributed per-motif counters (byte-
    identical to a dedicated serial miner).  ``counters`` is the shared
    work actually performed, ``sharing`` what the trie saved.
    """

    results: Tuple[ParallelResult, ...]
    counters: SearchCounters
    sharing: "SharingStats"  # noqa: F821 - repro.comine.engine.SharingStats
    num_workers: int
    num_chunks: int


def _guided_bounds(
    num_edges: int, num_workers: int, chunks_per_worker: int
) -> List[Tuple[int, int]]:
    """Guided (decaying-size) root-range schedule over ``[0, num_edges)``.

    Early chunks are large (low dispatch overhead); the tail is cut into
    chunks no smaller than ``num_edges / (workers * chunks_per_worker)``
    so a late hub-rooted range cannot hold the whole pool hostage —
    OpenMP's ``schedule(guided)``, which the work-stealing baseline
    approximates.
    """
    bounds: List[Tuple[int, int]] = []
    min_chunk = max(1, num_edges // max(1, num_workers * chunks_per_worker))
    lo = 0
    while lo < num_edges:
        size = max(min_chunk, (num_edges - lo) // (2 * num_workers))
        hi = min(num_edges, lo + size)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def count_motifs_parallel(
    graph: TemporalGraph,
    motif: Motif,
    delta: int,
    num_workers: Optional[int] = None,
    chunks_per_worker: int = 8,
    engine: str = "mackey",
) -> ParallelResult:
    """Exactly count ``motif`` using a pool of worker processes.

    Counts are identical to :class:`MackeyMiner` (root tasks are
    independent); counters are merged across workers.  ``num_workers``
    defaults to the machine's CPU count; ``num_workers=0`` runs inline
    (useful for tests and small graphs, where process startup dominates).
    """
    if engine not in POOL_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {POOL_ENGINES}")
    if num_workers is None:
        num_workers = os.cpu_count() or 1
    if num_workers <= 0 or graph.num_edges == 0:
        if engine == "batched":
            from repro.mining.batched import BatchedMiner

            result = BatchedMiner(graph, motif, delta).mine()
        else:
            result = MackeyMiner(graph, motif, delta).mine()
        return ParallelResult(result.count, result.counters, 0, 1)
    from repro.resilience.supervisor import SupervisedMiningPool  # lazy: cycle

    # Offline runs have no deadline to protect: no wedge detection, so a
    # legitimately long chunk on a big graph is never killed.
    with SupervisedMiningPool(graph, num_workers, chunk_timeout_s=None) as pool:
        return pool.count(motif, delta, chunks_per_worker, engine=engine)
