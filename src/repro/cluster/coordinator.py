"""`MiningCluster` — the supervised chunk runner sharding many graphs.

Gao et al. (arxiv 2204.09236) scale temporal motif counting by
partitioning the search into independent tasks and merging commutative
per-partition counts; our root-range chunks and ``FamilyResult.merge``
are exactly that decomposition.  A cluster is the same supervised
chunk runner as the pool (:class:`~repro.resilience.supervisor.ChunkSupervisor`:
one worker main, one transport, one supervision loop) with worker
*nodes* that hold many graphs instead of one.  Because chunks are pure,
idempotent functions of ``(graph fingerprint, kind, spec, delta,
range)`` and merging is order-independent, counts and SearchCounters
stay byte-identical to the serial miner through arbitrary whole-node
deaths.

What is cluster-specific:

- **Consistent-hash placement.**  Graphs land on node *slots* via a
  :class:`~repro.cluster.ring.HashRing` keyed on
  ``TemporalGraph.fingerprint``; ``replication`` slots hold each graph
  resident (default: all of them).  Respawned processes inherit their
  slot, so placement depends only on cluster shape.
- **Graph residency.**  Graphs are shipped (through shared memory,
  like the pool's) to their placed slots on first use or via
  :meth:`MiningCluster.ensure_graph`, stay resident for later calls,
  and are released with :meth:`MiningCluster.drop_graph`.
- **Ring failover.**  All placed slots dead with no respawn budget
  left and other slots alive → the graph fails over to the next live
  ring successors (re-shipped, placement extended) and the run
  completes degraded; nothing left → :class:`ClusterFailed`.

The mining API mirrors the pool's (``count`` / ``count_many`` /
``count_family`` / ``sample_intervals``) with the graph as the first
argument, so the service executor and the CLI drive a cluster exactly
like a local pool.  Fault injection uses the ``node.chunk`` site
(context: ``worker`` = node slot index).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.graph.temporal_graph import TemporalGraph
from repro.mining.parallel import (
    FamilyParallelResult,
    GraphShipment,
    ParallelResult,
)
from repro.resilience.supervisor import ChunkSupervisor


class ClusterDegraded(RuntimeError):
    """The respawn budget is exhausted and the cluster is running below
    its target node count.  Raised by the mining calls only when
    ``allow_degraded=False``; by default runs complete on survivors."""


class ClusterFailed(ClusterDegraded):
    """No node survives and the respawn budget is spent: the run cannot
    complete and the cluster is permanently broken."""


def slot_name(index: int) -> str:
    """The stable ring name of node slot ``index``."""
    return f"node-{index}"


def _slot_index(name: str) -> int:
    return int(name.split("-", 1)[1])


class MiningCluster(ChunkSupervisor):
    """N worker nodes behind one coordinator, mineable like a pool.

    Unlike the single-graph pool, a cluster is graph-agnostic: graphs
    are shipped on first use (or explicitly via :meth:`ensure_graph`)
    to the ``replication`` slots the ring places them on — the shape a
    shared node pool serving many graphs and several service replicas
    needs.  Supervision parameters (``chunk_timeout_s``,
    ``respawn_budget``, ``max_chunk_errors``, backoff, ``seed``,
    ``fault_plan``, ``on_event``, ``clock``/``sleep``) are the pool's:
    see :class:`~repro.resilience.supervisor.ChunkSupervisor`.
    """

    fault_site = "node.chunk"
    process_name = "mint-node"
    Degraded = ClusterDegraded
    Failed = ClusterFailed

    def __init__(
        self,
        num_nodes: Optional[int] = None,
        *,
        replication: Optional[int] = None,
        vnodes: int = DEFAULT_VNODES,
        connect_timeout_s: float = 30.0,
        **supervision,
    ) -> None:
        if replication is not None and not (
            1 <= replication <= (num_nodes or os.cpu_count() or 1)
        ):
            raise ValueError("replication must be in [1, num_nodes]")
        self.connect_timeout_s = float(connect_timeout_s)
        #: fingerprint -> ordered slot indices the graph is placed on
        #: (ring placement, extended by failover).
        self._placements: Dict[str, List[int]] = {}
        super().__init__(num_nodes, **supervision)
        self.replication = (
            self.num_workers if replication is None else int(replication)
        )
        self._fanout = self.replication
        self.ring = HashRing(
            (slot_name(i) for i in range(self.num_workers)), vnodes=vnodes
        )

    # -- supervision hooks -----------------------------------------------------

    def _placed(self, fp: str) -> List[int]:
        return self._placements.get(fp, [])

    def _free_id(self) -> int:
        """A respawn keeps its slot: the lowest slot with no process."""
        return min(set(range(self.num_workers)) - set(self._workers))

    def _resident(self, graph: TemporalGraph) -> str:
        return self._ensure_graph_locked(graph)

    def _failover(self, fp: str) -> bool:
        """Extend a graph's placement to the next live ring successors.

        Returns True when at least one new live slot adopted the graph
        (the run continues, degraded)."""
        placed = self._placements[fp]
        adopted = False
        for name in self.ring.successors(
            fp, exclude={slot_name(s) for s in placed}
        ):
            node = self._workers.get(_slot_index(name))
            if node is None or not node.process.is_alive():
                continue
            placed.append(node.wid)
            self._ship(node, fp)
            self._event("failovers")
            adopted = True
            if len(placed) >= self.replication:
                break
        return adopted

    # -- observability ---------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return self.num_workers

    @property
    def live_nodes(self) -> int:
        return self.live_workers

    def placement(self, fingerprint: str) -> tuple:
        """The slot indices ``fingerprint`` is currently placed on."""
        return tuple(self._placements.get(fingerprint, ()))

    # -- graph residency -------------------------------------------------------

    def ensure_graph(self, graph: TemporalGraph) -> str:
        """Place (and ship) a graph onto its ring slots; returns its
        fingerprint.  Idempotent; later mining calls reuse residency.

        Serialized on the mining lock: node sockets are single-reader /
        single-writer, so residency changes take turns with runs.
        """
        with self._mine_lock:
            return self._ensure_graph_locked(graph)

    def _ensure_graph_locked(self, graph: TemporalGraph) -> str:
        self._check_usable()
        fp = graph.fingerprint()
        if fp in self._placements:
            return fp
        self._shipments[fp] = GraphShipment(graph)
        self._placements[fp] = [
            _slot_index(name)
            for name in self.ring.nodes_for(fp, self.replication)
        ]
        for slot in self._placements[fp]:
            node = self._workers.get(slot)
            if node is not None:
                self._ship(node, fp)
        return fp

    def drop_graph(self, fingerprint: str) -> None:
        """Release a graph everywhere (no-op for unknown fingerprints).

        Serialized on the mining lock, like :meth:`ensure_graph`."""
        with self._mine_lock:
            shipment = self._shipments.pop(fingerprint, None)
            if shipment is not None:
                shipment.close()
            for slot in self._placements.pop(fingerprint, []):
                node = self._workers.get(slot)
                if node is None or fingerprint not in node.graphs:
                    continue
                try:
                    node.conn.send(("drop", fingerprint))
                except OSError:
                    pass
                node.graphs.discard(fingerprint)

    # -- mining ----------------------------------------------------------------

    def count(
        self,
        graph: TemporalGraph,
        motif,
        delta: int,
        chunks_per_node: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = "mackey",
    ) -> ParallelResult:
        return self.count_many(
            graph, [motif], delta, chunks_per_node, cancel_check,
            allow_degraded, engine=engine,
        )[0]

    def count_many(
        self,
        graph: TemporalGraph,
        motifs: Sequence,
        delta: int,
        chunks_per_node: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = "mackey",
    ) -> List[ParallelResult]:
        """Count several motifs in one cluster dispatch wave; the
        semantics of
        :meth:`~repro.resilience.supervisor.SupervisedMiningPool.count_many`,
        with :class:`ClusterFailed` / :class:`ClusterDegraded` and ring
        failover."""
        return self._count_many(
            graph, motifs, delta, chunks_per_node, cancel_check,
            allow_degraded, engine,
        )

    def count_family(
        self,
        graph: TemporalGraph,
        motifs: Sequence,
        delta: int,
        chunks_per_node: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ) -> FamilyParallelResult:
        """Co-mine a motif family across the cluster (one shared
        traversal per chunk, the ``"family"`` chunk kind)."""
        return self._count_family(
            graph, motifs, delta, chunks_per_node, cancel_check,
            allow_degraded,
        )

    def sample_intervals(
        self,
        graph: TemporalGraph,
        motif,
        delta: int,
        spec,
        lo: int,
        hi: int,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ):
        """Run approximate sample indices ``[lo, hi)`` as node chunks;
        byte-identical to an inline ``sample_range(lo, hi)``."""
        return self._sample_intervals(
            graph, motif, delta, spec, lo, hi, cancel_check, allow_degraded
        )
