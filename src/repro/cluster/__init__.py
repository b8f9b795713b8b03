"""`repro.cluster` — sharded mining across worker nodes.

Root-range chunks and commutative count merging — the decomposition Gao
et al. (arxiv 2204.09236) use to scale temporal motif counting — run on
the same supervised chunk runner as the local pool
(:class:`~repro.resilience.supervisor.ChunkSupervisor`: one worker
main, one authenticated local-socket transport, one supervision loop).
This package adds only what is cluster-specific:

- :mod:`~repro.cluster.ring` — :class:`HashRing`, deterministic
  consistent-hash placement of graphs (keyed on
  ``TemporalGraph.fingerprint``) onto node slots;
- :mod:`~repro.cluster.coordinator` — :class:`MiningCluster`: ring
  placement, per-graph residency on the placed slots (respawns keep
  their slot) and ring failover when every placed node is gone, so
  counts stay byte-identical to the serial miner through whole-node
  deaths;
- :mod:`~repro.cluster.executor` — :class:`ClusterExecutor`, the
  service backend (exact and approximate batches); several service
  replicas can share one cluster.
"""

from repro.cluster.coordinator import (
    ClusterDegraded,
    ClusterFailed,
    MiningCluster,
    slot_name,
)
from repro.cluster.executor import ClusterExecutor
from repro.cluster.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ClusterDegraded",
    "ClusterExecutor",
    "ClusterFailed",
    "DEFAULT_VNODES",
    "HashRing",
    "MiningCluster",
    "slot_name",
]
