"""Shared-traversal co-mining for motif families (``repro.comine``).

Multi-motif workloads — the 36-motif Paranjape grid census, the
service layer's same-(graph, δ) batched queries, streaming catalogs —
historically re-walked the graph once per motif.  This subsystem mines
a whole family in ONE chronological traversal per root edge:

- :mod:`repro.comine.trie` canonicalizes the family into a prefix trie
  of partial edge-orderings (shared prefixes merged, leaves tagged with
  the motifs they complete);
- :mod:`repro.comine.engine` runs the Mackey-style DFS down that trie,
  scanning each node's candidates once for every motif below it, with
  per-motif counts *and* per-motif search counters byte-identical to a
  dedicated :class:`~repro.mining.mackey.MackeyMiner` run, plus
  :class:`~repro.comine.engine.SharingStats` quantifying the traversal
  the trie saved.

Integration points: ``repro.mining.multi`` (``engine="comine"``),
``SupervisedMiningPool.count_family`` / ``MiningCluster.count_family``
(root-range family chunks with the existing retry/chaos machinery), the
service batch lanes, and the ``repro census --engine comine`` CLI.
"""

from repro.comine.trie import MotifTrie, TrieNode
from repro.comine.engine import CoMiner, FamilyResult, SharingStats, co_count

__all__ = [
    "MotifTrie",
    "TrieNode",
    "CoMiner",
    "FamilyResult",
    "SharingStats",
    "co_count",
]
