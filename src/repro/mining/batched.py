"""Vectorized batched frontier engine (Everest-style data-parallel search).

:class:`MackeyMiner` advances one candidate graph edge per Python
iteration — every layer above it (SupervisedMiningPool, MiningCluster,
service batch lanes, co-mining) multiplies that scalar core.  This
engine flattens the same search into **frontier expansion**: a whole
batch of partial matches is held as parallel numpy arrays and one motif
edge *level* is matched at a time for the entire frontier:

- **Frontier layout.**  At level ``k`` every live partial match is one
  row across three arrays: ``bindings`` (``F × num_motif_nodes``; motif
  label → bound graph node, ``-1`` unbound), ``last_e`` (the graph edge
  matched at level ``k-1``) and ``t_limit`` (the root's inclusive
  window bound ``t_root + δ``, constant down a tree).  Which motif
  labels are bound at level ``k`` depends only on the motif's edge
  sequence, never on the data — so every row of a frontier is in the
  same *scan case* and the per-level plan is precomputed once.
- **Vectorized time-window filtering.**  The per-candidate loop of the
  scalar miner — bisect to the first edge after ``last_e``, scan until
  the first timestamp past ``t_limit`` — becomes two segmented binary
  searches over the CSR timestamp views (:attr:`TemporalGraph.out_ts` /
  :attr:`~TemporalGraph.in_ts`) via
  :func:`~repro.graph.temporal_graph.segmented_searchsorted`: the
  window of every frontier row is located in ``O(log max_degree)``
  numpy passes, the paper's §VI-A linear stream replaced by batched
  bisection.  Candidate materialization is one ``np.repeat`` ragged
  expansion; endpoint-binding constraints are boolean masks over the
  whole candidate block.
- **Byte-identical accounting.**  Every :class:`SearchCounters` field
  is reproduced *exactly* as the scalar miner would have counted it —
  searches/backtracks per frontier row, one binary search of
  ``max(1, ceil(log2(degree+1)))`` steps per neighborhood scan, and
  candidate/byte touches including the one edge that terminates each
  scan by crossing the window bound.  The parity suites assert equality
  with :class:`MackeyMiner` at the byte level, the discipline
  ``repro.comine`` established.

Root tasks remain independent, so :meth:`BatchedMiner.mine_range`
restricts the root range for chunked execution (the ``"batched"`` chunk
kind of the pools) and results merge commutatively.  Roots are
processed in blocks of ``root_block`` to bound frontier memory;
``cancel_check`` is polled between levels (mid-frontier), not just
between blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.graph.temporal_graph import TemporalGraph, segmented_searchsorted
from repro.graph.window import window_t_limit
from repro.mining.mackey import EDGE_RECORD_BYTES, INDEX_BYTES
from repro.mining.results import MiningResult, SearchCounters
from repro.motifs.motif import Motif

#: Scan cases of Algorithm 1's FindNextMatchingEdge, fixed per level.
OUT, IN, TAIL = "out", "in", "tail"


@dataclass(frozen=True)
class _LevelPlan:
    """Static expansion recipe for one motif edge level.

    ``kind`` picks the candidate pool (out-neighborhood of the mapped
    source, in-neighborhood of the mapped destination, or the edge-list
    tail); ``u``/``v`` are the motif labels of this level's edge and
    ``v_bound`` says whether the destination label is already bound
    when this level runs (closing edge) or freshly bound on accept.
    """

    kind: str
    u: int
    v: int
    v_bound: bool


def _plan_levels(motif: Motif) -> List[_LevelPlan]:
    u0, v0 = motif.edge(0)
    seen = {u0, v0}
    plans: List[_LevelPlan] = []
    for k in range(1, motif.num_edges):
        u, v = motif.edge(k)
        if u in seen:
            kind = OUT
        elif v in seen:
            kind = IN
        else:
            kind = TAIL
        plans.append(_LevelPlan(kind=kind, u=u, v=v, v_bound=v in seen))
        seen.add(u)
        seen.add(v)
    return plans


def _binary_search_steps(degrees: np.ndarray) -> np.ndarray:
    """``max(1, ceil(log2(d + 1)))`` per row, in exact integer arithmetic.

    ``ceil(log2(d + 1))`` equals the bit length of ``d``; ``np.frexp``
    yields it exactly for every degree below 2**53 (the float64
    mantissa), with no log-rounding hazard at powers of two.
    """
    steps = np.zeros(len(degrees), dtype=np.int64)
    nz = degrees > 0
    if nz.any():
        _, exponents = np.frexp(degrees[nz].astype(np.float64))
        steps[nz] = exponents.astype(np.int64)
    return np.maximum(steps, 1)


def _ragged_take(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Materialize ragged ranges ``[starts[i], starts[i]+counts[i])``.

    Returns ``(rows, positions)``: for every element of every range,
    the frontier row it belongs to and its absolute position — the
    standard repeat/cumsum expansion, no Python loop.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    if total == 0:
        return rows, np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    positions = np.repeat(starts, counts) + within
    return rows, positions


class BatchedMiner:
    """Exact δ-temporal motif miner by vectorized frontier expansion.

    Counts and :class:`SearchCounters` are byte-identical to
    :class:`~repro.mining.mackey.MackeyMiner` (``memoize=False``); the
    parity suites enforce this across the motif catalog, the generator
    families and arbitrary hypothesis graphs.

    Parameters
    ----------
    graph, motif, delta:
        The mining problem (δ in the graph's integer time unit).
    root_block:
        Roots expanded per frontier wave; bounds peak frontier memory
        (per-block peak is the widest level the block's search trees
        reach).  Counts and counters are independent of this value.
    cancel_check:
        Optional hook polled between frontier levels; when it returns
        True the run raises
        :class:`~repro.mining.parallel.MiningCancelled` (the serving
        layer's deadline contract).
    """

    def __init__(
        self,
        graph: TemporalGraph,
        motif: Motif,
        delta: int,
        root_block: int = 4096,
        cancel_check: Optional[Callable[[], bool]] = None,
    ) -> None:
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if root_block < 1:
            raise ValueError("root_block must be positive")
        self.graph = graph
        self.motif = motif
        self.delta = int(delta)
        self.root_block = int(root_block)
        self.cancel_check = cancel_check
        self._plans = _plan_levels(motif)
        self._num_labels = motif.num_nodes

    # -- public API -----------------------------------------------------------

    def mine(self) -> MiningResult:
        """Run over every root edge and return count + counters."""
        return self.mine_range(0, self.graph.num_edges)

    def mine_range(self, root_lo: int, root_hi: int) -> MiningResult:
        """Mine with root edges restricted to ``[root_lo, root_hi)``.

        Chunk results merge commutatively (integer sums), so sharding
        the root range across workers cannot change counts — the same
        contract the pools rely on for the scalar engines.
        """
        counters = SearchCounters()
        lo = max(0, root_lo)
        hi = min(root_hi, self.graph.num_edges)
        count = 0
        for block_lo in range(lo, hi, self.root_block):
            count += self._mine_block(
                block_lo, min(hi, block_lo + self.root_block), counters
            )
        return MiningResult(count=count, counters=counters)

    # -- internals -------------------------------------------------------------

    def _poll_cancel(self) -> None:
        if self.cancel_check is not None and self.cancel_check():
            from repro.mining.parallel import MiningCancelled

            raise MiningCancelled("batched mining cancelled by cancel_check")

    def _mine_block(self, lo: int, hi: int, counters: SearchCounters) -> int:
        """Expand one root block level-by-level; returns its match count."""
        g = self.graph
        self._poll_cancel()
        counters.root_tasks += hi - lo
        src = g.src[lo:hi]
        dst = g.dst[lo:hi]
        valid = src != dst  # motif edges are never self-loops
        n_valid = int(valid.sum())
        # Every valid root is one book-keep and (when its tree unwinds)
        # one backtrack, exactly as the scalar root loop counts them.
        counters.bookkeeps += n_valid
        counters.backtracks += n_valid
        if self.motif.num_edges == 1:
            counters.matches += n_valid
            return n_valid
        if n_valid == 0:
            return 0

        roots = np.arange(lo, hi, dtype=np.int64)[valid]
        u0, v0 = self.motif.edge(0)
        bindings = np.full((n_valid, self._num_labels), -1, dtype=np.int64)
        bindings[:, u0] = src[valid]
        bindings[:, v0] = dst[valid]
        last_e = roots
        t_limit = window_t_limit(g.ts[roots], self.delta)

        count = 0
        last_level = len(self._plans) - 1
        for depth, plan in enumerate(self._plans):
            self._poll_cancel()
            frontier = len(last_e)
            if frontier == 0:
                break
            # One scalar _extend call per frontier row: each costs one
            # search on entry and one backtrack when its scan ends.
            counters.searches += frontier
            counters.backtracks += frontier
            rows, e_cand, accepted = self._expand(
                plan, bindings, last_e, t_limit, counters
            )
            rows = rows[accepted]
            e_cand = e_cand[accepted]
            n_acc = len(e_cand)
            counters.bookkeeps += n_acc
            if depth == last_level:
                counters.matches += n_acc
                count += n_acc
                break
            new_bindings = bindings[rows]
            if plan.kind == OUT:
                if not plan.v_bound:
                    new_bindings[:, plan.v] = g.dst[e_cand]
            elif plan.kind == IN:
                new_bindings[:, plan.u] = g.src[e_cand]
            else:  # TAIL: both endpoints freshly bound
                new_bindings[:, plan.u] = g.src[e_cand]
                new_bindings[:, plan.v] = g.dst[e_cand]
            bindings = new_bindings
            last_e = e_cand
            t_limit = t_limit[rows]
        return count

    def _expand(
        self,
        plan: _LevelPlan,
        bindings: np.ndarray,
        last_e: np.ndarray,
        t_limit: np.ndarray,
        counters: SearchCounters,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scan one level for the whole frontier.

        Returns ``(rows, candidate_edges, accepted_mask)`` where
        ``rows`` maps each candidate back to its frontier row.  Counter
        events are charged exactly as the scalar scan charges them:
        every candidate up to and **including** the first one past the
        window bound is a touch; a scan that exhausts its slice touches
        only the slice.
        """
        g = self.graph
        if plan.kind == TAIL:
            # Neither endpoint mapped (disconnected motifs): the search
            # space is the edge-list tail; the window bound is found by
            # one global searchsorted (ts is globally sorted).
            start = last_e + 1
            end = np.searchsorted(g.ts, t_limit, side="right")
            scanned = (end - start) + (end < g.num_edges)
            counters.candidates_scanned += int(scanned.sum())
            counters.bytes_touched += int(scanned.sum()) * EDGE_RECORD_BYTES
            rows, e_cand = _ragged_take(start, end - start)
            s = g.src[e_cand]
            d = g.dst[e_cand]
            fresh_s = ~(bindings[rows] == s[:, None]).any(axis=1)
            fresh_d = ~(bindings[rows] == d[:, None]).any(axis=1)
            return rows, e_cand, fresh_s & fresh_d & (s != d)

        if plan.kind == OUT:
            nodes = bindings[:, plan.u]
            seg_lo, seg_hi = g.out_slices(nodes)
            slice_ts, slice_idx = g.out_ts, g.out_edge_idx
        else:
            nodes = bindings[:, plan.v]
            seg_lo, seg_hi = g.in_slices(nodes)
            slice_ts, slice_idx = g.in_ts, g.in_edge_idx

        # The scalar phase-1 binary search, batched: one per frontier
        # row over its whole neighborhood (memoize=False semantics).
        counters.binary_searches += len(nodes)
        counters.binary_search_steps += int(
            _binary_search_steps(seg_hi - seg_lo).sum()
        )
        # Edge indices within a slice are chronological, so "first index
        # > last_e" == "first timestamp > ts[last_e]" — both window ends
        # come from the same segmented bisection over the ts view.
        start = segmented_searchsorted(slice_ts, seg_lo, seg_hi, g.ts[last_e])
        end = segmented_searchsorted(slice_ts, seg_lo, seg_hi, t_limit)
        scanned = (end - start) + (end < seg_hi)
        n_scanned = int(scanned.sum())
        counters.candidates_scanned += n_scanned
        counters.neighbor_items_touched += n_scanned
        counters.bytes_touched += n_scanned * (EDGE_RECORD_BYTES + INDEX_BYTES)

        rows, positions = _ragged_take(start, end - start)
        e_cand = slice_idx[positions]
        if plan.kind == OUT:
            d = g.dst[e_cand]
            if plan.v_bound:
                accepted = d == bindings[rows, plan.v]
            else:
                # d == u_g is subsumed: u_g is itself a bound node.
                accepted = ~(bindings[rows] == d[:, None]).any(axis=1)
        else:
            s = g.src[e_cand]
            accepted = ~(bindings[rows] == s[:, None]).any(axis=1)
        return rows, e_cand, accepted


def count_motifs_batched(graph: TemporalGraph, motif: Motif, delta: int) -> int:
    """Count δ-temporal motif matches with the batched frontier engine."""
    return BatchedMiner(graph, motif, delta).mine().count
