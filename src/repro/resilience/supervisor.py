"""The supervised chunk runner: fault-tolerant parallel mining.

The task-centric model makes mining restartable at chunk granularity:
every root-range chunk is a pure, idempotent function of
``(graph, kind, spec, delta, lo, hi)``, so re-executing a chunk on a
different worker is always safe and merging is order-independent
(integer sums) — counts stay byte-identical to the serial miner no
matter which workers died along the way.

:class:`ChunkSupervisor` is the one dispatcher that exploits this.  It
owns its ``multiprocessing.Process`` workers directly:

- **One transport.**  Every worker dials the supervisor's authenticated
  local socket (``multiprocessing.connection``, ``AF_UNIX``) and then
  serves ``graph`` / ``drop`` / ``task`` / stop messages through
  :func:`worker_main` and the chunk-kind table
  :data:`~repro.mining.parallel.CHUNK_KINDS`.  A worker's socket is
  made after it forks, so only the supervisor (and workers forked
  later) hold the other end: when the supervisor dies, the newest
  worker sees EOF and exits, which closes its inherited copies of older
  workers' sockets, and so on down the line.
- **Synchronous sends.**  No feeder thread: results a worker managed to
  send before dying are still readable afterwards.
- **Sentinel monitoring.**  The supervisor waits on every worker's
  connection *and* its process sentinel at once
  (``multiprocessing.connection.wait``), so a death is observed the
  moment it happens, not on a timeout.
- **Chunk-level retry.**  A worker death (or a per-chunk soft-timeout
  "wedge", answered with SIGKILL) costs exactly its current chunk: the
  supervisor drains the dead worker's socket (accepting any result
  that did make it out), requeues the unfinished chunk at the front,
  and a surviving worker picks it up.  A chunk that *raises* in a
  healthy worker is also retried, but at most ``max_chunk_errors``
  times — past that the run fails with :class:`ChunkFailed` rather than
  requeueing a deterministically-bad input forever.
- **Serialized calls.**  The mining calls are thread-safe: concurrent
  callers (scheduler lanes sharing one cached pool) take turns on an
  internal cancel-aware lock, since the epoch counter, worker sockets
  and task ids are shared state.
- **Respawn with backoff.**  Dead workers are replaced, subject to a
  respawn budget, with capped exponential backoff and deterministic
  seeded jitter.  When the budget runs out the runner keeps mining on
  survivors (*degraded*); only when no worker holding the graph
  remains does a run fail.

Two runners share this core: :class:`SupervisedMiningPool` keeps one
graph resident in every worker (shipped through shared memory), and
:class:`~repro.cluster.coordinator.MiningCluster` places many graphs on
ring-chosen node slots.

Fault injection: a :class:`~repro.resilience.faults.FaultPlan` passed
at construction is installed in every worker, which calls
``fault_point(<fault_site>, worker=<id>)`` before each chunk — the hook
the chaos suite and ``repro chaos`` kill/delay workers through.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection, get_context
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.mining.parallel import (
    FamilyParallelResult,
    GraphShipment,
    MiningCancelled,
    ParallelResult,
    POOL_ENGINES,
    ResidentGraph,
    _guided_bounds,
    run_chunk,
)
from repro.mining.results import SearchCounters
from repro.resilience.faults import FaultPlan, fault_point


class PoolDegraded(RuntimeError):
    """The respawn budget is exhausted and the pool is running below
    its target worker count.  Raised by :meth:`count_many` only when
    ``allow_degraded=False``; by default the pool completes the run on
    the survivors (shedding throughput, never correctness)."""


class PoolFailed(PoolDegraded):
    """The respawn budget is exhausted and *no* workers survive: the
    run cannot complete and the pool is permanently broken."""


class ChunkFailed(RuntimeError):
    """One chunk kept raising inside healthy workers past the per-chunk
    retry cap (``max_chunk_errors``) — a deterministic failure of that
    (motif, root-range) input, not a worker-health problem.  The pool
    itself stays usable; retrying the same input would loop forever."""


@dataclass
class PoolStats:
    """Cumulative supervision accounting for one pool or cluster."""

    worker_deaths: int = 0
    wedged_kills: int = 0
    chunk_retries: int = 0
    respawns: int = 0
    chunks_completed: int = 0
    graph_ships: int = 0
    failovers: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


class _SerializedTurn:
    """Acquire the runner's mining lock, honoring the caller's deadline.

    Callers waiting for their turn poll ``cancel_check`` so a batch
    whose deadline expired in the queue raises
    :class:`~repro.mining.parallel.MiningCancelled` without ever
    touching the workers.
    """

    def __init__(self, lock, cancel_check) -> None:
        self._lock = lock
        self._cancel_check = cancel_check

    def __enter__(self) -> None:
        while not self._lock.acquire(timeout=0.05):
            if self._cancel_check is not None and self._cancel_check():
                raise MiningCancelled(
                    "mining cancelled while waiting for the pool"
                )

    def __exit__(self, *exc) -> None:
        self._lock.release()


class _Worker:
    """Supervisor-side record of one worker process."""

    __slots__ = ("wid", "process", "conn", "current", "started_at", "graphs")

    def __init__(self, wid: int, process, conn) -> None:
        self.wid = wid
        self.process = process
        self.conn = conn
        #: (epoch, task_id) of the chunk in flight on this worker.
        self.current: Optional[Tuple[int, int]] = None
        self.started_at = 0.0
        #: fingerprints shipped to this process (empty on respawn).
        self.graphs: Set[str] = set()


def worker_main(  # pragma: no cover - runs in worker processes only
    wid: int, address, authkey: bytes, site: str, fault_plan: Optional[FaultPlan]
) -> None:
    """Worker main: dial the supervisor, then serve until told to stop.

    Messages (supervisor -> worker):

    - ``("graph", fp, payload)`` — adopt a shipped graph
      (:meth:`~repro.mining.parallel.ResidentGraph.adopt`);
    - ``("drop", fp)`` — release it;
    - ``("task", epoch, task_id, fp, kind, spec, delta, lo, hi)`` — run
      one chunk; reply ``("done", epoch, task_id, payload)`` or
      ``("chunk_error", epoch, task_id, repr)``;
    - ``None`` — exit.

    The first message a worker sends is its id.  A chunk-level
    exception is reported (the worker survives and keeps serving); only
    an injected ``kill`` / external SIGKILL takes the process down.
    """
    conn = connection.Client(address, authkey=authkey)
    if fault_plan is not None:
        fault_plan.install()
    residents: Dict[str, ResidentGraph] = {}
    conn.send(wid)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # supervisor went away
        if msg is None:
            return
        if msg[0] == "task":
            _, epoch, task_id, fp, kind, spec, delta, lo, hi = msg
            try:
                fault_point(site, worker=wid, chunk=task_id)
                payload = run_chunk(residents[fp], kind, spec, delta, lo, hi)
                reply = ("done", epoch, task_id, payload)
            except BaseException as exc:  # noqa: BLE001 - reported, worker survives
                reply = ("chunk_error", epoch, task_id, repr(exc))
            try:
                conn.send(reply)
            except OSError:
                return
        elif msg[0] == "graph":
            residents[msg[1]] = ResidentGraph.adopt(msg[2])
        else:  # "drop"
            residents.pop(msg[1], None)


class ChunkSupervisor:
    """The supervision loop shared by the pool and the cluster.

    Subclasses say which workers hold a graph (:meth:`_placed`), how a
    respawn picks its id (:meth:`_free_id`), what happens when every
    placed worker is gone (:meth:`_failover`), and which graph a call
    mines (:meth:`_resident`); everything else — workers, dispatch,
    retries, respawn, degraded/failed state and result assembly — lives
    here.

    Parameters:

    - ``chunk_timeout_s`` — soft per-chunk timeout; a worker that holds
      one chunk longer is presumed wedged, SIGKILLed, and its chunk
      retried elsewhere (``None`` disables wedge detection).
    - ``respawn_budget`` — total worker respawns allowed over the
      runner's lifetime (default ``3 * num_workers``).
    - ``max_chunk_errors`` — how many times one chunk may *raise* in a
      healthy worker before a run gives up with :class:`ChunkFailed`.
      Chunks lost to worker deaths are retried without limit (deaths
      are bounded by the respawn budget); this cap only stops a
      deterministically-failing chunk from requeueing forever.
    - ``backoff_base_s`` / ``backoff_cap_s`` — capped exponential
      respawn backoff; jitter is drawn from a ``seed``-ed RNG so runs
      are reproducible.
    - ``fault_plan`` — installed in every worker (chaos testing); the
      parent process is untouched.
    - ``on_event`` — ``callback(counter_name, n)`` mirror of
      :class:`PoolStats` increments, used by the serving layer to feed
      shared service metrics.
    - ``clock`` / ``sleep`` — injectable time sources (monotonic clock
      and blocking sleep) used by every supervision-side deadline: the
      respawn backoff, wedge detection, and chunk timing.  Tests drive
      them with a fake clock so backoff schedules are asserted without
      real waiting; ``close()`` stays on real time (it bounds talking
      to real processes, not a policy decision).
    """

    #: Fault-injection site every worker calls before each chunk.
    fault_site = "worker.chunk"
    process_name = "mint-worker"
    #: Seconds a started worker may take to dial back.
    connect_timeout_s = 30.0
    Degraded = PoolDegraded
    Failed = PoolFailed

    def __init__(
        self,
        num_workers: Optional[int] = None,
        *,
        chunk_timeout_s: Optional[float] = 30.0,
        respawn_budget: Optional[int] = None,
        max_chunk_errors: int = 3,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        on_event: Optional[Callable[[str, int], None]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ValueError(f"{type(self).__name__} needs at least one worker")
        if chunk_timeout_s is not None and chunk_timeout_s <= 0:
            raise ValueError("chunk_timeout_s must be positive (or None)")
        if max_chunk_errors < 1:
            raise ValueError("max_chunk_errors must be >= 1")
        self.num_workers = int(num_workers)
        #: Workers one graph's chunks spread over (sets chunk sizes).
        self._fanout = self.num_workers
        self.chunk_timeout_s = chunk_timeout_s
        self.respawn_budget = (
            3 * self.num_workers if respawn_budget is None else int(respawn_budget)
        )
        self.max_chunk_errors = int(max_chunk_errors)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.stats = PoolStats()
        self._fault_plan = fault_plan
        self._on_event = on_event
        self._clock = clock
        self._sleep = sleep
        self._jitter = random.Random(seed)
        #: One supervision loop at a time: the epoch counter, the worker
        #: sockets, and per-call task ids are all shared state, so
        #: concurrent scheduler lanes must take turns.
        self._mine_lock = threading.Lock()
        self._ctx = get_context()
        self._closed = False
        self._failed = False
        self._degraded = False
        self._epoch = 0
        self._respawns_used = 0
        self._consecutive_respawns = 0
        self._next_spawn_at = 0.0
        self._ids = itertools.count(self.num_workers)
        self._authkey = os.urandom(16)
        self._listener = connection.Listener(family="AF_UNIX", authkey=self._authkey)
        self._listener._listener._socket.settimeout(self.connect_timeout_s)
        #: fingerprint -> shipment, for (re-)shipping to workers.
        self._shipments: Dict[str, GraphShipment] = {}
        self._workers: Dict[int, _Worker] = {}
        try:
            self._spawn(range(self.num_workers))
        except BaseException:
            self.close()
            raise

    # -- subclass hooks --------------------------------------------------------

    def _placed(self, fp: str) -> List[int]:
        """Ids of the workers that hold graph ``fp`` (default: all)."""
        return list(self._workers)

    def _free_id(self) -> int:
        """The id of the next spawned worker (default: never reused, so
        a seeded fault plan aimed at a worker id never hits its
        replacement)."""
        return next(self._ids)

    def _failover(self, fp: str) -> bool:
        """Give ``fp`` to new workers once every placed one is gone for
        good; True when the run can continue."""
        return False

    def _resident(self, graph: TemporalGraph) -> str:
        """Make ``graph`` resident where it is placed; its fingerprint."""
        raise NotImplementedError

    # -- events ----------------------------------------------------------------

    def _event(self, name: str, n: int = 1) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + n)
        if self._on_event is not None:
            self._on_event(name, n)

    # -- worker lifecycle ------------------------------------------------------

    def _spawn(self, wids: Sequence[int]) -> None:
        """Start one process per id, then adopt each one's connection
        and ship it the graphs placed on it."""
        started = {}
        for wid in wids:
            process = self._ctx.Process(
                target=worker_main,
                args=(wid, self._listener.address, self._authkey,
                      self.fault_site, self._fault_plan),
                name=f"{self.process_name}-{wid}",
                daemon=True,
            )
            process.start()
            started[wid] = process
        try:
            while started:
                conn = self._listener.accept()
                wid = conn.recv()  # the handshake: the worker's id
                if wid not in started:  # pragma: no cover - a late straggler
                    conn.close()
                    continue
                worker = _Worker(wid, started.pop(wid), conn)
                self._workers[wid] = worker
                for fp in self._shipments:
                    if wid in self._placed(fp):
                        self._ship(worker, fp)
        except (OSError, EOFError) as exc:
            for process in started.values():
                process.kill()
                process.join(timeout=1.0)
            raise RuntimeError(
                f"worker failed to connect within {self.connect_timeout_s}s"
            ) from exc
        self._consecutive_respawns = 0

    def _ship(self, worker: _Worker, fp: str) -> None:
        try:
            worker.conn.send(("graph", fp, self._shipments[fp].payload))
        except OSError:
            return  # the sentinel sweep buries it
        worker.graphs.add(fp)
        self._event("graph_ships")

    def _backoff_delay(self) -> float:
        base = min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** self._consecutive_respawns),
        )
        return base * (0.5 + self._jitter.random())  # jitter in [0.5x, 1.5x)

    def _bury(self, worker: _Worker, on_result, completed_ids) -> None:
        """Drain and retire a dead worker, requeueing its lost chunk."""
        self._drain_conn(worker, on_result, completed_ids)
        worker.conn.close()
        worker.process.join(timeout=1.0)
        del self._workers[worker.wid]
        if worker.current is not None:
            epoch, task_id = worker.current
            if epoch == self._epoch and task_id not in completed_ids:
                on_result("retry", task_id, "worker died mid-chunk")
            worker.current = None
        self._event("worker_deaths")
        self._consecutive_respawns += 1
        self._next_spawn_at = self._clock() + self._backoff_delay()

    def _drain_conn(self, worker: _Worker, on_result, completed_ids) -> None:
        """Read out anything the worker sent before it stopped.

        Synchronous socket sends mean a completed chunk's result
        survives the worker's death; accepting it here (instead of
        blindly retrying) keeps retries to truly-unfinished chunks.
        """
        try:
            while worker.conn.poll(0):
                self._handle_message(worker, worker.conn.recv(), on_result,
                                     completed_ids)
        except (EOFError, OSError):
            pass

    def _handle_message(self, worker: _Worker, msg, on_result, completed_ids):
        kind, epoch, task_id, payload = msg
        worker.current = None
        if epoch == self._epoch and task_id not in completed_ids:
            on_result("done" if kind == "done" else "error", task_id, payload)

    # -- observability ---------------------------------------------------------

    @property
    def live_workers(self) -> int:
        return sum(1 for w in self._workers.values() if w.process.is_alive())

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def broken(self) -> bool:
        """True when the runner can no longer mine (all workers dead with
        no respawn budget, or a failed run already proved it)."""
        if self._closed or self._failed:
            return True
        return (
            self.live_workers == 0
            and self._respawns_used >= self.respawn_budget
        )

    @property
    def degraded(self) -> bool:
        """True once the runner has permanently lost redundancy (budget
        exhausted while below target worker count)."""
        return self._degraded

    # -- result assembly -------------------------------------------------------

    def _serialized(self, cancel_check: Optional[Callable[[], bool]]):
        return _SerializedTurn(self._mine_lock, cancel_check)

    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._failed:
            raise self.Failed(
                f"{type(self).__name__} is broken (a previous run exhausted it)"
            )

    def _count_many(
        self, graph, motifs, delta, chunks_per_worker, cancel_check,
        allow_degraded, engine,
    ) -> List[ParallelResult]:
        if engine not in POOL_ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {POOL_ENGINES}"
            )
        with self._serialized(cancel_check):
            self._check_usable()
            totals = [0] * len(motifs)
            merged = [SearchCounters() for _ in motifs]
            bounds: List[Tuple[int, int]] = []
            if graph.num_edges and motifs:
                fp = self._resident(graph)
                bounds = _guided_bounds(
                    graph.num_edges, self._fanout, chunks_per_worker
                )
                kind = "batched" if engine == "batched" else "motif"
                specs = [
                    (kind, motif.edges, int(delta), lo, hi)
                    for motif in motifs
                    for lo, hi in bounds
                ]

                def apply_result(task_id: int, result) -> None:
                    count, counter_dict = result
                    idx = task_id // len(bounds)
                    totals[idx] += count
                    merged[idx].merge(SearchCounters(**counter_dict))

                self._run_chunks(fp, specs, apply_result, cancel_check,
                                 allow_degraded)
            return [
                ParallelResult(totals[i], merged[i], self.num_workers, len(bounds))
                for i in range(len(motifs))
            ]

    def _count_family(
        self, graph, motifs, delta, chunks_per_worker, cancel_check,
        allow_degraded,
    ) -> FamilyParallelResult:
        from repro.comine.engine import FamilyResult
        from repro.comine.trie import MotifTrie

        with self._serialized(cancel_check):
            self._check_usable()
            trie = MotifTrie(motifs)  # validates the family (raises on empty)
            acc = FamilyResult.empty(trie)
            bounds: List[Tuple[int, int]] = []
            if graph.num_edges:
                fp = self._resident(graph)
                bounds = _guided_bounds(
                    graph.num_edges, self._fanout, chunks_per_worker
                )
                family_edges = tuple(m.edges for m in motifs)
                specs = [
                    ("family", family_edges, int(delta), lo, hi)
                    for lo, hi in bounds
                ]
                self._run_chunks(
                    fp, specs,
                    lambda _id, result: acc.merge(FamilyResult.from_payload(result)),
                    cancel_check, allow_degraded,
                )
            return FamilyParallelResult(
                results=tuple(
                    ParallelResult(
                        acc.counts[i], acc.per_motif[i], self.num_workers,
                        len(bounds),
                    )
                    for i in range(len(motifs))
                ),
                counters=acc.counters,
                sharing=acc.sharing,
                num_workers=self.num_workers,
                num_chunks=len(bounds),
            )

    def _sample_intervals(
        self, graph, motif, delta, spec, lo, hi, cancel_check, allow_degraded
    ):
        from repro.approx.estimate import SampleBatch

        with self._serialized(cancel_check):
            self._check_usable()
            merged = SampleBatch()
            if hi > lo:
                fp = self._resident(graph)
                size = max(1, (hi - lo) // (2 * self._fanout))
                task_spec = (motif.edges, spec.sampler_params())
                specs = [
                    ("sample", task_spec, int(delta), c_lo, min(hi, c_lo + size))
                    for c_lo in range(lo, hi, size)
                ]
                self._run_chunks(
                    fp, specs,
                    lambda _id, result: merged.merge(SampleBatch.from_payload(result)),
                    cancel_check, allow_degraded,
                )
            return merged

    # -- supervision loop ------------------------------------------------------

    def _run_chunks(
        self,
        fp: str,
        specs: Sequence[Tuple[str, Tuple, int, int, int]],
        apply_result: Callable[[int, object], None],
        cancel_check: Optional[Callable[[], bool]],
        allow_degraded: bool,
    ) -> None:
        """The supervision loop, agnostic of chunk kind.

        ``specs[i]`` is ``(kind, spec, delta, lo, hi)`` — the chunk a
        worker runs against graph ``fp`` — and ``apply_result(task_id,
        result)`` folds one completed chunk into the caller's
        accumulator.  All retry, wedge-kill, respawn-backoff, degraded,
        failover and failure semantics live here.
        """
        self._epoch += 1
        tasks = list(specs)
        pending: Deque[int] = deque(range(len(tasks)))
        completed: Set[int] = set()
        error_counts: Dict[int, int] = {}
        #: First chunk to exhaust its error cap: (task_id, last message).
        fatal: List[Tuple[int, str]] = []

        def on_result(kind: str, task_id: int, payload) -> None:
            if kind == "done":
                apply_result(task_id, payload)
                completed.add(task_id)
                self._event("chunks_completed")
                return
            if kind == "error":
                # The chunk raised in a surviving worker.  Unlike chunks
                # lost to deaths (bounded by the respawn budget), a
                # deterministic per-chunk exception would requeue
                # forever — cap it and fail the run instead.
                n = error_counts[task_id] = error_counts.get(task_id, 0) + 1
                if n >= self.max_chunk_errors:
                    fatal.append((task_id, str(payload)))
                    return
            # Requeue: a sub-cap "error", or a "retry" (the chunk was
            # lost with a dead/wedged worker — bounded by the budget).
            pending.appendleft(task_id)
            self._event("chunk_retries")

        while len(completed) < len(tasks):
            if cancel_check is not None and cancel_check():
                # Chunks in flight keep running; their results carry
                # this epoch and are discarded by the next call.
                raise MiningCancelled("mining cancelled by cancel_check")
            if fatal:
                task_id, message = fatal[0]
                raise ChunkFailed(
                    f"chunk {task_id} raised on all {self.max_chunk_errors} "
                    f"attempts; last error: {message}"
                )
            self._sweep_dead(on_result, completed)
            self._maybe_respawn()
            if not any(wid in self._workers for wid in self._placed(fp)):
                # Every worker holding the graph has been buried (one
                # that died since the sweep is buried next turn).
                if self._respawns_used < self.respawn_budget:
                    self._await_backoff(cancel_check)
                    self._maybe_respawn()
                    continue
                if not self._failover(fp):
                    self._failed = True
                    raise self.Failed(
                        "all placed workers dead and respawn budget "
                        f"({self.respawn_budget}) exhausted"
                    )
                self._mark_degraded(allow_degraded)
                continue
            if (
                self._respawns_used >= self.respawn_budget
                and len(self._workers) < self.num_workers
            ):
                self._mark_degraded(allow_degraded)
            self._dispatch(fp, pending, tasks, completed)
            self._wait_and_collect(on_result, completed)

    def _await_backoff(self, cancel_check) -> None:
        """Wait out the respawn backoff in small ticks, so a cancelled
        (deadline-expired) batch stops blocking its lane immediately
        rather than after the full backoff delay."""
        while True:
            remaining = self._next_spawn_at - self._clock()
            if remaining <= 0:
                return
            if cancel_check is not None and cancel_check():
                raise MiningCancelled("mining cancelled during respawn backoff")
            self._sleep(min(0.05, remaining))

    def _mark_degraded(self, allow_degraded: bool) -> None:
        if not self._degraded:
            self._degraded = True
            if not allow_degraded:
                raise self.Degraded(
                    f"respawn budget ({self.respawn_budget}) exhausted; "
                    f"{len(self._workers)}/{self.num_workers} workers remain"
                )

    def _dispatch(self, fp: str, pending: Deque[int], tasks, completed) -> None:
        for wid in self._placed(fp):
            if not pending:
                return
            worker = self._workers.get(wid)
            if worker is None or worker.current is not None:
                continue
            if fp not in worker.graphs:  # pragma: no cover - defensive
                self._ship(worker, fp)
            task_id = pending.popleft()
            if task_id in completed:  # pragma: no cover - defensive
                continue
            try:
                worker.conn.send(("task", self._epoch, task_id, fp, *tasks[task_id]))
            except OSError:
                # Died between sweep and send; requeue, next sweep buries.
                pending.appendleft(task_id)
                continue
            worker.current = (self._epoch, task_id)
            worker.started_at = self._clock()

    def _wait_and_collect(self, on_result, completed, tick: float = 0.05) -> None:
        """Block until a message or a death, then process every ready one."""
        by_source: Dict = {}
        for worker in self._workers.values():
            by_source[worker.conn] = worker
            by_source[worker.process.sentinel] = worker
        if not by_source:  # pragma: no cover - guarded by caller
            return
        for source in connection.wait(list(by_source), timeout=tick):
            worker = by_source[source]
            if source is worker.conn:
                try:
                    msg = worker.conn.recv()
                except (EOFError, OSError):
                    continue  # the sentinel sweep buries it
                self._handle_message(worker, msg, on_result, completed)
            # Sentinel readiness is handled by _sweep_dead on the next
            # loop turn (after the conn is fully drained).

    def _sweep_dead(self, on_result, completed) -> None:
        now = self._clock()
        for worker in list(self._workers.values()):
            if not worker.process.is_alive():
                self._bury(worker, on_result, completed)
                continue
            if (
                self.chunk_timeout_s is not None
                and worker.current is not None
                and now - worker.started_at > self.chunk_timeout_s
            ):
                # Presumed wedged; give its socket one last chance (it
                # may have finished this instant), then SIGKILL.
                self._drain_conn(worker, on_result, completed)
                if worker.current is None:
                    continue  # it had finished after all
                self._event("wedged_kills")
                worker.process.kill()
                worker.process.join(timeout=1.0)
                self._bury(worker, on_result, completed)

    def _maybe_respawn(self) -> None:
        while (
            len(self._workers) < self.num_workers
            and self._respawns_used < self.respawn_budget
            and self._clock() >= self._next_spawn_at
        ):
            self._respawns_used += 1
            self._event("respawns")
            self._spawn([self._free_id()])

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            try:
                worker.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for worker in self._workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=1.0)
            worker.conn.close()
        self._workers.clear()
        self._listener.close()
        for shipment in self._shipments.values():
            shipment.close()
        self._shipments.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SupervisedMiningPool(ChunkSupervisor):
    """A worker pool with one graph resident (zero-copy) in every worker,
    surviving worker deaths at chunk granularity.

    The graph is shipped at construction through a
    ``multiprocessing.shared_memory`` segment (pickled arrays where the
    platform has none), and every later call only sends tiny
    ``(kind, spec, delta, range)`` task tuples.  Respawned workers take
    fresh ids.  Use as a context manager so the shared segment is
    always unlinked.  Supervision parameters: see
    :class:`ChunkSupervisor`.
    """

    def __init__(
        self, graph: TemporalGraph, num_workers: Optional[int] = None,
        **supervision,
    ) -> None:
        super().__init__(num_workers, **supervision)
        self.graph = graph
        self._fp = graph.fingerprint()
        self._shipments[self._fp] = GraphShipment(graph)
        for worker in self._workers.values():
            self._ship(worker, self._fp)

    def _resident(self, graph: TemporalGraph) -> str:
        return self._fp

    # -- mining ----------------------------------------------------------------

    def count(
        self,
        motif,
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = "mackey",
    ) -> ParallelResult:
        return self.count_many(
            [motif], delta, chunks_per_worker, cancel_check, allow_degraded,
            engine=engine,
        )[0]

    def count_many(
        self,
        motifs: Sequence,
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
        engine: str = "mackey",
    ) -> List[ParallelResult]:
        """Count several motifs in one supervised dispatch wave.

        All motifs' chunks share the dynamic dispatch window, so workers
        drain straight from one motif's tail into the next motif's head.
        Byte-identical to the serial miner: chunks are idempotent and
        merging is commutative, so deaths/retries cannot change counts.
        Raises :class:`PoolFailed` when no worker survives and the
        respawn budget is spent; :class:`PoolDegraded` additionally
        (before completing on survivors) when ``allow_degraded=False``;
        :class:`ChunkFailed` when one chunk keeps raising past
        ``max_chunk_errors`` attempts; :class:`MiningCancelled` when
        ``cancel_check`` fires (polled at every chunk boundary and while
        waiting for the pool, which stays reusable).

        ``engine`` picks the per-chunk core (:data:`POOL_ENGINES`):
        ``"batched"`` runs vectorized frontier expansion in the worker,
        ``"mackey"`` the scalar DFS.  Either is equally idempotent.
        """
        return self._count_many(
            self.graph, motifs, delta, chunks_per_worker, cancel_check,
            allow_degraded, engine,
        )

    def count_family(
        self,
        motifs: Sequence,
        delta: int,
        chunks_per_worker: int = 8,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ) -> FamilyParallelResult:
        """Co-mine a motif family: each chunk is ONE shared traversal.

        Where :meth:`count_many` dispatches ``len(motifs)`` chunk waves,
        this sends each root range to a worker once and the worker's
        resident :class:`~repro.comine.engine.CoMiner` extends it toward
        every motif simultaneously.  Per-motif counts and counters are
        byte-identical to :meth:`count_many` across any pattern of
        worker deaths; the family-level counters and sharing stats
        report the saved work.
        """
        return self._count_family(
            self.graph, motifs, delta, chunks_per_worker, cancel_check,
            allow_degraded,
        )

    def sample_intervals(
        self,
        motif,
        delta: int,
        spec,
        lo: int,
        hi: int,
        cancel_check: Optional[Callable[[], bool]] = None,
        allow_degraded: bool = True,
    ):
        """Run approximate sample indices ``[lo, hi)`` under supervision.

        Sample chunks are as idempotent as mining chunks — each is a
        pure function of ``(motif, δ, spec, index range)`` thanks to the
        per-index RNG substreams — and batches merge commutatively, so
        worker deaths and retries cannot change the estimate: the merged
        batch is byte-identical to an inline ``sample_range(lo, hi)``.
        ``spec`` is an :class:`~repro.approx.estimate.ApproxSpec`.
        """
        return self._sample_intervals(
            self.graph, motif, delta, spec, lo, hi, cancel_check,
            allow_degraded,
        )
