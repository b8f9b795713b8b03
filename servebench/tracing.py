"""Span tracing for the traced server run, and the per-layer metrics.

Run as a script, this is the traced server:

    PYTHONPATH=src python servebench/tracing.py OUT_DIR serve --port 0 ...

It wraps the public entry points of each serving layer (HTTP handler,
service, scheduler, cache, executors, supervised pool, miners, interval
sampler, live ingest, subscriptions, outbox, graph) so that every call
records a span ``(id, parent, name, start, end, thread, attrs)`` in
memory, then hands the arguments to the unmodified ``repro.cli.main``.
Mining workers are forked from the server, inherit the wrappers, and
write their own spans when they exit; the server writes its spans after
``serve`` returns (SIGINT).  Timestamps are ``time.monotonic()``, the
same clock in every process, so spans from workers and from the server
can be laid on one time line.

Imported as a module it only provides :func:`layer_metrics`, which
turns span files plus ``/metrics`` snapshots into the per-layer figures.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, float, float, int, object]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = Path(out_dir)
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str,
             attrs: Optional[Callable] = None) -> None:
        fn = owner.__dict__[attr]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                extra = attrs(*args, **kwargs) if attrs is not None else None
                tracer.spans.append(
                    (sid, parent, name, start, end, threading.get_ident(), extra)
                )

        setattr(owner, attr, traced)

    def record(self, name: str, start: float, end: float, extra=None) -> None:
        self.spans.append(
            (next(self._ids), 0, name, start, end, threading.get_ident(), extra)
        )

    def after_fork(self) -> None:
        """In a forked worker: drop the parent's spans, flush at exit."""
        import multiprocessing.util as mp_util

        self.spans = []
        self._local = threading.local()
        mp_util.Finalize(self, self.flush, exitpriority=10)

    def flush(self) -> None:
        path = self.out_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "spans": self.spans}, fh)


def install(out_dir: str) -> Tracer:
    """Wrap every traced layer entry point; returns the tracer."""
    import multiprocessing.util as mp_util

    from repro.approx.sampler import IntervalSampler
    from repro.comine.engine import CoMiner
    from repro.graph.temporal_graph import TemporalGraph
    from repro.live.ingest import LiveGraph
    from repro.live.manager import LiveManager
    from repro.live.outbox import Outbox
    from repro.live.subscriptions import Subscription
    from repro.mining.batched import BatchedMiner
    from repro.mining.mackey import MackeyMiner
    from repro.mining.parallel import _RangeMiner
    from repro.resilience.supervisor import SupervisedMiningPool
    from repro.service.cache import ResultCache
    from repro.service.executor import InlineExecutor, PoolExecutor
    from repro.service.http import ServiceRequestHandler
    from repro.service.scheduler import QueryScheduler
    from repro.service.service import MotifService

    tracer = Tracer(out_dir)
    w = tracer.wrap
    path_of = lambda handler: handler.path.partition("?")[0]  # noqa: E731
    w(ServiceRequestHandler, "do_POST", "http.POST", path_of)
    w(ServiceRequestHandler, "do_GET", "http.GET", path_of)
    w(MotifService, "query", "service.query")
    w(ResultCache, "get", "cache.get")
    n_motifs = lambda _self, _graph, motifs, *a, **k: len(motifs)  # noqa: E731
    for cls in (InlineExecutor, PoolExecutor):
        w(cls, "count_batch", "executor.count_batch", n_motifs)
        w(cls, "estimate_batch", "executor.estimate_batch", n_motifs)
    w(SupervisedMiningPool, "__init__", "pool.start")
    for attr in ("count_many", "count_family", "sample_intervals"):
        w(SupervisedMiningPool, attr, "pool.call")
    w(MackeyMiner, "mine", "engine.mine")
    w(_RangeMiner, "mine_range", "engine.mine")
    for cls in (BatchedMiner, CoMiner):
        w(cls, "mine", "engine.mine")
        w(cls, "mine_range", "engine.mine")
    w(IntervalSampler, "sample_range", "approx.sample_range",
      lambda _self, lo, hi: hi - lo)
    w(LiveGraph, "append_batch", "live.append")
    w(Subscription, "advance", "live.advance")
    w(Subscription, "evaluate", "live.evaluate",
      lambda sub, version, *a, **k: [version, sub.engine.live_partials])
    w(Outbox, "append", "live.outbox")
    w(LiveManager, "snapshot_for_query", "live.snapshot")
    w(TemporalGraph, "__init__", "graph.build")
    w(TemporalGraph, "fingerprint", "graph.fingerprint")

    execute_group = QueryScheduler.__dict__["_execute_group"]

    @functools.wraps(execute_group)
    def traced_execute_group(self, group):
        # Queue wait: admission of each waiter to the batch reaching a lane.
        now = time.monotonic()
        for entry in group:
            for waiter in list(entry.waiters):
                tracer.record("scheduler.wait", waiter.admit_t, now)
        return execute_group(self, group)

    QueryScheduler._execute_group = traced_execute_group
    mp_util.register_after_fork(tracer, Tracer.after_fork)
    return tracer


# -- analysis ------------------------------------------------------------------


def load_spans(trace_dir: Path) -> Dict[int, List[Span]]:
    out: Dict[int, List[Span]] = {}
    for path in sorted(trace_dir.glob("spans-*.json")):
        data = json.loads(path.read_text())
        out[int(data["pid"])] = [tuple(s) for s in data["spans"]]
    return out


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _delta(before: Dict, after: Dict, name: str) -> float:
    return float(after.get(name, 0)) - float(before.get(name, 0))


def layer_metrics(
    spans_by_pid: Dict[int, List[Span]],
    server_pid: int,
    setup: Tuple[float, float],
    window: Tuple[float, float],
    metrics_before: Dict,
    metrics_after: Dict,
    payload_stats: Dict[str, float],
    partials_peak: float,
) -> Dict[str, float]:
    """Per-layer figures of one traced run.

    ``setup`` and ``window`` are ``time.monotonic()`` intervals of the
    set-up and measured phases; spans are attributed by start time.
    ``payload_stats`` carries what the answers themselves report
    (``candidates``, ``approx_answers``, ``approx_samples``, ``ops``).
    """
    def in_window(span, win=window):
        return win[0] <= span[3] <= win[1]

    by_name: Dict[str, List[Span]] = {}
    children: Dict[Tuple[int, int], float] = {}
    names: Dict[Tuple[int, int], str] = {}
    for pid, spans in spans_by_pid.items():
        for span in spans:
            names[(pid, span[0])] = span[2]
            if span[1]:
                key = (pid, span[1])
                children[key] = children.get(key, 0.0) + span[4] - span[3]
    parents = {(pid, s[0]): s[1] for pid, spans in spans_by_pid.items() for s in spans}

    def has_ancestor(pid: int, span, prefixes: Tuple[str, ...]) -> bool:
        parent = span[1]
        while parent:
            if names.get((pid, parent), "").startswith(prefixes):
                return True
            parent = parents.get((pid, parent), 0)
        return False

    measured: Dict[str, List[Tuple[int, Span]]] = {}
    setup_spans: Dict[str, List[Tuple[int, Span]]] = {}
    for pid, spans in spans_by_pid.items():
        for span in spans:
            if in_window(span):
                measured.setdefault(span[2], []).append((pid, span))
            elif in_window(span, setup):
                setup_spans.setdefault(span[2], []).append((pid, span))

    def durations(name, table=None, pid=None):
        rows = (table if table is not None else measured).get(name, [])
        return [s[4] - s[3] for p, s in rows if pid is None or p == pid]

    def self_time(pid, span):
        return (span[4] - span[3]) - children.get((pid, span[0]), 0.0)

    out: Dict[str, float] = {}

    # graph: build + fingerprint of uploaded graphs, per upload.
    uploads = [
        (p, s) for p, s in setup_spans.get("http.POST", []) if s[6] == "/graphs"
    ]
    graph_ms = 0.0
    for pid, up in uploads:
        for name in ("graph.build", "graph.fingerprint"):
            for p, s in setup_spans.get(name, []):
                if p == pid and up[3] <= s[3] and s[4] <= up[4]:
                    graph_ms += (s[4] - s[3]) * 1e3
    out["graph.register_ms"] = graph_ms / len(uploads) if uploads else 0.0

    http = measured.get("http.POST", []) + measured.get("http.GET", [])
    out["http.self_ms"] = _mean([self_time(p, s) * 1e3 for p, s in http])

    out["scheduler.wait_ms"] = _mean([d * 1e3 for d in durations("scheduler.wait")])
    out["scheduler.coalesced"] = _delta(metrics_before, metrics_after, "coalesced")
    batches = [
        (p, s) for name in ("executor.count_batch", "executor.estimate_batch")
        for p, s in measured.get(name, []) if not has_ancestor(p, s, ("executor.",))
    ]
    out["scheduler.batch_size"] = _mean([float(s[6]) for _, s in batches])
    out["scheduler.shed"] = _delta(metrics_before, metrics_after, "shed")

    hits = _delta(metrics_before, metrics_after, "cache_hits")
    misses = _delta(metrics_before, metrics_after, "cache_misses")
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["cache.get_us"] = _mean([d * 1e6 for d in durations("cache.get")])
    out["cache.mb"] = float(metrics_after.get("cache_bytes", 0)) / 2 ** 20

    out["executor.batch_ms"] = _mean([(s[4] - s[3]) * 1e3 for _, s in batches])
    out["executor.fallbacks"] = _delta(
        metrics_before, metrics_after, "backend_failures"
    ) + _delta(metrics_before, metrics_after, "degraded_queries")

    starts = durations("pool.start", setup_spans) + durations("pool.start")
    out["pool.start_ms"] = _mean([d * 1e3 for d in starts])
    worker_work = [
        (s[3], s[4])
        for name in ("engine.mine", "approx.sample_range")
        for p, s in measured.get(name, [])
        if p != server_pid and not has_ancestor(p, s, ("engine.", "approx."))
    ]
    overheads = []
    for _, call in measured.get("pool.call", []):
        clipped = [
            (max(lo, call[3]), min(hi, call[4]))
            for lo, hi in worker_work if hi > call[3] and lo < call[4]
        ]
        overheads.append((call[4] - call[3] - _union_length(clipped)) * 1e3)
    out["pool.overhead_ms"] = _mean(overheads)
    out["pool.retries"] = _delta(metrics_before, metrics_after, "chunk_retries")

    engine_ms = sum(
        (s[4] - s[3]) * 1e3
        for p, s in measured.get("engine.mine", [])
        if not has_ancestor(p, s, ("engine.", "approx."))
    )
    ops = max(1.0, float(payload_stats.get("ops", 1)))
    out["engine.mine_ms"] = engine_ms / ops
    out["engine.candidates"] = float(payload_stats.get("candidates", 0))
    out["engine.candidates_per_ms"] = (
        out["engine.candidates"] / engine_ms if engine_ms else 0.0
    )

    answers = float(payload_stats.get("approx_answers", 0))
    samples = float(payload_stats.get("approx_samples", 0))
    out["approx.samples"] = samples / answers if answers else 0.0
    sample_ms = sum(
        (s[4] - s[3]) * 1e3
        for p, s in measured.get("approx.sample_range", [])
        if not has_ancestor(p, s, ("approx.",))
    )
    out["approx.ms_per_sample"] = sample_ms / samples if samples else 0.0

    appends = durations("live.append")
    edges = _delta(metrics_before, metrics_after, "edges_ingested")
    out["live.append_ms"] = _mean([d * 1e3 for d in appends])
    out["live.advances_per_edge"] = (
        len(measured.get("live.advance", [])) / edges if edges else 0.0
    )
    out["live.advance_us"] = _mean([d * 1e6 for d in durations("live.advance")])
    out["live.evaluate_ms"] = (
        sum(durations("live.evaluate")) * 1e3 / len(appends) if appends else 0.0
    )
    out["live.outbox_us"] = _mean([d * 1e6 for d in durations("live.outbox")])
    out["live.partials_peak"] = float(partials_peak)
    out["live.snapshot_wait_ms"] = _mean(
        [d * 1e3 for d in durations("live.snapshot")]
    )
    out["live.delivery_lag_ms"] = (
        float(metrics_after.get("delivery_lag_p50_s", 0.0)) * 1e3
    )
    return out


def partials_peak(spans_by_pid: Dict[int, List[Span]], window) -> float:
    """Peak, over live versions, of partial matches held by all
    subscription engines together (read at end-of-batch evaluation)."""
    per_version: Dict[int, int] = {}
    for spans in spans_by_pid.values():
        for span in spans:
            if span[2] == "live.evaluate" and window[0] <= span[3] <= window[1]:
                version, held = span[6]
                per_version[version] = per_version.get(version, 0) + held
    return float(max(per_version.values())) if per_version else 0.0


if __name__ == "__main__":
    _tracer = install(sys.argv[1])
    from repro.cli import main

    try:
        _code = main(sys.argv[2:])
    finally:
        _tracer.flush()
    sys.exit(_code)
