"""Serving benchmark: cold-query, hot-query and live-feed over HTTP.

    python3 servebench/run.py --workload hot-query --seed 1 --seconds 12 --trace 0
    python3 servebench/run.py --self-check

Starts ``repro serve`` in its own process (``--trace 1``: the traced
server in ``servebench/tracing.py``), drives one workload from this
process over persistent HTTP/1.1 connections, checks every answer
against a computation made here, and prints two JSON lines: the run's
detail (host stamp, drift reference, raw figures, failure accounting)
and, last, the result ``{"correct", "attempted", "failed", "metrics"}``.
See ``servebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT, SRC, WORK_DIR, Client, Server, cpu_seconds, host_steal, host_stamp, median,
    peak_rss_mb, reference_ms, tail,
)

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "cpu_ms_per_op": "ms", "peak_rss_mb": "MB",
}

#: Per workload, the time metrics reported net of hypervisor steal.
#: Time the hypervisor gives to other machines stretches CPU-bound
#: operations one for one.  Each latency is reported times (1 - the
#: steal share of all CPUs between the drift samples that bracket it:
#: the operation itself on cold-query, its round on live-feed), and the
#: rate divided by (1 - the phase's share).  hot-query's latencies and
#: rate are set by a 40 ms delayed-ACK timer today, which steal does not
#: stretch; CPU time and memory do not include steal.
STEAL_CORRECTED = {
    "cold-query": ("ops_per_s", "op_p50_ms", "op_tail_ms"),
    "hot-query": (),
    "live-feed": ("ops_per_s", "op_p50_ms", "op_tail_ms"),
}

PER_LAYER = {
    "graph.register_ms": "ms", "http.self_ms": "ms",
    "scheduler.wait_ms": "ms", "scheduler.coalesced": "count",
    "scheduler.batch_size": "motifs", "scheduler.shed": "count",
    "cache.hit_ratio": "ratio", "cache.get_us": "us", "cache.mb": "MB",
    "executor.batch_ms": "ms", "executor.fallbacks": "count",
    "pool.start_ms": "ms", "pool.overhead_ms": "ms", "pool.retries": "count",
    "engine.mine_ms": "ms", "engine.candidates": "count",
    "engine.candidates_per_ms": "1/ms",
    "approx.samples": "count", "approx.ms_per_sample": "ms",
    "live.append_ms": "ms", "live.advances_per_edge": "count",
    "live.advance_us": "us", "live.evaluate_ms": "ms", "live.outbox_us": "us",
    "live.partials_peak": "count", "live.snapshot_wait_ms": "ms",
    "live.delivery_lag_ms": "ms",
}

SETUPS_PER_RUN = 5


def steal_share(trace, t_lo: float, t_hi: float) -> float:
    """Share of all CPUs' time stolen by the hypervisor between the last
    ``(time, steal, total)`` sample at or before ``t_lo`` and the first at
    or after ``t_hi``."""
    lo = max((s for s in trace if s[0] <= t_lo), key=lambda s: s[0], default=trace[0])
    hi = min((s for s in trace if s[0] >= t_hi), key=lambda s: s[0], default=trace[-1])
    total = hi[2] - lo[2]
    return (hi[1] - lo[1]) / total if total > 0 else 0.0


def _workloads():
    from workloads import ColdQuery, HotQuery, LiveFeed

    return {w.name: w for w in (ColdQuery, HotQuery, LiveFeed)}


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> Dict:
    """One run: set-ups, the measured phase, checks; returns both lines."""
    wl = _workloads()[name](seed, seconds, tiny)
    trace_dir = WORK_DIR / f"trace-{time.monotonic_ns()}" if trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    setups: List[float] = []
    n_setups = 1 if trace or tiny else SETUPS_PER_RUN
    server = clients = None
    try:
        for i in range(n_setups):
            t_mono = time.monotonic()
            t0 = time.perf_counter()
            server = Server(wl.serve_args, trace_dir)
            clients = [Client(server.port) for _ in range(wl.clients)]
            wl.setup(clients)
            setups.append(time.perf_counter() - t0)
            setup_window = (t_mono, time.monotonic())
            if i + 1 < n_setups:
                for c in clients:
                    c.close()
                server.stop()
                server.remove_log()

        before = clients[0].ok("GET", "/metrics")["metrics"]
        # The set-up heap is frozen and the collector paused, so load
        # generator collections land neither in latencies nor in the
        # reference samples.
        gc.collect()
        gc.freeze()
        gc.disable()
        reference_ms(1)  # warm-up: the first call in a process runs slow
        refs = reference_ms(3)
        paused = [0.0]
        steal = [(time.perf_counter(), *host_steal())]

        def quiet() -> None:
            steal.append((time.perf_counter(), *host_steal()))
            t0 = time.perf_counter()
            refs.extend(reference_ms(1))
            paused[0] += time.perf_counter() - t0

        pids = server.tree()
        cpu0 = cpu_seconds(pids)
        done = []
        t_mono0 = time.monotonic()
        t0 = time.perf_counter()
        for r in range(wl.rounds):
            done += wl.run_round(r, clients, quiet)
            quiet()  # between rounds no request is in flight
        wall = time.perf_counter() - t0 - paused[0]
        steal.append((time.perf_counter(), *host_steal()))
        window = (t_mono0, time.monotonic())
        gc.enable()
        gc.unfreeze()
        pids = server.tree()
        cpu1 = cpu_seconds(pids)
        rss = peak_rss_mb(pids)
        cpu_s = sum(v - cpu0.get(pid, 0.0) for pid, v in cpu1.items())

        service = wl.counts(clients[0])
        after = clients[0].ok("GET", "/metrics")["metrics"]
        t_check = time.perf_counter()
        errors = wl.check(done, clients)
        check_s = time.perf_counter() - t_check
    finally:
        if clients:
            for c in clients:
                c.close()
        if server is not None:
            server_pid = server.proc.pid
            code = server.stop()
            log = server.log_tail()
            server.remove_log()
    if code not in (0, None):
        errors.append(f"server exited with {code}: {log}")

    ops: Dict[str, Dict[str, int]] = {}
    for d in done:
        row = ops.setdefault(d.op.kind, {"attempted": 0, "failed": 0})
        row["attempted"] += 1
        row["failed"] += not d.ok
    # A failed operation is counted, not judged: `correct` speaks of the
    # answers that came back.
    failures = [
        f"{d.op.kind} {d.op.path} -> {d.status}: {d.payload}"
        for d in done if not d.ok
    ]

    lat = [d.latency_ms for d in done if d.op.kind == wl.measured_kind]
    tail_ms, tail_pct = tail(lat)
    raw = {
        "setup_s": median(setups),
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": median(lat),
        "op_tail_ms": tail_ms,
        "cpu_ms_per_op": cpu_s * 1e3 / len(lat),
        "peak_rss_mb": rss,
    }
    corrected = STEAL_CORRECTED[name]
    reported = dict(raw)
    phase_steal = steal_share(steal, steal[0][0], steal[-1][0])
    if "ops_per_s" in corrected:
        reported["ops_per_s"] = raw["ops_per_s"] / (1.0 - phase_steal)
    if "op_p50_ms" in corrected:
        net = [
            d.latency_ms * (1.0 - steal_share(steal, d.t_sent, d.t_done))
            for d in done if d.op.kind == wl.measured_kind
        ]
        reported["op_p50_ms"] = median(net)
        reported["op_tail_ms"] = tail(net)[0]

    detail = {
        "workload": name, "seed": seed, "rounds": wl.rounds, "tiny": tiny,
        "host": host_stamp(),
        "reference_ms": {"median": median(refs), "samples": refs},
        "host_steal_share": phase_steal,
        "raw": raw, "steal_corrected": list(corrected),
        "setup_s_samples": setups,
        "measured_wall_s": wall, "measured_ops": len(lat), "check_s": check_s,
        "tail_percentile": tail_pct,
        "ops": ops, "service": service,
        "check_errors": errors[:10],
        "failures": failures[:10],
    }
    if hasattr(wl, "coverage"):
        detail["approx_ci_coverage"] = wl.coverage

    attempted = sum(r["attempted"] for r in ops.values())
    failed = sum(r["failed"] for r in ops.values())
    if trace:
        from tracing import layer_metrics, load_spans, partials_peak

        spans = load_spans(trace_dir)
        values = layer_metrics(
            spans, server_pid, setup_window, window, before, after,
            wl.payload_stats(done), partials_peak(spans, window),
        )
        shutil.rmtree(trace_dir, ignore_errors=True)
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        detail["end_to_end_traced"] = reported
    else:
        metrics = {k: {"value": reported[k], "unit": u} for k, u in END_TO_END.items()}
    final = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"detail": detail, "final": final}


def self_check() -> int:
    """Every workload at tiny scale, untraced and traced, all checks on."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(_workloads()):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    if {m["name"] for m in spec["end_to_end"]} != set(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from the benchmark's")
    if {m["name"] for m in spec["per_layer"]} != set(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from the benchmark's")
    for name in _workloads():
        for trace in (False, True):
            t0 = time.perf_counter()
            out = run(name, seed=1, seconds=1, trace=trace, tiny=True)
            final = out["final"]
            label = f"{name} trace={int(trace)}"
            print(f"{label}: correct={final['correct']} attempted={final['attempted']} "
                  f"failed={final['failed']} ({time.perf_counter() - t0:.1f}s)",
                  file=sys.stderr)
            if not final["correct"] or final["failed"]:
                problems.append(f"{label}: {out['detail']['check_errors']}")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cold-query", "hot-query", "live-feed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny scale with all checks")
    args = parser.parse_args(argv)
    # A shell that starts this in the background ignores SIGINT, and the
    # server would inherit that and could not be stopped gracefully.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
