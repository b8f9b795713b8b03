"""The three serving workloads: inputs, set-up, measured rounds, checks.

Every workload is a fixed list of operations made from the seed before
the server starts; the run length only picks how many whole rounds of
that list are sent.  Checks run after the measured phase and compare
each answer with a computation made in this process
(:class:`~repro.mining.mackey.MackeyMiner` run serially on the same
edge list, and :func:`repro.live.oracle.offline_replay`).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from harness import Client

Edge = Tuple[int, int, int]
MOTIFS = ("M1", "M2", "M3", "M4")
#: Generator seed of every dataset.  Graph content sets most of the work
#: a run does (hub sizes, partial matches held), and differs by up to 2x
#: between generator seeds at these sizes, so the graphs stay fixed and
#: ``--seed`` varies the request stream: order, popularity, rotation.
GRAPH_SEED = 7


@dataclass
class Op:
    kind: str
    method: str
    path: str
    body: Optional[Dict] = None
    meta: Dict = field(default_factory=dict)


@dataclass
class Done:
    op: Op
    status: int
    payload: Dict
    t_sent: float
    t_done: float

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.t_done - self.t_sent) * 1e3


def send(client: Client, op: Op) -> Done:
    status, payload, t0, t1 = client.call(op.method, op.path, op.body)
    return Done(op, status, payload, t0, t1)


def _in_threads(target, n: int) -> None:
    """Run ``target(j)`` for j in range(n) on n threads and join them."""
    errors: List[BaseException] = []

    def body(j: int) -> None:
        try:
            target(j)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(j,)) for j in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def edge_list(graph) -> List[Edge]:
    return list(zip(graph.src.tolist(), graph.dst.tolist(), graph.ts.tolist()))


class SerialOracle:
    """Serial Mackey counts on locally built graphs, memoised per key."""

    def __init__(self) -> None:
        self._counts: Dict[Tuple[str, str, int], int] = {}

    def count(self, graph, motif: str, delta: int) -> int:
        from repro.mining.mackey import MackeyMiner
        from repro.motifs.catalog import motif_by_name

        key = (graph.fingerprint(), motif, int(delta))
        if key not in self._counts:
            self._counts[key] = MackeyMiner(
                graph, motif_by_name(motif), int(delta)
            ).mine().count
        return self._counts[key]


def _check_monotone(rows: Sequence[Tuple[str, str, int, int]]) -> List[str]:
    """Counts for one (graph, motif) must not fall as δ grows."""
    errors: List[str] = []
    by_key: Dict[Tuple[str, str], Dict[int, int]] = {}
    for graph, motif, delta, count in rows:
        by_key.setdefault((graph, motif), {})[delta] = count
    for (graph, motif), table in by_key.items():
        deltas = sorted(table)
        for lo, hi in zip(deltas, deltas[1:]):
            if table[hi] < table[lo]:
                errors.append(
                    f"{graph} {motif}: count {table[hi]} at delta {hi} < "
                    f"{table[lo]} at delta {lo}"
                )
    return errors


class Workload:
    """Base: subclasses fill in inputs, set-up, rounds and checks."""

    name = ""
    serve_args: List[str] = []
    #: Operation kind whose latencies are the end-to-end op metrics.
    measured_kind = "query"
    clients = 1

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        self.seed = int(seed)
        self.tiny = tiny

    def setup(self, clients: List[Client]) -> None:
        raise NotImplementedError

    def run_round(self, index: int, clients: List[Client], quiet) -> List[Done]:
        """Send round ``index``; ``quiet()`` may be called wherever no
        request is in flight (the harness samples host drift there)."""
        raise NotImplementedError

    def check(self, done: List[Done], clients: List[Client]) -> List[str]:
        raise NotImplementedError

    def payload_stats(self, done: List[Done]) -> Dict[str, float]:
        return {"ops": float(sum(d.op.kind == self.measured_kind for d in done))}

    def counts(self, client: Client) -> Dict[str, int]:
        """Service-side failure accounting read after the run."""
        metrics = client.ok("GET", "/metrics")["metrics"]
        return {
            name: int(metrics.get(name, 0))
            for name in ("shed", "backend_failures", "degraded_queries",
                         "late_edges_dropped", "errors", "cancelled")
        }


# -- static-graph query workloads ----------------------------------------------


class _StaticGraphs(Workload):
    """Shared set-up for workloads over uploaded static graphs."""

    datasets: Tuple[str, ...] = ()
    scale = 1.0
    tiny_scale = 0.05

    def _build_graphs(self) -> None:
        from repro.analysis.experiments import ScalePolicy, build_workload
        from repro.graph.temporal_graph import TemporalGraph

        scale = self.tiny_scale if self.tiny else self.scale
        self.edges: Dict[str, List[Edge]] = {}
        self.graphs: Dict[str, object] = {}
        self.deltas: Dict[str, int] = {}
        for name in self.datasets:
            w = build_workload(name, ScalePolicy(scale=scale, seed=GRAPH_SEED))
            self.edges[name] = edge_list(w.graph)
            # The oracle mines the graph built from the uploaded edge list.
            self.graphs[name] = TemporalGraph(self.edges[name])
            self.deltas[name] = int(w.delta)

    def setup(self, clients: List[Client]) -> None:
        client = clients[0]
        for name, edges in self.edges.items():
            client.ok("POST", "/graphs", {"name": name, "edges": edges})
        # One warm-up query per graph, on a key no measured op asks:
        # starts resident pools and first-use imports.
        for name in self.edges:
            client.ok("POST", "/query", {
                "graph": name, "motif": "M2", "delta": self.deltas[name] - 1,
            })

    @staticmethod
    def _query(graph: str, motif: str, delta: int, approx=None) -> Op:
        body: Dict = {"graph": graph, "motif": motif, "delta": int(delta)}
        if approx is not None:
            body.update(mode="approx", max_error=approx[0], seed=approx[1])
        return Op("query", "POST", "/query", body,
                  {"graph": graph, "motif": motif, "delta": int(delta),
                   "approx": approx is not None})

    def _check_exact(self, done: List[Done], oracle: SerialOracle) -> List[str]:
        errors: List[str] = []
        rows = []
        for d in done:
            m = d.op.meta
            if d.op.kind != "query" or m["approx"] or not d.ok:
                continue
            graph = self.graphs[m["graph"]]
            want = oracle.count(graph, m["motif"], m["delta"])
            got = d.payload.get("count")
            if got != want or d.payload.get("graph") != graph.fingerprint():
                errors.append(
                    f"{m['graph']} {m['motif']} delta={m['delta']}: served "
                    f"{got} on {d.payload.get('graph')}, serial count {want}"
                )
            rows.append((m["graph"], m["motif"], m["delta"], got))
        return errors + _check_monotone(rows)

    def payload_stats(self, done: List[Done]) -> Dict[str, float]:
        stats = super().payload_stats(done)
        seen = set()
        candidates = samples = answers = 0
        for d in done:
            if d.op.kind != "query" or not d.ok:
                continue
            m = d.op.meta
            if m["approx"]:
                answers += 1
                samples += int(d.payload.get("num_samples", 0))
                continue
            key = (m["graph"], m["motif"], m["delta"])
            if key not in seen:
                seen.add(key)
                candidates += int(d.payload["counters"]["candidates_scanned"])
        stats.update(candidates=candidates, approx_answers=answers,
                     approx_samples=samples)
        return stats


class ColdQuery(_StaticGraphs):
    """Every query misses the cache on heavy-hub graphs (pooled mining)."""

    name = "cold-query"
    serve_args = ["--workers", "2"]
    datasets = ("wiki-talk", "stackoverflow")
    scale = 0.3
    tiny_scale = 0.04
    #: Nominal wall time of one pass on the reference host (sizes runs).
    pass_s = 8.0
    max_error = 0.3
    #: Share of approximate answers whose CI must hold the exact count.
    min_coverage = 0.5

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        super().__init__(seed, seconds, tiny)
        self._build_graphs()
        # At least two passes: 64 operations give a tail with ten
        # samples beyond it.
        self.rounds = 1 if tiny else max(2, round(seconds / self.pass_s))
        self.passes = [self._pass(p) for p in range(1, self.rounds + 1)]

    def _pass(self, p: int) -> List[Op]:
        ops: List[Op] = []
        for name in self.datasets:
            base = self.deltas[name] + p
            for motif in MOTIFS:
                for k in (1, 2, 4):
                    ops.append(self._query(name, motif, base * k))
                # δ·3 is never an exact key, so the approximate answer
                # cannot come from the (shared) cache slot.  The sampling
                # seed is fixed per pass: how many adaptive rounds an
                # estimate needs (512 or 1,024 samples) would otherwise
                # differ between runs and set the tail.
                ops.append(self._query(
                    name, motif, base * 3, (self.max_error, 1000 + p)
                ))
        random.Random(self.seed * 7919 + p).shuffle(ops)
        return ops

    def run_round(self, index: int, clients: List[Client], quiet) -> List[Done]:
        done = []
        for op in self.passes[index]:
            done.append(send(clients[0], op))
            quiet()
        return done

    def check(self, done: List[Done], clients: List[Client]) -> List[str]:
        from repro.approx.estimate import ApproxSpec

        sample_cap = ApproxSpec().max_samples
        oracle = SerialOracle()
        errors = self._check_exact(done, oracle)
        covered = total = 0
        for d in done:
            m = d.op.meta
            if d.op.kind != "query" or not m["approx"] or not d.ok:
                continue
            p = d.payload
            lo, hi = p["ci"]
            if not lo <= p["estimate"] <= hi:
                errors.append(f"approx {m}: estimate {p['estimate']} outside CI")
            if p["achieved_eps"] > self.max_error and p["num_samples"] < sample_cap:
                errors.append(
                    f"approx {m}: eps {p['achieved_eps']} > {self.max_error} "
                    f"before the sample cap ({p['num_samples']} samples)"
                )
            exact = oracle.count(self.graphs[m["graph"]], m["motif"], m["delta"])
            covered += lo <= exact <= hi
            total += 1
        self.coverage = covered / total if total else 1.0
        if total and self.coverage < self.min_coverage:
            errors.append(
                f"approx CI coverage {covered}/{total} below {self.min_coverage}"
            )
        return errors


class HotQuery(_StaticGraphs):
    """A Zipf-skewed repeated mix: nearly every answer is a cache hit."""

    name = "hot-query"
    serve_args: List[str] = []
    datasets = ("email-eu", "mathoverflow", "ask-ubuntu", "superuser")
    scale = 0.15
    tiny_scale = 0.05
    clients = 2
    ops_per_round = 20
    #: Nominal wall time of one round on the reference host.
    round_s = 0.9
    zipf_s = 1.1

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        super().__init__(seed, seconds, tiny)
        self._build_graphs()
        keys = [
            (name, motif, self.deltas[name] * k)
            for name in self.datasets for motif in MOTIFS for k in (1, 2, 3, 4)
        ]
        rng = random.Random(self.seed)
        rng.shuffle(keys)  # which key is popular depends on the seed
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(len(keys))]
        self.rounds = 4 if tiny else max(4, round(seconds / self.round_s))
        self.lists = [
            [
                [self._query(*key) for key in rng.choices(keys, weights, k=self.ops_per_round)]
                for _ in range(self.clients)
            ]
            for _ in range(self.rounds)
        ]
        # Every key is asked at least once, each in a seeded round and
        # slot spread over the run, so every run mines all 64 keys once
        # and the first-request mines do not bunch into one stretch.
        slots = [(r, j) for r in range(self.rounds) for j in range(self.clients)]
        for i, (r, j) in enumerate(slots):
            assigned = keys[i::len(slots)]
            positions = rng.sample(range(self.ops_per_round), len(assigned))
            for pos, key in zip(positions, assigned):
                self.lists[r][j][pos] = self._query(*key)

    def run_round(self, index: int, clients: List[Client], quiet) -> List[Done]:
        results: List[List[Done]] = [[] for _ in clients]

        def loop(j: int) -> None:
            for op in self.lists[index][j]:
                results[j].append(send(clients[j], op))

        _in_threads(loop, len(clients))
        return [d for r in results for d in r]

    def check(self, done: List[Done], clients: List[Client]) -> List[str]:
        return self._check_exact(done, SerialOracle())


# -- live feed -----------------------------------------------------------------


class LiveFeed(Workload):
    """Edge batches appended in time order beside a polling consumer."""

    name = "live-feed"
    serve_args: List[str] = []
    measured_kind = "append"
    clients = 2
    num_subs = 100
    batch_size = 10
    batches_per_round = 6
    #: The consumer's exact live-graph query comes after this many polls.
    query_after_poll = 3
    #: Nominal wall time of one round on the reference host.
    round_s = 1.0
    graph_name = "feed"

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        super().__init__(seed, seconds, tiny)
        from repro.graph.generators import make_dataset
        from repro.live.driver import plan_subscriptions

        self.rounds = 4 if tiny else max(1, round(seconds / self.round_s))
        self.num_edges = self.rounds * self.batches_per_round * self.batch_size
        if tiny:
            self.num_subs = 14
        # wiki-talk base size is 12,000 edges at scale 1; generate a
        # little more than the feed needs and keep its time prefix.
        graph = make_dataset(
            "wiki-talk", scale=self.num_edges * 1.1 / 12_000, seed=GRAPH_SEED
        )
        edges = edge_list(graph)
        if len(edges) < self.num_edges:
            raise RuntimeError(f"feed generator gave {len(edges)} edges")
        self.feed = edges[: self.num_edges]
        self.delta = max(1, (self.feed[-1][2] - self.feed[0][2]) // 40)
        self.plans = plan_subscriptions(self.num_subs, self.delta)
        self.batches = [
            self.feed[i:i + self.batch_size]
            for i in range(0, self.num_edges, self.batch_size)
        ]

    def setup(self, clients: List[Client]) -> None:
        clients[0].ok("POST", "/live", {"name": self.graph_name, "delta": self.delta})
        subs: List[Optional[Dict]] = [None] * len(self.plans)

        def subscribe(j: int) -> None:
            # Both connections register, in fixed interleaved halves.
            for i in range(j, len(self.plans), len(clients)):
                body = dict(self.plans[i], graph=self.graph_name,
                            outbox_capacity=len(self.batches) + 16)
                subs[i] = clients[j].ok("POST", "/subscriptions", body)

        _in_threads(subscribe, len(clients))
        if any(s is None for s in subs):
            raise RuntimeError("a subscription request failed during set-up")
        # Ids are assigned in arrival order; sort back to plan order.
        self.subs = sorted(subs, key=lambda s: int(s["subscription"].split("-")[1]))
        self.update_subs = [s["subscription"] for s in self.subs if s["kind"] == "update"]
        self.cursor = {s: 0 for s in self.update_subs}
        self.polls_sent = self.seed % len(self.update_subs)

    def run_round(self, index: int, clients: List[Client], quiet) -> List[Done]:
        producer, consumer = clients
        sent = [0]
        cond = threading.Condition()
        appends: List[Done] = []
        reads: List[Done] = []
        first = index * self.batches_per_round

        def produce() -> None:
            for j in range(self.batches_per_round):
                seq = first + j
                op = Op("append", "POST", f"/graphs/{self.graph_name}/edges",
                        {"edges": [list(e) for e in self.batches[seq]], "seq": seq},
                        {"seq": seq})
                with cond:
                    sent[0] = j + 1
                    cond.notify_all()
                appends.append(send(producer, op))

        def consume() -> None:
            for j in range(self.batches_per_round):
                with cond:
                    # Poll j waits until append j of this round is on the wire.
                    while sent[0] < j + 1:
                        cond.wait()
                sub = self.update_subs[self.polls_sent % len(self.update_subs)]
                self.polls_sent += 1
                d = send(consumer, Op(
                    "poll", "GET",
                    f"/subscriptions/{sub}/poll?after={self.cursor[sub]}&timeout_s=5",
                ))
                if d.ok:
                    self.cursor[sub] = d.payload["next_after"]
                reads.append(d)
                if j + 1 == self.query_after_poll:
                    motif = MOTIFS[(index + self.seed) % len(MOTIFS)]
                    reads.append(send(consumer, Op(
                        "live_query", "POST", "/query",
                        {"graph": self.graph_name, "motif": motif, "delta": self.delta},
                        {"motif": motif, "delta": self.delta},
                    )))

        _in_threads(lambda j: (produce, consume)[j](), 2)
        return appends + reads

    def payload_stats(self, done: List[Done]) -> Dict[str, float]:
        stats = super().payload_stats(done)
        stats["candidates"] = float(sum(
            d.payload["counters"]["candidates_scanned"]
            for d in done if d.op.kind == "live_query" and d.ok
        ))
        return stats

    def counts(self, client: Client) -> Dict[str, int]:
        out = super().counts(client)
        status = client.ok("GET", f"/live/{self.graph_name}")
        out["live_late_dropped"] = int(status["reorder"]["late_dropped"])
        return out

    def check(self, done: List[Done], clients: List[Client]) -> List[str]:
        from repro.graph.temporal_graph import TemporalGraph
        from repro.live.oracle import (
            SubSpec, offline_replay, schedule_from_acks, sorted_arrivals,
        )
        from repro.motifs.catalog import motif_by_name
        from repro.service.query import payload_bytes

        errors: List[str] = []
        appends = sorted(
            (d for d in done if d.op.kind == "append"), key=lambda d: d.op.meta["seq"]
        )
        if any(not d.ok for d in appends) or len(appends) != len(self.batches):
            return errors + ["not every batch was acked; event parity undefined"]
        acks = [d.payload for d in appends]
        status = clients[0].ok("GET", f"/live/{self.graph_name}")
        # Every subscription's retained events and status, read over both
        # connections.
        events: Dict[str, List[Dict]] = {}
        final: Dict[str, int] = {}

        def read(j: int) -> None:
            for s in self.subs[j::len(clients)]:
                sub = s["subscription"]
                events[sub] = clients[j].ok(
                    "GET", f"/subscriptions/{sub}/poll?after=0&timeout_s=0"
                )["events"]
                final[sub] = clients[j].ok("GET", f"/subscriptions/{sub}")["count"]

        _in_threads(read, len(clients))
        if status["reorder"]["late_dropped"]:
            errors.append(f"{status['reorder']['late_dropped']} edges dropped late")

        # 1. Every event byte-identical to the offline replay.
        specs = [
            SubSpec(s["subscription"], motif_by_name(s["motif"]), s["delta"],
                    s["kind"], s.get("threshold"))
            for s in self.subs
        ]
        expected = offline_replay(
            sorted_arrivals(self.feed), specs, schedule_from_acks(acks),
            self.graph_name, self.delta,
        )
        for spec in specs:
            got = events[spec.sub_id]
            want = expected["events"][spec.sub_id]
            if [payload_bytes(e) for e in got] != [payload_bytes(e) for e in want]:
                errors.append(f"{spec.sub_id}: events differ from offline replay")
        if status["window_fingerprint"] != expected["window_fingerprint"]:
            errors.append("final window fingerprint differs from offline replay")

        # 2. Final cumulative counts equal serial counts on the fed graph.
        oracle = SerialOracle()
        whole = TemporalGraph(self.feed)
        for s in self.subs:
            got = final[s["subscription"]]
            want = oracle.count(whole, s["motif"], s["delta"])
            if got != want:
                errors.append(
                    f"{s['subscription']} {s['motif']} delta={s['delta']}: "
                    f"cumulative {got}, serial {want}"
                )

        # 3. Live-graph answers: the serial count on an acked prefix that
        #    was current while the request was in flight.  Version v exists
        #    from its append's apply (after it was sent) until append v+1
        #    is applied (before that one is acked).
        sent_at = [d.t_sent for d in appends]
        acked_at = [d.t_done for d in appends]
        sizes = [a["num_edges"] for a in acks]
        prefixes: Dict[int, object] = {}
        for d in done:
            if d.op.kind != "live_query" or not d.ok:
                continue
            # Live queries follow an acked append, so the empty graph
            # is never current.
            candidates = [
                v for v in range(len(appends))
                if sent_at[v] < d.t_done
                and (v + 1 == len(appends) or acked_at[v + 1] > d.t_sent)
            ]
            wants = []
            for v in candidates:
                n = sizes[v]
                if n not in prefixes:
                    prefixes[n] = TemporalGraph(self.feed[:n])
                wants.append(oracle.count(prefixes[n], d.op.meta["motif"], self.delta))
            if d.payload.get("count") not in wants:
                errors.append(
                    f"live query {d.op.meta}: served {d.payload.get('count')}, "
                    f"serial counts on the in-flight prefixes {wants}"
                )
        return errors
