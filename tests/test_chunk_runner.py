"""Process lifecycle and observability of the supervised chunk runner.

Both backends — :class:`SupervisedMiningPool` and :class:`MiningCluster`
— run on the same supervision core, so the guarantees here are asserted
over both:

- workers never outlive a supervisor that was SIGKILLed;
- a cluster's node deaths reach the service's ``/metrics`` counters;
- a cluster serves approximate batches on its nodes, byte-identical to
  the inline estimate;
- ``repro serve`` shuts down on SIGTERM as gracefully as on SIGINT.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import random_temporal_graph
from repro.approx.estimate import ApproxSpec, build_approx_payload
from repro.cluster import ClusterExecutor
from repro.graph.loaders import save_snap_text
from repro.motifs.catalog import M1, M2
from repro.resilience import FaultPlan
from repro.service import MotifService
from repro.service.executor import InlineExecutor
from repro.service.query import payload_bytes

SRC = Path(__file__).resolve().parents[1] / "src"
DELTA = 60

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="process checks read /proc"
)


@pytest.fixture(scope="module")
def graph():
    return random_temporal_graph(random.Random(41), 30, 400, time_range=500)


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state not in ("Z", "X")


def _children(pid: int) -> list:
    """Every live descendant of ``pid`` (forked from any of its threads)."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        kids = []
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    kids += [int(k) for k in fh.read().split()]
        except OSError:
            pass
        out.extend(kids)
        todo.extend(kids)
    return out


def _wait_gone(pids, timeout_s: float) -> list:
    deadline = time.monotonic() + timeout_s
    alive = [p for p in pids if _running(p)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [p for p in alive if _running(p)]
    return alive


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


_ORPHAN_SCRIPT = """
import json, os, random, signal, sys
sys.path.insert(0, {tests!r})
from conftest import random_temporal_graph
from repro.cluster import MiningCluster
from repro.motifs.catalog import M1
from repro.resilience import SupervisedMiningPool

graph = random_temporal_graph(random.Random(3), 20, 200, time_range=300)
if {backend!r} == "pool":
    runner = SupervisedMiningPool(graph, 2)
    runner.count(M1, 60)
else:
    runner = MiningCluster(2)
    runner.count(graph, M1, 60)
print(json.dumps([w.process.pid for w in runner._workers.values()]), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.timeout(120)
class TestSupervisorDeath:
    @pytest.mark.parametrize("backend", ["pool", "cluster"])
    def test_workers_exit_when_the_supervisor_is_killed(self, backend, tmp_path):
        script = _ORPHAN_SCRIPT.format(
            tests=str(Path(__file__).parent), backend=backend
        )
        # The killed supervisor cannot remove its socket directory, so
        # point its temp dir into tmp_path.  Surviving workers would hold
        # the output pipe open: read the pid line only, never up to EOF.
        env = dict(_env(), TMPDIR=str(tmp_path))
        with open(tmp_path / "stderr.txt", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
        pids = []
        try:
            line = proc.stdout.readline()
            assert proc.wait(timeout=90) == -signal.SIGKILL, (
                (tmp_path / "stderr.txt").read_text()
            )
            pids = json.loads(line)
            assert len(pids) == 2
            alive = _wait_gone(pids, timeout_s=5.0)
            assert not alive, f"workers outlived their supervisor: {alive}"
        finally:
            for pid in pids:  # never leak a worker, even on failure
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()


@pytest.mark.timeout(180)
class TestClusterServing:
    def test_node_deaths_reach_service_metrics(self, graph):
        executor = ClusterExecutor(
            num_nodes=2,
            fault_plan=FaultPlan.kill_worker(0, at_chunk=1, site="node.chunk"),
        )
        with MotifService(executor=executor) as service:
            service.register_graph(graph, name="g")
            result = service.query("g", M1, DELTA)
            assert result.ok, result.error
            deaths = executor.cluster.stats.worker_deaths
            assert deaths >= 1
            assert service.metrics().worker_deaths == deaths

    def test_estimate_batch_runs_on_nodes_byte_identical(self, graph):
        spec = ApproxSpec(max_error=0.2, seed=9, max_samples=256)
        inline = InlineExecutor().estimate_batch(graph, [M1, M2], DELTA, spec)
        executor = ClusterExecutor(num_nodes=2)
        try:
            rounds = []
            clustered = executor.estimate_batch(
                graph, [M1, M2], DELTA, spec,
                on_round=lambda i, est: rounds.append(i),
            )
            assert executor.counters.get("backend_failures") == 0
            assert executor.cluster.stats.chunks_completed > 0
            assert sorted(set(rounds)) == [0, 1]
        finally:
            executor.close()
        fp = graph.fingerprint()
        for motif, a, b in zip([M1, M2], clustered, inline):
            assert payload_bytes(
                build_approx_payload(fp, motif, DELTA, a)
            ) == payload_bytes(build_approx_payload(fp, motif, DELTA, b))


@pytest.mark.timeout(120)
class TestServeSigterm:
    def test_sigterm_closes_pools_and_exits_zero(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        save_snap_text(graph, str(path))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--workers", "2", f"g={path}"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            port = None
            for line in proc.stdout:
                if line.startswith("serving motif queries on http://"):
                    port = int(line.strip().rsplit(":", 1)[1])
                    break
            assert port is not None, proc.stderr.read()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            conn.request(
                "POST", "/query",
                json.dumps({"graph": "g", "motif": "M1", "delta": DELTA}),
                {"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 200
            conn.close()
            workers = _children(proc.pid)
            assert workers, "the query should have started a worker pool"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            assert not _wait_gone(workers, timeout_s=5.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.stdout.close()
            proc.stderr.close()
