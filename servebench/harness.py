"""Process, HTTP and host plumbing shared by the serving workloads.

- :class:`Server` launches ``repro serve`` in its own process (exactly
  the CLI build path; the traced variant goes through
  ``servebench/tracing.py``, which wraps layer entry points first and
  then calls the same ``repro.cli.main``), reads the bound port, meters
  CPU time and peak RSS of the server and its worker processes from
  ``/proc``, and stops it with SIGINT — the same graceful path as
  Ctrl-C — waiting for the process to end.
- :class:`Client` is one persistent HTTP/1.1 connection (stdlib
  ``http.client``) that times every request from send to response read.
- :func:`reference_ms` is the fixed, stdlib-only host-drift reference.
- :func:`host_stamp` records cores, versions and the source revision.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for server logs and span files (listed in .gitignore).
WORK_DIR = ROOT / ".servebench"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# -- /proc accounting ----------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            raw = fh.read()
    except OSError:
        return None
    # Field 2 (comm) may contain spaces; everything after ')' is fixed.
    return raw[raw.rindex(")") + 2:].split()


def _alive(pid: int) -> bool:
    """True while ``pid`` runs (a zombie has ended)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def host_steal() -> Tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs (``/proc/stat``): time the
    hypervisor gave this machine's CPUs to someone else."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def process_tree(pid: int) -> List[int]:
    """``pid`` plus every live descendant (found by scanning /proc)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            parents.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(parents.get(p, ()))
    return out


def cpu_seconds(pids: List[int]) -> Dict[int, float]:
    """User+system CPU seconds per live pid."""
    out: Dict[int, float] = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime are fields 14 and 15 (1-based) of /proc/pid/stat.
            out[pid] = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return out


def peak_rss_mb(pids: List[int]) -> float:
    """Sum of per-process peak resident set sizes (VmHWM), in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# -- the server process --------------------------------------------------------


class ServerError(RuntimeError):
    pass


class Server:
    """One ``repro serve`` process on a free port."""

    def __init__(self, serve_args: List[str], trace_dir: Optional[Path] = None):
        WORK_DIR.mkdir(exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        if trace_dir is None:
            cmd = [sys.executable, "-u", "-m", "repro"]
        else:
            cmd = [sys.executable, "-u", str(ROOT / "servebench" / "tracing.py"),
                   str(trace_dir)]
        cmd += ["serve", "--port", "0", *serve_args]
        self.log_path = WORK_DIR / f"server-{os.getpid()}-{time.monotonic_ns()}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self.port = self._read_port(timeout_s=60.0)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.2)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = fd.readline().decode(errors="replace")
            if not line:
                break
            if line.startswith("serving motif queries on http://"):
                return int(line.strip().rsplit(":", 1)[1])
        raise ServerError(f"server did not report its port: {self.log_tail()}")

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self.log_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def tree(self) -> List[int]:
        return process_tree(self.proc.pid)

    def stop(self, timeout_s: float = 30.0) -> int:
        """SIGINT (graceful close of pools and workers), then wait.

        Any descendant still alive afterwards is killed and reaped, so
        no worker outlives the run."""
        family = self.tree() if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # Workers end with their pools; any still running after 5 s is
        # killed, and the kill is waited for.
        alive = [pid for pid in family[1:] if _alive(pid)]
        for kill in (False, True):
            if kill:
                for pid in alive:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except OSError:
                        pass
            deadline = time.monotonic() + 5.0
            while alive and time.monotonic() < deadline:
                time.sleep(0.02)
                alive = [pid for pid in alive if _alive(pid)]
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode

    def remove_log(self) -> None:
        try:
            self.log_path.unlink()
        except OSError:
            pass


# -- the client ----------------------------------------------------------------


class RequestFailed(RuntimeError):
    pass


class Client:
    """One persistent HTTP/1.1 connection to the server."""

    def __init__(self, port: int, timeout_s: float = 120.0) -> None:
        self.conn = HTTPConnection("127.0.0.1", port, timeout=timeout_s)

    def call(self, method: str, path: str, body: Optional[Dict] = None
             ) -> Tuple[int, Dict, float, float]:
        """Returns ``(status, json, t_sent, t_done)`` (perf_counter s).

        Transport errors come back as status 0 with the error text."""
        raw = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if raw else {}
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=raw, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            status = resp.status
            payload = json.loads(data) if data else {}
        except (OSError, HTTPException, ValueError) as exc:
            self.conn.close()
            return 0, {"error": f"{type(exc).__name__}: {exc}"}, t0, time.perf_counter()
        return status, payload, t0, time.perf_counter()

    def ok(self, method: str, path: str, body: Optional[Dict] = None) -> Dict:
        status, payload, _, _ = self.call(method, path, body)
        if status != 200:
            raise RequestFailed(f"{method} {path} -> {status}: {payload}")
        return payload

    def close(self) -> None:
        self.conn.close()


# -- host drift reference ------------------------------------------------------


def _reference_work() -> int:
    table: Dict[int, int] = {}
    for i in range(12_000):
        table[(i * 7919) % 65_521] = i
    ordered = sorted(table.items(), key=lambda kv: kv[1] % 977)
    total = 0
    for key, value in ordered:
        total += key ^ value
    words = [str(i) for i in range(5_000)]
    return total + "".join(words).count("7")


def reference_ms(reps: int = 1) -> List[float]:
    """Time the fixed reference computation ``reps`` times (ms each).

    The collector is off while timing: a full collection of the load
    generator's heap would otherwise land in some samples."""
    out = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            _reference_work()
            out.append((time.perf_counter() - t0) * 1e3)
    finally:
        if enabled:
            gc.enable()
    return out


# -- summaries -----------------------------------------------------------------


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: List[float]) -> Tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it.  Below 40 samples that is no tail, so the median
    is returned with percentile 50."""
    n = len(values)
    if n < 40:
        return median(values), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def host_stamp() -> Dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "platform": platform.platform(),
    }
