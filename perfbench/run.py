"""The repository's benchmark: served-decision latency and throughput.

Usage::

    python3 perfbench/run.py --workload serve-fleet --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Four workloads (see README.md for why each exists):

* ``serve-fleet``  — a router plus 2 shard processes, 10-job TPC-H episodes;
* ``serve-large``  — the default single-process server, 200-job backlog;
* ``act-inproc``   — in-process ``DecimaAgent.act`` + simulator step;
* ``train``        — ``ReinforceTrainer`` on a 2-worker rollout pool.

Each run prints a JSON *record* line (provenance, failures by code, the
workload's own metric names, self-checks) and, as its last line, the result
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures half
its time untraced and half traced and reports the per-layer metrics plus the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from episodes import (  # noqa: E402
    ACTION_OK,
    TIE_BREAK,
    WRONG_ACTION,
    action_key,
    avg_jct_s,
    check_action,
    make_agent,
    make_jobs,
    new_episode,
    reference_trajectory,
    resolve,
    tpch_batches,
)
from spans import SpanRecorder, read_spans, summarize, write_spans  # noqa: E402

from repro.core import (  # noqa: E402
    IterationPlan,
    ParallelRolloutBackend,
    ReinforceTrainer,
    TrainingConfig,
)
from repro.core.agent import DecimaAgent  # noqa: E402
from repro.core.gnn import GraphNeuralNetwork  # noqa: E402
from repro.core.nn import Adam  # noqa: E402
from repro.core.policy import PolicyNetwork  # noqa: E402
from repro.service import client as client_module  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.service.client import ControlClient, PolicyClient, decode_action  # noqa: E402
from repro.service.protocol import ProtocolError  # noqa: E402
from repro.service.router import shard_for_session  # noqa: E402
from repro.simulator import SchedulingEnvironment, SimulatorConfig  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# A rollout pool forks in ~20 ms, so one more fork or page-table copy moves a
# median of 5 by a large share; train sets up more often.
TRAIN_SETUP_REPEATS = 15
SESSIONS = 2

# Per workload: the tail latency percentile in each run's record.  Each is the
# highest percentile that leaves at least ten samples beyond it at the sample
# count a 20-second run yields on a 2-CPU machine.  It is reported, not
# gated: on a shared 2-CPU host it swings from run to run by more than any
# bound a regression check could use.
TAIL_PERCENTILE = {"serve-fleet": 99, "serve-large": 95, "act-inproc": 99, "train": 50}

SERVE = {
    # 10-job episodes: per-decision fixed costs (router hop, framing,
    # coalescing, dispatch) dominate; act() is a minor share.
    "serve-fleet": dict(shards=2, executors=20, jobs=10, episodes=6, prefix=None),
    # A 200-job backlog: ~350 kB frames, so the wire layers and reconcile
    # dominate.  The fleet drops frames over 64 KiB, hence one process.
    "serve-large": dict(shards=1, executors=50, jobs=200, episodes=1, prefix=150),
}
# act-inproc replays the first ACT_PREFIX steps of one episode over and over,
# so every run times the same states whatever its speed; the autograd oracle
# checks the first ORACLE_PREFIX of them.
ACT_JOBS, ACT_EXECUTORS, ACT_PREFIX, ORACLE_PREFIX = 200, 50, 300, 100
# Training episodes end after TRAIN_ACTIONS actions instead of at a random
# time, so every iteration does the same amount of work however many
# iterations a run reaches; avg_jct_s averages the first TRAIN_JCT_ITERATIONS.
TRAIN_JOBS, TRAIN_EXECUTORS, TRAIN_WORKERS = 10, 20, 2
TRAIN_ACTIONS, TRAIN_JCT_ITERATIONS = 150, 8
PROBE_JOBS = 200
DECIDE_TIMEOUT_S = 30.0


def derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0]) & 0x7FFFFFFF


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def tail(latencies_ms, workload: str) -> dict:
    q = TAIL_PERCENTILE[workload]
    value = percentile(latencies_ms, q)
    beyond = int(np.sum(np.asarray(latencies_ms) > value)) if len(latencies_ms) else 0
    return {"percentile": q, "value_ms": value, "samples": len(latencies_ms),
            "samples_beyond": beyond, "valid": beyond >= 10}


# ------------------------------------------------------------------ provenance
def provenance(seed: int) -> dict:
    try:
        from importlib.metadata import PackageNotFoundError, version
        numba_version = version("numba")
    except PackageNotFoundError:
        numba_version = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        "DECIMA_KERNEL_BACKEND": os.environ.get("DECIMA_KERNEL_BACKEND"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def own_peak_rss_mb() -> float:
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


# ------------------------------------------------------------------- serving
class Deployment:
    """A ``deploy.py`` process: launched, ready on its first line, stopped."""

    def __init__(self, shards: int, executors: int, trace: bool, span_path: Path):
        command = [sys.executable, str(HERE / "deploy.py"), "--shards", str(shards),
                   "--executors", str(executors), "--trace", str(int(trace)),
                   "--out", str(span_path)]
        self._log = open(OUT_DIR / "deploy.log", "a", encoding="utf-8")
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        ready = self._read_line(120.0)
        self.address = tuple(ready["address"])
        self.control = tuple(ready["control"]) if ready["control"] else None

    def _read_line(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline() if readable else ""
        if not line:
            self.kill()
            raise RuntimeError(f"deployment did not answer (see {OUT_DIR / 'deploy.log'})")
        return json.loads(line)

    def stop(self) -> dict:
        """Stop the deployment; returns its exit report (peak RSS)."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.close()
            report = self._read_line(60.0)
            self.process.wait(timeout=60.0)
        finally:
            self.kill()
        if self.process.returncode != 0:
            raise RuntimeError(f"deployment exited with {self.process.returncode}")
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30.0)
        self._log.close()


def failure_code(error: Exception) -> str:
    if isinstance(error, socket.timeout):
        return "timeout"
    if isinstance(error, ProtocolError):
        if error.code:
            return error.code
        return "connection_closed" if "closed the connection" in str(error) else "server_error"
    return "connection_closed"


class _UnknownNode(Exception):
    """The server chose a stage the client's cluster does not have."""

    def __init__(self, reply: dict):
        super().__init__(reply)
        self.reply = reply


class Session:
    """One closed-loop client session replaying its reference episodes."""

    def __init__(self, index: int, spec: dict, references: list, address, deadline: float,
                 recorder):
        self.index = index
        self.spec = spec
        self.references = references
        self.address = address
        self.deadline = deadline
        self.recorder = recorder
        self.rtt_ms: list[float] = []
        self.think_ms: list[float] = []
        self.reported_ms: list[float] = []
        self.failures: Counter = Counter()
        self.tie_breaks = 0
        self.attempted = 0
        self.answered = 0
        self.error = None
        self._client = None
        self._connections = 0
        self._request_id = index * 10**9

    def _next_session_id(self) -> str:
        """A fresh session id that the router places on this session's shard.

        Keeping each session on its own shard for every episode stops the
        two sessions from sharing a shard in some episodes and not others,
        which would make latency depend on how the episodes happen to line up.
        """
        while True:
            self._connections += 1
            session_id = f"bench-{self.index}-{self._connections}"
            shards = self.spec["shards"]
            if shard_for_session(session_id, shards) == self.index % shards:
                return session_id

    def _connect(self, seed: int) -> None:
        client = PolicyClient(*self.address, timeout=DECIDE_TIMEOUT_S)
        try:
            client.hello(session_id=self._next_session_id(),
                         num_executors=self.spec["executors"], seed=seed)
        except (ProtocolError, OSError):
            client.close()
            raise
        self._client = client

    def _disconnect(self, polite: bool) -> None:
        if self._client is not None:
            if polite:
                self._client.bye()
            self._client.close()
            self._client = None

    def _decide(self, observation, seed: int):
        """One served decision: ``(reply, action)`` on the client's objects."""
        if self._client is None:
            self._connect(seed)
        self._request_id += 1
        reply = self._client.decide(observation, request_id=self._request_id)
        try:
            return reply, decode_action(reply, observation)
        except ProtocolError as error:
            raise _UnknownNode(reply) from error

    def run(self) -> None:
        try:
            while time.perf_counter() < self.deadline:
                for reference in self.references:
                    if time.perf_counter() >= self.deadline:
                        break
                    self._episode(reference)
        except Exception as error:  # noqa: BLE001 - re-raised by the caller
            self.error = error
        finally:
            self._disconnect(polite=True)

    def _episode(self, reference: dict) -> None:
        seed = reference["seed"]
        env, observation = new_episode(reference["batch"], self.spec["executors"], seed)
        replied_at = None
        for key in reference["keys"]:
            start = time.perf_counter()
            if start >= self.deadline:
                break
            if replied_at is not None:
                self.think_ms.append((start - replied_at) * 1e3)
            self.attempted += 1
            try:
                if self.recorder is None:
                    reply, action = self._decide(observation, seed)
                else:
                    reply, action = self.recorder.call(
                        "client.decide", self._decide, (observation, seed), {},
                        self._request_id + 1)
                verdict = check_action(action, key, observation)
            except _UnknownNode as error:
                reply, verdict = error.reply, WRONG_ACTION
            except (ProtocolError, OSError) as error:
                reply, verdict = None, failure_code(error)
                # Only a plain error frame leaves the connection usable.
                if verdict != "server_error":
                    self._disconnect(polite=False)
            replied_at = time.perf_counter()
            if reply is not None:
                self.answered += 1
                self.rtt_ms.append((replied_at - start) * 1e3)
                self.reported_ms.append(float(reply["latency_ms"]))
            if verdict == TIE_BREAK:
                self.tie_breaks += 1
            elif verdict != ACTION_OK:
                self.failures[verdict] += 1
            observation, _, done = env.step(resolve(key, observation))
            if done:
                break
        self._disconnect(polite=True)


def serve_references(workload: str, seed: int) -> list:
    """Per session, the reference trajectories of its episodes."""
    spec = SERVE[workload]
    agent = make_agent(spec["executors"])
    batches = tpch_batches(np.random.default_rng(seed), SESSIONS * spec["episodes"],
                           spec["jobs"])
    return [
        [reference_trajectory(agent, batches[session * spec["episodes"] + episode],
                              spec["executors"], derived_seed(seed, session, episode),
                              spec["prefix"])
         for episode in range(spec["episodes"])]
        for session in range(SESSIONS)
    ]


def run_sessions(workload: str, references: list, address, seconds: float, recorder) -> dict:
    spec = SERVE[workload]
    start = time.perf_counter()
    sessions = [Session(index, spec, references[index], address, start + seconds, recorder)
                for index in range(SESSIONS)]
    threads = [threading.Thread(target=session.run, name=f"bench-session-{session.index}")
               for session in sessions]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    for session in sessions:
        if session.error is not None:
            raise session.error
    rtt = [v for s in sessions for v in s.rtt_ms]
    think = [v for s in sessions for v in s.think_ms]
    failures = sum((s.failures for s in sessions), Counter())
    answered = sum(s.answered for s in sessions)
    throughput = answered / elapsed
    return {
        "elapsed_s": elapsed,
        "rtt_ms": rtt,
        "think_ms": think,
        "reported_ms": [v for s in sessions for v in s.reported_ms],
        "failures": failures,
        "tie_breaks": sum(s.tie_breaks for s in sessions),
        "attempted": sum(s.attempted for s in sessions),
        "answered": answered,
        "throughput_per_s": throughput,
        # Little's law: concurrent sessions = throughput x time per decision.
        "littles_law_sessions": throughput * (mean(rtt) + mean(think)) / 1e3,
    }


def frame_cliff_probe(address, seed: int) -> dict:
    """Send one 200-job decide frame and record what comes back, by code."""
    batch = tpch_batches(np.random.default_rng(derived_seed(seed, 99)), 1, PROBE_JOBS)[0]
    _, observation = new_episode(batch, SERVE["serve-fleet"]["executors"], seed)
    frame_kb = len(protocol.encode_message(
        {"observation": protocol.encode_observation(observation)})) / 1e3
    client = PolicyClient(*address, timeout=DECIDE_TIMEOUT_S)
    start = time.perf_counter()
    try:
        client.hello(session_id="bench-probe",
                     num_executors=SERVE["serve-fleet"]["executors"], seed=seed)
        client.decide(observation, request_id=0)
        outcome = "ok"
    except (ProtocolError, OSError) as error:
        outcome = failure_code(error)
    finally:
        client.close()
    return {"jobs": PROBE_JOBS, "frame_kb": frame_kb, "outcome": outcome,
            "seconds": time.perf_counter() - start}


def trace_client(recorder: SpanRecorder) -> None:
    """Client-side layer wrappers of the serve workloads."""
    recorder.wrap(client_module, "encode_observation", "client.encode_observation")
    encode_message = protocol.encode_message

    def traced_encode(payload):
        start = time.perf_counter()
        frame = encode_message(payload)
        if payload.get("type") == "decide":
            recorder.record("client.encode_message", start, time.perf_counter(),
                            payload.get("request_id"), len(frame))
        return frame

    recorder.patch(protocol, "encode_message", traced_encode)
    recorder.wrap(SchedulingEnvironment, "step", "client.sim_step")


def scrape_shards(control) -> dict:
    with ControlClient(*control) as control_client:
        reply = control_client.metrics()
    latency_sum = latency_count = 0.0
    stage_totals: Counter = Counter()
    stage_steps = 0.0
    ema, full_refreshes = [], 0.0
    for shard in reply["shards"]:
        metrics = shard["metrics"]
        for sample in metrics["decision_latency_ms"]["samples"]:
            latency_sum += sample["sum"]
            latency_count += sample["count"]
        steps = metrics["stage_steps_total"]["samples"][0]["value"]
        stage_steps += steps
        for sample in metrics["stage_mean_ms"]["samples"]:
            stage_totals[sample["labels"]["stage"]] += sample["value"] * steps
        ema.append(metrics["batch_ema_size"]["samples"][0]["value"])
        full_refreshes += metrics["graph_full_refreshes_total"]["samples"][0]["value"]
    layers = {
        "shard.decision_latency_ms": latency_sum / latency_count if latency_count else 0.0,
        "shard.batch_ema_size": mean(ema),
        "shard.graph_full_refreshes": full_refreshes,
    }
    for stage in ("features", "propagation", "policy", "sampling"):
        layers[f"shard.stage_{stage}_ms"] = (
            stage_totals[stage] / stage_steps if stage_steps else 0.0)
    return layers


def serve_layers(workload: str, phase: dict, client_spans, server_spans, shard_layers) -> dict:
    client = summarize(client_spans)
    server = summarize(server_spans)
    decisions = max(client.get("client.decide", {"count": 0})["count"], 1)

    def per_decision_ms(table, *names) -> float:
        return sum(table[name]["seconds"] for name in names if name in table) * 1e3 / decisions

    def per_call_ms(table, name) -> float:
        entry = table.get(name)
        return entry["seconds"] * 1e3 / entry["count"] if entry else 0.0

    layers = {
        "client.encode_ms": per_decision_ms(
            client, "client.encode_observation", "client.encode_message"),
        "client.frame_kb": (client["client.encode_message"]["size"] / 1e3
                            / client["client.encode_message"]["count"]),
        "client.sim_step_ms": per_call_ms(client, "client.sim_step"),
        "client.rtt_ms": mean(phase["rtt_ms"]),
        "client.think_ms": mean(phase["think_ms"]),
        "batcher.reported_ms": mean(phase["reported_ms"]),
        "littles_law.sessions": phase["littles_law_sessions"],
    }
    if workload == "serve-fleet":
        layers["router.json_ms"] = per_decision_ms(
            server, "router.decode", "router.encode.decide", "router.encode.action")
        layers.update(shard_layers)
        server_side = layers["router.json_ms"] + layers["shard.decision_latency_ms"]
    else:
        rounds = server.get("batcher.decide")
        layers.update({
            "server.decode_ms": per_call_ms(server, "server.decode"),
            "session.reconcile_ms": per_call_ms(server, "session.reconcile"),
            "server.queue_wait_ms": per_call_ms(server, "server.queue_wait"),
            "batcher.decide_ms": per_call_ms(server, "batcher.decide"),
            "batcher.batch_size_mean": rounds["size"] / rounds["count"] if rounds else 0.0,
            "server.reply_ms": (per_call_ms(server, "server.action_reply")
                                + per_call_ms(server, "server.encode.action")),
        })
        # build_request includes its session.reconcile child.
        server_side = (layers["server.decode_ms"] + per_call_ms(server, "server.build_request")
                       + layers["server.queue_wait_ms"] + layers["batcher.decide_ms"]
                       + layers["server.reply_ms"])
    layers["wire.residual_ms"] = layers["client.rtt_ms"] - layers["client.encode_ms"] - server_side
    return layers


def serve(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = SERVE[workload]
    references = serve_references(workload, seed)
    span_path = OUT_DIR / f"spans-{workload}-server.json"
    measured = {SETUP_REPEATS - 1: trace}
    if trace:
        measured = {SETUP_REPEATS - 2: False, SETUP_REPEATS - 1: True}
    setup_s, phases, probe, shard_layers, report, client_spans = [], {}, None, {}, None, []
    for launch in range(SETUP_REPEATS):
        traced = measured.get(launch, False)
        span_path.unlink(missing_ok=True)
        start = time.perf_counter()
        deployment = Deployment(spec["shards"], spec["executors"], traced, span_path)
        try:
            with PolicyClient(*deployment.address, timeout=DECIDE_TIMEOUT_S) as client:
                client.hello(session_id="bench-setup", num_executors=spec["executors"])
                setup_s.append(time.perf_counter() - start)
            if launch in measured:
                recorder = SpanRecorder() if traced else None
                if recorder is not None:
                    trace_client(recorder)
                try:
                    phases[traced] = run_sessions(
                        workload, references, deployment.address,
                        seconds / len(measured), recorder)
                finally:
                    if recorder is not None:
                        recorder.unwrap_all()
                        client_spans = recorder.spans
                if traced and deployment.control is not None:
                    shard_layers = scrape_shards(deployment.control)
                if workload == "serve-fleet" and launch == SETUP_REPEATS - 1:
                    probe = frame_cliff_probe(deployment.address, seed)
        finally:
            exit_report = deployment.stop()
        if launch in measured:
            report = exit_report
    phase = phases[trace]
    jct = mean([r["avg_jct_s"] for session in references for r in session])
    result = {
        "latencies_ms": phase["rtt_ms"],
        "throughput_per_s": phase["throughput_per_s"],
        "attempted": phase["attempted"],
        "failures": phase["failures"],
        "tie_breaks": phase["tie_breaks"],
        "avg_jct_s": jct,
        "setup_s": setup_s,
        "peak_rss_mb": report["peak_rss_mb"],
        "detail": {
            "decide_p50_ms": percentile(phase["rtt_ms"], 50),
            "decide_p99_ms": percentile(phase["rtt_ms"], 99),
            "decisions_per_s": phase["throughput_per_s"],
            "decide_fail_pct": 100.0 * sum(phase["failures"].values())
            / max(phase["attempted"], 1),
            "avg_jct_s": jct,
            "decide_samples": len(phase["rtt_ms"]),
            "mean_rtt_ms": mean(phase["rtt_ms"]),
            "mean_think_ms": mean(phase["think_ms"]),
            "littles_law_sessions": phase["littles_law_sessions"],
            "littles_law_ok": abs(phase["littles_law_sessions"] - SESSIONS) <= 0.15 * SESSIONS,
            "reference_decisions": sum(len(r["keys"]) for s in references for r in s),
        },
    }
    if probe is not None:
        result["detail"]["frame_cliff_probe"] = probe
    if trace:
        server_spans = read_spans(span_path) if span_path.is_file() else []
        result["layers"] = serve_layers(workload, phase, client_spans, server_spans,
                                        shard_layers)
        result["untraced"] = phases[False]
        write_spans(OUT_DIR / f"trace-{workload}.json", client_spans, server_spans)
        span_path.unlink(missing_ok=True)
    return result


# ---------------------------------------------------------------- act-inproc
def act_inproc(seed: int, seconds: float, trace: bool) -> dict:
    batch = tpch_batches(np.random.default_rng(seed), 1, ACT_JOBS)[0]
    episode_seed = derived_seed(seed, 0)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        agent = make_agent(ACT_EXECUTORS)
        _, observation = new_episode(batch, ACT_EXECUTORS, episode_seed)
        agent.act(observation, greedy=True)
        setup_s.append(time.perf_counter() - start)

    # Correctness pass: the fast data path against the autograd oracle.
    oracle = make_agent(ACT_EXECUTORS, kernel_backend="tensor")
    agent.reset_graph_cache()
    env, observation = new_episode(batch, ACT_EXECUTORS, episode_seed)
    failures, tie_breaks = Counter(), 0
    for _ in range(ORACLE_PREFIX):
        action, _ = agent.act(observation, greedy=True)
        expected, _ = oracle.act(observation, greedy=True)
        verdict = check_action(action, action_key(expected), observation)
        if verdict == TIE_BREAK:
            tie_breaks += 1
        elif verdict != ACTION_OK:
            failures[verdict] += 1
        observation, _, done = env.step(action)
        if done:
            break
    del oracle

    state = {"env": None, "observation": None, "steps": ACT_PREFIX, "jct": None}

    def measure(duration: float) -> dict:
        """Time act + step for ``duration`` seconds (and one whole prefix)."""
        acts, steps = [], []
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline or state["jct"] is None:
            if state["observation"] is None or state["steps"] >= ACT_PREFIX:
                agent.reset_graph_cache()
                state["env"], state["observation"] = new_episode(
                    batch, ACT_EXECUTORS, episode_seed)
                state["steps"] = 0
            start = time.perf_counter()
            action, _ = agent.act(state["observation"], greedy=True)
            middle = time.perf_counter()
            state["observation"], _, _ = state["env"].step(action)
            end = time.perf_counter()
            state["steps"] += 1
            at_end = state["steps"] == ACT_PREFIX or state["observation"] is None
            if at_end and state["jct"] is None:
                state["jct"] = avg_jct_s(state["env"], ACT_JOBS)
            acts.append((middle - start) * 1e3)
            steps.append((end - middle) * 1e3)
        return {"act_ms": acts, "step_ms": steps,
                "throughput_per_s": 1e3 * len(acts) / (sum(acts) + sum(steps))}

    phases = {}
    if trace:
        phases[False] = measure(seconds / 2)
        recorder = SpanRecorder()
        cache = agent.graph_cache
        delta0, full0 = cache.num_delta_refreshes, cache.num_full_refreshes
        recorder.wrap(DecimaAgent, "act", "agent.act")
        recorder.wrap(DecimaAgent, "build_features", "features.build")
        recorder.wrap(GraphNeuralNetwork, "forward_data", "gnn.forward")
        recorder.wrap(PolicyNetwork, "node_logits_data", "policy.logits")
        recorder.wrap(DecimaAgent, "act_on_graph", "agent.sample")
        recorder.wrap(SchedulingEnvironment, "step", "simulator.step")
        try:
            phases[True] = measure(seconds / 2)
        finally:
            recorder.unwrap_all()
        deltas = cache.num_delta_refreshes - delta0
        fulls = cache.num_full_refreshes - full0
        table = summarize(recorder.spans)
        per_call = lambda name: table[name]["seconds"] * 1e3 / table[name]["count"]  # noqa: E731
        layers = {
            "features.build_ms": per_call("features.build"),
            "features.delta_ratio": deltas / max(deltas + fulls, 1),
            "gnn.forward_ms": per_call("gnn.forward"),
            "policy.logits_ms": per_call("policy.logits"),
            "agent.sample_ms": per_call("agent.sample"),
            "simulator.step_ms": per_call("simulator.step"),
        }
        write_spans(OUT_DIR / "trace-act-inproc.json", recorder.spans)
    else:
        phases[False] = measure(seconds)
    phase = phases[trace]
    jct = state["jct"]
    result = {
        "latencies_ms": phase["act_ms"],
        "throughput_per_s": phase["throughput_per_s"],
        "attempted": ORACLE_PREFIX + len(phase["act_ms"]),
        "failures": failures,
        "tie_breaks": tie_breaks,
        "avg_jct_s": jct,
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss_mb(),
        "detail": {
            "act_p50_ms": percentile(phase["act_ms"], 50),
            "act_p99_ms": percentile(phase["act_ms"], 99),
            "episode_steps_per_s": phase["throughput_per_s"],
            "step_p50_ms": percentile(phase["step_ms"], 50),
            "act_samples": len(phase["act_ms"]),
            "oracle_checked_actions": ORACLE_PREFIX,
            "avg_jct_s": jct,
        },
    }
    if trace:
        result["layers"] = layers
        result["untraced"] = {"rtt_ms": phases[False]["act_ms"],
                              "throughput_per_s": phases[False]["throughput_per_s"]}
    return result


# --------------------------------------------------------------------- train
def train(seed: int, seconds: float, trace: bool) -> dict:
    simulator_config = SimulatorConfig(num_executors=TRAIN_EXECUTORS, seed=seed)

    def make_trainer():
        # Iteration i trains on batch i of a seeded stream, drawn in balanced
        # blocks of TRAIN_JCT_ITERATIONS batches (the trainer's own generator
        # still draws every episode's duration and action seeds).
        batches = (batch for block in itertools.count() for batch in tpch_batches(
            np.random.default_rng([seed, block]), TRAIN_JCT_ITERATIONS, TRAIN_JOBS))
        factory = lambda rng: make_jobs(next(batches))  # noqa: E731
        agent = make_agent(TRAIN_EXECUTORS)
        backend = ParallelRolloutBackend(num_workers=TRAIN_WORKERS, seed=seed)
        trainer = ReinforceTrainer(
            agent, simulator_config, factory,
            TrainingConfig(seed=seed, initial_episode_time=math.inf,
                           max_actions_per_episode=TRAIN_ACTIONS),
            backend=backend)
        # An empty collect returns once every worker has built its agent.
        backend.collect(agent, simulator_config,
                        IterationPlan(num_episodes=0, episode_time=0.0, make_jobs=factory),
                        np.random.default_rng(0))
        return trainer

    setup_s, trainer = [], None
    for _ in range(TRAIN_SETUP_REPEATS):
        if trainer is not None:
            trainer.close()
        start = time.perf_counter()
        trainer = make_trainer()
        setup_s.append(time.perf_counter() - start)

    episodes = trainer.config.episodes_per_iteration

    def measure(trainer, duration: float, min_iterations: int = 0) -> dict:
        """Train from iteration 0 for ``duration`` seconds and at least
        ``min_iterations`` iterations."""
        ms_per_action, jcts, actions, busy, iteration = [], [], 0, 0.0, 0
        deadline = time.perf_counter() + duration
        while time.perf_counter() < deadline or iteration < min_iterations:
            start = time.perf_counter()
            stats = trainer.train_iteration(iteration)
            elapsed = time.perf_counter() - start
            iteration_actions = stats.mean_num_actions * episodes
            if iteration < TRAIN_JCT_ITERATIONS:
                # Job-seconds accrued per job over the episode prefix.
                jcts.append(-stats.mean_total_reward
                            / simulator_config.reward_scale / TRAIN_JOBS)
            iteration += 1
            actions += iteration_actions
            busy += elapsed
            ms_per_action.append(elapsed * 1e3 / max(iteration_actions, 1))
        finite = all(np.all(np.isfinite(p.data)) for p in trainer.agent.parameters())
        return {"ms_per_action": ms_per_action, "jcts": jcts, "actions": actions,
                "finite": finite,
                "iterations": len(ms_per_action), "throughput_per_s": actions / busy}

    phases, layers = {}, None
    try:
        if not trace:
            phases[False] = measure(trainer, seconds, TRAIN_JCT_ITERATIONS)
        else:
            phases[False] = measure(trainer, seconds / 2)
            # The traced half trains a fresh trainer from iteration 0 again,
            # so both halves do the same work.
            trainer.close()
            trainer = make_trainer()
            recorder = SpanRecorder()
            recorder.wrap(ReinforceTrainer, "train_iteration", "reinforce.iteration")
            recorder.wrap(ParallelRolloutBackend, "collect", "parallel.collect")
            recorder.wrap(Adam, "step", "autograd.adam_step")
            try:
                phases[True] = measure(trainer, seconds / 2)
            finally:
                recorder.unwrap_all()
            table = summarize(recorder.spans)
            iterations = table["reinforce.iteration"]["count"]
            collect = table["parallel.collect"]["seconds"] / iterations
            layers = {
                "parallel.collect_s": collect,
                "reinforce.update_s": table["reinforce.iteration"]["seconds"] / iterations
                - collect,
                "autograd.adam_step_ms": table["autograd.adam_step"]["seconds"] * 1e3
                / table["autograd.adam_step"]["count"],
            }
            write_spans(OUT_DIR / "trace-train.json", recorder.spans)
    finally:
        trainer.close()
    phase = phases[trace]
    finite = all(p["finite"] for p in phases.values())
    jcts = [j for j in phase["jcts"] if math.isfinite(j)]
    jct = mean(jcts) if jcts else float("nan")
    result = {
        "latencies_ms": phase["ms_per_action"],
        "throughput_per_s": phase["throughput_per_s"],
        "attempted": int(phase["actions"]),
        "failures": Counter() if finite and jcts else Counter({"non_finite": 1}),
        "tie_breaks": 0,
        "avg_jct_s": jct,
        "setup_s": setup_s,
        "peak_rss_mb": own_peak_rss_mb(),
        "detail": {
            "train_actions_per_s": phase["throughput_per_s"],
            "iterations": phase["iterations"],
            "avg_jct_s": jct,
            "parameters_finite": bool(finite),
        },
    }
    if trace:
        result["layers"] = layers
        result["untraced"] = {"rtt_ms": phases[False]["ms_per_action"],
                              "throughput_per_s": phases[False]["throughput_per_s"]}
    return result


# -------------------------------------------------------------------- output
PER_LAYER = (
    ("client.encode_ms", "ms"), ("client.frame_kb", "kB"), ("client.sim_step_ms", "ms"),
    ("client.rtt_ms", "ms"), ("client.think_ms", "ms"), ("littles_law.sessions", "count"),
    ("router.json_ms", "ms"), ("server.decode_ms", "ms"), ("server.reply_ms", "ms"),
    ("session.reconcile_ms", "ms"), ("server.queue_wait_ms", "ms"),
    ("batcher.decide_ms", "ms"), ("batcher.batch_size_mean", "count"),
    ("batcher.reported_ms", "ms"),
    ("features.build_ms", "ms"), ("features.delta_ratio", "ratio"),
    ("gnn.forward_ms", "ms"), ("policy.logits_ms", "ms"), ("agent.sample_ms", "ms"),
    ("simulator.step_ms", "ms"),
    ("parallel.collect_s", "s"), ("reinforce.update_s", "s"), ("autograd.adam_step_ms", "ms"),
    ("shard.decision_latency_ms", "ms"), ("shard.stage_features_ms", "ms"),
    ("shard.stage_propagation_ms", "ms"), ("shard.stage_policy_ms", "ms"),
    ("shard.stage_sampling_ms", "ms"), ("shard.batch_ema_size", "count"),
    ("shard.graph_full_refreshes", "count"),
    ("wire.residual_ms", "ms"),
    ("trace.overhead_p50_ms", "ms"), ("trace.overhead_throughput_pct", "%"),
)
END_TO_END = (
    ("latency_p50_ms", "ms"), ("throughput_per_s", "1/s"),
    ("ok_pct", "%"), ("avg_jct_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
)
WORKLOADS = ("serve-fleet", "serve-large", "act-inproc", "train")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    if workload in SERVE:
        result = serve(workload, seed, seconds, trace)
    elif workload == "act-inproc":
        result = act_inproc(seed, seconds, trace)
    else:
        result = train(seed, seconds, trace)
    failed = sum(result["failures"].values())
    attempted = result["attempted"]
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance(seed),
        "failures_by_code": dict(result["failures"]),
        "tie_breaks": result["tie_breaks"],
        "latency_tail": tail(result["latencies_ms"], workload),
        "setup_samples_s": result["setup_s"],
        "detail": result["detail"],
    }
    if trace:
        values = dict(result["layers"])
        untraced = result["untraced"]
        values["trace.overhead_p50_ms"] = (percentile(result["latencies_ms"], 50)
                                           - percentile(untraced["rtt_ms"], 50))
        values["trace.overhead_throughput_pct"] = 100.0 * (
            1.0 - result["throughput_per_s"] / untraced["throughput_per_s"])
        if workload in SERVE:
            # The measured layers must fit inside the client's round trip.
            record["layers_add_up"] = values["wire.residual_ms"] >= 0.0
        names = PER_LAYER
    else:
        values = {
            "latency_p50_ms": percentile(result["latencies_ms"], 50),
            "throughput_per_s": result["throughput_per_s"],
            "ok_pct": 100.0 * (attempted - failed) / max(attempted, 1),
            "avg_jct_s": result["avg_jct_s"],
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        names = END_TO_END
    failures = result["failures"]
    correct = attempted >= 1 and not failures.get(WRONG_ACTION) and not failures.get("non_finite")
    return {
        "record": record,
        "result": {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                        for name, unit in names},
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        # One process per workload and mode, so peak RSS stays per workload.
        for workload in WORKLOADS:
            for trace in (0, 1):
                completed = subprocess.run(
                    [sys.executable, __file__, "--workload", workload, "--seed",
                     str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
                lines = completed.stdout.strip().splitlines()
                print(json.dumps({"workload": workload, "trace": trace,
                                  "record": json.loads(lines[-2])["record"],
                                  "result": json.loads(lines[-1])}), flush=True)
        return 0
    output = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": output["record"]}))
    print(json.dumps(output["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
