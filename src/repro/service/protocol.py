"""Newline-delimited-JSON wire protocol of the policy-serving subsystem.

One JSON object per line, UTF-8, over a plain TCP stream.  The client speaks
first; every request gets exactly one reply, so a session's connection is a
simple synchronous request/response channel (concurrency comes from *many*
sessions, each on its own connection — which is precisely what the server's
request broker batches across).

Request types:

``hello``
    Open a session: ``{"type": "hello", "session_id", "num_executors",
    "seed", "fallback"}``.  Since protocol 2 the client may add a
    ``"protocol"`` field naming the newest protocol it speaks; the server
    negotiates ``min(client, server)`` and echoes the result as
    ``"protocol"`` in the ``welcome`` reply (a hello without the field is a
    protocol-1 client and still works).  Reply: ``welcome`` (echoes the
    session id, describes the hosted policy, and since protocol 2 reports
    the serving ``policy_version``).
``decide``
    Ask for one scheduling decision: ``{"type": "decide", "session_id",
    "request_id", "observation": {...}}`` where the observation payload is
    produced by :func:`encode_observation`.  Reply: ``action`` with the chosen
    ``(job_id, node_id, parallelism_limit)``, the decision ``source``
    (``"policy"`` or ``"fallback"``), the measured ``latency_ms`` and — since
    protocol 2 — the monotonic ``policy_version`` that answered it (the
    online-learning audit trail; old clients ignore the extra key).  Since
    protocol 3 a decide may carry an optional ``"trace": {"trace_id",
    "span_id"}`` context: the server (and every hop in between, see the
    router) then files its share of the decision as spans under that trace,
    queryable via ``trace``.  Untraced decides are byte-identical to v2.
    Since protocol 4 the observation may be a delta against what the
    connection already sent (see "Protocol 4" below).
``stats``
    Reply: per-session decision counts, the latency histogram
    (p50/p95/p99, :func:`repro.simulator.metrics.latency_histogram`) and the
    SLO circuit-breaker state.
``metrics``
    (Protocol 3.)  One metrics-registry snapshot:
    ``{"type": "metrics", "format": "json" | "prometheus"}``.  Reply carries
    either the JSON snapshot (``"metrics"``) or the Prometheus text
    exposition (``"body"``) — see :mod:`repro.obs.registry`.
``trace``
    (Protocol 3.)  ``{"type": "trace", "trace_id"}`` returns every span this
    process stored for the trace id.
``trace_report``
    (Protocol 3.)  ``{"type": "trace_report", "spans": [...]}`` files
    client-side finished spans (e.g. ``client.decide``) into the server's
    span store, completing the end-to-end chain.  Reply: ``trace_reported``.
``flight``
    (Protocol 3.)  Dump the flight recorder on demand:
    ``{"type": "flight", "reason"?, "dump"?}``.  Reply carries the ring's
    events plus recorder stats; ``"dump": false`` peeks without counting a
    dump.
``bye``
    Close the session; the server replies ``goodbye`` and drops it.

Errors are reported as ``{"type": "error", "message", ...}`` replies; the
connection stays usable unless framing itself broke.  Errors a client can act
on additionally carry a machine-readable ``code`` (every coded error frame is
counted by code in the sender's metrics registry):

``admission_rejected``
    The router refused a new session because the fleet is at its admission
    limit; retry later or against another fleet.
``shard_failed``
    The shard hosting this session died mid-session; the session is gone and
    the client must re-``hello`` (the router routes new sessions around the
    dead shard).
``no_healthy_shards``
    Every shard is unhealthy or draining; the fleet cannot admit sessions.
``frame_too_large``
    A frame longer than :data:`MAX_FRAME_BYTES`.  The reader skips the rest
    of that line and answers with this error, so the connection stays usable
    (a protocol-3 client's frame at 200 TPC-H jobs is a ~360 kB full
    snapshot; the bound leaves room for 500-job sessions of bigger DAGs).  Every reader
    applies it: both server transports, both router listeners, the router's
    shard relays and probes, and the client.
``resync_required``
    (Protocol 4.)  A delta snapshot named a job the session does not hold.
    Nothing was applied; the client resends one full snapshot.

Protocol 4: delta snapshots
---------------------------
A ``decide`` observation is one format, whatever the protocol version:
the scalars (``wall_time``, ``num_free_executors``, ``total_executors``,
``num_jobs_in_system``, ``source_job``), the ``schedulable`` list of
``[job_id, node_id]`` pairs, and

``jobs``
    *Full entries*: ``{"job_id", "name", "arrival_time", "edges", "nodes"}``
    with every node's static fields (``node_id``, ``num_tasks``,
    ``task_duration``) and counters (``num_finished_tasks``,
    ``num_running_tasks``, ``next_task_index``; an absent counter is 0),
    optionally stamped with a ``"digest"`` (:func:`structure_digest` of the
    static fields);
``job_ids``
    (optional) the ordered ids of every live job; absent, the job list is
    the ``jobs`` entries in order;
``counters``
    (optional) ``[job_id, node_id, finished, running, next_task_index]``
    rows, applied after the full entries.

A protocol-3 snapshot is the special case with every job sent in full and
no ``job_ids``.  A protocol-4 client keeps a :class:`WireState` per
connection (cleared on every ``hello``) and sends a full entry only for a
job that is new to the connection, or whose object or digest changed — its
structure and digest, with the nonzero counters as rows; for every other
job it sends only the counter rows that moved since its last frame.  At 200
jobs that shrinks the first frame from ~360 kB to ~210 kB and a
steady-state frame to ~5 kB, most of it the ``schedulable`` list.

The server keeps one shadow per job and the digest it computed itself when
it built that shadow.  A full entry whose digest (the stamped one, or for an
unstamped entry the server-computed one) equals the shadow's keeps the
shadow and refreshes its counters; any other digest rebuilds it (a client
that recycles a job id for a different job).  The server validates the whole
frame before it changes any shadow state, so a rejected frame leaves the
session exactly as it was; a job id in ``job_ids`` that is neither held nor
sent in full is answered with ``resync_required``.

The router's **control plane** (a second listener, same framing) speaks
``health`` (per-shard liveness probe), ``stats`` (router counters + per-shard
broker/SLO accounting), ``reconfigure`` (live admission-limit changes, shard
drain/undrain) and — protocol 3 — ``metrics`` (router + every shard's
registry, mergeable with per-shard labels), ``trace`` (router + shard spans
of one trace id, the fleet-wide reconstruction of a single decision) and
``flight`` (router + per-shard flight-recorder dumps) — see
:mod:`repro.service.router`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import Iterable, Optional

from ..simulator.environment import Observation
from ..simulator.jobdag import JobDAG

__all__ = [
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WireState",
    "decode_frame",
    "encode_message",
    "encode_observation",
    "read_frame",
    "read_message",
    "structure_digest",
    "write_message",
]

# Version 2 added hello protocol negotiation and policy_version on welcome
# and action replies.  Version 3 added the observability surface: the
# optional "trace" context on decide frames and the metrics / trace /
# trace_report / flight request types.  Version 4 added delta snapshots
# (job_ids + counters rows, digest-stamped full entries, resync_required).
# All additive: a v1 client's hello (no "protocol" field) negotiates down to
# 1, extra reply keys are ignorable, untraced decides are unchanged, and a
# full snapshot is still a valid v4 observation.
PROTOCOL_VERSION = 4

# Longest frame any reader accepts, newline included.  A constant, not a
# knob: the format, not the deployment, decides how large a frame can be.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_FRAME_TOO_LARGE = f"frame longer than {MAX_FRAME_BYTES} bytes"


class ProtocolError(RuntimeError):
    """A malformed frame or an out-of-protocol message.

    ``code`` carries the machine-readable error code of coded error frames
    (``admission_rejected``, ``shard_failed``, ``no_healthy_shards``,
    ``frame_too_large``, ``resync_required``); plain protocol violations
    leave it ``None``.
    """

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        self.code = code


def encode_message(payload: dict) -> bytes:
    """One wire frame: compact JSON + newline (keys sorted for stable logs)."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8") + b"\n"


def write_message(stream, payload: dict) -> None:
    """Write one frame and flush (each frame is a complete request/reply)."""
    stream.write(encode_message(payload))
    stream.flush()


def decode_frame(line: bytes) -> dict:
    """Decode one received wire frame (shared by the sync and async readers)."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed frame: {error}") from error
    if not isinstance(payload, dict) or "type" not in payload:
        raise ProtocolError("every frame must be a JSON object with a 'type'")
    return payload


def read_message(stream) -> Optional[dict]:
    """Read one frame; ``None`` on a cleanly closed stream.

    A frame over :data:`MAX_FRAME_BYTES` is skipped to its newline and
    raises a ``frame_too_large`` :class:`ProtocolError`.
    """
    line = stream.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        while line and not line.endswith(b"\n"):
            line = stream.readline(MAX_FRAME_BYTES)
        raise ProtocolError(_FRAME_TOO_LARGE, code="frame_too_large")
    return decode_frame(line)


async def read_frame(reader: asyncio.StreamReader) -> bytes:
    """Read one raw frame from an asyncio stream; ``b""`` at end of stream.

    The stream must be opened with ``limit=MAX_FRAME_BYTES``.  A longer
    frame is skipped to its newline and raises a ``frame_too_large``
    :class:`ProtocolError`.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        return error.partial
    except asyncio.LimitOverrunError as error:
        overrun = error
    # The oversized bytes stay buffered: drop them and keep reading until
    # the frame's newline.
    while True:
        try:
            await reader.readexactly(overrun.consumed)
            await reader.readuntil(b"\n")
            break
        except asyncio.LimitOverrunError as error:
            overrun = error
        except asyncio.IncompleteReadError:
            return b""
    raise ProtocolError(_FRAME_TOO_LARGE, code="frame_too_large")


# ------------------------------------------------------------- observations
def structure_digest(
    nodes: Iterable[tuple[int, int, float]], edges: Iterable[tuple[int, int]]
) -> str:
    """Digest of a job's static structure, independent of node/edge order.

    ``nodes`` yields ``(node_id, num_tasks, task_duration)``; ``edges``
    yields ``(src, dst)``.  Client and server compute it from the same
    fields, so equal digests mean the shadow DAG can be kept.
    """
    text = ";".join(
        f"{node_id},{num_tasks},{task_duration!r}"
        for node_id, num_tasks, task_duration in sorted(nodes)
    )
    text += "|" + ";".join(f"{src},{dst}" for src, dst in sorted(edges))
    return hashlib.blake2b(text.encode("ascii"), digest_size=8).hexdigest()


def _job_statics(job: JobDAG) -> tuple[list, list]:
    nodes = [
        (int(node.node_id), int(node.num_tasks), float(node.task_duration))
        for node in job.nodes
    ]
    return nodes, [(int(src), int(dst)) for src, dst in job.edges]


def _job_counters(job: JobDAG) -> list:
    # Compared on every frame for every node: no per-field int() here, the
    # writers below convert what actually goes on the wire.
    return [
        (node.node_id, node.num_finished_tasks, node.num_running_tasks, node.next_task_index)
        for node in job.nodes
    ]


def _full_entry(job: JobDAG, with_counters: bool) -> dict:
    specs = []
    for node in job.nodes:
        spec = {
            "node_id": int(node.node_id),
            "num_tasks": int(node.num_tasks),
            "task_duration": float(node.task_duration),
        }
        if with_counters:
            spec["num_finished_tasks"] = int(node.num_finished_tasks)
            spec["num_running_tasks"] = int(node.num_running_tasks)
            spec["next_task_index"] = int(node.next_task_index)
        specs.append(spec)
    return {
        "job_id": int(job.job_id),
        "name": job.name,
        "arrival_time": float(job.arrival_time),
        "edges": [[int(src), int(dst)] for src, dst in job.edges],
        "nodes": specs,
    }


class _SentJob:
    __slots__ = ("job", "digest", "counters")

    def __init__(self, job: JobDAG, digest: str, counters: list):
        self.job = job
        self.digest = digest
        self.counters = counters


class WireState:
    """What one connection has told the server about each live job.

    Per job id: the job object last sent, its structure digest and the
    ``(node_id, finished, running, next_task_index)`` counters last sent.
    :func:`encode_observation` reads and advances it; a client clears it on
    every ``hello`` and after any failed ``decide`` (the server may not have
    applied the frame), so the next frame resends every job in full.
    """

    def __init__(self):
        self.jobs: dict[int, _SentJob] = {}

    def reset(self) -> None:
        self.jobs = {}


def encode_observation(
    observation: Observation, wire: Optional[WireState] = None
) -> dict:
    """Serialize a scheduling observation into the ``decide`` payload.

    Without ``wire`` the snapshot is complete: every job as a full entry
    (static DAG structure and task counters), so a fresh server session can
    rebuild shadow DAGs from it alone.  With a connection's
    :class:`WireState` it is a protocol-4 delta against what that connection
    already sent: full, digest-stamped entries only for jobs new to the
    connection (or whose object or digest changed), ``counters`` rows only
    for nodes whose counters moved, and ``job_ids`` naming every live job.
    """
    payload = {
        "version": PROTOCOL_VERSION,
        "wall_time": float(observation.wall_time),
        "num_free_executors": int(observation.num_free_executors),
        "total_executors": int(observation.total_executors),
        "num_jobs_in_system": int(observation.num_jobs_in_system),
        "source_job": (
            int(observation.source_job.job_id)
            if observation.source_job is not None
            else None
        ),
        "schedulable": [
            [int(node.job.job_id), int(node.node_id)]
            for node in observation.schedulable_nodes
        ],
    }
    if wire is None:
        payload["jobs"] = [_full_entry(job, True) for job in observation.job_dags]
        return payload
    entries, rows, sent = [], [], {}
    for job in observation.job_dags:
        job_id = int(job.job_id)
        counters = _job_counters(job)
        previous = wire.jobs.get(job_id)
        digest = None
        if previous is not None and previous.job is not job:
            # A new object under a known id: the server's shadow still
            # fits if the structure is the same.
            digest = structure_digest(*_job_statics(job))
            if digest != previous.digest:
                previous = None
        if previous is None:
            # Structure only; counters travel as rows against all-zero.
            entry = _full_entry(job, False)
            entry["digest"] = digest = digest or structure_digest(*_job_statics(job))
            entries.append(entry)
            before = {(node.node_id, 0, 0, 0) for node in job.nodes}
        else:
            digest = previous.digest
            before = None if counters == previous.counters else set(previous.counters)
        if before is not None:
            rows.extend([job_id, *map(int, row)] for row in counters if row not in before)
        sent[job_id] = _SentJob(job, digest, counters)
    wire.jobs = sent
    payload["job_ids"] = list(sent)
    payload["jobs"] = entries
    payload["counters"] = rows
    return payload
