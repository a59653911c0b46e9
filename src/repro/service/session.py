"""Server-side cluster sessions: shadow job DAGs + per-session policy state.

A *session* is one served cluster.  The server never touches the client's
simulator (or real cluster); instead each session keeps **shadow**
:class:`~repro.simulator.jobdag.JobDAG` objects reconstructed from the
client's ``decide`` snapshots.  Reconciliation is incremental and
identity-preserving:

* a job id seen for the first time builds a fresh shadow DAG from the
  snapshot's full entry (nodes, edges, durations) and records the
  structure digest the server computes for it;
* a known job id only refreshes the runtime counters *in place* on the
  existing shadow objects — from a full entry whose digest matches, or from
  protocol-4 ``counters`` rows; a full entry with another digest rebuilds
  the shadow (the client recycled the id);
* job ids absent from a snapshot are dropped (the job finished client-side).

Because unchanged jobs keep their object identity across requests, the
session's own :class:`~repro.core.features.GraphCache` gets structure hits on
every request between job arrivals/completions — the serving hot path reuses
exactly the incremental machinery the training hot path runs on.  Each
session also owns its action rng stream (seeded by the client), which is what
makes a session's decision sequence reproducible — and independent of which
other sessions happened to share its inference batches.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Optional

import numpy as np

from ..core.features import GraphCache
from ..schedulers.base import Scheduler
from ..simulator.environment import Action, Observation
from ..simulator.executor import default_executor_class
from ..simulator.jobdag import JobDAG, Node
from ..simulator.metrics import latency_histogram
from .protocol import ProtocolError, structure_digest

__all__ = ["SessionState"]

# Per-session latency samples kept for the stats report; decisions beyond
# this window age out (the counters never do).
_LATENCY_WINDOW = 10_000


class SessionState:
    """Everything the server holds for one cluster session."""

    def __init__(
        self,
        session_id: str,
        num_executors: int,
        seed: int = 0,
        fallback: Optional[Scheduler] = None,
    ):
        if num_executors <= 0:
            raise ValueError("a session needs a positive executor count")
        self.session_id = session_id
        self.num_executors = int(num_executors)
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.graph_cache = GraphCache()
        self.fallback = fallback
        # job id (client-side) -> shadow JobDAG, plus the reverse mapping used
        # to translate chosen shadow nodes back into wire ids.  The per-job
        # node_id -> Node maps are built once at shadow construction: the
        # shadow objects are identity-stable, and per-decide rebuilds would
        # sit on the serving hot path.
        self._shadow_jobs: dict[int, JobDAG] = {}
        self._shadow_nodes: dict[int, dict[int, Node]] = {}
        # job id -> structure digest of its shadow, computed server-side; for
        # shadows built from an unstamped (protocol-3) entry also the parsed
        # static fields, which later unstamped entries compare against
        # first: cheaper than a digest.
        self._digests: dict[int, str] = {}
        self._structures: dict[int, tuple[list, list]] = {}
        self._client_job_id: dict[int, int] = {}
        # Accounting.
        self.num_decisions = 0
        self.num_policy_decisions = 0
        self.num_fallback_decisions = 0
        self.latencies: deque = deque(maxlen=_LATENCY_WINDOW)
        # Newest policy version that answered this session (stamped by the
        # broker); versions are globally monotonic, so per-session they can
        # only ever increase across a hot-swap or rollback.
        self.last_policy_version: Optional[int] = None

    # ------------------------------------------------------------ reconciling
    @staticmethod
    def _entry_structure(payload: dict) -> tuple[list, list]:
        """A full entry's static fields: ``(node_id, num_tasks, duration)``s, edges."""
        nodes = [
            (int(spec["node_id"]), int(spec["num_tasks"]), float(spec["task_duration"]))
            for spec in payload["nodes"]
        ]
        return nodes, [(int(src), int(dst)) for src, dst in payload["edges"]]

    @staticmethod
    def _build_shadow_job(payload: dict, nodes: list, edges: list) -> JobDAG:
        return JobDAG(
            [
                Node(node_id=node_id, num_tasks=num_tasks, task_duration=duration)
                for node_id, num_tasks, duration in nodes
            ],
            edges=edges,
            name=str(payload.get("name", "")),
            arrival_time=float(payload.get("arrival_time", 0.0)),
        )

    @staticmethod
    def _set_counters(node: Node, finished: int, running: int, next_index: int) -> None:
        # Log a feature touch only when a counter the feature matrix reads
        # actually changed, so the session's GraphCache delta path refreshes
        # exactly the rows this snapshot moved.  (next_task_index feeds no
        # feature column.)
        if (
            finished != node.num_finished_tasks or running != node.num_running_tasks
        ) and node.job is not None:
            node.job.log_feature_touch(node)
        node.num_finished_tasks = finished
        node.num_running_tasks = running
        node.next_task_index = next_index

    @staticmethod
    def _lookup(nodes_by_id: dict, job_id: int, node_id: int) -> Node:
        node = nodes_by_id.get(node_id)
        if node is None:
            raise ProtocolError(f"job {job_id} has no node {node_id}")
        return node

    def observation_from_snapshot(self, payload: dict) -> Observation:
        """Reconcile the shadow state with a ``decide`` snapshot.

        Full snapshots and protocol-4 deltas take the same path (see
        :mod:`repro.service.protocol`).  The whole frame is validated before
        any shadow state changes: a :class:`ProtocolError` (``code`` set to
        ``resync_required`` for a job this session does not hold) leaves the
        session exactly as it was.

        Returns an :class:`Observation` over the shadow DAGs, in the
        snapshot's job order, suitable for ``DecimaAgent.act`` /
        ``act_batch`` and for the fallback heuristics alike.
        """
        # --- validate: resolve every job and counter update, change nothing
        entries: dict[int, dict] = {}
        for entry in payload["jobs"]:
            client_id = int(entry["job_id"])
            if client_id in entries:
                raise ProtocolError(f"job {client_id} appears twice in one snapshot")
            entries[client_id] = entry
        job_ids = payload.get("job_ids")
        order = list(entries) if job_ids is None else [int(job_id) for job_id in job_ids]
        live = set(order)
        if len(live) != len(order):
            raise ProtocolError("a job appears twice in one snapshot")
        if not entries.keys() <= live:
            raise ProtocolError("a full job entry is missing from job_ids")
        # client id -> (shadow, node map, (digest, structure) of a newly built
        # shadow or None)
        resolved: dict[int, tuple] = {}
        updates: list[tuple] = []
        for client_id in order:
            shadow = self._shadow_jobs.get(client_id)
            entry = entries.get(client_id)
            if entry is None:
                if shadow is None:
                    raise ProtocolError(
                        f"delta names job {client_id}, which this session does not hold",
                        code="resync_required",
                    )
                resolved[client_id] = (shadow, self._shadow_nodes[client_id], None)
                continue
            # Keep the shadow when the entry's digest equals the one computed
            # at build time; an unstamped (protocol-3) entry that repeats the
            # parsed structure verbatim needs no digest at all.
            stamped = entry.get("digest")
            structure = digest = None
            if stamped is None:
                structure = self._entry_structure(entry)
                if shadow is not None and structure == self._structures.get(client_id):
                    digest = self._digests[client_id]
                else:
                    digest = structure_digest(*structure)
            if shadow is not None and (digest or stamped) == self._digests[client_id]:
                resolved[client_id] = (shadow, self._shadow_nodes[client_id], None)
            else:
                # New to the session, or the client recycled this job id for
                # a structurally different job: build a fresh shadow, with
                # the digest computed here.
                if structure is None:
                    structure = self._entry_structure(entry)
                    digest = structure_digest(*structure)
                    if digest != stamped:
                        raise ProtocolError(
                            f"job {client_id} digest {stamped} does not match its structure"
                        )
                shadow = self._build_shadow_job(entry, *structure)
                resolved[client_id] = (
                    shadow,
                    {node.node_id: node for node in shadow.nodes},
                    (digest, structure if stamped is None else None),
                )
            nodes_by_id = resolved[client_id][1]
            for spec in entry["nodes"]:
                node = nodes_by_id.get(int(spec["node_id"]))
                if node is None:
                    raise ProtocolError(f"job {client_id} has no node {spec['node_id']}")
                updates.append((
                    node,
                    int(spec.get("num_finished_tasks", 0)),
                    int(spec.get("num_running_tasks", 0)),
                    int(spec.get("next_task_index", 0)),
                ))
        for job_id, node_id, finished, running, next_index in payload.get("counters", ()):
            job_id = int(job_id)
            if job_id not in resolved:
                raise ProtocolError(f"counter row names job {job_id}, which is not live")
            updates.append((
                self._lookup(resolved[job_id][1], job_id, int(node_id)),
                int(finished),
                int(running),
                int(next_index),
            ))
        schedulable: list[Node] = []
        for job_id, node_id in payload.get("schedulable", []):
            job = resolved.get(int(job_id))
            if job is None:
                raise ProtocolError(f"schedulable entry names unknown job {job_id}")
            schedulable.append(self._lookup(job[1], int(job_id), int(node_id)))
        source_id = payload.get("source_job")
        source = resolved.get(int(source_id)) if source_id is not None else None
        num_free = int(payload["num_free_executors"])
        wall_time = float(payload.get("wall_time", 0.0))
        total_executors = int(payload.get("total_executors", self.num_executors))
        num_jobs_in_system = int(payload.get("num_jobs_in_system", len(order)))

        # --- apply: nothing below can fail
        for stale_id in [cid for cid in self._shadow_jobs if cid not in resolved]:
            self._drop_shadow(stale_id)
        for client_id, (shadow, nodes_by_id, built) in resolved.items():
            if built is not None:
                self._drop_shadow(client_id)
                self._shadow_jobs[client_id] = shadow
                self._shadow_nodes[client_id] = nodes_by_id
                self._digests[client_id], structure = built
                if structure is not None:
                    self._structures[client_id] = structure
                self._client_job_id[id(shadow)] = client_id
        for update in updates:
            self._set_counters(*update)

        cls = default_executor_class()
        return Observation(
            wall_time=wall_time,
            job_dags=[resolved[client_id][0] for client_id in order],
            schedulable_nodes=schedulable,
            num_free_executors=num_free,
            free_executors_by_class=Counter({cls: num_free} if num_free else {}),
            source_job=source[0] if source is not None else None,
            total_executors=total_executors,
            # The serving protocol models homogeneous clusters: no executor
            # classes on the wire, so the agent's multi-resource head (and the
            # action's executor_class) stay disabled end to end.
            executor_classes=[],
            num_jobs_in_system=num_jobs_in_system,
        )

    def _drop_shadow(self, client_id: int) -> None:
        shadow = self._shadow_jobs.pop(client_id, None)
        if shadow is not None:
            self._shadow_nodes.pop(client_id, None)
            self._digests.pop(client_id, None)
            self._structures.pop(client_id, None)
            self._client_job_id.pop(id(shadow), None)

    # -------------------------------------------------------------- encoding
    def encode_action(self, action: Optional[Action]) -> dict:
        """Translate a chosen shadow action back into wire job/node ids."""
        if action is None or action.node is None:
            return {"noop": True}
        node = action.node
        job = node.job
        client_id = self._client_job_id.get(id(job))
        if client_id is None:
            raise ProtocolError("action refers to a job this session does not track")
        return {
            "noop": False,
            "job_id": int(client_id),
            "node_id": int(node.node_id),
            "parallelism_limit": int(action.parallelism_limit),
        }

    def resolve_node(self, job_id: int, node_id: int) -> Node:
        """Shadow node for a wire ``(job_id, node_id)`` pair.

        The online-learning trainer replays recorded snapshots through a
        fresh session and uses this to turn each logged action's wire ids
        back into the replayed shadow objects the agent scores against.
        """
        nodes_by_id = self._shadow_nodes.get(int(job_id))
        if nodes_by_id is None:
            raise KeyError(f"session does not track job {job_id}")
        node = nodes_by_id.get(int(node_id))
        if node is None:
            raise KeyError(f"job {job_id} has no node {node_id}")
        return node

    # ------------------------------------------------------------ accounting
    def record_decision(self, source: str, latency_seconds: float) -> None:
        self.num_decisions += 1
        if source == "fallback":
            self.num_fallback_decisions += 1
        else:
            self.num_policy_decisions += 1
        self.latencies.append(float(latency_seconds))

    @property
    def num_jobs(self) -> int:
        return len(self._shadow_jobs)

    def stats(self) -> dict:
        return {
            "session_id": self.session_id,
            "num_executors": self.num_executors,
            "num_jobs": self.num_jobs,
            "num_decisions": self.num_decisions,
            "num_policy_decisions": self.num_policy_decisions,
            "num_fallback_decisions": self.num_fallback_decisions,
            "last_policy_version": self.last_policy_version,
            "graph_rebuilds": self.graph_cache.num_rebuilds,
            "graph_delta_refreshes": self.graph_cache.num_delta_refreshes,
            "graph_full_refreshes": self.graph_cache.num_full_refreshes,
            # Canonical latency schema: milliseconds under "latency_ms", the
            # same key and unit the broker and loadgen report, so every layer
            # of the stack reads one schema (the metrics registry's
            # decision_latency_ms series is the aggregated form).
            "latency_ms": latency_histogram(
                [seconds * 1000.0 for seconds in self.latencies]
            ),
        }
