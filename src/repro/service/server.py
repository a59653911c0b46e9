"""The policy server: a long-lived TCP service hosting one Decima agent.

Two transports share one :class:`ServerCore` (sessions, broker, adaptive
batch window, protocol handlers):

* :class:`PolicyServer` — the original threaded transport: one **accept**
  thread, one **connection** thread per client, one **dispatch** thread
  coalescing pending requests into broker batches;
* :class:`~repro.service.aioserver.AsyncPolicyServer` — the asyncio
  transport: a single event loop multiplexes every connection plus the
  dispatch coroutine, so a shard process serves hundreds of sessions on two
  threads (the loop and the caller) instead of one thread per connection.

Both answer ``decide`` requests strictly sequentially per connection, so a
session's shadow state is never touched concurrently; and because every
session's decisions depend only on its own rng stream, graph cache and
observations, the batch composition the dispatcher happens to form has no
effect on any session's action sequence.  The coalescing window adapts to
offered load (:class:`~repro.service.batcher.AdaptiveBatchWindow`): near
zero with a lone session, a few milliseconds when dozens of sessions are
streaming requests.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import Optional

from ..core.agent import DecimaAgent, StageTimings
from ..obs import FlightRecorder, MetricsRegistry, SpanStore, get_logger, log_event
from ..schedulers import make_scheduler, scheduler_names
from ..simulator.environment import SimulatorConfig
from .batcher import (
    AdaptiveBatchWindow,
    CircuitBreaker,
    DecisionRequest,
    DecisionResult,
    RequestBroker,
)
from .protocol import PROTOCOL_VERSION, ProtocolError, read_message, write_message
from .session import SessionState

__all__ = ["PolicyServer", "ServerCore"]

_QUEUE_SENTINEL = None

_logger = get_logger("service.server")


def _gauge_family(help: str, samples: list) -> dict:
    return {"type": "gauge", "help": help, "samples": samples}


def _counter_family(help: str, value: float) -> dict:
    return {
        "type": "counter",
        "help": help,
        "samples": [{"labels": {}, "value": float(value)}],
    }


def _gauge_value(help: str, value: float) -> dict:
    return _gauge_family(help, [{"labels": {}, "value": float(value)}])


class _PendingRequest:
    """A decide request parked on the dispatch queue until it is answered."""

    __slots__ = ("request", "result", "error", "done")

    def __init__(self, request: DecisionRequest):
        self.request = request
        self.result: Optional[DecisionResult] = None
        self.error: Optional[str] = None
        self.done = threading.Event()


class ServerCore:
    """Transport-independent half of a policy server.

    Owns the request broker, the session registry and the protocol-level
    handlers (open/close sessions, reconcile ``decide`` snapshots, build
    reply payloads).  Transports add sockets and a dispatch loop on top; the
    dispatch loop asks :meth:`window_seconds` how long to hold a batch open
    and reports each dispatched batch back through :meth:`observe_batch`.
    """

    def __init__(
        self,
        agent: DecimaAgent,
        host: str = "127.0.0.1",
        port: int = 0,
        fallback: str = "fifo",
        slo_ms: Optional[float] = None,
        breach_threshold: int = 3,
        cooldown_decisions: int = 20,
        batched: bool = True,
        greedy: bool = True,
        max_batch_size: int = 64,
        batch_window_ms: float = 2.0,
        adaptive_batch_window: bool = True,
        service_name: str = "server",
        flight_dir: Optional[str] = None,
        flight_capacity: int = 512,
        trace_capacity: int = 256,
    ):
        if fallback not in scheduler_names():
            known = ", ".join(scheduler_names())
            raise KeyError(f"unknown fallback scheduler {fallback!r}; known: {known}")
        self.agent = agent
        self.host = host
        self.port = int(port)
        self.default_fallback = fallback
        self.max_batch_size = int(max_batch_size)
        self.batch_window_s = float(batch_window_ms) / 1000.0
        self.adaptive_window: Optional[AdaptiveBatchWindow] = None
        if adaptive_batch_window:
            self.adaptive_window = AdaptiveBatchWindow(max_ms=float(batch_window_ms))
        breaker = None
        if slo_ms is not None:
            breaker = CircuitBreaker(
                slo_seconds=float(slo_ms) / 1000.0,
                breach_threshold=breach_threshold,
                cooldown_decisions=cooldown_decisions,
            )
        self.broker = RequestBroker(agent, batched=batched, greedy=greedy, breaker=breaker)
        self.sessions: dict[str, SessionState] = {}
        self._sessions_lock = threading.Lock()
        self._session_counter = 0
        # --- observability (see docs/OBSERVABILITY.md) ---------------------
        # One registry, span store and flight recorder per server/shard.
        # Everything here reads existing state lazily (collectors) or sits
        # behind None checks on the hot path, so an unscraped, untraced
        # server does the same work it did before telemetry existed.
        self.service_name = str(service_name)
        self.metrics = MetricsRegistry()
        self.spans = SpanStore(max_traces=int(trace_capacity))
        self.flight = FlightRecorder(
            capacity=int(flight_capacity),
            service=self.service_name,
            dump_dir=flight_dir,
        )
        self.broker.flight = self.flight
        self.broker.latency_metric = self.metrics.histogram(
            "decision_latency_ms", "End-to-end broker decision latency"
        )
        self.error_frames = self.metrics.counter(
            "error_frames_total", "Coded error frames sent, by code", labels=("code",)
        )
        self.metrics.register_collector(self._collect_metrics)
        if breaker is not None:
            breaker.on_open = self._on_breaker_open

    # ------------------------------------------------------------ observability
    def _collect_metrics(self) -> dict:
        """Snapshot-time bridge from the legacy stat counters to the registry.

        This is what absorbs the old ad-hoc ``stats()`` schemas: the broker,
        breaker, window and :class:`StageTimings` keep their plain counters
        (zero per-decision registry cost) and this collector translates them
        into metric families only when someone scrapes.
        """
        broker = self.broker
        timings = self.agent.stage_timings.snapshot()
        fragment = {
            "policy_version": _gauge_value(
                "Monotonic id of the serving weights", broker.policy_version
            ),
            "sessions_open": _gauge_value(
                "Currently connected cluster sessions", self.num_live_sessions()
            ),
            "decisions_total": _counter_family(
                "Answered decisions (policy + fallback)", broker.num_decisions
            ),
            "fallback_decisions_total": _counter_family(
                "Decisions answered by the fallback heuristic",
                broker.num_fallback_decisions,
            ),
            "slo_breaches_total": _counter_family(
                "Decisions over the latency SLO", broker.num_slo_breaches
            ),
            "policy_swaps_total": _counter_family(
                "Hot-swapped policy installs applied", broker.num_policy_swaps
            ),
            "batches_total": _counter_family(
                "Dispatched decision batches", broker.num_batches
            ),
            "max_batch_size": _gauge_value(
                "Largest batch dispatched so far", broker.max_batch_size
            ),
            "graph_delta_refreshes_total": _counter_family(
                "GraphCache row-level delta refreshes", broker.graph_delta_refreshes
            ),
            "graph_full_refreshes_total": _counter_family(
                "GraphCache full feature refreshes", broker.graph_full_refreshes
            ),
            "graph_rebuilds_total": _counter_family(
                "GraphCache structure rebuilds", broker.graph_rebuilds
            ),
            "merged_structure_rebuilds_total": _counter_family(
                "Mega-graph merged-structure rebuilds",
                broker.merge_cache.num_rebuilds,
            ),
            "stage_steps_total": _counter_family(
                "act()/act_batch() calls timed by the stage clock",
                timings["num_steps"],
            ),
            "stage_mean_ms": _gauge_family(
                "Per-step mean wall time of each hot-path stage",
                [
                    {
                        "labels": {"stage": stage},
                        "value": timings["stages"][stage]["mean_ms"],
                    }
                    for stage in StageTimings.STAGES
                ],
            ),
            "flight_events_total": _counter_family(
                "Events appended to the flight recorder", self.flight.num_events
            ),
            "flight_dumps_total": _counter_family(
                "Flight-recorder dumps taken", self.flight.num_dumps
            ),
            "trace_spans_total": _counter_family(
                "Spans filed in the span store", self.spans.num_spans
            ),
        }
        if broker.breaker is not None:
            breaker = broker.breaker
            fragment["breaker_open"] = _gauge_value(
                "1 while the SLO circuit-breaker is open",
                1.0 if breaker.state == "open" else 0.0,
            )
            fragment["breaker_opens_total"] = _counter_family(
                "Circuit-breaker trips", breaker.num_opens
            )
        if self.adaptive_window is not None:
            window = self.adaptive_window
            fragment["batch_window_ms"] = _gauge_value(
                "Current adaptive coalescing window", window.seconds() * 1000.0
            )
            fragment["batch_ema_size"] = _gauge_value(
                "EMA of dispatched batch sizes", window.ema_batch_size
            )
        return fragment

    def _on_breaker_open(self, breaker: CircuitBreaker) -> None:
        """SLO trip: record it, dump the flight ring, log the event."""
        self.flight.record(
            "breaker_open",
            num_opens=breaker.num_opens,
            slo_ms=breaker.slo_seconds * 1000.0,
            policy_version=self.broker.policy_version,
        )
        self.flight.dump("slo_breaker_open")
        log_event(
            _logger,
            "breaker_open",
            service=self.service_name,
            num_opens=breaker.num_opens,
            slo_ms=breaker.slo_seconds * 1000.0,
        )

    def error_reply(self, error: ProtocolError) -> dict:
        """The error frame for ``error``; coded errors are counted by code."""
        reply = {"type": "error", "message": str(error)}
        if error.code is not None:
            reply["code"] = error.code
            self.error_frames.inc(code=error.code)
        return reply

    def metrics_payload(self, message: dict) -> dict:
        """Handle a ``metrics`` request (data plane and control plane alike)."""
        format_name = str(message.get("format", "json"))
        if format_name == "prometheus":
            return {
                "type": "metrics",
                "format": "prometheus",
                "body": self.metrics.prometheus(),
            }
        if format_name != "json":
            raise ProtocolError(f"unknown metrics format {format_name!r}")
        return {
            "type": "metrics",
            "format": "json",
            "service": self.service_name,
            "metrics": self.metrics.snapshot(),
        }

    def trace_payload(self, message: dict) -> dict:
        """Handle a ``trace`` request: every stored span of one trace id."""
        trace_id = message.get("trace_id")
        if not trace_id:
            raise ProtocolError("trace request needs a trace_id")
        spans = self.spans.get(str(trace_id))
        spans.sort(key=lambda span: span.get("start_time", 0.0))
        return {
            "type": "trace",
            "trace_id": str(trace_id),
            "service": self.service_name,
            "spans": spans,
        }

    def record_spans(self, message: dict) -> dict:
        """Handle a ``trace_report``: a client files its own finished spans.

        This is how the client half of a traced decision lands in the same
        store as the server half — the loadgen reports its ``client.decide``
        span here after each traced reply.
        """
        spans = message.get("spans", [])
        if not isinstance(spans, list):
            raise ProtocolError("trace_report spans must be a list")
        self.spans.extend(span for span in spans if isinstance(span, dict))
        return {"type": "trace_reported", "count": len(spans)}

    def flight_payload(self, message: dict) -> dict:
        """Handle a ``flight`` request: dump (default) or peek at the ring."""
        if message.get("dump", True):
            recorder = self.flight.dump(str(message.get("reason", "on_demand")))
        else:
            recorder = {
                "service": self.service_name,
                "events": self.flight.events(),
            }
        return {
            "type": "flight",
            "service": self.service_name,
            "recorder": recorder,
            "stats": self.flight.stats(),
        }

    def finish_request(
        self, request: DecisionRequest, result: DecisionResult
    ) -> None:
        """Close a traced request's ``server.decide`` span (no-op untraced)."""
        span = request.span
        if span is not None:
            span.set_tag("source", result.source)
            span.set_tag("policy_version", result.policy_version)
            span.finish()

    # ---------------------------------------------------------------- hot-swap
    def install_policy(self, state: dict, version: int) -> None:
        """Stage refreshed weights for an atomic hot-swap.

        Delegates to the broker: the swap is applied at the top of the next
        decision round on the dispatch thread/coroutine, so no in-flight
        forward ever sees mixed weights and no session is dropped.
        """
        self.broker.install(state, version)

    @property
    def policy_version(self) -> int:
        return self.broker.policy_version

    # ------------------------------------------------------------- batch window
    def window_seconds(self) -> float:
        """How long the dispatcher should hold the current batch open."""
        if self.adaptive_window is not None:
            return self.adaptive_window.seconds()
        return self.batch_window_s

    def observe_batch(self, batch_size: int) -> None:
        if self.adaptive_window is not None:
            self.adaptive_window.observe(batch_size)

    def num_live_sessions(self) -> int:
        with self._sessions_lock:
            return len(self.sessions)

    # ----------------------------------------------------------------- handlers
    def open_session(self, message: dict, existing: Optional[SessionState]):
        """Handle a ``hello``: register a session, return it + the welcome."""
        if existing is not None:
            # Allowing a re-hello would orphan the previous session in
            # self.sessions (its id blocked until restart); refuse instead.
            raise ProtocolError(
                f"session {existing.session_id!r} is already open on this connection"
            )
        with self._sessions_lock:
            self._session_counter += 1
            default_id = f"session-{self._session_counter}"
        session_id = str(message.get("session_id") or default_id)
        num_executors = int(message.get("num_executors", self.agent.total_executors))
        fallback_name = str(message.get("fallback", self.default_fallback))
        if fallback_name not in scheduler_names():
            raise ProtocolError(f"unknown fallback scheduler {fallback_name!r}")
        fallback = make_scheduler(
            fallback_name, SimulatorConfig(num_executors=num_executors)
        )
        session = SessionState(
            session_id=session_id,
            num_executors=num_executors,
            seed=int(message.get("seed", 0)),
            fallback=fallback,
        )
        with self._sessions_lock:
            if session_id in self.sessions:
                raise ProtocolError(f"session id {session_id!r} is already connected")
            self.sessions[session_id] = session
        self.flight.record(
            "session_open", session_id=session_id, num_executors=num_executors
        )
        log_event(
            _logger,
            "session_open",
            service=self.service_name,
            session_id=session_id,
            num_executors=num_executors,
            fallback=fallback_name,
        )
        # Version negotiation: a hello without "protocol" is a v1 client.
        client_protocol = int(message.get("protocol", 1))
        welcome = {
            "type": "welcome",
            "session_id": session_id,
            "scheduler": self.agent.name,
            "total_executors": self.agent.total_executors,
            "fallback": fallback_name,
            "batched": self.broker.batched,
            "greedy": self.broker.greedy,
            "protocol": min(client_protocol, PROTOCOL_VERSION),
            "policy_version": self.broker.policy_version,
        }
        return session, welcome

    def deregister_session(self, session: Optional[SessionState]) -> None:
        if session is None:
            return
        with self._sessions_lock:
            self.sessions.pop(session.session_id, None)
        # Drop the broker's merged-structure cache: it holds strong
        # references to the dead session's structures (and through
        # them its shadow DAGs) until the next multi-session batch.
        self.broker.merge_cache.reset()
        self.flight.record(
            "session_close",
            session_id=session.session_id,
            num_decisions=session.num_decisions,
        )
        log_event(
            _logger,
            "session_close",
            service=self.service_name,
            session_id=session.session_id,
            num_decisions=session.num_decisions,
            num_fallback_decisions=session.num_fallback_decisions,
        )

    def build_request(
        self, session: Optional[SessionState], message: dict
    ) -> DecisionRequest:
        if session is None:
            raise ProtocolError("decide before hello — open a session first")
        observation = session.observation_from_snapshot(message["observation"])
        request = DecisionRequest(
            session=session,
            observation=observation,
            request_id=message.get("request_id"),
        )
        # A traced decide carries {"trace": {"trace_id", "span_id"}} (v3
        # protocol, optional): open this hop's span under the caller's.  The
        # untraced hot path pays one dict lookup.
        trace = message.get("trace")
        if trace:
            request.span = self.spans.span(
                "server.decide",
                trace,
                service=self.service_name,
                tags={"session_id": session.session_id},
            )
        return request

    @staticmethod
    def action_reply(
        session: SessionState, message: dict, result: DecisionResult
    ) -> dict:
        reply = {
            "type": "action",
            "request_id": message.get("request_id"),
            "source": result.source,
            "latency_ms": result.latency_seconds * 1000.0,
            "policy_version": result.policy_version,
        }
        reply.update(session.encode_action(result.action))
        return reply

    def stats_payload(self, session: Optional[SessionState]) -> dict:
        payload = {
            "type": "stats",
            "broker": self.broker.stats(),
            "num_sessions": self.num_live_sessions(),
        }
        if self.adaptive_window is not None:
            payload["batch_window"] = self.adaptive_window.stats()
        if session is not None:
            payload["session"] = session.stats()
        return payload


class PolicyServer(ServerCore):
    """Serve scheduling decisions for many concurrent cluster sessions.

    The threaded transport: one accept thread, one connection thread per
    client, one dispatch thread.  (For hundreds of sessions per process use
    :class:`~repro.service.aioserver.AsyncPolicyServer`, which multiplexes
    the same :class:`ServerCore` on an event loop.)
    """

    def __init__(self, agent: DecimaAgent, **kwargs):
        super().__init__(agent, **kwargs)
        self._queue: "queue.Queue" = queue.Queue()
        self._requeue: list = []  # same-session requests deferred to the next batch
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        self._running = False

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` — resolves port 0 after :meth:`start`."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    def start(self) -> tuple:
        """Bind, listen and spin up the accept + dispatch threads."""
        if self._running:
            raise RuntimeError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        # Closing a socket does not reliably unblock accept() on every
        # platform; a short timeout lets the accept loop notice stop().
        listener.settimeout(0.2)
        self._listener = listener
        self._running = True
        for target, name in (
            (self._accept_loop, "policy-server-accept"),
            (self._dispatch_loop, "policy-server-dispatch"),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self) -> None:
        """Stop accepting, unblock the dispatcher and close every connection."""
        if not self._running:
            return
        self._running = False
        self._queue.put(_QUEUE_SENTINEL)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads.clear()

    def __enter__(self) -> "PolicyServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---------------------------------------------------------------- accept
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while self._running:
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            connection.settimeout(None)
            with self._connections_lock:
                self._connections.add(connection)
            thread = threading.Thread(
                target=self._connection_loop,
                args=(connection,),
                name="policy-server-conn",
                daemon=True,
            )
            thread.start()

    # ------------------------------------------------------------- connection
    def _connection_loop(self, connection: socket.socket) -> None:
        stream = connection.makefile("rwb")
        session: Optional[SessionState] = None
        try:
            while True:
                try:
                    message = read_message(stream)
                except ProtocolError as error:
                    write_message(stream, self.error_reply(error))
                    continue
                except (OSError, ValueError):
                    return  # connection torn down (possibly by stop())
                if message is None:
                    return
                kind = message["type"]
                try:
                    if kind == "hello":
                        session = self._handle_hello(stream, message, session)
                    elif kind == "decide":
                        self._handle_decide(stream, session, message)
                    elif kind == "stats":
                        write_message(stream, self.stats_payload(session))
                    elif kind == "metrics":
                        write_message(stream, self.metrics_payload(message))
                    elif kind == "trace":
                        write_message(stream, self.trace_payload(message))
                    elif kind == "trace_report":
                        write_message(stream, self.record_spans(message))
                    elif kind == "flight":
                        write_message(stream, self.flight_payload(message))
                    elif kind == "bye":
                        write_message(stream, {"type": "goodbye"})
                        return
                    else:
                        write_message(
                            stream,
                            {"type": "error", "message": f"unknown request type {kind!r}"},
                        )
                except ProtocolError as error:
                    write_message(stream, self.error_reply(error))
                except (KeyError, TypeError, ValueError) as error:
                    # Malformed payload (missing fields, wrong types): answer
                    # with an error frame and keep the connection usable, as
                    # the protocol contract promises.
                    write_message(
                        stream,
                        {"type": "error",
                         "message": f"malformed {kind!r} payload: {error!r}"},
                    )
                except (BrokenPipeError, OSError):
                    return
        finally:
            stream.close()
            try:
                connection.close()
            except OSError:
                pass
            with self._connections_lock:
                self._connections.discard(connection)
            self.deregister_session(session)

    def _handle_hello(
        self, stream, message: dict, existing: Optional[SessionState]
    ) -> SessionState:
        session, welcome = self.open_session(message, existing)
        try:
            write_message(stream, welcome)
        except (BrokenPipeError, OSError):
            # The client vanished before seeing the welcome: deregister, or
            # the id would stay blocked (the connection loop's cleanup only
            # knows about sessions it returned).
            self.deregister_session(session)
            raise
        return session

    def _handle_decide(
        self, stream, session: Optional[SessionState], message: dict
    ) -> None:
        pending = _PendingRequest(self.build_request(session, message))
        self._queue.put(pending)
        # Bounded wait: if the request raced stop() (enqueued after the
        # dispatch loop drained its sentinel and exited), nothing will ever
        # answer it — fail it instead of hanging this connection thread.
        while not pending.done.wait(timeout=0.5):
            if not self._running:
                pending.error = "server shutting down"
                break
        if pending.error is not None:
            write_message(stream, {"type": "error", "message": pending.error})
            return
        result = pending.result
        assert result is not None
        self.finish_request(pending.request, result)
        write_message(stream, self.action_reply(session, message, result))

    # --------------------------------------------------------------- dispatch
    def _drain_batch(self, first: "_PendingRequest") -> list:
        """Coalesce pending requests: up to ``max_batch_size`` distinct sessions.

        After the first request lands we wait at most :meth:`window_seconds`
        for more sessions to show up — long enough for concurrently blocked
        clients to coalesce, far below any reasonable decision SLO.
        """
        batch = [first]
        sessions = {id(first.request.session)}
        deadline = time.perf_counter() + self.window_seconds()
        # Once every live session has a request in the batch, no further
        # request can arrive (the protocol is synchronous per session) —
        # don't make a lone client sit out the full window.
        max_size = min(self.max_batch_size, max(self.num_live_sessions(), 1))
        while len(batch) < max_size:
            remaining = deadline - time.perf_counter()
            try:
                item = (
                    self._queue.get_nowait()
                    if remaining <= 0
                    else self._queue.get(timeout=remaining)
                )
            except queue.Empty:
                break
            if item is _QUEUE_SENTINEL:
                self._queue.put(_QUEUE_SENTINEL)  # keep the stop signal visible
                break
            if id(item.request.session) in sessions:
                # One in-flight request per session: answer it in the next
                # batch (cannot happen with well-behaved synchronous clients).
                self._requeue.append(item)
                continue
            sessions.add(id(item.request.session))
            batch.append(item)
        return batch

    def _dispatch_loop(self) -> None:
        while True:
            if self._requeue:
                item = self._requeue.pop(0)
            else:
                item = self._queue.get()
            if item is _QUEUE_SENTINEL:
                # Unblock anything still parked.
                while True:
                    try:
                        pending = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if pending is _QUEUE_SENTINEL:
                        continue
                    pending.error = "server shutting down"
                    pending.done.set()
                return
            batch = self._drain_batch(item)
            self.observe_batch(len(batch))
            try:
                results = self.broker.decide([pending.request for pending in batch])
            except Exception as error:  # noqa: BLE001 - must answer every request
                for pending in batch:
                    pending.error = f"decision failed: {error!r}"
                    pending.done.set()
                continue
            for pending, result in zip(batch, results):
                pending.result = result
                pending.done.set()
