"""Asyncio transport for the policy server.

:class:`AsyncPolicyServer` multiplexes every client connection plus the batch
dispatcher on one event loop (running in a background thread, so the public
``start()/stop()`` surface matches the threaded :class:`PolicyServer` and
both can host the same traffic).  Where the threaded transport spends one OS
thread per connection, this one spends one reader coroutine — which is what
lets a single shard process hold hundreds of concurrent sessions.

Inside the loop everything is single-threaded: connection handlers reconcile
snapshots, park a future on the dispatch queue and await it; the dispatch
coroutine coalesces whatever is pending (holding the batch open for the
adaptive window, see :class:`~repro.service.batcher.AdaptiveBatchWindow`) and
answers the whole batch through the shared broker.  The broker's GNN forward
runs inline on the loop — it *is* the work; while it runs, arriving frames
simply queue in the socket buffers and form the next batch.

Decisions are bit-identical to the threaded transport (and to serial
dispatch): timing only changes batch composition, which is
behaviour-neutral per session.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..core.agent import DecimaAgent
from .batcher import DecisionResult
from .protocol import MAX_FRAME_BYTES, ProtocolError, decode_frame, encode_message, read_frame
from .server import ServerCore
from .session import SessionState

__all__ = ["AsyncPolicyServer"]

_QUEUE_SENTINEL = None


class _AsyncPending:
    """A decide request parked on the dispatch queue until it is answered."""

    __slots__ = ("request", "future")

    def __init__(self, request, loop: asyncio.AbstractEventLoop):
        self.request = request
        self.future: "asyncio.Future[DecisionResult]" = loop.create_future()


class AsyncPolicyServer(ServerCore):
    """Event-loop policy server: same protocol, same core, no thread-per-client."""

    def __init__(self, agent: DecimaAgent, **kwargs):
        super().__init__(agent, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._requeue: list = []
        self._dispatch_task: Optional[asyncio.Task] = None
        self._address: Optional[tuple] = None
        self._running = False

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> tuple:
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    def start(self) -> tuple:
        """Spin up the loop thread, bind and start serving."""
        if self._running:
            raise RuntimeError("server already started")
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="policy-server-loop", daemon=True
        )
        self._loop_thread.start()
        future = asyncio.run_coroutine_threadsafe(self._start_serving(), self._loop)
        self._address = future.result(timeout=10.0)
        self._running = True
        return self._address

    async def _start_serving(self) -> tuple:
        self._queue = asyncio.Queue()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self._dispatch_task = asyncio.get_event_loop().create_task(self._dispatch_loop())
        return self._server.sockets[0].getsockname()[:2]

    def stop(self) -> None:
        """Stop serving, answer parked requests with errors, join the loop."""
        if not self._running:
            return
        self._running = False
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        try:
            future.result(timeout=10.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)
            self._loop.close()
            self._loop = None
            self._loop_thread = None

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            self._queue.put_nowait(_QUEUE_SENTINEL)
        if self._dispatch_task is not None:
            try:
                await asyncio.wait_for(self._dispatch_task, timeout=5.0)
            except asyncio.TimeoutError:
                self._dispatch_task.cancel()

    def __enter__(self) -> "AsyncPolicyServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- connection
    async def _write(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(encode_message(payload))
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[SessionState] = None
        try:
            while True:
                try:
                    line = await read_frame(reader)
                    if not line:
                        return
                    message = decode_frame(line)
                except ProtocolError as error:
                    await self._write(writer, self.error_reply(error))
                    continue
                except (OSError, ValueError):
                    return
                kind = message["type"]
                try:
                    if kind == "hello":
                        new_session, welcome = self.open_session(message, session)
                        try:
                            await self._write(writer, welcome)
                        except (ConnectionError, OSError):
                            # The client vanished before seeing the welcome:
                            # deregister, or the id would stay blocked.
                            self.deregister_session(new_session)
                            raise
                        session = new_session
                    elif kind == "decide":
                        await self._handle_decide(writer, session, message)
                    elif kind == "stats":
                        await self._write(writer, self.stats_payload(session))
                    elif kind == "metrics":
                        await self._write(writer, self.metrics_payload(message))
                    elif kind == "trace":
                        await self._write(writer, self.trace_payload(message))
                    elif kind == "trace_report":
                        await self._write(writer, self.record_spans(message))
                    elif kind == "flight":
                        await self._write(writer, self.flight_payload(message))
                    elif kind == "bye":
                        await self._write(writer, {"type": "goodbye"})
                        return
                    else:
                        await self._write(
                            writer,
                            {"type": "error",
                             "message": f"unknown request type {kind!r}"},
                        )
                except ProtocolError as error:
                    await self._write(writer, self.error_reply(error))
                except (KeyError, TypeError, ValueError) as error:
                    # Malformed payload: answer with an error frame and keep
                    # the connection usable, as the protocol contract promises.
                    await self._write(
                        writer,
                        {"type": "error",
                         "message": f"malformed {kind!r} payload: {error!r}"},
                    )
                except (ConnectionError, OSError):
                    return
        except (ConnectionError, OSError):
            return  # the client vanished while we answered a bad frame
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
            self.deregister_session(session)

    async def _handle_decide(
        self, writer, session: Optional[SessionState], message: dict
    ) -> None:
        request = self.build_request(session, message)
        assert self._loop is not None and self._queue is not None
        pending = _AsyncPending(request, self._loop)
        self._queue.put_nowait(pending)
        try:
            result = await pending.future
        except RuntimeError as error:  # set_exception on shutdown
            await self._write(writer, {"type": "error", "message": str(error)})
            return
        self.finish_request(request, result)
        await self._write(writer, self.action_reply(session, message, result))

    # --------------------------------------------------------------- dispatch
    async def _drain_batch(self, first: _AsyncPending) -> list:
        """Coalesce pending requests, holding the batch open for the window."""
        assert self._queue is not None
        batch = [first]
        sessions = {id(first.request.session)}
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self.window_seconds()
        # Once every live session has a request in the batch, no further
        # request can arrive (the protocol is synchronous per session).
        max_size = min(self.max_batch_size, max(self.num_live_sessions(), 1))
        while len(batch) < max_size:
            remaining = deadline - loop.time()
            if remaining <= 0:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    item = await asyncio.wait_for(self._queue.get(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            if item is _QUEUE_SENTINEL:
                self._queue.put_nowait(_QUEUE_SENTINEL)
                break
            if id(item.request.session) in sessions:
                # One in-flight request per session: next batch.
                self._requeue.append(item)
                continue
            sessions.add(id(item.request.session))
            batch.append(item)
        return batch

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        while True:
            if self._requeue:
                item = self._requeue.pop(0)
            else:
                item = await self._queue.get()
            if item is _QUEUE_SENTINEL:
                while True:
                    try:
                        pending = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if pending is _QUEUE_SENTINEL:
                        continue
                    if not pending.future.done():
                        pending.future.set_exception(
                            RuntimeError("server shutting down")
                        )
                for pending in self._requeue:
                    if not pending.future.done():
                        pending.future.set_exception(
                            RuntimeError("server shutting down")
                        )
                self._requeue.clear()
                return
            batch = await self._drain_batch(item)
            self.observe_batch(len(batch))
            try:
                # The GNN forward runs inline on the loop: it is the shard's
                # work, and while it runs new frames queue up into the next
                # batch.
                results = self.broker.decide([pending.request for pending in batch])
            except Exception as error:  # noqa: BLE001 - must answer every request
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(
                            RuntimeError(f"decision failed: {error!r}")
                        )
                continue
            for pending, result in zip(batch, results):
                if not pending.future.done():
                    pending.future.set_result(result)
