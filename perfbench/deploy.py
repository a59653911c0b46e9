"""One serving deployment in its own process, for ``run.py``.

Builds ``build_server(ServingConfig(num_shards=N))`` around the benchmark's
fixed-weight agent, starts it and prints one JSON line with its addresses.
It then serves until a ``stop`` line (or end of input) arrives on stdin,
stops, and prints a second JSON line with its peak resident set size.

With ``--trace 1`` it first wraps the server-side layer functions so every
decide/action frame files spans, and writes them to ``--out`` on exit:

* single process: ``decode_frame``, ``ServerCore.build_request``,
  ``SessionState.observation_from_snapshot``, the queue wait up to
  ``RequestBroker.decide``, ``RequestBroker.decide`` itself,
  ``ServerCore.action_reply`` and the reply's ``encode_message``;
* fleet: the router's ``decode_frame`` and ``encode_message`` (patched in the
  router's namespace; shard-side numbers come from the control plane).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from episodes import make_agent  # noqa: E402
from spans import SpanRecorder, write_spans  # noqa: E402

from repro.service import ServingConfig, build_server  # noqa: E402
from repro.service import protocol, router  # noqa: E402
from repro.service.batcher import RequestBroker  # noqa: E402
from repro.service.server import ServerCore  # noqa: E402
from repro.service.session import SessionState  # noqa: E402

_WIRE_TYPES = ("decide", "action")


def _trace_frames(recorder: SpanRecorder, module, prefix: str) -> None:
    """Wrap ``module``'s ``decode_frame``/``encode_message`` for decide/action frames."""
    decode_frame, encode_message = module.decode_frame, module.encode_message

    def traced_decode(line):
        start = time.perf_counter()
        payload = decode_frame(line)
        end = time.perf_counter()
        if payload.get("type") in _WIRE_TYPES:
            recorder.record(f"{prefix}.decode", start, end,
                            payload.get("request_id"), len(line))
        return payload

    def traced_encode(payload):
        start = time.perf_counter()
        frame = encode_message(payload)
        end = time.perf_counter()
        if payload.get("type") in _WIRE_TYPES:
            recorder.record(f"{prefix}.encode.{payload['type']}", start, end,
                            payload.get("request_id"), len(frame))
        return frame

    recorder.patch(module, "decode_frame", traced_decode)
    recorder.patch(module, "encode_message", traced_encode)


def _trace_server(recorder: SpanRecorder) -> None:
    """Wrap the single-process server's layers (see the module docstring)."""
    _trace_frames(recorder, protocol, "server")
    built: dict = {}
    recorder.wrap(SessionState, "observation_from_snapshot", "session.reconcile")
    recorder.wrap(ServerCore, "action_reply", "server.action_reply",
                  shared_id=lambda session, message, result: message.get("request_id"))
    build_request = ServerCore.build_request

    def traced_build(self, session, message):
        request = recorder.call("server.build_request", build_request,
                                (self, session, message), {}, message.get("request_id"))
        built[id(request)] = time.perf_counter()
        return request

    decide = RequestBroker.decide

    def traced_decide(self, requests):
        entered = time.perf_counter()
        for request in requests:
            start = built.pop(id(request), None)
            if start is not None:
                recorder.record("server.queue_wait", start, entered, request.request_id)
        return recorder.call("batcher.decide", decide, (self, requests), {},
                             size=lambda results: len(results))

    recorder.patch(ServerCore, "build_request", traced_build)
    recorder.patch(RequestBroker, "decide", traced_decide)


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped children (MiB)."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, required=True)
    parser.add_argument("--executors", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="span file written on exit (traced runs)")
    args = parser.parse_args()

    recorder = SpanRecorder()
    if args.trace:
        if args.shards > 1:
            _trace_frames(recorder, router, "router")
        else:
            _trace_server(recorder)
    server = build_server(ServingConfig(num_shards=args.shards),
                          agent=make_agent(args.executors))
    server.start()
    try:
        control = server.control_address if args.shards > 1 else None
        print(json.dumps({"address": list(server.address),
                          "control": list(control) if control else None}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        server.stop()
    if args.trace and args.out:
        write_spans(args.out, recorder.spans)
    print(json.dumps({"peak_rss_mb": peak_rss_mb(), "spans": len(recorder.spans)}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
