#!/usr/bin/env python3
"""Per-decision wire cost of full (protocol 3) vs delta (protocol 4) snapshots.

Plays the first decisions of a seeded TPC-H batch in process, with the
agent's greedy actions, and times what a served decision spends on the wire
format alone: ``encode_observation`` + ``encode_message`` on the client,
``decode_frame`` + ``SessionState.observation_from_snapshot`` on the server.
No sockets, so the numbers isolate the format from the transport.  Prints a
markdown table: frame size and wire milliseconds per decision (median over
the steady state, i.e. every frame after the first), full vs delta.

    python examples/measure_wire_cost.py                 # 10/50/200 jobs
    python examples/measure_wire_cost.py --jobs 200 --decisions 150
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from repro.core import DecimaAgent, DecimaConfig
from repro.service import SessionState, WireState, encode_message, encode_observation
from repro.service.protocol import decode_frame
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, sample_tpch_jobs


def measure(num_jobs: int, num_executors: int, decisions: int, seed: int) -> dict:
    """Median steady-state frame kB and wire ms for both snapshot formats."""
    agent = DecimaAgent(total_executors=num_executors, config=DecimaConfig(seed=0))
    env = SchedulingEnvironment(SimulatorConfig(num_executors=num_executors, seed=seed))
    observation = env.reset(
        batched_arrivals(sample_tpch_jobs(num_jobs, np.random.default_rng(seed))), seed=seed
    )
    formats = {"full": None, "delta": WireState()}
    sessions = {name: SessionState(name, num_executors) for name in formats}
    samples = {name: ([], []) for name in formats}  # (frame bytes, seconds)
    for _ in range(decisions):
        for name, wire in formats.items():
            start = time.perf_counter()
            frame = encode_message(
                {"type": "decide", "observation": encode_observation(observation, wire)}
            )
            sessions[name].observation_from_snapshot(decode_frame(frame)["observation"])
            samples[name][0].append(len(frame))
            samples[name][1].append(time.perf_counter() - start)
        action, _ = agent.act(observation, greedy=True)
        observation, _, done = env.step(action)
        if done:
            break
    return {
        name: (statistics.median(sizes[1:]) / 1e3, statistics.median(seconds[1:]) * 1e3)
        for name, (sizes, seconds) in samples.items()
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, nargs="+", default=[10, 50, 200])
    parser.add_argument("--executors", type=int, default=50)
    parser.add_argument("--decisions", type=int, default=150)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    print("| Jobs | Full frame (kB) | Delta frame (kB) | Full wire (ms) | Delta wire (ms) |")
    print("| ---: | ---: | ---: | ---: | ---: |")
    for num_jobs in args.jobs:
        result = measure(num_jobs, args.executors, args.decisions, args.seed)
        (full_kb, full_ms), (delta_kb, delta_ms) = result["full"], result["delta"]
        print(f"| {num_jobs} | {full_kb:.1f} | {delta_kb:.1f} | {full_ms:.2f} | {delta_ms:.2f} |")


if __name__ == "__main__":
    main()
