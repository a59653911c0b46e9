"""Seeded benchmark inputs and the in-process reference trajectories.

Every input is a TPC-H job batch drawn from a seed; the program only ever
sees the generated jobs.  Batches are drawn from balanced pools (see
:func:`tpch_batches`) so that the total work of a run, and with it the
average job completion time, varies less from seed to seed.  A *reference
trajectory* is the sequence of actions an in-process
``DecimaAgent.act(greedy=True)`` takes along one episode: served decisions
and the fast inference path are checked against it action by action.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core import DecimaAgent, DecimaConfig
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.simulator.environment import Action, Observation
from repro.workloads import (
    TPCH_INPUT_SIZES_GB,
    TPCH_QUERY_IDS,
    batched_arrivals,
    make_tpch_job,
)

__all__ = [
    "ACTION_OK",
    "TIE_BREAK",
    "WRONG_ACTION",
    "avg_jct_s",
    "check_action",
    "make_agent",
    "make_jobs",
    "new_episode",
    "reference_trajectory",
    "resolve",
    "tpch_batches",
]

ACTION_OK = "ok"
TIE_BREAK = "tie_break"
WRONG_ACTION = "wrong_action"

# The served model: fixed weights, so the workload seed changes only the
# jobs, never the policy.
AGENT_SEED = 0


def make_agent(num_executors: int, **overrides) -> DecimaAgent:
    return DecimaAgent(
        total_executors=num_executors,
        config=DecimaConfig(seed=AGENT_SEED, **overrides),
    )


def _balanced_draw(values, count: int, rng: np.random.Generator) -> list:
    """``count`` values drawn without replacement from enough copies of ``values``."""
    copies = -(-count // len(values)) + 1
    return list(rng.permutation(np.tile(np.asarray(values), copies))[:count])


def tpch_batches(rng: np.random.Generator, num_batches: int, num_jobs: int) -> list:
    """``num_batches`` batches of ``num_jobs`` TPC-H ``(query, size)`` pairs.

    Queries and input sizes are each drawn without replacement from a pool
    holding every value about equally often, across all batches at once,
    rather than independently at random: batches still mix queries and sizes
    at random (the same query and size can repeat), but a run rarely lands on
    mostly large or mostly small inputs.
    """
    total = num_batches * num_jobs
    queries = _balanced_draw(TPCH_QUERY_IDS, total, rng)
    sizes = _balanced_draw(TPCH_INPUT_SIZES_GB, total, rng)
    pairs = [(int(query), float(size)) for query, size in zip(queries, sizes)]
    return [pairs[start:start + num_jobs] for start in range(0, total, num_jobs)]


def make_jobs(batch: list) -> list:
    """The batch's jobs, all arriving at time 0."""
    return batched_arrivals([
        make_tpch_job(query, size, name=f"tpch-q{query}-{size:g}gb-{index}")
        for index, (query, size) in enumerate(batch)
    ])


def new_episode(batch: list, num_executors: int, seed: int):
    """A fresh ``(env, observation)`` for ``batch``; ``seed`` drives task durations."""
    env = SchedulingEnvironment(SimulatorConfig(num_executors=num_executors, seed=seed))
    return env, env.reset(make_jobs(batch), seed=seed)


def avg_jct_s(env: SchedulingEnvironment, num_jobs: int) -> float:
    """Job-seconds spent in the system so far, per job.

    The simulator's reward is ``-(job-seconds in system) * reward_scale``, so
    on a finished episode this is exactly the average job completion time;
    on an episode prefix it is the part of it accrued so far.
    """
    return -env.total_reward / env.config.reward_scale / num_jobs


def action_key(action: Optional[Action]):
    if action is None or action.node is None:
        return None
    return (action.node.job.name, int(action.node.node_id), int(action.parallelism_limit))


def resolve(key, observation: Observation) -> Optional[Action]:
    """The reference action ``key`` as an action on ``observation``'s objects."""
    if key is None:
        return None
    name, node_id, limit = key
    for job in observation.job_dags:
        if job.name == name:
            for node in job.nodes:
                if node.node_id == node_id:
                    return Action(node=node, parallelism_limit=limit)
    raise LookupError(f"reference job {name!r} is not in the observation")


def reference_trajectory(agent: DecimaAgent, batch: list, num_executors: int,
                         seed: int, max_decisions: Optional[int] = None) -> dict:
    """Run ``agent.act(greedy=True)`` along the episode (or its prefix)."""
    agent.reset_graph_cache()
    env, observation = new_episode(batch, num_executors, seed)
    keys = []
    done = False
    while not done and (max_decisions is None or len(keys) < max_decisions):
        action, _ = agent.act(observation, greedy=True)
        keys.append(action_key(action))
        observation, _, done = env.step(action)
    agent.reset_graph_cache()
    return {
        "batch": batch,
        "seed": seed,
        "keys": keys,
        "avg_jct_s": avg_jct_s(env, len(batch)),
    }


def _job_state(job, observation: Observation) -> tuple:
    """Everything the policy's features can see of one job, minus its name."""
    return (
        float(job.arrival_time),
        tuple(tuple(edge) for edge in job.edges),
        tuple(
            (node.num_tasks, node.task_duration, node.num_finished_tasks,
             node.num_running_tasks, node.next_task_index)
            for node in job.nodes
        ),
        observation.executors_of_job(job),
        job is observation.source_job,
    )


def check_action(action: Optional[Action], key, observation: Observation) -> str:
    """Compare ``action`` with the reference ``key`` on ``observation``.

    Two jobs drawn from the same query and size, in identical states, have
    identical features, so their stages tie exactly; which of them an argmax
    picks depends on floating-point rounding that differs between code paths
    (batched vs single forward, restricted vs full scoring).  Picking the
    other job of such a pair is a *tie break*, counted but not a failure.
    Anything else that differs is a wrong action.
    """
    chosen = action_key(action)
    if chosen == key:
        return ACTION_OK
    if chosen is None or key is None or chosen[1:] != key[1:]:
        return WRONG_ACTION
    reference = resolve(key, observation).node.job
    if _job_state(action.node.job, observation) == _job_state(reference, observation):
        return TIE_BREAK
    return WRONG_ACTION
