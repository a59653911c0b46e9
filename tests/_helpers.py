"""Shared fixed-seed factories for the test suite.

Consolidates the environment/agent/training factories that used to be
duplicated across ``test_sparse_gnn_equivalence.py``,
``test_parallel_rollout.py`` and ``test_service.py``.  They live in this
uniquely named module (not ``conftest.py`` itself — ``benchmarks/`` has its
own conftest and both directories share ``sys.path``) and are imported with
``from _helpers import ...``; ``tests/conftest.py`` additionally exposes
them as factory fixtures for tests that prefer injection.
"""

import numpy as np

from repro.core import DecimaAgent, DecimaConfig
from repro.experiments.training import tpch_batch_factory
from repro.simulator import SchedulingEnvironment, SimulatorConfig
from repro.workloads import batched_arrivals, poisson_arrivals, sample_tpch_jobs

# Jobs of a realistic-size serving session: its first decide frame is a
# ~200 kB snapshot (~360 kB from a protocol-3 client), far past asyncio's
# default 64 KiB line limit.
LARGE_NUM_JOBS = 200


def make_tpch_env(
    num_jobs=3, num_executors=8, seed=0, staggered=False, sizes=(2.0, 5.0)
):
    """A seeded TPC-H episode, already reset: returns ``(env, observation)``.

    ``staggered`` switches from batched (all at t=0) to Poisson arrivals so
    the live-job set changes mid-episode.
    """
    rng = np.random.default_rng(seed)
    jobs = sample_tpch_jobs(num_jobs, rng, sizes=sizes)
    if staggered:
        jobs = poisson_arrivals(jobs, 60.0, rng)
    else:
        jobs = batched_arrivals(jobs)
    env = SchedulingEnvironment(SimulatorConfig(num_executors=num_executors, seed=seed))
    return env, env.reset(jobs)


def make_decima_agent(
    total_executors=8, seed=0, sparse=True, use_graph_cache=None, **overrides
):
    """A fixed-seed Decima agent; ``use_graph_cache`` follows ``sparse`` by
    default (the fast path pairs both switches, the oracle disables both)."""
    if use_graph_cache is None:
        use_graph_cache = sparse
    return DecimaAgent(
        total_executors=total_executors,
        config=DecimaConfig(
            seed=seed,
            sparse_message_passing=sparse,
            use_graph_cache=use_graph_cache,
            **overrides,
        ),
    )


def make_training_setup(seed=0, num_executors=5, num_jobs=2, sizes=(2.0,)):
    """The tiny fixed-seed training triple ``(config, agent, job_factory)``."""
    config = SimulatorConfig(num_executors=num_executors, seed=0)
    agent = make_decima_agent(total_executors=num_executors, seed=seed)
    factory = tpch_batch_factory(num_jobs, sizes=sizes)
    return config, agent, factory


def tpch_batch(num_jobs, seed, sizes=(2.0, 5.0)):
    """A seeded batch of TPC-H jobs, all arriving at t=0 (fresh objects)."""
    rng = np.random.default_rng(seed)
    return batched_arrivals(sample_tpch_jobs(num_jobs, rng, sizes=sizes))


def play_greedy(decide, jobs, num_executors, seed=0, max_decisions=None):
    """Play one seeded episode, asking ``decide(observation)`` for each action.

    Returns the trajectory as ``(job position, node id, parallelism limit)``
    triples — identity-free, so an in-process run and a served run over
    separately sampled copies of the same jobs compare directly.
    """
    env = SchedulingEnvironment(SimulatorConfig(num_executors=num_executors, seed=seed))
    observation = env.reset(jobs, seed=seed)
    trajectory = []
    done = False
    while not done and (max_decisions is None or len(trajectory) < max_decisions):
        action = decide(observation)
        trajectory.append((
            observation.job_dags.index(action.node.job),
            action.node.node_id,
            action.parallelism_limit,
        ))
        observation, _, done = env.step(action)
    return trajectory
