"""Differential repair: executor, simulator and live cluster on one stripe.

The same data bytes are encoded and one chunk is rebuilt three ways:
``execute_plan`` on in-memory buffers, a simulated ``StorageCluster``
repair and a live repair over loopback TCP.  The simulator and the live
chunk servers aggregate through the same core, so every path must hand
back the very bytes that were lost, for PPR and chain trees, sliced or
not, on a one-row code and on a code with four rows per chunk.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.codes.registry import make_code
from repro.core.single_repair import run_single_repair
from repro.fs.cluster import StorageCluster
from repro.live import LiveCluster, LiveConfig
from repro.repair.executor import execute_plan
from repro.repair.plan import build_plan

PAYLOAD_BYTES = 1152  # divisible by every code's rows here
LOST = 2

CONFIG = LiveConfig(
    heartbeat_interval=0.2,
    failure_detection_timeout=1.0,
    rpc_timeout=5.0,
    partial_wait_timeout=5.0,
    repair_timeout=15.0,
)


def stripe_data(spec: str) -> np.ndarray:
    code = make_code(spec)
    rng = np.random.default_rng(2016)
    return rng.integers(0, 256, (code.k, PAYLOAD_BYTES), np.uint8)


def executor_rebuild(spec: str, strategy: str, data: np.ndarray) -> np.ndarray:
    code = make_code(spec)
    encoded = code.encode(data)
    recipe = code.repair_recipe(LOST, [i for i in range(code.n) if i != LOST])
    plan = build_plan(strategy, recipe)
    return execute_plan(plan, {h: encoded[h] for h in recipe.helpers})


def sim_rebuild(spec: str, strategy: str, num_slices: int, data) -> np.ndarray:
    cluster = StorageCluster.smallsite(payload_bytes=PAYLOAD_BYTES)
    stripe = cluster.write_stripe(make_code(spec), "8MiB", data=data)
    result = run_single_repair(
        cluster, stripe, LOST, strategy=strategy, num_slices=num_slices
    )
    assert result.verified
    chunk_id = stripe.chunk_ids[LOST]
    return cluster.chunk_server(result.destination).get_chunk(chunk_id).payload


def live_rebuild(spec: str, strategy: str, num_slices: int, data) -> np.ndarray:
    async def scenario():
        async with LiveCluster(
            num_servers=10, config=CONFIG, payload_bytes=PAYLOAD_BYTES
        ) as cluster:
            stripe = await cluster.write_stripe(spec, "8MiB", data=data)
            await cluster.kill_server(stripe.hosts[LOST])
            report = await cluster.repair(
                stripe.stripe_id,
                lost_index=LOST,
                strategy=strategy,
                num_slices=num_slices,
            )
            assert report.attempts == 1
            return report.payload

    return asyncio.run(scenario())


@pytest.mark.parametrize("spec", ["rs(6,3)", "rotrs(6,3)"])
@pytest.mark.parametrize("strategy", ["ppr", "chain"])
@pytest.mark.parametrize("num_slices", [1, 3])
def test_sim_live_and_executor_rebuild_identical_bytes(spec, strategy, num_slices):
    data = stripe_data(spec)
    lost = make_code(spec).encode(data)[LOST]
    central = executor_rebuild(spec, strategy, data)
    simulated = sim_rebuild(spec, strategy, num_slices, data)
    live = live_rebuild(spec, strategy, num_slices, data)
    assert np.array_equal(central, lost)
    assert np.array_equal(simulated, lost)
    assert np.array_equal(live, lost)
