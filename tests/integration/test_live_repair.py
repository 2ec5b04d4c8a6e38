"""Live TCP repairs must be byte-identical to centralized decode.

The acceptance bar of the live subsystem: for RS, Cauchy and LRC, under
star, staggered and PPR, the bytes a real socket-borne repair
reconstructs equal what :func:`repro.repair.executor.execute_plan`
computes centrally from the same surviving chunks.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.codes.registry import make_code
from repro.live import LiveCluster, LiveConfig
from repro.live.wire import MessageType
from repro.repair.executor import execute_plan
from repro.repair.plan import build_plan

CODES = ["rs(6,3)", "crs(6,3)", "lrc(6,2,2)"]
STRATEGIES = ["star", "staggered", "ppr"]

CONFIG = LiveConfig(
    heartbeat_interval=0.2,
    failure_detection_timeout=1.0,
    rpc_timeout=5.0,
    repair_timeout=15.0,
)


def run_live_repair(spec: str, strategy: str, lost_index: int = 2):
    """One full cluster lifecycle: write, kill, repair, compare."""

    async def scenario():
        async with LiveCluster(
            num_servers=10, config=CONFIG, payload_bytes=1152
        ) as cluster:
            stripe = await cluster.write_stripe(spec, chunk_size="64MiB")
            truth = {
                index: cluster.truth_payload(chunk_id)
                for index, chunk_id in enumerate(stripe.chunk_ids)
            }
            await cluster.kill_server(stripe.hosts[lost_index])
            report = await cluster.repair(
                stripe.stripe_id, lost_index=lost_index, strategy=strategy
            )
            return stripe, truth, report

    return asyncio.run(scenario())


class TestByteIdentity:
    @pytest.mark.parametrize("spec", CODES)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_matches_centralized_decode(self, spec, strategy):
        lost_index = 2
        stripe, truth, report = run_live_repair(spec, strategy, lost_index)

        # Centralized reference: same survivors, same recipe, same plan.
        code = make_code(spec)
        available = [
            i for i in range(code.n) if i != lost_index
        ]
        recipe = code.repair_recipe(lost_index, available)
        plan = build_plan(strategy, recipe)
        central = execute_plan(
            plan, {h: truth[h] for h in recipe.helpers}
        )

        assert np.array_equal(report.payload, central)
        assert np.array_equal(report.payload, truth[lost_index])
        assert report.result.verified
        assert report.attempts == 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_traffic_matches_plan_volume(self, strategy):
        spec, lost_index = "rs(6,3)", 0
        stripe, truth, report = run_live_repair(spec, strategy, lost_index)
        code = make_code(spec)
        recipe = code.repair_recipe(
            lost_index, [i for i in range(code.n) if i != lost_index]
        )
        plan = build_plan(strategy, recipe)
        assert report.result.traffic.total_bytes() == pytest.approx(
            plan.total_bytes(stripe.payload_len)
        )

    def test_phase_breakdown_is_populated(self):
        _, _, report = run_live_repair("rs(6,3)", "ppr")
        busy = report.result.phase_busy
        assert busy["plan"] > 0
        assert busy["network"] > 0
        assert busy["compute"] > 0
        assert report.result.duration > 0
        # busy phases fit inside the end-to-end window
        for name, value in busy.items():
            assert value <= report.result.duration + 1e-9, name


class TestLrcLocality:
    def test_lrc_uses_local_group_only(self):
        """LRC's selling point survives the live path: half the traffic."""
        _, _, lrc = run_live_repair("lrc(6,2,2)", "ppr")
        _, _, rs = run_live_repair("rs(6,3)", "ppr")
        assert lrc.result.num_helpers < rs.result.num_helpers
        assert (
            lrc.result.traffic.total_bytes()
            < rs.result.traffic.total_bytes()
        )


class TestClusterPlumbing:
    def test_rebuilt_chunk_is_served_and_located(self):
        """After a repair the chunk is fetchable and the meta knows it."""

        async def scenario():
            async with LiveCluster(
                num_servers=10, config=CONFIG, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                lost = 1
                chunk_id = stripe.chunk_ids[lost]
                truth = cluster.truth_payload(chunk_id)
                await cluster.kill_server(stripe.hosts[lost])
                report = await cluster.repair(
                    stripe.stripe_id, lost_index=lost, strategy="ppr"
                )
                dest = report.result.destination
                # the meta-server learned the new location via CHUNK_ADDED
                assert cluster.meta.chunk_locations[chunk_id] == dest
                client = cluster.pool.get(cluster.server(dest).address)
                response = await client.call(
                    MessageType.GET_CHUNK, {"chunk_id": chunk_id}
                )
                assert np.array_equal(response.buffers[0], truth)
                assert int(response.payload["index"]) == lost

        asyncio.run(scenario())

    def test_truth_rows_are_read_only_and_catch_a_flipped_byte(self):
        """The harness keeps the encoder's rows, frozen, not copies."""

        async def scenario():
            async with LiveCluster(
                num_servers=10, config=CONFIG, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                for chunk_id, host in zip(stripe.chunk_ids, stripe.hosts):
                    truth = cluster.truth_payload(chunk_id)
                    assert not truth.flags.writeable
                    with pytest.raises(ValueError):
                        truth[0] ^= 1
                    stored = cluster.server(host).chunks[chunk_id].payload
                    assert not np.shares_memory(stored, truth)
                    stored[5] ^= 0x01  # bit rot on the server's copy
                    client = cluster.pool.get(cluster.server(host).address)
                    response = await client.call(
                        MessageType.GET_CHUNK, {"chunk_id": chunk_id}
                    )
                    assert not np.array_equal(response.buffers[0], truth)
                    assert response.buffers[0][5] == truth[5] ^ 0x01

        asyncio.run(scenario())

    def test_lost_index_is_auto_detected(self):
        async def scenario():
            async with LiveCluster(
                num_servers=10, config=CONFIG, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                await cluster.kill_server(stripe.hosts[4])
                report = await cluster.repair(
                    stripe.stripe_id, strategy="star"
                )
                assert report.result.lost_index == 4
                assert report.result.verified

        asyncio.run(scenario())

    def test_heartbeat_staleness_marks_server_dead(self):
        """Real failure detection: silence beyond the timeout means dead."""

        async def scenario():
            config = LiveConfig(
                heartbeat_interval=0.1,
                failure_detection_timeout=0.5,
            )
            async with LiveCluster(
                num_servers=4, config=config, payload_bytes=1152
            ) as cluster:
                victim = cluster.server_ids[0]
                assert cluster.meta.server_is_alive(victim)
                # Crash without the harness's detection fast-forward.
                await cluster.server(victim).kill()
                deadline = asyncio.get_running_loop().time() + 5.0
                while cluster.meta.server_is_alive(victim):
                    assert (
                        asyncio.get_running_loop().time() < deadline
                    ), "staleness sweep never marked the victim dead"
                    await asyncio.sleep(0.1)
                assert victim not in cluster.meta.alive_servers()

        asyncio.run(scenario())
