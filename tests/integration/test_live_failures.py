"""Coordinator failure paths: dead aggregators, stalled peers, timeouts.

The invariant under test: a live repair never hangs.  Whatever dies or
wedges mid-repair, the coordinator either replans around it within its
attempt budget or fails with a typed :class:`~repro.errors.LiveRepairError`
inside the configured timeouts.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import obs
from repro.errors import LiveRepairError
from repro.live import LiveAttempt, LiveCluster, LiveConfig
from repro.live.wire import MessageType


def fast_config(**overrides) -> LiveConfig:
    defaults = dict(
        heartbeat_interval=0.3,
        failure_detection_timeout=1.5,
        connect_timeout=1.0,
        rpc_timeout=1.0,
        partial_wait_timeout=1.0,
        repair_timeout=4.0,
        max_retries=1,
        backoff_base=0.02,
        backoff_max=0.1,
        max_attempts=2,
    )
    defaults.update(overrides)
    return LiveConfig(**defaults)


class TestAggregatorDiesMidRepair:
    def test_ppr_replans_around_dead_aggregator(self):
        """Kill an aggregator *while it is aggregating*; repair still lands.

        ``compute_delay`` holds every local partial computation open long
        enough for an assassin task to wait until the victim actually has
        an active repair task — i.e. the plan command arrived and the
        reduction tree is mid-flight — before crashing it.
        """

        async def scenario():
            config = fast_config(compute_delay=0.4)
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                lost = 0
                truth = cluster.truth_payload(stripe.chunk_ids[lost])
                await cluster.kill_server(stripe.hosts[lost])

                killed = []

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt != 1:
                        return
                    victim = next(
                        a for a in info.aggregators
                        if a != info.destination
                    )
                    killed.append(victim)

                    async def assassin() -> None:
                        server = cluster.server(victim)
                        while not server.tasks:
                            await asyncio.sleep(0.01)
                        await cluster.kill_server(victim)

                    asyncio.create_task(assassin())

                start = time.monotonic()
                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=lost,
                    strategy="ppr",
                    on_attempt=on_attempt,
                )
                elapsed = time.monotonic() - start

                assert killed, "no aggregator was killed"
                assert report.attempts == 2
                assert killed[0] in report.excluded
                assert killed[0] != report.result.destination
                assert report.result.verified
                assert np.array_equal(report.payload, truth)
                # bounded: two attempts, each within the repair budget
                assert elapsed < 2 * config.repair_timeout + 5.0

        asyncio.run(scenario())

    def test_survivors_drop_state_after_abort(self):
        """REPAIR_ABORT reaches survivors: no orphaned aggregation tasks."""

        async def scenario():
            config = fast_config(compute_delay=0.4)
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                await cluster.kill_server(stripe.hosts[0])

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt != 1:
                        return
                    victim = next(
                        a for a in info.aggregators
                        if a != info.destination
                    )

                    async def assassin() -> None:
                        server = cluster.server(victim)
                        while not server.tasks:
                            await asyncio.sleep(0.01)
                        await cluster.kill_server(victim)

                    asyncio.create_task(assassin())

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=0,
                    strategy="ppr",
                    on_attempt=on_attempt,
                )
                assert report.result.verified
                # give in-flight teardown a moment, then check every
                # survivor is quiescent
                await asyncio.sleep(0.2)
                for server in cluster.servers.values():
                    if server.alive:
                        assert not server.tasks, server.server_id

        asyncio.run(scenario())


class TestRequestTimeouts:
    def test_stalled_destination_is_replanned_around(self):
        """A wedged (not crashed) destination: times out, then replaced."""

        async def scenario():
            config = fast_config(repair_timeout=1.5)
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                await cluster.kill_server(stripe.hosts[0])

                stalled = []

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt == 1:
                        server = cluster.server(info.destination)
                        server.stall_types.add(
                            MessageType.START_RAW_REPAIR
                        )
                        stalled.append(info.destination)

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=0,
                    strategy="star",
                    on_attempt=on_attempt,
                )
                assert report.attempts == 2
                assert report.result.destination not in stalled
                assert report.result.verified

        asyncio.run(scenario())

    def test_stalled_interior_plan_install_replans_before_any_leaf(self):
        """Plans go to non-leaves first: an interior helper that never
        acks its PARTIAL_OP fails the attempt, as the suspect, before any
        leaf has a plan — and the replan still rebuilds identical bytes
        with no task or stream left behind anywhere."""

        async def scenario():
            config = fast_config()
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                lost = 0
                truth = cluster.truth_payload(stripe.chunk_ids[lost])
                await cluster.kill_server(stripe.hosts[lost])
                installs: "list[tuple[str, str]]" = []
                for server in cluster.servers.values():
                    if not server.alive:
                        continue
                    handler = server.rpc._handlers[MessageType.PARTIAL_OP]

                    async def observed(frame, server=server, handler=handler):
                        repair_id = str(frame.payload["request"]["repair_id"])
                        installs.append((server.server_id, repair_id))
                        return await handler(frame)

                    server.rpc.register(MessageType.PARTIAL_OP, observed)
                first: "list[LiveAttempt]" = []
                stalled: "list[str]" = []

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt != 1:
                        return
                    first.append(info)
                    victim = next(
                        a for a in info.aggregators if a != info.destination
                    )
                    cluster.server(victim).stall_types.add(
                        MessageType.PARTIAL_OP
                    )
                    stalled.append(victim)

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=lost,
                    strategy="ppr",
                    on_attempt=on_attempt,
                )
                (info,) = first
                leaves = set(info.helper_servers.values()) - set(
                    info.aggregators
                )
                assert leaves
                assert not [
                    sid
                    for sid, repair_id in installs
                    if repair_id == info.repair_id and sid in leaves
                ], "a leaf got its plan before every non-leaf acked"
                assert report.attempts == 2
                assert report.excluded == set(stalled)
                assert report.result.verified
                assert np.array_equal(report.payload, truth)

                await asyncio.sleep(0.2)  # late REPAIR_ABORT acks
                for server in cluster.servers.values():
                    if server.alive:
                        assert not server.tasks, server.server_id
                        assert len(server.inbox) == 0, server.server_id

        asyncio.run(scenario())

    def test_exhausted_attempts_fail_typed_and_bounded(self):
        """Every destination wedged: typed error inside the time budget."""

        async def scenario():
            config = fast_config(repair_timeout=1.0, max_attempts=2)
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                await cluster.kill_server(stripe.hosts[0])

                def on_attempt(info: LiveAttempt) -> None:
                    cluster.server(info.destination).stall_types.add(
                        MessageType.START_RAW_REPAIR
                    )

                start = time.monotonic()
                with pytest.raises(LiveRepairError) as excinfo:
                    await cluster.repair(
                        stripe.stripe_id,
                        lost_index=0,
                        strategy="star",
                        on_attempt=on_attempt,
                    )
                elapsed = time.monotonic() - start
                assert "2 attempts" in str(excinfo.value)
                assert "RpcTimeoutError" in str(excinfo.value)
                assert (
                    elapsed
                    < config.max_attempts * config.repair_timeout + 5.0
                )

        asyncio.run(scenario())

    def test_too_many_dead_helpers_is_unrecoverable(self):
        """Past the code's tolerance the failure is typed, not a hang."""

        async def scenario():
            config = fast_config()
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                # rs(6,3) tolerates 3 losses; make it 4
                for index in range(4):
                    await cluster.kill_server(stripe.hosts[index])
                with pytest.raises(LiveRepairError):
                    await cluster.repair(
                        stripe.stripe_id, lost_index=0, strategy="ppr"
                    )

        asyncio.run(scenario())


class TestImpossibleDestination:
    def test_refused_destination_fails_once_without_replanning(self):
        """A requested destination that can never work fails on attempt 1.

        Hosting a helper chunk or being unknown to the metaserver does not
        change between attempts, so neither refusal spends the budget.
        """

        async def scenario():
            config = fast_config(max_attempts=3)
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                await cluster.kill_server(stripe.hosts[0])
                replans = obs.registry().counter(
                    "live.repair.replans", stripe=stripe.stripe_id
                )
                before = replans.value
                attempts = []
                for destination, reason in (
                    (stripe.hosts[1], "hosts a helper chunk"),
                    ("no-such-server", "unknown destination"),
                ):
                    with pytest.raises(LiveRepairError) as excinfo:
                        await cluster.repair(
                            stripe.stripe_id,
                            lost_index=0,
                            strategy="ppr",
                            destination=destination,
                            on_attempt=attempts.append,
                        )
                    assert reason in str(excinfo.value)
                    assert "attempts" not in str(excinfo.value)
                assert not attempts
                assert replans.value == before

        asyncio.run(scenario())
