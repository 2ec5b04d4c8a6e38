"""Live telemetry: STATS/HEALTH RPCs polled against a running cluster.

The acceptance test of the telemetry plane: start a real TCP cluster,
run a PPR repair (slowed with ``compute_delay`` so it stays open long
enough to observe), poll STATS mid-repair, and require non-empty series
and health payloads from every server — plus the meta-server's fleet
view with straggler detection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live import LiveCluster, LiveConfig
from repro.live.metaserver import STRAGGLER_THRESHOLD
from repro.live.wire import MessageType
from repro.sim.metrics import PHASES

CONFIG = LiveConfig(
    heartbeat_interval=0.1,
    failure_detection_timeout=1.0,
    rpc_timeout=5.0,
    repair_timeout=30.0,
    compute_delay=0.05,
    telemetry_interval=0.05,
)


async def _poll_mid_repair():
    """Write, kill, start a repair, and poll telemetry while it runs."""
    async with LiveCluster(
        num_servers=10, config=CONFIG, payload_bytes=1152
    ) as cluster:
        stripe = await cluster.write_stripe("rs(6,3)", chunk_size="64MiB")
        await cluster.kill_server(stripe.hosts[2])
        repair_task = asyncio.create_task(
            cluster.repair(stripe.stripe_id, lost_index=2, strategy="ppr")
        )
        # Let heartbeats land and a few sampling intervals elapse while
        # compute_delay holds the repair's phases open.
        await asyncio.sleep(0.4)

        server_stats = {}
        for server_id, server in cluster.servers.items():
            if not server.alive:
                continue
            frame = await cluster.pool.get(server.address).call(
                MessageType.STATS, {}
            )
            server_stats[server_id] = frame.payload
        meta_client = cluster.pool.get(cluster.meta.address)
        meta_stats = (await meta_client.call(MessageType.STATS, {})).payload
        meta_health = (await meta_client.call(MessageType.HEALTH, {})).payload

        report = await repair_task
        all_servers = sorted(cluster.servers)
        dead = stripe.hosts[2]
        return server_stats, meta_stats, meta_health, report, all_servers, dead


@pytest.fixture(scope="module")
def polled():
    return asyncio.run(_poll_mid_repair())


class TestServerStats:
    def test_every_alive_server_returns_nonempty_series(self, polled):
        server_stats, _, _, _, all_servers, dead = polled
        assert sorted(server_stats) == [s for s in all_servers if s != dead]
        for server_id, payload in server_stats.items():
            series = payload["series"]
            assert series, f"{server_id}: no series in STATS payload"
            names = {s["name"] for s in series}
            assert {
                "repairs.inflight",
                "bytes.moved",
                "chunks.hosted",
            } <= names
            populated = [s for s in series if s["samples"]]
            assert populated, f"{server_id}: all series empty mid-repair"

    def test_every_server_reports_health(self, polled):
        server_stats, _, _, _, _, _ = polled
        for server_id, payload in server_stats.items():
            health = payload["health"]
            assert health["server_id"] == server_id
            assert health["alive"] is True
            assert set(health["phase_busy"]) == set(PHASES)
            assert health["chunks_hosted"] >= 0

    def test_helpers_accumulated_phase_busy(self, polled):
        """Repair participants show nonzero disk-read/compute time."""
        server_stats, _, _, _, _, _ = polled
        busy_total = sum(
            sum(p["health"]["phase_busy"].values())
            for p in server_stats.values()
        )
        assert busy_total > 0
        moved = sum(
            p["health"]["bytes_moved"] for p in server_stats.values()
        )
        assert moved > 0

    def test_series_timestamps_window(self, polled):
        """Samples carry wall-clock stamps no later than STATS time."""
        server_stats, _, _, _, _, _ = polled
        for payload in server_stats.values():
            for snap in payload["series"]:
                for t, _ in snap["samples"]:
                    assert t <= payload["time"] + 1e-6


class TestMetaTelemetry:
    def test_meta_series_populated(self, polled):
        _, meta_stats, _, _, _, _ = polled
        assert meta_stats["server_id"] == "meta"
        names = {s["name"] for s in meta_stats["series"]}
        assert {
            "servers.alive",
            "servers.known",
            "stripes.registered",
        } <= names
        alive_series = next(
            s
            for s in meta_stats["series"]
            if s["name"] == "servers.alive"
        )
        assert alive_series["samples"], "meta sampler never ticked"
        # The kill is visible: the final alive count excludes the victim.
        assert alive_series["samples"][-1][1] == 9.0

    def test_fleet_health_covers_every_server(self, polled):
        _, _, meta_health, _, all_servers, dead = polled
        servers = meta_health["servers"]
        assert sorted(servers) == all_servers
        for server_id, health in servers.items():
            assert health["server_id"] == server_id
            assert "straggler" in health
        assert servers[dead]["alive"] is False
        assert servers[dead]["heartbeat_age"] is None
        alive = [s for s, h in servers.items() if h["alive"]]
        assert len(alive) == len(all_servers) - 1
        for server_id in alive:
            age = servers[server_id]["heartbeat_age"]
            assert age is not None and age < CONFIG.failure_detection_timeout

    def test_threshold_override_flags_everyone_or_noone(self, polled):
        """The straggler threshold is a request parameter."""
        _, _, meta_health, _, _, _ = polled
        assert meta_health["threshold"] == STRAGGLER_THRESHOLD

    def test_repair_still_correct_under_polling(self, polled):
        """Telemetry polling must not perturb the repair itself."""
        _, _, _, report, _, _ = polled
        assert report.result.verified
        assert report.attempts == 1


class TestThresholdOverride:
    def test_tiny_threshold_flags_busy_servers(self):
        """With threshold ~0, any server above the median is a straggler."""

        async def scenario():
            async with LiveCluster(
                num_servers=10, config=CONFIG, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe(
                    "rs(6,3)", chunk_size="64MiB"
                )
                await cluster.kill_server(stripe.hosts[0])
                await cluster.repair(
                    stripe.stripe_id, lost_index=0, strategy="ppr"
                )
                await asyncio.sleep(2 * CONFIG.heartbeat_interval)
                meta_client = cluster.pool.get(cluster.meta.address)
                strict = (
                    await meta_client.call(
                        MessageType.HEALTH, {"threshold": 0.001}
                    )
                ).payload
                lax = (
                    await meta_client.call(
                        MessageType.HEALTH, {"threshold": 1e9}
                    )
                ).payload
                return strict, lax

        strict, lax = asyncio.run(scenario())
        assert strict["threshold"] == 0.001
        assert any(h["straggler"] for h in strict["servers"].values())
        assert not any(h["straggler"] for h in lax["servers"].values())
