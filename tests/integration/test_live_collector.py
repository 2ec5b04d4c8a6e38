"""Fleet collector acceptance: 16 live nodes pushing, one-RPC cockpit.

The collector inverts the telemetry plane: chunk servers push batches at
heartbeat cadence, so `repro top --collector` renders the whole fleet
from a single COLLECTOR_QUERY instead of 1 + N polls.  This test is the
acceptance criterion from the issue: a 16-node fleet visible in one RPC,
a fleet degraded-read p99 computed from *merged histogram buckets* that
matches pooled per-node reservoir ground truth to within one log-bucket
width, and bounded collector memory.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.codes import ReedSolomonCode
from repro.core.single_repair import run_single_repair
from repro.fs.cluster import StorageCluster
from repro.live import LiveCluster, LiveConfig
from repro.live.wire import MessageType
from repro.qos.slo import QOS_BUCKETS

CONFIG = LiveConfig(
    heartbeat_interval=0.1,
    failure_detection_timeout=1.0,
    rpc_timeout=5.0,
    repair_timeout=30.0,
    collector_enabled=True,
)

NUM_SERVERS = 16


async def _push_and_query():
    """Run a repair on a 16-node fleet, let pushes land, pull one frame."""
    async with LiveCluster(
        num_servers=NUM_SERVERS, config=CONFIG, payload_bytes=1152
    ) as cluster:
        stripe = await cluster.write_stripe("rs(6,3)", chunk_size="64MiB")
        await cluster.kill_server(stripe.hosts[2])
        report = await cluster.repair(
            stripe.stripe_id, lost_index=2, strategy="ppr"
        )
        # Let every survivor push a few batches, and let the killed
        # node's last batch go stale (> failure_detection_timeout).
        await asyncio.sleep(CONFIG.failure_detection_timeout + 0.3)

        meta_client = cluster.pool.get(cluster.meta.address)
        top = (
            await meta_client.call(MessageType.COLLECTOR_QUERY, {"what": "top"})
        ).payload
        stats = (
            await meta_client.call(
                MessageType.COLLECTOR_QUERY, {"what": "stats"}
            )
        ).payload
        tiered = (
            await meta_client.call(
                MessageType.COLLECTOR_QUERY,
                {"metric": "bytes.moved", "tier": "10s"},
            )
        ).payload

        # Ground truth: pool every server's exact read-latency reservoir
        # (in-process — the collector never sees these).
        pooled = [
            v
            for server in cluster.servers.values()
            for v in server.read_reservoir
        ]
        exact = all(
            server.read_reservoir.exact
            for server in cluster.servers.values()
        )
        return {
            "top": top,
            "stats": stats,
            "tiered": tiered,
            "pooled": sorted(pooled),
            "exact": exact,
            "report": report,
            "servers": sorted(cluster.servers),
            "dead": stripe.hosts[2],
        }


@pytest.fixture(scope="module")
def fleet():
    return asyncio.run(_push_and_query())


class TestOneRpcCockpit:
    def test_single_rpc_covers_all_sixteen_nodes(self, fleet):
        """The dashboard frame lists every chunkserver without a single
        per-node poll — the pushed batches are the only data source."""
        table = fleet["top"]["fleet"]
        for server_id in fleet["servers"]:
            assert server_id in table, f"{server_id} missing from one-RPC top"
        # The meta-server ships its own telemetry in-process too.
        assert "meta" in table

    def test_push_liveness_marks_killed_server_dead(self, fleet):
        table = fleet["top"]["fleet"]
        assert table[fleet["dead"]]["alive"] is False
        alive = [s for s in fleet["servers"] if table[s]["alive"]]
        assert len(alive) == NUM_SERVERS - 1

    def test_heartbeat_cadence_batches_arrived(self, fleet):
        stats = fleet["stats"]
        # >= one batch per surviving server plus meta; the sleep window
        # spans many heartbeats so the real number is much higher.
        assert stats["batches_ingested"] >= NUM_SERVERS
        assert stats["samples_ingested"] > 0
        assert stats["nodes"] >= NUM_SERVERS  # 16 servers + meta (+ coord)

    def test_fleet_rollup_aggregates_across_nodes(self, fleet):
        rollup = {r["name"]: r for r in fleet["top"]["rollup"]}
        assert "bytes.moved" in rollup
        moved = rollup["bytes.moved"]
        assert moved["nodes"] > 1
        assert moved["sum"] > 0
        assert "node" not in moved["labels"]

    def test_coordinator_pushed_repair_telemetry(self, fleet):
        names = {s["name"] for s in fleet["top"]["series"]}
        assert "live.repair.duration" in names

    def test_tiered_query_over_the_wire(self, fleet):
        series = fleet["tiered"]["series"]
        assert series, "no 10s-tier series for bytes.moved"
        for snap in series:
            assert snap["tier"] == "10s"
            assert snap["width"] == 10.0

    def test_repair_unperturbed(self, fleet):
        assert fleet["report"].result.verified


class TestMergedQuantileConformance:
    def test_fleet_p99_from_merged_buckets_matches_pooled_reservoirs(
        self, fleet
    ):
        """Acceptance: degraded-read p99 across the fleet, computed from
        bucket-merged histograms, within one log-bucket width of the
        exact pooled-sample quantile."""
        pooled = fleet["pooled"]
        assert pooled, "no reads observed fleet-wide"
        assert fleet["exact"], "reservoirs wrapped; ground truth inexact"

        merged = [
            h
            for h in fleet["top"]["hists"]
            if h["name"] == "live.read.latency"
        ]
        assert len(merged) == 1, "expected one fleet-merged read hist"
        hist = merged[0]
        assert hist["count"] == len(pooled)

        rank = max(0, min(len(pooled) - 1, math.ceil(0.99 * len(pooled)) - 1))
        exact_p99 = pooled[rank]
        below = [b for b in QOS_BUCKETS if b <= exact_p99]
        above = [b for b in QOS_BUCKETS if b >= exact_p99]
        lo = below[-1] if below else 0.0
        hi = above[0] if above else math.inf
        assert lo - 1e-9 <= hist["p99"] <= hi + 1e-9, (
            f"merged p99 {hist['p99']} outside one bucket width "
            f"[{lo}, {hi}] of exact pooled p99 {exact_p99}"
        )

    def test_merged_extremes_match_pooled(self, fleet):
        hist = next(
            h
            for h in fleet["top"]["hists"]
            if h["name"] == "live.read.latency"
        )
        pooled = fleet["pooled"]
        assert math.isclose(hist["min"], pooled[0], rel_tol=1e-9)
        assert math.isclose(hist["max"], pooled[-1], rel_tol=1e-9)


class TestSimCollectorBounded:
    def test_long_sim_run_keeps_collector_memory_bounded(self):
        """The sim funnels through the same rollup path; retained points
        never exceed the advertised hard bound over a long run."""
        cluster = StorageCluster.smallsite()
        collector = cluster.enable_collector(raw_capacity=64)
        code = ReedSolomonCode(6, 3)
        for round_no in range(4):
            stripe = cluster.write_stripe(code, "64MiB")
            result = run_single_repair(cluster, stripe, 0, strategy="ppr")
            assert result.verified
            assert collector.sample_count() <= collector.max_samples()
        assert collector.batches_ingested > 0
        assert collector.samples_ingested > 0
        # Per-node series kept their node labels through the sim funnel.
        nodes = {
            s["labels"].get("node") for s in collector.query(tier="raw")
        }
        assert len(nodes) > 1

    def test_sim_results_identical_with_collector(self):
        def run(with_collector):
            cluster = StorageCluster.smallsite()
            if with_collector:
                cluster.enable_collector()
            stripe = cluster.write_stripe(ReedSolomonCode(6, 3), "64MiB")
            return run_single_repair(cluster, stripe, 0, strategy="ppr")

        bare = run(False)
        shipped = run(True)
        assert shipped.duration == bare.duration
        assert shipped.phase_busy == bare.phase_busy
