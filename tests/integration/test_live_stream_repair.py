"""Sliced (wire v2) live repairs: byte-identity, causality, recovery.

The pipelined data path must change *nothing* observable except timing:
for every scheme and slice count the rebuilt bytes equal centralized
decode, the stitched causal DAG has the same Theorem-1 transfer depth as
the unsliced path, and a helper dying mid-stream still ends in a
successful replan.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.codes.registry import make_code
from repro.live import LiveCluster, LiveConfig, trace
from repro.live.coordinator import LiveAttempt
from repro.obs import causal, conformance
from repro.obs.doctor import explain_incident, render_incident
from repro.repair.executor import execute_plan
from repro.repair.plan import build_plan

CODES = ["rs(6,3)", "crs(6,3)", "lrc(6,2,2)"]
SLICES = [1, 8, 64]

CONFIG = LiveConfig(
    heartbeat_interval=0.2,
    failure_detection_timeout=1.0,
    rpc_timeout=5.0,
    partial_wait_timeout=5.0,
    repair_timeout=15.0,
)


def run_sliced_repair(
    spec: str,
    strategy: str,
    num_slices: int,
    lost_index: int = 2,
    payload_bytes: int = 1152,
):
    """One cluster lifecycle: write, kill, repair with S slices."""

    async def scenario():
        async with LiveCluster(
            num_servers=10, config=CONFIG, payload_bytes=payload_bytes
        ) as cluster:
            stripe = await cluster.write_stripe(spec, chunk_size="64MiB")
            truth = {
                index: cluster.truth_payload(chunk_id)
                for index, chunk_id in enumerate(stripe.chunk_ids)
            }
            await cluster.kill_server(stripe.hosts[lost_index])
            report = await cluster.repair(
                stripe.stripe_id,
                lost_index=lost_index,
                strategy=strategy,
                num_slices=num_slices,
            )
            return stripe, truth, report

    return asyncio.run(scenario())


class TestSlicedByteIdentity:
    @pytest.mark.parametrize("spec", CODES)
    @pytest.mark.parametrize("strategy", ["ppr", "chain"])
    @pytest.mark.parametrize("num_slices", SLICES)
    def test_matches_centralized_decode(self, spec, strategy, num_slices):
        lost_index = 2
        stripe, truth, report = run_sliced_repair(
            spec, strategy, num_slices, lost_index
        )
        code = make_code(spec)
        recipe = code.repair_recipe(
            lost_index, [i for i in range(code.n) if i != lost_index]
        )
        plan = build_plan(strategy, recipe)
        central = execute_plan(plan, {h: truth[h] for h in recipe.helpers})

        assert np.array_equal(report.payload, central)
        assert np.array_equal(report.payload, truth[lost_index])
        assert report.result.verified
        assert report.attempts == 1

    def test_star_ignores_slicing(self):
        """Raw-collection strategies move whole rows; slices are a no-op."""
        _, truth, report = run_sliced_repair("rs(6,3)", "star", 8)
        assert report.result.verified
        assert np.array_equal(report.payload, truth[2])

    def test_odd_sizes_partition_cleanly(self):
        """Row length not divisible by S: uneven slice_bounds still cover."""
        _, truth, report = run_sliced_repair(
            "rs(6,3)", "ppr", 7, payload_bytes=1153 * 6 - 5
        )
        assert report.result.verified

    def test_traffic_volume_is_unchanged_by_slicing(self):
        """Slicing repartitions bytes; it must not add or drop any."""
        _, _, whole = run_sliced_repair("rs(6,3)", "ppr", 1)
        _, _, sliced = run_sliced_repair("rs(6,3)", "ppr", 8)
        assert (
            sliced.result.traffic.total_bytes()
            == whole.result.traffic.total_bytes()
        )


class TestSlicedCausality:
    """Slicing must not change the stitched DAG's Theorem-1 shape."""

    def stitched_reports(self, strategy: str, num_slices: int):
        with obs.recording() as tracer:
            run_sliced_repair("rs(4,2)", strategy, num_slices)
        spans = list(tracer.spans)
        return conformance.check_trace(causal.stitch(spans)), spans

    @pytest.mark.parametrize("strategy", ["ppr", "chain"])
    @pytest.mark.parametrize("num_slices", [1, 8])
    def test_transfer_depth_conforms(self, strategy, num_slices):
        reports, _ = self.stitched_reports(strategy, num_slices)
        assert reports, "no stitched repair in trace"
        for report in reports:
            depth = next(
                c
                for c in report.checks
                if c.name == "structure.transfer_depth"
            )
            assert depth.status == conformance.PASS, (
                f"{strategy} S={num_slices}: observed {depth.observed} "
                f"!= predicted {depth.predicted}"
            )

    def test_sliced_hop_is_one_network_span(self):
        """Per-hop causality: one tagged network record per stream, with
        the per-slice detail parked outside the conformance DAG."""
        _, spans = self.stitched_reports("chain", 8)
        network = [
            s
            for s in spans
            if s.name == "live.phase.network"
            and s.category == "live.phase"
        ]
        slices = [s for s in spans if s.category == "live.stream"]
        # chain over rs(4,2): 4 helpers + destination = 4 hops, and
        # every hop is streamed, so each contributes 8 slice records.
        assert len(network) == 4
        assert all(s.attrs.get("streamed") for s in network)
        assert len(slices) == 4 * 8
        # slice records never carry causal tags
        assert all("gid" not in s.attrs for s in slices)

    def test_untraced_repair_ships_no_slice_records(self, monkeypatch):
        """Only the tracer's span ingest reads slice records, so an
        untraced repair leaves them out of every trailer and its result."""
        shipped = []
        breakdown = trace.breakdown_from_trace

        def spy(records, start, end):
            shipped.extend(records)
            return breakdown(records, start, end)

        monkeypatch.setattr(trace, "breakdown_from_trace", spy)
        _, _, report = run_sliced_repair("rs(4,2)", "chain", 8)
        assert report.result.verified
        assert any(r["phase"] == "network" for r in shipped)
        assert not [r for r in shipped if r["phase"] == trace.SLICE_PHASE]


class TestStreamFailureRecovery:
    def test_helper_death_mid_stream_replans(self):
        """Kill a helper while its stream is open; the repair replans."""

        async def scenario():
            config = LiveConfig(
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
                compute_delay=0.4,
            )
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                lost = 0
                truth = cluster.truth_payload(stripe.chunk_ids[lost])
                await cluster.kill_server(stripe.hosts[lost])

                killed = []
                kills: "list[asyncio.Task[object]]" = []

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt != 1:
                        return
                    victim = next(
                        a
                        for a in info.aggregators
                        if a != info.destination
                    )
                    server = cluster.server(victim)
                    pace = server._pace_repair

                    async def pace_then_die(nbytes: float) -> None:
                        # Paced before every DATA: the second call comes
                        # once BEGIN and DATA 0 are out, so the victim
                        # crashes with its stream to the parent open.
                        if not killed:
                            killed.append(victim)
                            await pace(nbytes)
                            return
                        kills.append(
                            asyncio.ensure_future(cluster.kill_server(victim))
                        )
                        await asyncio.Event().wait()  # until the crash

                    server._pace_repair = pace_then_die

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=lost,
                    strategy="ppr",
                    on_attempt=on_attempt,
                    num_slices=8,
                )
                assert kills, "no aggregator was killed mid-stream"
                await asyncio.gather(*kills)
                assert report.attempts == 2
                assert killed[0] in report.excluded
                assert report.result.verified
                assert np.array_equal(report.payload, truth)

                # No server leaks stream state after the dust settles.
                for server in cluster.servers.values():
                    if server.alive:
                        assert len(server.inbox) == 0
                        assert not server.tasks

        asyncio.run(scenario())

    def test_transport_abort_mid_stream_replans(self):
        """A helper's connection to its parent dies mid-stream while both
        servers live on.  Reconnecting would let DATA i+1.. overtake a
        lost DATA i, so the pinned sender fails instead: it aborts, the
        repair replans to identical bytes, and nothing is left behind."""

        async def scenario():
            config = LiveConfig(
                heartbeat_interval=0.3,
                failure_detection_timeout=1.5,
                connect_timeout=1.0,
                rpc_timeout=1.0,
                partial_wait_timeout=2.0,
                repair_timeout=6.0,
                max_retries=1,
                backoff_base=0.02,
                backoff_max=0.1,
                max_attempts=2,
                compute_delay=0.3,
            )
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                lost = 0
                truth = cluster.truth_payload(stripe.chunk_ids[lost])
                await cluster.kill_server(stripe.hosts[lost])
                cuts: "list[str]" = []

                def cut_before_second_slice(info: LiveAttempt, victim: str):
                    """Wrap the victim's per-slice pacer (awaited before
                    every DATA) so the connection to its parent dies just
                    before DATA 1: BEGIN and DATA 0 went out on it, the
                    rest of the stream has not."""
                    server = cluster.server(victim)
                    pace = server._pace_repair
                    paced: "list[float]" = []

                    async def pace_then_cut(nbytes: float) -> None:
                        if len(paced) == 1:
                            task = server.tasks[info.repair_id]
                            client = server.pool.get(
                                task.peers[task.request.parent]
                            )
                            client._connection.close(abort=True)
                            cuts.append(victim)
                        paced.append(nbytes)
                        await pace(nbytes)

                    server._pace_repair = pace_then_cut

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt == 1:
                        victim = next(
                            a for a in info.aggregators if a != info.destination
                        )
                        cut_before_second_slice(info, victim)

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=lost,
                    strategy="ppr",
                    on_attempt=on_attempt,
                    num_slices=8,
                )
                assert cuts
                assert report.attempts == 2
                assert not report.excluded  # everyone answered: no culprit
                assert report.result.verified
                assert np.array_equal(report.payload, truth)

                await asyncio.sleep(0.1)  # late ABORT/REPAIR_ABORT acks
                for server in cluster.servers.values():
                    if server.alive:
                        assert len(server.inbox) == 0
                        assert not server.tasks
                        assert not server._background

        asyncio.run(scenario())


class TestStalledStreamWatchdog:
    """A wedged-but-alive helper: only the doctor watchdog can find it.

    The helper stops sending mid-stream but its process stays healthy —
    it answers PING, so the coordinator's ping round clears it.  The
    downstream receiver's stalled-stream watchdog must fire within the
    deadline, file an incident whose critical path marks the stalled
    hop, tear the stream down, and let the coordinator replan around
    the culprit — ending in byte-identical bytes after exactly one
    replan, with no leaked stream or task state anywhere.
    """

    DEADLINE = 0.45

    def test_wedged_helper_diagnosed_and_replanned(self, tmp_path):
        incident_dir = str(tmp_path / "incidents")

        async def scenario():
            config = LiveConfig(
                heartbeat_interval=0.3,
                failure_detection_timeout=2.0,
                connect_timeout=1.0,
                rpc_timeout=2.0,
                partial_wait_timeout=5.0,
                repair_timeout=15.0,
                max_retries=1,
                backoff_base=0.02,
                backoff_max=0.1,
                max_attempts=2,
                stream_stall_deadline=self.DEADLINE,
                incident_dir=incident_dir,
            )
            async with LiveCluster(
                num_servers=10, config=config, payload_bytes=1152
            ) as cluster:
                stripe = await cluster.write_stripe("rs(6,3)")
                lost = 2
                truth = cluster.truth_payload(stripe.chunk_ids[lost])
                await cluster.kill_server(stripe.hosts[lost])

                wedged = []

                def on_attempt(info: LiveAttempt) -> None:
                    if info.attempt != 1:
                        return
                    victim = next(
                        a
                        for a in info.aggregators
                        if a != info.destination
                    )
                    wedged.append(victim)
                    # Wedge between slices 3 and 4: the receiver has
                    # real progress (last_progress set, bytes in), then
                    # silence — the watchdog's exact trigger.
                    cluster.server(victim).stall_stream_at_slice = 4

                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=lost,
                    strategy="chain",
                    on_attempt=on_attempt,
                    num_slices=8,
                )

                # Exactly one replan, blamed on the wedged helper, and
                # the rebuilt bytes are still byte-identical.
                assert wedged, "no helper was wedged"
                victim = wedged[0]
                assert report.attempts == 2
                assert victim in report.excluded
                assert cluster.server(victim).alive  # never crashed
                assert report.result.verified
                assert np.array_equal(report.payload, truth)

                # The stall cascades: every hop downstream of the
                # culprit may see its own inbound dry up and file an
                # incident blaming its direct sender.  Blame math
                # (blamed senders minus nodes that themselves reported
                # a stalled inbound) must isolate exactly the culprit —
                # the same set the coordinator's DOCTOR round computes.
                incidents = [
                    (server, bundle)
                    for server in cluster.servers.values()
                    for bundle in server.incidents.bundles()
                    if bundle["detector"] == "stalled-stream"
                ]
                assert incidents
                blamed = {
                    b["anomaly"]["data"]["src"] for _, b in incidents
                }
                cleared = {s.server_id for s, _ in incidents}
                assert blamed - cleared == {victim}

                # The culprit's direct receiver blames it, with real
                # progress before the silence.
                ((receiver, bundle),) = [
                    (s, b)
                    for s, b in incidents
                    if b["anomaly"]["data"]["src"] == victim
                ]
                anomaly = bundle["anomaly"]
                assert anomaly["data"]["bytes_received"] > 0
                # Fired promptly: past the deadline, but well before
                # the slice timeout that would otherwise mask it.
                stalled_for = anomaly["data"]["stalled_for"]
                assert self.DEADLINE <= stalled_for < 2.0

                # The bundle carries the evidence the CLI renders: the
                # stalled hop (victim -> receiver) on the critical
                # path, and the receiver's flight recording.
                stalled_hops = [
                    entry
                    for entry in bundle["trace"]["critical_path"]
                    if entry.get("stalled")
                ]
                assert len(stalled_hops) == 1
                assert stalled_hops[0]["src"] == victim
                assert stalled_hops[0]["node"] == receiver.server_id
                assert bundle["flight"] is not None
                kinds = {
                    e["kind"] for e in bundle["flight"]["events"]
                }
                assert "anomaly" in kinds
                rendered = render_incident(bundle)
                assert "** STALLED **" in rendered
                assert f"src={victim}" in rendered
                assert victim in explain_incident(bundle)

                # The bundle was mirrored to disk (the CI artifact).
                files = list(tmp_path.joinpath("incidents").iterdir())
                assert [
                    f.name
                    for f in files
                    if f.name == f"incident-{bundle['id']}.json"
                ]

                # Watchdog teardown leaked nothing: every live server's
                # stream inbox and task table drained (the wedged
                # helper's task was popped by the coordinator's abort
                # broadcast even though its coroutine is parked).
                for server in cluster.servers.values():
                    if server.alive:
                        assert len(server.inbox) == 0
                        assert not server.tasks

        asyncio.run(scenario())
