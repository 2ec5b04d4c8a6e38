"""Experiments beyond the paper's figures: its extensions, executed.

Three threads the paper leaves open, each built and measured here:

* **Repair pipelining** (§4.2's staggered discussion + the follow-on work
  this paper seeded, Li et al. ATC'17): slice transfers so a chain of
  helpers approaches a single C/B of network time.
* **Heterogeneous aggregators** (§4.2: "use servers with higher network
  capacity as aggregators"): capacity-aware tree-position assignment.
* **Transient-failure traces** (§1/§5 motivation: 90% of failures are
  transient and degraded reads dominate): tail latency of degraded reads
  under a day-like failure trace.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.experiments import ExperimentResult
from repro.analysis.render import Table, fmt_percent
from repro.codes import ReedSolomonCode
from repro.core.single_repair import run_degraded_read, run_single_repair
from repro.fs.cluster import StorageCluster
from repro.util.units import parse_size


# ----------------------------------------------------------------------
# Extension 1: repair pipelining
# ----------------------------------------------------------------------
def ext_pipelining(
    k: int = 12,
    m: int = 4,
    chunk_size: str = "64MiB",
    slice_counts: "Sequence[int]" = (1, 4, 16, 64),
) -> ExperimentResult:
    table = Table(
        ["strategy", "slices", "repair time", "network busy",
         "predicted network"],
        title=f"Extension: repair pipelining, RS({k},{m}), {chunk_size}",
    )
    chunk = parse_size(chunk_size)
    bw = 125e6
    rows = []

    def measure(strategy: str, slices: int):
        cluster = StorageCluster.smallsite()
        stripe = cluster.write_stripe(ReedSolomonCode(k, m), chunk_size)
        return run_single_repair(
            cluster, stripe, 0, strategy=strategy, num_slices=slices
        )

    from repro.repair.plan import build_plan

    probe_recipe = ReedSolomonCode(k, m).repair_recipe(0, range(1, k + m))
    variants = [("ppr", 1)] + [
        ("chain", s) for s in slice_counts
    ] + [("ppr", max(slice_counts))]
    for strategy, slices in variants:
        result = measure(strategy, slices)
        predicted = build_plan(
            strategy, probe_recipe
        ).estimate_pipelined_transfer_time(chunk, bw, slices)
        rows.append(
            {"strategy": strategy, "slices": slices,
             "duration_s": result.duration,
             "network_s": result.phase_busy["network"],
             "predicted_s": predicted}
        )
        table.add_row(
            strategy, slices, f"{result.duration:.2f}s",
            f"{result.phase_busy['network']:.2f}s", f"{predicted:.2f}s",
        )
    notes = (
        "an unsliced chain serializes like staggered transfer; slicing "
        "pipelines the hops and converges to ~C/B — below even PPR's "
        "ceil(log2(k+1))*C/B"
    )
    return ExperimentResult(
        "ext_pipelining", "Repair pipelining", rows,
        table.render() + "\n" + notes, notes,
    )


# ----------------------------------------------------------------------
# Extension 1b: repair pipelining over real TCP (wire protocol v3)
# ----------------------------------------------------------------------
def ext_live_pipelining(
    spec: str = "rs(4,2)",
    payload_bytes: int = 262144,
    slice_counts: "Sequence[int]" = (1, 8, 64),
    rate_limit: float = 1024 * 1024.0,
) -> ExperimentResult:
    """The `ext_pipelining` sweep, replayed over real sockets.

    Same question — does slicing converge repair time toward C/B? — but
    answered by the `repro.live` streamed data path (wire v4 STREAM_*
    frames) instead of the flow simulator.  The repair send rate is
    token-bucket paced to ``rate_limit`` bytes/s so the payload transfer
    dominates localhost per-frame overhead; with C = ``payload_bytes``
    and B = ``rate_limit`` the floor is C/B seconds per pipelined hop.
    """
    import asyncio
    import time

    from repro.codes.registry import make_code
    from repro.live import LiveCluster, LiveConfig
    from repro.repair.plan import build_plan

    config = LiveConfig(
        heartbeat_interval=0.2,
        failure_detection_timeout=1.0,
        rpc_timeout=10.0,
        partial_wait_timeout=10.0,
        repair_timeout=30.0,
        repair_rate_limit=rate_limit,
        repair_burst_bytes=4096,
    )

    def measure(strategy: str, slices: int) -> float:
        async def scenario() -> float:
            async with LiveCluster(
                num_servers=8, config=config, payload_bytes=payload_bytes
            ) as cluster:
                stripe = await cluster.write_stripe(spec)
                await cluster.kill_server(stripe.hosts[0])
                start = time.monotonic()
                report = await cluster.repair(
                    stripe.stripe_id,
                    lost_index=0,
                    strategy=strategy,
                    num_slices=slices,
                )
                elapsed = time.monotonic() - start
                assert report.result.verified, (strategy, slices)
                return elapsed

        return asyncio.run(scenario())

    code = make_code(spec)
    recipe = code.repair_recipe(0, range(1, code.n))
    table = Table(
        ["strategy", "slices", "repair time", "predicted transfer",
         "speedup"],
        title=(
            f"Extension: live repair pipelining, {spec}, "
            f"{payload_bytes // 1024} KiB @ {rate_limit / 1e6:.1f} MB/s"
        ),
    )
    rows = []
    for strategy in ("chain", "ppr"):
        base = None
        for slices in slice_counts:
            duration = measure(strategy, slices)
            predicted = build_plan(
                strategy, recipe
            ).estimate_pipelined_transfer_time(
                payload_bytes, rate_limit, slices
            )
            if base is None:
                base = duration
            speedup = base / duration
            rows.append(
                {"strategy": strategy, "slices": slices,
                 "duration_s": duration, "predicted_s": predicted,
                 "speedup_x": speedup}
            )
            table.add_row(
                strategy, slices, f"{duration:.2f}s",
                f"{predicted:.2f}s", f"{speedup:.2f}x",
            )
    notes = (
        "real sockets agree with the simulator: slicing pipelines the "
        "chain's hops toward a single C/B, overtaking the one-slice PPR "
        "tree — the paper's open thread, measured on the live data path"
    )
    return ExperimentResult(
        "ext_live_pipelining", "Live repair pipelining", rows,
        table.render() + "\n" + notes, notes,
    )


# ----------------------------------------------------------------------
# Extension 2: heterogeneous aggregator placement
# ----------------------------------------------------------------------
def ext_heterogeneous(
    k: int = 12,
    m: int = 4,
    chunk_size: str = "64MiB",
    fast_servers: int = 5,
    fast_bandwidth: str = "10Gbps",
    seeds: "Sequence[int]" = (1, 2, 3),
) -> ExperimentResult:
    table = Table(
        ["placement", "mean repair time", "vs naive"],
        title=(
            f"Extension: capacity-aware aggregators, RS({k},{m}), "
            f"{fast_servers} servers at {fast_bandwidth}"
        ),
    )
    means: "Dict[bool, float]" = {}
    rows = []
    for aware in (False, True):
        durations = []
        for seed in seeds:
            cluster = StorageCluster.smallsite(seed=seed)
            for sid in cluster.server_ids[:fast_servers]:
                cluster.topology.set_server_bandwidth(sid, fast_bandwidth)
            stripe = cluster.write_stripe(ReedSolomonCode(k, m), chunk_size)
            result = run_single_repair(
                cluster, stripe, 0, strategy="ppr", capacity_aware=aware
            )
            assert result.verified
            durations.append(result.duration)
        means[aware] = sum(durations) / len(durations)
    for aware in (False, True):
        label = "capacity-aware" if aware else "naive (paper default)"
        gain = 1 - means[aware] / means[False]
        rows.append(
            {"capacity_aware": aware, "mean_s": means[aware], "gain": gain}
        )
        table.add_row(label, f"{means[aware]:.2f}s", fmt_percent(gain))
    notes = (
        "§4.2: with non-homogeneous capacity, assigning the busiest tree "
        "positions (most incoming partials) to the fattest links cuts the "
        "aggregation critical path"
    )
    return ExperimentResult(
        "ext_heterogeneous", "Capacity-aware aggregators", rows,
        table.render() + "\n" + notes, notes,
    )


# ----------------------------------------------------------------------
# Extension 3: TCP-incast ablation (closing the Fig 7d magnitude gap)
# ----------------------------------------------------------------------
def ext_incast(
    codes: "Sequence[Tuple[int, int]]" = ((6, 3), (12, 4)),
    bandwidth: str = "200Mbps",
    chunk_size: str = "64MiB",
) -> ExperimentResult:
    """Fluid vs incast-penalized network, reproducing Fig 7d's magnitudes.

    The paper's traditional repair at 200 Mbps measured ~3.5x *below* the
    fluid-flow bound — the signature of TCP incast at the repair site's
    ingress.  With the opt-in incast model (goodput collapse beyond
    ``threshold`` concurrent fan-in flows) the simulator brackets the
    paper's reported throughputs and gains.
    """
    table = Table(
        ["network model", "code", "traditional MB/s", "PPR MB/s", "gain",
         "paper gain"],
        title=f"Extension: incast ablation, degraded reads at {bandwidth}",
    )
    from repro.analysis import paper_reported as paper

    chunk = parse_size(chunk_size)
    rows = []
    for incast in (None, 2):
        for k, m in codes:
            durations = {}
            for strategy in ("star", "ppr"):
                cluster = StorageCluster.smallsite(
                    link_bandwidth=bandwidth, incast_threshold=incast
                )
                stripe = cluster.write_stripe(
                    ReedSolomonCode(k, m), chunk_size
                )
                result = run_degraded_read(
                    cluster, stripe, 0, strategy=strategy
                )
                assert result.verified
                durations[strategy] = result.duration
            gain = durations["star"] / durations["ppr"]
            label = "incast" if incast else "fluid"
            reported = paper.FIG7D.get((f"RS({k},{m})", bandwidth), {})
            rows.append(
                {"model": label, "k": k, "m": m,
                 "star_mbps": chunk / durations["star"] / 1e6,
                 "ppr_mbps": chunk / durations["ppr"] / 1e6,
                 "gain": gain}
            )
            table.add_row(
                label, f"RS({k},{m})",
                f"{chunk / durations['star'] / 1e6:.1f}",
                f"{chunk / durations['ppr'] / 1e6:.1f}",
                f"{gain:.2f}x",
                f"{reported.get('gain', '—')}x" if reported else "—",
            )
    notes = (
        "the fluid model under-penalizes the traditional k-into-1 funnel; "
        "enabling incast recovers the paper's throughput collapse "
        "(traditional ~1 MB/s) and multi-x gains"
    )
    return ExperimentResult(
        "ext_incast", "Incast ablation", rows, table.render() + "\n" + notes,
        notes,
    )


# ----------------------------------------------------------------------
# Extension 4: degraded-read tail latency under a failure trace
# ----------------------------------------------------------------------
def ext_degraded_tail_latency(
    num_reads: int = 25,
    k: int = 6,
    m: int = 3,
    chunk_size: str = "64MiB",
) -> ExperimentResult:
    """Latency distribution of degraded reads (transient-failure regime).

    90% of failure events are transient (§1), so clients keep hitting
    missing chunks whose repair has been deliberately delayed.  We issue a
    series of degraded reads with both strategies and compare the mean and
    tail.
    """
    table = Table(
        ["strategy", "mean", "p50", "p95", "p99", "p99.9", "max"],
        title=(
            f"Extension: degraded-read latency distribution, RS({k},{m}), "
            f"{chunk_size}, {num_reads} reads"
        ),
    )
    from repro.workloads.userload import UserLoadGenerator

    rows = []
    for strategy in ("star", "ppr"):
        latencies: "List[float]" = []
        for i in range(num_reads):
            cluster = StorageCluster.smallsite(seed=100 + i)
            stripes = [
                cluster.write_stripe(ReedSolomonCode(k, m), chunk_size)
                for _ in range(3)
            ]
            # Background traffic varies per seed, spreading the latencies.
            load = UserLoadGenerator(
                cluster, reads_per_second=0.2 + 0.3 * (i % 4), rng=i
            )
            load.start(duration=20.0)
            cluster.run(until=2.0 + (i % 7) * 0.5)
            stripe = stripes[0]
            lost = i % stripe.code.n
            result = run_degraded_read(
                cluster, stripe, lost, strategy=strategy
            )
            assert result.verified
            latencies.append(result.duration)
        arr = np.array(latencies)
        stats = {
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "p999": float(np.percentile(arr, 99.9)),
            "max": float(arr.max()),
        }
        rows.append({"strategy": strategy, **stats})
        table.add_row(
            strategy,
            *(
                f"{stats[s] * 1e3:.0f}ms"
                for s in ("mean", "p50", "p95", "p99", "p999", "max")
            ),
        )
    notes = (
        "PPR compresses the whole distribution, not just the mean — the "
        "user-facing metric for the transient-failure regime"
    )
    return ExperimentResult(
        "ext_tail_latency", "Degraded-read tail latency", rows,
        table.render() + "\n" + notes, notes,
    )
