"""Simulated repairs conform to the scheme table, sliced or not.

A sliced sim repair is traced like a live one: each slice is detail
outside the causal DAG and each hop is one ``sim.phase`` span, so the
structural Theorem-1 checks see the plan, not the slice count.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.codes.registry import make_code
from repro.core.single_repair import run_single_repair
from repro.fs.cluster import StorageCluster
from repro.obs import causal, conformance
from repro.util.units import parse_bandwidth, parse_size

CHUNK = "64MiB"
BANDWIDTH = "1Gbps"


def traced_sim_repair(strategy: str, num_slices: int):
    cluster = StorageCluster.smallsite(
        num_servers=16, link_bandwidth=BANDWIDTH, seed=2016
    )
    stripe = cluster.write_stripe(make_code("rs(6,3)"), CHUNK)
    tracer = obs.enable(clock=lambda: cluster.sim.now, clock_name="virtual")
    try:
        result = run_single_repair(
            cluster, stripe, lost_index=0, strategy=strategy,
            num_slices=num_slices,
        )
    finally:
        obs.disable()
    assert result.verified
    meta = {
        "chunk_size_bytes": parse_size(CHUNK),
        "net_bandwidth_Bps": parse_bandwidth(BANDWIDTH),
        "io_bandwidth_Bps": parse_bandwidth(cluster.config.disk_bandwidth),
        "io_seek_s": next(iter(cluster.servers.values())).disk.seek_latency,
    }
    spans = list(tracer.spans)
    (dag,) = causal.stitch(spans, clock="virtual")
    return conformance.check_repair(dag, meta=meta), dag, spans


@pytest.mark.parametrize("strategy", ["ppr", "chain"])
@pytest.mark.parametrize("num_slices", [1, 8])
def test_structure_checks_pass(strategy, num_slices):
    report, dag, _ = traced_sim_repair(strategy, num_slices)
    assert dag.slices == num_slices
    by_name = {c.name: c for c in report.checks}
    for name in ("structure.transfer_depth", "structure.ingress_fanin"):
        check = by_name[name]
        assert check.status == conformance.PASS, (
            f"{strategy} S={num_slices} {name}: observed {check.observed} "
            f"!= predicted {check.predicted}"
        )


def test_sliced_hop_is_one_phase_span():
    _, _, spans = traced_sim_repair("chain", 8)
    network = [s for s in spans if s.name == "sim.phase.network"]
    slices = [s for s in spans if s.category == "sim.stream"
              and s.name == "sim.slice.network"]
    # chain over rs(6,3): 6 hops, each cut into 8 slices.
    assert len(network) == 6
    assert all(s.attrs["slices"] == 8 for s in network)
    assert len(slices) == 6 * 8
    assert all("gid" not in s.attrs for s in slices)
