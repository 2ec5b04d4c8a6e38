"""Closed-form predictions from the paper: Theorem 1, Table 1, Table 2, Eq. 1.

These are the analytic targets the simulator's measured numbers are checked
against in the benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List


def ppr_timesteps(k: int) -> int:
    """Theorem 1: PPR finishes network transfer in ``ceil(log2(k+1))`` steps."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return math.ceil(math.log2(k + 1))


def transfer_steps(depth: int, fanin: int, num_slices: int = 1) -> float:
    """Serialized chunk transfers on a repair's critical path.

    The Theorem-1 step count generalized over plan shape and slicing: a
    plan ``depth`` steps deep cut into ``S`` slices fills in ``depth``
    slice-times and drains ``S-1`` more (repair pipelining, Li et al.),
    unless its destination's ingress, receiving ``fanin`` transfers, is
    the slower funnel.  Star (depth 1, fan-in d) and staggered (d, d)
    take ``d``; PPR ``ceil(log2(d+1))`` either way; a chain (d, 1)
    ``(d + S - 1) / S``, tending to one ``C/B``.  At ``S = 1`` it is also
    the transfer depth :mod:`repro.obs.conformance` expects of a repair.
    """
    if depth < 1 or fanin < 1:
        raise ValueError(
            f"depth and fan-in must be >= 1, got {depth} and {fanin}"
        )
    if num_slices < 1:
        raise ValueError(f"num_slices must be >= 1, got {num_slices}")
    return max((depth + num_slices - 1) / num_slices, fanin)


def transfer_time_reduction(k: int) -> float:
    """Fractional network-transfer-time reduction: ``1 - ceil(log2(k+1))/k``."""
    return 1.0 - ppr_timesteps(k) / k


def per_server_bandwidth_reduction(k: int) -> float:
    """Table 1's "maximum BW usage/server" reduction: ``1 - ceil(log2 k)/k``.

    The busiest PPR aggregator moves about ``ceil(log2 k)`` chunks over its
    links versus ``k`` into the traditional repair site.  (Reproduces the
    exact Table 1 column, including the (8,3) row where this differs from
    the transfer-time reduction.)
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 1.0 - math.ceil(math.log2(k)) / k


def memory_footprint_traditional(k: int, chunk_size: float) -> float:
    """§4.3: traditional repair holds about ``k`` chunks in memory."""
    return k * chunk_size


def memory_footprint_ppr(k: int, chunk_size: float) -> float:
    """§4.3: PPR nodes hold at most ``ceil(log2(k+1))`` chunks."""
    return ppr_timesteps(k) * chunk_size


def reconstruction_time_estimate(
    k: int,
    chunk_size: float,
    io_bandwidth: float,
    net_bandwidth: float,
    compute_seconds_per_byte: float,
) -> float:
    """Eq. (1): ``T = C/B_I + k*C/B_N + T_comp(k*C)`` (traditional repair)."""
    return (
        chunk_size / io_bandwidth
        + k * chunk_size / net_bandwidth
        + compute_seconds_per_byte * k * chunk_size
    )


def ppr_reconstruction_time_estimate(
    k: int,
    chunk_size: float,
    io_bandwidth: float,
    net_bandwidth: float,
    compute_seconds_per_byte: float,
) -> float:
    """Eq. (1) rewritten for PPR's critical path.

    The disk read is unchanged, the network term shrinks from ``k`` to
    ``ceil(log2(k+1))`` chunk-times (Theorem 1), and the compute term
    follows Table 2: the critical path carries one multiply plus
    ``ceil(log2(k+1))`` XOR/aggregation stages instead of ``k`` serial
    multiply-XORs, so it scales with the tree depth, not the stripe width.
    """
    steps = ppr_timesteps(k)
    return (
        chunk_size / io_bandwidth
        + steps * chunk_size / net_bandwidth
        + compute_seconds_per_byte * steps * chunk_size
    )


# ----------------------------------------------------------------------
# Regenerating-code repair bandwidth γ(d) and the generalized Eq. (1)
# ----------------------------------------------------------------------
def msr_repair_traffic(k: int, d: int) -> float:
    """MSR repair bandwidth γ(d) in *chunk units*: ``d / (d - k + 1)``.

    The cut-set bound of Dimakis et al. at the minimum-storage point: a
    replacement node contacts ``d`` helpers (``k <= d < n``) and pulls
    ``β = C / (d - k + 1)`` bytes from each, so the total traffic to
    repair one chunk of size ``C`` is ``γ = d·β = d/(d-k+1)`` chunks —
    strictly less than the ``k`` chunks Reed-Solomon moves whenever
    ``d > k``, and minimal at ``d = n - 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < k:
        raise ValueError(f"MSR needs d >= k, got d={d} < k={k}")
    return d / (d - k + 1)


def mbr_repair_traffic(k: int, d: int) -> float:
    """MBR repair bandwidth γ(d) in chunk units: ``2d / (2d - k + 1)``.

    The minimum-bandwidth point of the same cut-set bound: repair
    traffic equals per-node storage (``α = γ``), dropping traffic below
    MSR at the price of each node storing ``2d/(2d-k+1) > 1`` chunks —
    see :func:`mbr_storage_per_chunk`.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < k:
        raise ValueError(f"MBR needs d >= k, got d={d} < k={k}")
    return 2.0 * d / (2.0 * d - k + 1)


def mbr_storage_per_chunk(k: int, d: int) -> float:
    """MBR per-node storage α in chunk units (equal to γ at the MBR point)."""
    return mbr_repair_traffic(k, d)


def model_reconstruction_time(
    steps: float,
    helpers: int,
    traffic_chunks: float,
    chunk_size: float,
    io_bandwidth: float,
    net_bandwidth: float,
    compute_seconds_per_byte: float,
) -> float:
    """Eq. (1) generalized over an arbitrary repair-cost model.

    ``helpers`` sources each ship ``β = traffic_chunks / helpers`` chunk
    units; the network and compute terms scale with the serialized share
    ``steps * β`` of that traffic on the critical path, where ``steps``
    is the scheme's :func:`transfer_steps` for ``d = helpers``.  With
    ``helpers = traffic_chunks = k`` this is *exactly*
    :func:`reconstruction_time_estimate` for the funnel schemes and
    :func:`ppr_reconstruction_time_estimate` for ``ppr``/``mppr``, so
    Reed-Solomon pricing is unchanged by the generalization.
    """
    if traffic_chunks <= 0:
        raise ValueError(f"traffic must be positive, got {traffic_chunks}")
    beta = traffic_chunks / helpers
    serialized_chunks = steps * beta
    return (
        chunk_size / io_bandwidth
        + serialized_chunks * chunk_size / net_bandwidth
        + compute_seconds_per_byte * serialized_chunks * chunk_size
    )


@dataclass(frozen=True)
class Table1Row:
    """One row of the paper's Table 1."""

    k: int
    m: int
    users: str
    network_transfer_reduction: float
    per_server_bw_reduction: float


#: The deployments listed in Table 1.
TABLE1_CODES: "List[tuple[int, int, str]]" = [
    (6, 3, "QFS, Google ColossusFS"),
    (8, 3, "Yahoo Object Store"),
    (10, 4, "Facebook HDFS"),
    (12, 4, "Microsoft Azure"),
]

#: Paper-reported Table 1 percentages, keyed by (k, m).
TABLE1_PAPER: "Dict[tuple[int, int], tuple[float, float]]" = {
    (6, 3): (0.50, 0.50),
    (8, 3): (0.50, 0.625),
    (10, 4): (0.60, 0.60),
    (12, 4): (0.666, 0.666),
}


def table1() -> "List[Table1Row]":
    """Recompute Table 1 from the formulas above."""
    return [
        Table1Row(
            k=k,
            m=m,
            users=users,
            network_transfer_reduction=transfer_time_reduction(k),
            per_server_bw_reduction=per_server_bandwidth_reduction(k),
        )
        for k, m, users in TABLE1_CODES
    ]


@dataclass(frozen=True)
class CriticalPathOps:
    """Table 2: GF operations on the reconstruction critical path."""

    gf_multiplications: int
    xor_operations: int


def critical_path_traditional(k: int) -> CriticalPathOps:
    """Traditional: the repair site does k multiplies and ~k XORs serially."""
    return CriticalPathOps(gf_multiplications=k, xor_operations=k)


def critical_path_ppr(k: int) -> CriticalPathOps:
    """PPR: one multiply (parallel at the leaves), ceil(log2(k+1)) XORs."""
    return CriticalPathOps(
        gf_multiplications=1, xor_operations=ppr_timesteps(k)
    )
