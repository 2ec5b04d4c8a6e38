"""Computation-time model for reconstruction math.

The paper's prototype uses Jerasure/GF-Complete (SIMD C); reconstruction
compute is a small but measurable slice of total time (Fig 1, Fig 7f).
Defaults below are Jerasure-class throughputs so the simulated regime
matches the paper's ("network dominates, compute visible but small");
what this repo's own pure-python kernel reaches is measured, not
modeled: the ``galois.*`` rungs of ``benchmarks/perf``.

Modeled costs:

* scalar-multiply a buffer by a decoding coefficient — ``bytes / mul_bw``
* XOR two buffers — ``bytes / xor_bw``
* build the decoding matrix — ``inversion_coeff * k^3`` (Gauss-Jordan)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class ComputeModel:
    """Throughput constants used to turn byte counts into virtual seconds."""

    #: GF(2^8) scalar-multiply throughput, bytes/second.
    mul_bandwidth: float = 1.2e9
    #: XOR (GF add) throughput, bytes/second.
    xor_bandwidth: float = 4.0e9
    #: Seconds per k^3 for the decoding-matrix inversion at the RM.
    inversion_coeff: float = 5.0e-8
    #: Fixed overhead per partial-operation dispatch (task setup).
    dispatch_overhead: float = 1.0e-4

    def __post_init__(self) -> None:
        check_positive("mul_bandwidth", self.mul_bandwidth)
        check_positive("xor_bandwidth", self.xor_bandwidth)
        check_non_negative("inversion_coeff", self.inversion_coeff)
        check_non_negative("dispatch_overhead", self.dispatch_overhead)

    def multiply_time(self, nbytes: float) -> float:
        """Time to scale ``nbytes`` by one decoding coefficient."""
        return self.dispatch_overhead + nbytes / self.mul_bandwidth

    def xor_time(self, nbytes: float) -> float:
        """Time to XOR-accumulate an ``nbytes`` buffer."""
        return self.dispatch_overhead + nbytes / self.xor_bandwidth

    def inversion_time(self, k: int) -> float:
        """Time to build the decoding matrix (k x k Gauss-Jordan)."""
        return self.inversion_coeff * k * k * k

    def traditional_decode_time(self, k: int, chunk_bytes: float) -> float:
        """Serial repair-site computation: k multiplies + k XORs (Table 2)."""
        return k * self.multiply_time(chunk_bytes) + k * self.xor_time(
            chunk_bytes
        )

    def ppr_critical_path_time(self, k: int, chunk_bytes: float) -> float:
        """PPR critical path: 1 multiply + ceil(log2(k+1)) XORs (Table 2)."""
        import math

        steps = math.ceil(math.log2(k + 1))
        return self.multiply_time(chunk_bytes) + steps * self.xor_time(
            chunk_bytes
        )


#: Jerasure/GF-Complete-class SIMD throughputs (paper's prototype regime).
JERASURE_PROFILE = ComputeModel()
