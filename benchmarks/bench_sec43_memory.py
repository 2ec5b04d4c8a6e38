"""§4.3: reduced memory footprint, measured on the simulated cluster.

Its model values are deterministic and gated exactly
(``tools/bench_compare.py``).  Like ``bench_theorem1_transfer.py`` it
skips the pytest-benchmark timing fixture: its two single-shot medians
passed a regeneration of their own baseline only 4 times in 10 on a
shared 2-core box (each call takes 20-40 ms).
"""

import math

import pytest

from repro.codes import ReedSolomonCode
from repro.core.single_repair import run_single_repair
from repro.fs.cluster import StorageCluster
from repro.repair import theory
from repro.util.units import MIB


def measure(k, m, strategy):
    cluster = StorageCluster.smallsite()
    stripe = cluster.write_stripe(ReedSolomonCode(k, m), 64 * MIB)
    return run_single_repair(cluster, stripe, 0, strategy=strategy)


def test_sec43_memory_footprint(save_report):
    from repro.analysis.render import Table

    def run():
        table = Table(
            ["code", "traditional peak (theory k*C)", "PPR peak",
             "PPR bound ceil(log2(k+1))*C"],
            title="Sec 4.3: peak reconstruction memory per node (chunks)",
        )
        rows = []
        for k, m in ((6, 3), (8, 3), (12, 4)):
            star = measure(k, m, "star")
            ppr = measure(k, m, "ppr")
            C = star.chunk_size
            rows.append(
                {"k": k,
                 "star_chunks": star.peak_buffer_bytes / C,
                 "ppr_chunks": ppr.peak_buffer_bytes / C,
                 "bound": math.ceil(math.log2(k + 1))}
            )
            table.add_row(
                f"RS({k},{m})",
                f"{star.peak_buffer_bytes / C:.1f}",
                f"{ppr.peak_buffer_bytes / C:.1f}",
                rows[-1]["bound"],
            )

        class Result:
            experiment_id = "sec43_memory"
            report = table.render()

        Result.rows = rows
        return Result

    result = run()
    save_report(result)
    for row in result.rows:
        # Traditional buffers ~k chunks at the repair site.
        assert row["star_chunks"] == pytest.approx(row["k"], abs=0.01)
        # PPR stays within the paper's ceil(log2(k+1)) bound and well
        # below traditional.
        assert row["ppr_chunks"] <= row["bound"] + 0.01
        assert row["ppr_chunks"] <= row["star_chunks"] / 2


def test_sliced_repair_shrinks_buffers():
    """Pipelining bonus: slices bound memory by fractions of a chunk."""

    def run():
        cluster = StorageCluster.smallsite()
        stripe = cluster.write_stripe(ReedSolomonCode(12, 4), 64 * MIB)
        return run_single_repair(
            cluster, stripe, 0, strategy="chain", num_slices=16
        )

    result = run()
    # The destination must hold the chunk it is rebuilding (~1 C), but no
    # chain node buffers more than that — far below PPR's log2-many
    # chunks, let alone traditional's k.
    assert result.peak_buffer_bytes <= result.chunk_size * 1.2
