"""Theorem 1: measured network transfer time vs the closed form.

Its model values are seeded-deterministic and gated exactly
(``tools/bench_compare.py``).  Like ``bench_matrix.py`` it skips the
pytest-benchmark timing fixture: on a shared 2-core box the same call's
median moves by up to 1.6x from one process to the next, so a timing
baseline would flake whatever the round count.
"""

import pytest

from repro.analysis import experiments


def test_theorem1_network_times(save_report):
    result = experiments.theorem1_network_times()
    save_report(result)
    for row in result.rows:
        # Simulator within 5% of k*C/B and ceil(log2(k+1))*C/B.
        assert row["meas_star"] == pytest.approx(row["pred_star"], rel=0.05)
        assert row["meas_ppr"] == pytest.approx(row["pred_ppr"], rel=0.05)
