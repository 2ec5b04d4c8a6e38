"""Ablation: star vs staggered vs binomial-tree repair.

Its model values are seeded-deterministic and gated exactly
(``tools/bench_compare.py``).  Like ``bench_matrix.py`` it skips the
pytest-benchmark timing fixture: on a shared 2-core box the same call's
median moves by up to 1.6x from one process to the next, so a timing
baseline would flake whatever the round count.
"""

from repro.analysis import experiments


def test_ablation_tree_shapes(save_report):
    result = experiments.ablation_tree_shapes()
    save_report(result)
    by = {row["strategy"]: row for row in result.rows}
    # Staggering removes congestion but serializes: slowest overall (§4.2).
    assert by["staggered"]["duration_s"] > by["star"]["duration_s"]
    # PPR wins on time AND on hotspot size.
    assert by["ppr"]["duration_s"] < by["star"]["duration_s"]
    assert by["ppr"]["max_ingress_chunks"] < by["star"]["max_ingress_chunks"]
