"""Fig 7a: repair-time reduction across codes and chunk sizes.

Its model values are seeded-deterministic and gated exactly
(``tools/bench_compare.py``).  Like ``bench_matrix.py`` it skips the
pytest-benchmark timing fixture: on a shared 2-core box the same call's
median moves by up to 1.6x from one process to the next, so a timing
baseline would flake whatever the round count.
"""

from repro.analysis import experiments, paper_reported


def test_fig7a_repair_reduction(save_report):
    result = experiments.fig7a_repair_reduction(runs=1)
    save_report(result)
    reductions = {}
    for row in result.rows:
        assert 0.2 < row["reduction"] < 0.8
        reductions.setdefault(row["k"], []).append(row["reduction"])
    # Reduction grows with k (paper: highest for RS(12,4)).
    means = {k: sum(v) / len(v) for k, v in reductions.items()}
    ks = sorted(means)
    assert [means[k] for k in ks] == sorted(means[k] for k in ks)
    # Peak is in the neighbourhood of the paper's 59%.
    peak = max(r["reduction"] for r in result.rows)
    assert abs(peak - paper_reported.FIG7A_MAX_REDUCTION) < 0.1
