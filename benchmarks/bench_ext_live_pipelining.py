"""Extension: sliced repair pipelining over the live TCP data path.

The streamed repair (`STREAM_BEGIN`/`DATA`/`END` frames, one-way DATA,
per-slice GF aggregation) replayed on real sockets with the repair rate
token-bucket paced to 1 MiB/s, so transfer time dominates localhost
overhead and the C/B convergence of repair pipelining is visible in
wall-clock seconds.  See docs/PIPELINING.md for the math and the
matching simulator sweep (bench_ext_pipelining.py).
"""

from repro.analysis import extensions

BENCH_CONFIG = {
    "spec": "rs(4,2)",
    "payload_bytes": 262144,
    "rate_limit_bytes_per_s": 1048576,
    "slice_counts": [1, 8, 64],
}


def test_ext_live_pipelining(benchmark, save_report):
    result = benchmark.pedantic(
        extensions.ext_live_pipelining, rounds=1, iterations=1
    )
    save_report(result)
    by = {(r["strategy"], r["slices"]): r for r in result.rows}

    # Slicing makes the live chain monotonically faster...
    chain = sorted(
        (r for r in result.rows if r["strategy"] == "chain"),
        key=lambda r: r["slices"],
    )
    times = [r["duration_s"] for r in chain]
    assert times == sorted(times, reverse=True)

    # ...and a well-sliced chain beats the unsliced PPR tree over real
    # sockets, just as in the simulator (bench_ext_pipelining.py).
    assert by[("chain", 64)]["duration_s"] < by[("ppr", 1)]["duration_s"]

    # The paced chain tracks the analytic (D+S-1)·C/(S·B) prediction.
    # (PPR is excluded: per-sender pacing lets its tree steps overlap,
    # so the serial-steps closed form is only an upper bound there.)
    for row in chain:
        assert row["duration_s"] >= row["predicted_s"] * 0.75
        assert row["duration_s"] <= row["predicted_s"] * 1.25

    # Convergence: at S=64 the chain sits within 25% of a single C/B —
    # 4x faster than its own unsliced serial transfer (D·C/B = 1s).
    chunk_over_bw = (
        BENCH_CONFIG["payload_bytes"]
        / BENCH_CONFIG["rate_limit_bytes_per_s"]
    )
    assert by[("chain", 64)]["duration_s"] < chunk_over_bw * 1.25
