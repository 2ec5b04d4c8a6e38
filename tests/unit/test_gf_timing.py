"""tools/gf_timing.py: the two-tree GF kernel timing harness."""

import importlib.util
import json
import pathlib
import subprocess
import sys

_TOOL = pathlib.Path(__file__).resolve().parents[2] / "tools" / "gf_timing.py"
_spec = importlib.util.spec_from_file_location("gf_timing", _TOOL)
gf_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gf_timing)


def test_quick_run_writes_every_case(tmp_path):
    out = tmp_path / "gf.json"
    subprocess.run(
        [sys.executable, str(_TOOL), "--quick", "--json", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    summary = json.loads(out.read_text())
    expected = [
        f"{kind} {spec} 4K" for spec in gf_timing.CODES for kind in ("encode", "decode")
    ] + ["partial rs(6,3) 64K", "star rs(6,3) 64K"]
    assert sorted(summary) == sorted(expected)
    for row in summary.values():
        assert row["rounds"] == 1 and row["change_ms"] > 0
        assert "parent_ms" not in row


def test_summary_compares_against_the_parents_spread():
    samples = {
        "parent": {"case": [1.0, 2.0, 3.0, 4.0, 5.0]},
        "change": {"case": [6.0, 6.5, 7.0, 7.5, 8.0]},
    }
    row = gf_timing.summarize(samples)["case"]
    assert row["parent_ms"] == 3000.0 and row["change_ms"] == 7000.0
    assert row["parent_iqr_ms"] == 2000.0
    assert row["ratio"] == 7000.0 / 3000.0 and row["slower_than_iqr"]
    samples["change"]["case"] = [4.0] * 5  # 1 s slower: inside the 2 s IQR
    assert not gf_timing.summarize(samples)["case"]["slower_than_iqr"]
