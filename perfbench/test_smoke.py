"""Smoke check of the benchmark at tiny sizes.

Every metric BENCHMARK.json names is emitted, with its unit, by every
workload, traced and untraced; the correctness checks pass; and the tracer
puts back every entry point it patched. Run from the repository root:

    python -m pytest perfbench -q
"""
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.bootstrap()
import workloads  # noqa: E402
from crfas import diffcore, trainer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _tiny(w: workloads.Workload) -> workloads.Workload:
    # 25 subjects keep at least one dev subject at 20% labels
    return replace(
        w,
        synth=replace(w.synth, subjects=25, per_cell=1),
        train=replace(w.train, epochs=1),
        fit_records=32,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(workloads.WORKLOADS[name]))
    originals = (trainer.fit, trainer.compose_views, diffcore.conv2d, diffcore.Tape.record)
    result, details = run.run_workload(name, seed=3, seconds=0.01, trace=trace, work=tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, details["failures"]
    assert (trainer.fit, trainer.compose_views, diffcore.conv2d, diffcore.Tape.record) == originals
    if trace:
        assert details["backward_spans_in_evaluate"] == 0
