"""Smoke test of the e2e benchmark at demo scale (under 20 s).

Not part of tier-1 (``testpaths`` is ``tests``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json

from benchmarks.e2e import compare, run, workloads
from benchmarks.e2e.workloads import SMOKE, WORKLOADS


def test_generator_is_pinned():
    workloads.self_test()


def test_benchmark_json_matches_the_code():
    spec = run.SPEC
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WORKLOADS
    assert spec["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


def test_every_workload_runs_correct_at_smoke_scale():
    # cold_science's live rounds run under the traced test below.
    for name in sorted(set(WORKLOADS) - {"cold_science"}):
        result = run.run_workload(name, seed=0, seconds=0.0, trace=False,
                                  scale=SMOKE)
        assert result["correct"], result["problems"]
        assert result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {
            m["name"] for m in run.SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_attributes_all_of_the_latency(tmp_path):
    result = run.run_workload("cold_science", seed=0, seconds=0.0,
                              trace=True, scale=SMOKE)
    assert result["correct"], result["problems"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    shares = [v for k, v in m.items()
              if k.startswith("trace.") and k.endswith("_share")]
    assert abs(sum(shares) - 1.0) < 1e-9 and min(shares) >= 0.0
    assert m["trace.self_share"] <= 0.25
    assert m["replay.comm_steps"] == 77
    assert m["model.hour_s"] > 0 and m["chemistry.share_of_hour"] > 0
    assert m["probe_latency_s"] > 0

    out = tmp_path / "runs.json"
    run.append_result(out, result)
    record = json.loads(out.read_text())["runs"][0]
    assert {"run_id", "git_sha", "seed", "nproc", "python",
            "numpy"} <= set(record)
    assert compare.main([str(out), str(out)]) == 0
