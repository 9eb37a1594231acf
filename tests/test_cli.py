"""Tests for the command-line interface (driven in-process)."""

import pickle

import pytest

from repro.cli import DATASETS, build_parser, main


@pytest.fixture(scope="module")
def demo_trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "trace.pkl"
    rc = main([
        "simulate", "--dataset", "demo", "--hours", "1",
        "--trace", str(path),
    ])
    assert rc == 0
    return path


class TestSimulate:
    def test_writes_valid_trace(self, demo_trace_file):
        from repro.model import WorkloadTrace

        with demo_trace_file.open("rb") as fh:
            trace = pickle.load(fh)
        assert isinstance(trace, WorkloadTrace)
        assert trace.nhours == 1

    def test_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--dataset", "mars"])

    def test_dataset_registry(self):
        # the registry is extensible (register_dataset), so other test
        # modules may have added entries; the built-ins must be there
        assert {"la", "ne", "demo"} <= set(DATASETS)


class TestReplay:
    def test_data_parallel(self, demo_trace_file, capsys):
        rc = main(["replay", "--trace", str(demo_trace_file),
                   "--machine", "t3e", "--nodes", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "data-parallel" in out
        assert "Cray T3E" in out

    def test_task_parallel(self, demo_trace_file, capsys):
        rc = main(["replay", "--trace", str(demo_trace_file),
                   "--machine", "paragon", "--nodes", "16", "--mode", "task"])
        assert rc == 0
        assert "task-parallel" in capsys.readouterr().out

    def test_best_mode(self, demo_trace_file, capsys):
        rc = main(["replay", "--trace", str(demo_trace_file),
                   "--machine", "paragon", "--nodes", "4", "--mode", "best"])
        assert rc == 0
        assert "configuration:" in capsys.readouterr().out

    def test_bad_trace_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["replay", "--trace", str(tmp_path / "nope.pkl")])

    def test_non_trace_pickle_rejected(self, tmp_path):
        bad = tmp_path / "bad.pkl"
        with bad.open("wb") as fh:
            pickle.dump({"not": "a trace"}, fh)
        with pytest.raises(SystemExit):
            main(["replay", "--trace", str(bad)])


class TestPredict:
    def test_prediction_table(self, demo_trace_file, capsys):
        rc = main(["predict", "--trace", str(demo_trace_file),
                   "--machine", "t3d", "--nodes", "4", "16"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "error" in out


class TestFigures:
    def test_writes_all_figure_files(self, demo_trace_file, tmp_path, capsys):
        out_dir = tmp_path / "figs"
        rc = main(["figures", "--trace", str(demo_trace_file),
                   "--out", str(out_dir)])
        assert rc == 0
        names = {p.name for p in out_dir.glob("*.txt")}
        assert names == {
            "fig2_machines.txt", "fig4_components.txt",
            "fig5_redistribution.txt", "fig6_comm_predicted.txt",
            "fig7_comp_predicted.txt", "fig9_taskparallel.txt",
        }


class TestTrace:
    def test_writes_chrome_trace(self, demo_trace_file, tmp_path, capsys):
        import json

        out = tmp_path / "trace.json"
        rc = main(["trace", "--workload", str(demo_trace_file),
                   "--machine", "t3e", "--nodes", "8", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["counters"]["phases:compute"] > 0
        text = capsys.readouterr().out
        assert "utilisation" in text
        assert "data-parallel" in text

    def test_trace_utilization_matches_export(self, demo_trace_file, tmp_path):
        """Per-node dur sums in the JSON equal the metric buckets."""
        import collections
        import json

        from repro.model import replay_data_parallel
        from repro.observe import Tracer
        from repro.vm import get_machine, usage_from_spans

        out = tmp_path / "trace.json"
        rc = main(["trace", "--workload", str(demo_trace_file),
                   "--machine", "t3e", "--nodes", "4", "--out", str(out)])
        assert rc == 0
        busy = collections.defaultdict(float)
        for ev in json.loads(out.read_text())["traceEvents"]:
            if ev["ph"] == "X" and ev["args"]["kind"] in ("compute", "io", "comm"):
                busy[ev["tid"]] += ev["dur"] / 1e6
        tracer = Tracer()
        replay_data_parallel(pickle.loads(demo_trace_file.read_bytes()),
                             get_machine("t3e"), 4, tracer=tracer)
        report = usage_from_spans(tracer.spans, 4)
        for node_id, usage in report.nodes.items():
            assert busy[node_id] == pytest.approx(usage.busy)

    def test_task_mode_with_csv_and_compare(self, demo_trace_file, tmp_path,
                                            capsys):
        out = tmp_path / "trace.json"
        csv_path = tmp_path / "spans.csv"
        rc = main(["trace", "--workload", str(demo_trace_file),
                   "--nodes", "6", "--mode", "task", "--out", str(out),
                   "--csv", str(csv_path), "--compare"])
        assert rc == 0
        assert csv_path.read_text().startswith("span_id,")
        text = capsys.readouterr().out
        assert "task-parallel" in text
        assert "predicted" in text

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.dataset == "demo"
        assert args.machine == "t3e"
        assert args.nodes == 8
        assert args.out == "trace.json"


class TestCampaign:
    def test_plan_json(self, tmp_path, capsys):
        import json

        rc = main(["campaign", "plan", "--sweep", "ladder",
                   "--dataset", "demo", "--hours", "1",
                   "--nodes", "4", "16",
                   "--cache-dir", str(tmp_path / "c"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_jobs"] == 2
        assert doc["predicted_makespan_s"] > 0
        assert len(doc["jobs"]) == 2

    def test_run_then_status_then_cached_rerun(self, tmp_path, capsys):
        import json

        cache = str(tmp_path / "c")
        base = ["campaign", "run", "--sweep", "ladder",
                "--dataset", "demo", "--hours", "1", "--nodes", "4", "16",
                "--workers", "2", "--executor", "inline",
                "--cache-dir", cache]
        rc = main(base)
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan: predicted" in out
        assert "2 ok, 0 failed" in out

        rc = main(["campaign", "status", "--cache-dir", cache])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 cached job(s)" in out
        assert "cache counters:" in out          # hit/miss/eviction totals
        assert "jobs shards:" in out             # per-shard occupancy

        rc = main(["campaign", "status", "--cache-dir", cache, "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["jobs"]) == 2
        assert doc["cache"]["total_entries"] == 3  # 1 science + 2 jobs
        assert doc["cache"]["counters"]["corrupt_entries"] == 0

        rc = main(base + ["--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cache_hits"] == 2
        assert all(j["status"] == "cached" for j in doc["jobs"])

    def test_run_recovers_from_injected_fault(self, tmp_path, capsys):
        import json

        rc = main(["campaign", "run", "--sweep", "ensemble",
                   "--dataset", "demo", "--hours", "1", "--members", "1",
                   "--workers", "1", "--executor", "inline",
                   "--cache-dir", str(tmp_path / "c"),
                   "--inject-faults", "1", "--backoff", "0", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["complete"] and doc["retries"] == 1
        assert doc["counters"]["campaign:faults"] == 1

    def test_incomplete_campaign_exits_nonzero(self, tmp_path, capsys):
        rc = main(["campaign", "run", "--sweep", "ladder",
                   "--dataset", "demo", "--hours", "1", "--nodes", "4",
                   "--workers", "1", "--executor", "inline",
                   "--cache-dir", str(tmp_path / "c"),
                   "--inject-faults", "1", "--fault-mode", "hang",
                   "--retries", "0"])
        assert rc == 1
        assert "1 failed" in capsys.readouterr().out

    def test_impossible_task_ladder_is_a_one_line_exit(self, tmp_path):
        """The default ladder starts at P=1: no task mapping exists, and
        that is said once, at plan time, not after the science ran."""
        with pytest.raises(SystemExit, match="needs at least 3 nodes"):
            main(["campaign", "plan", "--sweep", "ladder",
                  "--dataset", "demo", "--hours", "1", "--variant", "task",
                  "--cache-dir", str(tmp_path / "c")])

    def test_empty_status(self, tmp_path, capsys):
        rc = main(["campaign", "status",
                   "--cache-dir", str(tmp_path / "empty")])
        assert rc == 0
        assert "no cached jobs" in capsys.readouterr().out


class TestChemWorkers:
    """--chem-workers through simulate / campaign / serve."""

    def test_simulate_accepts_chem_workers(self, capsys):
        rc = main(["simulate", "--dataset", "demo", "--hours", "1",
                   "--chem-workers", "2", "--chem-tile-cols", "17"])
        assert rc == 0
        assert "hourly mean O3" in capsys.readouterr().out

    def test_campaign_plan_stamps_cores_and_clamps(self, tmp_path, capsys):
        import json

        rc = main(["campaign", "plan", "--sweep", "ladder",
                   "--dataset", "demo", "--hours", "1",
                   "--nodes", "4", "16", "--workers", "8",
                   "--chem-workers", "4", "--host-cores", "8",
                   "--cache-dir", str(tmp_path / "c"), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workers"] == 2  # 8 host cores / 4 per job

    def test_campaign_run_with_chem_workers_matches_default(
            self, tmp_path, capsys):
        import json

        base = ["campaign", "run", "--sweep", "ladder",
                "--dataset", "demo", "--hours", "1", "--nodes", "4",
                "--workers", "1", "--executor", "inline", "--json"]
        rc = main(base + ["--cache-dir", str(tmp_path / "a")])
        assert rc == 0
        plain = json.loads(capsys.readouterr().out)
        rc = main(base + ["--cache-dir", str(tmp_path / "b"),
                          "--chem-workers", "2"])
        assert rc == 0
        tiled = json.loads(capsys.readouterr().out)
        # cores_per_job is presentation-only: same content keys, and
        # both runs complete (bitwise identity is pinned in
        # tests/chemistry/test_tiled.py / tests/model/test_tiled_driver)
        assert tiled["complete"] and plain["complete"]
        assert [j["key"] for j in tiled["jobs"]] == \
            [j["key"] for j in plain["jobs"]]
        from repro.sched import ResultCache, status_rows

        sha_a = [r["sha256"] for r in status_rows(ResultCache(tmp_path / "a"))]
        sha_b = [r["sha256"] for r in status_rows(ResultCache(tmp_path / "b"))]
        assert sha_a and sha_a == sha_b

    def test_defaults(self):
        for argv in (["simulate"], ["campaign", "plan"], ["serve"]):
            args = build_parser().parse_args(argv)
            assert args.chem_workers == 1


class TestServe:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.root == ".repro-service"
        assert args.port == 8642
        assert args.workers == 4
        assert args.executor == "thread"
        assert args.cache_shards == 16
        assert args.cache_max_bytes is None
        assert args.chem_workers == 1

    def test_bad_tenant_weight_rejected(self):
        import pytest

        with pytest.raises(SystemExit, match="tenant-weight"):
            main(["serve", "--tenant-weight", "alice"])
        with pytest.raises(SystemExit, match="not a number"):
            main(["serve", "--tenant-weight", "alice=fast"])

    def test_campaign_run_server_defaults(self):
        args = build_parser().parse_args(["campaign", "run"])
        assert args.server is None
        assert args.tenant == "default"

    def test_campaign_run_against_live_service(self, tmp_path, capsys):
        import threading

        from repro.service import CampaignService, build_http_server

        service = CampaignService(tmp_path / "svc", workers=2,
                                  executor="inline")
        server = build_http_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        service.start()
        host, port = server.server_address[:2]
        try:
            rc = main(["campaign", "run", "--sweep", "ladder",
                       "--dataset", "demo", "--hours", "1",
                       "--nodes", "4", "16",
                       "--server", f"http://{host}:{port}",
                       "--tenant", "alice"])
            out = capsys.readouterr().out
            assert rc == 0
            assert "submitted campaign c000001" in out
            assert "done (2/2 ok)" in out
        finally:
            server.shutdown()
            service.stop()


class TestBench:
    def test_quick_suite_appends_history(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_perf.json"
        rc = main(["bench", "--quick", "--out", str(out)])
        assert rc == 0
        history = json.loads(out.read_text())
        assert len(history["runs"]) == 1
        assert history["runs"][-1]["meta"]["mode"] == "quick"
        assert "appended run" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert not args.quick
        assert args.out is None
        assert args.check_regression is None


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["replay", "--trace", "x.pkl"])
        assert args.machine == "t3e"
        assert args.nodes == 16
        assert args.mode == "data"

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign", "plan"])
        assert args.sweep == "machines"
        assert args.dataset == "la"
        assert args.workers == 4
        assert args.executor == "thread"
        assert args.cache_dir == ".repro-cache"
