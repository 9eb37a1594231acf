"""Command-line interface.

::

    python -m repro simulate --dataset la --hours 4 --trace trace.pkl
    python -m repro replay   --trace trace.pkl --machine t3e --nodes 64
    python -m repro replay   --trace trace.pkl --machine paragon --nodes 64 --mode best
    python -m repro predict  --trace trace.pkl --machine t3e --nodes 16 32 64 128
    python -m repro figures  --trace trace.pkl --out results/
    python -m repro trace    --dataset la --machine t3e --nodes 8 --out trace.json
    python -m repro lint     --driver taskparallel --dataset la --machine t3e -n 64
    python -m repro lint     --campaign ladder:demo --workers 4
    python -m repro lint     --campaign plan.json --timeout 30 --retries 2
    python -m repro lint     --determinism --allowlist .repro-determinism-allow
    python -m repro lint     --tune .repro-tune --drift-band 0.25
    python -m repro campaign plan --sweep machines --dataset la --workers 4
    python -m repro campaign run  --sweep ladder --dataset demo --hours 1
    python -m repro campaign run  --sweep ladder --dataset demo --autotune
    python -m repro campaign run  --sweep ladder --server http://127.0.0.1:8642 --tenant alice
    python -m repro serve    --root .repro-service --port 8642
    python -m repro tune     status --store .repro-tune
    python -m repro tune     ingest --dataset demo --machine t3e --nodes 16
    python -m repro bench    --quick

``simulate`` runs the real numerics and saves a workload trace;
everything downstream replays/predicts from the trace.  ``trace`` runs
a simulated parallel execution with the span tracer attached and
exports a Chrome-trace JSON (open in ``chrome://tracing`` or Perfetto);
see ``docs/OBSERVABILITY.md``.  ``lint`` statically analyzes a driver's
Fx program description — directive consistency, task-graph races,
redistribution costs — without running it; ``lint --campaign`` instead
verifies a campaign plan (cache-key coverage, fusion legality, chain
ordering, runner policy — FX04x) and ``lint --determinism`` runs the
AST nondeterminism sanitizer over the source tree (FX05x); see
``docs/ANALYZE.md``.
``campaign`` plans and runs whole sweeps of simulations as managed,
cached, fault-tolerant jobs; see ``docs/SCHEDULER.md``.  ``serve``
keeps that scheduler resident as a multi-tenant HTTP service with a
crash-safe journal and fair-share queueing (``campaign run --server``
submits to it); see ``docs/SERVICE.md``.  ``tune`` manages the
observed-span calibration store: ``status`` reports the refit model
against the paper constants plus drift, ``ingest`` harvests a traced
replay into the store; ``campaign --autotune`` / ``serve --autotune``
let the calibrated model *choose* each job's configuration, and
``lint --tune`` audits a store (FX06x); see ``docs/TUNING.md``.
``bench`` runs the hot-path perf suite (``benchmarks/perf``) without
PYTHONPATH gymnastics; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from repro.analysis import all_figures, format_table, timing_report, trace_summary
from repro.analyze import (
    ALLOWLIST_FILENAME,
    CostBudget,
    analyze_program,
    available_programs,
    build_program,
    load_allowlist,
    scan_tree,
    verify_campaign,
)
from repro.datasets import DATASET_BUILDERS, get_dataset
from repro.model import (
    AirshedConfig,
    SequentialAirshed,
    WorkloadTrace,
    replay,
    replay_data_parallel,
)
from repro.model.taskparallel import replay_best_configuration
from repro.observe import (
    Tracer,
    predicted_vs_observed,
    write_chrome_trace,
    write_csv,
)
from repro.perfmodel import PerformancePredictor
from repro.sched import (
    CampaignCostModel,
    CampaignRunner,
    FaultPolicy,
    JobSpec,
    ResultCache,
    ensemble_sweep,
    machine_grid,
    plan_campaign,
    scaling_ladder,
    status_rows,
)
from repro.vm import get_machine, usage_from_spans

__all__ = ["main"]

#: The registered datasets (``repro.datasets.registry``).
DATASETS = DATASET_BUILDERS


def _load_trace(path: str) -> WorkloadTrace:
    with Path(path).open("rb") as fh:
        trace = pickle.load(fh)
    if not isinstance(trace, WorkloadTrace):
        raise SystemExit(f"{path} does not contain a WorkloadTrace")
    return trace


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.dataset not in DATASETS:
        raise SystemExit(f"unknown dataset {args.dataset!r}; choose from {sorted(DATASETS)}")
    print(f"building dataset {args.dataset!r}...")
    dataset = get_dataset(args.dataset)
    config = AirshedConfig(
        dataset=dataset, hours=args.hours, start_hour=args.start_hour,
        chem_workers=args.chem_workers, chem_tile_cols=args.chem_tile_cols,
    )
    print(f"simulating {args.hours} hours (real numerics)...")
    result = SequentialAirshed(config).run()
    print()
    print(trace_summary(result.trace))
    print("\nhourly mean O3 (ppm):",
          " ".join(f"{v:.4f}" for v in result.hourly_mean["O3"]))
    if args.trace:
        with Path(args.trace).open("wb") as fh:
            pickle.dump(result.trace, fh)
        print(f"\ntrace written to {args.trace}")
    return 0


def _replay_mode(args: argparse.Namespace, trace: WorkloadTrace, machine,
                 tracer: Optional[Tracer] = None):
    """``(label, timing)`` of the replay ``--mode data|task`` selects."""
    try:
        timing = replay(args.mode, trace, machine, args.nodes,
                        io_nodes=args.io_nodes, tracer=tracer)
    except ValueError as exc:  # an impossible --nodes/--io-nodes mapping
        raise SystemExit(str(exc))
    if args.mode == "task":
        return f"task-parallel (io_nodes={args.io_nodes})", timing
    return "data-parallel", timing


def cmd_replay(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    machine = get_machine(args.machine)
    if args.mode == "best":
        mode, timing = replay_best_configuration(trace, machine, args.nodes)
    else:
        mode, timing = _replay_mode(args, trace, machine)
    print(f"configuration: {mode}")
    print(timing_report(timing))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    machine = get_machine(args.machine)
    predictor = PerformancePredictor(trace, machine)
    rows = []
    for P in args.nodes:
        p = predictor.predict(P)
        measured = replay_data_parallel(trace, machine, P).total_time
        rows.append([P, p.total, measured,
                     100.0 * (p.total - measured) / measured])
    print(format_table(["nodes", "predicted s", "measured s", "error %"], rows))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    trace = _load_trace(args.trace)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in all_figures(trace).items():
        text = format_table(header, rows)
        (out / f"{name}.txt").write_text(text + "\n")
        print(f"=== {name} ===")
        print(text)
        print()
    print(f"figure tables written to {out}/")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    machine = get_machine(args.machine)
    if args.workload:
        trace = _load_trace(args.workload)
    else:
        if args.dataset not in DATASETS:
            raise SystemExit(
                f"unknown dataset {args.dataset!r}; choose from {sorted(DATASETS)}"
            )
        print(f"building dataset {args.dataset!r}...")
        dataset = get_dataset(args.dataset)
        config = AirshedConfig(
            dataset=dataset, hours=args.hours, start_hour=args.start_hour
        )
        print(f"recording workload: {args.hours} hours of real numerics...")
        trace = SequentialAirshed(config).run().trace

    tracer = Tracer()
    mode, timing = _replay_mode(args, trace, machine, tracer=tracer)

    out = write_chrome_trace(tracer, args.out)
    print(f"{mode} on {timing.machine}, {args.nodes} nodes: "
          f"{timing.total_time:.2f} s simulated")
    report = usage_from_spans(tracer.spans, args.nodes)
    print(f"{len(tracer.spans)} spans "
          f"({int(tracer.counters.value('phases:compute'))} compute, "
          f"{int(tracer.counters.value('phases:comm'))} comm, "
          f"{int(tracer.counters.value('phases:io'))} io phases); "
          f"utilisation {100 * report.utilization:.1f}%, "
          f"comm {100 * report.comm_fraction:.1f}%, "
          f"idle {100 * report.idle_fraction:.1f}%")
    print(f"chrome trace written to {out} "
          "(open in chrome://tracing or https://ui.perfetto.dev)")
    if args.csv:
        print(f"span CSV written to {write_csv(tracer, args.csv)}")
    if args.compare:
        if args.mode == "task":
            print("\nnote: §4 predictions assume the data-parallel structure")
        predictor = PerformancePredictor(trace, machine)
        header, rows = predicted_vs_observed(
            predictor.predict(args.nodes), tracer
        )
        print()
        print(format_table(header, rows))
    return 0


def _lint_campaign_specs(plan_arg: str,
                         args: argparse.Namespace) -> List[JobSpec]:
    """Resolve ``lint --campaign``'s PLAN argument into job specs.

    ``PLAN`` is either a JSON file of spec dicts (as produced by
    ``JobSpec.to_dict`` / ``campaign plan --json``) or a sweep form
    ``ladder[:dataset]`` | ``machines[:dataset]`` |
    ``ensemble[:dataset[:members]]``.
    """
    path = Path(plan_arg)
    if path.suffix == ".json" or path.is_file():
        if not path.is_file():
            raise SystemExit(f"campaign plan file not found: {plan_arg}")
        data = json.loads(path.read_text())
        if isinstance(data, dict):
            data = data.get("specs", data.get("jobs", []))
        try:
            return [JobSpec.from_dict(d) for d in data]
        except (TypeError, ValueError) as exc:
            raise SystemExit(f"bad spec in {plan_arg}: {exc}")

    parts = plan_arg.split(":")
    sweep, rest = parts[0], parts[1:]
    dataset = rest[0] if rest and rest[0] else args.dataset
    if sweep == "ladder":
        return scaling_ladder(dataset=dataset, machine=args.machine,
                              hours=args.hours, io_nodes=args.io_nodes)
    if sweep == "machines":
        return machine_grid(dataset=dataset, hours=args.hours,
                            io_nodes=args.io_nodes)
    if sweep == "ensemble":
        members = int(rest[1]) if len(rest) > 1 else 4
        return ensemble_sweep(dataset=dataset, members=members,
                              hours=args.hours, machine=args.machine,
                              io_nodes=args.io_nodes)
    raise SystemExit(
        f"unknown campaign plan {plan_arg!r}: expected a JSON file or "
        "ladder[:dataset] | machines[:dataset] | ensemble[:dataset[:members]]"
    )


def _lint_campaign(args: argparse.Namespace) -> int:
    specs = _lint_campaign_specs(args.campaign, args)
    report = verify_campaign(
        specs,
        workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        executor=args.executor,
    )
    print(report.to_json() if args.json else report.render())
    return report.exit_code


def _lint_determinism(args: argparse.Namespace) -> int:
    root = Path(args.root) if args.root else Path(__file__).resolve().parent
    allow_path = Path(args.allowlist) if args.allowlist \
        else Path(ALLOWLIST_FILENAME)
    allowlist = load_allowlist(allow_path) if allow_path.is_file() else ()
    if args.allowlist and not allow_path.is_file():
        raise SystemExit(f"allowlist not found: {args.allowlist}")
    report = scan_tree(root, allowlist=allowlist)
    print(report.to_json() if args.json else report.render())
    return report.exit_code


def _lint_tune(args: argparse.Namespace) -> int:
    from repro.analyze.tune import lint_tune_store

    report = lint_tune_store(args.tune, band=args.drift_band)
    print(report.to_json() if args.json else report.render())
    return report.exit_code


def cmd_lint(args: argparse.Namespace) -> int:
    modes = [bool(args.campaign), bool(args.determinism), bool(args.tune)]
    if sum(modes) > 1:
        raise SystemExit(
            "--campaign, --determinism and --tune are exclusive modes"
        )
    if args.campaign:
        return _lint_campaign(args)
    if args.determinism:
        return _lint_determinism(args)
    if args.tune:
        return _lint_tune(args)
    budget = None
    if (args.max_step_messages is not None
            or args.max_step_bytes is not None
            or args.max_step_seconds is not None):
        budget = CostBudget(
            max_step_messages=args.max_step_messages,
            max_step_bytes=args.max_step_bytes,
            max_step_seconds=args.max_step_seconds,
        )
    try:
        program = build_program(
            args.driver,
            dataset=args.dataset,
            machine=args.machine,
            nprocs=args.nodes,
            hours=args.hours,
            steps_per_hour=args.steps_per_hour,
            io_nodes=args.io_nodes,
        )
    except KeyError as exc:
        raise SystemExit(str(exc.args[0]) if exc.args else str(exc))
    report = analyze_program(program, budget=budget,
                             crosscheck=args.crosscheck)
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return report.exit_code


def _campaign_specs(args: argparse.Namespace) -> List[JobSpec]:
    try:
        specs = _sweep_specs(args)
    except ValueError as exc:  # a spec the sweep cannot construct
        raise SystemExit(f"invalid campaign: {exc}")
    if getattr(args, "chem_workers", 1) > 1:
        # cores_per_job is presentation-only (bitwise-invariant), so
        # stamping it here never changes job keys or cache hits.
        specs = [replace(s, cores_per_job=args.chem_workers) for s in specs]
    return specs


def _sweep_specs(args: argparse.Namespace) -> List[JobSpec]:
    if args.sweep == "machines":
        return machine_grid(
            dataset=args.dataset,
            machines=tuple(args.machines),
            node_counts=tuple(args.nodes or (16, 64)),
            hours=args.hours,
            start_hour=args.start_hour,
            variant=args.variant,
            io_nodes=args.io_nodes,
        )
    if args.sweep == "ladder":
        return scaling_ladder(
            dataset=args.dataset,
            machine=args.machine,
            node_counts=tuple(args.nodes or (1, 2, 4, 8, 16, 32, 64)),
            hours=args.hours,
            start_hour=args.start_hour,
            variant=args.variant,
            io_nodes=args.io_nodes,
        )
    return ensemble_sweep(
        dataset=args.dataset,
        members=args.members,
        sigma=args.sigma,
        seed=args.seed,
        hours=args.hours,
        start_hour=args.start_hour,
        variant=args.variant,
        machine=args.machine,
        nprocs=(args.nodes or [64])[0],
        io_nodes=args.io_nodes,
    )


def _render_cache_stats(stats: dict) -> str:
    """Shard occupancy and counter totals for ``campaign status``."""
    c = stats["counters"]
    lines = [
        f"cache: {stats['total_entries']} entries, "
        f"{stats['total_bytes']} bytes under {stats['root']}",
        f"cache counters: {int(c.get('hits', 0))} hits, "
        f"{int(c.get('misses', 0))} misses, "
        f"{int(c.get('evictions', 0))} evictions, "
        f"{int(c.get('corrupt_entries', 0))} corrupt",
    ]
    for kind in ("science", "jobs"):
        shards = stats["kinds"][kind]["shards"]
        if shards:
            occupancy = ", ".join(
                f"{name}: {s['entries']}" for name, s in shards.items()
            )
            lines.append(f"{kind} shards: {occupancy}")
    return "\n".join(lines)


def cmd_campaign(args: argparse.Namespace) -> int:
    cache = ResultCache(Path(args.cache_dir))

    if args.action == "status":
        rows = status_rows(cache)
        if args.json:
            print(json.dumps({"jobs": rows, "cache": cache.stats()},
                             indent=2, sort_keys=True))
            return 0
        if not rows:
            print(f"(no cached jobs under {args.cache_dir})")
        else:
            header = ["key", "dataset", "hours", "variant", "machine",
                      "nprocs", "status", "sha256"]
            print(format_table(header, [[r[h] for h in header] for r in rows]))
            print(f"\n{len(rows)} cached job(s) under {args.cache_dir}")
        print()
        print(_render_cache_stats(cache.stats()))
        return 0

    specs = _campaign_specs(args)
    cost_model = CampaignCostModel(cache=cache)

    tuner = None
    tune_store = None
    if args.autotune:
        from repro.tune import Autotuner, CalibrationStore

        tune_store = CalibrationStore(args.tune_store or ".repro-tune")
        tuner = Autotuner(store=tune_store, cache=cache)
        cost_model = tuner.cost_model()

    if args.action == "plan":
        if tuner is not None:
            from repro.tune import AutotunePlanner

            plan = AutotunePlanner(tuner).plan(
                specs, workers=args.workers,
                fuse_ensembles=not args.no_fuse,
                host_cores=args.host_cores,
            )
        else:
            plan = plan_campaign(specs, workers=args.workers,
                                 cost_model=cost_model, cache=cache,
                                 fuse_ensembles=not args.no_fuse,
                                 host_cores=args.host_cores)
        if args.json:
            print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        else:
            rows = [j.row() for j in plan.jobs]
            header = ["key", "job", "predicted_s", "sim_s", "fused",
                      "worker", "start_s", "end_s"]
            if rows:
                print(format_table(header,
                                   [[r[h] for h in header] for r in rows]))
            else:
                print("(empty campaign)")
            print(f"\n{plan.n_jobs} job(s) "
                  f"({plan.n_duplicates} duplicates deduped) on "
                  f"{plan.workers} workers; predicted makespan "
                  f"{plan.predicted_makespan:.3f}s")
            if plan.tuning is not None:
                print(f"autotuned with calibration generation "
                      f"{plan.tuning['generation']} "
                      f"(fingerprint {plan.tuning['fingerprint'] or '-'})")
        return 0

    # run --server: submit to a resident campaign service instead
    if args.server:
        if args.autotune:
            raise SystemExit(
                "--autotune is a planner-side flag: start the service "
                "with `repro serve --autotune` instead"
            )
        from repro.service import ServiceClient

        client = ServiceClient(args.server)
        cid = client.submit(specs, tenant=args.tenant,
                            workers=args.workers)
        print(f"submitted campaign {cid} as tenant {args.tenant!r} "
              f"to {args.server}")
        status = client.wait(cid, timeout=args.wait_timeout)
        rows = client.results(cid)
        if args.json:
            print(json.dumps({"status": status, "jobs": rows},
                             indent=2, sort_keys=True))
        else:
            header = ["key", "job", "status", "attempts", "cached",
                      "sha256"]
            print(format_table(header, [
                [r["key"][:12], r["job"], r["status"], r["attempts"],
                 "yes" if r["from_cache"] else "no",
                 (r["sha256"] or "")[:12]]
                for r in rows
            ]))
            print(f"\ncampaign {cid}: {status['status']} "
                  f"({status['n_ok']}/{status['n_jobs']} ok)")
        return 0 if status["status"] == "done" else 1

    # run locally
    workers = args.workers
    if args.host_cores is not None:
        # Same pool-width clamp the planner applies: one slot per job,
        # each job occupying cores_per_job cores (docs/SCHEDULER.md).
        widest = max((s.cores_per_job for s in specs), default=1)
        workers = max(1, min(workers, args.host_cores // widest))
    fault_policy = None
    if args.inject_faults:
        fault_policy = FaultPolicy.pick(
            [s.key for s in specs], args.inject_faults,
            seed=args.fault_seed, mode=args.fault_mode,
        )
    planner = None
    if tuner is not None:
        from repro.tune import AutotunePlanner

        planner = AutotunePlanner(tuner)
    runner = CampaignRunner(
        cache,
        workers=workers,
        retries=args.retries,
        backoff=args.backoff,
        timeout=args.timeout,
        executor=args.executor,
        fault_policy=fault_policy,
        cost_model=cost_model,
        planner=planner,
        fuse_ensembles=not args.no_fuse,
    )
    report = runner.run(specs)
    if tune_store is not None:
        from repro.tune import harvest_report

        if report.plan.tuning is not None:
            for record in report.plan.tuning["decisions"]:
                tune_store.record_decision(record)
        added = tune_store.add_many(harvest_report(report, source="cli"))
        if not args.json:
            print(f"\ncalibration store {tune_store.root}: "
                  f"+{added} observation(s), "
                  f"generation {tune_store.generation}")
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.complete else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import CampaignService, build_http_server

    weights = {}
    for entry in args.tenant_weight or []:
        name, _, value = entry.partition("=")
        if not name or not value:
            raise SystemExit(
                f"bad --tenant-weight {entry!r}: expected NAME=WEIGHT"
            )
        try:
            weights[name] = float(value)
        except ValueError:
            raise SystemExit(f"bad --tenant-weight {entry!r}: "
                             f"{value!r} is not a number")
    service = CampaignService(
        args.root,
        workers=args.workers,
        executor=args.executor,
        retries=args.retries,
        backoff=args.backoff,
        timeout=args.timeout,
        tenant_weights=weights,
        cache_shards=args.cache_shards,
        cache_max_bytes=args.cache_max_bytes,
        chem_workers=args.chem_workers,
        autotune=args.autotune,
        tune_store=args.tune_store,
    )
    server = build_http_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    service.start()
    n_resumed = sum(
        1 for c in service.campaigns.values()
        if c.status in ("queued", "running")
    )
    print(f"campaign service on http://{host}:{port} "
          f"(state: {args.root}, {len(service.campaigns)} campaign(s), "
          f"{n_resumed} resumed)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down (journal compacts on stop)...")
    finally:
        server.shutdown()
        service.stop()
    return 0


def _tune_status(args: argparse.Namespace) -> int:
    from repro.perfmodel.calibrate import drift_report, refit_observations
    from repro.tune import CalibrationStore
    from repro.vm.machine import HOST_OPS_PER_SECOND

    store = CalibrationStore(args.store)
    scan = store.scan()
    refit = refit_observations(scan.observations)
    model = refit.model
    drift = drift_report(scan.observations, band=args.drift_band)
    if args.json:
        print(json.dumps({
            "store": store.stats(),
            "model": model.to_dict(),
            "notes": refit.notes,
            "drift": drift,
        }, indent=2, sort_keys=True))
        return 0

    stats = store.stats()
    print(f"calibration store {stats['root']}: "
          f"{stats['n_observations']} observation(s), "
          f"{stats['n_decisions']} decision(s), "
          f"generation {stats['generation']} "
          f"(fingerprint {stats['fingerprint'] or '-'})")
    for error in scan.errors:
        print(f"  integrity error: {error}")
    print()

    rows = [["host ops/s", f"{HOST_OPS_PER_SECOND:.4g}",
             f"{model.host_ops_per_second:.4g}",
             "yes" if model.host_ops_per_second != HOST_OPS_PER_SECOND
             else "no"]]
    for name in sorted(model.comm):
        paper = get_machine(name)
        fitted = model.comm[name]
        for label, p, f in (("L", paper.latency, fitted.latency),
                            ("G", paper.gap, fitted.gap),
                            ("H", paper.copy_cost, fitted.copy_cost)):
            rows.append([f"{name} {label}", f"{p:.4g}", f"{f:.4g}",
                         "yes" if f != p else "no"])
    for name in sorted(model.machine_rates):
        paper = get_machine(name)
        f = model.machine_rates[name]
        rows.append([f"{name} s/op", f"{paper.seconds_per_op:.4g}",
                     f"{f:.4g}",
                     "yes" if f != paper.seconds_per_op else "no"])
    if model.tile_fraction is not None:
        rows.append(["tiled fraction f*e", "(per-trace)",
                     f"{model.tile_fraction:.4g}", "yes"])
    print(format_table(["quantity", "paper", "refit", "diverged"], rows))

    if refit.notes:
        print()
        for note in refit.notes:
            if note["kind"] == "fallback":
                print(f"fallback: {note['quantity']} "
                      f"({note['samples']} < {note['min_samples']} "
                      "samples; paper constant kept)")
            else:
                print(f"outliers: {note['quantity']} "
                      f"rejected {note['rejected']}/{note['samples']}")
    print()
    if not drift:
        print("drift: no phase key has enough predicted observations")
    else:
        drifted = [d for d in drift if d["drifted"]]
        print(f"drift: {len(drifted)}/{len(drift)} phase key(s) outside "
              f"the {args.drift_band:.0%} band")
        for d in drifted:
            print(f"  {d['phase_key']}: median error "
                  f"{d['median_error']:.1%} over {d['samples']} sample(s)")
    return 0


def _tune_ingest(args: argparse.Namespace) -> int:
    from repro.tune import (
        CalibrationStore,
        observations_from_timelines,
        observations_from_tracer,
        traced_replay,
        utc_timestamp,
    )

    if args.workload:
        trace = _load_trace(args.workload)
    else:
        if args.dataset not in DATASETS:
            raise SystemExit(
                f"unknown dataset {args.dataset!r}; "
                f"choose from {sorted(DATASETS)}"
            )
        print(f"building dataset {args.dataset!r}...")
        dataset = get_dataset(args.dataset)
        config = AirshedConfig(
            dataset=dataset, hours=args.hours, start_hour=args.start_hour
        )
        print(f"recording workload: {args.hours} hours of real numerics...")
        trace = SequentialAirshed(config).run().trace

    machine = get_machine(args.machine)
    print(f"replaying on {args.machine}/{args.nodes} with tracing...")
    tracer, timeline = traced_replay(trace, machine, args.nodes)
    stamp = utc_timestamp()
    observations = observations_from_tracer(
        tracer, dataset=args.dataset, machine=args.machine,
        nprocs=args.nodes, trace=trace, source="ingest", timestamp=stamp,
    ) + observations_from_timelines(
        [timeline], dataset=args.dataset, machine=args.machine,
        nprocs=args.nodes, source="ingest", timestamp=stamp,
    )
    store = CalibrationStore(args.store)
    added = store.add_many(observations)
    print(f"ingested {added} new observation(s) "
          f"({len(observations) - added} duplicate(s)) into {store.root}; "
          f"generation {store.generation}")
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    if args.action == "status":
        return _tune_status(args)
    return _tune_ingest(args)


def cmd_bench(args: argparse.Namespace) -> int:
    repo_root = Path(__file__).resolve().parents[2]
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    try:
        from benchmarks.perf.suite import main as bench_main
    except ImportError as exc:  # pragma: no cover - source-tree layout only
        raise SystemExit(
            f"benchmarks/perf not importable from {repo_root}: {exc}"
        )
    bench_argv: List[str] = []
    if args.quick:
        bench_argv.append("--quick")
    if args.out:
        bench_argv += ["--out", args.out]
    if args.check_regression is not None:
        bench_argv += ["--check-regression", str(args.check_regression)]
    if args.tune_store:
        bench_argv += ["--tune-store", args.tune_store]
    return bench_main(bench_argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Airshed (IPPS'98 HPF case study) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the real model, record a trace")
    p.add_argument("--dataset", default="demo", help="la | ne | demo")
    p.add_argument("--hours", type=int, default=4)
    p.add_argument("--start-hour", type=int, default=6)
    p.add_argument("--chem-workers", type=int, default=1,
                   help="tiled-chemistry worker threads (results are "
                        "bitwise identical at every count)")
    p.add_argument("--chem-tile-cols", type=int, default=None,
                   help="fixed columns per chemistry tile (default: "
                        "one balanced tile per worker)")
    p.add_argument("--trace", help="output path for the pickled trace")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="simulate parallel execution of a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--machine", default="t3e", help="t3e | t3d | paragon")
    p.add_argument("--nodes", type=int, default=16)
    p.add_argument("--mode", choices=["data", "task", "best"], default="data")
    p.add_argument("--io-nodes", type=int, default=1)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("predict", help="Section 4 performance prediction")
    p.add_argument("--trace", required=True)
    p.add_argument("--machine", default="t3e")
    p.add_argument("--nodes", type=int, nargs="+", default=[4, 16, 64])
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("figures", help="regenerate the paper's figure tables")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default="figures")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser(
        "trace",
        help="run a simulated parallel execution, export a Chrome trace",
    )
    p.add_argument("--dataset", default="demo", help="la | ne | demo")
    p.add_argument("--hours", type=int, default=4)
    p.add_argument("--start-hour", type=int, default=6)
    p.add_argument("--workload",
                   help="replay a pickled WorkloadTrace instead of simulating")
    p.add_argument("--machine", default="t3e", help="t3e | t3d | paragon")
    p.add_argument("--nodes", type=int, default=8)
    p.add_argument("--mode", choices=["data", "task"], default="data")
    p.add_argument("--io-nodes", type=int, default=1)
    p.add_argument("--out", default="trace.json",
                   help="Chrome-trace JSON output path")
    p.add_argument("--csv", help="also write a flat per-span CSV here")
    p.add_argument("--compare", action="store_true",
                   help="print the §4 predicted-vs-observed table")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "lint",
        help="statically analyze a driver program, a campaign plan "
             "(--campaign) or the source tree (--determinism)",
    )
    p.add_argument("--campaign", metavar="PLAN",
                   help="verify a campaign plan instead (FX04x): a JSON "
                        "file of spec dicts, or ladder[:dataset] | "
                        "machines[:dataset] | ensemble[:dataset[:members]]")
    p.add_argument("--determinism", action="store_true",
                   help="run the determinism sanitizer over the source "
                        "tree instead (FX05x)")
    p.add_argument("--tune", metavar="STORE",
                   help="audit a calibration store instead (FX06x): "
                        "drift, refit fallbacks, integrity, stale "
                        "decisions")
    p.add_argument("--drift-band", type=float, default=0.25,
                   help="FX060 relative-error band for --tune "
                        "(strictly-exceeds flags)")
    p.add_argument("--root",
                   help="package root to scan with --determinism "
                        "(default: the installed repro package)")
    p.add_argument("--allowlist",
                   help="determinism allowlist path (default: "
                        f"./{ALLOWLIST_FILENAME} when present)")
    p.add_argument("--workers", type=int, default=4,
                   help="planner worker slots for --campaign")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout verified by FX044 (--campaign)")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget verified by FX045 (--campaign)")
    p.add_argument("--executor", choices=["thread", "process", "inline"],
                   default="thread",
                   help="executor kind verified by FX045 (--campaign)")
    p.add_argument("--driver", default="dataparallel",
                   help=" | ".join(available_programs()))
    p.add_argument("--dataset", default="la", help="la | ne | demo")
    p.add_argument("--machine", default="t3e", help="t3e | t3d | paragon")
    p.add_argument("-n", "--nodes", type=int, default=64)
    p.add_argument("--hours", type=int, default=4)
    p.add_argument("--steps-per-hour", type=int, default=6)
    p.add_argument("--io-nodes", type=int, default=1)
    p.add_argument("--max-step-messages", type=int,
                   help="FX020 budget: messages per communication step")
    p.add_argument("--max-step-bytes", type=int,
                   help="FX020 budget: network bytes per communication step")
    p.add_argument("--max-step-seconds", type=float,
                   help="FX020 budget: seconds per communication step")
    p.add_argument("--crosscheck", action="store_true",
                   help="replay the driver on a synthetic workload and "
                        "verify the executed communication steps match "
                        "the static plan (FX030)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON report instead of text")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "campaign",
        help="plan / run / inspect a sweep of managed simulation jobs",
    )
    p.add_argument("action", choices=["plan", "run", "status"])
    p.add_argument("--sweep", choices=["machines", "ladder", "ensemble"],
                   default="machines",
                   help="sweep shape (see repro.sched.sweeps)")
    p.add_argument("--dataset", default="la", help="la | ne | demo")
    p.add_argument("--hours", type=int, default=2)
    p.add_argument("--start-hour", type=int, default=6)
    p.add_argument("--variant", choices=["sequential", "data", "task"],
                   default="data")
    p.add_argument("--machines", nargs="+",
                   default=["t3e", "t3d", "paragon"],
                   help="machines for --sweep machines")
    p.add_argument("--machine", default="t3e",
                   help="machine for --sweep ladder/ensemble")
    p.add_argument("--nodes", type=int, nargs="+",
                   help="node counts (default depends on sweep)")
    p.add_argument("--io-nodes", type=int, default=1)
    p.add_argument("--members", type=int, default=4,
                   help="ensemble members for --sweep ensemble")
    p.add_argument("--sigma", type=float, default=0.3,
                   help="emission perturbation sigma (ensemble)")
    p.add_argument("--seed", type=int, default=0,
                   help="ensemble base seed")
    p.add_argument("--workers", type=int, default=4,
                   help="bounded worker-pool size")
    p.add_argument("--chem-workers", type=int, default=1,
                   help="cores_per_job for every generated spec: each "
                        "job's tiled chemistry runs on this many "
                        "threads (bitwise-invariant; never hashed)")
    p.add_argument("--host-cores", type=int, default=None,
                   help="total cores the plan may occupy at once; "
                        "clamps workers to host_cores // chem_workers")
    p.add_argument("--no-fuse", action="store_true",
                   help="schedule ensemble members as independent "
                        "chains instead of fusing their science into "
                        "one batched sweep")
    p.add_argument("--autotune", action="store_true",
                   help="let the calibrated model choose each job's "
                        "machine/P/cores (science keys and results are "
                        "untouched; see docs/TUNING.md)")
    p.add_argument("--tune-store", default=None,
                   help="calibration store root for --autotune "
                        "(default .repro-tune)")
    p.add_argument("--cache-dir", default=".repro-cache",
                   help="content-addressed result cache root")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock timeout in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="retry budget per job")
    p.add_argument("--backoff", type=float, default=0.25,
                   help="base retry backoff in seconds (doubles per retry)")
    p.add_argument("--executor", choices=["thread", "process", "inline"],
                   default="thread")
    p.add_argument("--inject-faults", type=int, default=0, metavar="N",
                   help="deterministically fault N jobs once (fault drill)")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--fault-mode", choices=["raise", "hang"],
                   default="raise")
    p.add_argument("--server", metavar="URL",
                   help="submit the run to a resident campaign service "
                        "(repro serve) instead of executing locally")
    p.add_argument("--tenant", default="default",
                   help="tenant name for --server submissions")
    p.add_argument("--wait-timeout", type=float, default=600.0,
                   help="seconds to wait for a --server campaign")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output instead of text")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the always-on multi-tenant campaign service",
    )
    p.add_argument("--root", default=".repro-service",
                   help="service state directory (journal, snapshot, "
                        "shared result cache)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--workers", type=int, default=4,
                   help="wave width and bounded worker-pool size")
    p.add_argument("--executor", choices=["thread", "process", "inline"],
                   default="thread")
    p.add_argument("--retries", type=int, default=2)
    p.add_argument("--backoff", type=float, default=0.25)
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock timeout in seconds")
    p.add_argument("--tenant-weight", action="append", metavar="NAME=W",
                   help="fair-share weight for a tenant (repeatable; "
                        "default 1.0)")
    p.add_argument("--cache-shards", type=int, default=16)
    p.add_argument("--cache-max-bytes", type=int, default=None,
                   help="LRU-evict the shared cache above this size")
    p.add_argument("--chem-workers", type=int, default=1,
                   help="default cores_per_job for submitted jobs "
                        "(tiled chemistry threads; bitwise-invariant)")
    p.add_argument("--autotune", action="store_true",
                   help="replan every wave with the freshest "
                        "calibration and harvest wave reports back "
                        "into the store")
    p.add_argument("--tune-store", default=None,
                   help="calibration store root (default <root>/tune "
                        "with --autotune; harvest-only without)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "tune",
        help="inspect or feed the observed-span calibration store",
    )
    p.add_argument("action", choices=["status", "ingest"])
    p.add_argument("--store", default=".repro-tune",
                   help="calibration store root")
    p.add_argument("--dataset", default="demo", help="la | ne | demo")
    p.add_argument("--machine", default="t3e", help="t3e | t3d | paragon")
    p.add_argument("--nodes", type=int, default=16,
                   help="node count for the ingest replay")
    p.add_argument("--hours", type=int, default=2)
    p.add_argument("--start-hour", type=int, default=6)
    p.add_argument("--workload",
                   help="ingest from a pickled WorkloadTrace instead of "
                        "simulating one")
    p.add_argument("--drift-band", type=float, default=0.25,
                   help="relative-error band for the drift section of "
                        "status")
    p.add_argument("--json", action="store_true",
                   help="machine-readable JSON output instead of text")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "bench",
        help="run the hot-path perf suite (benchmarks/perf)",
    )
    p.add_argument("--quick", action="store_true",
                   help="only the sub-second benchmarks (CI smoke mode)")
    p.add_argument("--out", help="output JSON path (default BENCH_perf.json)")
    p.add_argument("--check-regression", type=float, default=None,
                   metavar="FACTOR",
                   help="exit 1 if any median exceeds FACTOR x baseline")
    p.add_argument("--tune-store", default=None,
                   help="record this calibration store's generation and "
                        "latest decision into the run metadata")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
