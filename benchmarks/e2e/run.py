"""End-to-end and per-layer benchmark through the live daemon.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out FILE] [--smoke]

(also ``PYTHONPATH=src python -m benchmarks.e2e.run``).  Every round
starts a real ``python -m repro serve --port 0 --workers 2`` on a fresh
state directory, drives it over HTTP, checks every delivered row and
stops it; rounds repeat until ``--seconds`` of makespan have been
measured.  The last line printed is one JSON object: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1`` (which also runs one traced in-process round and the
layer micro-benchmarks).  See ``README.md`` beside this file.
"""

from __future__ import annotations

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]
for _p in (str(_ROOT), str(_ROOT / "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import uuid  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence  # noqa: E402

import numpy  # noqa: E402

from benchmarks.e2e import layers, tracing  # noqa: E402
from benchmarks.e2e.check import Gate  # noqa: E402
from benchmarks.e2e.harness import (  # noqa: E402
    REPO_ROOT,
    WORK,
    WORKERS,
    Daemon,
    children_peak_rss_mb,
    fresh_root,
)
from benchmarks.e2e.loadgen import LoadGen, Sample  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    FULL,
    SMOKE,
    WORKLOADS,
    Round,
    Scale,
    make_round,
    replay_campaigns,
)

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
LAG_LIMIT_MS = 10.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (defined for any sample count >= 1)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def stat(samples: Any, q: float = 0.5) -> Dict[str, Any]:
    """A metric value with the spread it was taken from.

    A list reduces to its ``q`` percentile (the median interpolates as
    :func:`statistics.median` does) and keeps n / min / quartiles; a
    bare number is an exact count or a single reading (n = 1).
    """
    if not isinstance(samples, (list, tuple)):
        return {"value": samples, "n": 1}
    if not samples:
        return {"value": 0.0, "n": 0}
    value = (statistics.median(samples) if q == 0.5
             else percentile(samples, q))
    return {"value": value, "n": len(samples), "min": min(samples),
            "q1": percentile(samples, 0.25), "q3": percentile(samples, 0.75)}


# ---------------------------------------------------------------------------
# one live round
# ---------------------------------------------------------------------------
@dataclass
class RoundResult:
    setup_s: float
    makespan_s: float
    samples: List[Sample]
    cpu_s: float
    wall_s: float
    counters: Dict[str, float]      # /api/stats deltas over the measured part
    status_rtts: List[float]
    requests: int

    @property
    def jobs(self) -> int:
        return sum(len(s.campaign.keys) for s in self.samples)


def _drive(gen: LoadGen, rnd: Round) -> List[Sample]:
    return gen.closed(rnd.clients) if rnd.clients else gen.schedule(
        rnd.schedule)


def _makespan(samples: List[Sample], t_end: float) -> float:
    ends = [s.seen if s.seen is not None else t_end for s in samples]
    return max(ends) - min(s.due for s in samples)


def _flat_counters(stats: Dict[str, Any]) -> Dict[str, float]:
    flat = dict(stats["counters"])
    for name, hist in stats["histograms"].items():
        flat[f"{name}:count"] = hist["count"]
        flat[f"{name}:total"] = hist["total"]
    for name, value in stats["cache"]["counters"].items():
        flat[f"cache:{name}"] = value
    return flat


def live_round(rnd: Round, gate: Gate) -> RoundResult:
    root = fresh_root()
    t0 = time.perf_counter()
    daemon = Daemon(root)
    try:
        prefill = LoadGen(daemon.client).closed([rnd.prefill])
        setup_s = time.perf_counter() - t0
        before = _flat_counters(daemon.client.stats())
        gen = LoadGen(daemon.client)
        samples = _drive(gen, rnd)
        makespan_s = _makespan(samples, gen.clock())
        # Read once, after timing stops: stats walks the cache directory.
        after = _flat_counters(daemon.client.stats())
        for s in (*prefill, *samples):
            gate.check(s.campaign, s.status, gen.rows(s))
    finally:
        cpu_s, wall_s = daemon.stop()
        shutil.rmtree(root, ignore_errors=True)
    return RoundResult(
        setup_s=setup_s, makespan_s=makespan_s, samples=samples,
        cpu_s=cpu_s, wall_s=wall_s,
        counters={k: v - before.get(k, 0.0) for k, v in after.items()},
        status_rtts=gen.status_rtts,
        requests=len(gen.status_rtts) + gen.other_requests,
    )


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------
def _ms(values: Sequence[float]) -> List[float]:
    return [v * 1e3 for v in values]


def end_to_end(rounds: List[RoundResult]) -> Dict[str, Dict[str, Any]]:
    return {
        "setup_s": stat([r.setup_s for r in rounds]),
        "makespan_s": stat([r.makespan_s for r in rounds]),
        "jobs_per_s": stat([r.jobs / r.makespan_s for r in rounds]),
        "daemon_cpu_s": stat([r.cpu_s for r in rounds]),
        "daemon_peak_rss_mb": stat(children_peak_rss_mb()),
    }


def live_layers(rounds: List[RoundResult], gate: Gate
                ) -> Dict[str, Dict[str, Any]]:
    """Per-layer numbers the untraced rounds already hold."""
    samples = [s for r in rounds for s in r.samples]
    total: Dict[str, float] = {}
    for r in rounds:
        for name, value in r.counters.items():
            total[name] = total.get(name, 0.0) + value

    def summed(suffix: str) -> float:
        return sum(v for k, v in total.items() if k.endswith(suffix))

    def phase_ms(phase: str, q: float) -> Dict[str, Any]:
        return stat(_ms([s.latency_s for s in samples
                         if s.campaign.phase == phase
                         and s.seen is not None]), q)

    latencies = _ms([s.latency_s for s in samples if s.seen is not None])
    waves = total.get("service:waves", 0.0)
    jobs = sum(r.jobs for r in rounds)
    members = sum(1 for s in samples for spec in s.campaign.specs
                  if spec.perturb_seed is not None)
    lookups = total.get("cache:hits", 0.0) + total.get("cache:misses", 0.0)
    waits = summed(":queue_wait_s:count")
    return {
        "probe_latency_s": stat(
            [s.latency_s for s in samples
             if s.campaign.phase == "probe" and s.seen is not None]),
        "latency_ms_p50_r10": phase_ms("r10", 0.5),
        "latency_ms_p90_r10": phase_ms("r10", 0.9),
        "latency_ms_p50_r30": phase_ms("r30", 0.5),
        "latency_ms_p90_r30": phase_ms("r30", 0.9),
        "failed_share": stat(gate.failed / max(gate.attempted, 1)),
        "submit_ack_ms_p50": stat(_ms([s.ack_s for s in samples])),
        "campaign_latency_ms_p50": stat(latencies),
        "campaign_latency_ms_p90": stat(latencies, 0.9),
        "http.status_ms_p50": stat(
            _ms([t for r in rounds for t in r.status_rtts])),
        "http.requests": stat(sum(r.requests for r in rounds)),
        "loadgen.poll_requests": stat(
            sum(len(r.status_rtts) for r in rounds)),
        "loadgen.lag_ms_p90": stat(
            _ms([s.submit_start - s.due for s in samples]), 0.9),
        "queue.wait_ms_mean": stat(
            summed(":queue_wait_s:total") * 1e3 / waits if waits else 0.0),
        "daemon.waves": stat(waves),
        "daemon.jobs_per_wave": stat(jobs / waves if waves else 0.0),
        "daemon.cpu_busy_share": stat(
            sum(r.cpu_s for r in rounds)
            / (sum(r.wall_s for r in rounds) * WORKERS)),
        "cache.hit_ratio": stat(
            total.get("cache:hits", 0.0) / lookups if lookups else 0.0),
        "batched.fused_share": stat(
            total.get("campaign:batched_members", 0.0) / members
            if members else 0.0),
    }


# ---------------------------------------------------------------------------
# the traced round
# ---------------------------------------------------------------------------
def traced_round(workload: str, rnd: Round, gate: Gate,
                 untraced_makespan_s: float) -> Dict[str, Dict[str, Any]]:
    root = fresh_root()
    svc = tracing.TracedService(root)
    try:
        try:
            prefill = LoadGen(svc.client).closed([rnd.prefill])
            t0 = svc.log.clock()
            journal_bytes = svc.journal.journal_path.stat().st_size
            gen = LoadGen(svc.client)
            samples = _drive(gen, rnd)
            makespan_s = _makespan(samples, gen.clock())
            journal_bytes = (svc.journal.journal_path.stat().st_size
                             - journal_bytes)
            for s in (*prefill, *samples):
                gate.check(s.campaign, s.status, gen.rows(s))
        finally:
            svc.stop()
        recs = svc.log.since(t0)
        specs = {s.key: s for c in rnd.measured for s in c.specs}
        totals, waves = tracing.attribute(recs, samples, specs)
        trace_path = tracing.export_chrome_trace(
            recs, samples, waves, WORK / f"trace-{workload}.json")
        print(f"chrome trace: {trace_path.relative_to(REPO_ROOT)}")

        out = layers.store_layers(svc.cache, svc.journal,
                                  list(specs.values()))
        t_compact = time.perf_counter()
        svc.service.compact()
        out["jobstore.compact_ms"] = (time.perf_counter() - t_compact) * 1e3
    finally:
        shutil.rmtree(root, ignore_errors=True)

    def durations_ms(name: str) -> List[float]:
        return _ms([r.duration for r in recs if r.name == name])

    appends = [r for r in recs if r.name == "journal.append"]
    submit_journal = tracing.submit_appends(appends)
    jobs = sum(len(s.campaign.keys) for s in samples)
    delivery_self = [
        (w.end - w.ran) - sum(r.duration for r in appends
                              if w.ran <= r.start and r.end <= w.end)
        for w in waves
    ]
    waits = [x for w in waves for x in w.waits]
    attributed = sum(totals.values())
    out.update({
        "http.submit_ms_p50": _ms([
            s.ack_s - submit_journal.get(s.cid, 0.0) for s in samples]),
        "jobstore.appends_per_job": len(appends) / jobs,
        "jobstore.journal_bytes_per_job": journal_bytes / jobs,
        "queue.wait_ms_p50": _ms(waits),
        "daemon.wave_ms_p50": _ms([w.duration for w in waves]),
        "daemon.self_ms_per_job": sum(delivery_self) * 1e3 / jobs,
        "planner.plan_ms_per_wave_p50": _ms([w.plan_s for w in waves]),
        "runner.self_ms_per_wave": _ms([
            w.comp["self"] - d for w, d in zip(waves, delivery_self)]),
        "cache.get_job_ms_p50": durations_ms("cache.get_job"),
        "cache.put_job_ms_p50": durations_ms("cache.put_job"),
        "cache.get_science_ms_p50": durations_ms("cache.get_science"),
        "cache.put_science_ms_p50": durations_ms("cache.put_science"),
        "trace.overhead_ratio": makespan_s / untraced_makespan_s,
    })
    result = {name: stat(value) for name, value in out.items()}
    result["queue.wait_ms_p90"] = stat(_ms(waits), 0.9)
    for cat in tracing.CATEGORIES:
        result[f"trace.{cat}_share"] = stat(totals[cat] / attributed)
    return result


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------
def per_layer(workload: str, seed: int, scale: Scale,
              rounds: List[RoundResult], gate: Gate,
              problems: List[str]) -> Dict[str, Dict[str, Any]]:
    """Everything ``--trace 1`` reports, checked as it is gathered."""
    rnd = make_round(workload, seed, 0, scale)
    metrics = live_layers(rounds, gate)
    metrics.update(traced_round(
        workload, rnd, gate,
        statistics.median(r.makespan_s for r in rounds)))
    direct = layers.service_layers(replay_campaigns(seed, FULL)[0].specs)
    # The model layers run real numerics: only where the round does,
    # i.e. it delivers science its set-up did not already store.
    stored = {s.science_key for c in rnd.prefill for s in c.specs}
    cold = [s for c in rnd.measured for s in c.specs
            if s.science_key not in stored]
    if cold:
        direct.update(layers.model_layers(cold[0]))
        members = [s for s in cold if s.perturb_seed is not None][:WORKERS]
        if len(members) > 1:
            direct.update(layers.batched_layers(members))
    metrics.update({name: stat(v) for name, v in direct.items()})

    shares = sum(metrics[f"trace.{c}_share"]["value"]
                 for c in tracing.CATEGORIES)
    if abs(shares - 1.0) > 1e-9:
        problems.append(f"trace shares sum to {shares}")
    if metrics["replay.comm_steps"]["value"] != 77:
        problems.append("replay.comm_steps is not 77")
    lag = metrics["loadgen.lag_ms_p90"]["value"]
    if lag > LAG_LIMIT_MS:
        print(f"warning: the load generator ran {lag:.1f} ms late (p90); "
              f"treat this run's open-loop latencies as void")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: Scale) -> Dict[str, Any]:
    gate = Gate()
    rounds: List[RoundResult] = []
    measured = 0.0
    # Whole rounds only, and at least two unless none was asked for
    # (--smoke): a run whose only round met a slow spell of the host has
    # nothing to take a median of.  Then stop once another round would
    # overshoot --seconds by more than stopping here undershoots it.
    least = 2 if seconds > 0 else 1
    while (len(rounds) < least
           or measured + measured / len(rounds) / 2 <= seconds):
        rounds.append(live_round(
            make_round(workload, seed, len(rounds), scale), gate))
        measured += rounds[-1].makespan_s

    problems: List[str] = []
    if trace:
        metrics = per_layer(workload, seed, scale, rounds, gate, problems)
        wanted = SPEC["per_layer"]
        # A per-layer metric whose layer this workload never enters
        # reads 0 with n = 0; a name BENCHMARK.json lacks is a typo.
        unknown = set(metrics) - {m["name"] for m in wanted}
        if unknown:
            raise KeyError(f"not in BENCHMARK.json: {sorted(unknown)}")
        metrics = {m["name"]: metrics.get(m["name"], {"value": 0.0, "n": 0})
                   for m in wanted}
    else:
        metrics = end_to_end(rounds)
        wanted = SPEC["end_to_end"]
    problems += gate.failures
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "rounds": len(rounds),
        "correct": not problems and gate.failed == 0,
        "attempted": gate.attempted, "failed": gate.failed,
        "problems": problems,
        "metrics": {m["name"]: {**metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def _git_sha() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def report(result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"rounds={result['rounds']}  trace={result['trace']}")
    for name, m in result["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = (f"  n={m['n']} min={m['min']:.6g} "
                      f"q1={m['q1']:.6g} q3={m['q3']:.6g}")
        elif m["n"] == 0:
            spread = "  n=0 (layer not exercised)"
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:<6s}{spread}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def append_result(path: Path, result: Dict[str, Any]) -> None:
    record = {
        "run_id": uuid.uuid4().hex[:12], "git_sha": _git_sha(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, **result,
    }
    history = json.loads(path.read_text()) if path.is_file() else {"runs": []}
    history["runs"].append(record)
    path.write_text(json.dumps(history, indent=1) + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all five, one after the other")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="makespan to measure before stopping")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", type=Path,
                        help="append the full record to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="demo-sized rounds, one per workload")
    args = parser.parse_args(argv)

    ok = True
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(
            workload, args.seed, 0.0 if args.smoke else args.seconds,
            bool(args.trace), SMOKE if args.smoke else FULL)
        report(result)
        if args.out:
            append_result(args.out, result)
        ok = ok and result["correct"]
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()},
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
