"""Correctness gate: every delivered row against ``expected.json``.

``expected.json`` pins the ``final_conc`` SHA-256 of every science key
a workload can deliver and ``sim_total_s`` of the paper's (LA, 2 h,
T3E, 64) replay.  Comparisons are ``==``; on top of the pins, every
delivery of one job key — hit or miss, any tenant, any round — must
carry the same ``sim_total_s``.

Regenerate the pins (only when a workload gains a science scenario)::

    PYTHONPATH=src python -m benchmarks.e2e.check
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.sched.job import JobSpec

from benchmarks.e2e.workloads import FULL, SMOKE, Campaign, science_specs

__all__ = ["Gate", "PINNED_REPLAY", "write_expected"]

EXPECTED_PATH = Path(__file__).with_name("expected.json")
PINNED_REPLAY = JobSpec(dataset="la", hours=2, variant="data",
                        machine="t3e", nprocs=64)


class Gate:
    """Counts attempted and failed operations (one per expected row)."""

    def __init__(self) -> None:
        expected = json.loads(EXPECTED_PATH.read_text())
        self._sha: Dict[str, str] = expected["science_sha256"]
        self._sim: Dict[str, Optional[float]] = dict(expected["sim_total_s"])
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []   # first few, for the report

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def check(self, campaign: Campaign, status: str,
              rows: List[Dict[str, Any]]) -> None:
        """One campaign: its terminal status and its delivered rows."""
        by_key = {row.get("key"): row for row in rows}
        specs = {s.key: s for s in campaign.specs}
        self.attempted += len(specs)
        for key, spec in specs.items():
            row = by_key.get(key)
            if status != "done" or row is None:
                self._fail(f"{spec.label}: campaign {status}, "
                           f"row {'missing' if row is None else 'present'}")
            elif row.get("status") not in ("ok", "cached"):
                self._fail(f"{spec.label}: job {row.get('status')} "
                           f"({row.get('error')})")
            elif row.get("sha256") != self._sha.get(spec.science_key):
                self._fail(f"{spec.label}: final_conc sha256 "
                           f"{row.get('sha256')} is not the pinned one")
            elif row.get("sim_total_s") != self._sim.setdefault(
                    key, row.get("sim_total_s")):
                self._fail(f"{spec.label}: sim_total_s "
                           f"{row.get('sim_total_s')} != {self._sim[key]}")


def write_expected() -> None:
    """Recompute the pins in-process and rewrite ``expected.json``."""
    from repro.sched.runner import CampaignRunner

    from benchmarks.e2e.harness import fresh_root

    specs = {s.science_key: s
             for s in (*science_specs(FULL), *science_specs(SMOKE))}
    root = fresh_root()
    try:
        report = CampaignRunner(root, workers=1).run(
            [*specs.values(), PINNED_REPLAY])
    finally:
        shutil.rmtree(root, ignore_errors=True)
    assert report.complete, report.render()
    results = {r.spec.key: r for r in report.results}
    pinned = results[PINNED_REPLAY.key]
    EXPECTED_PATH.write_text(json.dumps({
        "science_sha256": {
            s.science_key: results[s.key].final_conc_sha256()
            for s in specs.values()
        },
        "sim_total_s": {
            PINNED_REPLAY.key: round(pinned.timing.total_time, 10),
        },
    }, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_expected()
    print(f"wrote {EXPECTED_PATH}")
