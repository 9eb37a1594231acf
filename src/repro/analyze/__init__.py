"""Static analysis of Fx program descriptions — the missing compiler
front end of the reproduction.

The paper's Fx environment *compiled* the Airshed source: distribution
directives drove communication generation and task-region input/output
declarations drove the pipeline task graph.  This package recreates
that analysis over a declarative :class:`~repro.analyze.program.FxProgram`
description of each driver, without executing anything:

1. :mod:`~repro.analyze.directives` — directive consistency (FX00x),
2. :mod:`~repro.analyze.races` — task-graph race detection (FX01x),
3. :mod:`~repro.analyze.costlint` — redistribution cost lint (FX02x),
4. :mod:`~repro.analyze.crosscheck` — static plan vs executed span
   trace (FX030),
5. :mod:`~repro.analyze.campaign` — campaign-plan verification (FX04x):
   cache-key coverage, ensemble-fusion legality, science-chain
   ordering, timeout/retry/fault-policy sanity,
6. :mod:`~repro.analyze.determinism` — determinism sanitizer (FX05x):
   AST lint over the source tree for nondeterminism hazards, with a
   committed allowlist for audited exceptions and a runtime hash-input
   shim (:mod:`~repro.analyze.sanitize`, ``REPRO_SANITIZE=1``),
7. :mod:`~repro.analyze.tune` — calibration-store lint (FX06x):
   prediction drift, refit fallbacks, store integrity, stale tuning
   decisions.

Entry points: :func:`analyze_program` runs the program passes,
:func:`~repro.analyze.campaign.verify_campaign` verifies a planned
campaign, :func:`~repro.analyze.determinism.scan_tree` sanitizes a
source tree; ``repro lint`` (``--campaign`` / ``--determinism``) is
the CLI wrapper.  See ``docs/ANALYZE.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analyze.costlint import CostBudget, cost_table, lint_costs
from repro.analyze.crosscheck import (
    crosscheck_spans,
    executed_comm_steps,
    paper_configuration,
    run_crosscheck,
    synthetic_trace,
)
from repro.analyze.determinism import (
    ALLOWLIST_FILENAME,
    AllowlistEntry,
    load_allowlist,
    scan_source,
    scan_tree,
)
from repro.analyze.diagnostics import (
    DIAGNOSTIC_CODES,
    REGISTRY,
    SEVERITY_EXIT_CODES,
    AnalysisReport,
    Diagnostic,
    Severity,
)
from repro.analyze.directives import check_directives
from repro.analyze.sanitize import (
    DeterminismError,
    check_digest,
    sanitize_enabled,
)
from repro.analyze.program import (
    ArrayDecl,
    CommStep,
    FxProgram,
    PhaseDecl,
    TaskDecl,
)
from repro.analyze.programs import (
    available_programs,
    build_program,
    register_program,
)
from repro.analyze.races import check_races

# The campaign verifier imports repro.sched and the tune lint imports
# repro.tune, while repro.sched.job imports repro.analyze.sanitize the
# first time it hashes a spec in sanitizer mode — which can be while
# repro.sched is still initializing.  PEP 562 lazy exports keep that
# from becoming a cycle (and keep `import repro.analyze` from loading
# the scheduler): the first attribute access imports the owning module,
# by which point every package is fully initialized.
_LAZY_EXPORTS = {
    "verify_campaign": "repro.analyze.campaign",
    "verify_chain_ordering": "repro.analyze.campaign",
    "verify_fused_groups": "repro.analyze.campaign",
    "verify_jobspec_schema": "repro.analyze.campaign",
    "verify_runner_policy": "repro.analyze.campaign",
    "lint_tune_store": "repro.analyze.tune",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(module_name), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "DIAGNOSTIC_CODES",
    "REGISTRY",
    "SEVERITY_EXIT_CODES",
    "verify_campaign",
    "verify_chain_ordering",
    "verify_fused_groups",
    "verify_jobspec_schema",
    "verify_runner_policy",
    "lint_tune_store",
    "ALLOWLIST_FILENAME",
    "AllowlistEntry",
    "load_allowlist",
    "scan_source",
    "scan_tree",
    "DeterminismError",
    "check_digest",
    "sanitize_enabled",
    "ArrayDecl",
    "TaskDecl",
    "PhaseDecl",
    "CommStep",
    "FxProgram",
    "CostBudget",
    "check_directives",
    "check_races",
    "lint_costs",
    "cost_table",
    "crosscheck_spans",
    "run_crosscheck",
    "executed_comm_steps",
    "synthetic_trace",
    "paper_configuration",
    "available_programs",
    "build_program",
    "register_program",
    "analyze_program",
]


def analyze_program(
    program: FxProgram,
    budget: Optional[CostBudget] = None,
    spans: Optional[Sequence] = None,
    crosscheck: bool = False,
) -> AnalysisReport:
    """Run every analysis pass over one program.

    ``spans`` cross-checks the plan against an already-recorded span
    stream; ``crosscheck=True`` instead replays the program's driver on
    a synthetic workload (see :func:`run_crosscheck`).  The cost pass is
    skipped when the program's structure is too broken to plan
    (e.g. task sizes that make a processor group empty) — the directive
    diagnostics then explain why.
    """
    report = AnalysisReport(program=program.name)
    report.summary = {
        "machine": program.machine.name,
        "nprocs": program.nprocs,
        "arrays": len(program.arrays),
        "tasks": len(program.tasks),
        "phases": len(program.phases),
    }
    report.extend(check_directives(program))
    report.extend(check_races(program))
    try:
        diags, table = lint_costs(program, budget)
    except (ValueError, KeyError):
        if not any(d.severity is Severity.ERROR for d in report.diagnostics):
            raise
        diags, table = [], {}
    report.extend(diags)
    report.cost_table = table
    if table or not report.diagnostics:
        report.summary["predicted_comm_steps"] = sum(
            row["occurrences"] for row in table.values()
        )
    if spans is not None:
        diags, info = crosscheck_spans(program, spans)
        report.extend(diags)
        report.summary.update(info)
    elif crosscheck:
        diags, info = run_crosscheck(program)
        report.extend(diags)
        report.summary.update(info)
    return report
