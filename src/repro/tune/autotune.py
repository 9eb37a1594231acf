"""Model-driven configuration choice for campaign jobs.

The :class:`Autotuner` closes the §4 loop at plan time: given a
:class:`~repro.sched.job.JobSpec`, it enumerates candidate execution
configurations — (machine, P, distribution variant, ``cores_per_job``)
— prices each with a :class:`~repro.sched.costmodel.CampaignCostModel`
built from the calibration store's refit model, and returns the argmin
together with a machine-readable *decision record* (every candidate
with its predicted costs, the chosen configuration, and the calibration
generation the decision was made under).

Safety property, enforced here and proven by the FX040 key-drift
verifier plus the golden-ladder tests: tuning rewrites only execution
(``variant``/``machine``/``nprocs``) and presentation
(``cores_per_job``) fields.  The science key — hence every science
cache entry and every bit of science output — is untouched by
construction, and :meth:`Autotuner.tune` raises if a rewrite ever
violated that.

:class:`AutotunePlanner` wraps the default
:class:`~repro.sched.planner.LPTPlanner` behind the
:class:`~repro.sched.interfaces.Planner` protocol: tune every spec,
delegate packing to the inner planner with the calibrated cost model,
and stamp the plan with the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.perfmodel.calibrate import CalibratedModel, refit_observations
from repro.sched.costmodel import CampaignCostModel
from repro.sched.job import JobSpec
from repro.sched.planner import CampaignPlan, LPTPlanner
from repro.tune.store import CalibrationStore

__all__ = ["TuneConfig", "TuningDecision", "Autotuner", "AutotunePlanner"]

#: Node counts of the paper's scaling tables (Figures 5-7).
DEFAULT_NODE_COUNTS = (1, 4, 16, 64)


@dataclass(frozen=True)
class TuneConfig:
    """The candidate space one :class:`Autotuner` searches.

    ``variants=None`` keeps each spec's own variant (the conservative
    default: switching ``data`` to ``task`` changes which replay runs,
    which is a legitimate but opt-in degree of freedom).  Sequential
    specs never acquire a machine/P — only their core count is tuned.
    """

    machines: Tuple[str, ...] = ("t3e", "t3d", "paragon")
    node_counts: Tuple[int, ...] = DEFAULT_NODE_COUNTS
    cores_options: Tuple[int, ...] = (1,)
    variants: Optional[Tuple[str, ...]] = None
    objective: str = "wall+sim"

    def __post_init__(self) -> None:
        if not self.machines or not self.node_counts or not self.cores_options:
            raise ValueError("candidate space must be non-empty")
        if self.objective not in ("wall+sim", "wall", "sim"):
            raise ValueError(f"unknown objective {self.objective!r}")


@dataclass
class TuningDecision:
    """One tuned spec plus the record explaining the choice."""

    spec: JobSpec
    record: Dict[str, Any] = field(default_factory=dict)


def _config_row(spec: JobSpec) -> Dict[str, Any]:
    return {
        "variant": spec.variant,
        "machine": spec.machine if spec.variant != "sequential" else "",
        "nprocs": spec.nprocs if spec.variant != "sequential" else 0,
        "cores_per_job": spec.cores_per_job,
    }


class Autotuner:
    """Choose each job's execution configuration from the refit model."""

    def __init__(
        self,
        model: Optional[CalibratedModel] = None,
        store: Optional[CalibrationStore] = None,
        cache=None,
        config: Optional[TuneConfig] = None,
        steps_per_hour: int = 5,
    ):
        if model is None:
            if store is not None:
                model = refit_observations(store.observations()).model
                model = replace(
                    model,
                    generation=store.generation,
                    fingerprint=store.fingerprint,
                )
            else:
                model = CalibratedModel()
        self.model = model
        self.store = store
        self.cache = cache
        self.config = config or TuneConfig()
        self._cost_model = CampaignCostModel(
            ops_per_second=model.host_ops_per_second,
            cache=cache,
            steps_per_hour=steps_per_hour,
            machine_overrides={
                m: model.machine_spec(m) for m in self.config.machines
            },
            tile_fraction=model.tile_fraction,
        )

    def cost_model(self) -> CampaignCostModel:
        """The calibrated cost model the decisions were priced with."""
        return self._cost_model

    # ------------------------------------------------------------------
    def _candidates(self, spec: JobSpec) -> List[JobSpec]:
        cfg = self.config
        variants = cfg.variants if cfg.variants is not None else (spec.variant,)
        out: List[JobSpec] = []
        for variant in variants:
            for cores in cfg.cores_options:
                if variant == "sequential":
                    out.append(replace(
                        spec, variant=variant, cores_per_job=cores,
                    ))
                    continue
                for machine in cfg.machines:
                    for nprocs in cfg.node_counts:
                        try:
                            out.append(replace(
                                spec, variant=variant, machine=machine,
                                nprocs=nprocs, cores_per_job=cores,
                            ))
                        except ValueError:
                            # Not a mapping this variant can run on
                            # (task parallelism on too few nodes).
                            continue
        return out

    def _price(self, cand: JobSpec) -> Dict[str, float]:
        cost = self._cost_model.predict(cand)
        wall = cost.wall_s
        cached = False
        if self.cache is not None and self.cache.get_job(cand.key) is not None:
            # An already-stored result costs nothing to "re-run": this
            # keeps decisions stable across repeated campaigns instead
            # of oscillating once the first choice populates the cache.
            wall = 0.0
            cached = True
        if self.config.objective == "wall":
            total = wall
        elif self.config.objective == "sim":
            total = cost.sim_s
        else:
            total = wall + cost.sim_s
        return {
            "wall_s": round(wall, 6),
            "sim_s": round(cost.sim_s, 6),
            "total_s": round(total, 6),
            "cached": cached,
        }

    def tune(self, spec: JobSpec) -> TuningDecision:
        """Pick the cheapest candidate configuration for ``spec``.

        Ties break on enumeration order — the candidate space is a
        deterministic nest, so the same store state always yields the
        same decision.
        """
        rows: List[Dict[str, Any]] = []
        best: Optional[JobSpec] = None
        best_price: Optional[Dict[str, float]] = None
        for cand in self._candidates(spec):
            price = self._price(cand)
            rows.append({**_config_row(cand), **price})
            if best_price is None or price["total_s"] < best_price["total_s"]:
                best, best_price = cand, price
        assert best is not None and best_price is not None
        if best.science_key != spec.science_key:
            raise RuntimeError(
                "autotuner rewrote a science field: "
                f"{spec.science_key[:12]} -> {best.science_key[:12]}"
            )
        record = {
            "key": spec.key,
            "tuned_key": best.key,
            "label": spec.label,
            "science_key": spec.science_key,
            "original": _config_row(spec),
            "chosen": _config_row(best),
            "predicted": {
                "wall_s": best_price["wall_s"],
                "sim_s": best_price["sim_s"],
                "total_s": best_price["total_s"],
            },
            "candidates": rows,
            "generation": self.model.generation,
            "fingerprint": self.model.fingerprint,
        }
        return TuningDecision(spec=best, record=record)

    def tune_all(
        self, specs: Sequence[JobSpec]
    ) -> Tuple[List[JobSpec], List[Dict[str, Any]], Dict[str, str]]:
        """Tune every spec; returns (tuned specs, records, key map).

        The key map takes each *submitted* key to its tuned key, so a
        caller that indexed work by the original keys (the campaign
        service's subscriber table) can find the tuned results.
        """
        tuned: List[JobSpec] = []
        records: List[Dict[str, Any]] = []
        key_map: Dict[str, str] = {}
        for spec in specs:
            decision = self.tune(spec)
            tuned.append(decision.spec)
            records.append(decision.record)
            key_map[spec.key] = decision.spec.key
        return tuned, records, key_map


class AutotunePlanner:
    """A :class:`~repro.sched.interfaces.Planner` that tunes first.

    Every spec goes through the autotuner, then the inner planner packs
    the tuned specs with the *calibrated* cost model (the same one the
    decisions were priced with, so the plan's predictions agree with
    the decision records).  The plan carries the decisions in its
    ``tuning`` field.
    """

    def __init__(
        self,
        autotuner: Autotuner,
        inner=None,
    ):
        self.autotuner = autotuner
        self.inner = inner if inner is not None else LPTPlanner()

    def plan(
        self,
        specs: Sequence[JobSpec],
        *,
        workers: int,
        cost_model: Optional[CampaignCostModel] = None,
        fuse_ensembles: bool = True,
        host_cores: Optional[int] = None,
    ) -> CampaignPlan:
        tuned, records, _ = self.autotuner.tune_all(specs)
        plan = self.inner.plan(
            tuned,
            workers=workers,
            cost_model=self.autotuner.cost_model(),
            fuse_ensembles=fuse_ensembles,
            host_cores=host_cores,
        )
        plan.tuning = {
            "generation": self.autotuner.model.generation,
            "fingerprint": self.autotuner.model.fingerprint,
            "decisions": records,
        }
        return plan
