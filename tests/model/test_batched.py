"""BatchedEnsemble is bitwise identical to N independent runs.

The batched engine's whole contract is that stacking members into one
structure-of-arrays sweep changes *nothing* about any member's numbers:
final concentrations, hourly means, surface snapshots and the complete
workload trace must equal — ``np.array_equal``, SHA-256 digests and
all — what the member's own :class:`SequentialAirshed` run produces.
That must hold on every chemistry backend (reference, numpy fast, C
fused), for even and odd member counts, and for arbitrary member
subsets (what the scheduler batches when some members are cached).
"""

import hashlib
import math

import numpy as np
import pytest

from repro.chemistry.cfused import load as load_cfused
from repro.chemistry.youngboris import YoungBorisSolver
from repro.model import AirshedConfig, BatchedEnsemble, SequentialAirshed
from repro.model.batched import run_batched
from repro.model.ensemble import EmissionEnsemble, EnsembleSummary

BACKENDS = ("reference", "numpy", "c")


@pytest.fixture
def backend(request, monkeypatch):
    """Force one of the three chemistry backends for the test body."""
    name = request.param
    if name == "reference":
        orig = YoungBorisSolver.__init__

        def no_fast(self, *args, **kwargs):
            kwargs["fast"] = False
            orig(self, *args, **kwargs)

        monkeypatch.setattr(YoungBorisSolver, "__init__", no_fast)
    elif name == "numpy":
        monkeypatch.setattr("repro.chemistry.cfused.load", lambda: None)
    elif load_cfused() is None:
        pytest.skip("no C compiler available; numpy fallback covered")
    return name


def _config(tiny_dataset, **overrides):
    kw = dict(dataset=tiny_dataset, hours=2, start_hour=7, max_steps=3,
              track_surface_fields=True)
    kw.update(overrides)
    return AirshedConfig(**kw)


def _sha(result) -> str:
    return hashlib.sha256(result.final_conc.tobytes()).hexdigest()


def _assert_identical(ref, got):
    assert np.array_equal(ref.final_conc, got.final_conc)
    assert _sha(ref) == _sha(got)
    assert ref.hourly_mean == got.hourly_mean
    for fr, fg in zip(ref.hourly_surface, got.hourly_surface):
        assert np.array_equal(fr, fg)
    for hr, hg in zip(ref.trace.hours, got.trace.hours):
        assert hr.input_bytes == hg.input_bytes
        assert hr.input_ops == hg.input_ops
        assert hr.pretrans_ops == hg.pretrans_ops
        assert hr.nsteps == hg.nsteps
        assert hr.output_bytes == hg.output_bytes
        for sr, sg in zip(hr.steps, hg.steps):
            assert np.array_equal(sr.transport1_ops, sg.transport1_ops)
            assert np.array_equal(sr.chemistry_ops, sg.chemistry_ops)
            assert sr.aerosol_ops == sg.aerosol_ops
            assert np.array_equal(sr.transport2_ops, sg.transport2_ops)


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("members", [1, 2, 3],
                         ids=["N=1", "N=2", "N=3-odd"])
def test_batched_members_bitwise_equal_independent(
    tiny_dataset, backend, members
):
    # An ensemble has at least two members; the one-member batch is
    # run_batched on a single member config.
    ens = BatchedEnsemble(_config(tiny_dataset), members=max(members, 2),
                          sigma=0.3, seed=4)
    batched = (ens.run_members() if members > 1
               else run_batched([ens.member_config(0)]))
    assert len(batched) == members
    for i in range(members):
        ref = SequentialAirshed(ens.member_config(i)).run()
        _assert_identical(ref, batched[i])


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
def test_arbitrary_subset_batches_are_exact(tiny_dataset, backend):
    """Batching any member subset is exact (partial-cache fusion)."""
    ens = BatchedEnsemble(_config(tiny_dataset, hours=1), members=3,
                          sigma=0.3, seed=9)
    configs = [ens.member_config(i) for i in range(3)]
    full = run_batched(configs)
    subset = run_batched([configs[0], configs[2]])
    _assert_identical(full[0], subset[0])
    _assert_identical(full[2], subset[1])


def test_summary_matches_independent_ensemble(tiny_dataset):
    cfg = _config(tiny_dataset, track_surface_fields=False)
    s_ind = EmissionEnsemble(cfg, members=3, sigma=0.4, seed=2).run()
    s_bat = BatchedEnsemble(cfg, members=3, sigma=0.4, seed=2).run()
    for species in s_ind.mean:
        assert np.array_equal(s_ind.mean[species], s_bat.mean[species])
        assert np.array_equal(s_ind.std[species], s_bat.std[species])
        assert np.array_equal(s_ind.peaks[species], s_bat.peaks[species])


def test_batch_counters_recorded(tiny_dataset):
    ens = BatchedEnsemble(_config(tiny_dataset, hours=1), members=2,
                          sigma=0.2, seed=1)
    ens.run_members()
    counters = ens.tracer.counters
    batches = counters.value("ensemble:batches")
    assert batches > 0
    assert counters.value("ensemble:batched_members") == 2 * batches


def test_mismatched_configs_rejected(tiny_dataset):
    a = _config(tiny_dataset, hours=1)
    b = _config(tiny_dataset, hours=2)
    with pytest.raises(ValueError, match="hours"):
        run_batched([a, b])
    with pytest.raises(ValueError, match="at least one"):
        run_batched([])


class TestRelativeSpreadContract:
    """Non-positive mean peaks yield NaN, never a silent 0.0."""

    def _summary(self, peaks):
        return EnsembleSummary(members=len(peaks), sigma=0.1, mean={},
                               std={}, peaks={"O3": np.asarray(peaks)})

    def test_zero_mean_peak_is_nan(self):
        assert math.isnan(self._summary([0.0, 0.0]).relative_spread("O3"))

    def test_negative_mean_peak_is_nan(self):
        assert math.isnan(
            self._summary([-2.0, 1.0]).relative_spread("O3")
        )

    def test_healthy_ensemble_is_finite(self):
        spread = self._summary([0.08, 0.12]).relative_spread("O3")
        assert spread == pytest.approx(0.2)
