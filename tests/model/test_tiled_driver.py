"""The tiled chemistry driver wired into the sequential model.

``AirshedConfig.chem_workers`` threads a worker count down to the
:class:`~repro.chemistry.youngboris.YoungBorisSolver` tile pool;
results must stay bitwise identical to the default single-core run, and
the tracer must gain per-worker ``chem:tile:w*`` spans.
"""

import hashlib

import numpy as np
import pytest

from repro.chemistry import YoungBorisSolver
from repro.datasets import get_dataset
from repro.model import AirshedConfig, SequentialAirshed, run_batched
from repro.model.ensemble import EmissionEnsemble
from repro.model.physics import AirshedPhysics

from tests.chemistry.test_tiled import tile_threads


def _run(**cfg_kw):
    cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                        start_hour=12, **cfg_kw)
    return SequentialAirshed(cfg).run()


def _sha(result):
    return hashlib.sha256(result.final_conc.tobytes()).hexdigest()


class TestTiledSequentialDriver:
    def test_workers_preserve_bitwise_identity(self):
        golden = _run()
        assert _sha(_run(chem_workers=2)) == _sha(golden)
        assert _sha(_run(chem_workers=4, chem_tile_cols=17)) == _sha(golden)

    def test_tile_spans_emitted(self):
        # demo is 301 columns (> tile_min_cols), so a 2-worker run tiles
        cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                            start_hour=12, chem_workers=2)
        model = SequentialAirshed(cfg)
        model.run()
        names = {s.name for s in model.tracer.spans
                 if s.name.startswith("chem:tile:")}
        assert names == {"chem:tile:w0", "chem:tile:w1"}
        for s in model.tracer.spans:
            if s.name.startswith("chem:tile:"):
                assert s.end >= s.start
                assert s.attrs["cols"] > 0

    def test_no_tile_spans_on_single_core(self):
        cfg = AirshedConfig(dataset=get_dataset("demo"), hours=1,
                            start_hour=12)
        model = SequentialAirshed(cfg)
        model.run()
        assert not any(s.name.startswith("chem:tile:")
                       for s in model.tracer.spans)

    def test_config_validates_workers(self):
        with pytest.raises(ValueError):
            AirshedConfig(dataset=get_dataset("demo"), chem_workers=0)
        with pytest.raises(ValueError):
            AirshedConfig(dataset=get_dataset("demo"), chem_tile_cols=0)


class TestTiledChemistryEngine:
    """``emit_tile_spans`` / ``close`` on the solver that owns the pool."""

    def test_emit_tile_spans_without_pool_is_noop(self):
        from repro.chemistry import cit_mechanism
        from repro.observe import Tracer

        engine = YoungBorisSolver(cit_mechanism())
        tracer = Tracer()
        engine.emit_tile_spans(tracer, tracer.now())
        assert list(tracer.spans) == []
        engine.close()

    def test_engine_close_is_idempotent(self):
        from repro.chemistry import cit_mechanism

        engine = YoungBorisSolver(cit_mechanism(), workers=2)
        conc = np.full((engine.mechanism.n_species, 10), 0.01)
        engine.integrate(conc, 60.0, 298.0, 0.5)
        engine.close()
        engine.close()


class TestPoolLifetime:
    """The hour loop owns the tile pool: no ``chem-tile-*`` thread
    outlives ``run()``, whether it returns or raises."""

    @pytest.fixture
    def census(self, monkeypatch):
        """Live tile-thread counts seen *during* each aerosol step."""
        seen = []
        real = AirshedPhysics.aerosol_step

        def counting(phys, conc):
            seen.append(len(tile_threads()))
            return real(phys, conc)

        monkeypatch.setattr(AirshedPhysics, "aerosol_step", counting)
        return seen

    def _config(self, tiny_dataset):
        # 54 points x 3 layers = 162 columns > tile_min_cols: it tiles.
        return AirshedConfig(dataset=tiny_dataset, hours=1, start_hour=12,
                             max_steps=2, chem_workers=2)

    def test_sequential_run_returns(self, tiny_dataset, census):
        assert tile_threads() == set()
        SequentialAirshed(self._config(tiny_dataset)).run()
        assert census and all(n == 2 for n in census)
        assert tile_threads() == set()

    def test_repeated_runs_do_not_accumulate(self, tiny_dataset):
        model = SequentialAirshed(self._config(tiny_dataset))
        first = model.run()
        again = model.run()  # the pool is lazy: a rerun tiles again
        assert _sha(first) == _sha(again)
        assert len([s for s in model.tracer.spans
                    if s.name == "chem:tile:w0"]) == 4
        assert tile_threads() == set()

    def test_sequential_run_raises(self, tiny_dataset, monkeypatch):
        def boom(phys, conc):
            assert len(tile_threads()) == 2
            raise RuntimeError("aerosol failed")

        monkeypatch.setattr(AirshedPhysics, "aerosol_step", boom)
        with pytest.raises(RuntimeError, match="aerosol failed"):
            SequentialAirshed(self._config(tiny_dataset)).run()
        assert tile_threads() == set()

    def test_run_batched(self, tiny_dataset, census):
        ens = EmissionEnsemble(self._config(tiny_dataset), members=2,
                               sigma=0.2, seed=3)
        run_batched([ens.member_config(i) for i in range(2)])
        assert census and all(n == 2 for n in census)
        assert tile_threads() == set()
