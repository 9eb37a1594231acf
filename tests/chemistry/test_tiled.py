"""Tiled multi-core chemistry is bitwise identical to sequential.

The tiled engine (:mod:`repro.chemistry.tiling`) fans the per-column
elementwise stages of :class:`~repro.chemistry.kernel.FastKernel` out
over contiguous column tiles on a persistent worker pool.  Its contract
is the same as every other fast path in this repo: **SHA-identical** to
the sequential run — for every worker count, every tile size (ragged
last tile, one-column tiles) and every backend (reference numpy, fused
numpy, fused C).
"""

import hashlib
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chemistry import YoungBorisSolver, cit_mechanism
from repro.chemistry.cfused import load as load_cfused
from repro.chemistry.kernel import FastKernel
from repro.chemistry.tiling import TilePool, tile_spans

from tests.chemistry.test_youngboris import urban_state

NPTS = 97  # prime: every fixed tile width leaves a ragged last tile


@pytest.fixture(scope="module")
def mech():
    return cit_mechanism()


def _state(mech):
    conc = urban_state(mech, npts=NPTS, seed=11)
    emissions = np.zeros_like(conc)
    emissions[mech.index["NO"]] = 1e-5
    emissions[mech.index["PAR"]] = 4e-5
    return conc, emissions


def _solve(mech, conc, emissions, *, fast=True, use_c=None,
           workers=1, tile_cols=None):
    """Run one integration, forcing backend and tiling explicitly.

    Tiny states tile too: ``tile_min_cols=1`` removes the perf-only
    threshold so the test exercises the tiled machinery even at
    ``NPTS=97`` columns.
    """
    solver = YoungBorisSolver(mech, fast=fast, workers=workers,
                              tile_cols=tile_cols, tile_min_cols=1)
    if fast and use_c is not None:
        solver._kern = FastKernel(mech, use_c=use_c)
    try:
        return solver.integrate(conc, 300.0, 298.0, 0.6,
                                emissions=emissions)
    finally:
        solver.close()


def _sha(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


class TestBitwiseIdentity:
    """workers x tile sizes x backends, SHA-256 against sequential."""

    @pytest.mark.parametrize("use_c", [False, True], ids=["numpy", "c"])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("tile_cols", [None, 1, 7, 50],
                             ids=["balanced", "tile1", "tile7", "tile50"])
    def test_tiled_sha_matches_sequential_golden(self, mech, use_c,
                                                 workers, tile_cols):
        if use_c and load_cfused() is None:
            pytest.skip("no C compiler available")
        conc, emissions = _state(mech)
        golden = _solve(mech, conc, emissions, use_c=use_c)
        tiled = _solve(mech, conc, emissions, use_c=use_c,
                       workers=workers, tile_cols=tile_cols)
        assert _sha(tiled) == _sha(golden)
        assert np.array_equal(tiled, golden)

    def test_sequential_golden_matches_reference_backend(self, mech):
        """The golden itself equals the allocation-per-substep path."""
        conc, emissions = _state(mech)
        reference = _solve(mech, conc, emissions, fast=False)
        for use_c in ([False, True] if load_cfused() else [False]):
            assert np.array_equal(
                _solve(mech, conc, emissions, use_c=use_c), reference
            )

    def test_tiled_cross_backend_identity(self, mech):
        """Tiled C and tiled numpy agree with each other."""
        if load_cfused() is None:
            pytest.skip("no C compiler available")
        conc, emissions = _state(mech)
        a = _solve(mech, conc, emissions, use_c=True, workers=4,
                   tile_cols=13)
        b = _solve(mech, conc, emissions, use_c=False, workers=3,
                   tile_cols=29)
        assert _sha(a) == _sha(b)

    def test_driver_level_workers_knob(self, mech):
        """The public ``workers=`` knob alone preserves identity."""
        conc, emissions = _state(mech)
        golden = _solve(mech, conc, emissions)
        solver = YoungBorisSolver(mech, workers=2, tile_min_cols=1)
        try:
            out = solver.integrate(conc, 300.0, 298.0, 0.6,
                                   emissions=emissions)
        finally:
            solver.close()
        assert np.array_equal(out, golden)


def _stage_outputs(kern, mech, conc, E, h, idx, ok):
    """Every stage once, in solver order; all outputs copied out."""
    m = conc.shape[1]
    k = mech.rate_constants(298.0, 0.6)
    out = {}
    P, L = kern.evaluate(conc, k)
    out["P0"], out["L0"] = P.copy(), L.copy()
    kern.production_loss(conc, k, 0, defer_finish=True)
    cp, Lh, R0, flat = kern.predictor(conc, h, E, 1.0, 0.0)
    out.update(cp=cp.copy(), Lh=Lh.copy(), R0=R0.copy(),
               stiff_predictor=flat.copy())
    kern.production_loss(cp, k, 1, defer_finish=True)
    c1, Lm, Lmh, flatm = kern.corrector(cp, conc, h, E, 1.0, 0.0)
    out.update(c1=c1.copy(), Lm=Lm.copy(), Lmh=Lmh.copy(),
               P1=kern.mat("P1", m).copy(), L1=kern.mat("L1", m).copy(),
               stiff_corrector=flatm.copy())
    out["err"] = kern.errmax(c1, cp).copy()
    gathered = kern.gather_cols(conc, idx, name="Ea").copy()
    out["gather"] = gathered
    dst = np.zeros_like(conc)
    kern.scatter_cols(dst, gathered, idx, ok)
    out["scatter"] = dst
    return out


@st.composite
def _partitioned_case(draw):
    """``(m, contiguous partition of [0, m), active subset, ok mask)``."""
    m = draw(st.integers(1, 40))
    cuts = sorted(draw(st.sets(st.integers(1, m - 1)))) if m > 1 else []
    edges = [0, *cuts, m]
    active = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    idx = np.flatnonzero(active).astype(np.int64)
    ok = np.array(draw(st.lists(st.booleans(), min_size=idx.size,
                                max_size=idx.size)), dtype=bool)
    return m, list(zip(edges[:-1], edges[1:])), idx, ok


class TestSpanListProperty:
    """Any contiguous partition of ``[0, m)`` equals the single span.

    Stage by stage and bit for bit, stiff-index enumeration included —
    the single span ``(0, m)`` and one-column spans are just two of the
    partitions Hypothesis draws.
    """

    @pytest.mark.parametrize("use_c", [False, True], ids=["numpy", "c"])
    def test_every_stage_is_partition_invariant(self, mech, use_c):
        if use_c and load_cfused() is None:
            pytest.skip("no C compiler available")
        single = FastKernel(mech, use_c=use_c)
        tiled = FastKernel(mech, use_c=use_c)
        pool = TilePool(2)
        tiled.configure_tiling(pool, None, 1)

        @settings(max_examples=60, deadline=None)
        @given(case=_partitioned_case())
        def check(case):
            m, spans, idx, ok = case
            conc = urban_state(mech, npts=m, seed=m)
            E = np.zeros_like(conc)
            E[mech.index["NO"]] = 1e-5
            h = np.linspace(5.0, 60.0, m)
            want = _stage_outputs(single, mech, conc, E, h, idx, ok)
            # The idx-wide gather/scatter stages see the partition
            # clipped to their own width.
            with mock.patch(
                "repro.chemistry.kernel.tile_spans",
                lambda width, workers, cols: [
                    (s0, min(s1, width)) for s0, s1 in spans if s0 < width
                ],
            ):
                got = _stage_outputs(tiled, mech, conc, E, h, idx, ok)
            assert want.keys() == got.keys()
            for name in want:
                assert np.array_equal(want[name], got[name]), name

        try:
            check()
        finally:
            pool.close()


def tile_threads():
    """The live ``chem-tile-*`` pool threads of this process."""
    return {t for t in threading.enumerate()
            if t.name.startswith("chem-tile-")}


class TestNoPoolCensus:
    """One span means no pool, no thread, no hand-off."""

    def test_single_worker_constructs_no_pool(self, mech):
        conc, emissions = _state(mech)
        before = tile_threads()
        with mock.patch("repro.chemistry.tiling.TilePool.__init__",
                        side_effect=AssertionError("pool constructed")):
            solver = YoungBorisSolver(mech, workers=1)
            solver.integrate(conc, 300.0, 298.0, 0.6, emissions=emissions)
        assert solver._pool is None
        assert solver.tile_stats() == []
        assert tile_threads() == before

    @pytest.mark.parametrize("use_c", [False, True], ids=["numpy", "c"])
    def test_narrow_stage_runs_inline_on_caller(self, mech, use_c):
        """``m < tile_min_cols``: the pool exists but is never handed
        the stage — every tile body runs on the calling thread."""
        if use_c and load_cfused() is None:
            pytest.skip("no C compiler available")
        conc, emissions = _state(mech)
        golden = _solve(mech, conc, emissions, use_c=use_c)
        solver = YoungBorisSolver(mech, workers=2, tile_min_cols=NPTS + 1)
        solver._kern = FastKernel(mech, use_c=use_c)
        ran_on = set()
        real_dispatch = FastKernel._dispatch

        def spy(self, m, tile, stiff=False):
            def marked(s0, s1):
                ran_on.add(threading.current_thread().name)
                return tile(s0, s1)
            return real_dispatch(self, m, marked, stiff)

        try:
            with mock.patch.object(FastKernel, "_dispatch", spy):
                out = solver.integrate(conc, 300.0, 298.0, 0.6,
                                       emissions=emissions)
            assert ran_on == {threading.current_thread().name}
            assert all(w["tasks"] == 0 for w in solver.tile_stats())
        finally:
            solver.close()
        assert np.array_equal(out, golden)


class TestTileSpans:
    def test_balanced_spans_cover_range(self):
        spans = tile_spans(100, 4)
        assert spans == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_ragged_last_tile(self):
        spans = tile_spans(97, 4)
        assert spans[0] == (0, 25)
        assert spans[-1] == (75, 97)
        assert sum(b - a for a, b in spans) == 97

    def test_fixed_width_and_single_column(self):
        assert tile_spans(10, 2, tile_cols=3) == [
            (0, 3), (3, 6), (6, 9), (9, 10)
        ]
        assert tile_spans(3, 2, tile_cols=1) == [(0, 1), (1, 2), (2, 3)]

    def test_more_workers_than_columns(self):
        spans = tile_spans(2, 8)
        assert sum(b - a for a, b in spans) == 2
        assert all(b > a for a, b in spans)


class TestTilePool:
    def test_run_executes_every_span(self):
        pool = TilePool(3)
        try:
            hits = np.zeros(30, dtype=np.int64)

            def fn(si, c0, c1):
                hits[c0:c1] += 1

            pool.run(fn, tile_spans(30, 3, tile_cols=4))
            assert np.array_equal(hits, np.ones(30, dtype=np.int64))
        finally:
            pool.close()

    def test_worker_exception_propagates(self):
        pool = TilePool(2)
        try:
            def boom(si, c0, c1):
                raise RuntimeError("tile failed")

            with pytest.raises(RuntimeError, match="tile failed"):
                pool.run(boom, tile_spans(8, 2))
        finally:
            pool.close()

    def test_snapshot_accounts_work(self):
        pool = TilePool(2)
        try:
            pool.run(lambda si, c0, c1: None, tile_spans(10, 2))
            snap = pool.snapshot()
            assert [s["worker"] for s in snap] == [0, 1]
            assert sum(s["tasks"] for s in snap) == 2
            assert sum(s["cols"] for s in snap) == 10
        finally:
            pool.close()

    def test_close_is_idempotent(self):
        pool = TilePool(2)
        pool.close()
        pool.close()

    def test_validates_workers(self):
        with pytest.raises(ValueError):
            TilePool(0)
