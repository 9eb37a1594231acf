"""Allocation-free fast path for the chemistry hot loop.

:class:`FastKernel` evaluates the mechanism's production/loss form and
the Young–Boris predictor/corrector stages into preallocated workspace
buffers.  The solver spends ~97% of a sequential Airshed hour here; the
reference implementation (:mod:`repro.chemistry.reference`) allocates
dozens of temporaries per substep and touches every array several
times.  The kernel removes the temporaries and fuses passes while
producing **bitwise-identical** results.

Each stage is written once per backend, over a column span
``[s0, s1)`` of its ``(ns, m)`` block:

* a pure-numpy body using ``out=`` buffers (always available), and
* one C fused loop (:mod:`repro.chemistry.cfused`), compiled on demand,
  that collapses the stage's ufunc chain into a single pass.

**The span-list rule.**  :meth:`FastKernel._dispatch` runs a stage over
a list of contiguous spans partitioning ``[0, m)``.  The sequential run
is the single span ``(0, m)``, executed inline on the calling thread; a
tiled run is several spans on the :class:`~repro.chemistry.tiling.
TilePool`; a batched ensemble is the same stages over the stacked
member columns.  The stages never know which.

Bitwise-identity ground rules (verified empirically on this codebase,
documented in ``docs/PERFORMANCE.md``):

* elementwise ufuncs with ``out=`` buffers, operand swaps of
  commutative ops (``x*y`` vs ``y*x``) and shared subexpressions with
  identical expression trees are all exact;
* gather -> compute -> scatter on a contiguous subset is exact for
  ``exp``, division and the other elementwise ops (per-element results
  do not depend on neighbours);
* C loops that perform the same IEEE-754 operations in the same
  per-element order are exact, provided FMA contraction and fast-math
  are disabled (see ``_cfused.c``);
* the ``(35, n_r) @ (n_r, m)`` matmuls must be fed the *same* operand
  content as the reference — BLAS dgemm results for one column depend
  on the matrix's overall width and the column's position (micro-kernel
  edge handling), so the matmuls stay in BLAS and only their
  surroundings are optimized;
* dgemm on a *column slice* of a wider C-order operand (strided ``ldb``)
  is bitwise equal to dgemm on a contiguous copy of the same columns —
  packing reads the logical matrix — which is what lets the batched
  ensemble path keep its per-member matmuls inside the stacked batch
  buffer (verified empirically, pinned by ``tests/model/test_batched``).

Workspace buffers are prefix views of flat arrays, so every view is
C-contiguous regardless of the active-point count ``m``.

**Batched ensembles.**  All solver stages are elementwise per column,
so N scenario members stacked along the point axis into one
``(ns, members*m)`` block integrate in a single sweep.  The only
width-sensitive operations are the two BLAS matmuls; ``col_slices``
on :meth:`FastKernel.production_loss` performs them per member slice,
feeding dgemm exactly the operand each member's independent run would
see.  Everything else runs over the full flattened width unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.chemistry import cfused
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.tiling import TilePool, tile_spans

__all__ = ["FastKernel", "asymptotic_subset"]


class FastKernel:
    """Workspace-backed solver stages for one solver instance.

    Not thread-safe: buffers are shared across calls by design.

    Parameters
    ----------
    mechanism:
        The compiled mechanism.
    use_c:
        ``None`` (default) auto-detects the C fused kernels; ``False``
        forces the pure-numpy path (used by the bitwise-equivalence
        tests); ``True`` requires them and raises if unavailable.
    """

    #: (ns, m) float buffers handed out by :meth:`mat`.
    _SPECIES_BUFFERS = (
        "P0", "L0", "P1", "L1", "Lh", "R0", "t0", "t1", "cp", "c1", "Ea",
        "c0",
    )

    def __init__(self, mechanism: Mechanism, use_c: Optional[bool] = None):
        self.mechanism = mechanism
        self.ns = mechanism.n_species
        self.nr = mechanism.n_reactions
        self._r1 = mechanism._r1
        self._r2_safe = mechanism._r2_safe
        self._unimol_rows = mechanism._unimol_rows
        self._prod = mechanism._prod
        self._loss = mechanism._loss
        # int64 copies for the C kernels (r2 < 0 flags unimolecular).
        self._r1_i64 = np.ascontiguousarray(mechanism._r1, dtype=np.int64)
        self._r2_i64 = np.ascontiguousarray(mechanism._r2, dtype=np.int64)
        self._c = cfused.load() if use_c in (None, True) else None
        if use_c and self._c is None:
            raise RuntimeError("C fused kernels requested but unavailable")
        #: Multi-core tiling (see configure_tiling); None = one span.
        self._pool: Optional[TilePool] = None
        self._tile_cols: Optional[int] = None
        self._tile_min_cols = 128
        self.capacity = 0
        self._flat: Dict[str, np.ndarray] = {}
        self._stiff_flat: np.ndarray = np.zeros(0, dtype=bool)
        self._stiff_idx: np.ndarray = np.zeros(0, dtype=np.int64)
        self._stiff_merge: np.ndarray = np.zeros(0, dtype=np.int64)
        self._err: np.ndarray = np.zeros(0)
        #: Raw buffer addresses for the C kernels, refreshed by ensure().
        self._addr: Dict[str, int] = {}
        #: Per-slot "L still holds the raw loss rate" flags (see
        #: production_loss(defer_finish=True)).
        self._pl_pending = [False, False]

    @property
    def uses_c(self) -> bool:
        """Whether the C fused backend is active."""
        return self._c is not None

    # ------------------------------------------------------------------
    # workspace
    # ------------------------------------------------------------------
    def ensure(self, npts: int) -> None:
        """Grow the workspace to hold ``npts`` points."""
        if npts <= self.capacity:
            return
        self.capacity = int(npts)
        for name in self._SPECIES_BUFFERS:
            self._flat[name] = np.empty(self.ns * self.capacity)
        for name in ("rates", "fac"):
            self._flat[name] = np.empty(self.nr * self.capacity)
        self._stiff_flat = np.empty(self.ns * self.capacity, dtype=bool)
        self._stiff_idx = np.empty(self.ns * self.capacity, dtype=np.int64)
        self._stiff_merge = np.empty(self.ns * self.capacity,
                                     dtype=np.int64)
        self._err = np.empty(self.capacity)
        self._addr = {name: arr.ctypes.data for name, arr in
                      self._flat.items()}
        self._addr["stiff_idx"] = self._stiff_idx.ctypes.data
        self._addr["err"] = self._err.ctypes.data
        self._addr["r1"] = self._r1_i64.ctypes.data
        self._addr["r2"] = self._r2_i64.ctypes.data

    def mat(self, name: str, m: int) -> np.ndarray:
        """Contiguous ``(ns, m)`` view of the named buffer."""
        return self._flat[name][: self.ns * m].reshape(self.ns, m)

    def stiff_mask(self, m: int) -> np.ndarray:
        """Contiguous ``(ns, m)`` bool scratch for stiffness masks."""
        return self._stiff_flat[: self.ns * m].reshape(self.ns, m)

    # ------------------------------------------------------------------
    # the span-list dispatcher
    # ------------------------------------------------------------------
    def configure_tiling(
        self,
        pool: Optional[TilePool],
        tile_cols: Optional[int] = None,
        min_cols: int = 128,
    ) -> None:
        """Fan elementwise stages out over ``pool`` (``None`` disables).

        Columns split into contiguous tiles (``tile_cols`` wide, or one
        balanced tile per pool worker when ``None``); each tile runs the
        exact per-element operation sequence of the single-span stage
        and writes a disjoint column range, so results are
        bitwise-identical for every worker count and tile size (see
        :mod:`repro.chemistry.tiling`).  The BLAS matmuls, ``np.exp``
        asymptotic updates and the stiff-index merge stay on the calling
        thread.  Stages with fewer than ``min_cols`` active columns run
        as one span — dispatch overhead would exceed the work;
        perf-only, never a results choice.
        """
        self._pool = pool
        self._tile_cols = None if tile_cols is None else int(tile_cols)
        self._tile_min_cols = int(min_cols)

    def _dispatch(
        self, m: int, tile: Callable[[int, int], Optional[int]],
        stiff: bool = False,
    ) -> Optional[np.ndarray]:
        """Run ``tile(s0, s1)`` over the span list of an ``m``-column stage.

        The span list is the policy: one span ``(0, m)`` — no pool, or a
        stage too narrow to be worth tiling — runs inline on the calling
        thread; several spans go to the :class:`TilePool`.  With
        ``stiff`` the tiles return their stiff-element counts and the
        ascending full-width stiff enumeration is returned.
        """
        pool = self._pool
        spans = None
        if pool is not None and m >= self._tile_min_cols:
            spans = tile_spans(m, pool.workers, self._tile_cols)
        if spans is None or len(spans) < 2:
            n = tile(0, m)
            # One span's stiff indices are already the full ascending
            # enumeration, at segment offset 0.
            return self._stiff_idx[:n] if stiff else None
        counts = [0] * len(spans)

        def run(si: int, s0: int, s1: int) -> None:
            counts[si] = tile(s0, s1)

        pool.run(run, spans)
        if not stiff:
            return None
        # Span (s0, s1) wrote its stiff elements' GLOBAL row-major flat
        # indices at segment offset ns*s0 of _stiff_idx (ascending
        # within the span).  The spans partition the column set, so the
        # sorted concatenation is exactly the single-span enumeration.
        total = 0
        merge = self._stiff_merge
        for (s0, _s1), cnt in zip(spans, counts):
            if cnt:
                base = self.ns * s0
                merge[total:total + cnt] = self._stiff_idx[base:base + cnt]
                total += cnt
        out = merge[:total]
        out.sort()
        return out

    # ------------------------------------------------------------------
    # mechanism evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self, conc: np.ndarray, k: np.ndarray,
        col_slices: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(P, L)`` at an integration's start state, into slot 0.

        The first substep reuses this evaluation (``reuse_pl``): the
        state has not changed in between.
        """
        self.ensure(conc.shape[1])
        return self.production_loss(conc, k, 0, col_slices=col_slices)

    def production_loss(
        self, conc: np.ndarray, k: np.ndarray, slot: int,
        defer_finish: bool = False,
        col_slices: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Production ``P`` and loss coefficient ``L`` into slot buffers.

        Bitwise-identical to ``Mechanism.production_loss`` for 2-D
        input.  ``slot`` selects the ``(P0, L0)`` or ``(P1, L1)`` buffer
        pair so predictor and corrector evaluations can coexist.

        With ``defer_finish`` the C backend may leave ``L`` holding the
        raw loss *rate* and fold the ``L /= max(conc, 1e-30)`` pass
        into the next :meth:`predictor`/:meth:`corrector` call (saving
        a full read+write sweep); the returned ``L`` must then not be
        consumed directly.  The numpy backend always finishes.

        ``col_slices`` (batched ensembles) runs the two BLAS matmuls
        once per ``(start, stop)`` column range instead of over the full
        width, so each ensemble member's dgemm sees exactly the operand
        its independent run would — the matmuls are the only stage whose
        results depend on operand width.  All elementwise work still
        covers the full block in one pass.
        """
        m = conc.shape[1]
        rates = self._flat["rates"][: self.nr * m].reshape(self.nr, m)
        P = self.mat(f"P{slot}", m)
        L = self.mat(f"L{slot}", m)
        self._pl_pending[slot] = False
        if self._c is not None and conc.flags.c_contiguous:
            a = self._addr
            conc_p, kp, Lp = conc.ctypes.data, k.ctypes.data, a[f"L{slot}"]
            self._dispatch(m, lambda s0, s1: self._c.build_rates(
                self.nr, m, s0, s1, kp, a["r1"], a["r2"], conc_p,
                a["rates"]))
            self._pl_matmuls(rates, P, L, col_slices)
            if defer_finish:
                self._pl_pending[slot] = True
            else:
                self._dispatch(m, lambda s0, s1: self._c.pl_finish(
                    self.ns, m, s0, s1, conc_p, Lp))
            return P, L
        fac = self._flat["fac"][: self.nr * m].reshape(self.nr, m)
        t = self.mat("t0", m)

        def rates_tile(s0: int, s1: int) -> None:
            # rates = k * conc[r1]; bimolecular rows gain a conc[r2]
            # factor.
            cs, rs, fs = conc[:, s0:s1], rates[:, s0:s1], fac[:, s0:s1]
            np.take(cs, self._r1, axis=0, out=rs)
            np.multiply(rs, k[:, None], out=rs)
            np.take(cs, self._r2_safe, axis=0, out=fs)
            fs[self._unimol_rows] = 1.0
            np.multiply(rs, fs, out=rs)

        def finish_tile(s0: int, s1: int) -> None:
            ts, Ls = t[:, s0:s1], L[:, s0:s1]
            np.maximum(conc[:, s0:s1], 1e-30, out=ts)
            np.divide(Ls, ts, out=Ls)

        self._dispatch(m, rates_tile)
        self._pl_matmuls(rates, P, L, col_slices)  # L: rate until divided
        self._dispatch(m, finish_tile)
        return P, L

    def _pl_matmuls(
        self, rates: np.ndarray, P: np.ndarray, L: np.ndarray,
        col_slices: Optional[Sequence[Tuple[int, int]]],
    ) -> None:
        if col_slices is None:
            np.matmul(self._prod, rates, out=P)
            np.matmul(self._loss, rates, out=L)
            return
        # dgemm on a column slice of the wider C-order operand equals
        # dgemm on a contiguous copy of those columns (strided-ldb
        # packing reads the logical matrix), so slicing in place is safe.
        for start, stop in col_slices:
            if stop > start:
                np.matmul(self._prod, rates[:, start:stop],
                          out=P[:, start:stop])
                np.matmul(self._loss, rates[:, start:stop],
                          out=L[:, start:stop])

    # ------------------------------------------------------------------
    # solver stages
    # ------------------------------------------------------------------
    def predictor(
        self,
        c0: np.ndarray,
        h: np.ndarray,
        Ea: Optional[np.ndarray],
        thresh: float,
        floor: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Explicit predictor from the slot-0 ``(P0, L0)`` state.

        Applies ``P0 += Ea`` in place, then computes ``Lh = L0*h``,
        ``R0 = P0 - L0*c0`` and the floored explicit update
        ``cp = max(c0 + R0*h, floor)``.  Stiff elements (``Lh >
        thresh``) are returned as ascending row-major flat indices;
        their ``cp`` entries are left for the caller to overwrite with
        the (floored) asymptotic update.  Returns ``(cp, Lh, R0,
        stiff_flat_indices)``.
        """
        m = c0.shape[1]
        P0, L0 = self.mat("P0", m), self.mat("L0", m)
        Lh = self.mat("Lh", m)
        R0 = self.mat("R0", m)
        cp = self.mat("cp", m)
        divide = self._pl_pending[0]
        self._pl_pending[0] = False
        if self._c is not None and c0.flags.c_contiguous and (
            Ea is None or Ea.flags.c_contiguous
        ):
            a = self._addr
            c0p, hp = c0.ctypes.data, h.ctypes.data
            Eap = None if Ea is None else Ea.ctypes.data
            # each span's stiff indices land in its own disjoint
            # _stiff_idx segment (element offset ns*s0).
            flat = self._dispatch(m, lambda s0, s1: self._c.predictor(
                self.ns, m, s0, s1, a["P0"], a["L0"], c0p, hp, Eap,
                thresh, floor, int(divide), a["Lh"], a["R0"], a["cp"],
                a["stiff_idx"] + 8 * self.ns * s0), stiff=True)
            return cp, Lh, R0, flat
        sm = self.stiff_mask(m)
        t0 = self.mat("t0", m)
        t1 = self.mat("t1", m)

        def tile(s0: int, s1: int) -> None:
            P0s, L0s, c0s = P0[:, s0:s1], L0[:, s0:s1], c0[:, s0:s1]
            Lhs, R0s, cps = Lh[:, s0:s1], R0[:, s0:s1], cp[:, s0:s1]
            hs = h[s0:s1]
            if divide:
                np.maximum(c0s, 1e-30, out=t1[:, s0:s1])
                np.divide(L0s, t1[:, s0:s1], out=L0s)
            if Ea is not None:
                np.add(P0s, Ea[:, s0:s1], out=P0s)
            np.multiply(L0s, hs, out=Lhs)
            np.greater(Lhs, thresh, out=sm[:, s0:s1])
            np.multiply(L0s, c0s, out=t0[:, s0:s1])
            np.subtract(P0s, t0[:, s0:s1], out=R0s)
            np.multiply(R0s, hs, out=cps)
            np.add(c0s, cps, out=cps)
            np.maximum(cps, floor, out=cps)

        self._dispatch(m, tile)
        # full-mask flatnonzero on the calling thread is the ascending
        # enumeration with no index math.
        return cp, Lh, R0, np.flatnonzero(sm)

    def corrector(
        self,
        cp: np.ndarray,
        c0: np.ndarray,
        h: np.ndarray,
        Ea: Optional[np.ndarray],
        thresh: float,
        floor: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Trapezoidal corrector from the slot-1 ``(P1, L1)`` state.

        Applies ``P1 += Ea`` in place, forms the averaged loss ``Lm =
        (L0 + L1)/2`` and ``Lmh = Lm*h``, and the floored trapezoidal
        update ``c1 = max(c0 + 0.5*h*(R0 + (P1 - L1*cp)), floor)``.
        Stiff elements (``Lmh > thresh``) are returned as flat indices
        for the caller's asymptotic overwrite.  Returns ``(c1, Lm, Lmh,
        stiff_flat_indices)``.
        """
        m = c0.shape[1]
        P1, L1 = self.mat("P1", m), self.mat("L1", m)
        L0 = self.mat("L0", m)
        R0 = self.mat("R0", m)
        Lm = self.mat("t0", m)
        Lmh = self.mat("Lh", m)  # the predictor's L*h buffer is free now
        c1 = self.mat("c1", m)
        divide = self._pl_pending[1]
        self._pl_pending[1] = False
        if self._c is not None and c0.flags.c_contiguous and (
            Ea is None or Ea.flags.c_contiguous
        ):
            a = self._addr
            c0p, hp = c0.ctypes.data, h.ctypes.data
            Eap = None if Ea is None else Ea.ctypes.data
            flat = self._dispatch(m, lambda s0, s1: self._c.corrector(
                self.ns, m, s0, s1, a["P1"], a["L0"], a["L1"], a["R0"],
                a["cp"], c0p, hp, Eap, thresh, floor, int(divide),
                a["t0"], a["Lh"], a["c1"],
                a["stiff_idx"] + 8 * self.ns * s0), stiff=True)
            return c1, Lm, Lmh, flat
        sm = self.stiff_mask(m)
        t1 = self.mat("t1", m)

        def tile(s0: int, s1: int) -> None:
            P1s, L1s, cps = P1[:, s0:s1], L1[:, s0:s1], cp[:, s0:s1]
            Lms, Lmhs = Lm[:, s0:s1], Lmh[:, s0:s1]
            c1s, t1s, hs = c1[:, s0:s1], t1[:, s0:s1], h[s0:s1]
            if divide:
                np.maximum(cps, 1e-30, out=c1s)  # c1: scratch until written
                np.divide(L1s, c1s, out=L1s)
            if Ea is not None:
                np.add(P1s, Ea[:, s0:s1], out=P1s)
            np.add(L0[:, s0:s1], L1s, out=Lms)
            np.multiply(Lms, 0.5, out=Lms)
            np.multiply(Lms, hs, out=Lmhs)
            np.greater(Lmhs, thresh, out=sm[:, s0:s1])
            np.multiply(L1s, cps, out=t1s)
            np.subtract(P1s, t1s, out=t1s)
            # (P0 - L0*c0) + (P1 - L1*cp)
            np.add(R0[:, s0:s1], t1s, out=t1s)
            np.multiply(t1s, 0.5 * hs, out=t1s)
            np.add(c0[:, s0:s1], t1s, out=c1s)
            np.maximum(c1s, floor, out=c1s)

        self._dispatch(m, tile)
        return c1, Lm, Lmh, np.flatnonzero(sm)

    def errmax(self, c1: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Per-point convergence error ``max_i |c1-cp| / denom``.

        ``denom = max(max(c1, cp), 1e-7)`` (CHEMEQ-style).  Must be
        called after the asymptotic scatters so the stiff elements'
        final values enter the test.
        """
        m = c1.shape[1]
        err = self._err[:m]
        if self._c is not None and c1.flags.c_contiguous \
                and cp.flags.c_contiguous:
            c1p, cpp, ep = c1.ctypes.data, cp.ctypes.data, self._addr["err"]
            self._dispatch(m, lambda s0, s1: self._c.errmax(
                self.ns, m, s0, s1, c1p, cpp, ep))
            return err
        t0, t1 = self.mat("t0", m), self.mat("t1", m)

        def tile(s0: int, s1: int) -> None:
            t0s, t1s = t0[:, s0:s1], t1[:, s0:s1]
            np.subtract(c1[:, s0:s1], cp[:, s0:s1], out=t0s)
            np.abs(t0s, out=t0s)
            np.maximum(c1[:, s0:s1], cp[:, s0:s1], out=t1s)
            np.maximum(t1s, 1e-7, out=t1s)
            np.divide(t0s, t1s, out=t0s)
            t0s.max(axis=0, out=err[s0:s1])

        self._dispatch(m, tile)
        return err

    # ------------------------------------------------------------------
    # active-column data movement
    # ------------------------------------------------------------------
    def gather_cols(
        self, src: np.ndarray, idx: np.ndarray, name: str = "c0",
    ) -> np.ndarray:
        """Gather ``src[:, idx]`` into the named workspace buffer.

        Fancy column indexing would return an F-ordered array; this
        gathers into a C-contiguous workspace buffer instead (same
        values, the layout the fused kernels want — every consumer is
        elementwise, the BLAS operands are always the separate ``rates``
        buffer).  Pure data movement (bitwise-trivial); the C backend
        fuses it into one pass, which matters when the batched ensemble
        sweep gathers hundreds of thousands of columns per adaptive
        iteration.  ``idx`` must be int64 and ascending-sorted the way
        the callers produce it.  ``name`` defaults to the solver's
        ``c0`` state buffer; :meth:`substep` also gathers emissions
        into ``Ea``.
        """
        m = idx.size
        out = self.mat(name, m)
        if self._c is not None and src.flags.c_contiguous \
                and idx.flags.c_contiguous:
            sp, ip = src.ctypes.data, idx.ctypes.data
            ncols, op = src.shape[1], self._addr[name]
            self._dispatch(m, lambda s0, s1: self._c.gather_cols(
                self.ns, ncols, m, s0, s1, sp, ip, op))
        else:
            self._dispatch(m, lambda s0, s1: np.take(
                src, idx[s0:s1], axis=1, out=out[:, s0:s1]))
        return out

    def scatter_cols(
        self, dst: np.ndarray, src: np.ndarray, idx: np.ndarray,
        ok: np.ndarray,
    ) -> None:
        """``dst[:, idx[p]] = src[:, p]`` wherever ``ok[p]`` is set.

        The accepted-substep scatter ``dst[:, idx[ok]] = src[:, ok]``
        without materializing the intermediate fancy-index arrays.
        Spans write disjoint destination columns (``idx`` ascending),
        so the tiled scatter is race-free and bit-identical.
        """
        m = idx.size
        if self._c is not None and dst.flags.c_contiguous \
                and src.flags.c_contiguous and idx.flags.c_contiguous \
                and ok.flags.c_contiguous:
            sp, ip = src.ctypes.data, idx.ctypes.data
            okp, dp, ncols = ok.ctypes.data, dst.ctypes.data, dst.shape[1]
            self._dispatch(m, lambda s0, s1: self._c.scatter_cols(
                self.ns, ncols, m, s0, s1, sp, ip, okp, dp))
        else:
            self._dispatch(m, lambda s0, s1: dst.__setitem__(
                (slice(None), idx[s0:s1][ok[s0:s1]]),
                src[:, s0:s1][:, ok[s0:s1]]))

    # ------------------------------------------------------------------
    # the hybrid substep
    # ------------------------------------------------------------------
    def substep(
        self,
        c0: np.ndarray,
        k: np.ndarray,
        h: np.ndarray,
        E: Optional[np.ndarray],
        idx: np.ndarray,
        full: bool,
        reuse_pl: bool,
        col_slices: Optional[Sequence[Tuple[int, int]]],
        thresh: float,
        floor: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Workspace-backed hybrid substep; ``(corrected, predicted)``.

        Bitwise equal to :meth:`repro.chemistry.reference.
        ReferenceStages.substep`.  The optimizations are
        exactness-preserving: ``out=`` buffers (or the C fused loops),
        the shared ``R0 = P0 - L0*c0`` subexpression (used by both the
        explicit predictor and the trapezoidal corrector), a single
        ``L*h`` product per stage feeding both the stiffness mask and
        the asymptotic decay, and the asymptotic update evaluated only
        on the stiff subset (gather/compute/scatter; elementwise ops
        are subset-stable).  ``reuse_pl`` skips the first mechanism
        evaluation when slot 0 already holds ``(P0, L0)`` at ``c0``.
        """
        m = c0.shape[1]
        if not reuse_pl:
            self.production_loss(c0, k, 0, defer_finish=True,
                                 col_slices=col_slices)
        P0, L0 = self.mat("P0", m), self.mat("L0", m)
        Ea = None
        if E is not None:
            Ea = E if full else self.gather_cols(E, idx, name="Ea")

        # --- predictor -------------------------------------------------
        cp, Lh, _R0, flat = self.predictor(c0, h, Ea, thresh, floor)
        if flat.size:
            vals = asymptotic_subset(
                c0.ravel()[flat],
                P0.ravel()[flat],
                L0.ravel()[flat],
                Lh.ravel()[flat],
            )
            cp.ravel()[flat] = np.maximum(vals, floor)

        # --- corrector -------------------------------------------------
        P1, _L1 = self.production_loss(cp, k, 1, defer_finish=True,
                                       col_slices=col_slices)
        c1, Lm, Lmh, flatm = self.corrector(cp, c0, h, Ea, thresh, floor)
        if flatm.size:
            Pmf = 0.5 * (P0.ravel()[flatm] + P1.ravel()[flatm])
            vals = asymptotic_subset(
                c0.ravel()[flatm],
                Pmf,
                Lm.ravel()[flatm],
                Lmh.ravel()[flatm],
            )
            c1.ravel()[flatm] = np.maximum(vals, floor)
        return c1, cp


def asymptotic_subset(
    cf: np.ndarray, Pf: np.ndarray, Lf: np.ndarray, Lhf: np.ndarray
) -> np.ndarray:
    """The Young–Boris asymptotic update on gathered flat subsets.

    Mirrors ``reference._asymptotic`` element-for-element:
    ``ceq + (c - ceq) * exp(-min(L*h, 50))`` with ``ceq = P/L`` guarded
    at zero loss.  ``Lhf`` must hold the already-formed ``L*h`` values
    for the subset (same product the mask was computed from).  ``exp``
    stays in numpy on all backends: numpy's SIMD ``exp`` is not
    bitwise-reproducible by libm.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ceq = np.where(Lf > 0, Pf / np.maximum(Lf, 1e-300), 0.0)
        decay = np.exp(-np.minimum(Lhf, 50.0))
    return ceq + (cf - ceq) * decay
