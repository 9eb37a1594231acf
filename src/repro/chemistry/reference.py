"""The allocation-per-substep reference stages (``fast=False``).

The oracle every fast path is compared against bit for bit
(``tests/perf/test_chemistry_bitwise.py``, ``tests/chemistry/
test_tiled.py`` and the ``reference`` backend of ``tests/model/
test_batched.py``).  :class:`ReferenceStages` answers the same five
calls as :class:`~repro.chemistry.kernel.FastKernel` — ``evaluate``,
``gather_cols``, ``substep``, ``errmax``, ``scatter_cols`` — in plain
numpy expressions, one fresh temporary per operation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.chemistry.mechanism import Mechanism

__all__ = ["ReferenceStages"]


class ReferenceStages:
    """Plain-numpy Young–Boris stages over a full active block."""

    def __init__(self, mechanism: Mechanism) -> None:
        self.mechanism = mechanism

    def evaluate(
        self, conc: np.ndarray, k: np.ndarray,
        col_slices: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mechanism ``(P, L)``, optionally per column slice.

        ``col_slices`` (batched ensembles) evaluates each member's
        column range separately so the ``(35, n_r) @ (n_r, m)`` matmul
        inside ``Mechanism.production_loss`` sees exactly the operand
        the member's independent run would; stitching the results back
        together is pure data movement.  Everything else in the
        evaluation is elementwise per column, hence slice-invariant.
        """
        if col_slices is None:
            return self.mechanism.production_loss(conc, k)
        P = np.empty_like(conc)
        L = np.empty_like(conc)
        for start, stop in col_slices:
            if stop > start:
                Ps, Ls = self.mechanism.production_loss(
                    conc[:, start:stop], k
                )
                P[:, start:stop] = Ps
                L[:, start:stop] = Ls
        return P, L

    def gather_cols(self, src: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return src[:, idx]

    def scatter_cols(
        self, dst: np.ndarray, src: np.ndarray, idx: np.ndarray,
        ok: np.ndarray,
    ) -> None:
        dst[:, idx[ok]] = src[:, ok]

    def errmax(self, c1: np.ndarray, cp: np.ndarray) -> np.ndarray:
        """Convergence metric over species (CHEMEQ-style)."""
        denom = np.maximum(np.maximum(c1, cp), 1e-7)
        return np.max(np.abs(c1 - cp) / denom, axis=0)

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
        """One hybrid predictor/corrector substep (vector over points).

        Returns ``(corrected, predicted)`` so the caller can apply the
        convergence test.  ``full`` and ``reuse_pl`` are the fast
        path's shortcuts; the reference always gathers and re-evaluates.
        """
        emissions = E[:, idx] if E is not None else None
        P0, L0 = self.evaluate(c0, k, col_slices)
        if emissions is not None:
            P0 = P0 + emissions
        # Predictor: asymptotic where stiff, explicit elsewhere.
        stiff = L0 * h > thresh
        asym = _asymptotic(c0, P0, L0, h)
        expl = c0 + h * (P0 - L0 * c0)
        cp = np.maximum(np.where(stiff, asym, expl), floor)

        P1, L1 = self.evaluate(cp, k, col_slices)
        if emissions is not None:
            P1 = P1 + emissions

        # Corrector.  Stiff species: asymptotic update with averaged
        # coefficients (Young & Boris eq. 7).  Non-stiff species: true
        # trapezoidal rule, which preserves the production/loss symmetry
        # (and hence elemental mass) exactly.
        Pm = 0.5 * (P0 + P1)
        Lm = 0.5 * (L0 + L1)
        stiff = Lm * h > thresh
        asym = _asymptotic(c0, Pm, Lm, h)
        trap = c0 + 0.5 * h * ((P0 - L0 * c0) + (P1 - L1 * cp))
        corrected = np.maximum(np.where(stiff, asym, trap), floor)
        return corrected, cp


def _asymptotic(
    c0: np.ndarray, P: np.ndarray, L: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Exact solution for frozen P, L: c -> P/L + (c - P/L) e^{-Lh}."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ceq = np.where(L > 0, P / np.maximum(L, 1e-300), 0.0)
        decay = np.exp(-np.minimum(L * h, 50.0))
    return ceq + (c0 - ceq) * decay
