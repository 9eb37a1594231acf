"""On-demand compilation and ctypes binding of the C fused kernels.

``load()`` compiles :mod:`_cfused.c <repro.chemistry>` with the system
C compiler the first time it is called (cached as a shared object under
``_cfused_build/``, keyed by a hash of the source and flags) and
returns a :class:`CFused` wrapper, or ``None`` when no compiler is
available, compilation fails, or the ``REPRO_CHEM_NO_C`` environment
variable is set.  Callers must treat ``None`` as "use the numpy
fallback" — the pure-numpy fast path in :mod:`repro.chemistry.kernel`
produces identical results.

The build deliberately avoids ``-march=native`` and disables FMA
contraction and fast-math: the point of the C kernels is to fuse numpy
ufunc chains *without changing a single result bit*, which requires the
compiler to round every intermediate exactly like the numpy expression
tree does (see ``_cfused.c`` and ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path
from typing import Optional

__all__ = ["CFused", "load"]

_SRC = Path(__file__).with_name("_cfused.c")
_BUILD_DIR = Path(__file__).with_name("_cfused_build")

#: No -march=native (FMA contraction would change rounding), no
#: fast-math (re-association would too).  -ffp-contract=off makes the
#: no-FMA guarantee explicit even on FMA-default toolchains.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off")

_c_i64 = ctypes.c_int64
_c_vp = ctypes.c_void_p


class CFused:
    """ctypes bindings over the compiled kernel library.

    One entry point per solver stage, each over a column span
    ``[col0, col1)`` of its ``(ns, m)`` block (the sequential run passes
    the single span ``(0, m)``); ctypes releases the GIL around each
    call, so spans on pool threads genuinely overlap.

    Pointer arguments are declared ``c_void_p`` so callers pass raw
    addresses (``ndarray.ctypes.data`` integers, which the hot path
    caches per workspace buffer) — per-call ``data_as`` marshalling
    costs more than some of the kernels themselves.  All arrays must be
    C-contiguous with the dtypes the kernels expect (float64 data,
    int64 indices); the callers in :mod:`repro.chemistry.kernel`
    guarantee this by construction.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        dbl = ctypes.c_double
        span = [_c_i64] * 4  # (rows, m, col0, col1)

        def bind(name, argtypes, restype=None):
            fn = getattr(lib, f"yb_{name}")
            fn.argtypes = argtypes
            fn.restype = restype
            setattr(self, name, fn)

        bind("build_rates", span + [_c_vp] * 5)
        bind("pl_finish", span + [_c_vp] * 2)
        bind("predictor",
             span + [_c_vp] * 5 + [dbl, dbl, _c_i64] + [_c_vp] * 4, _c_i64)
        bind("corrector",
             span + [_c_vp] * 8 + [dbl, dbl, _c_i64] + [_c_vp] * 4, _c_i64)
        bind("errmax", span + [_c_vp] * 3)
        # (ns, ncols, m, col0, col1): the far side has its own width.
        bind("gather_cols", [_c_i64] * 5 + [_c_vp] * 3)
        bind("scatter_cols", [_c_i64] * 5 + [_c_vp] * 4)


def _compile() -> Optional[Path]:
    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None or not _SRC.exists():
        return None
    source = _SRC.read_bytes()
    digest = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
    so_path = _BUILD_DIR / f"cfused_{digest[:16]}.so"
    if so_path.exists():
        return so_path
    try:
        _BUILD_DIR.mkdir(exist_ok=True)
        tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
        subprocess.run(
            [cc, *_CFLAGS, "-o", str(tmp), str(_SRC)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, so_path)  # atomic: concurrent builders agree
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


_cached: Optional[CFused] = None
_attempted = False


def load() -> Optional[CFused]:
    """The compiled kernels, or ``None`` when unavailable (memoized)."""
    global _cached, _attempted
    if _attempted:
        return _cached
    _attempted = True
    if os.environ.get("REPRO_CHEM_NO_C"):
        return None
    so_path = _compile()
    if so_path is None:
        return None
    try:
        _cached = CFused(ctypes.CDLL(str(so_path)))
    except OSError:
        _cached = None
    return _cached
