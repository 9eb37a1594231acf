"""Runtime sanitizer mode: verify content-hash inputs as they are used.

The static FX05x pass reasons about nondeterminism it can see in the
source; this module catches what it cannot — a hash *payload* whose
serialized bytes vary between processes (insertion-order-dependent
dicts, non-canonical floats, objects with identity-based reprs).  With
``REPRO_SANITIZE=1`` in the environment, every content digest computed
by :mod:`repro.sched.job` is shimmed through :func:`check_digest`,
which

1. re-serializes the payload from reversed insertion order and fails
   if the canonical JSON differs (the digest would depend on the order
   fields were added);
2. round-trips the payload through ``json.loads``/``dumps`` and fails
   if the bytes change (a value that does not survive JSON is not a
   stable hash input);
3. records ``digest -> payload`` in an on-disk ledger
   (``REPRO_SANITIZE_DIR``, default ``.repro-sanitize``) and fails if
   a later process — today's run, yesterday's run, another machine's
   run with a shared ledger — produced different bytes for the same
   digest or a different digest for the same payload.

The mode adds I/O per digest and is meant for CI drills and debugging,
never for production campaigns.  A violation raises
:class:`DeterminismError` — loudly, at the exact digest call — rather
than letting an unstable key quietly fragment or alias the cache.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict

from repro.durable import atomic_write

__all__ = ["DeterminismError", "sanitize_enabled", "check_digest"]

_ENV_FLAG = "REPRO_SANITIZE"
_ENV_DIR = "REPRO_SANITIZE_DIR"
_DEFAULT_DIR = ".repro-sanitize"


class DeterminismError(RuntimeError):
    """A content-hash input failed a stability check."""


def sanitize_enabled() -> bool:
    """Whether the runtime sanitizer is switched on for this process."""
    return bool(os.environ.get(_ENV_FLAG))


def _canon(fields: Dict[str, Any]) -> str:
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def check_digest(fields: Dict[str, Any], payload: str, digest: str) -> None:
    """Verify one digest computation; raise :class:`DeterminismError`.

    ``fields`` is the logical payload, ``payload`` the serialized bytes
    that were hashed and ``digest`` the resulting hex digest.  Checks
    are ordered cheapest first; the ledger write is atomic so parallel
    workers cannot corrupt it.
    """
    # 1. insertion-order independence: rebuilding the mapping backwards
    #    must serialize to the same canonical bytes.
    reordered = _canon(dict(reversed(list(fields.items()))))
    if reordered != payload:
        raise DeterminismError(
            "hash payload depends on field insertion order: "
            f"{payload!r} != {reordered!r}"
        )

    # 2. JSON round-trip stability: a value that changes across a
    #    loads/dumps cycle (NaN, non-string keys, float repr drift)
    #    cannot be a stable hash input.
    try:
        round_tripped = _canon(json.loads(payload))
    except ValueError as exc:
        raise DeterminismError(
            f"hash payload is not valid canonical JSON: {exc}"
        ) from exc
    if round_tripped != payload:
        raise DeterminismError(
            "hash payload does not survive a JSON round-trip: "
            f"{payload!r} -> {round_tripped!r}"
        )

    # 3. cross-process ledger: the same digest must always come from
    #    the same bytes, in this process and every earlier one.
    ledger_root = Path(os.environ.get(_ENV_DIR, _DEFAULT_DIR))
    entry = ledger_root / digest[:2] / f"{digest}.json"
    if entry.is_file():
        stored = entry.read_text()
        if stored != payload:
            raise DeterminismError(
                f"digest {digest[:12]} was previously computed from "
                f"different bytes: {stored!r} != {payload!r}"
            )
        return
    entry.parent.mkdir(parents=True, exist_ok=True)
    atomic_write(entry, payload.encode(), fsync=False)
