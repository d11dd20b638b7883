"""Named lock construction — the factory every :mod:`repro` lock uses.

Locks created here carry a *name* (a string literal at the creation
site, e.g. ``"obs.metrics.MetricsRegistry"``).  Names identify a lock's
*role* rather than its instance: every metric shares the name
``"obs.metrics.Metric"``.  That makes two things possible:

* the runtime lock sanitizer (:mod:`repro.sanitizer.lockcheck`) builds
  its observed lock-order graph over names;
* the documented lock hierarchy (docs/INTERNALS.md, "Concurrency
  model") is stated in terms of the same names, so tests can compare
  the two directly.

Under ``REPRO_TSAN=1`` (read at lock-creation time) the factory
returns an instrumented wrapper that tracks per-thread held-sets and
reports order inversions, double acquires and slow holds; otherwise it
returns a plain :class:`threading.Lock` with zero overhead.  Every lock
is non-reentrant.

Direct ``threading.Lock()`` construction elsewhere in ``src/repro`` is
flagged by the ``thread-free`` lint rule (``python -m tools.lint``) —
the factory is how a lock joins the checked hierarchy.
"""

from __future__ import annotations

import os
import threading

__all__ = [
    "ENABLE_ENV",
    "new_lock",
    "tsan_enabled",
]

ENABLE_ENV = "REPRO_TSAN"


def tsan_enabled() -> bool:
    """True when ``REPRO_TSAN=1`` (the runtime lock sanitizer switch)."""
    return os.environ.get(ENABLE_ENV, "") == "1"


def new_lock(name: str):
    """A named, non-reentrant mutex (instrumented under ``REPRO_TSAN=1``)."""
    if tsan_enabled():
        from repro.sanitizer.lockcheck import InstrumentedLock
        return InstrumentedLock(name)
    return threading.Lock()
