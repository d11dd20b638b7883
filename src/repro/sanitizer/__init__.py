"""Runtime lock sanitizer (enabled with ``REPRO_TSAN=1``).

See :mod:`repro.sanitizer.lockcheck` for the mechanism and
:mod:`repro.util.sync` for the named-lock factory it instruments.
"""

from repro.errors import SanitizerError
from repro.sanitizer.lockcheck import (
    Finding,
    InstrumentedLock,
    STATE,
    SanitizerState,
)
from repro.util.sync import ENABLE_ENV, tsan_enabled

__all__ = [
    "ENABLE_ENV",
    "Finding",
    "InstrumentedLock",
    "STATE",
    "SanitizerError",
    "SanitizerState",
    "tsan_enabled",
]
