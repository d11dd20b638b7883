"""Thin logging layer.

The framework logs through the standard :mod:`logging` module under the
``repro`` namespace so applications can configure handlers normally.  The
:func:`log_context` helper adds a per-step prefix used by the flow engine to
tag every message with the active automation step (mirrors the per-step
console output of the real framework's Tcl/driver scripts).
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import threading
from collections.abc import Iterator


_context: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_log_context", default="")


class _ContextFilter(logging.Filter):
    """Stamps every record with ``condor_ctx`` — the active flow-step
    label, formatted for direct use in a format string
    (``%(condor_ctx)s``)."""

    def filter(self, record: logging.LogRecord) -> bool:
        ctx = _context.get()
        record.condor_ctx = f"[{ctx}] " if ctx else ""
        return True


#: One shared filter instance: installation checks are identity-based and
#: the filter itself is stateless (context lives in the contextvar).
_filter = _ContextFilter()
_install_lock = threading.Lock()


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` namespace.

    ``get_logger("toolchain.hls")`` → logger ``repro.toolchain.hls``.
    Idempotent — including under concurrent first-calls for the same
    name: the filter is installed at most once per logger.
    """
    if not name.startswith("repro"):
        name = f"repro.{name}"
    logger = logging.getLogger(name)
    if not any(isinstance(f, _ContextFilter) for f in logger.filters):
        with _install_lock:
            if not any(isinstance(f, _ContextFilter)
                       for f in logger.filters):
                logger.addFilter(_filter)
    return logger


@contextlib.contextmanager
def log_context(label: str) -> Iterator[None]:
    """Tag all log records emitted inside the block with ``label``."""
    token = _context.set(label)
    try:
        yield
    finally:
        _context.reset(token)


def current_context() -> str:
    """Return the active log-context label (empty string when none)."""
    return _context.get()
