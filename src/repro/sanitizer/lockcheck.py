"""Runtime lock sanitizer — TSan-style dynamic checking of lock usage.

With ``REPRO_TSAN=1`` in the environment, the :mod:`repro.util.sync`
factory hands out :class:`InstrumentedLock` wrappers instead of plain
:class:`threading.Lock` objects.  Every acquire and release reports
into the process-wide :data:`STATE`, which keeps:

* the per-thread *held stack* (which named locks this thread holds, in
  acquisition order);
* the *observed lock-order graph* over lock names — an edge ``A -> B``
  means some thread acquired ``B`` while holding ``A``.  The
  lock-hierarchy tests assert this graph stays inside the documented
  hierarchy (docs/INTERNALS.md, "Concurrency model");
* :class:`Finding` records for the three failure modes:

  - ``order-inversion`` (error): acquiring ``B`` while holding ``A``
    when the graph already shows ``B`` (transitively) acquired before
    ``A`` — two threads interleaving those paths can deadlock.  Nesting
    two distinct *instances* of the same lock name is reported the same
    way (same-rank nesting deadlocks against a peer doing the reverse).
  - ``double-acquire`` (error): a thread re-acquiring a lock it
    already holds.  The real lock would block forever, so the
    wrapper raises :class:`~repro.errors.SanitizerError` instead of
    deadlocking the suite.
  - ``slow-hold`` (warning): a lock held longer than the state's
    ``hold_threshold`` (default 0.5 s) — a latency hazard for every
    thread contending on it, not a correctness bug.

The sanitizer's own bookkeeping runs under a *raw* ``threading.Lock``
(never instrumented) and never touches the metrics registry — metric
locks are themselves instrumented, so bumping a counter per acquire
would recurse.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import SanitizerError

__all__ = [
    "DEFAULT_HOLD_SECONDS",
    "Finding",
    "InstrumentedLock",
    "MAX_FINDINGS",
    "STATE",
    "SanitizerState",
]

DEFAULT_HOLD_SECONDS = 0.5
#: Findings kept per state; a deadlock-prone suite would otherwise flood.
MAX_FINDINGS = 200


@dataclass(frozen=True)
class Finding:
    """One sanitizer observation."""

    kind: str       # "order-inversion" | "double-acquire" | "slow-hold"
    severity: str   # "error" | "warning"
    lock: str       # lock name
    thread: str
    detail: str

    def render(self) -> str:
        return (f"{self.severity}: {self.kind} on {self.lock!r}"
                f" [{self.thread}]: {self.detail}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "severity": self.severity,
                "lock": self.lock, "thread": self.thread,
                "detail": self.detail}


class SanitizerState:
    """All dynamic-checking bookkeeping for one sanitizer realm.

    The process-wide realm is :data:`STATE`; tests that provoke findings
    on purpose construct a private state so they never pollute the
    suite-failing fixture.
    """

    def __init__(self, hold_threshold: float = DEFAULT_HOLD_SECONDS):
        #: raw lock — the sanitizer must never instrument itself
        self._mu = threading.Lock()
        self._tls = threading.local()
        #: name -> set of names acquired while holding it
        self._edges: dict[str, set[str]] = {}
        self._findings: list[Finding] = []
        self._acquires = 0
        self._lock_names: set[str] = set()
        self._max_hold = 0.0
        self._hold_threshold = float(hold_threshold)

    # -- per-thread held stack ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def held_names(self) -> list[str]:
        """Names this thread currently holds, outermost first."""
        return [entry[1] for entry in self._stack()]

    # -- the acquire/release protocol (called by the wrappers) ---------------

    def before_acquire(self, lock) -> None:
        """Checks that must run *before* blocking on the real lock."""
        stack = self._stack()
        thread = threading.current_thread().name
        for entry in stack:
            if entry[0] is lock:
                finding = Finding(
                    "double-acquire", "error", lock.name, thread,
                    "thread re-acquired a lock it already holds; a real"
                    " Lock would deadlock here")
                self._record(finding)
                raise SanitizerError(finding.render())
        name = lock.name
        with self._mu:
            self._acquires += 1
            self._lock_names.add(name)
            for _, held_name, _ in stack:
                if held_name == name:
                    self._record_locked(Finding(
                        "order-inversion", "error", name, thread,
                        f"nested two distinct {name!r} locks (same-rank"
                        " nesting deadlocks against a peer thread nesting"
                        " them the other way round)"))
                    continue
                if self._reaches_locked(name, held_name):
                    self._record_locked(Finding(
                        "order-inversion", "error", name, thread,
                        f"acquired while holding {held_name!r}, but the"
                        f" observed order graph already has"
                        f" {name!r} -> ... -> {held_name!r}"))
                self._edges.setdefault(held_name, set()).add(name)

    def after_acquire(self, lock) -> None:
        self._stack().append([lock, lock.name, time.perf_counter()])

    def on_release(self, lock) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] is lock:
                entry = stack.pop(i)
                hold = time.perf_counter() - entry[2]
                with self._mu:
                    if hold > self._max_hold:
                        self._max_hold = hold
                if hold > self._hold_threshold:
                    self._record(Finding(
                        "slow-hold", "warning", lock.name,
                        threading.current_thread().name,
                        f"held for {hold:.3f}s (threshold"
                        f" {self._hold_threshold:g}s)"))
                return
        # Not held by this thread: let the inner lock raise its own error.

    # -- graph + findings -----------------------------------------------------

    def _reaches_locked(self, src: str, dst: str) -> bool:
        """True when ``src -> ... -> dst`` exists.  Call with _mu held."""
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for nxt in self._edges.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _record(self, finding: Finding) -> None:
        with self._mu:
            self._record_locked(finding)

    def _record_locked(self, finding: Finding) -> None:
        if len(self._findings) < MAX_FINDINGS:
            self._findings.append(finding)

    # -- queries --------------------------------------------------------------

    def findings(self, *, severity: str | None = None) -> list[Finding]:
        with self._mu:
            found = list(self._findings)
        if severity is not None:
            found = [f for f in found if f.severity == severity]
        return found

    def error_count(self) -> int:
        return len(self.findings(severity="error"))

    def order_edges(self) -> set[tuple[str, str]]:
        """The observed lock-order graph as (held, acquired) name pairs."""
        with self._mu:
            return {(src, dst) for src, dsts in self._edges.items()
                    for dst in dsts}

    def lock_names(self) -> set[str]:
        with self._mu:
            return set(self._lock_names)

    def acquire_count(self) -> int:
        with self._mu:
            return self._acquires

    def reset(self) -> None:
        """Drop the graph, findings and counters (held stacks persist —
        they reflect locks genuinely still held)."""
        with self._mu:
            self._edges.clear()
            self._findings.clear()
            self._acquires = 0
            self._lock_names.clear()
            self._max_hold = 0.0

    def snapshot(self) -> dict:
        """JSON-able summary: acquires, lock names, observed order
        edges, longest hold and findings."""
        with self._mu:
            edges = sorted((src, dst) for src, dsts in self._edges.items()
                           for dst in dsts)
            findings = [f.to_dict() for f in self._findings]
            return {
                "acquires": self._acquires,
                "locks": sorted(self._lock_names),
                "order_edges": [list(e) for e in edges],
                "max_hold_seconds": self._max_hold,
                "findings": findings,
            }


#: The process-wide sanitizer realm every factory-made lock reports to.
STATE = SanitizerState()


class InstrumentedLock:
    """A named, checked mutex (drop-in for Lock)."""

    __slots__ = ("name", "_inner", "_state")

    def __init__(self, name: str, state: SanitizerState | None = None):
        self.name = name
        self._inner = threading.Lock()
        self._state = state if state is not None else STATE

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._state.before_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._state.after_acquire(self)
        return ok

    def release(self) -> None:
        self._state.on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"

