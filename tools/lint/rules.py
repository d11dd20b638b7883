"""The repo's lint rules.

Importing this module registers every rule with
:data:`tools.lint.framework.RULE_REGISTRY`.
"""

from __future__ import annotations

import ast
import re

from tools.lint.framework import LintRule, register_rule


@register_rule
class TelemetryPrintRule(LintRule):
    """Library code reports through ``repro.obs`` / the logging front
    door; ``print`` is reserved for the CLI (its stdout *is* the user
    interface)."""

    id = "telemetry-print"
    description = "ban print() outside the CLI"
    allow = frozenset({"cli.py"})

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "print":
                yield self.violation(
                    rel_path, node,
                    "bare print() — route output through"
                    " repro.util.logging / repro.obs")


@register_rule
class TelemetryGetLoggerRule(LintRule):
    """``repro.util.logging.get_logger`` attaches the flow-step context;
    raw ``logging.getLogger`` loses it."""

    id = "telemetry-getlogger"
    description = "ban logging.getLogger() outside the logging front door"
    allow = frozenset({"util/logging.py"})

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "getLogger" and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id == "logging":
                yield self.violation(
                    rel_path, node,
                    "direct logging.getLogger() — use"
                    " repro.util.logging.get_logger")


_BROAD = {"Exception", "BaseException"}


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) and n.exc is None
               for n in ast.walk(handler))


def _names_in_handler_type(node: ast.expr | None):
    if node is None:
        yield None  # bare except:
    elif isinstance(node, ast.Tuple):
        for element in node.elts:
            yield from _names_in_handler_type(element)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


@register_rule
class BroadExceptRule(LintRule):
    """Broad catch-and-swallow hides failures the typed
    ``repro.errors`` hierarchy exists to surface.  A broad handler is
    allowed only when it re-raises (telemetry record-and-rethrow)."""

    id = "broad-except"
    description = "ban bare/broad except unless the handler re-raises"

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = set(_names_in_handler_type(node.type))
            if None in names and not _handler_reraises(node):
                yield self.violation(
                    rel_path, node,
                    "bare 'except:' — catch a repro.errors type")
            elif names & _BROAD and not _handler_reraises(node):
                caught = ", ".join(sorted(names & _BROAD))
                yield self.violation(
                    rel_path, node,
                    f"broad 'except {caught}' without re-raise — catch"
                    " a repro.errors type (CondorError at the outermost"
                    " boundary)")


_GENERIC_RAISES = {"Exception", "BaseException", "RuntimeError"}


@register_rule
class GenericRaiseRule(LintRule):
    """API boundaries raise the typed hierarchy so callers can catch
    ``CondorError`` (builtin ValueError/KeyError/NotImplementedError
    keep their usual contract-violation/abstract-method meanings)."""

    id = "generic-raise"
    description = "ban raising Exception/BaseException/RuntimeError"

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and \
                    isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in _GENERIC_RAISES:
                yield self.violation(
                    rel_path, node,
                    f"raise {name} — use a repro.errors type")


_WALLCLOCK_TIME_ATTRS = {"time", "monotonic", "perf_counter",
                         "monotonic_ns", "perf_counter_ns", "time_ns"}
_WALLCLOCK_DT_ATTRS = {"now", "utcnow", "today"}


@register_rule
class SimWallclockRule(LintRule):
    """The event simulator is deterministic virtual time; wall-clock
    reads make runs irreproducible."""

    id = "sim-wallclock"
    description = "ban wall-clock time sources inside src/repro/sim/"
    scope = "sim/"

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if isinstance(func.value, ast.Name) and \
                    func.value.id == "time" and \
                    func.attr in _WALLCLOCK_TIME_ATTRS:
                yield self.violation(
                    rel_path, node,
                    f"time.{func.attr}() in the simulator — use the"
                    " event clock (Simulator.now)")
            elif func.attr in _WALLCLOCK_DT_ATTRS and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in ("datetime", "date"):
                yield self.violation(
                    rel_path, node,
                    f"{func.value.id}.{func.attr}() in the simulator —"
                    " use the event clock (Simulator.now)")


@register_rule
class WallclockSleepRule(LintRule):
    """Blocking the process on real time makes runs slow and
    irreproducible: backoff and poll pacing go through the injectable
    :class:`repro.resilience.clock.VirtualClock` instead, so an AFI
    wait or a retry schedule is testable in microseconds."""

    id = "wallclock-sleep"
    description = "ban time.sleep() — sleep on the resilience clock"

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "sleep" and \
                    isinstance(node.func.value, ast.Name) and \
                    node.func.value.id == "time":
                yield self.violation(
                    rel_path, node,
                    "time.sleep() — sleep on a"
                    " repro.resilience.clock.VirtualClock instead")
            elif isinstance(node, ast.ImportFrom) and \
                    node.module == "time" and \
                    any(alias.name == "sleep" for alias in node.names):
                yield self.violation(
                    rel_path, node,
                    "'from time import sleep' — sleep on a"
                    " repro.resilience.clock.VirtualClock instead")


@register_rule
class MutableDefaultRule(LintRule):
    """A mutable default is shared across calls — the classic aliasing
    bug."""

    id = "mutable-default"
    description = "ban mutable default argument values"

    _MUTABLE_CALLS = {"list", "dict", "set"}

    def _is_mutable(self, default: ast.expr) -> bool:
        if isinstance(default, (ast.List, ast.Dict, ast.Set,
                                ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(default, ast.Call) and
                isinstance(default.func, ast.Name) and
                default.func.id in self._MUTABLE_CALLS and
                not default.args and not default.keywords)

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            args = node.args
            for default in (*args.defaults, *args.kw_defaults):
                if default is not None and self._is_mutable(default):
                    yield self.violation(
                        rel_path, default,
                        f"mutable default in {node.name}() — default to"
                        " None and create inside the body")


def _has_slots_assignment(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    return False


def _is_slotted_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        func = deco.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name != "dataclass":
            continue
        for kw in deco.keywords:
            if kw.arg == "slots" and \
                    isinstance(kw.value, ast.Constant) and \
                    kw.value.value is True:
                return True
    return False


#: Base classes that manage their own storage layout; requiring
#: ``__slots__`` on top of them is wrong or redundant.
_SLOTS_EXEMPT_BASES = {"NamedTuple", "Enum", "IntEnum", "Flag",
                       "Protocol", "TypedDict"}


@register_rule
class SimSlotsRule(LintRule):
    """The simulator allocates events, processes and channel records on
    every scheduler step; a slot-less class there pays a per-instance
    ``__dict__`` on the hottest allocation path in the repo."""

    id = "sim-slots"
    description = ("require __slots__ (or dataclass(slots=True)) on"
                   " classes in src/repro/sim/")
    scope = "sim/"

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if bases & _SLOTS_EXEMPT_BASES:
                continue
            if _has_slots_assignment(node) or _is_slotted_dataclass(node):
                continue
            yield self.violation(
                rel_path, node,
                f"class {node.name} has no __slots__ — simulator"
                " objects are allocated per event; add __slots__ or"
                " @dataclass(slots=True)")


#: numpy constructors that allocate (or re-stride) from shape arithmetic.
#: On the engine's replay path every such buffer must come from binding
#: a compiled pass (:mod:`repro.nn.plan`), where it is allocated once
#: per (thread, batch size) and replayed.
_PLAN_ALLOC_CALLS = {"pad", "empty", "zeros", "ones", "full",
                     "concatenate", "stack", "empty_like", "zeros_like",
                     "full_like", "as_strided"}

#: The replay loop of a compiled pass: (module, class, methods).
_PLAN_REPLAY_LOOP = ("nn/plan.py", "CompiledPass", ("run", "_replay"))


@register_rule
class EnginePlanAllocRule(LintRule):
    """The reference engine and a compiled pass's replay loop are the
    serving hot path: an ad-hoc shape-derived allocation there defeats
    binding (scratch reuse is the whole point).  Allocations belong in
    plan compilation and binding in ``nn/plan.py``, or in the
    ``nn/functional`` oracle kernels the unplanned path calls."""

    id = "engine-plan-alloc"
    description = ("ban ad-hoc numpy allocations in the engine and the"
                   " compiled-pass replay loop — scratch is bound once")
    scope = "nn/"

    def check(self, tree, rel_path):
        if rel_path == "nn/engine.py":
            yield from self._check_calls(tree, rel_path)
            return
        module, cls, methods = _PLAN_REPLAY_LOOP
        if rel_path != module:
            return
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and \
                            item.name in methods:
                        yield from self._check_calls(item, rel_path)

    def _check_calls(self, tree, rel_path):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if func.attr not in _PLAN_ALLOC_CALLS:
                continue
            if isinstance(func.value, ast.Name) and \
                    func.value.id in ("np", "numpy"):
                yield self.violation(
                    rel_path, node,
                    f"np.{func.attr}() on the replay path — bind scratch"
                    " once per (thread, batch size) in"
                    " ExecutionPlan.bind (repro.nn.plan)")
            elif func.attr == "as_strided":
                yield self.violation(
                    rel_path, node,
                    "as_strided() on the replay path — build window"
                    " views once, when binding (repro.nn.plan)")


_METRIC_NAME = re.compile(r"^condor_[a-z][a-z0-9_]*$")

#: Allowed unit/semantic suffixes per declaration kind.  Counters count
#: events (``_total``); gauges and distribution metrics say what they
#: measure so the series is self-describing on a dashboard.
_METRIC_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("_entries", "_bytes", "_seconds", "_ratio", "_count",
              "_percent"),
    "summary": ("_seconds", "_bytes", "_cycles", "_ratio"),
}


@register_rule
class MetricNameRule(LintRule):
    """Prometheus metric names are an API: the shared ``condor_`` prefix
    keeps every series greppable to this codebase, and the unit suffix
    (``_seconds``, ``_bytes``, ``_total``, ...) is what makes a bare
    number on a dashboard interpretable.  Checked at the registry
    declaration site — the only place a name is ever spelled."""

    id = "metric-name"
    description = ("enforce condor_* snake-case metric names with a"
                   " unit suffix at registry declaration sites")

    def check(self, tree, rel_path):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and
                    isinstance(node.func, ast.Attribute) and
                    node.func.attr in _METRIC_SUFFIXES and
                    node.args):
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and
                    isinstance(first.value, str)):
                continue
            kind, name = node.func.attr, first.value
            if not _METRIC_NAME.match(name):
                yield self.violation(
                    rel_path, node,
                    f"metric name {name!r} — use"
                    " condor_<subsystem>_<what>_<unit> (lower-case"
                    " snake_case, condor_ prefix)")
            elif not name.endswith(_METRIC_SUFFIXES[kind]):
                allowed = "/".join(_METRIC_SUFFIXES[kind])
                yield self.violation(
                    rel_path, node,
                    f"{kind} {name!r} lacks a unit suffix — end it in"
                    f" {allowed}")


#: Calls that do real work inside the flow driver; each must run inside
#: a ``with self._step(...)`` (or a raw ``with span(...)``) so the
#: telemetry manifest accounts for it.
_HEAVY_CALLS = {
    "build_accelerator", "generate_sources", "build_network_ip",
    "xocc_link", "package_xo", "explore", "estimate_accelerator",
    "estimate_performance", "estimate_power_watts",
    "generate_kernel_xml", "write_xclbin", "generate_host_source",
    "check_model",
}


def _is_span_with(with_node: ast.With) -> bool:
    for item in with_node.items:
        call = item.context_expr
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "_step":
            return True
        if isinstance(func, ast.Name) and func.id in ("span", "recording"):
            return True
    return False


class _SpanVisitor(ast.NodeVisitor):
    def __init__(self):
        self.depth = 0
        self.naked: list[ast.Call] = []

    def visit_With(self, node: ast.With):
        if _is_span_with(node):
            self.depth += 1
            self.generic_visit(node)
            self.depth -= 1
        else:
            self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        if name in _HEAVY_CALLS and self.depth == 0:
            self.naked.append(node)
        self.generic_visit(node)


@register_rule
class FlowStepSpanRule(LintRule):
    """Flow steps must be span-instrumented: heavy generator/toolchain
    calls inside ``src/repro/flow/`` belong under ``self._step(...)``
    (or an explicit ``span(...)``) so ``telemetry.json`` stays
    complete."""

    id = "flow-step-span"
    description = ("require span instrumentation around heavy calls in"
                   " src/repro/flow/")
    scope = "flow/"

    def check(self, tree, rel_path):
        visitor = _SpanVisitor()
        visitor.visit(tree)
        for call in visitor.naked:
            name = (call.func.id if isinstance(call.func, ast.Name)
                    else call.func.attr)
            yield self.violation(
                rel_path, call,
                f"{name}() outside a step span — wrap it in 'with"
                " self._step(...)' (or 'with span(...)')")


#: ``threading`` names that start an OS thread.
_THREAD_STARTERS = {"Thread", "Timer"}
#: ``threading`` synchronisation primitives (locks, events and the like).
_SYNC_PRIMITIVES = {"Lock", "RLock", "Condition", "Semaphore",
                    "BoundedSemaphore", "Event", "Barrier"}
#: Modules whose only job is running work on other threads or processes.
_WORKER_MODULES = ("concurrent.futures", "multiprocessing")


def _is_worker_module(name: str | None) -> bool:
    return name is not None and any(
        name == mod or name.startswith(mod + ".") for mod in _WORKER_MODULES)


@register_rule
class ThreadFreeRule(LintRule):
    """The package starts no thread or process of its own: the flow, the
    engine and the serving layer all run on the caller's thread.  A
    server, batcher, token bucket or fleet is used by one thread at a
    time, so it takes no lock (docs/INTERNALS.md, "Concurrency model").
    Only the modules that own state every thread shares build a
    ``threading`` synchronisation primitive."""

    id = "thread-free"
    description = ("ban starting threads, executors and processes; ban"
                   " locks and events outside the shared-state modules")
    #: Modules that own state every caller thread shares, each behind a
    #: plain ``threading.Lock()``: the plan ledger, the metrics registry
    #: and its metrics, the span recorder, the resilience ledger, the
    #: breaker registry, the BLAS pin and the logging install.
    lock_owners = frozenset({
        "nn/plan.py", "nn/blas.py", "obs/metrics.py", "obs/spans.py",
        "resilience/ledger.py", "resilience/boundary.py",
        "util/logging.py"})

    def check(self, tree, rel_path):
        locks_ok = rel_path in self.lock_owners
        # every name the threading module is bound to (import ... as x)
        threading_names = {"threading"} | {
            alias.asname for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
            if alias.name == "threading" and alias.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _is_worker_module(alias.name):
                        yield self._worker(rel_path, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
                if _is_worker_module(node.module) or (
                        node.module == "concurrent" and "futures" in names):
                    yield self._worker(rel_path, node, node.module)
                elif node.module == "threading":
                    if names & _THREAD_STARTERS:
                        yield self._thread(rel_path, node)
                    if names & _SYNC_PRIMITIVES and not locks_ok:
                        yield self._lock(rel_path, node)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in threading_names:
                if node.attr in _THREAD_STARTERS:
                    yield self._thread(rel_path, node)
                elif node.attr in _SYNC_PRIMITIVES and not locks_ok:
                    yield self._lock(rel_path, node)

    def _thread(self, rel_path, node):
        return self.violation(
            rel_path, node,
            "threading.Thread/Timer — the package starts no thread; run"
            " the work on the caller's thread")

    def _worker(self, rel_path, node, module):
        return self.violation(
            rel_path, node,
            f"{module} — the package starts no executor or process; run"
            " the work on the caller's thread")

    def _lock(self, rel_path, node):
        return self.violation(
            rel_path, node,
            "threading lock or event outside the shared-state modules —"
            " an object the package builds is used by one thread at a"
            " time and takes no lock (docs/INTERNALS.md, \"Concurrency"
            " model\")")
