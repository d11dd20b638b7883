"""The pass manager: ordered, individually-selectable static passes.

An :class:`AnalysisPipeline` runs :class:`AnalysisPass` instances over an
:class:`AnalysisContext` (model + mapping + generated design, derived
lazily) and aggregates their :class:`~repro.analysis.diagnostics.Diagnostic`
objects into an :class:`~repro.analysis.diagnostics.AnalysisReport`.
Passes never raise on design defects — they report; a pass that cannot run
because the design failed to build is skipped after a single ``BUILD001``
error records why.

Heavy model/hardware imports happen inside methods: this module must stay
importable from :mod:`repro.ir.validate` without cycles.
"""

from __future__ import annotations

import typing

from repro.analysis.diagnostics import (
    AnalysisReport,
    Diagnostic,
    Location,
    Severity,
)
from repro.errors import CondorError
from repro.obs import REGISTRY, span

if typing.TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.frontend.condor_format import CondorModel
    from repro.frontend.weights import WeightStore
    from repro.hw.components import Accelerator
    from repro.hw.mapping import MappingConfig

_CHECK_RUNS = REGISTRY.counter(
    "condor_check_runs_total", "Static-analysis pipeline runs")
_CHECK_DIAGS = REGISTRY.counter(
    "condor_check_diagnostics_total",
    "Diagnostics emitted by the static analyzer")

_UNSET = object()


class AnalysisContext:
    """Everything a pass may inspect, derived lazily from the model.

    ``mapping`` / ``accelerator`` may be supplied up front (e.g. the flow
    gate passes its DSE-chosen mapping; tests pass deliberately broken
    accelerators); otherwise they are derived exactly the way the flow
    derives them.  A failed derivation is captured as a diagnostic in
    :attr:`build_diagnostics` instead of raising, and every artifact
    downstream of the failure stays ``None``.
    """

    def __init__(self, model: "CondorModel",
                 weights: "WeightStore | None" = None,
                 mapping: "MappingConfig | None" = None,
                 accelerator: "Accelerator | None" = None):
        self.model = model
        self.weights = weights
        self.build_diagnostics: list[Diagnostic] = []
        self._mapping = mapping if mapping is not None else _UNSET
        self._accelerator = accelerator if accelerator is not None \
            else _UNSET
        self._performance = _UNSET
        self._estimate = _UNSET

    @property
    def network(self):
        return self.model.network

    @property
    def device(self):
        from repro.hw.resources import device_for_board
        return device_for_board(self.model.board)

    def _record_build_failure(self, what: str, exc: CondorError) -> None:
        self.build_diagnostics.append(Diagnostic(
            pass_id="build", code="BUILD001", severity=Severity.ERROR,
            message=f"cannot derive the {what}:"
                    f" {type(exc).__name__}: {exc}",
            hint="fix the mapping/model defect; dependent passes were"
                 " skipped"))

    @property
    def mapping(self) -> "MappingConfig | None":
        if self._mapping is _UNSET:
            from repro.hw.mapping import default_mapping, mapping_from_model
            try:
                self._mapping = (mapping_from_model(self.model)
                                 if self.model.hints
                                 else default_mapping(self.network))
            except CondorError as exc:
                self._mapping = None
                self._record_build_failure("layer-to-PE mapping", exc)
        return self._mapping

    @property
    def accelerator(self) -> "Accelerator | None":
        if self._accelerator is _UNSET:
            from repro.hw.accelerator import build_accelerator
            mapping = self.mapping
            if mapping is None:
                self._accelerator = None
                return None
            try:
                self._accelerator = build_accelerator(self.model, mapping)
            except CondorError as exc:
                self._accelerator = None
                self._record_build_failure("accelerator", exc)
        return self._accelerator

    @property
    def performance(self):
        if self._performance is _UNSET:
            from repro.hw.perf import estimate_performance
            acc = self.accelerator
            if acc is None:
                self._performance = None
                return None
            try:
                self._performance = estimate_performance(acc)
            except CondorError as exc:
                self._performance = None
                self._record_build_failure("performance model", exc)
        return self._performance

    @property
    def estimate(self):
        if self._estimate is _UNSET:
            from repro.hw.estimate import estimate_accelerator
            acc = self.accelerator
            if acc is None:
                self._estimate = None
                return None
            try:
                self._estimate = estimate_accelerator(acc)
            except CondorError as exc:
                self._estimate = None
                self._record_build_failure("resource estimate", exc)
        return self._estimate


class AnalysisPass:
    """Base class for static passes.

    Subclasses set a stable :attr:`id`, a human :attr:`description` and
    the context artifacts they require (:attr:`requires` names
    ``AnalysisContext`` attributes — a pass whose requirement is ``None``
    after derivation is skipped).  :meth:`run` yields diagnostics and must
    not raise on *design* defects.
    """

    id: str = ""
    description: str = ""
    requires: tuple[str, ...] = ()

    def run(self, ctx: AnalysisContext):  # pragma: no cover - interface
        raise NotImplementedError

    # -- helpers for subclasses ---------------------------------------------

    def diag(self, code: str, severity: Severity, message: str, *,
             layer: str | None = None, pe: str | None = None,
             channel: str | None = None, resource: str | None = None,
             hint: str = "") -> Diagnostic:
        return Diagnostic(
            pass_id=self.id, code=code, severity=severity, message=message,
            location=Location(layer=layer, pe=pe, channel=channel,
                              resource=resource),
            hint=hint)


#: Registered pass classes in their default execution order.
PASS_REGISTRY: dict[str, type[AnalysisPass]] = {}


def register_pass(cls: type[AnalysisPass]) -> type[AnalysisPass]:
    """Class decorator: add a pass to the registry (import-time)."""
    if not cls.id:
        raise CondorError(f"analysis pass {cls.__name__} has no id")
    if cls.id in PASS_REGISTRY:
        raise CondorError(f"duplicate analysis pass id {cls.id!r}")
    PASS_REGISTRY[cls.id] = cls
    return cls


def _resolve(select: typing.Iterable[str] | None,
             exclude: typing.Iterable[str] | None) -> list[AnalysisPass]:
    known = PASS_REGISTRY
    chosen = list(known) if select is None else list(select)
    unknown = [p for p in chosen if p not in known]
    if exclude:
        unknown += [p for p in exclude if p not in known]
    if unknown:
        raise CondorError(
            f"unknown analysis pass(es) {sorted(set(unknown))};"
            f" known: {sorted(known)}")
    excluded = set(exclude or ())
    # preserve registry order regardless of selection order
    return [known[pass_id]() for pass_id in known
            if pass_id in chosen and pass_id not in excluded]


class AnalysisPipeline:
    """Run passes in order and collect one report."""

    def __init__(self, passes: list[AnalysisPass] | None = None):
        self.passes = passes if passes is not None \
            else [cls() for cls in PASS_REGISTRY.values()]

    @classmethod
    def from_selection(cls, select: typing.Iterable[str] | None = None,
                       exclude: typing.Iterable[str] | None = None) \
            -> "AnalysisPipeline":
        return cls(_resolve(select, exclude))

    def run(self, ctx: AnalysisContext) -> AnalysisReport:
        report = AnalysisReport(model_name=ctx.network.name)
        recorded_build_failures = 0
        with span("analysis.check", model=ctx.network.name,
                  passes=len(self.passes)):
            for pass_ in self.passes:
                with span(f"analysis.{pass_.id}"):
                    if any(getattr(ctx, name) is None
                           for name in pass_.requires):
                        # the BUILD001 diagnostics explain the skip
                        report.passes_run.append(f"{pass_.id} (skipped)")
                    else:
                        report.extend(pass_.run(ctx))
                        report.passes_run.append(pass_.id)
                # surface derivation failures as soon as they happen
                new = ctx.build_diagnostics[recorded_build_failures:]
                if new:
                    report.extend(new)
                    recorded_build_failures = len(ctx.build_diagnostics)
        _CHECK_RUNS.inc()
        for diag in report:
            _CHECK_DIAGS.inc(severity=diag.severity.value)
        return report


def check_model(model: "CondorModel", *,
                weights: "WeightStore | None" = None,
                mapping: "MappingConfig | None" = None,
                accelerator: "Accelerator | None" = None,
                select: typing.Iterable[str] | None = None,
                exclude: typing.Iterable[str] | None = None) \
        -> AnalysisReport:
    """Convenience front door: build a context, run the (selected)
    pipeline, return the report."""
    ctx = AnalysisContext(model, weights=weights, mapping=mapping,
                          accelerator=accelerator)
    return AnalysisPipeline.from_selection(select, exclude).run(ctx)
