"""Structured diagnostics for the static analyzer.

Unlike the raise-on-first-error validators, analysis passes report *all*
findings as :class:`Diagnostic` objects — severity, stable code, the pass
that produced it, a location inside the design (layer / PE / channel /
resource) and a fix hint — collected into an :class:`AnalysisReport` that
renders as text or JSON.

This module is dependency-free on purpose: :mod:`repro.ir.validate` and the
analysis passes both build on it without import cycles.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings gate the flow (the design will deadlock, not fit,
    or not map); ``WARNING`` findings predict degraded behaviour (stalls,
    precision loss); ``INFO`` findings are advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]


@dataclass(frozen=True)
class Location:
    """Where a diagnostic points.

    All fields are optional: ``layer`` / ``pe`` / ``channel`` (a FIFO) /
    ``resource`` (``lut`` / ``dsp`` / ...).
    """

    layer: str | None = None
    pe: str | None = None
    channel: str | None = None
    resource: str | None = None

    def _pairs(self) -> tuple:
        return (("layer", self.layer), ("pe", self.pe),
                ("channel", self.channel), ("resource", self.resource))

    def __str__(self) -> str:
        parts = [f"{name}={value}" for name, value in self._pairs()
                 if value is not None]
        return " ".join(parts) if parts else "-"

    def to_dict(self) -> dict:
        return {name: value for name, value in self._pairs()
                if value is not None}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    pass_id: str
    code: str
    severity: Severity
    message: str
    location: Location = Location()
    hint: str = ""

    def render(self) -> str:
        line = (f"{self.severity.value:<7} {self.code} [{self.pass_id}]"
                f" {self.location}: {self.message}")
        if self.hint:
            line += f"\n        hint: {self.hint}"
        return line

    def to_dict(self) -> dict:
        doc: dict = {
            "pass": self.pass_id,
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location.to_dict(),
        }
        if self.hint:
            doc["hint"] = self.hint
        return doc


@dataclass
class AnalysisReport:
    """All diagnostics of one analyzer run over one model."""

    model_name: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: Pass ids that ran, in order (including passes with no findings).
    passes_run: list[str] = field(default_factory=list)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    # -- selection ----------------------------------------------------------

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    @property
    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostics were produced."""
        return not self.errors

    def by_pass(self, pass_id: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.pass_id == pass_id]

    def with_code(self, code: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    # -- rendering ----------------------------------------------------------

    def summary_line(self) -> str:
        return (f"{self.model_name or 'design'}:"
                f" {len(self.errors)} error(s),"
                f" {len(self.warnings)} warning(s),"
                f" {len(self.infos)} info(s)"
                f" from {len(self.passes_run)} pass(es)")

    def render(self, *, min_severity: Severity = Severity.INFO) -> str:
        lines = []
        ordered = sorted(self.diagnostics,
                         key=lambda d: (d.severity.rank, d.pass_id, d.code))
        for diag in ordered:
            if diag.severity.rank > min_severity.rank:
                continue
            lines.append(diag.render())
        lines.append(self.summary_line())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "model": self.model_name,
            "passes": list(self.passes_run),
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "infos": len(self.infos),
            },
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)
