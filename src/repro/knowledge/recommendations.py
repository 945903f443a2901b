"""Rendering diagnosis results as user-facing reports.

The current system (Fig. 3, solid arrows) ends at "User Recommendations":
this module formats a harness's output — the fired-rule explanations and
the Recommendation facts — into the report a developer would read, and
into the structured form the feedback optimizer consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.harness import RuleHarness
from ..rules import Fact


@dataclass(frozen=True)
class Recommendation:
    """A structured view over one Recommendation fact."""

    category: str
    event: str
    severity: float
    message: str
    details: dict = field(default_factory=dict, hash=False, compare=False)

    @classmethod
    def from_fact(cls, fact: Fact) -> "Recommendation":
        fields = fact.as_dict()
        return cls(
            category=fields.pop("category", "unknown"),
            event=str(fields.pop("event", "<program>")),
            severity=float(fields.pop("severity", 0.0) or 0.0),
            message=fields.pop("message", ""),
            details=fields,
        )

    def to_dict(self) -> dict:
        """The wire shape: what service jobs and the sentinel return."""
        return {"category": self.category, "event": self.event,
                "severity": self.severity, "message": self.message}


def recommendations_of(harness: RuleHarness) -> list[Recommendation]:
    """Structured recommendations, most severe first."""
    return [Recommendation.from_fact(f) for f in harness.recommendations()]


def render_report(harness: RuleHarness, *, title: str = "Performance diagnosis") -> str:
    """The human-readable report (explanations + ranked recommendations)."""
    lines = [title, "=" * len(title), ""]
    if harness.output:
        lines.append("Findings:")
        for entry in harness.output:
            lines.append(f"  {entry}")
        lines.append("")
    recs = recommendations_of(harness)
    if recs:
        lines.append("Recommendations (most severe first):")
        for i, rec in enumerate(recs, 1):
            sev = f" [{rec.severity:.0%} of runtime]" if rec.severity else ""
            lines.append(f"  {i}. ({rec.category}) {rec.event}{sev}: {rec.message}")
    else:
        lines.append("No problems diagnosed.")
    lines.append("")
    lines.append(f"Rules fired: {len(harness.engine.trace)}")
    return "\n".join(lines)


def summarize_categories(harness: RuleHarness) -> dict[str, int]:
    """Recommendation counts per category (benchmark-friendly)."""
    counts: dict[str, int] = {}
    for rec in recommendations_of(harness):
        counts[rec.category] = counts.get(rec.category, 0) + 1
    return counts
