"""Feedback-directed optimization: recommendations → build decisions.

Fig. 3's dashed arrow — "Future capabilities will bypass the need for
manual changes to the source code by the user" — is implemented here: the
``Recommendation`` facts the knowledge rulebase asserts are translated into
a :class:`TuningPlan` the compiler/runtime layers apply on the next build:

* a load-imbalance recommendation sets the OpenMP schedule it names;
* a data-locality recommendation enables parallel first-touch
  initialization and marks the named regions for locality-focused loop
  optimization (the cache-weighted cost-model goal);
* a sequential-bottleneck recommendation marks the named region for
  parallelization;
* power/energy recommendations pick the optimization level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..rules import Fact

#: Cost-model goals a plan can ask the next build to optimise for.
GOAL_SPEED = "speed"
GOAL_CACHE = "cache"
GOAL_LOW_POWER = "low-power"


@dataclass(frozen=True)
class TuningPlan:
    """Build/runtime decisions derived from diagnosis."""

    schedule: str | None = None
    parallelize_initialization: bool = False
    parallelize_regions: frozenset[str] = frozenset()
    optimization_level: str | None = None
    goal: str = GOAL_SPEED
    #: Human-readable trail: which recommendation caused which decision.
    decisions: tuple[str, ...] = ()

    def describe(self) -> str:
        lines = ["TuningPlan:"]
        if self.schedule:
            lines.append(f"  schedule -> {self.schedule}")
        if self.parallelize_initialization:
            lines.append("  parallelize initialization loops (first-touch)")
        for region in sorted(self.parallelize_regions):
            lines.append(f"  parallelize region {region}")
        if self.optimization_level:
            lines.append(f"  optimization level -> {self.optimization_level}")
        lines.append(f"  cost-model goal -> {self.goal}")
        for d in self.decisions:
            lines.append(f"  because: {d}")
        return "\n".join(lines)


class FeedbackOptimizer:
    """Translates Recommendation facts into a :class:`TuningPlan`.

    Recommendation facts carry at least ``category`` and usually ``event``
    plus category-specific fields (``suggested_schedule``...).  Unknown
    categories are preserved in the decision trail but change nothing,
    so new rules degrade gracefully.
    """

    def plan(self, recommendations: list[Fact], *, base: TuningPlan | None = None) -> TuningPlan:
        plan = base or TuningPlan()
        for rec in recommendations:
            category = rec.get("category", "unknown")
            handler = getattr(self, f"_apply_{category.replace('-', '_')}", None)
            if handler is None:
                plan = replace(
                    plan,
                    decisions=plan.decisions
                    + (f"ignored unknown category {category!r}",),
                )
                continue
            plan = handler(rec, plan)
        return plan

    # -- category handlers --------------------------------------------------
    def _apply_load_imbalance(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        schedule = rec.get("suggested_schedule", "dynamic,1")
        return replace(
            plan,
            schedule=schedule,
            decisions=plan.decisions
            + (
                f"load imbalance on {rec.get('event', '?')} "
                f"(ratio {rec.get('imbalance_ratio', 0):.3g}) -> schedule {schedule}",
            ),
        )

    def _apply_data_locality(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        event = rec.get("event", "?")
        return replace(
            plan,
            parallelize_initialization=True,
            goal=GOAL_CACHE,
            decisions=plan.decisions
            + (
                f"poor locality on {event} (remote ratio "
                f"{rec.get('remote_ratio', 0):.3g}) -> parallel first-touch "
                "init + cache-weighted cost model",
            ),
        )

    def _apply_sequential_bottleneck(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        event = rec.get("event", "?")
        return replace(
            plan,
            parallelize_regions=plan.parallelize_regions | {event},
            decisions=plan.decisions
            + (f"sequential bottleneck {event} -> parallelize its copies",),
        )

    def _apply_stall_per_cycle(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        return replace(
            plan,
            decisions=plan.decisions
            + (
                f"high stall/cycle on {rec.get('event', '?')} -> candidate "
                "for memory-oriented optimization",
            ),
        )

    def _apply_memory_bound(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        return replace(
            plan,
            goal=GOAL_CACHE,
            decisions=plan.decisions
            + (
                f"memory-bound stalls on {rec.get('event', '?')} -> "
                "cache-weighted cost model",
            ),
        )

    def _apply_power(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        level = rec.get("suggested_level")
        return replace(
            plan,
            optimization_level=level or plan.optimization_level,
            goal=GOAL_LOW_POWER if rec.get("target") == "power" else plan.goal,
            decisions=plan.decisions
            + (
                f"power/energy tradeoff -> level {level} "
                f"(target {rec.get('target', 'both')})",
            ),
        )

    _apply_energy = _apply_power

    def _apply_more_counters(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        return replace(
            plan,
            decisions=plan.decisions
            + (
                f"stalls on {rec.get('event', '?')} not fully decomposed -> "
                "schedule an additional counter run before optimizing it",
            ),
        )

    def _apply_fp_bound(self, rec: Fact, plan: TuningPlan) -> TuningPlan:
        return replace(
            plan,
            optimization_level=plan.optimization_level or "O3",
            decisions=plan.decisions
            + (
                f"FP-latency-bound {rec.get('event', '?')} -> enable the "
                "pipelining/vectorization level (O3)",
            ),
        )
