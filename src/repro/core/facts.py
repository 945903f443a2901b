"""Fact generation: turning analysis results into rule-engine facts.

The bridge between PerfExplorer's numeric layer and its knowledge layer.
``MeanEventFact.compareEventToMain`` is the paper's Fig. 1 call: for one
event of a (mean) result, compare its value of a metric against the main
event's, and assert a ``MeanEventFact`` whose fields are exactly what the
Fig. 2 rule pattern-matches:

* ``metric`` — the metric name (e.g. ``"(BACK_END_BUBBLE_ALL / CPU_CYCLES)"``),
* ``higherLower`` — ``"higher"`` / ``"lower"`` / ``"same"``,
* ``severity`` — the event's share of total runtime (its mean inclusive
  TIME over main's), so rules can ignore insignificant events,
* ``mainValue`` / ``eventValue`` — the compared values,
* ``eventName``, ``factType`` — identification.
"""

from __future__ import annotations

import math

import numpy as np

from ..machine import counters as C
from ..rules import Categorical, Fact, FactBatch, LazyValue
from .result import AnalysisError, PerformanceResult

#: higherLower values (Drools enum-ish strings in the paper's rules).
HIGHER = "higher"
LOWER = "lower"
SAME = "same"

FACT_COMPARED_TO_MAIN = "Compared to Main"
FACT_COMPARED_TO_OTHER_TRIAL = "Compared to Other Trial"


def severity_of(
    result: PerformanceResult,
    event: str,
    *,
    severity_metric: str = C.TIME,
    thread: int = 0,
) -> float:
    """Event's share of total runtime: exclusive(event)/inclusive(main).

    Main's own severity uses its exclusive share like every other event.
    """
    total = _runtime_total(result, severity_metric, thread)
    if total <= 0:
        return 0.0
    mine = result.event_row(event, severity_metric)[thread]
    return float(mine / total)


def event_severities(
    result: PerformanceResult,
    *,
    severity_metric: str = C.TIME,
    thread: int = 0,
) -> np.ndarray:
    """:func:`severity_of` for every event at once, in ``result.events``
    order (the same IEEE division, elementwise)."""
    total = _runtime_total(result, severity_metric, thread)
    mine = result.exclusive(severity_metric)[:, thread]
    if total <= 0:
        return np.zeros(len(mine))
    return mine / total


def _runtime_total(result: PerformanceResult, metric: str, thread: int):
    """Main's inclusive ``metric``: the denominator of every severity."""
    if not result.has_metric(metric):
        raise AnalysisError(
            f"severity metric {metric!r} missing from {result.name!r}"
        )
    main = result.main_event()
    return result.event_row(main, metric, inclusive=True)[thread]


class MeanEventFact:
    """Factory for the ``MeanEventFact`` facts the paper's rules consume."""

    HIGHER = HIGHER
    LOWER = LOWER
    SAME = SAME

    #: Relative difference below which values count as "same".
    SAME_TOLERANCE = 0.01

    @classmethod
    def compare_event_to_main(
        cls,
        result: PerformanceResult,
        main_event: str,
        event: str,
        metric: str,
        *,
        severity_result: PerformanceResult | None = None,
        severity_metric: str = C.TIME,
        thread: int = 0,
        inclusive: bool = False,
    ) -> Fact:
        """Build (not assert) the comparison fact for one event.

        ``severity_result`` defaults to ``result`` — pass the original
        (underived) result when the derived one lacks TIME.
        """
        if not result.has_event(event) or not result.has_event(main_event):
            raise AnalysisError(
                f"compare_event_to_main: unknown event ({event!r} or {main_event!r})"
            )
        if not result.has_metric(metric):
            raise AnalysisError(f"no metric {metric!r} in {result.name!r}")
        main_value = float(
            result.event_row(main_event, metric, inclusive=True)[thread]
        )
        event_value = float(
            result.event_row(event, metric, inclusive=inclusive)[thread]
        )
        if math.isclose(event_value, main_value, rel_tol=cls.SAME_TOLERANCE,
                        abs_tol=1e-15):
            higher_lower = SAME
        elif event_value > main_value:
            higher_lower = HIGHER
        else:
            higher_lower = LOWER
        sev_src = severity_result if severity_result is not None else result
        severity = severity_of(
            sev_src, event, severity_metric=severity_metric, thread=thread
        )
        return Fact(
            "MeanEventFact",
            metric=metric,
            eventName=event,
            mainEvent=main_event,
            mainValue=main_value,
            eventValue=event_value,
            higherLower=higher_lower,
            severity=severity,
            factType=FACT_COMPARED_TO_MAIN,
            trial=result.name,
        )

    # camelCase alias matching the paper's Fig. 1 script
    @classmethod
    def compareEventToMain(cls, result, main_event, event, metric, **kw) -> Fact:
        return cls.compare_event_to_main(result, main_event, event, metric, **kw)

    @classmethod
    def compare_all_events_to_main(
        cls,
        result: PerformanceResult,
        metric: str,
        *,
        severity_result: PerformanceResult | None = None,
        severity_metric: str = C.TIME,
        include_main: bool = False,
    ) -> list[Fact]:
        """Comparison facts for every event (the Fig. 1 loop)."""
        main = result.main_event()
        facts = []
        for event in result.events:
            if event == main and not include_main:
                continue
            facts.append(
                cls.compare_event_to_main(
                    result, main, event, metric,
                    severity_result=severity_result,
                    severity_metric=severity_metric,
                )
            )
        return facts


def trial_metadata_facts(result: PerformanceResult) -> FactBatch:
    """One ``TrialMetadata`` fact per metadata entry, as one batch.

    PerfDMF/PerfExplorer 2.0 expose the performance *context* to rules so
    conclusions can be justified by configuration (machine, schedule,
    problem size...).  Non-scalar values are stringified with ``repr``
    when something first reads them: a large callgraph is decoded and its
    text built only if a rule test or a fact reaches its row.
    """
    metadata = result.trial.coded_metadata()
    return FactBatch("TrialMetadata", {
        "trial": [result.name] * len(metadata),
        "name": list(metadata),
        "value": [value if isinstance(value, (str, int, float, bool))
                  else LazyValue(repr, value) for value in metadata.values()]})


def callgraph_columns(result: PerformanceResult) -> tuple[Categorical, Categorical]:
    """The parent and child name columns of the trial's callgraph, coded
    against its events; pairs the trial holds uncoded are coded here."""
    graph = result.trial.callgraph
    if graph is None:
        edges = result.metadata.get("callgraph", [])
        return (Categorical([parent for parent, _ in edges], result.events),
                Categorical([child for _, child in edges], result.events))
    return tuple(Categorical.coded(graph.column(side), graph.codes[:, side],
                                   result.events) for side in (0, 1))


def callgraph_facts(result: PerformanceResult) -> FactBatch:
    """``CallGraphEdge`` facts from the trial's recorded caller→callee edges,
    as one batch whose names are coded against the trial's events.

    The imbalance rule's "events are nested" condition joins on these.
    """
    parents, children = callgraph_columns(result)
    return FactBatch("CallGraphEdge", {
        "parent": parents, "child": children,
        "trial": [result.name] * len(parents)})
