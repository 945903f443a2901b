"""repro.lineage: commit-anchored performance lineage and bisect.

The regression sentinel (:mod:`repro.regress`) answers "is this trial
slower than the baseline?"; this package answers the question engineers
actually ask next — **"since when, and which change?"**  It anchors
stored trials to code versions in a :class:`LineageStore` (side tables
in the same PerfDMF file), which is also where the sentinel's baselines
live: each promotion is a version in its pair's chain.  It sweeps the
sentinel's detectors along version history (:func:`scan_range`), turns
the sweep into ``lineage-rules`` working memory
(:mod:`repro.lineage.facts`), and binary-searches history for the
regression-introducing version (:class:`PerfBisector`) — synthesizing
missing samples through a :mod:`repro.serve` service with the
experiments layer's rigor loop when banked history runs out.
"""

from .bisect import (
    BisectResult,
    PerfBisector,
    ProbeRecord,
    probe_budget,
    probe_case_key,
)
from .facts import (
    degradation_facts,
    diagnose_lineage,
    drift_facts,
    lineage_facts,
)
from .scanner import PairComparison, ScanResult, scan_range
from .store import (
    LINEAGE_SCHEMA_VERSION,
    LineageStore,
    TrialRef,
    VersionRecord,
    ensure_lineage_schema,
)

__all__ = [
    "LINEAGE_SCHEMA_VERSION",
    "BisectResult",
    "LineageStore",
    "PairComparison",
    "PerfBisector",
    "ProbeRecord",
    "ScanResult",
    "TrialRef",
    "VersionRecord",
    "degradation_facts",
    "diagnose_lineage",
    "drift_facts",
    "ensure_lineage_schema",
    "lineage_facts",
    "probe_budget",
    "probe_case_key",
    "scan_range",
]
