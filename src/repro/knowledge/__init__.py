"""The performance-knowledge layer: the paper's expert rules, the analysis
scripts that feed them, and recommendation reporting."""

from .facts_gen import (
    INEFFICIENCY_METRIC,
    STALL_RATE_METRIC,
    imbalance_facts,
    inefficiency_facts,
    locality_facts,
    phase_imbalance_facts,
    power_level_facts,
    serialization_facts,
    stall_decomposition_facts,
    stall_rate_facts,
    thread_cluster_facts,
    wait_state_facts,
)
from .recommendations import (
    Recommendation,
    recommendations_of,
    render_report,
    summarize_categories,
)
from .lineage_rules import (
    CREEP_STEP_THRESHOLD,
    CREEP_TOTAL_THRESHOLD,
    DEGRADATION_SEVERITY_THRESHOLD,
    lineage_rulebase,
    lineage_rules,
)
from .regression_rules import (
    REGRESSION_SEVERITY_THRESHOLD,
    regression_rulebase,
    regression_rules,
)
from .rulebase import (
    DIAGNOSE_SCRIPTS,
    RULEBASE_NAME,
    diagnose_genidlest,
    diagnose_load_balance,
    diagnose_locality,
    diagnose_stalls,
    diagnose_stored,
    diagnose_timeline,
    openuh_rules,
    prl_rules,
    recommend_power_levels,
)
from .service_rules import (
    COLD_CACHE_HIT_RATE,
    service_rules,
)
from .experiment_rules import (
    RERUN_HEAVY_RATE,
    experiment_rules,
)
from .rules_def import (
    IMBALANCE_RATIO_THRESHOLD,
    IMBALANCE_SEVERITY_THRESHOLD,
    STALL_COVERAGE_THRESHOLD,
    STALL_RATE_SEVERITY_THRESHOLD,
    WAIT_STATE_SEVERITY_THRESHOLD,
)

__all__ = [
    "COLD_CACHE_HIT_RATE",
    "CREEP_STEP_THRESHOLD",
    "CREEP_TOTAL_THRESHOLD",
    "DEGRADATION_SEVERITY_THRESHOLD",
    "DIAGNOSE_SCRIPTS",
    "IMBALANCE_RATIO_THRESHOLD",
    "RERUN_HEAVY_RATE",
    "experiment_rules",
    "IMBALANCE_SEVERITY_THRESHOLD",
    "INEFFICIENCY_METRIC",
    "REGRESSION_SEVERITY_THRESHOLD",
    "RULEBASE_NAME",
    "Recommendation",
    "STALL_COVERAGE_THRESHOLD",
    "STALL_RATE_METRIC",
    "STALL_RATE_SEVERITY_THRESHOLD",
    "WAIT_STATE_SEVERITY_THRESHOLD",
    "diagnose_genidlest",
    "diagnose_load_balance",
    "diagnose_locality",
    "diagnose_stalls",
    "diagnose_stored",
    "diagnose_timeline",
    "imbalance_facts",
    "inefficiency_facts",
    "lineage_rulebase",
    "lineage_rules",
    "locality_facts",
    "openuh_rules",
    "phase_imbalance_facts",
    "power_level_facts",
    "prl_rules",
    "recommend_power_levels",
    "recommendations_of",
    "regression_rulebase",
    "regression_rules",
    "render_report",
    "serialization_facts",
    "service_rules",
    "stall_decomposition_facts",
    "stall_rate_facts",
    "summarize_categories",
    "thread_cluster_facts",
    "wait_state_facts",
]
