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
from .lineage_rules import lineage_rules
from .rulebase import (
    DIAGNOSE_SCRIPTS,
    RULEBASE_NAME,
    diagnose_genidlest,
    diagnose_load_balance,
    diagnose_locality,
    diagnose_stalls,
    diagnose_stored,
    diagnose_timeline,
    experiment_rules,
    openuh_rules,
    prl_rules,
    recommend_power_levels,
    regression_rulebase,
)
from .service_rules import service_rules

__all__ = [
    "DIAGNOSE_SCRIPTS",
    "experiment_rules",
    "INEFFICIENCY_METRIC",
    "RULEBASE_NAME",
    "Recommendation",
    "STALL_RATE_METRIC",
    "diagnose_genidlest",
    "diagnose_load_balance",
    "diagnose_locality",
    "diagnose_stalls",
    "diagnose_stored",
    "diagnose_timeline",
    "imbalance_facts",
    "inefficiency_facts",
    "lineage_rules",
    "locality_facts",
    "openuh_rules",
    "phase_imbalance_facts",
    "power_level_facts",
    "prl_rules",
    "recommend_power_levels",
    "recommendations_of",
    "regression_rulebase",
    "render_report",
    "serialization_facts",
    "service_rules",
    "stall_decomposition_facts",
    "stall_rate_facts",
    "summarize_categories",
    "thread_cluster_facts",
    "wait_state_facts",
]
