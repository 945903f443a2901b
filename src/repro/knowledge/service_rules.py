"""ServiceRules: operations advice for the analysis service itself, as
``ServiceRules.prl`` (``serve diagnose``)."""

from .rulebase import rulebase_loader

RULEBASE_NAME = "service-rules"

service_rules = rulebase_loader(RULEBASE_NAME, "ServiceRules.prl")
