"""LineageRules: the history-level diagnoses (first bad version, slow
creep, rulebase-coincident regression) over :mod:`repro.lineage.facts`,
as ``LineageRules.prl``."""

from .rulebase import rulebase_loader

RULEBASE_NAME = "lineage-rules"

lineage_rules = rulebase_loader(RULEBASE_NAME, "LineageRules.prl")
