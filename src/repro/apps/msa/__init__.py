"""MSA / ClustalW case study (§III.A): sequences, Smith-Waterman,
ClustalW stages, and the OpenMP-parallel distance-matrix experiment."""

from .clustalw import (
    ClustalWResult,
    GuideTreeNode,
    MergeStep,
    clustalw,
    distance_matrix,
    guide_tree,
    progressive_alignment,
)
from .parallel import (
    EVENT_INNER,
    EVENT_MAIN,
    EVENT_OUTER,
    MSATrialResult,
    distance_tasks,
    relative_efficiency,
    run_msa_scaling,
    run_msa_trial,
)
from .sequences import AMINO_ACIDS, SequenceSet, generate_sequences
from .smith_waterman import (
    score_to_distance,
    sw_score,
    sw_score_reference,
    sw_work,
    sw_work_signature,
)

__all__ = [
    "AMINO_ACIDS",
    "ClustalWResult",
    "EVENT_INNER",
    "EVENT_MAIN",
    "EVENT_OUTER",
    "GuideTreeNode",
    "MSATrialResult",
    "MergeStep",
    "SequenceSet",
    "clustalw",
    "distance_matrix",
    "distance_tasks",
    "generate_sequences",
    "guide_tree",
    "progressive_alignment",
    "relative_efficiency",
    "run_msa_scaling",
    "run_msa_trial",
    "score_to_distance",
    "sw_score",
    "sw_score_reference",
    "sw_work",
    "sw_work_signature",
]
