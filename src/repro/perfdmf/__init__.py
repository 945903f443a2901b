"""PerfDMF: the performance data management framework substrate.

Reproduces the data layer the paper's PerfExplorer sits on: a hierarchical
Application → Experiment → Trial model, dense per-metric profile arrays, a
SQLite-backed repository, and loaders for multiple profile formats (TAU
text, JSON, CSV).
"""

from .database import PerfDMF, next_trial_name
from .loaders.csv_format import read_csv_profile, write_csv_profile
from .loaders.gprof import parse_gprof_text, read_gprof_profile
from .loaders.json_format import (
    read_json_profile,
    trial_from_dict,
    trial_to_dict,
    write_json_profile,
)
from .loaders.tau import read_tau_profile, write_tau_profile
from .model import (
    CALLPATH_SEPARATOR,
    MAIN_EVENT,
    CallGraph,
    Event,
    Metric,
    ProfileError,
    ThreadId,
    Trial,
    TrialBuilder,
)
from .query import (
    Utilities,
    get_default_repository,
    set_default_repository,
)
from .snapshots import (
    interval_experiment,
    load_interval_trials,
    store_interval_trials,
)

__all__ = [
    "CALLPATH_SEPARATOR",
    "CallGraph",
    "Event",
    "MAIN_EVENT",
    "Metric",
    "PerfDMF",
    "ProfileError",
    "ThreadId",
    "Trial",
    "TrialBuilder",
    "Utilities",
    "get_default_repository",
    "interval_experiment",
    "load_interval_trials",
    "next_trial_name",
    "parse_gprof_text",
    "read_csv_profile",
    "read_gprof_profile",
    "read_json_profile",
    "read_tau_profile",
    "set_default_repository",
    "store_interval_trials",
    "trial_from_dict",
    "trial_to_dict",
    "write_csv_profile",
    "write_json_profile",
    "write_tau_profile",
]
