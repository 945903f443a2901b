"""Declarative experiment specs: factors × vectors → content-addressed cases.

The paper's premise is that knowledge-based analysis pays off over large
bodies of trials; this module is the volume driver's front end.  An
:class:`ExperimentSpec` names an application, a key metric/event, a set
of **factors** (named value lists: schedule, thread count, noise seed,
machine model, ...) and a **vector** describing how factors combine:

* ``cartesian`` — the full cross product, in factor declaration order;
* ``zip`` — parallel iteration (all factor lists must agree in length);
* ``cases`` — an explicit list of factor assignments.

Expansion applies ``exclude`` constraint tables (a case is dropped when
it matches *every* key of any exclude entry), enforces the ``max_cases``
cap by **refusing** — never silently truncating — and yields a
:class:`Plan` of :class:`Case` rows.  Each case is content-addressed:
its :attr:`Case.key` is a SHA-256 over the canonical JSON of everything
that determines the produced data (app, storage coordinates, metric,
key event, noise level, and the factor assignment).  Two expansions of
the same spec therefore produce the same ordered case keys — the basis
of the resume model (DESIGN §10) — and every run's random stream is
derived from the key via :func:`case_seed`, so any case is
bit-reproducible in isolation.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..core.result import AnalysisError
from ..version import canonical_json
from .rigor import RigorPolicy

__all__ = [
    "Case",
    "ExperimentSpec",
    "Plan",
    "SpecError",
    "case_rng",
    "case_seed",
]

#: Applications the run-trial handler knows how to drive.
KNOWN_APPS = ("synthetic", "msa", "genidlest")

#: Default expansion cap; specs may raise it explicitly via ``[limits]``.
DEFAULT_MAX_CASES = 1_000


class SpecError(AnalysisError):
    """A spec that cannot be expanded (the error says why)."""


def case_seed(case_key: str, rerun: int = 0) -> int:
    """The 64-bit seed of one case execution, derived from its content
    address — run ``rerun`` of a case is reproducible anywhere."""
    digest = hashlib.sha256(f"{case_key}:{int(rerun)}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def case_rng(case_key: str, rerun: int = 0):
    """A :class:`numpy.random.Generator` seeded by :func:`case_seed` —
    what the run-trial handler feeds ``runtime.exec`` / ``perturb_trial``."""
    import numpy as np

    return np.random.default_rng(case_seed(case_key, rerun))


@dataclass(frozen=True)
class Case:
    """One expanded test case: a full factor assignment plus its address."""

    index: int
    factors: dict[str, Any]
    key: str

    @property
    def short(self) -> str:
        """Display / trial-name prefix (12 hex chars of the key)."""
        return self.key[:12]

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "key": self.key,
                "short": self.short, "factors": dict(self.factors)}


@dataclass(frozen=True)
class Plan:
    """A spec expanded: the ordered, content-addressed case list."""

    spec: "ExperimentSpec"
    cases: tuple[Case, ...]
    excluded: int = 0

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash

    def case_keys(self) -> list[str]:
        return [c.key for c in self.cases]

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.name,
            "spec_hash": self.spec_hash,
            "cases": [c.to_dict() for c in self.cases],
            "excluded": self.excluded,
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """The declarative description of one experiment sweep."""

    name: str
    app: str = "synthetic"
    #: PerfDMF storage coordinates: application / experiment rows.
    application: str = "experiments"
    experiment: str | None = None
    metric: str = "TIME"
    key_event: str = "main"
    factors: dict[str, list[Any]] = field(default_factory=dict)
    vector: str = "cartesian"
    #: Explicit factor assignments (``vector == "cases"`` only).
    cases: tuple[dict[str, Any], ...] = ()
    #: Constraint tables; a case matching every key of one entry is dropped.
    excludes: tuple[dict[str, Any], ...] = ()
    max_cases: int = DEFAULT_MAX_CASES
    rigor: RigorPolicy = field(default_factory=RigorPolicy)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("spec needs a name")
        if self.app not in KNOWN_APPS:
            raise SpecError(
                f"unknown app {self.app!r}; known: {list(KNOWN_APPS)}"
            )
        if self.vector not in ("cartesian", "zip", "cases"):
            raise SpecError(
                f"vector kind must be cartesian, zip, or cases; "
                f"got {self.vector!r}"
            )
        if self.max_cases < 1:
            raise SpecError("max_cases must be positive")

    # -- identity ----------------------------------------------------------
    @property
    def experiment_name(self) -> str:
        """The PerfDMF experiment row trials land under."""
        return self.experiment or self.name

    @property
    def spec_hash(self) -> str:
        """Content address of the whole spec (keys run/resume state)."""
        return hashlib.sha256(canonical_json({
            "name": self.name,
            "app": self.app,
            "application": self.application,
            "experiment": self.experiment_name,
            "metric": self.metric,
            "key_event": self.key_event,
            "factors": self.factors,
            "vector": self.vector,
            "cases": list(self.cases),
            "excludes": list(self.excludes),
            "rigor": self.rigor.to_dict(),
        }).encode()).hexdigest()

    def case_key(self, factors: Mapping[str, Any]) -> str:
        """Content address of one case: everything that determines the
        data it produces (spec identity minus the rigor thresholds, which
        govern *how many* runs happen, not what each run computes)."""
        return hashlib.sha256(canonical_json({
            "app": self.app,
            "application": self.application,
            "experiment": self.experiment_name,
            "metric": self.metric,
            "key_event": self.key_event,
            "noise": self.rigor.noise,
            "factors": dict(factors),
        }).encode()).hexdigest()

    # -- expansion ---------------------------------------------------------
    def _factor_rows(self) -> Iterable[dict[str, Any]]:
        names = list(self.factors)
        for fname in names:
            if not self.factors[fname]:
                raise SpecError(
                    f"factor {fname!r} has no values — remove it or give "
                    "it at least one"
                )
        if self.vector == "cases":
            if not self.cases:
                raise SpecError("vector kind 'cases' needs [[vector.case]] "
                                "entries")
            keys = set(self.cases[0])
            for i, case in enumerate(self.cases):
                if set(case) != keys:
                    raise SpecError(
                        f"explicit case {i} assigns {sorted(case)} but "
                        f"case 0 assigns {sorted(keys)}: all cases must "
                        "assign the same factors"
                    )
            yield from (dict(c) for c in self.cases)
            return
        if not names:
            raise SpecError("spec declares no factors")
        if self.vector == "zip":
            lengths = {f: len(self.factors[f]) for f in names}
            if len(set(lengths.values())) > 1:
                raise SpecError(
                    "zip vector needs equal-length factors; got "
                    + ", ".join(f"{f}={n}" for f, n in lengths.items())
                )
            for values in zip(*(self.factors[f] for f in names)):
                yield dict(zip(names, values))
            return
        for values in itertools.product(*(self.factors[f] for f in names)):
            yield dict(zip(names, values))

    def _raw_count(self) -> int:
        if self.vector == "cases":
            return len(self.cases)
        if self.vector == "zip":
            return max((len(v) for v in self.factors.values()), default=0)
        return math.prod(len(v) for v in self.factors.values()) \
            if self.factors else 0

    def expand(self) -> Plan:
        """Materialize the plan; refuses (never truncates) past the cap."""
        raw = self._raw_count()
        if raw > self.max_cases:
            raise SpecError(
                f"spec {self.name!r} expands to {raw} cases, over the "
                f"max_cases cap of {self.max_cases} — shrink a factor, "
                "add excludes, or raise [limits] max_cases explicitly"
            )
        cases: list[Case] = []
        excluded = 0
        for factors in self._factor_rows():
            if any(
                all(k in factors and factors[k] == v for k, v in ex.items())
                for ex in self.excludes if ex
            ):
                excluded += 1
                continue
            cases.append(Case(
                index=len(cases),
                factors=factors,
                key=self.case_key(factors),
            ))
        if not cases:
            raise SpecError(
                f"spec {self.name!r} expands to zero cases "
                f"({excluded} excluded by constraints)"
            )
        return Plan(spec=self, cases=tuple(cases), excluded=excluded)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from the TOML document shape (see module doc)."""
        data = dict(data)
        vector = data.get("vector") or {}
        if isinstance(vector, str):
            vector = {"kind": vector}
        limits = data.get("limits") or {}
        rigor_data = data.get("rigor") or {}
        try:
            rigor = RigorPolicy(**rigor_data)
        except TypeError as exc:
            raise SpecError(f"bad [rigor] section: {exc}") from None
        factors = {
            str(k): list(v) for k, v in (data.get("factors") or {}).items()
        }
        return cls(
            name=str(data.get("name", "")),
            app=str(data.get("app", "synthetic")),
            application=str(data.get("application", "experiments")),
            experiment=data.get("experiment"),
            metric=str(data.get("metric", "TIME")),
            key_event=str(data.get("key_event", "main")),
            factors=factors,
            vector=str(vector.get("kind", "cartesian")),
            cases=tuple(dict(c) for c in vector.get("case", [])),
            excludes=tuple(dict(e) for e in data.get("exclude", [])),
            max_cases=int(limits.get("max_cases", DEFAULT_MAX_CASES)),
            rigor=rigor,
        )

    @classmethod
    def from_toml(cls, path: str) -> "ExperimentSpec":
        import tomllib

        with open(path, "rb") as fh:
            try:
                data = tomllib.load(fh)
            except tomllib.TOMLDecodeError as exc:
                raise SpecError(f"{path}: {exc}") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "app": self.app,
            "application": self.application,
            "experiment": self.experiment_name,
            "metric": self.metric,
            "key_event": self.key_event,
            "factors": {k: list(v) for k, v in self.factors.items()},
            "vector": self.vector,
            "cases": [dict(c) for c in self.cases],
            "excludes": [dict(e) for e in self.excludes],
            "max_cases": self.max_cases,
            "rigor": self.rigor.to_dict(),
        }
