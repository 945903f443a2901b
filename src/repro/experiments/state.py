"""Resumable experiment state: side tables in the PerfDMF file.

An experiment run must survive the orchestrator dying mid-sweep — the
CI smoke test literally ``kill -9``'s the service and resumes.  Like the
lineage store, the state lives in the same SQLite file as
the trials it indexes (one artifact to ship, state cascades away with
its repository) and is a :class:`~repro.perfdmf.sidetables.SideTables`
with its own schema version in ``exp_meta``.

One ``exp_run`` row per spec content hash; one ``exp_case`` row per
content-addressed case key under it.  Case rows carry the full sample
history (values + trial names as JSON), so resume is pure bookkeeping:
terminal cases (``converged`` / ``non-converged``) are skipped outright,
``failed`` cases are retried, and cases left ``running`` by a crash are
reset to ``pending`` — their partial samples kept, so already-banked
reruns are never re-executed.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any

from ..perfdmf import PerfDMF, ProfileError
from ..perfdmf.database import transaction
from ..perfdmf.sidetables import SideTables
from .rigor import Assessment
from .spec import Plan

__all__ = [
    "CaseRecord",
    "ExperimentState",
    "ensure_experiments_schema",
    "EXPERIMENTS_SCHEMA_VERSION",
    "TERMINAL_CASE_STATUSES",
]

#: Case statuses that resume never re-executes.
TERMINAL_CASE_STATUSES = frozenset({"converged", "non-converged"})

EXPERIMENTS_TABLES = SideTables("exp", version=1, schema="""
CREATE TABLE IF NOT EXISTS exp_run (
    id         INTEGER PRIMARY KEY,
    spec_hash  TEXT NOT NULL UNIQUE,
    name       TEXT NOT NULL,
    spec_json  TEXT NOT NULL,
    created_at REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS exp_case (
    id            INTEGER PRIMARY KEY,
    run_id        INTEGER NOT NULL REFERENCES exp_run(id) ON DELETE CASCADE,
    case_key      TEXT NOT NULL,
    case_index    INTEGER NOT NULL,
    factors       TEXT NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    runs          INTEGER NOT NULL DEFAULT 0,
    outliers      INTEGER NOT NULL DEFAULT 0,
    mean          REAL,
    halfwidth     REAL,
    rel_halfwidth REAL,
    samples       TEXT NOT NULL DEFAULT '[]',
    trials        TEXT NOT NULL DEFAULT '[]',
    error         TEXT,
    UNIQUE(run_id, case_key)
);
CREATE INDEX IF NOT EXISTS idx_exp_case_run ON exp_case(run_id);
""")

#: Current version of the experiments-side schema.
EXPERIMENTS_SCHEMA_VERSION = EXPERIMENTS_TABLES.version
ensure_experiments_schema = EXPERIMENTS_TABLES.ensure


@dataclass(frozen=True)
class CaseRecord:
    """One case row, decoded."""

    case_key: str
    index: int
    factors: dict[str, Any]
    status: str
    runs: int
    outliers: int
    mean: float | None
    halfwidth: float | None
    rel_halfwidth: float | None
    samples: list[float]
    trials: list[str]
    error: str | None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_CASE_STATUSES

    def to_dict(self) -> dict[str, Any]:
        return {
            "case_key": self.case_key,
            "short": self.case_key[:12],
            "index": self.index,
            "factors": self.factors,
            "status": self.status,
            "runs": self.runs,
            "outliers": self.outliers,
            "mean": self.mean,
            "halfwidth": self.halfwidth,
            "rel_halfwidth": self.rel_halfwidth,
            "samples": self.samples,
            "trials": self.trials,
            "error": self.error,
        }


class ExperimentState:
    """Run/case bookkeeping over an open :class:`PerfDMF` repository."""

    def __init__(self, db: PerfDMF) -> None:
        self.db = db
        self.schema_version = ensure_experiments_schema(db)

    # -- runs --------------------------------------------------------------
    def begin_run(self, plan: Plan) -> int:
        """Find or create the run row for this plan; insert any cases not
        yet recorded (idempotent — the resume entry point)."""
        return transaction(self.db, lambda conn: self._begin_run(conn, plan))

    @staticmethod
    def _begin_run(conn, plan: Plan) -> int:
        spec = plan.spec
        row = conn.execute(
            "SELECT id FROM exp_run WHERE spec_hash = ?",
            (plan.spec_hash,),
        ).fetchone()
        if row is None:
            cur = conn.execute(
                "INSERT INTO exp_run (spec_hash, name, spec_json, "
                "created_at) VALUES (?, ?, ?, ?)",
                (plan.spec_hash, spec.name,
                 json.dumps(spec.to_dict()), time.time()),
            )
            run_id = cur.lastrowid
        else:
            run_id = row[0]
        for case in plan.cases:
            conn.execute(
                "INSERT OR IGNORE INTO exp_case "
                "(run_id, case_key, case_index, factors) "
                "VALUES (?, ?, ?, ?)",
                (run_id, case.key, case.index,
                 json.dumps(case.factors, sort_keys=True)),
            )
        # A crash mid-case leaves 'running' rows; their samples are
        # banked, so they simply resume as pending.
        conn.execute(
            "UPDATE exp_case SET status = 'pending' "
            "WHERE run_id = ? AND status = 'running'",
            (run_id,),
        )
        return run_id

    def run_id_for(self, spec_hash: str) -> int | None:
        row = self.db.connection.execute(
            "SELECT id FROM exp_run WHERE spec_hash = ?", (spec_hash,)
        ).fetchone()
        return row[0] if row else None

    def run_info(self, run_id: int) -> dict[str, Any]:
        row = self.db.connection.execute(
            "SELECT spec_hash, name, spec_json, created_at FROM exp_run "
            "WHERE id = ?", (run_id,),
        ).fetchone()
        if row is None:
            raise ProfileError(f"no experiment run with id {run_id}")
        return {"id": run_id, "spec_hash": row[0], "name": row[1],
                "spec": json.loads(row[2]), "created_at": row[3]}

    # -- cases -------------------------------------------------------------
    def cases(self, run_id: int) -> list[CaseRecord]:
        rows = self.db.connection.execute(
            "SELECT case_key, case_index, factors, status, runs, outliers, "
            "mean, halfwidth, rel_halfwidth, samples, trials, error "
            "FROM exp_case WHERE run_id = ? ORDER BY case_index",
            (run_id,),
        ).fetchall()
        return [self._decode(r) for r in rows]

    def case(self, run_id: int, case_key: str) -> CaseRecord:
        row = self.db.connection.execute(
            "SELECT case_key, case_index, factors, status, runs, outliers, "
            "mean, halfwidth, rel_halfwidth, samples, trials, error "
            "FROM exp_case WHERE run_id = ? AND case_key = ?",
            (run_id, case_key),
        ).fetchone()
        if row is None:
            raise ProfileError(
                f"no case {case_key[:12]}… in experiment run {run_id}"
            )
        return self._decode(row)

    @staticmethod
    def _decode(row) -> CaseRecord:
        return CaseRecord(
            case_key=row[0], index=row[1], factors=json.loads(row[2]),
            status=row[3], runs=row[4], outliers=row[5],
            mean=row[6], halfwidth=row[7], rel_halfwidth=row[8],
            samples=json.loads(row[9]), trials=json.loads(row[10]),
            error=row[11],
        )

    def mark_running(self, run_id: int, case_key: str) -> None:
        self._exec(
            "UPDATE exp_case SET status = 'running', error = NULL "
            "WHERE run_id = ? AND case_key = ?", (run_id, case_key),
        )

    def record_sample(self, run_id: int, case_key: str,
                      trial: str, value: float) -> None:
        """Bank one completed rerun (durable before the next submit)."""

        def bank(conn) -> None:
            row = conn.execute(
                "SELECT samples, trials FROM exp_case "
                "WHERE run_id = ? AND case_key = ?", (run_id, case_key),
            ).fetchone()
            if row is None:
                raise ProfileError(f"no case {case_key[:12]}… to record")
            samples = json.loads(row[0])
            trials = json.loads(row[1])
            if trial not in trials:
                samples.append(float(value))
                trials.append(trial)
            conn.execute(
                "UPDATE exp_case SET samples = ?, trials = ?, runs = ? "
                "WHERE run_id = ? AND case_key = ?",
                (json.dumps(samples), json.dumps(trials), len(trials),
                 run_id, case_key),
            )

        transaction(self.db, bank)

    def finalize_case(self, run_id: int, case_key: str, status: str,
                      assessment: Assessment | None = None,
                      error: str | None = None) -> None:
        if assessment is not None:
            self._exec(
                "UPDATE exp_case SET status = ?, outliers = ?, mean = ?, "
                "halfwidth = ?, rel_halfwidth = ?, error = ? "
                "WHERE run_id = ? AND case_key = ?",
                (status, len(assessment.outliers), assessment.mean,
                 assessment.halfwidth, assessment.rel_halfwidth, error,
                 run_id, case_key),
            )
        else:
            self._exec(
                "UPDATE exp_case SET status = ?, error = ? "
                "WHERE run_id = ? AND case_key = ?",
                (status, error, run_id, case_key),
            )

    def _exec(self, sql: str, params: tuple) -> None:
        transaction(self.db, lambda conn: conn.execute(sql, params))

    # -- summaries ---------------------------------------------------------
    def summary(self, run_id: int) -> dict[str, Any]:
        cases = self.cases(run_id)
        by_status: dict[str, int] = {}
        for c in cases:
            by_status[c.status] = by_status.get(c.status, 0) + 1
        min_runs = 1
        info = self.run_info(run_id)
        rigor = info["spec"].get("rigor") or {}
        min_runs = int(rigor.get("min_runs", 1))
        total_runs = sum(c.runs for c in cases)
        reruns = sum(max(0, c.runs - min_runs) for c in cases)
        return {
            "run_id": run_id,
            "name": info["name"],
            "spec_hash": info["spec_hash"],
            "cases": len(cases),
            "by_status": by_status,
            "total_runs": total_runs,
            "reruns": reruns,
            "outliers": sum(c.outliers for c in cases),
        }
