"""Procedure inlining (IPA's feedback-directed inliner).

OpenUH inlines small, hot callees; the paper's instrumentation feeds
callsite counts back to improve those decisions.  Our inliner splices the
callee body into the caller when the callee's static cost is below a
threshold, saving the call overhead and exposing the body to the scalar
passes.  Callsite-count feedback (``hot_callsites``) can force inlining of
larger hot callees.
"""

from __future__ import annotations

from ..ir import (
    Block,
    CallStmt,
    Function,
    If,
    Loop,
    Program,
    Stmt,
    clone_block,
    count_expr_ops,
    stmt_exprs,
    walk_stmts,
)
from .base import Pass, PassReport


def static_cost(fn: Function) -> int:
    """Rough static op count of one invocation (loop bodies × trips)."""

    def block_cost(block: Block) -> int:
        total = 0
        for stmt in block.stmts:
            if isinstance(stmt, Loop):
                total += 2 + stmt.trip_count * block_cost(stmt.body)
            elif isinstance(stmt, If):
                cost = block_cost(stmt.then_body)
                if stmt.else_body is not None:
                    cost = max(cost, block_cost(stmt.else_body))
                total += 1 + cost
            elif isinstance(stmt, Block):
                total += block_cost(stmt)
            else:
                for e in stmt_exprs(stmt):
                    f, i, l = count_expr_ops(e)
                    total += f + i + l
                total += 1
        return total

    return block_cost(fn.body)


class Inlining(Pass):
    """Inline callees below ``threshold`` static ops (or listed as hot)."""

    #: Inlining rounds per function (nested calls inline one level a round).
    MAX_DEPTH = 4

    def __init__(
        self,
        threshold: int = 64,
        hot_callsites: set[str] | None = None,
    ) -> None:
        self.threshold = threshold
        self.hot_callsites = set(hot_callsites or ())
        self._program: Program | None = None

    def run(self, program: Program) -> PassReport:
        self._program = program
        report = PassReport(self.name)
        for fn in program.functions.values():
            for _ in range(self.MAX_DEPTH):
                if not self._inline_block(fn, fn.body, report):
                    break
        return report

    def run_on_function(self, fn: Function, report: PassReport) -> None:
        # Inlining needs whole-program view; run() handles everything.
        raise NotImplementedError("Inlining operates at program scope")

    def _should_inline(self, caller: Function, callee_name: str) -> bool:
        assert self._program is not None
        if callee_name == caller.name:
            return False  # no self-inlining
        if callee_name not in self._program.functions:
            return False  # external (e.g. MPI) call
        callee = self._program.functions[callee_name]
        if callee_name in self.hot_callsites:
            return True
        return static_cost(callee) <= self.threshold

    def _inline_block(self, caller: Function, block: Block, report: PassReport) -> bool:
        changed = False
        new_stmts: list[Stmt] = []
        for stmt in block.stmts:
            if isinstance(stmt, CallStmt) and self._should_inline(caller, stmt.callee):
                callee = self._program.functions[stmt.callee]
                body = clone_block(callee.body)
                new_stmts.extend(body.stmts)
                # the caller now touches the callee's arrays too
                for name, decl in callee.arrays.items():
                    caller.arrays.setdefault(name, decl)
                report.bump("inlined")
                changed = True
            else:
                if isinstance(stmt, Loop):
                    changed |= self._inline_block(caller, stmt.body, report)
                elif isinstance(stmt, If):
                    changed |= self._inline_block(caller, stmt.then_body, report)
                    if stmt.else_body is not None:
                        changed |= self._inline_block(caller, stmt.else_body, report)
                new_stmts.append(stmt)
        block.stmts = new_stmts
        return changed
