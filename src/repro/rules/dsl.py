"""A small rule-file dialect (``.prl``) mirroring the paper's DRL example.

The paper (Fig. 2) writes rules in Drools DRL::

    rule "Stalls per Cycle"
    when f : MeanEventFact ( m : metric == "...", s : severity > 0.10, ... )
    then  System.out.println(...);
    end

We parse an equivalent dialect — same structure, Python-friendly actions::

    rule "Stalls per Cycle"
    salience 5
    when
        f : MeanEventFact(
            metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
            higherLower == "higher",
            severity > 0.10,
            e := eventName,
            a := mainValue,
            v := eventValue,
            factType == "Compared to Main" )
    then
        log "Event {e} has a higher than average stall / cycle rate"
        log "    Average stall / cycle: {a:.4f}"
        insert Recommendation(category="stall-per-cycle", event=$e, severity=$s)
    end

Grammar (informal)::

    file        := (rule)*
    rule        := 'rule' STRING ('salience' INT)? ('no-loop')?
                   'when' pattern+ 'then' statement* 'end'
    pattern     := (IDENT ':')? ('not')? IDENT '(' constraint (',' constraint)* ')'
    constraint  := IDENT ':=' IDENT            # binding (bind := field)
                 | IDENT OP literal            # field test
                 | IDENT OP '$' IDENT          # test against earlier binding
                 | IDENT                       # existence test
    statement   := 'log' STRING
                 | 'insert' IDENT '(' kwarg (',' kwarg)* ')'
    kwarg       := IDENT '=' (literal | '$' IDENT)
    literal     := STRING | NUMBER | 'true' | 'false' | 'null'

Comments run from ``#`` or ``//`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .conditions import OPERATORS, Constraint, Pattern
from .rule import Rule, RuleContext, _format_bindings

__all__ = [
    "DSLSyntaxError",
    "SerializationError",
    "load_prl",
    "parse_rules",
    "rule_to_prl",
    "rules_to_prl",
]


class DSLSyntaxError(Exception):
    """Raised on malformed ``.prl`` input, with line information."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>(\#|//)[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<number>-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\.\d+(?:[eE][-+]?\d+)?|-?\d+(?:[eE][-+]?\d+)?)
  | (?P<op>:=|==|!=|>=|<=|>|<|\(|\)|,|:|\$|=)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'string' | 'number' | 'op' | 'ident'
    value: str
    line: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DSLSyntaxError(f"unexpected character {text[pos]!r}", line)
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            line += value.count("\n")
        elif kind == "comment":
            pass
        else:
            tokens.append(Token(kind, value, line))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ----------------------------------------------------
    def _peek(self) -> Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> Token:
        tok = self._peek()
        if tok is None:
            last_line = self._tokens[-1].line if self._tokens else 1
            raise DSLSyntaxError("unexpected end of input", last_line)
        self._pos += 1
        return tok

    def _expect(self, kind: str, value: str | None = None) -> Token:
        tok = self._next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise DSLSyntaxError(f"expected {want!r}, got {tok.value!r}", tok.line)
        return tok

    def _binding_follows(self) -> bool:
        """Whether the token after the next one is ``:``: the next
        identifier then names a binding, even one spelled like a
        keyword (``not : T()`` binds ``not``; ``then : T()`` is a pattern)."""
        nxt = self._tokens[self._pos + 1] \
            if self._pos + 1 < len(self._tokens) else None
        return nxt is not None and nxt.kind == "op" and nxt.value == ":"

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        tok = self._peek()
        if tok and tok.kind == kind and (value is None or tok.value == value):
            self._pos += 1
            return tok
        return None

    # -- grammar ------------------------------------------------------------
    def parse_file(self) -> list[Rule]:
        rules: list[Rule] = []
        while self._peek() is not None:
            rules.append(self._parse_rule())
        return rules

    def _parse_rule(self) -> Rule:
        self._expect("ident", "rule")
        name_tok = self._expect("string")
        name = _unquote(name_tok.value)
        salience = 0
        no_loop = False
        doc = ""
        while True:
            tok = self._peek()
            if tok is None:
                raise DSLSyntaxError(f"rule {name!r}: missing 'when'", name_tok.line)
            if tok.kind == "ident" and tok.value == "salience":
                self._next()
                num = self._expect("number")
                salience = int(float(num.value))
            elif tok.kind == "ident" and tok.value == "no-loop":
                self._next()
                no_loop = True
            elif tok.kind == "ident" and tok.value == "doc":
                self._next()
                doc = _unquote(self._expect("string").value)
            elif tok.kind == "ident" and tok.value == "when":
                self._next()
                break
            else:
                raise DSLSyntaxError(
                    f"unexpected {tok.value!r} in rule header", tok.line
                )
        patterns = []
        while True:
            tok = self._peek()
            if tok is None:
                raise DSLSyntaxError(f"rule {name!r}: missing 'then'", name_tok.line)
            if tok.kind == "ident" and tok.value == "then" \
                    and not self._binding_follows():
                self._next()
                break
            patterns.append(self._parse_pattern())
        statements = []
        while True:
            tok = self._peek()
            if tok is None:
                raise DSLSyntaxError(f"rule {name!r}: missing 'end'", name_tok.line)
            if tok.kind == "ident" and tok.value == "end":
                self._next()
                break
            statements.append(self._parse_statement())
        if not patterns:
            raise DSLSyntaxError(f"rule {name!r}: empty 'when' section", name_tok.line)
        action = _CompiledAction(tuple(statements))
        return Rule(
            name=name,
            conditions=patterns,
            action=action,
            salience=salience,
            no_loop=no_loop,
            doc=doc,
        )

    def _parse_pattern(self) -> Pattern:
        negated = False
        bind_as: str | None = None
        binds = self._binding_follows()
        tok = self._expect("ident")
        if tok.value == "not" and not binds:
            negated = True
            tok = self._expect("ident")
        if self._accept("op", ":"):
            bind_as = tok.value
            tok = self._expect("ident")
            if tok.value == "not":
                raise DSLSyntaxError("cannot bind a negated pattern", tok.line)
        fact_type = tok.value
        self._expect("op", "(")
        constraints: list[Constraint] = []
        if not self._accept("op", ")"):
            while True:
                constraints.append(self._parse_constraint())
                if self._accept("op", ")"):
                    break
                self._expect("op", ",")
        return Pattern(fact_type, constraints, bind_as=bind_as, negated=negated)

    def _parse_constraint(self) -> Constraint:
        first = self._expect("ident")
        nxt = self._peek()
        if nxt is None:
            raise DSLSyntaxError("unterminated constraint", first.line)
        if nxt.kind == "op" and nxt.value == ":=":
            self._next()
            fieldname = self._expect("ident").value
            return Constraint(fieldname, "any", bind=first.value)
        if (nxt.kind == "op" and nxt.value in OPERATORS) or (
            nxt.kind == "ident" and nxt.value in OPERATORS
        ):
            op = self._next().value
            val_tok = self._peek()
            if val_tok is None:
                raise DSLSyntaxError("missing constraint value", first.line)
            if val_tok.kind == "op" and val_tok.value == "$":
                self._next()
                var = self._expect("ident").value
                return Constraint(first.value, op, var, is_variable=True)
            return Constraint(first.value, op, self._parse_literal())
        # bare identifier: existence test
        return Constraint(first.value, "any")

    def _parse_literal(self) -> Any:
        tok = self._next()
        if tok.kind == "string":
            return _unquote(tok.value)
        if tok.kind == "number":
            value = float(tok.value)
            return int(value) if value.is_integer() and "." not in tok.value and "e" not in tok.value.lower() else value
        if tok.kind == "ident":
            lowered = tok.value.lower()
            if lowered == "true":
                return True
            if lowered == "false":
                return False
            if lowered in ("null", "none"):
                return None
            # Bare identifiers are string enums (e.g. higherLower == higher).
            return tok.value
        raise DSLSyntaxError(f"expected literal, got {tok.value!r}", tok.line)

    def _parse_statement(self) -> "_Statement":
        tok = self._expect("ident")
        if tok.value == "log":
            template = _unquote(self._expect("string").value)
            return _LogStatement(template)
        if tok.value == "insert":
            fact_type = self._expect("ident").value
            self._expect("op", "(")
            kwargs: list[tuple[str, Any, bool]] = []
            if not self._accept("op", ")"):
                while True:
                    key = self._expect("ident").value
                    self._expect("op", "=")
                    nxt = self._peek()
                    if nxt and nxt.kind == "op" and nxt.value == "$":
                        self._next()
                        var = self._expect("ident").value
                        kwargs.append((key, var, True))
                    else:
                        kwargs.append((key, self._parse_literal(), False))
                    if self._accept("op", ")"):
                        break
                    self._expect("op", ",")
            return _InsertStatement(fact_type, tuple(kwargs))
        raise DSLSyntaxError(
            f"unknown statement {tok.value!r} (expected 'log' or 'insert')",
            tok.line,
        )


# ---------------------------------------------------------------------------
# Compiled actions
# ---------------------------------------------------------------------------


class _Statement:
    def execute(self, ctx: RuleContext) -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class _LogStatement(_Statement):
    template: str

    def execute(self, ctx: RuleContext) -> None:
        ctx.log(_format_bindings(self.template, ctx.bindings))


@dataclass(frozen=True)
class _InsertStatement(_Statement):
    fact_type: str
    kwargs: tuple[tuple[str, Any, bool], ...]  # (name, value-or-var, is_var)

    def execute(self, ctx: RuleContext) -> None:
        fields = {}
        for name, value, is_var in self.kwargs:
            fields[name] = ctx[value] if is_var else value
        ctx.insert(self.fact_type, **fields)


@dataclass(frozen=True)
class _CompiledAction:
    statements: tuple[_Statement, ...]

    def __call__(self, ctx: RuleContext) -> None:
        for stmt in self.statements:
            stmt.execute(ctx)


def _unquote(raw: str) -> str:
    body = raw[1:-1]
    return body.encode().decode("unicode_escape")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_rules(text: str) -> list[Rule]:
    """Parse ``.prl`` source text into :class:`~repro.rules.rule.Rule` objects."""
    return _Parser(_tokenize(text)).parse_file()


def load_prl(path: str | Path) -> list[Rule]:
    """Parse a ``.prl`` rule file from disk."""
    return parse_rules(Path(path).read_text())


# ---------------------------------------------------------------------------
# Serialization (Rule → .prl text)
# ---------------------------------------------------------------------------


class SerializationError(Exception):
    """Raised when a rule cannot be expressed in the .prl dialect."""


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _render_literal(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return _quote(value)
    raise SerializationError(f"cannot render literal {value!r} in .prl")


def _render_constraint(c: Constraint) -> str:
    if c.bind is not None:
        return f"{c.bind} := {c.fieldname}"
    if c.op == "any":
        return c.fieldname
    rhs = f"${c.value}" if c.is_variable else _render_literal(c.value)
    return f"{c.fieldname} {c.op} {rhs}"


def rule_to_prl(rule: Rule) -> str:
    """Render a rule as ``.prl`` text.

    Only rules whose conditions are plain patterns (no ``Test`` predicates)
    and whose action is a DSL-compiled action (or was built with the
    ``then_log``-style helpers is *not* supported — only actions parsed
    from .prl) can round-trip; anything else raises
    :class:`SerializationError`.
    """
    lines = [f"rule {_quote(rule.name)}"]
    if rule.salience:
        lines.append(f"salience {rule.salience}")
    if rule.no_loop:
        lines.append("no-loop")
    if rule.doc:
        lines.append(f"doc {_quote(rule.doc)}")
    lines.append("when")
    for cond in rule.conditions:
        if not isinstance(cond, Pattern):
            raise SerializationError(
                f"rule {rule.name!r}: test conditions are not expressible in .prl"
            )
        prefix = f"{cond.bind_as} : " if cond.bind_as else ""
        if cond.negated:
            prefix = "not " + prefix
        body = ", ".join(_render_constraint(c) for c in cond.constraints)
        lines.append(f"    {prefix}{cond.fact_type}({body})")
    lines.append("then")
    action = rule.action
    if not isinstance(action, _CompiledAction):
        raise SerializationError(
            f"rule {rule.name!r}: only DSL-compiled actions serialize to .prl"
        )
    for stmt in action.statements:
        if isinstance(stmt, _LogStatement):
            lines.append(f"    log {_quote(stmt.template)}")
        elif isinstance(stmt, _InsertStatement):
            kwargs = ", ".join(
                f"{k}=${v}" if is_var else f"{k}={_render_literal(v)}"
                for k, v, is_var in stmt.kwargs
            )
            lines.append(f"    insert {stmt.fact_type}({kwargs})")
        else:  # pragma: no cover - future statement kinds
            raise SerializationError(f"unknown statement {stmt!r}")
    lines.append("end")
    return "\n".join(lines)


def rules_to_prl(rules: list[Rule]) -> str:
    """Render several rules as one .prl document."""
    return "\n\n".join(rule_to_prl(r) for r in rules) + "\n"
