"""A small rule-file dialect (``.prl``) mirroring the paper's DRL example.

The paper (Fig. 2) writes rules in Drools DRL::

    rule "Stalls per Cycle"
    when f : MeanEventFact ( m : metric == "...", s : severity > 0.10, ... )
    then  System.out.println(...);
    end

We parse an equivalent dialect — same structure, Python-friendly actions::

    rule "Stalls per Cycle"
    salience 5
    param severity_threshold = 0.10
    when
        f : MeanEventFact(
            metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
            higherLower == "higher",
            severity > severity_threshold,
            e := eventName,
            a := mainValue,
            v := eventValue,
            factType == "Compared to Main" )
    then
        log "Event {e} has a higher than average stall / cycle rate"
        log "    Average stall / cycle: {a:.4f}"
        insert Recommendation(category="stall-per-cycle", event=$e,
                              severity=$f.severity,
                              message=f"high stall rate in {e}")
    end

Grammar (informal)::

    file        := (rule)*
    rule        := 'rule' STRING header* 'when' condition+
                   'then' statement* 'end'
    header      := 'salience' INT | 'no-loop' | 'doc' STRING
                 | 'param' IDENT '=' literal
    condition   := pattern | 'test' expr
    pattern     := (IDENT ':')? ('not')? IDENT '(' constraint (',' constraint)* ')'
    constraint  := IDENT ':=' IDENT            # binding (bind := field)
                 | IDENT OP literal            # field test
                 | IDENT OP PARAM              # test against a param's value
                 | IDENT OP '$' IDENT          # test against earlier binding
                 | IDENT                       # existence test
    statement   := 'log' STRING+
                 | 'insert' IDENT '(' kwarg (',' kwarg)* ')'
                 | 'if' expr statement* ('else' statement*)? 'end'
    kwarg       := IDENT '=' (literal | FSTRING+ | expr)
    literal     := STRING | NUMBER | 'true' | 'false' | 'null' | IDENT

A ``param`` names a literal of its rule's constraints (:func:`with_params`
sets it).  Templates (``log`` strings, ``f"..."`` values) and expressions
are the whitelisted Python of :mod:`repro.rules.expr`; a ``test`` or
``if`` expression ends with its line unless brackets are open, and
``$name`` reads a binding.  Comments run from ``#`` or ``//`` to the end
of the line.
"""

from __future__ import annotations

import ast
import codecs
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterable, Mapping, NamedTuple

from .conditions import OPERATORS, ConditionError, Constraint, Pattern, Test
from .expr import (
    Expr,
    ExprError,
    Scope,
    check_expr,
    check_template,
    compile_actions,
    context_call,
    if_statement,
    value_tree,
)
from .rule import Rule, RuleContext

__all__ = [
    "DSLSyntaxError",
    "SerializationError",
    "load_prl",
    "parse_rules",
    "rule_to_prl",
    "rules_to_prl",
    "with_params",
]


class DSLSyntaxError(Exception):
    """Raised on malformed ``.prl`` input, with line information."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

#: Whitespace and comments (``#`` or ``//`` to the end of the line).
_SKIP = r"(?:\s+|(?:\#|//)[^\n]*)*"
_SKIP_RE = re.compile(_SKIP)
#: One token after what ``_SKIP`` skips, taken whole (a lookahead and a
#: backreference, so no comment is re-read as ``/`` tokens and a failed
#: match does not backtrack into it); the group that matched names the
#: token's kind.
_TOKEN_RE = re.compile(r"(?=(?P<skip>" + _SKIP + r"))(?P=skip)" + r"""
    (?:
      (?P<fstring>f"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.\-]*)
    | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<number>-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\.\d+(?:[eE][-+]?\d+)?|-?\d+(?:[eE][-+]?\d+)?)
    | (?P<op>:=|==|!=|>=|<=|>|<|\(|\)|\[|\]|,|:|\$|=|\+|-|\*|/)
    )
    """, re.VERBOSE)

#: DSL words that spell Python constants inside expressions.
_PY_CONSTANTS = {"true": "True", "false": "False", "null": "None"}


class Token(NamedTuple):
    kind: str  # 'string' | 'fstring' | 'number' | 'op' | 'ident'
    value: str
    line: int
    pos: int  # offset in the source text

    @property
    def end(self) -> int:
        return self.pos + len(self.value)


_new_token = tuple.__new__  # skips Token.__new__'s Python-level call


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    end = 0
    line = 1
    while (m := _TOKEN_RE.match(text, end)) is not None:
        kind = m.lastgroup
        pos = m.start(kind)
        line += text.count("\n", end, pos)
        value = m.group(kind)
        tokens.append(_new_token(Token, (kind, value, line, pos)))
        end = m.end()
        if kind == "string" or kind == "fstring":
            line += value.count("\n")
    gap = _SKIP_RE.match(text, end).end()
    if gap < len(text):
        raise DSLSyntaxError(f"unexpected character {text[gap]!r}",
                             line + text.count("\n", end, gap))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        #: the params declared by the rule being parsed
        self._params: dict[str, Any] = {}

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
        parsed = []
        while self._peek() is not None:
            parsed.append(self._parse_rule())
        bodies = [[stmt.python() for stmt in statements]
                  for _, statements, _ in parsed]
        try:
            functions = compile_actions(bodies)
        except (SyntaxError, RecursionError, MemoryError) as exc:
            line = parsed[0][0] if parsed else 1
            raise DSLSyntaxError(f"cannot compile: {exc!r}", line) from None
        rules = []
        for (line, statements, header), function in zip(parsed, functions):
            try:
                rules.append(Rule(
                    action=_CompiledAction(statements, function), **header))
            except ValueError as exc:
                raise DSLSyntaxError(str(exc), line) from None
        return rules

    def _parse_rule(self) -> tuple[int, tuple[_Statement, ...], dict]:
        """One rule: its line, its action statements and the rest of
        its :class:`Rule` fields (the actions compile per file)."""
        self._expect("ident", "rule")
        name_tok = self._expect("string")
        name = _unquote(name_tok)
        salience = 0
        no_loop = False
        doc = ""
        self._params = {}
        while True:
            tok = self._peek()
            if tok is None:
                raise DSLSyntaxError(f"rule {name!r}: missing 'when'", name_tok.line)
            if tok.kind == "ident" and tok.value == "salience":
                self._next()
                num = self._expect("number")
                try:
                    salience = int(float(num.value))
                except OverflowError:
                    raise DSLSyntaxError("salience out of range", num.line) from None
            elif tok.kind == "ident" and tok.value == "no-loop":
                self._next()
                no_loop = True
            elif tok.kind == "ident" and tok.value == "doc":
                self._next()
                doc = _unquote(self._expect("string"))
            elif tok.kind == "ident" and tok.value == "param":
                self._next()
                param = self._expect("ident")
                if param.value in self._params or not param.value.isidentifier():
                    raise DSLSyntaxError(
                        f"bad or repeated param {param.value!r}", param.line)
                self._expect("op", "=")
                self._params[param.value] = self._parse_literal()
            elif tok.kind == "ident" and tok.value == "when":
                self._next()
                break
            else:
                raise DSLSyntaxError(
                    f"unexpected {tok.value!r} in rule header", tok.line
                )
        conditions: list[Pattern | Test] = []
        names: set[str] = set()
        facts: set[str] = set()
        while True:
            tok = self._peek()
            if tok is None:
                raise DSLSyntaxError(f"rule {name!r}: missing 'then'", name_tok.line)
            if tok.kind == "ident" and tok.value == "then" \
                    and not self._binding_follows():
                self._next()
                break
            if tok.kind == "ident" and tok.value == "test" \
                    and not self._binding_follows():
                self._next()
                if not conditions:
                    raise DSLSyntaxError("a test needs an earlier pattern",
                                         tok.line)
                expr = self._parse_expr(tok, Scope(set(names), set(facts)))
                conditions.append(Test(expr, expr.source))
                continue
            pattern = self._parse_pattern()
            conditions.append(pattern)
            if not pattern.negated:
                names.update(c.bind for c in pattern.constraints if c.bind)
                if pattern.bind_as:
                    names.add(pattern.bind_as)
                    facts.add(pattern.bind_as)
        if not conditions:
            raise DSLSyntaxError(f"rule {name!r}: empty 'when' section", name_tok.line)
        statements, _ = self._parse_block(Scope(names, facts), ("end",))
        return name_tok.line, statements, dict(
            name=name, conditions=conditions, salience=salience,
            no_loop=no_loop, doc=doc, params=tuple(self._params.items()))

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
        try:
            return Pattern(fact_type, constraints, bind_as=bind_as,
                           negated=negated)
        except ConditionError as exc:
            raise DSLSyntaxError(str(exc), tok.line) from None

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
            if val_tok.kind == "ident" and val_tok.value in self._params:
                self._next()
                return Constraint(first.value, op,
                                  self._params[val_tok.value],
                                  param=val_tok.value)
            return Constraint(first.value, op, self._parse_literal())
        # bare identifier: existence test
        return Constraint(first.value, "any")

    def _parse_literal(self) -> Any:
        tok = self._next()
        if tok.kind == "string":
            return _unquote(tok)
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

    def _parse_block(self, scope: Scope, stops: tuple[str, ...]
                     ) -> tuple[tuple[_Statement, ...], str]:
        """Statements up to one of the ``stops`` keywords (consumed and
        returned with them)."""
        statements = []
        while True:
            tok = self._next()
            if tok.kind == "ident" and tok.value in stops:
                return tuple(statements), tok.value
            statements.append(self._parse_statement(tok, scope))

    def _parse_statement(self, tok: Token, scope: Scope) -> _Statement:
        if tok.kind == "ident" and tok.value == "log":
            text = _unquote(self._expect("string"))
            while self._peek() is not None and self._peek().kind == "string":
                text += _unquote(self._next())
            return _LogStatement(
                text, _checking(tok.line, check_template, text, scope).tree)
        if tok.kind == "ident" and tok.value == "insert":
            fact_type = self._expect("ident").value
            self._expect("op", "(")
            fields: list[tuple[str, Any]] = []
            if not self._accept("op", ")"):
                while True:
                    key = self._expect("ident")
                    if not key.value.isidentifier() or key.value in \
                            dict(fields) or key.value.startswith("__"):
                        raise DSLSyntaxError(
                            f"bad or repeated field {key.value!r}", key.line)
                    self._expect("op", "=")
                    fields.append((key.value, self._parse_value(scope)))
                    if self._accept("op", ")"):
                        break
                    self._expect("op", ",")
            return _InsertStatement(fact_type, tuple(fields))
        if tok.kind == "ident" and tok.value == "if":
            cond = self._parse_expr(tok, scope)
            body, stop = self._parse_block(scope, ("else", "end"))
            orelse = self._parse_block(scope, ("end",))[0] \
                if stop == "else" else ()
            return _IfStatement(cond, body, orelse)
        raise DSLSyntaxError(
            f"unknown statement {tok.value!r} "
            "(expected 'log', 'insert' or 'if')",
            tok.line,
        )

    def _parse_value(self, scope: Scope) -> Any:
        """An ``insert`` value: a literal, a template or an expression."""
        start = self._peek()
        toks = self._expression_tokens(start, to_line_end=False)
        if len(toks) == 1 and toks[0].kind in ("string", "number", "ident"):
            self._pos -= 1
            return self._parse_literal()
        if all(t.kind == "fstring" for t in toks):
            text = "".join(_unquote(t, 2) for t in toks)
            return replace(_checking(toks[0].line, check_template, text, scope),
                           source=" ".join(t.value for t in toks))
        return _checking(toks[0].line, _expr_of_tokens, toks, scope)

    def _parse_expr(self, keyword: Token, scope: Scope) -> Expr:
        """The expression after ``keyword``, to the end of its line."""
        toks = self._expression_tokens(keyword, to_line_end=True)
        return _checking(keyword.line, _expr_of_tokens, toks, scope)

    def _expression_tokens(self, start: Token | None,
                           to_line_end: bool) -> list[Token]:
        """Tokens up to the end of ``start``'s line, or up to a ``,`` or
        ``)`` (with ``to_line_end`` False), outside brackets."""
        toks: list[Token] = []
        depth = 0
        line = start.line if start is not None else 0
        while (tok := self._peek()) is not None:
            closes = tok.kind == "op" and tok.value in ")]"
            if not depth and (tok.line != line if to_line_end else (
                    closes or (tok.kind == "op" and tok.value == ","))):
                break
            if tok.kind == "op" and tok.value in "([":
                depth += 1
            elif closes:
                depth = max(depth - 1, 0)
            toks.append(self._next())
            line = tok.line
        if not toks:
            raise DSLSyntaxError("missing expression", line or 1)
        return toks


def _checking(line: int, check, *args):
    """``check(*args)``, its :class:`ExprError` reported at ``line``."""
    try:
        return check(*args)
    except ExprError as exc:
        raise DSLSyntaxError(str(exc), line) from None


def _expr_of_tokens(toks: list[Token], scope: Scope) -> Expr:
    """Compile expression tokens; the kept source is the DSL text
    (``$`` and all), normalized to single spaces between tokens."""
    python, source = [], []
    for i, tok in enumerate(toks):
        space = " " if i and tok.pos > toks[i - 1].end else ""
        source.append(space + tok.value)
        if tok.kind == "op" and tok.value == "$":
            python.append(space)
        elif tok.kind == "ident":
            python.append(space + _PY_CONSTANTS.get(tok.value, tok.value))
        else:
            python.append(space + tok.value)
    return check_expr("".join(python), scope, source="".join(source))


# ---------------------------------------------------------------------------
# Compiled actions
# ---------------------------------------------------------------------------


class _Statement:
    def python(self) -> ast.stmt:  # pragma: no cover - interface
        """The checked Python statement this one compiles to."""
        raise NotImplementedError


@dataclass(frozen=True)
class _LogStatement(_Statement):
    template: str
    tree: ast.expr | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.tree is None:
            object.__setattr__(self, "tree",
                               check_template(self.template).tree)

    def python(self) -> ast.stmt:
        return context_call("log", [self.tree])


@dataclass(frozen=True)
class _InsertStatement(_Statement):
    fact_type: str
    #: (name, value): a literal, or an :class:`Expr` read at firing time
    fields: tuple[tuple[str, Any], ...]

    def python(self) -> ast.stmt:
        return context_call("insert", [value_tree(self.fact_type)],
                            [(k, value_tree(v)) for k, v in self.fields])


@dataclass(frozen=True)
class _IfStatement(_Statement):
    condition: Expr
    body: tuple[_Statement, ...]
    orelse: tuple[_Statement, ...] = ()

    def python(self) -> ast.stmt:
        return if_statement(self.condition.tree,
                            [stmt.python() for stmt in self.body],
                            [stmt.python() for stmt in self.orelse])


@dataclass(frozen=True)
class _CompiledAction:
    """A rule action parsed from ``.prl``, compiled into one function."""

    statements: tuple[_Statement, ...]
    function: Any = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.function is None:
            object.__setattr__(self, "function", compile_actions(
                [[stmt.python() for stmt in self.statements]])[0])

    def __call__(self, ctx: RuleContext) -> None:
        self.function(ctx, ctx.bindings)


def _unquote(tok: Token, prefix: int = 1) -> str:
    """A string token's text, escapes decoded (``prefix`` skips ``f"``)."""
    body = tok.value[prefix:-1]
    try:
        return codecs.decode(body.encode("latin-1", "backslashreplace"),
                             "unicode_escape")
    except UnicodeDecodeError as exc:
        raise DSLSyntaxError(f"bad escape in string: {exc.reason}",
                             tok.line) from None


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_rules(text: str) -> list[Rule]:
    """Parse ``.prl`` source text into :class:`~repro.rules.rule.Rule` objects."""
    parser = _Parser(_tokenize(text))
    try:
        return parser.parse_file()
    except (RecursionError, MemoryError):  # ``if`` blocks nested too deep
        tok = parser._tokens[min(parser._pos, len(parser._tokens) - 1)]
        raise DSLSyntaxError("rule nested too deeply", tok.line) from None


def load_prl(path: str | Path) -> list[Rule]:
    """Parse a ``.prl`` rule file from disk."""
    return parse_rules(Path(path).read_text(encoding="utf-8"))


def with_params(rules: Iterable[Rule], params: Mapping[str, Any]) -> list[Rule]:
    """``rules`` with ``params`` overriding the values of the ``param``
    declarations of every rule that declares them; a name no rule
    declares raises ``ValueError``."""
    rules = list(rules)
    unknown = set(params) - {name for rule in rules for name, _ in rule.params}
    if unknown:
        raise ValueError(f"unknown threshold overrides: {sorted(unknown)}")
    return [_rebound(rule, params)
            if any(name in params for name, _ in rule.params) else rule
            for rule in rules]


def _rebound(rule: Rule, params: Mapping[str, Any]) -> Rule:
    conditions = [
        Pattern(c.fact_type,
                [replace(k, value=params[k.param]) if k.param in params else k
                 for k in c.constraints],
                bind_as=c.bind_as, negated=c.negated)
        if isinstance(c, Pattern) else c
        for c in rule.conditions]
    return replace(rule, conditions=conditions, params=tuple(
        (name, params.get(name, value)) for name, value in rule.params))


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
    if c.param is not None:
        rhs = c.param
    else:
        rhs = f"${c.value}" if c.is_variable else _render_literal(c.value)
    return f"{c.fieldname} {c.op} {rhs}"


def _render_statements(statements, indent: str) -> list[str]:
    lines = []
    for stmt in statements:
        if isinstance(stmt, _LogStatement):
            lines.append(f"{indent}log {_quote(stmt.template)}")
        elif isinstance(stmt, _InsertStatement):
            kwargs = ", ".join(
                f"{k}={v.source if isinstance(v, Expr) else _render_literal(v)}"
                for k, v in stmt.fields
            )
            lines.append(f"{indent}insert {stmt.fact_type}({kwargs})")
        elif isinstance(stmt, _IfStatement):
            lines.append(f"{indent}if {stmt.condition.source}")
            lines += _render_statements(stmt.body, indent + "    ")
            if stmt.orelse:
                lines.append(f"{indent}else")
                lines += _render_statements(stmt.orelse, indent + "    ")
            lines.append(f"{indent}end")
    return lines


def rule_to_prl(rule: Rule) -> str:
    """Render a rule as ``.prl`` text.

    Only rules whose ``Test`` conditions and action were parsed from
    ``.prl`` (not Python callables) can be rendered; anything else raises
    :class:`SerializationError`.
    """
    lines = [f"rule {_quote(rule.name)}"]
    if rule.salience:
        lines.append(f"salience {rule.salience}")
    if rule.no_loop:
        lines.append("no-loop")
    if rule.doc:
        lines.append(f"doc {_quote(rule.doc)}")
    lines += [f"param {name} = {_render_literal(value)}"
              for name, value in rule.params]
    lines.append("when")
    for cond in rule.conditions:
        if not isinstance(cond, Pattern):
            if not isinstance(cond.predicate, Expr):
                raise SerializationError(
                    f"rule {rule.name!r}: test conditions given as Python "
                    "callables are not expressible in .prl")
            lines.append(f"    test {cond.predicate.source}")
            continue
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
    lines += _render_statements(action.statements, "    ")
    lines.append("end")
    return "\n".join(lines)


def rules_to_prl(rules: list[Rule]) -> str:
    """Render several rules as one .prl document."""
    return "\n\n".join(rule_to_prl(r) for r in rules) + "\n"
