"""Expressions in rules: ``test`` clauses, ``if`` conditions, ``insert``
values and the fields of ``log`` templates.

An expression is Python syntax cut down to what performance knowledge
needs: bound names, ``f.field`` and ``f["field"]`` on a bound fact,
constants, ``+ - * /``, unary ``-``/``+``, comparisons,
``and``/``or``/``not``, ``x if c else y``, calls of ``max``/``min`` and
f-strings built from those.
Every node of the parsed tree is checked against that whitelist *before*
anything is compiled, so text that fails it never runs.  What passes is
compiled once into a function of the bindings dict (each name becomes a
lookup in it), with no builtins in reach; a rule action compiles into
one function of the context and the bindings.

A template is a string whose ``{expr}``, ``{expr!r}`` and ``{expr:spec}``
fields follow f-string rules (``{{``/``}}`` escape a brace), e.g.
``"moved {chg:+.1%} at {v}"``.  It compiles to one f-string.
"""

from __future__ import annotations

import ast
import functools
import keyword
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Iterable, Iterator

__all__ = ["Expr", "ExprError", "Scope", "check_expr", "check_template",
           "compile_actions", "context_call", "if_statement", "value_tree"]

_CALLS = {"max": max, "min": min}
#: What an expression can reach besides its bindings: nothing else.
_GLOBALS = {"__builtins__": {}, **_CALLS}
#: The compiled functions' parameters: the bindings dict and the context.
_BINDINGS, _CONTEXT = "_b", "_ctx"
#: The source location given to every node built here (compile needs one).
_LOC = dict(lineno=1, col_offset=0, end_lineno=1, end_col_offset=0)
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_UNARYOPS = (ast.USub, ast.UAdd, ast.Not)
_CMPOPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)
_CONSTANTS = (str, int, float, bool, type(None))
_CONVERSIONS = {"r": ord("r"), "s": ord("s"), "a": ord("a")}
#: Longer text is refused before Python's parser sees it (a rule's
#: expressions are a line or two; an unclosed bracket swallows the file).
_MAX_EXPRESSION = 1000
_BRACE = re.compile(r"[{}]")
_SIMPLE_FIELD = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)(?::([^{}!]*))?\}")


class ExprError(ValueError):
    """Expression text that does not parse or leaves the whitelist."""


@dataclass(frozen=True)
class Scope:
    """The names an expression may read: every binding, and those of them
    bound to whole facts (the only values ``.field`` may index)."""

    names: Collection[str]
    facts: Collection[str]


@dataclass(frozen=True)
class Expr:
    """A checked expression or template; equal by source.  Its tree
    (reading each binding as ``_b["name"]``) compiles into rule actions;
    called on its own, it compiles into a function of the bindings."""

    source: str
    tree: ast.expr = field(compare=False, repr=False)

    @functools.cached_property
    def function(self) -> Callable[[dict[str, Any]], Any]:
        """The tree compiled as ``lambda _b: tree``."""
        function = ast.parse(f"lambda {_BINDINGS}: 0", mode="eval")
        function.body.body = self.tree
        return eval(compile(function, "<rule expression>", "eval"),
                    dict(_GLOBALS))

    def __call__(self, bindings: dict[str, Any]) -> Any:
        return self.function(bindings)


def check_expr(text: str, scope: Scope | None = None,
               source: str | None = None) -> Expr:
    """Parse and check one expression.  ``scope`` None skips the name
    checks (rules built in Python, whose bindings are not known yet);
    ``source`` is the text to keep when it differs from ``text``."""
    return Expr(text if source is None else source,
                _within_limits(lambda: _checked(_parse(text), scope)))


def check_template(text: str, scope: Scope | None = None) -> Expr:
    """Parse and check a template: an f-string tree."""
    return Expr(text, _within_limits(lambda: _template(text, scope)))


def _within_limits(check: Callable[[], ast.expr]) -> ast.expr:
    try:
        return check()
    except (RecursionError, MemoryError):
        raise ExprError("expression nested too deeply") from None


def value_tree(value: Any) -> ast.expr:
    """The tree of an :class:`Expr` or of a literal."""
    return value.tree if isinstance(value, Expr) else ast.Constant(value, **_LOC)


def context_call(method: str, args: list[ast.expr],
                 keywords: Iterable[tuple[str, ast.expr]] = ()) -> ast.stmt:
    """The action statement ``_ctx.<method>(*args, **keywords)``."""
    return ast.Expr(ast.Call(
        ast.Attribute(ast.Name(_CONTEXT, ast.Load(), **_LOC), method,
                      ast.Load(), **_LOC),
        args, [ast.keyword(name, value, **_LOC) for name, value in keywords],
        **_LOC), **_LOC)


def if_statement(test: ast.expr, body: list[ast.stmt],
                 orelse: list[ast.stmt]) -> ast.stmt:
    """The action statement ``if test: body else: orelse``."""
    return ast.If(test, body or [ast.Pass(**_LOC)], orelse, **_LOC)


def compile_actions(bodies: list[list[ast.stmt]]
                    ) -> list[Callable[[Any, dict], None]]:
    """One function ``(ctx, bindings)`` per list of checked action
    statements, all compiled together; a firing costs a plain call."""
    module = ast.parse("\n".join(f"def action{i}({_CONTEXT}, {_BINDINGS}): pass"
                                 for i in range(len(bodies))))
    for function, body in zip(module.body, bodies):
        function.body = body or [ast.Pass(**_LOC)]
    namespace = dict(_GLOBALS)
    exec(compile(module, "<rule actions>", "exec"), namespace)
    return [namespace[f"action{i}"] for i in range(len(bodies))]


def _parse(text: str) -> ast.expr:
    text = text.strip()
    if text.isidentifier() and not keyword.iskeyword(text):
        return ast.Name(text, ast.Load(), **_LOC)  # the common case, fast
    if len(text) > _MAX_EXPRESSION:
        raise ExprError(f"expression longer than {_MAX_EXPRESSION} "
                        f"characters: {text[:40]!r}...")
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ExprError(f"bad expression {text!r}: {exc.msg}") from None


def _checked(node: ast.AST, scope: Scope | None) -> ast.expr:
    """``node`` with ``f.field`` rewritten as ``f["field"]``; raises
    :class:`ExprError` at the first node outside the whitelist."""
    if isinstance(node, ast.Constant) and type(node.value) in _CONSTANTS:
        return node
    if isinstance(node, ast.Name):
        if scope is not None and node.id not in scope.names:
            raise ExprError(f"unknown name {node.id!r}")
        return ast.Subscript(ast.Name(_BINDINGS, ast.Load(), **_LOC),
                             ast.Constant(node.id, **_LOC), ast.Load(), **_LOC)
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        key = node.attr if isinstance(node, ast.Attribute) else (
            node.slice.value if isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str) else None)
        if isinstance(node.value, ast.Name) and key is not None \
                and not key.startswith("_") \
                and (scope is None or node.value.id in scope.facts):
            return ast.Subscript(_checked(node.value, scope),
                                 ast.Constant(key, **_LOC), ast.Load(), **_LOC)
        raise ExprError("only a field of a bound fact may be read "
                        "('f.field' or f[\"field\"])")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        return ast.BinOp(_checked(node.left, scope), node.op,
                         _checked(node.right, scope), **_LOC)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARYOPS):
        return ast.UnaryOp(node.op, _checked(node.operand, scope), **_LOC)
    if isinstance(node, ast.BoolOp):
        return ast.BoolOp(node.op, [_checked(v, scope) for v in node.values],
                          **_LOC)
    if isinstance(node, ast.Compare) \
            and all(isinstance(op, _CMPOPS) for op in node.ops):
        return ast.Compare(_checked(node.left, scope), node.ops,
                           [_checked(c, scope) for c in node.comparators],
                           **_LOC)
    if isinstance(node, ast.JoinedStr):
        return ast.JoinedStr([_checked(v, scope) for v in node.values],
                             **_LOC)
    if isinstance(node, ast.FormattedValue):
        return ast.FormattedValue(
            _checked(node.value, scope), node.conversion,
            node.format_spec and _checked(node.format_spec, scope), **_LOC)
    if isinstance(node, ast.IfExp):
        return ast.IfExp(_checked(node.test, scope),
                         _checked(node.body, scope),
                         _checked(node.orelse, scope), **_LOC)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _CALLS and node.args and not node.keywords \
            and (scope is None or node.func.id not in scope.names) \
            and not any(isinstance(a, ast.Starred) for a in node.args):
        return ast.Call(ast.Name(node.func.id, ast.Load(), **_LOC),
                        [_checked(a, scope) for a in node.args], [], **_LOC)
    raise ExprError(f"{type(node).__name__} is not allowed in a rule "
                    "expression")


def _template(text: str, scope: Scope | None) -> ast.JoinedStr:
    parts: list[ast.expr] = []
    for literal, expr, conversion, spec in _fields(text):
        if literal:
            parts.append(ast.Constant(literal, **_LOC))
        if expr is not None:
            parts.append(ast.FormattedValue(
                _checked(_parse(expr), scope), conversion,
                _template(spec, scope) if spec else None, **_LOC))
    return ast.JoinedStr(parts, **_LOC)


def _fields(text: str) -> Iterator[tuple[str, str | None, int, str]]:
    """Split a template into (literal, expression, conversion, spec)
    runs, like f-string parsing: a field's expression ends at the first
    ``!`` (not ``!=``), ``:`` or ``}`` outside brackets and quotes."""
    literal: list[str] = []
    i, n = 0, len(text)
    while (brace := _BRACE.search(text, i)) is not None:
        literal.append(text[i:brace.start()])
        i = brace.start()
        ch = text[i]
        if text[i + 1:i + 2] == ch:
            literal.append(ch)
            i += 2
            continue
        if ch == "}":
            raise ExprError("single '}' in template")
        simple = _SIMPLE_FIELD.match(text, i)
        if simple:  # {name} or {name:spec}, the common case
            yield "".join(literal), simple[1], -1, simple[2] or ""
            literal = []
            i = simple.end()
            continue
        start = j = i + 1
        depth, quote = 0, None
        while j < n:
            c = text[j]
            if quote:
                if c == "\\":
                    j += 1
                elif c == quote:
                    quote = None
            elif c in "'\"":
                quote = c
            elif c in "([{":
                depth += 1
            elif c in ")]}" and depth:
                depth -= 1
            elif not depth and (c in "}:" or (c == "!" and
                                              text[j + 1:j + 2] != "=")):
                break
            j += 1
        expr = text[start:j]
        conversion = -1
        if text[j:j + 1] == "!":
            conversion = _CONVERSIONS.get(text[j + 1:j + 2], 0)
            if not conversion:
                raise ExprError(f"bad conversion in template field {{{expr}")
            j += 2
        spec_start = j = j + 1 if text[j:j + 1] == ":" else j
        depth = 0
        while j < n and (text[j] != "}" or depth):
            depth += {"{": 1, "}": -1}.get(text[j], 0)
            j += 1
        if j >= n or not expr.strip() \
                or (spec_start < j and text[spec_start - 1] != ":"):
            raise ExprError(f"bad template field {text[i:j + 1]!r}")
        yield "".join(literal), expr, conversion, text[spec_start:j]
        literal = []
        i = j + 1
    literal.append(text[i:])
    if literal != [""]:
        yield "".join(literal), None, -1, ""
