"""The ``.prl`` trust boundary: every input parses or fails with
``DSLSyntaxError``, and no expression outside the whitelist ever runs.

Inputs are the shipped rule files mutated token by token (drop,
duplicate, swap) and with expressions outside the whitelist injected
where the dialect takes one: a ``log`` template field, an ``insert``
value, a ``test`` clause and an ``if`` condition.  Whatever parses is then
fired against bindings whose every value is a :class:`Canary`, which
counts calls and attribute reads: whitelisted code never calls a bound
value or reads its attributes, so any count means injected code ran.
"""

from __future__ import annotations

import re
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.rules import DSLSyntaxError, Pattern, parse_rules
from repro.rules.dsl import _tokenize

SHIPPED = {name: resources.files("repro.knowledge").joinpath(name)
           .read_text(encoding="utf-8")
           for name in ("OpenUHRules.prl", "ServiceRules.prl",
                        "LineageRules.prl", "RegressionRules.prl",
                        "ExperimentRules.prl")}

#: Expressions outside the whitelist; ``c`` is bound by every rule below.
FORBIDDEN = [
    "c.__class__",                       # dunder attributes
    "c.__class__.__bases__",
    "c.__dict__",
    "c()",                               # calls other than max/min
    "c(1)",
    "min(c(), 1)",
    "canary()",
    "c.hit()",
    "open('/etc/passwd')",
    "__import__('os')",
    "getattr(c, 'hit')",
    "max(c, key=c)",
    "max(*c)",
    "(lambda: c)()",                     # lambda
    "[x for x in c]",                    # comprehensions
    "(x for x in c)",
    "(y := c)",                          # assignment expression
    "c[0]",                              # subscripts into non-facts
    "c['field']",
    "unbound_name",                      # names the rule does not bind
    "os",
]

RULE = '''rule "Injected"
when
    f : Fact(c := value)
{test}then
{action}end
'''


def sites(expr: str) -> dict[str, tuple[str, int]]:
    """``expr`` placed where the dialect takes an expression, with the
    line a ``DSLSyntaxError`` should name."""
    quoted = expr.replace('"', '\\"')
    return {
        "log": (RULE.format(test="", action=f'    log "at {{{quoted}}}"\n'), 5),
        # parenthesized: a bare word alone is a string, as in constraints
        "insert": (RULE.format(test="", action=f"    insert R(x=({expr}))\n"),
                   5),
        "f-string": (RULE.format(
            test="", action=f'    insert R(x=f"at {{{quoted}}}")\n'), 5),
        "test": (RULE.format(test=f"    test {expr}\n", action=""), 4),
        "if": (RULE.format(test="", action=f'    if {expr}\n        log "x"\n'
                                                '    end\n'), 5),
    }


class Canary:
    """A bound value that counts what whitelisted code never does, and
    takes part in everything it does (arithmetic, comparison, fields,
    formatting), so a firing runs to its end."""

    hits = 0

    def __call__(self, *args, **kwargs):
        Canary.hits += 1
        return self

    def __getattr__(self, name):
        Canary.hits += 1
        return self

    def _same(self, *args):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _same
    __truediv__ = __rtruediv__ = __neg__ = __pos__ = __getitem__ = _same
    __lt__ = __le__ = __gt__ = __ge__ = _same

    def __format__(self, spec):
        return "canary"


class CanaryBindings(dict):
    def __missing__(self, key):
        return Canary()


class Context:
    def __init__(self):
        self.bindings = CanaryBindings()

    def log(self, message):
        pass

    def insert(self, fact_type, **fields):
        pass


def fire(rules) -> None:
    """Run every test condition and action of ``rules`` on canaries."""
    for rule in rules:
        for cond in rule.conditions:
            if not isinstance(cond, Pattern):
                try:
                    cond.evaluate(CanaryBindings())
                except Exception:
                    pass
        try:
            rule.action(Context())
        except Exception:
            pass


def parse_or_syntax_error(text: str):
    try:
        return parse_rules(text)
    except DSLSyntaxError as exc:
        assert isinstance(exc.line, int) and exc.line >= 1
        assert str(exc).startswith(f"line {exc.line}: ")
        return []


@pytest.fixture(autouse=True)
def quiet_canary():
    Canary.hits = 0
    yield
    assert Canary.hits == 0, "an injected expression ran"


@pytest.mark.parametrize("expr", FORBIDDEN)
@pytest.mark.parametrize("site", ["log", "insert", "f-string", "test", "if"])
def test_forbidden_expression_is_a_syntax_error(expr, site):
    text, line = sites(expr)[site]
    with pytest.raises(DSLSyntaxError) as exc:
        parse_rules(text)
    assert exc.value.line == line


@pytest.mark.parametrize("text", [
    RULE.format(test="    test " + "-" * 5000 + "c\n", action=""),
    RULE.format(test="    test c" + " + c" * 5000 + "\n", action=""),
    RULE.format(test="", action='    log "{' + "not " * 5000 + 'c}"\n'),
    RULE.format(test="", action="    if c\n" * 3000 + "    end\n" * 3000),
    RULE.format(test="", action="    insert R(__debug__=1)\n"),
    "rule" + " " * 20000 + "@",                 # linear, not exponential,
    "rule\n" + "// //" * 5000 + "\n@",          # backtracking over blanks
])
def test_deep_or_reserved_input_is_a_syntax_error(text):
    with pytest.raises(DSLSyntaxError):
        parse_rules(text)


def test_a_trailing_comment_is_not_tokens():
    text = RULE.format(test="", action="") + "// note / # note"
    assert [r.name for r in parse_rules(text)] == ["Injected"]


def test_a_bare_word_value_is_a_string():
    text = RULE.format(test="", action="    insert R(x=c.__class__, y=os)\n")
    insert = parse_rules(text)[0].action.statements[0]
    assert insert.fields == (("x", "c.__class__"), ("y", "os"))


def test_whitelisted_expressions_parse_at_every_site():
    for site, (text, _) in sites('max(c, 1) - -c / 2 if c else "x"').items():
        fire(parse_rules(text))


def test_shipped_rules_fire_on_canaries():
    for text in SHIPPED.values():
        fire(parse_rules(text))


@st.composite
def mutated_rule_files(draw):
    """A shipped file with up to two token mutations (drop, duplicate,
    swap), then one injected expression (always, if none)."""
    text = draw(st.sampled_from(sorted(SHIPPED.values())))
    mutations = draw(st.integers(0, 2))
    for _ in range(mutations):
        try:
            tokens = _tokenize(text)
        except DSLSyntaxError:
            return text
        kind = draw(st.sampled_from(["drop", "duplicate", "swap"]))
        tok = tokens[draw(st.integers(0, len(tokens) - 1))]
        if kind == "drop":
            text = text[:tok.pos] + text[tok.end:]
        elif kind == "duplicate":
            text = text[:tok.end] + " " + tok.value + text[tok.end:]
        else:
            other = tokens[draw(st.integers(0, len(tokens) - 1))]
            first, second = sorted([tok, other], key=lambda t: t.pos)
            if first.pos != second.pos:
                text = (text[:first.pos] + second.value
                        + text[first.end:second.pos] + first.value
                        + text[second.end:])
    if not mutations or draw(st.booleans()):
        try:
            text = draw(injected(text, _tokenize(text)))
        except DSLSyntaxError:
            pass
    return text


@st.composite
def injected(draw, text, tokens):
    """``text`` with a forbidden expression at a ``log`` template field,
    as a ``test`` before a ``then``, as an ``if`` after one, or before
    any token; it reads a name the enclosing rule binds, if any."""
    site = draw(st.sampled_from(["log", "test", "if", "anywhere"]))
    keyword = {"log": "log", "test": "then", "if": "then"}.get(site)
    at = [i for i, t in enumerate(tokens) if keyword is None
          or (t.value == keyword and (site != "log" or i + 1 < len(tokens)))]
    if not at:
        return text
    i = draw(st.sampled_from(at)) + (site == "log")
    tok = tokens[min(i, len(tokens) - 1)]
    bound = [t.value for t, nxt in zip(tokens[:i], tokens[1:i + 1])
             if t.kind == "ident" and nxt.value in (":", ":=")]
    expr = re.sub(r"\bc\b", bound[-1] if bound else "c",
                  draw(st.sampled_from(FORBIDDEN)))
    if site == "log" and tok.kind == "string":
        field = "{" + expr.replace('"', '\\"') + "}"
        return text[:tok.end - 1] + field + text[tok.end - 1:]
    if site == "if":
        return (text[:tok.end] + f"\n    if {expr}\n        log \"x\"\n"
                "    end\n" + text[tok.end:])
    line = f"\n    test {expr}\n" if site == "test" else expr + " "
    return text[:tok.pos] + line + text[tok.pos:]


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(mutated_rule_files())
def test_mutated_rule_files_parse_or_fail_cleanly(text):
    fire(parse_or_syntax_error(text))
    assert Canary.hits == 0, "an injected expression ran"
