"""Parser and evaluator for the ASCII information-quantity notation.

Surface syntax (whitespace-insensitive)::

    H[X, y=1 | Z]                  entropy with a tied outcome y=1
    I[X; Y | Z]                    mutual information (two or more groups)
    I[X; Y; Z]                     triple mutual information
    CE[p(X|Y) || q(X|Y)]           cross-entropy between distribution specs
    KL[p(X,Y) || q(X|Y)]           KL divergence
    IC[0.5]                        information content of a literal
    E_{p(x|y=1)}[H[x]]             expectation of an expression over a measure
    0.5 * H[X] + H[Y] == H[X,Y]    scaling, +/-, and comparisons

Uppercase identifiers denote untied (averaged) variables; lowercase
identifiers denote tied variables, bound either literally (``y=1``) or via
bindings supplied at evaluation time.  Identifiers resolve to distribution
variables case-insensitively, so ``y`` ties the variable named ``Y``.

Grammar (EBNF)::

    expr       = additive [ ("==" | "<=" | ">=" | "!=") additive ]
    additive   = term { ("+" | "-") term }
    term       = quantity | NUMBER [ "*" term ] | expectation
    quantity   = "H" "[" termlist [ "|" termlist ] "]"
               | "I" "[" termlist ";" termlist { ";" termlist } [ "|" termlist ] "]"
               | ("CE" | "KL") "[" dist "||" dist "]"
               | "IC" "[" NUMBER "]"
    expectation= "E" "_" "{" dist "}" "[" expr "]"
    dist       = ("p" | "q") "(" termlist [ "|" termlist ] ")"
    termlist   = termspec { "," termspec }
    termspec   = UPPER_IDENT | LOWER_IDENT [ "=" OUTCOME ]

Parsing is total: every malformed input raises :class:`ParseError` carrying
the byte offset of the failure and the set of expected tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import quantities as qt
from .dist import (
    EQ_TOLERANCE,
    NEQ_GAP,
    ZERO_CELL,
    Assignment,
    JointDistribution,
    UnnormalizedWeight,
    _tensor_of,
)
from .errors import (
    DiscinfoError,
    MissingQDistribution,
    UnknownVariable,
)
from .quantities import LogBase, Term

_QUANTITY_HEADS = ("H", "I", "CE", "KL", "IC", "E")


class ParseError(DiscinfoError):
    """A syntax error with its byte offset and the tokens that were expected."""

    def __init__(self, offset: int, expected, message: str):
        self.offset = int(offset)
        self.expected = frozenset(expected)
        super().__init__(f"{message} at offset {self.offset}")


class EvaluationError(DiscinfoError):
    """An expression is well-formed but cannot be evaluated as requested."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class TermSpec:
    """A variable reference as written: case carries tied/untied."""

    name: str
    outcome: str | None = None

    @property
    def tied(self) -> bool:
        return self.name[0].islower()


@dataclass(frozen=True)
class DistSpec:
    letter: str  # "p" or "q"
    head: tuple[TermSpec, ...]
    given: tuple[TermSpec, ...] = ()


@dataclass(frozen=True)
class EntropyNode:
    terms: tuple[TermSpec, ...]
    given: tuple[TermSpec, ...] = ()


@dataclass(frozen=True)
class MINode:
    groups: tuple[tuple[TermSpec, ...], ...]
    given: tuple[TermSpec, ...] = ()


@dataclass(frozen=True)
class CrossEntropyNode:
    p_spec: DistSpec
    q_spec: DistSpec


@dataclass(frozen=True)
class KLNode:
    p_spec: DistSpec
    q_spec: DistSpec


@dataclass(frozen=True)
class ICNode:
    value: float


@dataclass(frozen=True)
class ScalarNode:
    value: float


@dataclass(frozen=True)
class ScaledNode:
    coeff: float
    child: object


@dataclass(frozen=True)
class SumNode:
    left: object
    right: object


@dataclass(frozen=True)
class DiffNode:
    left: object
    right: object


@dataclass(frozen=True)
class ExpectationNode:
    measure: DistSpec
    body: object


@dataclass(frozen=True)
class ComparisonNode:
    lhs: object
    op: str  # one of ==, <=, >=, !=
    rhs: object


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>==|<=|>=|!=|\|\||[\[\](){},;|=+\-*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(pos, {"token"}, f"unexpected character {text[pos]!r}")
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, expected, message=None):
        tok = self.peek()
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(
            tok.offset,
            expected,
            message or f"expected one of {sorted(expected)}, found {what}",
        )

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            return self.advance()
        self.fail({op})

    def close_list(self, *closers: str) -> str:
        """Consume one of ``closers`` after a termlist; a further ','-separated
        term would also have been legal, so it joins the expected set."""
        tok = self.peek()
        if tok.kind == "op" and tok.text in closers:
            self.advance()
            return tok.text
        self.fail(set(closers) | {","})

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return True
        return False

    # expr = additive [ cmp additive ]
    def parse_expr(self):
        lhs = self.parse_additive()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("==", "<=", ">=", "!="):
            self.advance()
            rhs = self.parse_additive()
            return ComparisonNode(lhs, tok.text, rhs)
        return lhs

    def parse_additive(self):
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.advance()
                rhs = self.parse_term()
                node = SumNode(node, rhs) if tok.text == "+" else DiffNode(node, rhs)
            else:
                return node

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            value = float(tok.text)
            if self.accept_op("*"):
                return ScaledNode(value, self.parse_term())
            return ScalarNode(value)
        if tok.kind == "name":
            if tok.text == "H":
                return self.parse_entropy()
            if tok.text == "I":
                return self.parse_mi()
            if tok.text in ("CE", "KL"):
                return self.parse_divergence()
            if tok.text == "IC":
                return self.parse_ic()
            if tok.text in ("E", "E_"):
                return self.parse_expectation()
        self.fail(set(_QUANTITY_HEADS) | {"NUMBER"})

    def parse_entropy(self):
        self.advance()  # H
        self.expect_op("[")
        terms = self.parse_termlist()
        given = ()
        if self.close_list("|", "]") == "|":
            given = self.parse_termlist()
            self.close_list("]")
        return EntropyNode(terms, given)

    def parse_mi(self):
        self.advance()  # I
        self.expect_op("[")
        groups = [self.parse_termlist()]
        self.close_list(";")  # at least two groups
        groups.append(self.parse_termlist())
        given = ()
        while True:
            sep = self.close_list(";", "|", "]")
            if sep == ";":
                groups.append(self.parse_termlist())
            elif sep == "|":
                given = self.parse_termlist()
                self.close_list("]")
                break
            else:
                break
        return MINode(tuple(groups), given)

    def parse_divergence(self):
        head = self.advance()  # CE or KL
        self.expect_op("[")
        p_spec = self.parse_dist()
        self.expect_op("||")
        q_spec = self.parse_dist()
        self.expect_op("]")
        cls = CrossEntropyNode if head.text == "CE" else KLNode
        return cls(p_spec, q_spec)

    def parse_ic(self):
        self.advance()  # IC
        self.expect_op("[")
        tok = self.peek()
        if tok.kind != "number":
            self.fail({"NUMBER"})
        self.advance()
        self.expect_op("]")
        return ICNode(float(tok.text))

    def parse_expectation(self):
        tok = self.advance()  # E or E_
        if tok.text == "E":
            self.expect_op("_")
        self.expect_op("{")
        measure = self.parse_dist()
        for t in measure.head:
            if not t.tied or t.outcome is not None:
                raise ParseError(
                    tok.offset,
                    {"LOWER_IDENT"},
                    "expectation variables must be bare lowercase identifiers",
                )
        for t in measure.given:
            if not t.tied:
                raise ParseError(
                    tok.offset,
                    {"LOWER_IDENT"},
                    "expectation conditioning terms must be tied (lowercase)",
                )
        self.expect_op("}")
        self.expect_op("[")
        body = self.parse_expr()
        self.expect_op("]")
        return ExpectationNode(measure, body)

    def parse_dist(self):
        tok = self.peek()
        if tok.kind != "name" or tok.text not in ("p", "q"):
            self.fail({"p", "q"})
        self.advance()
        self.expect_op("(")
        head = self.parse_termlist()
        given = ()
        if self.close_list("|", ")") == "|":
            given = self.parse_termlist()
            self.close_list(")")
        return DistSpec(tok.text, head, given)

    def parse_termlist(self):
        terms = [self.parse_termspec()]
        while self.accept_op(","):
            terms.append(self.parse_termspec())
        return tuple(terms)

    def parse_termspec(self):
        tok = self.peek()
        if tok.kind != "name":
            self.fail({"IDENT"})
        self.advance()
        name = tok.text
        if self.peek().kind == "op" and self.peek().text == "=":
            if not name[0].islower():
                raise ParseError(
                    self.peek().offset,
                    {",", "|", "]", ")", ";"},
                    "only lowercase (tied) identifiers take an outcome binding",
                )
            self.advance()
            out = self.peek()
            if out.kind not in ("name", "number"):
                self.fail({"OUTCOME"})
            self.advance()
            return TermSpec(name, out.text)
        return TermSpec(name)


def parse(text: str):
    """Parse an expression; any failure raises :class:`ParseError`.

    The returned AST round-trips through :func:`format_expression`.
    """
    if not isinstance(text, str):
        raise ParseError(0, {"expression"}, "input must be a string")
    try:
        parser = _Parser(text)
        node = parser.parse_expr()
        end = parser.peek()
        if end.kind != "end":
            parser.fail({"end of input"}, f"trailing input {end.text!r}")
        return node
    except ParseError:
        raise
    except RecursionError:
        raise ParseError(0, {"expression"}, "expression is nested too deeply") from None


# ---------------------------------------------------------------------------
# Printer

def _format_term(t: TermSpec) -> str:
    return t.name if t.outcome is None else f"{t.name}={t.outcome}"


def _format_termlist(terms) -> str:
    return ", ".join(_format_term(t) for t in terms)


def _format_dist(spec: DistSpec) -> str:
    inner = _format_termlist(spec.head)
    if spec.given:
        inner += " | " + _format_termlist(spec.given)
    return f"{spec.letter}({inner})"


def format_expression(node) -> str:
    """Render an AST back to surface syntax.

    The grammar has no parentheses, so additive chains must be
    left-nested; a Sum/Diff in a right operand (or under a scale) has no
    surface form and raises ``ValueError``.
    """
    if isinstance(node, ComparisonNode):
        return (
            f"{format_expression(node.lhs)} {node.op} {format_expression(node.rhs)}"
        )
    if isinstance(node, (SumNode, DiffNode)):
        if isinstance(node.right, (SumNode, DiffNode)):
            raise ValueError("right-nested additive chains have no surface form")
        op = "+" if isinstance(node, SumNode) else "-"
        return f"{format_expression(node.left)} {op} {format_expression(node.right)}"
    if isinstance(node, ScaledNode):
        if isinstance(node.child, (SumNode, DiffNode, ComparisonNode)):
            raise ValueError("a scale factor applies to a single term")
        return f"{node.coeff!r} * {format_expression(node.child)}"
    if isinstance(node, ScalarNode):
        return repr(node.value)
    if isinstance(node, ICNode):
        return f"IC[{node.value!r}]"
    if isinstance(node, EntropyNode):
        inner = _format_termlist(node.terms)
        if node.given:
            inner += " | " + _format_termlist(node.given)
        return f"H[{inner}]"
    if isinstance(node, MINode):
        inner = "; ".join(_format_termlist(g) for g in node.groups)
        if node.given:
            inner += " | " + _format_termlist(node.given)
        return f"I[{inner}]"
    if isinstance(node, CrossEntropyNode):
        return f"CE[{_format_dist(node.p_spec)} || {_format_dist(node.q_spec)}]"
    if isinstance(node, KLNode):
        return f"KL[{_format_dist(node.p_spec)} || {_format_dist(node.q_spec)}]"
    if isinstance(node, ExpectationNode):
        return f"E_{{{_format_dist(node.measure)}}}[{format_expression(node.body)}]"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluator

class _Scope:
    """Distributions plus the current tied-outcome environment."""

    def __init__(self, p, q, env, base):
        self.p = p
        self.q = q
        self.env = env  # exact variable name -> outcome index
        self.base = base

    def dist(self, letter: str):
        if letter == "p":
            return self.p
        if self.q is None:
            raise MissingQDistribution(
                "the expression references q(...) but no second distribution was given"
            )
        return self.q

    def with_bindings(self, extra: dict):
        merged = dict(self.env)
        merged.update(extra)
        return _Scope(self.p, self.q, merged, self.base)


def _resolve_variable(dist, ident: str) -> str:
    """Case-insensitive unique match from an identifier to a variable name."""
    matches = [v.name for v in dist.variables if v.name.lower() == ident.lower()]
    if not matches:
        raise UnknownVariable(f"no variable matches identifier {ident!r}")
    if len(matches) > 1:
        raise UnknownVariable(f"identifier {ident!r} is ambiguous: {matches}")
    return matches[0]


def _resolve_term(dist, spec: TermSpec, env: dict) -> Term:
    name = _resolve_variable(dist, spec.name)
    if not spec.tied:
        return Term(name)
    if spec.outcome is not None:
        var = dist.variables[dist.index_of(name)]
        try:
            idx = var.index_of(spec.outcome)
        except ValueError as exc:
            raise UnknownVariable(str(exc)) from exc
        return Term(name, idx)
    if name in env:
        return Term(name, env[name])
    raise UnknownVariable(
        f"tied identifier {spec.name!r} has no outcome: bind it with "
        f"'{spec.name}=<outcome>' or supply it in the bindings"
    )


def _resolve_terms(dist, specs, env):
    return tuple(_resolve_term(dist, s, env) for s in specs)


def _eval(node, scope: _Scope):
    if isinstance(node, ScalarNode):
        return node.value
    if isinstance(node, ICNode):
        return qt.information_content(node.value, scope.base)
    if isinstance(node, ScaledNode):
        return node.coeff * _as_number(_eval(node.child, scope))
    if isinstance(node, SumNode):
        return _as_number(_eval(node.left, scope)) + _as_number(_eval(node.right, scope))
    if isinstance(node, DiffNode):
        return _as_number(_eval(node.left, scope)) - _as_number(_eval(node.right, scope))
    if isinstance(node, EntropyNode):
        head = _resolve_terms(scope.p, node.terms, scope.env)
        given = _resolve_terms(scope.p, node.given, scope.env)
        return qt.entropy(scope.p, head, given, base=scope.base)
    if isinstance(node, MINode):
        groups = [_resolve_terms(scope.p, g, scope.env) for g in node.groups]
        given = _resolve_terms(scope.p, node.given, scope.env)
        return qt.mutual_info(scope.p, groups, given, base=scope.base)
    if isinstance(node, (CrossEntropyNode, KLNode)):
        p_ref = scope.dist(node.p_spec.letter)
        q_ref = scope.dist(node.q_spec.letter)
        if isinstance(p_ref, UnnormalizedWeight):
            raise EvaluationError("the left-hand side of CE/KL must be a distribution")
        p_head = _resolve_terms(p_ref, node.p_spec.head, scope.env)
        p_given = _resolve_terms(p_ref, node.p_spec.given, scope.env)
        q_head = _resolve_terms(q_ref, node.q_spec.head, scope.env)
        q_given = _resolve_terms(q_ref, node.q_spec.given, scope.env)
        fn = qt.cross_entropy if isinstance(node, CrossEntropyNode) else qt.kl_divergence
        return fn(p_ref, q_ref, p_head, p_given,
                  q_head=q_head, q_given=q_given, base=scope.base)
    if isinstance(node, ExpectationNode):
        return _eval_expectation(node, scope)
    if isinstance(node, ComparisonNode):
        lhs = _as_number(_eval(node.lhs, scope))
        rhs = _as_number(_eval(node.rhs, scope))
        return compare(lhs, node.op, rhs)
    raise TypeError(f"not an expression node: {node!r}")


def _as_number(value):
    if isinstance(value, bool):
        raise EvaluationError("comparisons cannot be nested inside arithmetic")
    return value


def _eval_expectation(node: ExpectationNode, scope: _Scope):
    measure_dist = scope.dist(node.measure.letter)
    iter_names = [_resolve_variable(measure_dist, t.name) for t in node.measure.head]
    if len(set(iter_names)) != len(iter_names):
        raise EvaluationError("expectation variables must be distinct")
    given = _resolve_terms(measure_dist, node.measure.given, scope.env)
    tied = {t.name: t.outcome for t in given}
    tensor, kept = qt._subtensor(measure_dist.names, _tensor_of(measure_dist),
                                 iter_names + list(tied))
    weights, mass = qt.tied_slice(tensor, kept, tied)
    free = [n for n in kept if n not in tied]
    total = 0.0
    for idx, w in np.ndenumerate(weights):
        if w > ZERO_CELL:
            extra = dict(zip(free, idx))
            total += float(w) * _as_number(_eval(node.body, scope.with_bindings(extra)))
    return total / mass


def compare(lhs: float, op: str, rhs: float) -> bool:
    """Tolerance-aware comparison: ``EQ_TOLERANCE`` slack for ==/<=/>=; !=
    needs a gap above ``NEQ_GAP``."""
    if op == "==":
        return abs(lhs - rhs) <= EQ_TOLERANCE
    if op == "!=":
        return abs(lhs - rhs) > NEQ_GAP
    if op == "<=":
        return lhs <= rhs + EQ_TOLERANCE
    if op == ">=":
        return lhs >= rhs - EQ_TOLERANCE
    raise ValueError(f"unknown comparison operator {op!r}")


def evaluate(expression, dist: JointDistribution, q=None, bindings=None, *,
             base: LogBase = LogBase.NATS):
    """Evaluate an expression (text or AST) against a distribution.

    ``q`` supplies the second distribution for ``q(...)`` references (a
    :class:`JointDistribution` or :class:`UnnormalizedWeight`).  ``bindings``
    resolves bare lowercase identifiers to outcome indices; keys are matched
    to variable names case-insensitively.  Returns a float, or a bool for
    comparisons.
    """
    node = parse(expression) if isinstance(expression, str) else expression
    env = {}
    if bindings is not None:
        items = bindings.bindings if isinstance(bindings, Assignment) else dict(bindings).items()
        for name, idx in items:
            try:
                exact = _resolve_variable(dist, name)
            except UnknownVariable:
                if q is None:
                    raise
                exact = _resolve_variable(q, name)
            env[exact] = int(idx)
    return _eval(node, _Scope(dist, q, env, base))


def children(node) -> tuple:
    """The sub-expressions of an AST node, in surface order."""
    if isinstance(node, (SumNode, DiffNode)):
        return (node.left, node.right)
    if isinstance(node, ComparisonNode):
        return (node.lhs, node.rhs)
    if isinstance(node, ScaledNode):
        return (node.child,)
    if isinstance(node, ExpectationNode):
        return (node.body,)
    return ()


def termlists(node) -> tuple:
    """The term lists written in an AST node itself (not in its
    sub-expressions), in surface order, each as a pair (letter of the
    distribution it refers to, terms)."""
    if isinstance(node, EntropyNode):
        return (("p", node.terms), ("p", node.given))
    if isinstance(node, MINode):
        return tuple(("p", terms) for terms in node.groups + (node.given,))
    if isinstance(node, (CrossEntropyNode, KLNode)):
        specs = (node.p_spec, node.q_spec)
    elif isinstance(node, ExpectationNode):
        specs = (node.measure,)
    else:
        return ()
    return tuple((s.letter, terms) for s in specs for terms in (s.head, s.given))


def scoped_termlists(node, bound=frozenset()):
    """Every term list of the expression as (letter, terms, bound), in
    surface order; ``bound`` holds the lowercase names that enclosing
    expectations bind where the list is written.  An expectation binds its
    measure's head in its body and at the head itself; its conditioning side
    is read in the enclosing scope."""
    lists = termlists(node)
    if isinstance(node, ExpectationNode):
        (letter, head), (_, given) = lists
        inner = bound | {t.name.lower() for t in head}
        lists = ((letter, head, inner), (letter, given, bound))
        bound = inner
    else:
        lists = tuple((letter, terms, bound) for letter, terms in lists)
    yield from lists
    for child in children(node):
        yield from scoped_termlists(child, bound)


def collect_identifiers(node) -> list[str]:
    """Every variable identifier mentioned anywhere in the expression, in
    order of first appearance (case preserved)."""
    seen = {}
    for _, terms, _ in scoped_termlists(node):
        seen.update(dict.fromkeys(t.name for t in terms))
    return list(seen)


def free_tied_identifiers(node) -> list[str]:
    """Bare lowercase identifiers that require external bindings (i.e. not
    bound by a literal outcome or an enclosing expectation)."""
    free = {}
    for _, terms, bound in scoped_termlists(node):
        free.update(dict.fromkeys(
            t.name for t in terms
            if t.tied and t.outcome is None and t.name.lower() not in bound
        ))
    return list(free)
