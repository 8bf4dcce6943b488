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
identifiers denote tied variables, bound either literally (``y=1``, the
outcome labelled ``1``) or via bindings supplied at evaluation time.  An
identifier names a variable as :mod:`discinfo.dist` resolves a name, without
regard to case, so ``y`` ties the variable named ``Y``.

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

A NUMBER is a decimal literal that fits a float; ``1e400`` does not.  An
identifier is an ASCII letter, then ASCII letters, digits or ``_`` (the rule
``dist`` applies to variable names), so ``_x`` is not one.
Parsing is total: every malformed input raises :class:`ParseError` carrying
the byte offset of the failure and the set of expected tokens.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import quantities as qt
from .dist import (EQ_TOLERANCE, NEQ_GAP, ZERO_MASS, JointDistribution, Variable,
                   checked_bindings, name_key)
from .errors import (
    DiscinfoError,
    InvalidIndex,
    MissingQDistribution,
    ParseError,
    UnknownVariable,
)
from .quantities import LogBase, Term

_QUANTITY_HEADS = ("H", "I", "CE", "KL", "IC", "E")


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
class InfoNode:
    """``H[...]`` with one term group, ``I[...]`` with two or more."""

    groups: tuple[tuple[TermSpec, ...], ...]
    given: tuple[TermSpec, ...] = ()

    def __post_init__(self):
        if not self.groups:
            raise ValueError("an information node needs at least one term group")


@dataclass(frozen=True)
class DivergenceNode:
    kind: str  # "CE" or "KL"
    p_spec: DistSpec
    q_spec: DistSpec

    def __post_init__(self):
        if self.kind not in ("CE", "KL"):
            raise ValueError(f"divergence kind must be 'CE' or 'KL', got {self.kind!r}")


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
class ExpectationNode:
    measure: DistSpec
    body: object


@dataclass(frozen=True)
class BinaryNode:
    lhs: object
    op: str  # "+", "-", or one of the comparisons ==, <=, >=, !=
    rhs: object

    def __post_init__(self):
        if self.op not in ("+", "-", "==", "<=", ">=", "!="):
            raise ValueError(f"operator must be one of + - == <= >= !=, got {self.op!r}")


# ---------------------------------------------------------------------------
# Lexer

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<op>==|<=|>=|!=|\|\||[\[\](){},;|=+\-*_])
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

    def number(self) -> float:
        """The numeric literal here; one too large for a float is an error,
        as it would not print back as written."""
        tok = self.peek()
        if tok.kind != "number":
            self.fail({"NUMBER"})
        value = float(tok.text)
        if not math.isfinite(value):
            raise ParseError(tok.offset, {"NUMBER"},
                             f"numeric literal {tok.text!r} is out of range")
        self.advance()
        return value

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
            return BinaryNode(lhs, tok.text, rhs)
        return lhs

    def parse_additive(self):
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in ("+", "-"):
                self.advance()
                rhs = self.parse_term()
                node = BinaryNode(node, tok.text, rhs)
            else:
                return node

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "number":
            value = self.number()
            if self.accept_op("*"):
                return ScaledNode(value, self.parse_term())
            return ScalarNode(value)
        if tok.kind == "name":
            if tok.text in ("H", "I"):
                return self.parse_info()
            if tok.text in ("CE", "KL"):
                return self.parse_divergence()
            if tok.text == "IC":
                return self.parse_ic()
            if tok.text in ("E", "E_"):
                return self.parse_expectation()
        self.fail(set(_QUANTITY_HEADS) | {"NUMBER"})

    def parse_info(self):
        mi = self.advance().text == "I"
        self.expect_op("[")
        groups = [self.parse_termlist()]
        if mi:
            self.close_list(";")  # at least two groups
            groups.append(self.parse_termlist())
        closers = (";", "|", "]") if mi else ("|", "]")
        while (sep := self.close_list(*closers)) == ";":
            groups.append(self.parse_termlist())
        given = ()
        if sep == "|":
            given = self.parse_termlist()
            self.close_list("]")
        return InfoNode(tuple(groups), given)

    def parse_divergence(self):
        head = self.advance()  # CE or KL
        self.expect_op("[")
        p_spec = self.parse_dist()
        self.expect_op("||")
        q_spec = self.parse_dist()
        self.expect_op("]")
        return DivergenceNode(head.text, p_spec, q_spec)

    def parse_ic(self):
        self.advance()  # IC
        self.expect_op("[")
        value = self.number()
        self.expect_op("]")
        return ICNode(value)

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
    left-nested; a comparison as an operand, an additive node as the right
    operand of one, and either under a scale have no surface form and raise
    ``ValueError``.
    """
    if isinstance(node, BinaryNode):
        if _is_comparison(node.lhs) or _is_comparison(node.rhs):
            raise ValueError("a comparison cannot be an operand")
        if node.op in ("+", "-") and isinstance(node.rhs, BinaryNode):
            raise ValueError("right-nested additive chains have no surface form")
        return f"{format_expression(node.lhs)} {node.op} {format_expression(node.rhs)}"
    if isinstance(node, ScaledNode):
        if isinstance(node.child, BinaryNode):
            raise ValueError("a scale factor applies to a single term")
        return f"{node.coeff!r} * {format_expression(node.child)}"
    if isinstance(node, ScalarNode):
        return repr(node.value)
    if isinstance(node, ICNode):
        return f"IC[{node.value!r}]"
    if isinstance(node, InfoNode):
        inner = "; ".join(_format_termlist(g) for g in node.groups)
        if node.given:
            inner += " | " + _format_termlist(node.given)
        return f"{'H' if len(node.groups) == 1 else 'I'}[{inner}]"
    if isinstance(node, DivergenceNode):
        return f"{node.kind}[{_format_dist(node.p_spec)} || {_format_dist(node.q_spec)}]"
    if isinstance(node, ExpectationNode):
        return f"E_{{{_format_dist(node.measure)}}}[{format_expression(node.body)}]"
    raise TypeError(f"not an expression node: {node!r}")


def _is_comparison(node) -> bool:
    return isinstance(node, BinaryNode) and node.op not in ("+", "-")


# ---------------------------------------------------------------------------
# Evaluator

class _Scope:
    """Stacks of distributions plus the current tied-outcome environment."""

    def __init__(self, p, q, env, base, n=1):
        self.p = p
        self.q = q
        self.env = env  # exact variable name -> outcome index, or one per element
        self.base = base
        self.n = n  # the stack length

    def dist(self, letter: str):
        if letter == "p":
            return self.p
        if self.q is None:
            raise MissingQDistribution(
                "the expression references q(...) but no second distribution was given"
            )
        return self.q

    def take(self, elements, extra: dict):
        """The scope of the given elements, with more tied outcomes."""
        p = self.p.take(elements)
        q = p if self.q is self.p else None if self.q is None else self.q.take(elements)
        env = {n: o[elements] if isinstance(o, np.ndarray) else o for n, o in self.env.items()}
        env.update(extra)
        return _Scope(p, q, env, self.base, len(elements))


def _resolve_term(dist, spec: TermSpec, env: dict) -> Term:
    var = dist.variable(spec.name)
    if not spec.tied:
        return Term(var.name)
    if spec.outcome is not None:
        try:
            return Term(var.name, var.index_of(spec.outcome))
        except InvalidIndex as exc:
            raise UnknownVariable(str(exc)) from exc
    if var.name in env:
        return Term(var.name, env[var.name])
    raise UnknownVariable(
        f"tied identifier {spec.name!r} has no outcome: bind it with "
        f"'{spec.name}=<outcome>' or supply it in the bindings"
    )


def _resolve_terms(dist, specs, env):
    return tuple(_resolve_term(dist, s, env) for s in specs)


def _eval(node, scope: _Scope):
    """``(values, undefined)`` of ``node`` for every element of the scope's
    stacks: arrays of the stack length, or of length 1 where nothing varies
    per element.  ``undefined`` holds, per element, 0 or the code of the
    first zero-probability or support error the evaluation meets (see
    :func:`~discinfo.quantities._expected_ic_nats`)."""
    if isinstance(node, ScalarNode):
        return np.array([node.value]), qt.DEFINED
    if isinstance(node, ICNode):
        return np.array([qt.information_content(node.value, scope.base)]), qt.DEFINED
    if isinstance(node, ScaledNode):
        values, undefined = _eval_number(node.child, scope)
        return node.coeff * values, undefined
    if isinstance(node, BinaryNode):
        lhs, lu = _eval_number(node.lhs, scope)
        rhs, ru = _eval_number(node.rhs, scope)
        values = (lhs + rhs if node.op == "+" else lhs - rhs if node.op == "-"
                  else compare(lhs, node.op, rhs))
        return values, qt.first_undefined(lu, ru)
    if isinstance(node, InfoNode):
        groups = [_resolve_terms(scope.p, g, scope.env) for g in node.groups]
        given = _resolve_terms(scope.p, node.given, scope.env)
        return _in_base(qt._mi_nats(scope.p, groups, given), scope.base)
    if isinstance(node, DivergenceNode):
        p_ref = scope.dist(node.p_spec.letter)
        q_ref = scope.dist(node.q_spec.letter)
        if p_ref.weight:
            raise EvaluationError("the left-hand side of CE/KL must be a distribution")
        p_head = _resolve_terms(p_ref, node.p_spec.head, scope.env)
        p_given = _resolve_terms(p_ref, node.p_spec.given, scope.env)
        q_head = _resolve_terms(q_ref, node.q_spec.head, scope.env)
        q_given = _resolve_terms(q_ref, node.q_spec.given, scope.env)
        result = qt._expected_ic_nats(p_ref, q_ref, p_head, p_given, q_head, q_given)
        if node.kind == "KL":
            result = qt._minus(result, qt._expected_ic_nats(p_ref, p_ref, p_head, p_given))
        return _in_base(result, scope.base)
    if isinstance(node, ExpectationNode):
        return _eval_expectation(node, scope)
    raise TypeError(f"not an expression node: {node!r}")


def _in_base(result, base: LogBase):
    values, undefined = result
    return base.from_nats(values), undefined


def _eval_number(node, scope):
    result = _eval(node, scope)
    if result[0].dtype == bool:
        raise EvaluationError("comparisons cannot be nested inside arithmetic")
    return result


def _eval_expectation(node: ExpectationNode, scope: _Scope):
    """A weighted sum of the body over the measure's cells: the cells above
    ``ZERO_MASS`` of every element become the elements of one stack, on
    which the body is evaluated once."""
    measure = scope.dist(node.measure.letter)
    iter_names = [measure.variable(t.name).name for t in node.measure.head]
    if len(set(iter_names)) != len(iter_names):
        raise EvaluationError("expectation variables must be distinct")
    given = _resolve_terms(measure, node.measure.given, scope.env)
    tied = {t.name: t.outcome for t in given}
    tensor, kept = qt._subtensor(measure.names, measure.tensor, iter_names + list(tied))
    weights = qt.gather(tensor, kept, tied, measure.rows)
    if len(weights) < scope.n:
        weights = np.broadcast_to(weights, (scope.n,) + weights.shape[1:])
    flat = weights.reshape(len(weights), -1)
    mass = np.add.reduce(flat, axis=1)
    elements, cells = (flat > ZERO_MASS).nonzero()
    total = np.zeros(len(flat))
    undefined = np.zeros(len(flat), dtype=np.int8)
    if len(elements):
        free = [n for n in kept if n not in tied]
        extra = dict(zip(free, np.unravel_index(cells, weights.shape[1:])))
        values, body_undefined = _eval_number(node.body, scope.take(elements, extra))
        # a constant body (one value) broadcasts in the product
        total = np.bincount(elements, weights=flat[elements, cells] * values, minlength=len(flat))
        if np.logical_or.reduce(body_undefined, axis=None):
            bad = np.flatnonzero(np.broadcast_to(body_undefined, elements.shape))
            first_bad, at = np.unique(elements[bad], return_index=True)
            undefined[first_bad] = np.broadcast_to(body_undefined, elements.shape)[bad[at]]
    undefined[mass <= ZERO_MASS] = qt.ZERO_PROBABILITY
    values = qt._divide(total, mass)
    if not np.logical_or.reduce(undefined, axis=None):
        return values, qt.DEFINED
    return np.where(undefined == 0, values, np.nan), undefined


def margin(lhs, op: str, rhs):
    """How badly the comparison fails, elementwise on arrays: it holds when
    the margin is at most ``EQ_TOLERANCE`` (==, <=, >=), or below 0 for !=,
    which needs a gap above ``NEQ_GAP``."""
    if op == "==":
        return abs(lhs - rhs)
    if op == "<=":
        return lhs - rhs
    if op == ">=":
        return rhs - lhs
    if op == "!=":
        return NEQ_GAP - abs(lhs - rhs)
    raise ValueError(f"unknown comparison operator {op!r}")


def compare(lhs, op: str, rhs):
    """The verdict of the comparison by its :func:`margin`."""
    gap = margin(lhs, op, rhs)
    return gap < 0 if op == "!=" else gap <= EQ_TOLERANCE


def evaluate(expression, dist: JointDistribution, q=None, bindings=None, *,
             base: LogBase = LogBase.NATS):
    """Evaluate an expression (text or AST) against a distribution.

    ``q`` supplies the second distribution for ``q(...)`` references (a
    :class:`JointDistribution` or :class:`UnnormalizedWeight`).  ``bindings``
    (a mapping or a list of (name, outcome) pairs) gives bare lowercase
    identifiers their outcomes, resolved by
    :func:`~discinfo.dist.checked_bindings` in ``dist``, then in ``q``: a
    name names a variable without regard to case, an integer outcome is a
    position and a string a label.  Returns a float, or a bool for
    comparisons.
    """
    p = qt.Stack.of(dist)
    node, scope = _prepare(expression, p, None if q is None else p if q is dist else qt.Stack.of(q),
                         bindings, base, Variable.index_of)
    # the resolved bindings name the tied outcomes when their event has no mass
    return qt.one_value(*_eval(node, scope), scope.env.items())


def _prepare(expression, p: qt.Stack, q, bindings, base, read):
    """The AST of ``expression`` and the scope it is evaluated in, the
    ``bindings`` read by ``read``.  A q variable that names a p variable up
    to case takes p's spelling, and must have p's outcomes: the kernel pairs
    the two sides by name and position."""
    if q is not None and q is not p and q.variables != p.variables:
        in_p = {name_key(v.name): v for v in p.variables}
        variables = [in_p.get(name_key(v.name), v) for v in q.variables]
        for v, w in zip(q.variables, variables):
            if v.support != w.support:
                raise ValueError(f"q's variable {v.name!r} has the outcomes "
                                 f"{list(v.support)}, p's {list(w.support)}")
        q = qt.Stack(variables, q.tensor, q.rows, q.weight)
    node = parse(expression) if isinstance(expression, str) else expression
    return node, _Scope(p, q, checked_bindings(p, bindings or {}, q, read), base)


def _outcomes(var, outcome):
    """:func:`evaluate_stack`'s outcome reader: a 1-D integer array holds one
    position per stack element, any other value is one outcome."""
    if not (isinstance(outcome, np.ndarray) and outcome.ndim and outcome.dtype.kind in "iu"):
        return var.index_of(outcome)
    if outcome.ndim > 1:
        raise ValueError(f"outcome positions {outcome!r} for variable {var.name!r}: not one "
                         f"position in 0..{var.size - 1} per stack element")
    return var.positions(outcome)


def evaluate_stack(expression, p, q=None, bindings=None, *, base: LogBase = LogBase.NATS):
    """Evaluate an expression over a stack of same-shape distributions.

    ``p`` and ``q`` are :class:`~discinfo.quantities.Stack` values, and
    ``bindings`` maps names to an outcome (as for :func:`evaluate`) or to a
    1-D integer array of one in-range outcome index per element.  ``p``,
    ``q`` and each array have length 1 or the stack's length n >= 1.  Returns
    ``(values, defined)``, two arrays of length n: ``defined`` is False
    exactly where :func:`evaluate` on that element raises
    :class:`ZeroProbabilityEvent` or :class:`SupportMismatch`.
    """
    node, scope = _stack_scope(expression, p, q, bindings, base)
    values, undefined = _eval(node, scope)
    return np.broadcast_to(values, scope.n), np.broadcast_to(undefined == 0, scope.n)


def _stack_scope(expression, p, q, bindings, base=LogBase.NATS):
    """:func:`evaluate_stack`'s checked read: the AST and its scope, of length ``n``."""
    node, scope = _prepare(expression, p, q, bindings, base, _outcomes)
    lengths = {"p": len(p), **({} if q is None else {"q": len(q)}),
               **{name: len(o) for name, o in scope.env.items() if isinstance(o, np.ndarray)}}
    scope.n = max(lengths.values())
    if not scope.n or not set(lengths.values()) <= {1, scope.n}:  # no empty stack
        raise ValueError(f"lengths {lengths}: each must be 1 or the stack's length n")
    return node, scope


# The eight rows of a diagram: a DiagramTable field and its expression, with
# {X} the untied X group, {x} the same names tied and {y} the observed one.
_DIAGRAM_ROWS = (
    ("joint", "H[{X},{y}]"),
    ("outcome", "H[{y}]"),
    ("marginal", "H[{X}]"),
    ("gain", "I[{X};{y}]"),
    ("surprise", "I[{y};{X}]"),
    ("cond_head", "H[{X}|{y}]"),
    ("cond_outcome", "H[{y}|{X}]"),
    ("expected_marginal_ic", "E_{{p({x}|{y})}}[H[{x}]]"),
)


@dataclass(frozen=True)
class DiagramTable:
    """The eight quantities relating X and an observed outcome Y=y, each the
    value of its expression in ``labels``.

    The additive structure: ``joint = cond_head + outcome``, ``joint =
    cond_outcome + expected_marginal_ic``, ``gain = marginal - cond_head``,
    ``surprise = outcome - cond_outcome = expected_marginal_ic - cond_head``.
    """

    labels: tuple[str, ...]  # one expression per row, in row order
    joint: float
    outcome: float
    marginal: float
    gain: float
    surprise: float
    cond_head: float
    cond_outcome: float
    expected_marginal_ic: float

    def rows(self):
        """The (expression, value) pairs, in row order."""
        return [(label, getattr(self, field))
                for label, (field, _) in zip(self.labels, _DIAGRAM_ROWS)]


def diagram(d: JointDistribution, observed, *, base: LogBase = LogBase.NATS) -> DiagramTable:
    """Evaluate the eight-quantity decomposition for one observed variable.

    ``observed`` binds exactly one variable of ``d`` to its observed outcome,
    read as :func:`evaluate` reads its bindings, a mapping or a list of
    (name, outcome) pairs (``{"Y": 1}``, ``{"y": 1}``, ``[("Y", 1)]`` and, on
    the support ``("0", "1")``, ``{"Y": "1"}`` are one observation); every
    other variable forms the (joint) X group.  Each row is an expression
    over ``d`` with the observed variable as a bare tied identifier,
    evaluated with that binding.
    """
    observed = checked_bindings(d, observed)
    if len(observed) != 1:
        raise ValueError("diagram needs exactly one observed variable")
    (y_name, y_idx), = observed.items()
    xs = ",".join(n[0].upper() + n[1:] for n in d.names if n != y_name)
    if not xs:
        raise ValueError("diagram needs at least one unobserved variable")
    labels = tuple(template.format(X=xs, x=xs.lower(), y=y_name.lower())
                   for _, template in _DIAGRAM_ROWS)
    scope = _Scope(qt.Stack.of(d), None, {y_name: y_idx}, base)
    return DiagramTable(labels, *(qt.one_value(*_eval(parse(label), scope), scope.env.items())
                                  for label in labels))


def scoped_termlists(node, bound=frozenset()):
    """Every term list of the expression as (letter, terms, bound), in
    surface order; ``bound`` holds the :func:`~discinfo.dist.name_key` of
    each name that enclosing expectations bind where the list is written.
    An expectation binds its
    measure's head in its body and at the head itself; its conditioning side
    is read in the enclosing scope."""
    if isinstance(node, InfoNode):
        yield from (("p", terms, bound) for terms in node.groups + (node.given,))
    elif isinstance(node, DivergenceNode):
        for s in (node.p_spec, node.q_spec):
            yield from ((s.letter, terms, bound) for terms in (s.head, s.given))
    elif isinstance(node, ExpectationNode):
        inner = bound | {name_key(t.name) for t in node.measure.head}
        yield node.measure.letter, node.measure.head, inner
        yield node.measure.letter, node.measure.given, bound
        yield from scoped_termlists(node.body, inner)
    elif isinstance(node, ScaledNode):
        yield from scoped_termlists(node.child, bound)
    elif isinstance(node, BinaryNode):
        yield from scoped_termlists(node.lhs, bound)
        yield from scoped_termlists(node.rhs, bound)


def read_terms(node):
    """One pass of :func:`scoped_termlists`: every variable identifier of the
    expression and its bare lowercase identifiers that require external
    bindings (not bound by a literal outcome or an enclosing expectation),
    each in order of first appearance (case preserved), the letters of its
    term lists, and its terms that write an outcome."""
    names, free, letters, written = {}, {}, set(), []
    for letter, terms, bound in scoped_termlists(node):
        letters.add(letter)
        for t in terms:
            names[t.name] = None
            if t.outcome is not None:
                written.append(t)
            elif t.tied and name_key(t.name) not in bound:
                free[t.name] = None
    return list(names), list(free), letters, written


def collect_identifiers(node) -> list[str]:
    """Every variable identifier of the expression (see :func:`read_terms`)."""
    return read_terms(node)[0]


def free_tied_identifiers(node) -> list[str]:
    """The free tied identifiers of the expression (see :func:`read_terms`)."""
    return read_terms(node)[1]
