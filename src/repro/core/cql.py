"""A CQL-subset parser (§2.4, Appendix A).

Parses the dialect the paper's benchmark queries are written in and
builds :class:`~repro.core.query.Query` objects::

    select timestamp, category, sum(cpu) as totalCpu
    from TaskEvents [range 60 slide 1]
    group by category

Supported grammar (case-insensitive keywords)::

    query    := SELECT items FROM stream [WHERE pred]
                [GROUP BY cols] [HAVING pred]
              | SELECT items FROM stream , stream WHERE pred      -- join
    stream   := NAME '[' window ']' [AS NAME]
    window   := RANGE NUM [SLIDE NUM] | ROWS NUM [SLIDE NUM]
              | RANGE UNBOUNDED
    items    := item (',' item)* ;  item := expr [AS NAME]
    expr     := additive arithmetic over columns/numbers, AGG '(' col ')',
                COUNT '(' '*' ')'
    pred     := disjunctions/conjunctions of comparisons

Relational name resolution is positional: the FROM clause's schemas are
supplied by the caller (``schemas={"TaskEvents": schema}``).  Join queries
reference right-stream columns either by bare name (when unambiguous) or
with the configured right prefix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import CQLSyntaxError, QueryError
from ..operators.aggregate_functions import SUPPORTED_FUNCTIONS, AggregateSpec
from ..relational.expressions import (
    And,
    Arithmetic,
    Comparison,
    Constant,
    Expression,
    Or,
    Predicate,
    col,
)
from ..relational.schema import Schema
from ..windows.definition import WindowDefinition
from .query import Query

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|==|[<>=+\-*/%(),.\[\]*]))"
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having", "as",
    "range", "rows", "slide", "unbounded", "and", "or",
}


@dataclass
class _Token:
    kind: str  # "number" | "name" | "op" | "keyword"
    text: str


def _tokenize(text: str) -> "list[_Token]":
    tokens: list[_Token] = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise CQLSyntaxError(f"cannot tokenize at: {text[pos:pos + 20]!r}")
        pos = match.end()
        if match.lastgroup == "number":
            tokens.append(_Token("number", match.group("number")))
        elif match.lastgroup == "name":
            word = match.group("name")
            kind = "keyword" if word.lower() in _KEYWORDS else "name"
            tokens.append(_Token(kind, word.lower() if kind == "keyword" else word))
        else:
            tokens.append(_Token("op", match.group("op")))
    return tokens


class _Parser:
    def __init__(self, tokens: "list[_Token]") -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> "_Token | None":
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise CQLSyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def accept(self, kind: str, text: "str | None" = None) -> "_Token | None":
        token = self.peek()
        if token and token.kind == kind and (text is None or token.text == text):
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, text: "str | None" = None) -> _Token:
        token = self.accept(kind, text)
        if token is None:
            got = self.peek()
            # Both branches formatted deliberately: a real token's text is
            # repr'd (it is user input), the end-of-input marker is prose.
            actual = f"{got.text!r}" if got is not None else "end of query"
            raise CQLSyntaxError(f"expected {text or kind!r}, got {actual}")
        return token

    # -- expressions ---------------------------------------------------------

    def parse_expression(self) -> Expression:
        left = self.parse_term()
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.text in ("+", "-"):
                self.next()
                left = Arithmetic(token.text, left, self.parse_term())
            else:
                return left

    def parse_term(self) -> Expression:
        left = self.parse_atom()
        while True:
            token = self.peek()
            if token and token.kind == "op" and token.text in ("*", "/", "%"):
                self.next()
                left = Arithmetic(token.text, left, self.parse_atom())
            else:
                return left

    def parse_atom(self) -> Expression:
        if self.accept("op", "("):
            inner = self.parse_expression()
            self.expect("op", ")")
            return inner
        token = self.next()
        if token.kind == "number":
            value = float(token.text) if "." in token.text else int(token.text)
            return Constant(value)
        if token.kind == "name":
            name = token.text
            if self.accept("op", "."):
                # Qualified reference Stream.column: keep the column name;
                # joins disambiguate by prefix at build time.
                name = self.next().text
            return col(name)
        raise CQLSyntaxError(f"unexpected token {token.text!r} in expression")

    # -- predicates -----------------------------------------------------------

    def parse_predicate(self) -> Predicate:
        left = self.parse_conjunction()
        while self.accept("keyword", "or"):
            left = Or(left, self.parse_conjunction())
        return left

    def parse_conjunction(self) -> Predicate:
        left = self.parse_comparison()
        while self.accept("keyword", "and"):
            left = And(left, self.parse_comparison())
        return left

    def parse_comparison(self) -> Predicate:
        if self.accept("op", "("):
            inner = self.parse_predicate()
            self.expect("op", ")")
            return inner
        left = self.parse_expression()
        token = self.next()
        if token.kind != "op" or token.text not in ("<", "<=", ">", ">=", "==", "!=", "="):
            raise CQLSyntaxError(f"expected comparison operator, got {token.text!r}")
        op = "==" if token.text == "=" else token.text
        right = self.parse_expression()
        return Comparison(op, left, right)


@dataclass
class _SelectItem:
    alias: str
    expression: "Expression | None"  # plain expression
    aggregate: "AggregateSpec | None"  # or aggregate


@dataclass
class _StreamClause:
    name: str
    window: "WindowDefinition | None"
    alias: str


def _parse_select_items(parser: _Parser) -> "tuple[list[_SelectItem], bool]":
    distinct = parser.accept("keyword", "distinct") is not None
    items: list[_SelectItem] = []
    while True:
        token = parser.peek()
        if token is None:
            raise CQLSyntaxError("unterminated select list")
        if token.kind == "name" and token.text.lower() in SUPPORTED_FUNCTIONS + ("count",):
            save = parser.pos
            fn = parser.next().text.lower()
            if parser.accept("op", "("):
                if parser.accept("op", "*"):
                    column = None
                else:
                    column = parser.next().text
                    if parser.accept("op", "."):
                        column = parser.next().text
                parser.expect("op", ")")
                alias = ""
                if parser.accept("keyword", "as"):
                    alias = parser.next().text
                items.append(_SelectItem(alias, None, AggregateSpec(fn, column, alias)))
            else:
                parser.pos = save
                expr = parser.parse_expression()
                alias = next(iter(expr.references()), f"col{len(items)}")
                if parser.accept("keyword", "as"):
                    alias = parser.next().text
                items.append(_SelectItem(alias, expr, None))
        else:
            expr = parser.parse_expression()
            alias = next(iter(expr.references()), f"col{len(items)}")
            if parser.accept("keyword", "as"):
                alias = parser.next().text
            items.append(_SelectItem(alias, expr, None))
        if not parser.accept("op", ","):
            return items, distinct


def _parse_stream_clause(parser: _Parser) -> _StreamClause:
    name = parser.expect("name").text
    parser.expect("op", "[")
    window: WindowDefinition | None
    if parser.accept("keyword", "range"):
        if parser.accept("keyword", "unbounded"):
            window = None
        else:
            size = int(parser.expect("number").text)
            slide = size
            if parser.accept("keyword", "slide"):
                slide = int(parser.expect("number").text)
            window = WindowDefinition.time(size, slide)
    elif parser.accept("keyword", "rows"):
        size = int(parser.expect("number").text)
        slide = size
        if parser.accept("keyword", "slide"):
            slide = int(parser.expect("number").text)
        window = WindowDefinition.rows(size, slide)
    else:
        raise CQLSyntaxError("expected RANGE or ROWS in window clause")
    parser.expect("op", "]")
    alias = name
    if parser.accept("keyword", "as"):
        alias = parser.expect("name").text
    return _StreamClause(name, window, alias)


def compile_statement(
    text: str,
    schemas: "dict[str, Schema]",
    name: str = "query",
) -> Query:
    """Parse a CQL statement and compile it through the Stream builder.

    ``schemas`` maps the FROM-clause stream names to their schemas.  The
    returned query records the FROM-clause names on
    :attr:`Query.stream_names` (in input order), which
    :meth:`repro.api.SaberSession.sql` uses to bind each input to a
    registered source.

    Clause → plan mapping (one compile path with the fluent builder, so
    CQL and builder queries produce identical operator graphs):

    * ``FROM s [window]``            → ``Stream.named(s).window(...)``
    * ``WHERE p``                    → ``.where(p)`` (also applied under
      ``SELECT DISTINCT`` — the filter runs inside the window before
      duplicate elimination)
    * ``SELECT items``               → ``.select(...)`` [``.distinct()``]
    * aggregates [+ ``GROUP BY``]    → ``.aggregate(...)`` /
      ``.group_by(keys..., aggs...)`` [+ ``.having(p)``]
    * two streams + ``WHERE``        → ``.join(other, on=p)``
    """
    parser = _Parser(_tokenize(text))
    parser.expect("keyword", "select")
    items, distinct = _parse_select_items(parser)
    parser.expect("keyword", "from")
    streams = [_parse_stream_clause(parser)]
    while parser.accept("op", ","):
        streams.append(_parse_stream_clause(parser))
    where = None
    if parser.accept("keyword", "where"):
        where = parser.parse_predicate()
    group_by: list[str] = []
    if parser.accept("keyword", "group"):
        parser.expect("keyword", "by")
        group_by.append(parser.expect("name").text)
        while parser.accept("op", ","):
            group_by.append(parser.expect("name").text)
    having = None
    if parser.accept("keyword", "having"):
        having = parser.parse_predicate()
    if parser.peek() is not None:
        raise CQLSyntaxError(f"trailing input at {parser.peek().text!r}")

    for clause in streams:
        if clause.name not in schemas:
            raise CQLSyntaxError(f"unknown stream {clause.name!r} in FROM clause")

    # Deferred import: repro.api builds on repro.core, not the reverse.
    from ..api.builder import Stream

    def windowed(clause: _StreamClause) -> Stream:
        plan = Stream.named(clause.name, schemas[clause.name])
        if clause.window is None:
            return plan.unbounded()
        if clause.window.is_count_based:
            return plan.window(rows=clause.window.size, slide=clause.window.slide)
        return plan.window(time=clause.window.size, slide=clause.window.slide)

    try:
        if len(streams) == 2:
            if where is None:
                raise CQLSyntaxError("a join query needs a WHERE predicate")
            plan = windowed(streams[0]).join(windowed(streams[1]), on=where)
            return plan.build(name)
        if len(streams) != 1:
            raise CQLSyntaxError("only 1- and 2-stream queries are supported")

        plan = windowed(streams[0])
        if where is not None:
            plan = plan.where(where)
        aggregates = [i.aggregate for i in items if i.aggregate is not None]
        if aggregates:
            # Plain select items (timestamp, key columns) are implicit in
            # the aggregated output schema; the grammar drops them.
            if group_by:
                plan = plan.group_by(*group_by, *aggregates)
                if having is not None:
                    plan = plan.having(having)
            else:
                if having is not None:
                    raise CQLSyntaxError("HAVING without GROUP BY is not supported")
                plan = plan.aggregate(*aggregates)
        else:
            if having is not None:
                raise CQLSyntaxError("HAVING without GROUP BY is not supported")
            plan = plan.select(*[(i.alias, i.expression) for i in items])
            if distinct:
                plan = plan.distinct()
        return plan.build(name)
    except QueryError as exc:
        # Builder/operator validation failures surface as CQL errors: the
        # statement, not the plan object, is what the caller wrote.
        raise CQLSyntaxError(str(exc)) from exc

